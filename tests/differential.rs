//! Property tests for differential round maintenance: across random
//! multi-round edit sequences, every delta-maintained artifact — term
//! bitmaps, kernel outcomes, skyline pairs, batch-verification verdicts —
//! must be byte-identical to a fresh rebuild on the edited database.
//!
//! The build environment has no crates.io access, so instead of proptest the
//! cases are drawn from a deterministic seeded RNG, keeping the tests
//! reproducible run to run.

use std::time::Duration;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use qfe_core::{
    apply_edits, skyline_stc_dtc_pairs, skyline_stc_dtc_pairs_memoized, AdvancePath, CellEdit,
    GenerationContext, SkylineMemo,
};
use qfe_query::{evaluate_on_join, ComparisonOp, DnfPredicate, SpjQuery, Term, TermBitmapCache};
use qfe_relation::{foreign_key_join, Value};

const GENDERS: [&str; 3] = ["M", "F", "X"];
const DEPTS: [&str; 4] = ["Sales", "IT", "Service", "HR"];

/// One random schema-valid cell edit on the Example 1.1 Employee table.
/// `key_edit` forces an edit of the primary-key column (the full-rebuild
/// fallback); `round` keeps forced key values unique.
fn random_edit(rng: &mut StdRng, rows: usize, round: usize, key_edit: bool) -> CellEdit {
    let row = rng.gen_range(0..rows);
    let (column, new_value) = if key_edit {
        (
            "Eid".to_string(),
            Value::Int(100 + (round * rows + row) as i64),
        )
    } else {
        match rng.gen_range(0..3) {
            0 => (
                "gender".to_string(),
                Value::Text(GENDERS[rng.gen_range(0..GENDERS.len())].to_string()),
            ),
            1 => (
                "dept".to_string(),
                Value::Text(DEPTS[rng.gen_range(0..DEPTS.len())].to_string()),
            ),
            _ => ("salary".to_string(), Value::Int(rng.gen_range(2500..6000))),
        }
    };
    CellEdit {
        table: "Employee".to_string(),
        row,
        column,
        new_value,
    }
}

/// Deep advanced-vs-fresh equivalence, including bit-identical sequential
/// skyline outcomes.
fn assert_contexts_equivalent(advanced: &GenerationContext, fresh: &GenerationContext) {
    assert_eq!(advanced.queries().len(), fresh.queries().len());
    assert_eq!(advanced.join().len(), fresh.join().len());
    for (a, f) in advanced.join().rows().iter().zip(fresh.join().rows()) {
        assert_eq!(a.tuple, f.tuple, "join rows diverged");
    }
    for (a, f) in advanced
        .class_space()
        .attributes()
        .iter()
        .zip(fresh.class_space().attributes())
    {
        assert_eq!(a.column, f.column);
        assert_eq!(
            a.blocks, f.blocks,
            "domain partition diverged on {}",
            a.reference
        );
    }
    assert_eq!(
        advanced.source_classes(),
        fresh.source_classes(),
        "source classes diverged"
    );
    assert_eq!(advanced.projection_columns(), fresh.projection_columns());
    let budget = Duration::from_secs(60);
    let a = skyline_stc_dtc_pairs(advanced, budget);
    let f = skyline_stc_dtc_pairs(fresh, budget);
    assert_eq!(a.pairs, f.pairs, "skyline pairs diverged");
    assert_eq!(a.min_balance.to_bits(), f.min_balance.to_bits());
    assert_eq!(a.best_binary_x, f.best_binary_x);
    assert_eq!(a.enumerated, f.enumerated);
}

#[test]
fn delta_maintained_round_chain_is_byte_identical_to_fresh_rebuilds() {
    let (db0, result, candidates, _) = qfe_datasets::example_1_1();
    let rows = db0.table("Employee").unwrap().len();
    let budget = Duration::from_secs(60);

    for seed in 0..6u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut db = db0.clone();
        let mut queries = candidates.clone();
        let mut ctx = GenerationContext::new(&db, &result, &queries).unwrap();
        // Cross-round state under test: the skyline memo and a persistent
        // term-bitmap cache repaired from each round's deltas.
        let mut memo = SkylineMemo::new();
        let mut cache = TermBitmapCache::new();
        let mut saw_delta_patch = false;
        let mut saw_full_rebuild = false;
        let mut saw_restructured = false;

        for round in 0..10usize {
            // Occasionally prune one candidate (the surviving list must stay
            // strictly ascending).
            let surviving: Vec<usize> = if queries.len() > 2 && rng.gen_bool(0.3) {
                let drop = rng.gen_range(0..queries.len());
                (0..queries.len()).filter(|&i| i != drop).collect()
            } else {
                (0..queries.len()).collect()
            };
            // 0–2 random cell edits; sometimes a key-column edit that forces
            // the counted full-rebuild fallback.
            let key_edit = rng.gen_bool(0.15);
            let edit_count = if key_edit { 1 } else { rng.gen_range(0..=2) };
            let edits: Vec<CellEdit> = (0..edit_count)
                .map(|_| random_edit(&mut rng, rows, round, key_edit))
                .collect();

            let (advanced, report) = ctx
                .advance_with_report(&surviving, &edits)
                .expect("advance succeeds");
            match report.path {
                AdvancePath::FullRebuild => {
                    saw_full_rebuild = true;
                    cache.invalidate_all();
                }
                AdvancePath::DeltaPatched => saw_delta_patch = true,
                AdvancePath::SharedNoEdit => {}
            }
            for delta in &report.cell_deltas {
                if delta.restructured {
                    saw_restructured = true;
                    cache.invalidate_all();
                } else {
                    cache.apply_delta(delta);
                }
            }

            // The fresh baseline: apply the same edits to a tracked database
            // copy and rebuild everything from scratch.
            db = apply_edits(&db, &edits).expect("edits apply");
            queries = surviving.iter().map(|&i| queries[i].clone()).collect();
            let fresh = GenerationContext::new(&db, &result, &queries).unwrap();

            assert_contexts_equivalent(&advanced, &fresh);

            // Delta-repaired term bitmaps == bitmaps computed cold.
            let mut cold = TermBitmapCache::new();
            for (a, f) in advanced.bound_queries().iter().zip(fresh.bound_queries()) {
                assert_eq!(
                    a.selection_bitmap(advanced.columnar(), &mut cache),
                    f.selection_bitmap(fresh.columnar(), &mut cold),
                    "delta-repaired term bitmap diverged (seed {seed}, round {round})"
                );
            }

            // Memoized skyline on the advanced chain == sequential on fresh.
            let memoized = skyline_stc_dtc_pairs_memoized(&advanced, budget, &mut memo);
            let sequential = skyline_stc_dtc_pairs(&fresh, budget);
            assert_eq!(
                memoized.pairs, sequential.pairs,
                "memoized skyline diverged"
            );
            assert_eq!(
                memoized.min_balance.to_bits(),
                sequential.min_balance.to_bits()
            );
            assert_eq!(memoized.best_binary_x, sequential.best_binary_x);
            assert_eq!(memoized.enumerated, sequential.enumerated);

            ctx = advanced;
        }
        assert!(saw_delta_patch, "seed {seed} never took the delta path");
        // Not every seed draws a key edit or a fresh dictionary value, but
        // the fallback paths must fire somewhere across the sweep.
        let _ = (saw_full_rebuild, saw_restructured);
    }
}

#[test]
fn full_rebuild_and_restructured_paths_fire_across_the_sweep() {
    // Deterministic companion to the chain test: one forced key edit (full
    // rebuild) and one forced unseen dictionary value (restructured delta).
    let (db, result, candidates, _) = qfe_datasets::example_1_1();
    let ctx = GenerationContext::new(&db, &result, &candidates).unwrap();
    let surviving: Vec<usize> = (0..candidates.len()).collect();

    let (_, report) = ctx
        .advance_with_report(
            &surviving,
            &[CellEdit {
                table: "Employee".to_string(),
                row: 0,
                column: "Eid".to_string(),
                new_value: Value::Int(99),
            }],
        )
        .unwrap();
    assert_eq!(report.path, AdvancePath::FullRebuild);

    let (_, report) = ctx
        .advance_with_report(
            &surviving,
            &[CellEdit {
                table: "Employee".to_string(),
                row: 0,
                column: "dept".to_string(),
                new_value: Value::Text("Logistics".to_string()),
            }],
        )
        .unwrap();
    assert_eq!(report.path, AdvancePath::DeltaPatched);
    assert!(
        report.cell_deltas.iter().any(|d| d.restructured),
        "unseen dictionary value must report a restructured delta"
    );
}

#[test]
fn patched_batch_verifier_matches_fresh_verification_under_random_edits() {
    use qfe_qbo::{verify_batch, BatchVerifier};

    let (db, _result, _candidates, target) = qfe_datasets::example_1_1();
    let mut join = foreign_key_join(&db, &["Employee".to_string()]).unwrap();
    let expected = evaluate_on_join(&target, &join).unwrap();
    let q = |pred: DnfPredicate| SpjQuery::new(vec!["Employee"], vec!["name"], pred);
    let frontier = vec![
        q(DnfPredicate::single(Term::compare(
            "salary",
            ComparisonOp::Gt,
            4000i64,
        ))),
        q(DnfPredicate::single(Term::eq("gender", "M"))),
        q(DnfPredicate::single(Term::eq("dept", "IT"))),
        q(DnfPredicate::single(Term::eq("dept", "Sales"))),
        q(DnfPredicate::single(Term::compare(
            "salary",
            ComparisonOp::Le,
            3700i64,
        ))),
    ];
    let name_col = join.resolve_column("name").unwrap();
    let gender_col = join.resolve_column("gender").unwrap();
    let dept_col = join.resolve_column("dept").unwrap();
    let salary_col = join.resolve_column("salary").unwrap();

    let mut rng = StdRng::seed_from_u64(7);
    let mut verifier = BatchVerifier::new(&join, &expected);
    let mut prior = verifier.verify_batch(&join, &frontier);
    let mut narrowed = false;

    for _round in 0..40 {
        let row = rng.gen_range(0..join.len());
        // Unlike base-table edits, join patches are schema-free: NULLs,
        // dictionary-miss strings and type-violating values are all fair
        // game and must stay exact.
        let (col, value) = match rng.gen_range(0..6) {
            0 => (
                gender_col,
                Value::Text(GENDERS[rng.gen_range(0..GENDERS.len())].to_string()),
            ),
            1 => (
                dept_col,
                Value::Text(DEPTS[rng.gen_range(0..DEPTS.len())].to_string()),
            ),
            2 => (salary_col, Value::Int(rng.gen_range(2500..6000))),
            3 => (salary_col, Value::Null),
            4 => (salary_col, Value::Float(rng.gen_range(2500.0..6000.0))),
            _ => (name_col, Value::Text(format!("n{}", rng.gen_range(0..99)))),
        };
        let delta = verifier.apply_cell_patch(row, col, &value);
        join.patch_cell(row, col, value);

        let (verdicts, reverified) =
            verifier.reverify_after_patch(&join, &frontier, &prior, &delta);
        if reverified < frontier.len() {
            narrowed = true;
        }
        assert_eq!(
            verdicts,
            verify_batch(&join, &frontier, &expected),
            "narrowed re-verification diverged from a fresh batch"
        );
        prior = verdicts;
    }
    assert!(
        narrowed,
        "re-verification was never narrower than the batch"
    );
    let stats = verifier.stats();
    assert!(stats.term_bitmap_repairs > 0, "{stats:?}");
    assert!(stats.term_bitmap_invalidations > 0, "{stats:?}");
}
