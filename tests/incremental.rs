//! Regression tests for the incremental per-round contexts: after every
//! feedback round, [`GenerationContext::advance`] must yield a context
//! equivalent to building one from scratch with `GenerationContext::new` —
//! same class space, same source classes, and bit-identical skyline results.

use std::time::Duration;

use qfe::prelude::*;
use qfe_core::{skyline_stc_dtc_pairs, CellEdit, DatabaseGenerator, GenerationContext};
use qfe_query::{evaluate, SpjQuery};
use qfe_relation::{Database, Value};

/// Asserts deep equivalence of an advanced context and a from-scratch one.
fn assert_contexts_equivalent(advanced: &GenerationContext, fresh: &GenerationContext) {
    assert_eq!(advanced.queries().len(), fresh.queries().len());
    assert_eq!(advanced.join().len(), fresh.join().len());
    for (a, f) in advanced.join().rows().iter().zip(fresh.join().rows()) {
        assert_eq!(a.tuple, f.tuple, "join rows diverged");
    }
    assert_eq!(
        advanced.class_space().attribute_count(),
        fresh.class_space().attribute_count()
    );
    for (a, f) in advanced
        .class_space()
        .attributes()
        .iter()
        .zip(fresh.class_space().attributes())
    {
        assert_eq!(a.column, f.column);
        assert_eq!(a.reference, f.reference);
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
    assert_eq!(
        advanced.modifiable_attributes(),
        fresh.modifiable_attributes()
    );
    assert_eq!(advanced.projection_columns(), fresh.projection_columns());
    // The class-level kernel agrees: bit-identical skyline outcomes.
    let budget = Duration::from_secs(60);
    let a = skyline_stc_dtc_pairs(advanced, budget);
    let f = skyline_stc_dtc_pairs(fresh, budget);
    assert_eq!(a.pairs, f.pairs);
    assert_eq!(a.min_balance.to_bits(), f.min_balance.to_bits());
    assert_eq!(a.best_binary_x, f.best_binary_x);
    assert_eq!(a.enumerated, f.enumerated);
}

/// Drives generation rounds with worst-case (largest-group) feedback,
/// checking advance-vs-fresh equivalence at every round.
fn drive_rounds_checking_advance(
    db: &Database,
    result: &qfe_query::QueryResult,
    candidates: Vec<SpjQuery>,
) {
    let generator = DatabaseGenerator::default();
    let mut queries = candidates;
    let mut ctx = GenerationContext::new(db, result, &queries).unwrap();
    for _round in 0..8 {
        if queries.len() <= 1 {
            break;
        }
        let generated = match generator.generate_with_context(&ctx) {
            Ok(g) => g,
            Err(_) => break, // indistinguishable survivors: nothing to advance
        };
        // Worst-case user: keep the largest group (ties broken by order).
        let surviving: Vec<usize> = generated
            .partition
            .groups
            .iter()
            .max_by_key(|g| g.query_indices.len())
            .expect("at least one group")
            .query_indices
            .clone();
        if surviving.len() == queries.len() {
            break; // no progress possible
        }
        let advanced = ctx.advance(&surviving, &[]).expect("advance succeeds");
        queries = surviving.iter().map(|&i| queries[i].clone()).collect();
        let fresh = GenerationContext::new(db, result, &queries).unwrap();
        assert_contexts_equivalent(&advanced, &fresh);
        // Continue the chain from the *advanced* context so divergence
        // compounds (and would be caught) across rounds.
        ctx = advanced;
    }
}

#[test]
fn advance_equals_fresh_context_after_each_round_on_example_1_1() {
    let (db, result, candidates, _) = qfe::datasets::example_1_1();
    drive_rounds_checking_advance(&db, &result, candidates);
}

#[test]
fn advance_equals_fresh_context_on_scientific_workload() {
    let workload = qfe::datasets::scientific_scaled(42, 200, 40, 5);
    let target = workload.query("Q2").expect("query").clone();
    let result = workload.example_result("Q2").expect("result");
    // A modest candidate set built by mutating the target's constants.
    let candidates = qfe_qbo::grow_candidates(
        &workload.database,
        &result,
        std::slice::from_ref(&target),
        10,
    )
    .unwrap();
    if candidates.len() < 2 {
        return; // degenerate seed; nothing to distinguish
    }
    drive_rounds_checking_advance(&workload.database, &result, candidates);
}

#[test]
fn advance_with_edits_equals_fresh_context_on_patched_database() {
    let (db, result, candidates, _) = qfe::datasets::example_1_1();
    let ctx = GenerationContext::new(&db, &result, &candidates).unwrap();
    let edits = vec![CellEdit {
        table: "Employee".to_string(),
        row: 3,
        column: "salary".to_string(),
        new_value: Value::Int(3100),
    }];
    let advanced = ctx.advance(&[0, 1, 2], &edits).unwrap();
    let patched = qfe_core::apply_edits(&db, &edits).unwrap();
    let fresh = GenerationContext::new(&patched, &result, &candidates).unwrap();
    assert_contexts_equivalent(&advanced, &fresh);
}

#[test]
fn engine_with_incremental_contexts_matches_session_outcomes() {
    // The engine advances its round context internally; the oracle-driven
    // outcome must be what the (fresh-context) blocking driver produces.
    let (db, result, candidates, _) = qfe::datasets::example_1_1();
    for target in candidates.clone() {
        let session = QfeSession::builder(db.clone(), result.clone())
            .with_candidates(candidates.clone())
            .build()
            .unwrap();
        let outcome = session.run(&OracleUser::new(target.clone())).unwrap();
        assert_eq!(outcome.query.label, target.label);
        // Cross-check the final query against direct evaluation.
        assert!(evaluate(&outcome.query, &db)
            .unwrap()
            .bag_equal(&evaluate(&target, &db).unwrap()));
    }
}
