//! Property-based tests for the core invariants: the table edit distance,
//! query-result comparison, domain partitioning, tuple-class consistency and
//! the termination of the QFE driver.
//!
//! The build environment has no crates.io access, so instead of proptest the
//! cases are drawn from the workspace's deterministic seeded RNG: each
//! property runs against a few dozen seeded random instances, which keeps the
//! tests reproducible run to run.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use qfe::prelude::*;
use qfe_core::{partition_numeric_domain, TupleClassSpace};
use qfe_query::{evaluate, partition_queries, BoundQuery, Term};
use qfe_relation::{
    bag_equal_rows, foreign_key_join, min_edit_rows, ColumnDef, Table, TableSchema, Tuple, Value,
};

// ---------------------------------------------------------------------------
// Generators
// ---------------------------------------------------------------------------

const DEPTS: [&str; 4] = ["IT", "Sales", "Service", "HR"];

/// A small Employee-like row set with random salaries/departments and unique
/// keys.
fn employee_rows(rng: &mut StdRng) -> Vec<(i64, String, i64)> {
    let n = rng.gen_range(2usize..12);
    (0..n)
        .map(|i| {
            (
                i as i64,
                DEPTS[rng.gen_range(0..DEPTS.len())].to_string(),
                rng.gen_range(1000i64..9000),
            )
        })
        .collect()
}

fn build_employee(rows: &[(i64, String, i64)]) -> Database {
    let schema = TableSchema::new(
        "Employee",
        vec![
            ColumnDef::new("Eid", DataType::Int),
            ColumnDef::new("dept", DataType::Text),
            ColumnDef::new("salary", DataType::Int),
        ],
    )
    .unwrap()
    .with_primary_key(&["Eid"])
    .unwrap();
    let tuples: Vec<Tuple> = rows
        .iter()
        .map(|(id, dept, salary)| {
            Tuple::new(vec![
                Value::Int(*id),
                Value::Text(dept.clone()),
                Value::Int(*salary),
            ])
        })
        .collect();
    let mut db = Database::new();
    db.add_table(Table::with_rows(schema, tuples).unwrap())
        .unwrap();
    db
}

/// Random small multisets of arity-3 integer tuples with tiny domains, so
/// collisions (equal rows) actually happen.
fn tuple_rows(rng: &mut StdRng) -> Vec<Tuple> {
    let n = rng.gen_range(0usize..8);
    (0..n)
        .map(|_| Tuple::new((0..3).map(|_| Value::Int(rng.gen_range(0i64..6))).collect()))
        .collect()
}

// ---------------------------------------------------------------------------
// minEdit properties
// ---------------------------------------------------------------------------

#[test]
fn min_edit_is_a_sane_distance() {
    let mut rng = StdRng::seed_from_u64(101);
    for _ in 0..64 {
        let ta = tuple_rows(&mut rng);
        let tb = tuple_rows(&mut rng);
        let d_ab = min_edit_rows(&ta, &tb, 3);
        let d_ba = min_edit_rows(&tb, &ta, 3);
        assert_eq!(d_ab, d_ba, "minEdit must be symmetric");
        assert_eq!(d_ab == 0, bag_equal_rows(&ta, &tb));
        assert!(d_ab <= (ta.len() + tb.len()) * 3);
        assert_eq!(min_edit_rows(&ta, &ta, 3), 0);
    }
}

#[test]
fn single_modification_costs_one() {
    let mut rng = StdRng::seed_from_u64(102);
    for _ in 0..64 {
        let ta = tuple_rows(&mut rng);
        if ta.is_empty() {
            continue;
        }
        let idx = rng.gen_range(0..ta.len());
        let col = rng.gen_range(0usize..3);
        let delta = rng.gen_range(1i64..5);
        let mut tb = ta.clone();
        let old = tb[idx].get(col).unwrap().as_i64().unwrap();
        tb[idx].set(col, Value::Int(old + 10 + delta)); // guaranteed change
        assert_eq!(min_edit_rows(&ta, &tb, 3), 1);
    }
}

// ---------------------------------------------------------------------------
// Domain partitioning and tuple classes
// ---------------------------------------------------------------------------

#[test]
fn numeric_partition_is_a_partition() {
    let mut rng = StdRng::seed_from_u64(103);
    for _ in 0..64 {
        let constants: Vec<i64> = (0..rng.gen_range(1usize..5))
            .map(|_| rng.gen_range(-50i64..50))
            .collect();
        let terms: Vec<Term> = constants
            .iter()
            .enumerate()
            .map(|(i, &c)| {
                let op = match i % 4 {
                    0 => ComparisonOp::Lt,
                    1 => ComparisonOp::Le,
                    2 => ComparisonOp::Gt,
                    _ => ComparisonOp::Ge,
                };
                Term::compare("A", op, c)
            })
            .collect();
        let term_refs: Vec<&Term> = terms.iter().collect();
        let blocks = partition_numeric_domain(&term_refs, &[]);
        for _ in 0..20 {
            let v = Value::Int(rng.gen_range(-60i64..60));
            let containing: Vec<usize> = blocks
                .iter()
                .enumerate()
                .filter(|(_, b)| b.contains(&v))
                .map(|(i, _)| i)
                .collect();
            assert_eq!(
                containing.len(),
                1,
                "value {v} must lie in exactly one block"
            );
            let block = &blocks[containing[0]];
            for t in &terms {
                assert_eq!(t.eval(&v), t.eval(block.representative()));
            }
        }
    }
}

#[test]
fn tuple_classes_agree_with_evaluation() {
    let mut rng = StdRng::seed_from_u64(104);
    for _ in 0..64 {
        let rows = employee_rows(&mut rng);
        let threshold = rng.gen_range(2000i64..8000);
        let db = build_employee(&rows);
        let queries = vec![
            SpjQuery::new(
                vec!["Employee"],
                vec!["Eid"],
                DnfPredicate::single(Term::compare("salary", ComparisonOp::Gt, threshold)),
            ),
            SpjQuery::new(
                vec!["Employee"],
                vec!["Eid"],
                DnfPredicate::single(Term::eq("dept", "IT")),
            ),
        ];
        let join = foreign_key_join(&db, &["Employee".to_string()]).unwrap();
        let space = TupleClassSpace::build(&join, &queries).unwrap();
        let bound: Vec<BoundQuery> = queries
            .iter()
            .map(|q| BoundQuery::bind(q, &join).unwrap())
            .collect();
        for row in join.rows() {
            let class = space.classify(&row.tuple).unwrap();
            for b in &bound {
                assert_eq!(space.class_matches(&class, b), b.matches_row(&row.tuple));
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Partitioning and driver termination
// ---------------------------------------------------------------------------

#[test]
fn result_partition_is_a_partition() {
    let mut rng = StdRng::seed_from_u64(105);
    for _ in 0..32 {
        let rows = employee_rows(&mut rng);
        let t1 = rng.gen_range(2000i64..8000);
        let t2 = rng.gen_range(2000i64..8000);
        let db = build_employee(&rows);
        let queries = vec![
            SpjQuery::new(
                vec!["Employee"],
                vec!["Eid"],
                DnfPredicate::single(Term::compare("salary", ComparisonOp::Gt, t1)),
            ),
            SpjQuery::new(
                vec!["Employee"],
                vec!["Eid"],
                DnfPredicate::single(Term::compare("salary", ComparisonOp::Le, t2)),
            ),
            SpjQuery::new(
                vec!["Employee"],
                vec!["Eid"],
                DnfPredicate::single(Term::eq("dept", "Sales")),
            ),
        ];
        let partition = partition_queries(&queries, &db).unwrap();
        let total: usize = partition.sizes().iter().sum();
        assert_eq!(total, queries.len());
        for (i, g) in partition.groups.iter().enumerate() {
            for h in partition.groups.iter().skip(i + 1) {
                assert!(!g.result.bag_equal(&h.result));
            }
            for &qi in &g.query_indices {
                assert!(evaluate(&queries[qi], &db).unwrap().bag_equal(&g.result));
            }
        }
    }
}

#[test]
fn driver_terminates_and_is_consistent() {
    let mut rng = StdRng::seed_from_u64(106);
    for _ in 0..24 {
        let rows = employee_rows(&mut rng);
        let threshold = rng.gen_range(2000i64..8000);
        let db = build_employee(&rows);
        let target = SpjQuery::new(
            vec!["Employee"],
            vec!["Eid"],
            DnfPredicate::single(Term::compare("salary", ComparisonOp::Gt, threshold)),
        );
        let result = evaluate(&target, &db).unwrap();
        if result.is_empty() {
            continue;
        }
        let session = QfeSession::builder(db.clone(), result.clone())
            .ensure_candidate(target.clone())
            .with_params(
                CostParams::default().with_skyline_budget(std::time::Duration::from_millis(10)),
            )
            .build();
        let session = match session {
            Ok(s) => s,
            Err(_) => continue, // degenerate data: no candidates
        };
        match session.run(&OracleUser::new(target.clone())) {
            Ok(outcome) => {
                assert!(evaluate(&outcome.query, &db).unwrap().bag_equal(&result));
                assert!(outcome.report.iterations() <= 64);
            }
            // The oracle's target may be pruned if the generated candidate set
            // does not contain it distinguishably; reporting that is
            // acceptable, silent hangs are not.
            Err(QfeError::TargetNotInCandidates) => {}
            Err(other) => panic!("unexpected error: {other}"),
        }
    }
}

// ---------------------------------------------------------------------------
// Skyline determinism: memoized engine path vs. sequential oracle
// ---------------------------------------------------------------------------

/// A random schema/query mix that exercises categorical and numeric
/// attributes, multi-conjunct predicates, and varying class-space sizes.
fn random_candidates(rng: &mut StdRng) -> Vec<SpjQuery> {
    let mut queries = Vec::new();
    let n = rng.gen_range(2usize..7);
    for _ in 0..n {
        let threshold = rng.gen_range(1000i64..9000);
        let predicate = match rng.gen_range(0u8..4) {
            0 => DnfPredicate::single(Term::compare("salary", ComparisonOp::Gt, threshold)),
            1 => DnfPredicate::single(Term::compare("salary", ComparisonOp::Le, threshold)),
            2 => DnfPredicate::single(Term::eq("dept", DEPTS[rng.gen_range(0..DEPTS.len())])),
            _ => DnfPredicate::new(vec![
                qfe_query::Conjunct::new(vec![Term::eq(
                    "dept",
                    DEPTS[rng.gen_range(0..DEPTS.len())],
                )]),
                qfe_query::Conjunct::new(vec![Term::compare(
                    "salary",
                    ComparisonOp::Ge,
                    threshold,
                )]),
            ]),
        };
        queries.push(SpjQuery::new(vec!["Employee"], vec!["Eid"], predicate));
    }
    queries
}

#[test]
fn memoized_skyline_is_identical_to_sequential_on_random_schemas() {
    use qfe_core::{
        skyline_stc_dtc_pairs, skyline_stc_dtc_pairs_memoized, GenerationContext, SkylineMemo,
        SkylineOutcome,
    };
    let assert_same = |memoized: &SkylineOutcome, sequential: &SkylineOutcome, memo: &str| {
        assert_eq!(memoized.pairs, sequential.pairs, "{memo} memo");
        assert_eq!(
            memoized.min_balance.to_bits(),
            sequential.min_balance.to_bits(),
            "min_balance must be bit-identical ({memo} memo)"
        );
        assert_eq!(
            memoized.best_binary_x, sequential.best_binary_x,
            "{memo} memo"
        );
        assert_eq!(memoized.enumerated, sequential.enumerated, "{memo} memo");
    };
    let mut rng = StdRng::seed_from_u64(107);
    let mut checked = 0;
    for _ in 0..32 {
        let rows = employee_rows(&mut rng);
        let db = build_employee(&rows);
        let queries = random_candidates(&mut rng);
        let result = evaluate(&queries[0], &db).unwrap();
        let ctx = match GenerationContext::new(&db, &result, &queries) {
            Ok(c) => c,
            Err(_) => continue,
        };
        let budget = std::time::Duration::from_secs(60);
        let sequential = skyline_stc_dtc_pairs(&ctx, budget);
        let mut memo = SkylineMemo::new();
        let cold = skyline_stc_dtc_pairs_memoized(&ctx, budget, &mut memo);
        assert_same(&cold, &sequential, "cold");
        let recomputed = memo.recomputed_cells();
        let warm = skyline_stc_dtc_pairs_memoized(&ctx, budget, &mut memo);
        assert_same(&warm, &sequential, "warm");
        assert_eq!(
            memo.recomputed_cells(),
            recomputed,
            "warm run must not recompute"
        );
        checked += 1;
    }
    assert!(checked >= 16, "too few non-degenerate random instances");
}

#[test]
fn bitset_class_matching_agrees_with_bound_evaluation_on_random_schemas() {
    use qfe_core::GenerationContext;
    let mut rng = StdRng::seed_from_u64(108);
    for _ in 0..32 {
        let rows = employee_rows(&mut rng);
        let db = build_employee(&rows);
        let queries = random_candidates(&mut rng);
        let result = evaluate(&queries[0], &db).unwrap();
        let ctx = match GenerationContext::new(&db, &result, &queries) {
            Ok(c) => c,
            Err(_) => continue,
        };
        for row in ctx.join().rows() {
            let Some(class) = ctx.class_space().classify(&row.tuple) else {
                continue;
            };
            for (qi, bound) in ctx.bound_queries().iter().enumerate() {
                assert_eq!(
                    ctx.class_matches(&class, qi),
                    bound.matches_row(&row.tuple),
                    "kernel matching must agree with direct evaluation"
                );
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Columnar evaluation == row evaluation
// ---------------------------------------------------------------------------

const NAMES: [&str; 5] = ["alice", "bob", "carol", "dan", "eve"];

/// A table with a text column, a nullable float column and a nullable int
/// column, with random NULL patterns — the shapes the columnar layer must get
/// exactly right.
fn build_mixed(rng: &mut StdRng) -> Database {
    let schema = TableSchema::new(
        "T",
        vec![
            ColumnDef::new("id", DataType::Int),
            ColumnDef::new("name", DataType::Text),
            ColumnDef::nullable("score", DataType::Float),
            ColumnDef::nullable("qty", DataType::Int),
        ],
    )
    .unwrap()
    .with_primary_key(&["id"])
    .unwrap();
    let n = rng.gen_range(3usize..14);
    let rows: Vec<Tuple> = (0..n)
        .map(|i| {
            let score = if rng.gen_bool(0.25) {
                Value::Null
            } else {
                Value::Float(rng.gen_range(-50i64..50) as f64 / 10.0)
            };
            let qty = if rng.gen_bool(0.25) {
                Value::Null
            } else {
                Value::Int(rng.gen_range(0i64..6))
            };
            Tuple::new(vec![
                Value::Int(i as i64),
                Value::Text(NAMES[rng.gen_range(0..NAMES.len())].to_string()),
                score,
                qty,
            ])
        })
        .collect();
    let mut db = Database::new();
    db.add_table(Table::with_rows(schema, rows).unwrap())
        .unwrap();
    db
}

/// A random atomic term over the mixed table, including NULL literals,
/// cross-type comparisons (Int literal on the Float column and vice versa),
/// dictionary misses and IN/NOT IN lists.
fn random_mixed_term(rng: &mut StdRng) -> Term {
    let ops = [
        ComparisonOp::Eq,
        ComparisonOp::Ne,
        ComparisonOp::Lt,
        ComparisonOp::Le,
        ComparisonOp::Gt,
        ComparisonOp::Ge,
    ];
    let op = ops[rng.gen_range(0..ops.len())];
    match rng.gen_range(0u8..5) {
        0 => {
            let lit = match rng.gen_range(0u8..4) {
                0 => Value::Text(NAMES[rng.gen_range(0..NAMES.len())].to_string()),
                1 => Value::Text("zz-not-in-dictionary".to_string()),
                2 => Value::Int(3), // cross-type vs. text
                _ => Value::Null,
            };
            Term::Compare {
                attribute: "name".to_string(),
                op,
                value: lit,
            }
        }
        1 => {
            let lit = match rng.gen_range(0u8..4) {
                0 => Value::Float(rng.gen_range(-50i64..50) as f64 / 10.0),
                1 => Value::Int(rng.gen_range(-5i64..5)), // cross-type vs. float
                2 => Value::Float(f64::NAN),
                _ => Value::Null,
            };
            Term::Compare {
                attribute: "score".to_string(),
                op,
                value: lit,
            }
        }
        2 => {
            let lit = match rng.gen_range(0u8..3) {
                0 => Value::Int(rng.gen_range(-1i64..7)),
                // Midpoint floats vs. the int column.
                1 => Value::Float(rng.gen_range(0i64..6) as f64 + 0.5),
                _ => Value::Null,
            };
            Term::Compare {
                attribute: "qty".to_string(),
                op,
                value: lit,
            }
        }
        3 => {
            let k = rng.gen_range(1usize..4);
            let values: Vec<Value> = (0..k)
                .map(|_| Value::Text(NAMES[rng.gen_range(0..NAMES.len())].to_string()))
                .collect();
            if rng.gen_bool(0.5) {
                Term::is_in("name", values)
            } else {
                Term::not_in("name", values)
            }
        }
        _ => {
            let k = rng.gen_range(1usize..4);
            let values: Vec<Value> = (0..k).map(|_| Value::Int(rng.gen_range(0i64..6))).collect();
            if rng.gen_bool(0.5) {
                Term::is_in("qty", values)
            } else {
                Term::not_in("qty", values)
            }
        }
    }
}

/// A random SPJ query over the mixed table: 1–3 conjuncts of 1–3 terms, a
/// random projection, sometimes DISTINCT.
fn random_mixed_query(rng: &mut StdRng) -> SpjQuery {
    let conjuncts: Vec<qfe_query::Conjunct> = (0..rng.gen_range(1usize..4))
        .map(|_| {
            qfe_query::Conjunct::new(
                (0..rng.gen_range(1usize..4))
                    .map(|_| random_mixed_term(rng))
                    .collect(),
            )
        })
        .collect();
    let projection = match rng.gen_range(0u8..3) {
        0 => vec!["name"],
        1 => vec!["qty", "name"],
        _ => vec!["id"],
    };
    let q = SpjQuery::new(vec!["T"], projection, DnfPredicate::new(conjuncts));
    if rng.gen_bool(0.25) {
        q.with_distinct(true)
    } else {
        q
    }
}

#[test]
fn columnar_evaluation_equals_row_evaluation_on_random_schemas() {
    use qfe_query::{evaluate_on_join, evaluate_on_join_columnar, TermBitmapCache};
    use qfe_relation::ColumnarJoin;
    let mut rng = StdRng::seed_from_u64(109);
    for _ in 0..48 {
        let db = build_mixed(&mut rng);
        let join = foreign_key_join(&db, &["T".to_string()]).unwrap();
        let columnar = ColumnarJoin::from_join(&join);
        let mut cache = TermBitmapCache::new();
        for _ in 0..8 {
            let query = random_mixed_query(&mut rng);
            let bound = BoundQuery::bind(&query, &join).unwrap();
            // Bit-level agreement of the selection bitmap with the row
            // evaluator...
            let bitmap = bound.selection_bitmap(&columnar, &mut cache);
            for (r, jr) in join.rows().iter().enumerate() {
                assert_eq!(
                    bitmap.get(r),
                    bound.matches_row(&jr.tuple),
                    "row {r} of {query}"
                );
            }
            // ...and row-for-row agreement of the materialized results.
            let row_result = evaluate_on_join(&query, &join).unwrap();
            let col_result =
                evaluate_on_join_columnar(&query, &join, &columnar, &mut cache).unwrap();
            assert_eq!(row_result.rows(), col_result.rows(), "{query}");
        }
    }
}

#[test]
fn columnar_evaluation_tracks_patches_including_type_violations() {
    use qfe_query::{evaluate_on_join, evaluate_on_join_columnar, TermBitmapCache};
    use qfe_relation::ColumnarJoin;
    let mut rng = StdRng::seed_from_u64(110);
    for _ in 0..32 {
        let db = build_mixed(&mut rng);
        let mut join = foreign_key_join(&db, &["T".to_string()]).unwrap();
        let mut columnar = ColumnarJoin::from_join(&join);
        let mut cache = TermBitmapCache::new();
        for _ in 0..6 {
            // Random patch: any column, any value kind — type-violating
            // patches demote the column to the exact fallback and must stay
            // indistinguishable from the row path.
            let row = rng.gen_range(0..join.len());
            let col = rng.gen_range(0..join.arity());
            let value = match rng.gen_range(0u8..4) {
                0 => Value::Null,
                1 => Value::Int(rng.gen_range(-5i64..9)),
                2 => Value::Float(rng.gen_range(-50i64..50) as f64 / 10.0),
                _ => Value::Text(NAMES[rng.gen_range(0..NAMES.len())].to_string()),
            };
            join.patch_cell(row, col, value.clone());
            columnar.patch_cell(row, col, &value);
            let query = random_mixed_query(&mut rng);
            let row_result = evaluate_on_join(&query, &join).unwrap();
            let col_result =
                evaluate_on_join_columnar(&query, &join, &columnar, &mut cache).unwrap();
            assert_eq!(row_result.rows(), col_result.rows(), "{query}");
            // Patched cells decode identically.
            assert_eq!(
                columnar.value_at(row, col),
                join.rows()[row]
                    .tuple
                    .get(col)
                    .cloned()
                    .unwrap_or(Value::Null)
            );
        }
        // The columnar active domains track the patched join exactly.
        for c in 0..join.arity() {
            assert_eq!(columnar.active_domain(c), join.active_domain(c), "col {c}");
        }
    }
}

#[test]
fn verify_batch_agrees_with_per_query_row_verification() {
    use qfe_qbo::verify_batch;
    use qfe_query::evaluate_on_join;
    let mut rng = StdRng::seed_from_u64(111);
    for _ in 0..32 {
        let db = build_mixed(&mut rng);
        let join = foreign_key_join(&db, &["T".to_string()]).unwrap();
        let mut frontier: Vec<SpjQuery> = (0..12).map(|_| random_mixed_query(&mut rng)).collect();
        // An unresolvable attribute must count as unverified, not error.
        frontier.push(SpjQuery::new(
            vec!["T"],
            vec!["name"],
            DnfPredicate::single(Term::eq("wage", 1i64)),
        ));
        let expected = evaluate_on_join(&frontier[0], &join).unwrap();
        let verdicts = verify_batch(&join, &frontier, &expected);
        assert_eq!(verdicts.len(), frontier.len());
        assert!(verdicts[0], "a query always reproduces its own result");
        for (query, &v) in frontier.iter().zip(&verdicts) {
            let row_verdict = evaluate_on_join(query, &join)
                .map(|r| r.bag_equal(&expected))
                .unwrap_or(false);
            assert_eq!(v, row_verdict, "{query}");
        }
    }
}

#[test]
fn batch_verifier_agrees_with_row_evaluator_on_every_enumerated_query() {
    use qfe_qbo::{
        candidate_projections, connected_table_subsets, enumerate_predicates, grow_candidates,
        split_rows, AttributeSpace, BatchVerifier, QboConfig, QueryGenerator,
    };
    use qfe_query::{evaluate_on_join, QueryResult};
    let config = QboConfig::default();
    let mut rng = StdRng::seed_from_u64(112);
    let (mut accepted, mut rejected) = (0, 0);
    for _ in 0..16 {
        let rows = employee_rows(&mut rng);
        let db = build_employee(&rows);
        let target = SpjQuery::new(
            vec!["Employee"],
            vec!["Eid"],
            DnfPredicate::single(Term::compare(
                "salary",
                ComparisonOp::Gt,
                rng.gen_range(2000i64..8000),
            )),
        );
        let result = evaluate(&target, &db).unwrap();
        if result.is_empty() {
            continue;
        }
        // `R` minus its first row: most enumerated queries must be rejected
        // against it, so both verdicts are exercised.
        let shorter = QueryResult::new(result.columns().to_vec(), result.rows()[1..].to_vec());
        for tables in connected_table_subsets(&db, config.max_join_tables) {
            let Ok(join) = foreign_key_join(&db, &tables) else {
                continue;
            };
            // One verifier per (join, expected result), as the generator
            // builds it, so verdicts replayed from its signature cache are
            // checked too.
            let mut verifiers = [
                (BatchVerifier::new(&join, &result), &result),
                (BatchVerifier::new(&join, &shorter), &shorter),
            ];
            let space = AttributeSpace::new(&join);
            for projection in
                candidate_projections(&join, &result, config.infer_projection_by_values)
            {
                let Some(proj_idx) = projection
                    .iter()
                    .map(|c| join.resolve_column(c).ok())
                    .collect::<Option<Vec<usize>>>()
                else {
                    continue;
                };
                let Some(split) = split_rows(&join, &proj_idx, &result) else {
                    continue;
                };
                for predicate in enumerate_predicates(&join, &space, &split, &config) {
                    let query = SpjQuery::new(tables.clone(), projection.clone(), predicate);
                    let evaluated = evaluate_on_join(&query, &join).ok();
                    for (verifier, expected) in &mut verifiers {
                        let row_verdict = evaluated.as_ref().is_some_and(|r| r.bag_equal(expected));
                        assert_eq!(verifier.verify(&join, &query), row_verdict, "{query}");
                        if row_verdict {
                            accepted += 1;
                        } else {
                            rejected += 1;
                        }
                    }
                }
            }
        }
        let Ok(base) = QueryGenerator::new(config.clone()).generate(&db, &result) else {
            continue;
        };
        for query in grow_candidates(&db, &result, &base, base.len() + 8).unwrap() {
            assert!(
                evaluate(&query, &db).unwrap().bag_equal(&result),
                "grown candidate does not reproduce R: {query}"
            );
        }
    }
    assert!(
        accepted >= 8 && rejected >= 8,
        "too few verdicts of one kind ({accepted} accepted, {rejected} rejected)"
    );
}

// ---------------------------------------------------------------------------
// Algorithm 4: the incremental pick vs. the direct implementation
// ---------------------------------------------------------------------------

/// The direct Algorithm 4, realization and evaluation, shared with the
/// `qfe-core` unit tests.
#[path = "../crates/core/src/oracle.rs"]
mod pick_oracle;

/// A random Dept ⋈ Emp database. Departments have several employees, so an
/// edit to a department cell changes several joined rows (fan-out side
/// effects).
fn build_dept_emp(rng: &mut StdRng) -> Database {
    let dept = TableSchema::new(
        "Dept",
        vec![
            ColumnDef::new("did", DataType::Int),
            ColumnDef::new("dname", DataType::Text),
            ColumnDef::nullable("budget", DataType::Int),
        ],
    )
    .unwrap()
    .with_primary_key(&["did"])
    .unwrap();
    let emp = TableSchema::new(
        "Emp",
        vec![
            ColumnDef::new("eid", DataType::Int),
            ColumnDef::new("did", DataType::Int),
            ColumnDef::new("salary", DataType::Int),
            ColumnDef::nullable("age", DataType::Int),
        ],
    )
    .unwrap()
    .with_primary_key(&["eid"])
    .unwrap();
    let depts = rng.gen_range(2usize..5);
    let dept_rows: Vec<Tuple> = (0..depts)
        .map(|d| {
            let budget = if rng.gen_bool(0.2) {
                Value::Null
            } else {
                Value::Int(rng.gen_range(1i64..6) * 100)
            };
            Tuple::new(vec![
                Value::Int(d as i64),
                Value::Text(DEPTS[rng.gen_range(0..DEPTS.len())].to_string()),
                budget,
            ])
        })
        .collect();
    let emp_rows: Vec<Tuple> = (0..rng.gen_range(4usize..11))
        .map(|e| {
            let age = if rng.gen_bool(0.2) {
                Value::Null
            } else {
                Value::Int(rng.gen_range(20i64..60))
            };
            Tuple::new(vec![
                Value::Int(e as i64),
                Value::Int(rng.gen_range(0..depts) as i64),
                Value::Int(rng.gen_range(10i64..90) * 100),
                age,
            ])
        })
        .collect();
    let mut db = Database::new();
    db.add_table(Table::with_rows(dept, dept_rows).unwrap())
        .unwrap();
    db.add_table(Table::with_rows(emp, emp_rows).unwrap())
        .unwrap();
    db.add_foreign_key(qfe_relation::ForeignKey::new("Emp", "did", "Dept", "did"))
        .unwrap();
    db
}

/// A random term over the Dept ⋈ Emp join: comparisons, `IN` and `NOT IN`.
fn random_dept_emp_term(rng: &mut StdRng) -> Term {
    let ops = [
        ComparisonOp::Eq,
        ComparisonOp::Ne,
        ComparisonOp::Lt,
        ComparisonOp::Ge,
    ];
    let op = ops[rng.gen_range(0..ops.len())];
    match rng.gen_range(0u8..5) {
        0 => Term::compare("salary", op, rng.gen_range(10i64..90) * 100),
        1 => Term::compare("age", op, rng.gen_range(20i64..60)),
        2 => Term::compare("budget", op, rng.gen_range(1i64..6) * 100),
        3 => Term::eq("dname", DEPTS[rng.gen_range(0..DEPTS.len())]),
        _ => {
            let values: Vec<Value> = (0..rng.gen_range(1usize..3))
                .map(|_| Value::from(DEPTS[rng.gen_range(0..DEPTS.len())]))
                .collect();
            if rng.gen_bool(0.5) {
                Term::is_in("dname", values)
            } else {
                Term::not_in("dname", values)
            }
        }
    }
}

/// `count` random queries over Dept ⋈ Emp with 1–2 conjuncts of 1–2 terms.
fn random_dept_emp_queries(rng: &mut StdRng, count: usize) -> Vec<SpjQuery> {
    (0..count)
        .map(|_| {
            let conjuncts: Vec<qfe_query::Conjunct> = (0..rng.gen_range(1usize..3))
                .map(|_| {
                    qfe_query::Conjunct::new(
                        (0..rng.gen_range(1usize..3))
                            .map(|_| random_dept_emp_term(rng))
                            .collect(),
                    )
                })
                .collect();
            SpjQuery::new(
                vec!["Dept", "Emp"],
                vec!["eid"],
                DnfPredicate::new(conjuncts),
            )
        })
        .collect()
}

/// Asserts the production pick equals the oracle's, field by field.
fn assert_same_pick(
    fast: &Result<qfe_core::PickOutcome, QfeError>,
    oracle: &Result<qfe_core::PickOutcome, QfeError>,
    what: &str,
) {
    match (fast, oracle) {
        (Ok(fast), Ok(oracle)) => {
            assert_eq!(fast.chosen, oracle.chosen, "{what}: chosen");
            assert_eq!(
                fast.cost.to_bits(),
                oracle.cost.to_bits(),
                "{what}: cost bits"
            );
            assert_eq!(
                fast.cost_evaluations, oracle.cost_evaluations,
                "{what}: cost evaluations"
            );
            assert_eq!(fast.realized, oracle.realized, "{what}: realized");
            assert_eq!(fast.evaluation, oracle.evaluation, "{what}: evaluation");
        }
        (Err(fast), Err(oracle)) => {
            assert_eq!(fast.to_string(), oracle.to_string(), "{what}: error");
        }
        _ => panic!("{what}: one pick failed and the other did not"),
    }
}

/// The incremental Algorithm 4 picks exactly what the direct one picks:
/// the same pairs, cost bits, evaluation count, realization and groups, on
/// random contexts. The pools are the skyline and every 1- and 2-attribute
/// destination pair of every source class (larger, with realization
/// conflicts and levels that reach `MAX_SETS_PER_LEVEL`). A pool of
/// `MAX_COST_EVALUATIONS - 64` repeated pairs leaves 64 costings for the
/// first extension level, so the evaluation cap cuts it, and a 2-candidate
/// context whose singletons all split perfectly covers the zero-balance
/// skip.
#[test]
fn incremental_pick_is_identical_to_the_direct_algorithm_on_random_contexts() {
    use qfe_core::{
        pick_stc_dtc_subset, skyline_stc_dtc_pairs, ClassPair, CostModelKind, GenerationContext,
        MAX_COST_EVALUATIONS, MAX_SETS_PER_LEVEL,
    };
    let mut rng = StdRng::seed_from_u64(108);
    let (mut contexts, mut level_caps, mut evaluation_caps, mut perfect_splits) = (0, 0, 0, 0);
    for case in 0..24 {
        let db = build_dept_emp(&mut rng);
        let count = if case % 8 == 0 {
            2
        } else {
            rng.gen_range(3usize..8)
        };
        let queries = random_dept_emp_queries(&mut rng, count);
        let result = evaluate(&queries[0], &db).unwrap();
        let Ok(ctx) = GenerationContext::new(&db, &result, &queries) else {
            continue;
        };
        let skyline = skyline_stc_dtc_pairs(&ctx, std::time::Duration::from_secs(60));
        let mut pool: Vec<ClassPair> = Vec::new();
        for class in ctx.source_classes().keys() {
            for k in 1..=2 {
                pool.extend(ctx.destination_pairs(class, k));
            }
        }
        // Bounded so the direct algorithm stays quick in debug builds.
        pool.truncate(200);
        let mut sky = skyline.pairs.clone();
        sky.truncate(200);
        let mut pools = vec![("skyline", sky), ("pool", pool.clone())];
        if case % 8 == 1 && !pool.is_empty() {
            let repeated: Vec<ClassPair> = pool
                .iter()
                .cycle()
                .take(MAX_COST_EVALUATIONS - 64)
                .cloned()
                .collect();
            pools.push(("repeated", repeated));
        }
        contexts += 1;
        for (name, pairs) in &pools {
            let model = if rng.gen_bool(0.25) {
                CostModelKind::MaxPartitions
            } else {
                CostModelKind::UserEffort
            };
            let params = CostParams::default().with_model(model);
            let fast = pick_stc_dtc_subset(&ctx, pairs, &params, skyline.best_binary_x);
            let mut level_sizes = Vec::new();
            let oracle = pick_oracle::pick_traced(
                &ctx,
                pairs,
                &params,
                skyline.best_binary_x,
                &mut level_sizes,
            );
            assert_same_pick(&fast, &oracle, &format!("case {case} {name}"));
            if level_sizes.contains(&MAX_SETS_PER_LEVEL) {
                level_caps += 1;
            }
            if fast.as_ref().is_ok_and(|o| {
                o.cost_evaluations == MAX_COST_EVALUATIONS && pairs.len() < MAX_COST_EVALUATIONS
            }) {
                evaluation_caps += 1;
            }
        }
        if count == 2
            && !skyline.pairs.is_empty()
            && (0..skyline.pairs.len()).all(|i| ctx.balance_of(&skyline.pairs, &[i]) == 0.0)
        {
            perfect_splits += 1;
            let params = CostParams::default();
            let fast = pick_stc_dtc_subset(&ctx, &skyline.pairs, &params, skyline.best_binary_x);
            assert_eq!(fast.as_ref().map(|o| o.extension_checks).ok(), Some(0));
            let oracle = pick_oracle::pick_stc_dtc_subset(
                &ctx,
                &skyline.pairs,
                &params,
                skyline.best_binary_x,
            );
            assert_same_pick(&fast, &oracle, &format!("case {case} perfect split"));
        }
    }
    assert!(contexts >= 20, "too few valid contexts: {contexts}");
    assert!(level_caps > 0, "no context reached MAX_SETS_PER_LEVEL");
    assert!(
        evaluation_caps > 0,
        "no context reached MAX_COST_EVALUATIONS"
    );
    assert!(perfect_splits > 0, "no 2-candidate perfect-split context");
}

/// The realization and the per-signature evaluation equal the direct ones
/// on random pair sets and on random edit sets, including edits to
/// department cells shared by several joined rows and edits that leave a
/// cell unchanged.
#[test]
fn realization_and_evaluation_match_the_direct_versions_on_random_edits() {
    use qfe_core::{evaluate_modification, realize_pairs, CellEdit, ClassPair, GenerationContext};
    let mut rng = StdRng::seed_from_u64(109);
    let (mut realized_sets, mut fan_out_edits) = (0, 0);
    for _ in 0..40 {
        let db = build_dept_emp(&mut rng);
        let count = rng.gen_range(2usize..8);
        let queries = random_dept_emp_queries(&mut rng, count);
        let result = evaluate(&queries[0], &db).unwrap();
        let Ok(ctx) = GenerationContext::new(&db, &result, &queries) else {
            continue;
        };
        let mut pool: Vec<ClassPair> = Vec::new();
        for class in ctx.source_classes().keys() {
            for k in 1..=2 {
                pool.extend(ctx.destination_pairs(class, k));
            }
        }
        for _ in 0..12 {
            if pool.is_empty() {
                break;
            }
            let pairs: Vec<ClassPair> = (0..rng.gen_range(1usize..5))
                .map(|_| pool[rng.gen_range(0..pool.len())].clone())
                .collect();
            let realized = realize_pairs(&ctx, &pairs);
            assert_eq!(realized, pick_oracle::realize_pairs(&ctx, &pairs));
            if let Some(realized) = realized {
                realized_sets += 1;
                assert_eq!(
                    evaluate_modification(&ctx, &realized.edits),
                    pick_oracle::evaluate_modification(&ctx, &realized.edits)
                );
            }
        }
        let depts = db.table("Dept").unwrap().len();
        let emps = db.table("Emp").unwrap().len();
        for _ in 0..12 {
            let edits: Vec<CellEdit> = (0..rng.gen_range(1usize..4))
                .map(|_| {
                    let (table, row, column, new_value) = match rng.gen_range(0u8..4) {
                        0 => (
                            "Dept",
                            rng.gen_range(0..depts),
                            "budget",
                            Value::Int(rng.gen_range(1i64..6) * 100),
                        ),
                        1 => (
                            "Dept",
                            rng.gen_range(0..depts),
                            "dname",
                            Value::from(DEPTS[rng.gen_range(0..DEPTS.len())]),
                        ),
                        2 => (
                            "Emp",
                            rng.gen_range(0..emps),
                            "salary",
                            Value::Int(rng.gen_range(10i64..90) * 100),
                        ),
                        _ => (
                            "Emp",
                            rng.gen_range(0..emps),
                            "age",
                            if rng.gen_bool(0.3) {
                                Value::Null
                            } else {
                                Value::Int(rng.gen_range(20i64..60))
                            },
                        ),
                    };
                    CellEdit {
                        table: table.to_string(),
                        row,
                        column: column.to_string(),
                        new_value,
                    }
                })
                .collect();
            if edits.iter().any(|e| e.table == "Dept") {
                fan_out_edits += 1;
            }
            assert_eq!(
                evaluate_modification(&ctx, &edits),
                pick_oracle::evaluate_modification(&ctx, &edits)
            );
        }
    }
    assert!(realized_sets >= 100, "too few realizable pair sets");
    assert!(fan_out_edits >= 100, "too few department edits");
}
