//! Algorithm 4: `Pick-STC-DTC-Subset`.
//!
//! Given the skyline pairs produced by Algorithm 3, selects a subset of
//! (STC, DTC) pairs that minimizes the user-effort cost (Equation 5).  The
//! search starts from single-pair sets and extends them one pair at a time,
//! keeping only extensions that improve the class-level balance score —
//! the pruning heuristic that keeps the search space small in practice
//! (Section 5.4). Ties on cost are broken by the lowest balance score.
//!
//! # Search order
//!
//! Level 0 holds the singletons `{0}, {1}, …` in skyline order, each one
//! costed. Each next level is built by visiting the current level's sets in
//! order and, for each parent `S`, the pairs `p ∉ S` in ascending order:
//!
//! * `T = S ∪ {p}` is marked seen *before* its balance is tested, so a set
//!   reached from several parents belongs to the first of them in level
//!   order, even when that parent's balance test rejects it;
//! * `T` is kept (and costed) iff its balance is strictly below its
//!   parent's;
//! * the [`MAX_SETS_PER_LEVEL`] cap is checked after each kept set, and
//!   ends the level as soon as it is reached;
//! * the search stops when a level keeps nothing or after
//!   [`MAX_COST_EVALUATIONS`] costings.
//!
//! # Cost of the search
//!
//! The search is exact to that order but does not replay it step by step:
//!
//! * **Outcome-code table.** Every skyline pair's 2-bit Lemma 5.1 outcome
//!   per query is tabulated once. Each level set carries each query's packed
//!   outcome key, so an extension's key is the parent's with one code spliced
//!   in; sorting the keys gives the partition sizes in the order
//!   [`GenerationContext::balance_of`] produces them, hence bit-identical
//!   balances. Sets of more than 32 pairs fall back to `balance_of`.
//! * **Dedupe by level position.** `T = S ∪ {p}` was already seen iff some
//!   `T ∖ {x}` with `x ≠ p` sits earlier in the level than `S`: exactly the
//!   parents visited before `S` that generate `T`. The level is indexed by
//!   each set's one-smaller subsets, so the `p` seen under `S` are marked
//!   with `|S|` lookups before its extension loop. A parent whose balance
//!   is 0 cannot be improved on (the score is never negative), so its whole
//!   extension loop is skipped; the sets it would have marked seen are still
//!   accounted for by its position.
//! * **Cheap costing.** Each skyline pair's realization order
//!   ([`candidate_rows`]) is computed once per pick, and the search ends as
//!   soon as the evaluation budget is spent, since later costings can no
//!   longer change the outcome.

use std::cell::OnceCell;
use std::collections::HashMap;
use std::time::{Duration, Instant};

use crate::context::{packed_partition_sizes, ClassPair, GenerationContext, MAX_PACKED_PAIRS};
use crate::cost::{balance_score, objective, CostInputs, CostParams};
use crate::error::{QfeError, Result};
use crate::kernel::words_for;
use crate::realize::{
    candidate_rows, evaluate_with, realize_in_order, ModificationEvaluation, RealizedModification,
};

/// Cap on the number of sets kept per extension level. The paper relies on
/// the balance-pruning heuristic alone; this cap is what actually bounds the
/// search on larger skylines: over the 499 picks of the `sci-rounds`
/// benchmark input (seed 42), 1,920 of the 2,635 extension levels end at
/// it.
pub const MAX_SETS_PER_LEVEL: usize = 256;

/// Cap on the number of cost evaluations per pick. It ends 95 of the 499
/// picks of the `sci-rounds` benchmark input (seed 42).
pub const MAX_COST_EVALUATIONS: usize = 4096;

/// The subset of pairs chosen by Algorithm 4 together with its realization.
#[derive(Debug, Clone)]
pub struct PickOutcome {
    /// The chosen (STC, DTC) pairs `S_opt`.
    pub chosen: Vec<ClassPair>,
    /// Concrete cell edits realizing `S_opt`.
    pub realized: RealizedModification,
    /// The induced partition/result-cost evaluation of the realization.
    pub evaluation: ModificationEvaluation,
    /// The objective value (Equation 5, or the alternative model's objective).
    pub cost: f64,
    /// Number of candidate sets whose cost was evaluated.
    pub cost_evaluations: usize,
    /// Number of extensions whose class-level balance was computed (the
    /// extensions neither deduplicated nor skipped under a parent that
    /// cannot be improved on).
    pub extension_checks: usize,
    /// Wall-clock time spent.
    pub elapsed: Duration,
}

struct EvaluatedSet {
    indices: Vec<usize>,
    realized: RealizedModification,
    evaluation: ModificationEvaluation,
    cost: f64,
    abstract_balance: f64,
}

/// One set of a search level.
#[derive(Clone)]
struct LevelSet {
    /// Skyline indices, ascending.
    indices: Vec<usize>,
    /// Class-level balance score of the set.
    balance: f64,
    /// Per query, the outcome codes of the set's pairs packed 2 bits per
    /// pair in `indices` order; empty for sets over [`MAX_PACKED_PAIRS`].
    keys: Vec<u64>,
}

/// The state of one pick.
struct Search<'a> {
    ctx: &'a GenerationContext,
    skyline: &'a [ClassPair],
    params: &'a CostParams,
    best_binary_x: Option<usize>,
    query_count: usize,
    /// Outcome code of skyline pair `p` for query `q` at `p · query_count + q`.
    codes: Vec<u8>,
    /// Realization order of each skyline pair, computed on first use.
    orders: Vec<OnceCell<Vec<usize>>>,
    row_matches: RowMatches,
    cost_evaluations: usize,
    extension_checks: usize,
    best: Vec<EvaluatedSet>,
    min_cost: f64,
    /// The extension under test (see [`Search::extend`]).
    child: LevelSet,
    sorted_keys: Vec<u64>,
    sizes: Vec<usize>,
}

impl Search<'_> {
    fn exhausted(&self) -> bool {
        self.cost_evaluations >= MAX_COST_EVALUATIONS
    }

    fn singleton(&mut self, p: usize) -> LevelSet {
        let nq = self.query_count;
        let keys: Vec<u64> = self.codes[p * nq..(p + 1) * nq]
            .iter()
            .map(|&c| u64::from(c))
            .collect();
        LevelSet {
            indices: vec![p],
            balance: packed_balance(&keys, &mut self.sorted_keys, &mut self.sizes),
            keys,
        }
    }

    /// Writes `parent ∪ {p}` and its balance to `self.child`; nothing is
    /// allocated, since most extensions are rejected.
    fn extend(&mut self, parent: &LevelSet, p: usize) {
        let at = parent.indices.partition_point(|&x| x < p);
        let child = &mut self.child;
        child.indices.clear();
        child.indices.extend_from_slice(&parent.indices[..at]);
        child.indices.push(p);
        child.indices.extend_from_slice(&parent.indices[at..]);
        child.keys.clear();
        if child.indices.len() > MAX_PACKED_PAIRS {
            child.balance = self.ctx.balance_of(self.skyline, &child.indices);
            return;
        }
        // Splice pair `p`'s code in at bit 2·at: lower positions keep their
        // bits, higher ones move up by one position.
        let shift = 2 * at;
        let low = (1u64 << shift) - 1;
        let codes = &self.codes[p * self.query_count..(p + 1) * self.query_count];
        child
            .keys
            .extend(parent.keys.iter().zip(codes).map(|(&key, &code)| {
                let high = key >> shift;
                let moved = if high == 0 { 0 } else { high << (shift + 2) };
                (key & low) | (u64::from(code) << shift) | moved
            }));
        child.balance = packed_balance(&child.keys, &mut self.sorted_keys, &mut self.sizes);
    }

    /// Realizes and costs one candidate set (Equation 5), keeping it when it
    /// ties or beats the best so far.
    fn evaluate(&mut self, indices: &[usize], abstract_balance: f64) {
        if self.exhausted() {
            return;
        }
        self.cost_evaluations += 1;
        let (ctx, skyline, orders) = (self.ctx, self.skyline, &self.orders);
        let Some(realized) = realize_in_order(
            ctx,
            indices.iter().map(|&i| {
                let order = orders[i].get_or_init(|| candidate_rows(ctx, &skyline[i]));
                (&skyline[i], order.as_slice())
            }),
        ) else {
            return;
        };
        let rows = &mut self.row_matches;
        let evaluation = evaluate_with(ctx, &realized.edits, &mut |jrow, query| {
            rows.matches(ctx, jrow, query)
        });
        // A realization that fails to split the candidates is useless.
        if evaluation.group_count() <= 1 {
            return;
        }
        let inputs = CostInputs {
            db_edit_cost: realized.db_edit_cost,
            modified_relations: realized.modified_relations,
            modified_tuples: realized.modified_tuples,
            result_edit_costs: evaluation.result_edit_costs(),
            partition_sizes: evaluation.partition_sizes(),
            best_binary_x: self.best_binary_x,
        };
        let cost = objective(self.params, &inputs);
        if cost < self.min_cost {
            self.min_cost = cost;
            self.best.clear();
        } else if cost != self.min_cost {
            return;
        }
        self.best.push(EvaluatedSet {
            indices: indices.to_vec(),
            realized,
            evaluation,
            cost,
            abstract_balance,
        });
    }

    /// Runs the level-wise search (steps 1–21).
    fn run(&mut self) {
        // Steps 1–8: single-pair sets.
        let mut level: Vec<LevelSet> = Vec::with_capacity(self.skyline.len());
        for p in 0..self.skyline.len() {
            let set = self.singleton(p);
            self.evaluate(&set.indices, set.balance);
            level.push(set);
            if self.exhausted() {
                return;
            }
        }

        // Steps 9–21: extend sets while the balance score improves.
        let n = self.skyline.len();
        let mut seen = vec![false; n];
        let mut marked: Vec<usize> = Vec::new();
        let mut subset: Vec<usize> = Vec::new();
        loop {
            let completions = completions_by_subset(&level);
            let mut next: Vec<LevelSet> = Vec::new();
            'parents: for (pi, parent) in level.iter().enumerate() {
                // Balance scores are never negative: nothing improves on 0.
                if parent.balance <= 0.0 {
                    continue;
                }
                for p in marked.drain(..) {
                    seen[p] = false;
                }
                mark_seen(&completions, &parent.indices, pi, &mut subset, &mut |p| {
                    if !seen[p] {
                        seen[p] = true;
                        marked.push(p);
                    }
                });
                for (p, &already) in seen.iter().enumerate() {
                    if already || parent.indices.binary_search(&p).is_ok() {
                        continue;
                    }
                    self.extension_checks += 1;
                    self.extend(parent, p);
                    if self.child.balance < parent.balance {
                        let set = self.child.clone();
                        self.evaluate(&set.indices, set.balance);
                        next.push(set);
                        if self.exhausted() {
                            return;
                        }
                        if next.len() >= MAX_SETS_PER_LEVEL {
                            break 'parents;
                        }
                    }
                }
            }
            if next.is_empty() {
                return;
            }
            level = next;
        }
    }
}

/// The candidates each unmodified join row satisfies, computed for a row
/// the first time a costing patches it.
struct RowMatches {
    words: usize,
    known: Vec<bool>,
    bits: Vec<u64>,
}

impl RowMatches {
    fn new(ctx: &GenerationContext) -> Self {
        let words = words_for(ctx.query_count());
        RowMatches {
            words,
            known: vec![false; ctx.join().len()],
            bits: vec![0; ctx.join().len() * words],
        }
    }

    /// Whether join row `jrow` of the unmodified join satisfies `query`.
    fn matches(&mut self, ctx: &GenerationContext, jrow: usize, query: usize) -> bool {
        let row = &mut self.bits[jrow * self.words..(jrow + 1) * self.words];
        if !self.known[jrow] {
            self.known[jrow] = true;
            let tuple = &ctx.join().rows()[jrow].tuple;
            for (q, bound) in ctx.bound_queries().iter().enumerate() {
                if bound.matches_row(tuple) {
                    row[q / 64] |= 1u64 << (q % 64);
                }
            }
        }
        row[query / 64] & (1u64 << (query % 64)) != 0
    }
}

/// Balance score of the partition whose per-query packed keys are `keys`
/// (`sorted_keys` and `sizes` are scratch).
fn packed_balance(keys: &[u64], sorted_keys: &mut Vec<u64>, sizes: &mut Vec<usize>) -> f64 {
    sorted_keys.clear();
    sorted_keys.extend_from_slice(keys);
    packed_partition_sizes(sorted_keys, sizes);
    balance_score(sizes)
}

/// For a level, maps every `S ∖ {x}` (`S` a level set, `x ∈ S`) to the
/// `(x, position of S)` completing it, in ascending position.
fn completions_by_subset(level: &[LevelSet]) -> HashMap<Vec<usize>, Vec<(usize, usize)>> {
    let mut completions: HashMap<Vec<usize>, Vec<(usize, usize)>> = HashMap::new();
    for (position, set) in level.iter().enumerate() {
        for (skip, &x) in set.indices.iter().enumerate() {
            let mut rest = Vec::with_capacity(set.indices.len() - 1);
            rest.extend_from_slice(&set.indices[..skip]);
            rest.extend_from_slice(&set.indices[skip + 1..]);
            completions.entry(rest).or_default().push((x, position));
        }
    }
    completions
}

/// Calls `mark(p)` for every `p` such that `parent ∪ {p}` was already
/// generated by a parent visited before position `pi`: the sets
/// `(parent ∪ {p}) ∖ {x}` with `x ≠ p` are `(parent ∖ {x}) ∪ {p}`, so `p`
/// is seen iff some level set before `pi` completes some `parent ∖ {x}`
/// with `p`. `subset` is scratch.
fn mark_seen(
    completions: &HashMap<Vec<usize>, Vec<(usize, usize)>>,
    parent: &[usize],
    pi: usize,
    subset: &mut Vec<usize>,
    mark: &mut impl FnMut(usize),
) {
    for skip in 0..parent.len() {
        subset.clear();
        subset.extend_from_slice(&parent[..skip]);
        subset.extend_from_slice(&parent[skip + 1..]);
        let Some(sets) = completions.get(subset.as_slice()) else {
            continue;
        };
        for &(p, position) in sets {
            if position >= pi {
                break;
            }
            mark(p);
        }
    }
}

/// Runs Algorithm 4 over the skyline pairs.
///
/// `best_binary_x` is Lemma 3.1's bound computed during the skyline
/// enumeration; it feeds the refined iteration estimate of the cost model.
pub fn pick_stc_dtc_subset(
    ctx: &GenerationContext,
    skyline: &[ClassPair],
    params: &CostParams,
    best_binary_x: Option<usize>,
) -> Result<PickOutcome> {
    let start = Instant::now();
    if skyline.is_empty() {
        return Err(QfeError::NoDistinguishingDatabase {
            remaining: ctx.queries().iter().map(|q| q.display_name()).collect(),
        });
    }

    let mut search = Search {
        ctx,
        skyline,
        params,
        best_binary_x,
        query_count: ctx.query_count(),
        codes: ctx.outcome_codes(skyline),
        orders: (0..skyline.len()).map(|_| OnceCell::new()).collect(),
        row_matches: RowMatches::new(ctx),
        cost_evaluations: 0,
        extension_checks: 0,
        best: Vec::new(),
        min_cost: f64::INFINITY,
        child: LevelSet {
            indices: Vec::new(),
            balance: f64::INFINITY,
            keys: Vec::new(),
        },
        sorted_keys: Vec::new(),
        sizes: Vec::new(),
    };
    search.run();

    // Step 22: among the minimum-cost sets, pick the one with the lowest
    // balance score.
    let chosen = search
        .best
        .into_iter()
        .min_by(|a, b| {
            a.abstract_balance
                .partial_cmp(&b.abstract_balance)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then_with(|| a.indices.len().cmp(&b.indices.len()))
                .then_with(|| a.indices.cmp(&b.indices))
        })
        .ok_or_else(|| QfeError::NoDistinguishingDatabase {
            remaining: ctx.queries().iter().map(|q| q.display_name()).collect(),
        })?;

    Ok(PickOutcome {
        chosen: chosen.indices.iter().map(|&i| skyline[i].clone()).collect(),
        realized: chosen.realized,
        evaluation: chosen.evaluation,
        cost: chosen.cost,
        cost_evaluations: search.cost_evaluations,
        extension_checks: search.extension_checks,
        elapsed: start.elapsed(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::skyline::skyline_stc_dtc_pairs;
    use qfe_query::{evaluate, ComparisonOp, DnfPredicate, SpjQuery, Term};
    use qfe_relation::{tuple, ColumnDef, DataType, Database, Table, TableSchema};

    fn employee_context() -> GenerationContext {
        let employee = Table::with_rows(
            TableSchema::new(
                "Employee",
                vec![
                    ColumnDef::new("Eid", DataType::Int),
                    ColumnDef::new("name", DataType::Text),
                    ColumnDef::new("gender", DataType::Text),
                    ColumnDef::new("dept", DataType::Text),
                    ColumnDef::new("salary", DataType::Int),
                ],
            )
            .unwrap()
            .with_primary_key(&["Eid"])
            .unwrap(),
            vec![
                tuple![1i64, "Alice", "F", "Sales", 3700i64],
                tuple![2i64, "Bob", "M", "IT", 4200i64],
                tuple![3i64, "Celina", "F", "Service", 3000i64],
                tuple![4i64, "Darren", "M", "IT", 5000i64],
            ],
        )
        .unwrap();
        let mut db = Database::new();
        db.add_table(employee).unwrap();
        let q = |p| SpjQuery::new(vec!["Employee"], vec!["name"], p);
        let queries = vec![
            q(DnfPredicate::single(Term::eq("gender", "M"))),
            q(DnfPredicate::single(Term::compare(
                "salary",
                ComparisonOp::Gt,
                4000i64,
            ))),
            q(DnfPredicate::single(Term::eq("dept", "IT"))),
        ];
        let result = evaluate(&queries[0], &db).unwrap();
        GenerationContext::new(&db, &result, &queries).unwrap()
    }

    #[test]
    fn picks_a_discriminating_low_cost_modification() {
        let ctx = employee_context();
        let skyline = skyline_stc_dtc_pairs(&ctx, Duration::from_secs(5));
        let outcome = pick_stc_dtc_subset(
            &ctx,
            &skyline.pairs,
            &CostParams::default(),
            skyline.best_binary_x,
        )
        .unwrap();
        assert!(!outcome.chosen.is_empty());
        assert!(outcome.evaluation.group_count() >= 2);
        assert!(outcome.cost.is_finite());
        assert!(outcome.cost_evaluations >= skyline.pairs.len().min(MAX_COST_EVALUATIONS));
        // On Example 1.1 at most two single-attribute changes are needed
        // (either a 2/1 split with one change or a full 1/1/1 split with two).
        assert!(outcome.realized.db_edit_cost <= 2);
        assert_eq!(outcome.realized.modified_relations, 1);
    }

    /// Field-by-field equality with the oracle; `extension_checks` differs
    /// by design (the oracle computes every non-duplicate extension).
    fn assert_same_pick(fast: &PickOutcome, oracle: &PickOutcome) {
        assert_eq!(fast.chosen, oracle.chosen);
        assert_eq!(fast.cost.to_bits(), oracle.cost.to_bits());
        assert_eq!(fast.cost_evaluations, oracle.cost_evaluations);
        assert_eq!(fast.realized, oracle.realized);
        assert_eq!(fast.evaluation, oracle.evaluation);
        assert!(fast.extension_checks <= oracle.extension_checks);
    }

    /// Q2's 19 QBO candidates on the scientific Small data: a skyline of
    /// ~1,700 pairs whose search ends on the cost-evaluation cap mid-level.
    #[test]
    fn pick_matches_the_oracle_on_the_scientific_workload() {
        let workload = qfe_datasets::scientific_small(42);
        let result = workload.example_result("Q2").unwrap();
        let target = workload.query("Q2").unwrap().clone();
        let mut queries = qfe_qbo::QueryGenerator::new(qfe_qbo::QboConfig::default())
            .generate_including(&workload.database, &result, &target)
            .unwrap();
        queries.truncate(19);
        let ctx = GenerationContext::new(&workload.database, &result, &queries).unwrap();
        let skyline = skyline_stc_dtc_pairs(&ctx, Duration::from_secs(60));
        let params = CostParams::default();
        let fast =
            pick_stc_dtc_subset(&ctx, &skyline.pairs, &params, skyline.best_binary_x).unwrap();
        let oracle = crate::oracle::pick_stc_dtc_subset(
            &ctx,
            &skyline.pairs,
            &params,
            skyline.best_binary_x,
        )
        .unwrap();
        assert_same_pick(&fast, &oracle);
        assert_eq!(fast.cost_evaluations, MAX_COST_EVALUATIONS);
        assert!(skyline.pairs.len() < MAX_COST_EVALUATIONS && fast.extension_checks > 0);
    }

    /// With two candidates every distinguishing singleton already splits
    /// them 1/1 (balance 0), so no extension can improve and none may be
    /// computed.
    #[test]
    fn perfect_singletons_compute_no_extension_balance() {
        let ctx = employee_context();
        let two = [ctx.queries()[0].clone(), ctx.queries()[1].clone()];
        let ctx = GenerationContext::new(ctx.database(), ctx.original_result(), &two).unwrap();
        // A generous δ so the skyline is complete.
        let skyline = skyline_stc_dtc_pairs(&ctx, Duration::from_secs(60));
        assert!(skyline.pairs.len() >= 2);
        for i in 0..skyline.pairs.len() {
            assert_eq!(ctx.balance_of(&skyline.pairs, &[i]), 0.0);
        }
        let params = CostParams::default();
        let fast =
            pick_stc_dtc_subset(&ctx, &skyline.pairs, &params, skyline.best_binary_x).unwrap();
        assert_eq!(fast.extension_checks, 0);
        assert_eq!(fast.cost_evaluations, skyline.pairs.len());
        let oracle = crate::oracle::pick_stc_dtc_subset(
            &ctx,
            &skyline.pairs,
            &params,
            skyline.best_binary_x,
        )
        .unwrap();
        assert_same_pick(&fast, &oracle);
    }

    #[test]
    fn empty_skyline_is_an_error() {
        let ctx = employee_context();
        let err = pick_stc_dtc_subset(&ctx, &[], &CostParams::default(), None).unwrap_err();
        assert!(matches!(err, QfeError::NoDistinguishingDatabase { .. }));
    }

    #[test]
    fn alternative_cost_model_can_prefer_more_partitions() {
        use crate::cost::CostModelKind;
        let ctx = employee_context();
        let skyline = skyline_stc_dtc_pairs(&ctx, Duration::from_secs(5));
        let effort = pick_stc_dtc_subset(
            &ctx,
            &skyline.pairs,
            &CostParams::default(),
            skyline.best_binary_x,
        )
        .unwrap();
        let maxpart = pick_stc_dtc_subset(
            &ctx,
            &skyline.pairs,
            &CostParams::default().with_model(CostModelKind::MaxPartitions),
            skyline.best_binary_x,
        )
        .unwrap();
        assert!(maxpart.evaluation.group_count() >= effort.evaluation.group_count());
    }

    #[test]
    fn larger_skyline_never_hurts_cost() {
        let ctx = employee_context();
        let skyline = skyline_stc_dtc_pairs(&ctx, Duration::from_secs(5));
        let params = CostParams::default();
        let full =
            pick_stc_dtc_subset(&ctx, &skyline.pairs, &params, skyline.best_binary_x).unwrap();
        let half: Vec<ClassPair> = skyline.pairs[..skyline.pairs.len().max(1) / 2 + 1].to_vec();
        let partial = pick_stc_dtc_subset(&ctx, &half, &params, skyline.best_binary_x).unwrap();
        assert!(full.cost <= partial.cost + 1e-9);
    }
}
