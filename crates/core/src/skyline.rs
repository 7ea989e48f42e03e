//! Algorithm 3: `Skyline-STC-DTC-Pairs`.
//!
//! Enumerates candidate (source-tuple-class, destination-tuple-class) pairs in
//! non-descending minimum edit cost (the number of modified attributes) and
//! keeps, per cost level, the pairs whose class-level balance score ties or
//! improves the best score seen so far.  Enumeration stops when the time
//! threshold δ is exhausted, returning everything collected up to that point
//! (the paper's Section 5.3).
//!
//! [`skyline_stc_dtc_pairs`] is the plain sequential enumeration and the
//! reference; [`skyline_stc_dtc_pairs_memoized`] is the path the engine runs.
//! It serves each `(cost level, source class)` cell from a cross-round
//! [`SkylineMemo`] when it can, and whenever the enumeration completes within
//! the δ budget its outcome — `pairs` order, `min_balance`, `best_binary_x`,
//! `enumerated` — is byte-identical to the sequential one.
//!
//! # Deadline handling
//!
//! The δ budget is enforced against a precomputed `Instant` deadline. The
//! enumeration re-checks the clock every [`TIME_CHECK_INTERVAL`] examined
//! pairs while far from the deadline and every
//! [`NEAR_DEADLINE_CHECK_INTERVAL`] pairs once past ~80% of the budget,
//! which keeps the δ overshoot bounded even when individual pairs are cheap.

use std::collections::{BTreeMap, BTreeSet};
use std::ops::ControlFlow;
use std::time::{Duration, Instant};

use qfe_query::SpjQuery;

use crate::context::{ClassPair, GenerationContext};
use crate::domain::DomainBlock;
use crate::tuple_class::TupleClass;

/// The result of the skyline enumeration.
#[derive(Debug, Clone)]
pub struct SkylineOutcome {
    /// The skyline pairs, in the order they were collected.
    pub pairs: Vec<ClassPair>,
    /// The minimum balance score achieved by any collected pair.
    pub min_balance: f64,
    /// Lemma 3.1's `x`: the size of the smaller subset of the most balanced
    /// *binary* partitioning encountered during enumeration, if any.
    pub best_binary_x: Option<usize>,
    /// Number of (STC, DTC) pairs examined.
    pub enumerated: usize,
    /// Wall-clock time spent.
    pub elapsed: Duration,
    /// Whether enumeration stopped because the time threshold δ was reached.
    pub timed_out: bool,
}

/// How often (in examined pairs) the time budget is re-checked while far from
/// the deadline.
const TIME_CHECK_INTERVAL: usize = 64;

/// The tightened re-check interval once past ~80% of the budget, bounding the
/// δ overshoot.
const NEAR_DEADLINE_CHECK_INTERVAL: usize = 8;

/// Deadline bookkeeping: counts examined pairs and consults the clock only at
/// the adaptive interval.
struct Ticker {
    start: Instant,
    hard: Instant,
    soft: Instant,
    count: usize,
    next_check: usize,
    expired: bool,
}

impl Ticker {
    fn new(budget: Duration) -> Ticker {
        let start = Instant::now();
        let hard = start
            .checked_add(budget)
            .unwrap_or_else(|| start + Duration::from_secs(86_400));
        let soft = start.checked_add(budget.mul_f64(0.8)).unwrap_or(hard);
        Ticker {
            start,
            hard,
            soft,
            count: 0,
            next_check: TIME_CHECK_INTERVAL,
            expired: false,
        }
    }

    /// Registers one examined pair; returns `true` when the enumeration must
    /// stop.
    #[inline]
    fn tick(&mut self) -> bool {
        self.count += 1;
        if self.count < self.next_check {
            return false;
        }
        let now = Instant::now();
        if now > self.hard {
            self.expired = true;
            return true;
        }
        let interval = if now > self.soft {
            NEAR_DEADLINE_CHECK_INTERVAL
        } else {
            TIME_CHECK_INTERVAL
        };
        self.next_check = self.count + interval;
        false
    }
}

/// What the enumeration collected for one source class at one cost level —
/// also the unit the [`SkylineMemo`] caches.
#[derive(Debug, Clone)]
struct SourceLevelResult {
    /// Pairs tied at `local_min`, in enumeration order. Empty when nothing
    /// reached the entering minimum.
    kept: Vec<ClassPair>,
    /// The minimum balance this source reached (seeded with the entering
    /// minimum).
    local_min: f64,
    /// The strictly-best binary partitioning seen at this source:
    /// `(balance, smaller subset size)`, first occurrence wins ties.
    best_binary: Option<(f64, usize)>,
    /// Pairs examined at this source.
    enumerated: usize,
}

/// Enumerates one source class at one cost level.
fn enumerate_source_level(
    ctx: &GenerationContext,
    source: &TupleClass,
    edit_cost: usize,
    entering_min: f64,
    ticker: &mut Ticker,
) -> SourceLevelResult {
    let mut result = SourceLevelResult {
        kept: Vec::new(),
        local_min: entering_min,
        best_binary: None,
        enumerated: 0,
    };
    let mut src_scratch = ctx.match_scratch();
    let mut dst_scratch = ctx.match_scratch();
    // Hoist the source bitset out of the destination loop.
    let source_bits = ctx.class_match_words(source, &mut src_scratch).to_vec();
    let _ = ctx.class_space().for_each_destination_class(
        source,
        edit_cost,
        ctx.modifiable_attributes(),
        |destination, changed| {
            result.enumerated += 1;
            if ticker.tick() {
                return ControlFlow::Break(());
            }
            let dest_bits = ctx.class_match_words(destination, &mut dst_scratch);
            let projection_changed = ctx.projection_touched(changed);
            let stats = ctx.pair_stats(&source_bits, dest_bits, projection_changed);
            let balance = stats.balance();
            // A pair that does not split the candidates (a single subset) is
            // useless for discrimination and is never kept.
            if !balance.is_finite() {
                return ControlFlow::Continue(());
            }
            if let Some(smaller) = stats.binary_smaller() {
                let better = match result.best_binary {
                    Some((b, _)) => balance < b,
                    None => true,
                };
                if better {
                    result.best_binary = Some((balance, smaller));
                }
            }
            if balance < result.local_min {
                result.local_min = balance;
                result.kept.clear();
            } else if balance > result.local_min {
                return ControlFlow::Continue(());
            }
            result.kept.push(ClassPair {
                source: source.clone(),
                destination: destination.clone(),
                changed_attributes: changed.to_vec(),
            });
            ControlFlow::Continue(())
        },
    );
    result
}

/// Runs Algorithm 3 over the context's source-tuple classes, sequentially.
///
/// `time_budget` is the paper's δ threshold: once exceeded, the enumeration
/// stops and returns the pairs collected so far. Each source is seeded with
/// the running minimum, so it keeps only pairs that tie or beat every pair
/// enumerated before it.
pub fn skyline_stc_dtc_pairs(ctx: &GenerationContext, time_budget: Duration) -> SkylineOutcome {
    let mut ticker = Ticker::new(time_budget);
    let sources: Vec<&TupleClass> = ctx.source_classes().keys().collect();
    let levels = ctx.class_space().attribute_count().max(1);
    let mut min_so_far = f64::INFINITY;
    let mut results: Vec<Vec<SourceLevelResult>> = Vec::with_capacity(levels);
    'outer: for edit_cost in 1..=levels {
        let mut level_results = Vec::with_capacity(sources.len());
        for source in &sources {
            if ticker.expired {
                results.push(level_results);
                break 'outer;
            }
            let r = enumerate_source_level(ctx, source, edit_cost, min_so_far, &mut ticker);
            if r.local_min < min_so_far {
                min_so_far = r.local_min;
            }
            level_results.push(r);
        }
        results.push(level_results);
    }
    finish(&ticker, results)
}

/// Deterministic merge of per-(level, source) results in (level, source)
/// order into the final outcome. It reproduces the sequential running-minimum
/// and first-best tie-breaking semantics, so the sequential and the memoized
/// collection (whose cells are seeded with `+∞`) merge to the same outcome.
fn finish(ticker: &Ticker, results: Vec<Vec<SourceLevelResult>>) -> SkylineOutcome {
    let mut pairs: Vec<ClassPair> = Vec::new();
    let mut min_balance = f64::INFINITY;
    let mut best_binary: Option<(f64, usize)> = None;
    let mut enumerated = 0usize;
    for level_results in results {
        let mut level_min = min_balance;
        for r in &level_results {
            enumerated += r.enumerated;
            if r.local_min < level_min {
                level_min = r.local_min;
            }
        }
        for r in level_results {
            // First strictly-better binary partitioning wins, in source order.
            if let Some((b, x)) = r.best_binary {
                let better = match best_binary {
                    Some((gb, _)) => b < gb,
                    None => true,
                };
                if better {
                    best_binary = Some((b, x));
                }
            }
            if r.local_min == level_min {
                pairs.extend(r.kept);
            }
        }
        min_balance = level_min;
    }
    SkylineOutcome {
        pairs,
        min_balance,
        best_binary_x: best_binary.map(|(_, x)| x),
        enumerated,
        elapsed: ticker.start.elapsed(),
        timed_out: ticker.expired,
    }
}

/// Fingerprint of everything a memo cell's value depends on besides its own
/// `(cost level, source class)` key: the candidate queries, the class-space
/// geometry (attribute columns and domain-block contents), the modifiable
/// mask and the projection columns. Any difference invalidates every cell.
#[derive(Debug, Clone, PartialEq)]
struct MemoFingerprint {
    queries: Vec<SpjQuery>,
    attributes: Vec<(usize, Vec<DomainBlock>)>,
    modifiable: Vec<bool>,
    projection_columns: BTreeSet<usize>,
}

impl MemoFingerprint {
    fn of(ctx: &GenerationContext) -> MemoFingerprint {
        MemoFingerprint {
            queries: ctx.queries().to_vec(),
            attributes: ctx
                .class_space()
                .attributes()
                .iter()
                .map(|a| (a.column, a.blocks.clone()))
                .collect(),
            modifiable: ctx.modifiable_attributes().to_vec(),
            projection_columns: ctx.projection_columns().clone(),
        }
    }
}

/// Cross-round memo for [`skyline_stc_dtc_pairs_memoized`]: caches the
/// per-`(cost level, source class)` enumeration results keyed on a
/// fingerprint of the candidate set and the class-space geometry.
///
/// Between feedback rounds a single cell edit typically leaves the geometry
/// (and hence the fingerprint) intact while only a few source classes gain or
/// lose member rows — and a cell's value depends on the *class*, not on which
/// rows inhabit it, so every cell seen before is served from the memo and
/// only genuinely new source classes are enumerated.
#[derive(Debug, Clone, Default)]
pub struct SkylineMemo {
    fingerprint: Option<MemoFingerprint>,
    cells: BTreeMap<(usize, TupleClass), SourceLevelResult>,
    hits: u64,
    recomputed: u64,
}

impl SkylineMemo {
    /// An empty memo.
    pub fn new() -> SkylineMemo {
        SkylineMemo::default()
    }

    /// Cells served from the memo across all lookups.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Cells enumerated (and cached) because they were absent.
    pub fn recomputed_cells(&self) -> u64 {
        self.recomputed
    }

    /// Number of cached cells.
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// Whether the memo holds no cells.
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// Drops every cached cell (the counters are kept).
    pub fn clear(&mut self) {
        self.cells.clear();
        self.fingerprint = None;
    }
}

/// [`skyline_stc_dtc_pairs`] with a cross-round [`SkylineMemo`]: source
/// classes whose `(level, class)` cell is cached are served from the memo,
/// only new cells are enumerated. Whenever the enumeration completes within
/// `time_budget` the outcome is byte-identical to [`skyline_stc_dtc_pairs`]:
/// cells are seeded with `+∞` so they do not depend on the sources before
/// them, and the deterministic merge discards exactly the pairs the running
/// minimum would have. Cells are cached only when their enumeration ran to
/// completion, so a timed-out run never poisons the memo.
pub fn skyline_stc_dtc_pairs_memoized(
    ctx: &GenerationContext,
    time_budget: Duration,
    memo: &mut SkylineMemo,
) -> SkylineOutcome {
    let mut ticker = Ticker::new(time_budget);
    let fingerprint = MemoFingerprint::of(ctx);
    if memo.fingerprint.as_ref() != Some(&fingerprint) {
        memo.cells.clear();
        memo.fingerprint = Some(fingerprint);
    }

    let sources: Vec<&TupleClass> = ctx.source_classes().keys().collect();
    let levels = ctx.class_space().attribute_count().max(1);
    let mut results: Vec<Vec<SourceLevelResult>> = Vec::with_capacity(levels);
    'outer: for level in 1..=levels {
        let mut level_results = Vec::with_capacity(sources.len());
        for source in &sources {
            if ticker.expired {
                results.push(level_results);
                break 'outer;
            }
            let key = (level, (*source).clone());
            if let Some(cell) = memo.cells.get(&key) {
                memo.hits += 1;
                level_results.push(cell.clone());
                continue;
            }
            let r = enumerate_source_level(ctx, source, level, f64::INFINITY, &mut ticker);
            // Only complete cells are cacheable: a deadline hit mid-source
            // truncates the enumeration.
            if !ticker.expired {
                memo.recomputed += 1;
                memo.cells.insert(key, r.clone());
            }
            level_results.push(r);
        }
        results.push(level_results);
    }
    finish(&ticker, results)
}

#[cfg(test)]
mod tests {
    use super::*;
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
    fn skyline_finds_discriminating_single_change_pairs() {
        let ctx = employee_context();
        let outcome = skyline_stc_dtc_pairs(&ctx, Duration::from_secs(5));
        assert!(!outcome.pairs.is_empty());
        assert!(outcome.min_balance.is_finite());
        assert!(outcome.enumerated > 0);
        assert!(!outcome.timed_out);
        // Three candidate queries can at best be split 2/1 by a single change:
        // the most balanced binary partitioning has a smaller subset of 1.
        assert_eq!(outcome.best_binary_x, Some(1));
        // Every skyline pair achieves the reported minimum balance.
        for p in &outcome.pairs {
            let b = ctx.balance(std::slice::from_ref(p));
            assert_eq!(b, outcome.min_balance);
        }
    }

    #[test]
    fn skyline_pairs_never_include_non_discriminating_pairs() {
        let ctx = employee_context();
        let outcome = skyline_stc_dtc_pairs(&ctx, Duration::from_secs(5));
        for p in &outcome.pairs {
            let sizes = ctx.partition_sizes(std::slice::from_ref(p));
            assert!(sizes.len() >= 2, "pair must split the candidate set");
        }
    }

    #[test]
    fn memoized_enumeration_is_bit_identical_and_hits_on_reuse() {
        let ctx = employee_context();
        let sequential = skyline_stc_dtc_pairs(&ctx, Duration::from_secs(30));
        let mut memo = SkylineMemo::new();

        // Cold memo: everything recomputed, result identical to sequential.
        let cold = skyline_stc_dtc_pairs_memoized(&ctx, Duration::from_secs(30), &mut memo);
        assert_eq!(cold.pairs, sequential.pairs);
        assert_eq!(cold.min_balance.to_bits(), sequential.min_balance.to_bits());
        assert_eq!(cold.best_binary_x, sequential.best_binary_x);
        assert_eq!(cold.enumerated, sequential.enumerated);
        assert_eq!(memo.hits(), 0);
        assert!(memo.recomputed_cells() > 0);
        assert!(!memo.is_empty());

        // Warm memo, same context: every cell served from the cache, result
        // still identical.
        let recomputed_before = memo.recomputed_cells();
        let warm = skyline_stc_dtc_pairs_memoized(&ctx, Duration::from_secs(30), &mut memo);
        assert_eq!(warm.pairs, sequential.pairs);
        assert_eq!(warm.min_balance.to_bits(), sequential.min_balance.to_bits());
        assert_eq!(warm.best_binary_x, sequential.best_binary_x);
        assert_eq!(warm.enumerated, sequential.enumerated);
        assert_eq!(memo.recomputed_cells(), recomputed_before);
        assert_eq!(memo.hits() as usize, memo.len());

        // A changed candidate set invalidates the fingerprint: the memo is
        // rebuilt and the result matches the new context's sequential run.
        let pruned = ctx.advance(&[0, 1], &[]).unwrap();
        let pruned_seq = skyline_stc_dtc_pairs(&pruned, Duration::from_secs(30));
        let after = skyline_stc_dtc_pairs_memoized(&pruned, Duration::from_secs(30), &mut memo);
        assert_eq!(after.pairs, pruned_seq.pairs);
        assert_eq!(
            after.min_balance.to_bits(),
            pruned_seq.min_balance.to_bits()
        );
        assert_eq!(after.enumerated, pruned_seq.enumerated);
    }

    #[test]
    fn memo_clear_drops_cells() {
        let ctx = employee_context();
        let mut memo = SkylineMemo::new();
        let _ = skyline_stc_dtc_pairs_memoized(&ctx, Duration::from_secs(30), &mut memo);
        assert!(!memo.is_empty());
        memo.clear();
        assert!(memo.is_empty());
        assert_eq!(memo.len(), 0);
    }

    #[test]
    fn zero_budget_times_out_quickly() {
        let ctx = employee_context();
        let outcome = skyline_stc_dtc_pairs(&ctx, Duration::from_secs(0));
        // With a zero budget the enumeration may stop at any point, but it
        // must terminate and report the timeout (or finish within the first
        // check interval on this tiny example).
        let _ = outcome.timed_out;
        assert!(outcome.elapsed < Duration::from_secs(5));
    }

    #[test]
    fn larger_budget_never_finds_fewer_pairs() {
        let ctx = employee_context();
        let small = skyline_stc_dtc_pairs(&ctx, Duration::from_millis(1));
        let large = skyline_stc_dtc_pairs(&ctx, Duration::from_secs(5));
        assert!(large.pairs.len() >= small.pairs.len());
        assert!(large.enumerated >= small.enumerated);
    }
}
