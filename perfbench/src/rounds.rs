//! `sci-rounds` and `baseball-paper-rounds`: in-process QFE sessions under
//! worst-case feedback, one closed-loop thread.
//!
//! A run's input is a list of datasets, each generated from a seed derived
//! from the run seed, and a fixed set of (target query, candidate count)
//! sessions on every dataset. Each session generates its candidates with
//! QBO, then steps the engine until one query or one indistinguishable class
//! remains, always keeping the largest group.
//!
//! The first dataset's sessions run once untimed, to warm caches. Then the
//! whole list runs in passes while the run's time allows, at least once. A
//! session's time is the median over its passes, so every pass measures the
//! same rounds and one slow pass does not move the figures. The first run
//! of every session gets every output check; each later run must repeat it
//! exactly, and the warm-up makes sure at least one session repeats.
//!
//! Algorithm 3's time budget δ is set far above any round's skyline time: a
//! δ cut would make the work depend on wall time.

use std::cmp::Reverse;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use qfe_core::{
    apply_edits, edits_to_ops, pick_stc_dtc_subset, skyline_stc_dtc_pairs_memoized, AdvancePath,
    CostParams, FeedbackRound, FeedbackUser as _, GenerationContext, QfeError, QfeSession,
    SkylineMemo, Step, WorstCaseUser,
};
use qfe_datasets::{baseball_scaled, scientific_scaled, Workload};
use qfe_qbo::{grow_candidates, QboConfig, QboError, QueryGenerator};
use qfe_query::{evaluate, evaluate_on_join, partition_queries, QueryResult, SpjQuery};
use qfe_relation::{foreign_key_join, min_edit_databases, Database, EditOp, JoinedRelation};

use crate::stats::{mean, median, percentile};
use crate::trace::{self, LayerTime};
use crate::{Metric, RunResult, Tally};

/// One in-process rounds workload.
pub struct Spec {
    pub name: &'static str,
    /// Datasets in one pass over the input list: enough for 100 distinct
    /// rounds, which the 90th percentile needs, at every seed tried. On
    /// `sci-rounds` the slowest tenth of rounds varies with the dataset, so
    /// fewer datasets made the percentile swing with the seed: 28 datasets
    /// gave 91 to 151 ms across five seeds.
    datasets: usize,
    build: fn(u64) -> Workload,
    /// `(target query label, candidate count)` sessions run on each dataset.
    sessions: &'static [(&'static str, usize)],
    /// Set-up runs this often; `setup_s` is the median.
    setup_repeats: usize,
}

/// Scientific Small (400/80 rows), Q2 with 19 candidates: Algorithm 4 does
/// most of the work. Q1 with 10 and Q2 with 80 candidates are left out: a
/// few of their rounds take seconds and swing with the seed, so a run of
/// tolerable length could not average them out. Q2 with 12 to 19 candidates
/// rotating over the datasets was tried too: on seed 42 one session ran past
/// 3 minutes and 500 MB.
pub const SCI_ROUNDS: Spec = Spec {
    name: "sci-rounds",
    datasets: 100,
    build: |seed| scientific_scaled(seed, 400, 80, 6),
    sessions: &[("Q2", 19)],
    setup_repeats: 3,
};

/// Paper-scale baseball (6,977 batting rows): the data layers (QBO, context
/// build, apply and re-partition) do most of the work. Q5 is left out: on two
/// of five seeds one of its rounds spent 47 s and 1.2 GB in Algorithm 4,
/// which `sci-rounds` already measures. Q6 runs with 12 and 16 candidates so
/// each costly dataset yields more rounds.
pub const BASEBALL_PAPER_ROUNDS: Spec = Spec {
    name: "baseball-paper-rounds",
    datasets: 17,
    build: |seed| baseball_scaled(seed, 200, 252, 6977),
    sessions: &[("Q6", 12), ("Q6", 16)],
    // A paper-scale dataset takes most of a second to generate, so set-up
    // runs once; at about 9 s it is steady.
    setup_repeats: 1,
};

/// Set-up threads: one per core of the 2-core reference host.
const SETUP_THREADS: usize = 2;

/// Far above any round's skyline time on these workloads.
const SKYLINE_BUDGET: Duration = Duration::from_secs(600);

/// One session's fixed input.
struct SessionInput {
    dataset: usize,
    database: Arc<Database>,
    result: Arc<QueryResult>,
    target: SpjQuery,
    want: usize,
}

/// What the engine did in one session.
struct EngineSession {
    candidates: Vec<SpjQuery>,
    rounds: Vec<FeedbackRound>,
    /// Per-round `db_cost` and skyline time from the engine's statistics.
    db_costs: Vec<usize>,
    skyline_times: Vec<Duration>,
    modification_cost: usize,
    busy: Duration,
    /// Wall time of each `step` that produced a round.
    round_ms: Vec<f64>,
}

/// What every run of a session must repeat: its rounds, their costs and the
/// session's modification cost.
#[derive(PartialEq)]
struct Outcome {
    rounds: Vec<ReplayRound>,
    db_costs: Vec<usize>,
    modification_cost: usize,
}

impl Outcome {
    fn of(session: &EngineSession) -> Outcome {
        Outcome {
            rounds: expected_rounds(&session.rounds),
            db_costs: session.db_costs.clone(),
            modification_cost: session.modification_cost,
        }
    }
}

/// What the traced replay produced for one round.
#[derive(Debug, PartialEq)]
pub(crate) struct ReplayRound {
    edits: Vec<EditOp>,
    group_sizes: Vec<usize>,
}

/// Counters the traced replay gathers next to its spans.
#[derive(Default)]
pub(crate) struct LayerCounts {
    qbo_candidates: u64,
    qbo_rows_scanned: u64,
    full_rebuilds: u64,
    skyline_enumerated: u64,
    skyline_kept: u64,
    skyline_memo_hits: u64,
    pick_cost_evaluations: u64,
}

fn params() -> CostParams {
    CostParams::default().with_skyline_budget(SKYLINE_BUDGET)
}

/// SplitMix64 of `seed` and `index`: the seed of the `index`-th dataset.
pub fn derive_seed(seed: u64, index: u64) -> u64 {
    let mut z = seed ^ index.wrapping_add(1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The sessions on one dataset, or `None` when some target returns no rows:
/// QBO cannot start from an empty example.
fn dataset_inputs(spec: &Spec, seed: u64) -> Result<Option<Vec<SessionInput>>, String> {
    let workload = (spec.build)(seed);
    let database = Arc::new(workload.database.clone());
    let mut sessions = Vec::new();
    for &(label, want) in spec.sessions {
        let target = workload
            .query(label)
            .ok_or_else(|| format!("{} has no query {label}", workload.name))?
            .clone();
        let result = evaluate(&target, &database).map_err(|e| format!("{label}: {e}"))?;
        if result.is_empty() {
            return Ok(None);
        }
        sessions.push(SessionInput {
            dataset: 0,
            database: Arc::clone(&database),
            result: Arc::new(result),
            target,
            want,
        });
    }
    Ok(Some(sessions))
}

/// The input list: the first `spec.datasets` usable datasets among those
/// seeded by `derive_seed(seed, 0)`, `derive_seed(seed, 1)`, …, generated by
/// `SETUP_THREADS` threads.
fn build_inputs(spec: &Spec, seed: u64) -> Result<Vec<SessionInput>, String> {
    let mut inputs = Vec::new();
    let mut next = 0u64;
    while inputs.len() < spec.datasets * spec.sessions.len() {
        let batch: Vec<u64> = (next..next + SETUP_THREADS as u64).collect();
        next += SETUP_THREADS as u64;
        let generated: Vec<_> = std::thread::scope(|scope| {
            let handles: Vec<_> = batch
                .iter()
                .map(|&i| scope.spawn(move || dataset_inputs(spec, derive_seed(seed, i))))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("dataset generation panicked"))
                .collect()
        });
        for sessions in generated {
            let Some(sessions) = sessions? else { continue };
            if inputs.len() == spec.datasets * spec.sessions.len() {
                break;
            }
            let dataset = inputs.len() / spec.sessions.len();
            inputs.extend(sessions.into_iter().map(|s| SessionInput { dataset, ..s }));
        }
    }
    Ok(inputs)
}

/// QBO candidates for `input`: the generator's output with the target
/// included, grown by mutation when short, trimmed to `want` keeping the
/// target first.
fn qbo_candidates(input: &SessionInput, counts: &mut LayerCounts) -> Result<Vec<SpjQuery>, String> {
    let config = QboConfig {
        max_join_tables: input.target.tables.len().max(1),
        ..QboConfig::default()
    };
    let generated = {
        let _span = trace::span("qbo.generate", None);
        QueryGenerator::new(config).generate_with_stats(&input.database, &input.result)
    };
    let mut candidates = match generated {
        Ok((candidates, stats)) => {
            counts.qbo_rows_scanned += stats.rows_scanned;
            candidates
        }
        Err(QboError::NoCandidates | QboError::NoProjection) => Vec::new(),
        Err(e) => return Err(format!("qbo: {e}")),
    };
    let target_sql = input.target.to_string();
    if !candidates.iter().any(|q| q.to_string() == target_sql) {
        candidates.insert(0, input.target.clone());
    }
    if candidates.len() < input.want {
        let _span = trace::span("qbo.grow", None);
        candidates = grow_candidates(&input.database, &input.result, &candidates, input.want)
            .map_err(|e| format!("qbo grow: {e}"))?;
    }
    if candidates.len() > input.want {
        let pos = candidates
            .iter()
            .position(|q| q.to_string() == target_sql)
            .unwrap_or(0);
        let target = candidates.remove(pos);
        candidates.truncate(input.want - 1);
        candidates.insert(0, target);
    }
    counts.qbo_candidates += candidates.len() as u64;
    Ok(candidates)
}

/// Runs one session through the engine. Every call into the program is
/// timed and counted in `tally`.
fn engine_session(input: &SessionInput, tally: &mut Tally) -> Result<EngineSession, String> {
    let started = Instant::now();
    let candidates = qbo_candidates(input, &mut LayerCounts::default())?;
    let session = QfeSession::builder((*input.database).clone(), (*input.result).clone())
        .with_candidates(candidates.clone())
        .with_params(params())
        .build()
        .map_err(|e| format!("build: {e}"))?;
    let mut engine = session.start();
    let mut busy = started.elapsed();
    tally.request(busy);

    let mut rounds = Vec::new();
    let mut round_ms = Vec::new();
    loop {
        let call = Instant::now();
        let step = engine.step();
        let elapsed = call.elapsed();
        busy += elapsed;
        tally.request(elapsed);
        match step.map_err(|e| format!("step: {e}"))? {
            Step::Done(_) => break,
            Step::AwaitFeedback(round) => {
                round_ms.push(elapsed.as_secs_f64() * 1e3);
                let choice = WorstCaseUser
                    .choose(&round)
                    .ok_or("worst-case user found no choice")?;
                let call = Instant::now();
                let answered = engine.answer(choice);
                let elapsed = call.elapsed();
                busy += elapsed;
                tally.request(elapsed);
                answered.map_err(|e| format!("answer: {e}"))?;
                rounds.push(round);
            }
        }
    }
    let report = engine.report();
    Ok(EngineSession {
        candidates,
        rounds,
        db_costs: report.iterations.iter().map(|i| i.db_cost).collect(),
        skyline_times: report.iterations.iter().map(|i| i.skyline_time).collect(),
        modification_cost: report.total_modification_cost(),
        busy,
        round_ms,
    })
}

/// The output checks of one session, each counted in `tally`.
fn check_session(input: &SessionInput, run: &EngineSession, tally: &mut Tally) {
    let mut remaining: Vec<usize> = (0..run.candidates.len()).collect();
    for (i, round) in run.rounds.iter().enumerate() {
        let tag = format!("dataset {} round {}", input.dataset, round.iteration);
        // Re-evaluate every surviving candidate on D' and group by result.
        // `evaluate` is the foreign-key join followed by `evaluate_on_join`;
        // the join is built once per table set.
        let mut joins: Vec<(&[String], JoinedRelation)> = Vec::new();
        let mut groups: Vec<(QueryResult, Vec<usize>)> = Vec::new();
        let mut evaluated = true;
        for (pos, &c) in remaining.iter().enumerate() {
            let query = &run.candidates[c];
            let join = match joins
                .iter()
                .position(|(t, _)| *t == query.tables.as_slice())
            {
                Some(j) => &joins[j].1,
                None => match foreign_key_join(&round.database, &query.tables) {
                    Ok(join) => {
                        joins.push((&query.tables, join));
                        &joins[joins.len() - 1].1
                    }
                    Err(_) => {
                        evaluated = false;
                        continue;
                    }
                },
            };
            match evaluate_on_join(query, join) {
                Ok(r) => match groups.iter_mut().find(|(g, _)| g.bag_equal(&r)) {
                    Some((_, members)) => members.push(pos),
                    None => groups.push((r, vec![pos])),
                },
                Err(_) => evaluated = false,
            }
        }
        let partition_matches = evaluated
            && groups.len() == round.choices.len()
            && round.choices.iter().all(|choice| {
                groups.iter().any(|(result, members)| {
                    *members == choice.query_indices && result.bag_equal(&choice.result)
                })
            });
        tally.check(partition_matches, || {
            format!("{tag}: D' does not induce the reported partition")
        });
        // About 30 ms a round on scientific Small, whose 400-row table gets
        // the exact assignment (2-core host), so a session is checked on its
        // first run only; later runs must repeat it.
        let min_edit = min_edit_databases(&input.database, &round.database);
        tally.check(run.db_costs.get(i) == Some(&min_edit), || {
            format!(
                "{tag}: db_cost {:?} but minEdit(D, D') = {min_edit}",
                run.db_costs.get(i)
            )
        });
        tally.check(
            run.skyline_times
                .get(i)
                .is_some_and(|t| *t < SKYLINE_BUDGET),
            || format!("{tag}: Algorithm 3 hit its time budget"),
        );
        let Some(choice) = WorstCaseUser.choose(round) else {
            tally.check(false, || format!("{tag}: no choice"));
            return;
        };
        remaining = round.choices[choice]
            .query_indices
            .iter()
            .map(|&p| remaining[p])
            .collect();
    }
}

/// Replays a session's rounds by calling the layers in the engine's order —
/// context build or advance, memoized skyline, pick, apply, partition — each
/// inside its own span. The user keeps the group holding `target`, or the
/// largest group when there is no target.
pub(crate) fn replay_rounds(
    database: &Arc<Database>,
    result: &Arc<QueryResult>,
    candidates: Vec<SpjQuery>,
    target: Option<&SpjQuery>,
    counts: &mut LayerCounts,
) -> Result<Vec<ReplayRound>, String> {
    let params = params();
    let mut memo = SkylineMemo::new();
    let mut ctx: Option<Arc<GenerationContext>> = None;
    let mut surviving: Vec<usize> = (0..candidates.len()).collect();
    let mut rounds = Vec::new();
    while surviving.len() > 1 {
        let _round = trace::span("round", None);
        let next = match &ctx {
            None => {
                let _span = trace::span("context.build", None);
                GenerationContext::new_shared(
                    Arc::clone(database),
                    Arc::clone(result),
                    candidates.clone(),
                )
                .map_err(|e| format!("context: {e}"))?
            }
            Some(previous) => {
                let _span = trace::span("context.advance", None);
                let (next, report) = previous
                    .advance_with_report(&surviving, &[])
                    .map_err(|e| format!("advance: {e}"))?;
                counts.full_rebuilds += u64::from(report.path == AdvancePath::FullRebuild);
                next
            }
        };
        let next = Arc::new(next);
        let hits_before = memo.hits();
        let skyline = {
            let _span = trace::span("skyline", None);
            skyline_stc_dtc_pairs_memoized(&next, params.skyline_time_budget, &mut memo)
        };
        counts.skyline_enumerated += skyline.enumerated as u64;
        counts.skyline_kept += skyline.pairs.len() as u64;
        counts.skyline_memo_hits += memo.hits() - hits_before;
        if skyline.timed_out {
            return Err("Algorithm 3 hit its time budget".into());
        }
        let picked = {
            let _span = trace::span("pick", None);
            pick_stc_dtc_subset(&next, &skyline.pairs, &params, skyline.best_binary_x)
        };
        let picked = match picked {
            Ok(p) => p,
            // The engine ends the session here: the survivors are equivalent.
            Err(QfeError::NoDistinguishingDatabase { .. }) => break,
            Err(e) => return Err(format!("pick: {e}")),
        };
        counts.pick_cost_evaluations += picked.cost_evaluations as u64;
        let (database, edits) = {
            let _span = trace::span("realize.apply", None);
            let database = apply_edits(next.database(), &picked.realized.edits)
                .map_err(|e| format!("apply: {e}"))?;
            let edits = edits_to_ops(next.database(), &picked.realized.edits)
                .map_err(|e| format!("edits: {e}"))?;
            (database, edits)
        };
        let partition = {
            let _span = trace::span("query.partition", None);
            partition_queries(next.queries(), &database).map_err(|e| format!("partition: {e}"))?
        };
        let group_sizes = partition.sizes();
        let kept = match target {
            Some(target) => partition.groups.iter().position(|g| {
                g.query_indices
                    .iter()
                    .any(|&i| next.queries()[i].same_query(target))
            }),
            None => group_sizes
                .iter()
                .enumerate()
                .max_by_key(|&(i, &size)| (size, Reverse(i)))
                .map(|(i, _)| i),
        }
        .ok_or("no group to keep")?;
        surviving = partition.groups[kept].query_indices.clone();
        rounds.push(ReplayRound { edits, group_sizes });
        ctx = Some(next);
    }
    Ok(rounds)
}

/// The rounds a replay must reproduce: the engine's edits and group sizes.
pub(crate) fn expected_rounds(rounds: &[FeedbackRound]) -> Vec<ReplayRound> {
    rounds
        .iter()
        .map(|r| ReplayRound {
            edits: r.database_delta.edits.clone(),
            group_sizes: r.choices.iter().map(|c| c.candidate_count).collect(),
        })
        .collect()
}

/// Runs `input` through the engine once. The first run of a session gets
/// every output check and sets `first`; a later run must repeat `first`.
fn checked_session(
    input: &SessionInput,
    first: &mut Option<Outcome>,
    tally: &mut Tally,
) -> Option<EngineSession> {
    let session = match engine_session(input, tally) {
        Ok(s) => s,
        Err(e) => {
            tally.fail(format!("dataset {}: {e}", input.dataset));
            return None;
        }
    };
    let outcome = Outcome::of(&session);
    match first {
        None => {
            check_session(input, &session, tally);
            *first = Some(outcome);
        }
        Some(first) => tally.check(*first == outcome, || {
            format!(
                "dataset {}: a repeated run differs from the first run",
                input.dataset
            )
        }),
    }
    Some(session)
}

/// Replays `input`'s session with tracing off and with it on, and checks
/// that both reproduce the engine's `rounds`. Returns the untraced and the
/// traced replay time. The order alternates with `session_id`: the second
/// replay of a session finds warmer caches, and ran about 1.5 % faster.
fn replay_twice(
    input: &SessionInput,
    session_id: u64,
    rounds: &[FeedbackRound],
    counts: &mut LayerCounts,
    tally: &mut Tally,
) -> [Duration; 2] {
    let expected = expected_rounds(rounds);
    let mut times = [Duration::ZERO; 2];
    let order = if session_id.is_multiple_of(2) {
        [false, true]
    } else {
        [true, false]
    };
    for traced in order {
        // Only the traced replay's counters are reported.
        let mut untraced_counts = LayerCounts::default();
        let counts = if traced {
            &mut *counts
        } else {
            &mut untraced_counts
        };
        trace::set_enabled(traced);
        let started = Instant::now();
        let replayed = {
            let _session = trace::span("session", Some(session_id));
            qbo_candidates(input, counts).and_then(|candidates| {
                replay_rounds(&input.database, &input.result, candidates, None, counts)
            })
        };
        times[usize::from(traced)] = started.elapsed();
        trace::set_enabled(false);
        tally.check(replayed.as_ref().ok() == Some(&expected), || {
            format!(
                "dataset {}: replay (traced: {traced}) differs from the engine: {:?}",
                input.dataset,
                replayed.err()
            )
        });
    }
    times
}

/// Runs `spec`: set-up, an untimed warm-up over the first dataset, then
/// whole passes over the input list while another pass is expected to end
/// within `seconds`. A traced run makes one pass over the first half of the
/// datasets and replays each session.
pub fn run(spec: &Spec, seed: u64, seconds: u64, traced: bool) -> Result<RunResult, String> {
    let mut setup_s = Vec::new();
    let mut inputs = Vec::new();
    for _ in 0..spec.setup_repeats {
        let started = Instant::now();
        inputs = build_inputs(spec, seed)?;
        setup_s.push(started.elapsed().as_secs_f64());
    }

    let mut tally = Tally::default();
    let mut first: Vec<Option<Outcome>> = inputs.iter().map(|_| None).collect();
    for (input, first) in inputs.iter().zip(&mut first).take(spec.sessions.len()) {
        checked_session(input, first, &mut tally);
    }

    if traced {
        // The first half of the datasets: each session runs three times
        // here, and the run must end within three minutes.
        let half = spec.datasets.div_ceil(2) * spec.sessions.len();
        let mut counts = LayerCounts::default();
        let [mut untraced, mut traced] = [Duration::ZERO; 2];
        for (i, input) in inputs.iter().enumerate().take(half) {
            let Some(session) = checked_session(input, &mut first[i], &mut tally) else {
                continue;
            };
            let [u, t] = replay_twice(input, i as u64, &session.rounds, &mut counts, &mut tally);
            untraced += u;
            traced += t;
        }
        let spans = trace::take();
        let layers = trace::layer_times(&spans);
        let overhead = (traced.as_secs_f64() / untraced.as_secs_f64().max(1e-9) - 1.0) * 100.0;
        let mut metrics = engine_layer_metrics(&counts, half, &layers);
        metrics.extend(crate::service::unexercised_service_layers());
        metrics.push(Metric::new("trace.overhead_pct", overhead, "%"));
        return Ok(tally.finish(metrics, spans));
    }

    // Per session, per pass: busy seconds and the times of its rounds.
    let mut busy: Vec<Vec<f64>> = vec![Vec::new(); inputs.len()];
    let mut round_ms: Vec<Vec<Vec<f64>>> = vec![Vec::new(); inputs.len()];
    let started = Instant::now();
    let mut passes = 0u32;
    loop {
        for (i, input) in inputs.iter().enumerate() {
            if let Some(session) = checked_session(input, &mut first[i], &mut tally) {
                busy[i].push(session.busy.as_secs_f64());
                round_ms[i].push(session.round_ms);
            }
        }
        passes += 1;
        let elapsed = started.elapsed().as_secs_f64();
        if elapsed * f64::from(passes + 1) / f64::from(passes) > seconds as f64 {
            break;
        }
    }
    // A session's time, and each of its rounds', is the median over passes.
    let session_s: Vec<f64> = busy
        .iter()
        .filter(|b| !b.is_empty())
        .map(|b| median(b))
        .collect();
    let rounds: Vec<f64> = round_ms
        .iter()
        .filter(|passes| !passes.is_empty())
        .flat_map(|passes| {
            (0..passes[0].len()).map(move |r| {
                let times: Vec<f64> = passes.iter().filter_map(|p| p.get(r).copied()).collect();
                median(&times)
            })
        })
        .collect();
    let outcomes: Vec<&Outcome> = first.iter().flatten().collect();
    let per_session = |total: usize| mean(total as f64, outcomes.len());
    eprintln!(
        "{}: {passes} passes of {} sessions, {} distinct rounds, {:.2} s busy per pass",
        spec.name,
        inputs.len(),
        rounds.len(),
        session_s.iter().sum::<f64>()
    );
    let metrics = vec![
        Metric::new(
            "sessions_per_s",
            session_s.len() as f64 / session_s.iter().sum::<f64>().max(1e-9),
            "1/s",
        ),
        Metric::new("round_p90_ms", percentile(&rounds, 90.0)?, "ms"),
        Metric::new(
            "rounds_per_session",
            per_session(outcomes.iter().map(|o| o.rounds.len()).sum()),
            "count",
        ),
        Metric::new(
            "modification_cost_per_session",
            per_session(outcomes.iter().map(|o| o.modification_cost).sum()),
            "count",
        ),
        Metric::new("setup_s", median(&setup_s), "s"),
    ];
    Ok(tally.finish(metrics, Vec::new()))
}

/// Per-layer metrics of the engine layers, from the replay's spans and
/// counters. Times are means per call; counts are per session or per round.
pub(crate) fn engine_layer_metrics(
    counts: &LayerCounts,
    sessions: usize,
    layers: &BTreeMap<&'static str, LayerTime>,
) -> Vec<Metric> {
    let get = |name: &str| layers.get(name).copied().unwrap_or_default();
    let rounds = get("round").calls;
    let per_session = |total: u64| mean(total as f64, sessions);
    let per_round = |total: u64| mean(total as f64, rounds);
    let pick_share = get("pick").total_ns as f64 / get("round").total_ns.max(1) as f64;
    vec![
        Metric::new("qbo.generate_ms", get("qbo.generate").mean_ms(), "ms"),
        Metric::new(
            "qbo.grow_ms",
            mean(get("qbo.grow").total_ms(), sessions),
            "ms",
        ),
        Metric::new(
            "qbo.candidates",
            per_session(counts.qbo_candidates),
            "count",
        ),
        Metric::new(
            "qbo.rows_scanned",
            per_session(counts.qbo_rows_scanned),
            "count",
        ),
        Metric::new("context.build_ms", get("context.build").mean_ms(), "ms"),
        Metric::new("context.advance_ms", get("context.advance").mean_ms(), "ms"),
        Metric::new(
            "context.full_rebuilds",
            counts.full_rebuilds as f64,
            "count",
        ),
        Metric::new("skyline.ms", get("skyline").mean_ms(), "ms"),
        Metric::new(
            "skyline.enumerated",
            per_round(counts.skyline_enumerated),
            "count",
        ),
        Metric::new("skyline.kept", per_round(counts.skyline_kept), "count"),
        Metric::new(
            "skyline.memo_hits",
            per_round(counts.skyline_memo_hits),
            "count",
        ),
        Metric::new("pick.ms", get("pick").mean_ms(), "ms"),
        Metric::new(
            "pick.cost_evaluations",
            per_round(counts.pick_cost_evaluations),
            "count",
        ),
        Metric::new("pick.share", pick_share, "ratio"),
        Metric::new("realize.apply_ms", get("realize.apply").mean_ms(), "ms"),
        Metric::new("query.partition_ms", get("query.partition").mean_ms(), "ms"),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derived_seeds_differ_by_index_and_repeat() {
        assert_eq!(derive_seed(42, 3), derive_seed(42, 3));
        assert_ne!(derive_seed(42, 3), derive_seed(42, 4));
        assert_ne!(derive_seed(42, 3), derive_seed(43, 3));
    }
}
