//! Algorithm 4 per round: `experiments -- pick` and `BENCH_pick.json`.
//!
//! Replays two sessions round by round — Table 1's Q1 under worst-case
//! feedback and the scientific Q2 oracle session of the end-to-end tests —
//! and records, per round, the skyline size and time, the pick time, its
//! cost evaluations and its extension-balance checks.

use std::fmt::Write as _;
use std::time::{Duration, Instant};

use qfe_core::{
    apply_edits, pick_stc_dtc_subset, skyline_stc_dtc_pairs_memoized, CostParams,
    GenerationContext, QfeError, QfeSession, SkylineMemo,
};
use qfe_datasets::scientific_small;
use qfe_query::{evaluate, partition_queries, QueryResult, SpjQuery};
use qfe_relation::Database;

use crate::fleet::commit;
use crate::{candidates_for, default_params, Scale};

/// One round of a replayed session.
#[derive(Debug, Clone, PartialEq)]
pub struct PickRound {
    /// 1-based round number.
    pub round: usize,
    /// Candidates at the start of the round.
    pub candidates: usize,
    /// Skyline pairs handed to Algorithm 4.
    pub skyline_pairs: usize,
    /// Algorithm 3 time.
    pub skyline_ms: f64,
    /// Algorithm 4 time.
    pub pick_ms: f64,
    /// Candidate sets Algorithm 4 costed.
    pub cost_evaluations: usize,
    /// Extensions whose class-level balance Algorithm 4 computed.
    pub extension_checks: usize,
}

/// The rounds of one replayed session.
#[derive(Debug, Clone, PartialEq)]
pub struct PickSession {
    /// Which session: `table1-q1` or `end-to-end-scientific-q2`.
    pub name: &'static str,
    /// `worst-case` or `oracle`.
    pub feedback: &'static str,
    /// δ, Algorithm 3's time budget.
    pub skyline_budget: Duration,
    /// Per-round measurements.
    pub rounds: Vec<PickRound>,
}

impl PickSession {
    /// Total pick time over the session.
    pub fn total_pick_ms(&self) -> f64 {
        self.rounds.iter().map(|r| r.pick_ms).sum()
    }
}

/// Replays both sessions at `scale`.
pub fn pick_measurements(scale: Scale) -> Vec<PickSession> {
    let workload = scale.scientific();
    let target = workload.query("Q1").expect("Q1").clone();
    let result = workload.example_result("Q1").expect("Q1 result");
    let candidates = candidates_for(&workload.database, &target, 19);
    let params = default_params(scale);
    let table1 = PickSession {
        name: "table1-q1",
        feedback: "worst-case",
        skyline_budget: params.skyline_time_budget,
        rounds: replay(&workload.database, &result, candidates, None, &params),
    };

    // The end-to-end test's session: QBO candidates for Q2 on the scientific
    // Small data (the target ensured), δ = 30 ms, oracle feedback.
    let workload = scientific_small(42);
    let target = workload.query("Q2").expect("Q2").clone();
    let result = workload.example_result("Q2").expect("Q2 result");
    let params = CostParams::default().with_skyline_budget(Duration::from_millis(30));
    let session = QfeSession::builder(workload.database.clone(), result.clone())
        .ensure_candidate(target.clone())
        .with_params(params.clone())
        .build()
        .expect("session builds");
    let end_to_end = PickSession {
        name: "end-to-end-scientific-q2",
        feedback: "oracle",
        skyline_budget: params.skyline_time_budget,
        rounds: replay(
            &workload.database,
            &result,
            session.candidates().to_vec(),
            Some(&target),
            &params,
        ),
    };
    vec![table1, end_to_end]
}

/// Runs the rounds of one session in the engine's order: context (built,
/// then advanced), memoized skyline, pick, apply, partition. The user keeps
/// the group holding `target`'s result, or the largest group (the first of
/// equals) when there is no target.
fn replay(
    database: &Database,
    result: &QueryResult,
    candidates: Vec<SpjQuery>,
    target: Option<&SpjQuery>,
    params: &CostParams,
) -> Vec<PickRound> {
    let mut memo = SkylineMemo::new();
    let mut ctx = GenerationContext::new(database, result, &candidates).expect("context builds");
    let mut rounds = Vec::new();
    while ctx.query_count() > 1 {
        let started = Instant::now();
        let skyline = skyline_stc_dtc_pairs_memoized(&ctx, params.skyline_time_budget, &mut memo);
        let skyline_ms = started.elapsed().as_secs_f64() * 1e3;
        let started = Instant::now();
        let picked = pick_stc_dtc_subset(&ctx, &skyline.pairs, params, skyline.best_binary_x);
        let pick_ms = started.elapsed().as_secs_f64() * 1e3;
        let picked = match picked {
            Ok(picked) => picked,
            // The survivors are equivalent: the engine ends the session.
            Err(QfeError::NoDistinguishingDatabase { .. }) => break,
            Err(e) => panic!("pick failed: {e}"),
        };
        rounds.push(PickRound {
            round: rounds.len() + 1,
            candidates: ctx.query_count(),
            skyline_pairs: skyline.pairs.len(),
            skyline_ms,
            pick_ms,
            cost_evaluations: picked.cost_evaluations,
            extension_checks: picked.extension_checks,
        });
        let modified = apply_edits(ctx.database(), &picked.realized.edits).expect("edits apply");
        let partition = partition_queries(ctx.queries(), &modified).expect("partition");
        let kept = match target {
            Some(target) => {
                let wanted = evaluate(target, &modified).expect("target evaluates");
                partition
                    .groups
                    .iter()
                    .position(|g| g.result.bag_equal(&wanted))
            }
            None => partition
                .groups
                .iter()
                .enumerate()
                .max_by_key(|(i, g)| (g.query_indices.len(), std::cmp::Reverse(*i)))
                .map(|(i, _)| i),
        };
        let Some(kept) = kept else { break };
        let surviving = partition.groups[kept].query_indices.clone();
        ctx = ctx.advance(&surviving, &[]).expect("context advances");
    }
    rounds
}

/// Per-round table of the replayed sessions.
pub fn pick_report(sessions: &[PickSession]) -> String {
    let mut out = String::new();
    writeln!(
        out,
        "Algorithm 4 per round (pick time, cost evaluations, extension checks)"
    )
    .unwrap();
    for s in sessions {
        writeln!(
            out,
            "\n({}, {} feedback, δ = {} ms)",
            s.name,
            s.feedback,
            s.skyline_budget.as_millis()
        )
        .unwrap();
        writeln!(
            out,
            "{:<6} {:>11} {:>9} {:>12} {:>9} {:>11} {:>11}",
            "round", "candidates", "skyline", "skyline(ms)", "pick(ms)", "cost evals", "ext checks"
        )
        .unwrap();
        for r in &s.rounds {
            writeln!(
                out,
                "{:<6} {:>11} {:>9} {:>12.2} {:>9.2} {:>11} {:>11}",
                r.round,
                r.candidates,
                r.skyline_pairs,
                r.skyline_ms,
                r.pick_ms,
                r.cost_evaluations,
                r.extension_checks
            )
            .unwrap();
        }
        writeln!(out, "total pick: {:.2} ms", s.total_pick_ms()).unwrap();
    }
    out
}

/// The `BENCH_pick.json` document: the host, then every round of both
/// sessions.
pub fn pick_json(scale: Scale, sessions: &[PickSession]) -> String {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut out = String::from("{\n  \"benchmark\": \"pick\",\n");
    writeln!(out, "  \"scale\": \"{scale:?}\",").unwrap();
    writeln!(out, "  \"available_parallelism\": {cores},").unwrap();
    writeln!(
        out,
        "  \"commit\": {},",
        commit().map_or("null".to_string(), |c| format!("\"{c}\""))
    )
    .unwrap();
    out.push_str("  \"sessions\": [\n");
    for (i, s) in sessions.iter().enumerate() {
        writeln!(
            out,
            "    {{\"session\": \"{}\", \"feedback\": \"{}\", \"skyline_budget_ms\": {}, \"total_pick_ms\": {:.3}, \"rounds\": [",
            s.name,
            s.feedback,
            s.skyline_budget.as_millis(),
            s.total_pick_ms()
        )
        .unwrap();
        for (j, r) in s.rounds.iter().enumerate() {
            writeln!(
                out,
                "      {{\"round\": {}, \"candidates\": {}, \"skyline_pairs\": {}, \"skyline_ms\": {:.3}, \"pick_ms\": {:.3}, \"cost_evaluations\": {}, \"extension_checks\": {}}}{}",
                r.round,
                r.candidates,
                r.skyline_pairs,
                r.skyline_ms,
                r.pick_ms,
                r.cost_evaluations,
                r.extension_checks,
                if j + 1 == s.rounds.len() { "" } else { "," }
            )
            .unwrap();
        }
        writeln!(
            out,
            "    ]}}{}",
            if i + 1 == sessions.len() { "" } else { "," }
        )
        .unwrap();
    }
    out.push_str("  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn both_sessions_replay_and_serialize() {
        let sessions = pick_measurements(Scale::Small);
        assert_eq!(sessions.len(), 2);
        for s in &sessions {
            assert!(!s.rounds.is_empty(), "{}", s.name);
            for r in &s.rounds {
                assert!(r.candidates >= 2);
                assert!(r.cost_evaluations >= 1);
            }
        }
        let json = pick_json(Scale::Small, &sessions);
        qfe_wire::Json::parse(&json).expect("valid JSON");
        assert!(json.contains("\"available_parallelism\""));
        assert!(json.contains("\"extension_checks\""));
    }
}
