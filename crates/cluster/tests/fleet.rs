//! Fleet-level integration tests for the headline invariants of the
//! sharded session cluster:
//!
//! * **Placement transparency** — a session's outcome is byte-identical
//!   whether it lives out its life on one shard, live-migrates between
//!   every feedback round, or survives a shard kill and failover after
//!   every round; and identical again across both store backends.
//! * **Rehydration races** — concurrent requests and migrations aimed at
//!   one parked session, under seeded store latency, leave exactly one
//!   resident engine in the fleet and present every caller the same round.

use std::sync::Arc;
use std::sync::Mutex;

use qfe_cluster::{Cluster, ClusterConfig};
use qfe_core::{FeedbackUser as _, OracleUser, QfeSession, SessionId, Step};
use qfe_snapstore::{
    FaultAction, FaultPlan, FaultRule, FaultTrigger, FaultyStore, LogStore, MemoryStore,
    SnapshotStore,
};
use qfe_wire::ToJson as _;

/// A fresh store of the named backend, plus the temp directory to clean up.
fn open_store(backend: &str, tag: &str) -> (Arc<dyn SnapshotStore>, Option<std::path::PathBuf>) {
    match backend {
        "mem" => (Arc::new(MemoryStore::new()), None),
        "log" => {
            let dir = std::env::temp_dir().join(format!(
                "qfe-fleet-log-{}-{tag}-{}",
                std::process::id(),
                backend
            ));
            let _ = std::fs::remove_dir_all(&dir);
            let store = LogStore::open(dir.join("fleet.log")).expect("log store opens");
            (Arc::new(store), Some(dir))
        }
        other => panic!("unknown backend {other}"),
    }
}

/// Drives one oracle-answered Example 1.1 session to completion on
/// `cluster`, invoking `between_rounds` after every answered round, and
/// returns the full observable transcript: every presented feedback round
/// plus the final identified query and its indistinguishable class — all
/// as rendered JSON. Timing-bearing session statistics are deliberately
/// excluded; everything else the user can observe is in.
fn drive_transcript(
    cluster: &Cluster,
    between_rounds: &mut dyn FnMut(&Cluster, SessionId),
) -> Vec<String> {
    let (db, result, candidates, _) = qfe_datasets::example_1_1();
    let target = candidates[0].clone();
    let oracle = OracleUser::new(target.clone());
    let session = QfeSession::builder(db, result)
        .with_candidates(candidates)
        .build()
        .expect("example session builds");
    let id = cluster.create(&session).expect("session created");
    let mut lines = Vec::new();
    loop {
        match cluster.step(id).expect("session steps") {
            Step::Done(outcome) => {
                assert_eq!(outcome.query.label, target.label, "converged on target");
                lines.push(format!("query: {}", outcome.query.to_json().render()));
                for q in &outcome.indistinguishable {
                    lines.push(format!("indistinguishable: {}", q.to_json().render()));
                }
                cluster.evict(id).expect("session deleted");
                return lines;
            }
            Step::AwaitFeedback(round) => {
                lines.push(format!("round: {}", round.to_json().render()));
                let choice = oracle.choose(&round).expect("oracle finds its result");
                cluster.answer(id, choice).expect("answer lands");
                between_rounds(cluster, id);
            }
        }
        assert!(lines.len() < 300, "session failed to converge");
    }
}

fn current_shard(cluster: &Cluster, id: SessionId) -> usize {
    cluster
        .router()
        .shard_of(id)
        .expect("mid-flight session has a route")
}

#[test]
fn outcomes_are_byte_identical_across_placements_and_backends() {
    let mut transcripts: Vec<(String, Vec<String>)> = Vec::new();
    for backend in ["mem", "log"] {
        // One shard, sessions never move: the baseline.
        let (store, dir) = open_store(backend, "single");
        let cluster = Cluster::open(store, ClusterConfig::with_shards(1)).expect("cluster opens");
        transcripts.push((
            format!("{backend}/single-shard"),
            drive_transcript(&cluster, &mut |_, _| {}),
        ));
        if let Some(dir) = dir {
            let _ = std::fs::remove_dir_all(dir);
        }

        // Four shards, live migration after every answered round.
        let (store, dir) = open_store(backend, "migrate");
        let cluster = Cluster::open(store, ClusterConfig::with_shards(4)).expect("cluster opens");
        transcripts.push((
            format!("{backend}/migrate-every-round"),
            drive_transcript(&cluster, &mut |cluster, id| {
                let from = current_shard(cluster, id);
                let to = (from + 1) % cluster.shard_count();
                assert!(cluster.migrate(id, to).expect("migration completes"));
            }),
        ));
        assert!(
            cluster.status().migrations > 0,
            "the migrate scenario actually migrated"
        );
        if let Some(dir) = dir {
            let _ = std::fs::remove_dir_all(dir);
        }

        // Four shards, the session's shard is killed (and failed over)
        // after every answered round.
        let (store, dir) = open_store(backend, "kill");
        let cluster = Cluster::open(store, ClusterConfig::with_shards(4)).expect("cluster opens");
        transcripts.push((
            format!("{backend}/kill-every-round"),
            drive_transcript(&cluster, &mut |cluster, id| {
                let victim = current_shard(cluster, id);
                cluster.kill_shard(victim).expect("kill lands");
                cluster.fail_over(victim).expect("failover rehomes");
                cluster.restart_shard(victim).expect("shard revives");
            }),
        ));
        assert!(
            cluster.status().failovers > 0,
            "the kill scenario actually failed over"
        );
        if let Some(dir) = dir {
            let _ = std::fs::remove_dir_all(dir);
        }
    }

    let (baseline_name, baseline) = &transcripts[0];
    assert!(
        baseline.iter().any(|l| l.starts_with("round: ")),
        "the workload presented at least one feedback round"
    );
    for (name, transcript) in &transcripts[1..] {
        assert_eq!(transcript, baseline, "{name} diverged from {baseline_name}");
    }
}

#[test]
fn concurrent_requests_for_a_parked_session_leave_one_resident_engine() {
    // Seeded read latency on every other session load widens the window in
    // which two shards could both try to rehydrate the parked session.
    let plan = FaultPlan::new(0xF1EE7).with_rule(FaultRule {
        op: "get_session".to_string(),
        key_contains: None,
        trigger: FaultTrigger::EveryNth(2),
        action: FaultAction::Latency { millis: 2 },
        limit: None,
    });
    let store = Arc::new(FaultyStore::new(
        Arc::new(MemoryStore::new()) as Arc<dyn SnapshotStore>,
        plan,
    ));
    let cluster = Cluster::open(
        store as Arc<dyn SnapshotStore>,
        ClusterConfig::with_shards(4),
    )
    .expect("cluster opens");

    let (db, result, candidates, _) = qfe_datasets::example_1_1();
    let oracle = OracleUser::new(candidates[0].clone());
    let session = QfeSession::builder(db, result)
        .with_candidates(candidates)
        .build()
        .expect("example session builds");
    let id = cluster.create(&session).expect("session created");
    // Advance to the first feedback round — but leave it unanswered — then
    // park: the session now has a pending round and is resident nowhere.
    let Step::AwaitFeedback(first_round) = cluster.step(id).expect("first step") else {
        panic!("example workload must need feedback");
    };
    cluster.park(id).expect("park lands");
    assert_eq!(
        cluster.resident_count(),
        0,
        "parked session is not resident"
    );

    // Eight steppers race four migrations for the same parked session.
    let rounds: Mutex<Vec<String>> = Mutex::new(Vec::new());
    std::thread::scope(|scope| {
        let cluster = &cluster;
        let rounds = &rounds;
        for _ in 0..8 {
            scope.spawn(move || match cluster.step(id).expect("concurrent step") {
                Step::AwaitFeedback(round) => rounds
                    .lock()
                    .expect("rounds lock poisoned")
                    .push(round.to_json().render()),
                Step::Done(_) => panic!("session cannot finish mid-round"),
            });
        }
        for target in 0..4 {
            scope.spawn(move || {
                // `false` (already there) is fine; an error is not.
                cluster.migrate(id, target).expect("concurrent migrate");
            });
        }
    });

    let rounds = rounds.into_inner().expect("rounds lock poisoned");
    assert_eq!(rounds.len(), 8, "every concurrent step saw a round");
    assert!(
        rounds.iter().all(|r| r == &first_round.to_json().render()),
        "every concurrent step saw the same pending round"
    );
    // Exactly one resident engine across the whole fleet — never zero
    // (migration rehydrates eagerly), never two (the per-session lock
    // serializes rehydration against routing flips).
    let residents: usize = cluster
        .shards()
        .iter()
        .map(|s| usize::from(s.host().manager().contains(id)))
        .sum();
    assert_eq!(residents, 1, "exactly one resident engine fleet-wide");
    // And the session is still fully usable where it landed: answer the
    // pending round and run it to completion.
    let choice = oracle
        .choose(&first_round)
        .expect("oracle finds its result");
    cluster.answer(id, choice).expect("answer lands");
    let mut steps = 0;
    loop {
        match cluster.step(id).expect("post-race step") {
            Step::Done(outcome) => {
                assert!(outcome.query.label.is_some());
                break;
            }
            Step::AwaitFeedback(round) => {
                let choice = oracle.choose(&round).expect("oracle finds its result");
                cluster.answer(id, choice).expect("answer lands");
            }
        }
        steps += 1;
        assert!(steps < 100, "session failed to converge after the race");
    }
}
