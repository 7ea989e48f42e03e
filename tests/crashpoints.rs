//! Crash-point matrix for the durable store.
//!
//! Simulates a process kill at **every byte offset** of a record write and
//! asserts the recovery invariant the store promises: reopening yields
//! either the pre-write or the post-write state — an accepted record is
//! never served corrupt — and a parked session recovered from the store
//! resumes byte-identically.
//!
//! `LogStore` appends one framed line per record, so a kill mid-write is a
//! file truncated inside that line; the matrix truncates the log at every
//! offset of the final append.

use std::path::PathBuf;

use qfe::prelude::*;

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("qfe-crashpoints-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Steps a fresh Example 1.1 engine to its first feedback round and returns
/// two serialized snapshots: before and after answering that round.
fn two_snapshots() -> (String, String) {
    let (db, result, candidates, target) = qfe::datasets::example_1_1();
    let session = QfeSession::builder(db, result)
        .with_candidates(candidates)
        .build()
        .unwrap();
    let user = OracleUser::new(target);
    let mut engine = session.start();
    let Step::AwaitFeedback(round) = engine.step().unwrap() else {
        panic!("example 1.1 needs at least one feedback round");
    };
    let before = engine.snapshot().serialize();
    let choice = user.choose(&round).expect("oracle finds its result");
    engine.answer(choice).unwrap();
    let after = engine.snapshot().serialize();
    assert_ne!(before, after, "answering must change the parked state");
    (before, after)
}

#[test]
fn log_store_killed_at_every_append_offset_recovers_pre_or_post() {
    let dir = temp_dir("log-matrix");
    let path = dir.join("crash.log");
    {
        let store = LogStore::open(&path).unwrap();
        store.put_workload("wh", "{\"w\":1}").unwrap();
        store.put_session("s1", "{\"v\":\"pre\"}").unwrap();
    }
    let base = std::fs::read(&path).unwrap();
    {
        let store = LogStore::open(&path).unwrap();
        store.put_session("s1", "{\"v\":\"post\"}").unwrap();
    }
    let full = std::fs::read(&path).unwrap();
    assert!(full.len() > base.len());

    let victim = dir.join("victim.log");
    for cut in base.len()..=full.len() {
        std::fs::write(&victim, &full[..cut]).unwrap();
        let store = LogStore::open(&victim).unwrap();
        let got = store.get_session("s1").unwrap().expect("s1 never vanishes");
        if cut == full.len() {
            assert_eq!(got, "{\"v\":\"post\"}", "complete append is the new state");
        } else {
            assert_eq!(
                got, "{\"v\":\"pre\"}",
                "kill at offset {cut}: partial append must roll back"
            );
        }
        // Earlier accepted records are untouched by the crash, and nothing
        // accepted was corrupted: recovery quarantines zero records.
        assert_eq!(store.get_workload("wh").unwrap().unwrap(), "{\"w\":1}");
        let report = store.fsck().unwrap();
        assert!(
            report.quarantined.is_empty(),
            "kill at offset {cut} must never corrupt an accepted record: {report}"
        );
    }
}

#[test]
fn parked_session_survives_every_kill_offset_and_resumes_byte_identically() {
    let (before, after) = two_snapshots();
    let dir = temp_dir("log-park-matrix");
    let path = dir.join("park.log");
    let key = "qfe-session-7";
    {
        let store = LogStore::open(&path).unwrap();
        store.put_session(key, &before).unwrap();
    }
    let base = std::fs::read(&path).unwrap();
    {
        let store = LogStore::open(&path).unwrap();
        store.put_session(key, &after).unwrap();
    }
    let full = std::fs::read(&path).unwrap();

    // Sampling every offset of a multi-kilobyte snapshot record: each
    // truncated copy must recover to exactly one of the two accepted
    // snapshots, byte for byte.
    let victim = dir.join("victim.log");
    for cut in base.len()..=full.len() {
        std::fs::write(&victim, &full[..cut]).unwrap();
        let store = LogStore::open(&victim).unwrap();
        let got = store.get_session(key).unwrap().expect("session present");
        let expected: &str = if cut == full.len() { &after } else { &before };
        assert_eq!(
            got, *expected,
            "kill at offset {cut}: recovered snapshot is not byte-identical"
        );
    }

    // Both recoverable states rehydrate into engines whose own snapshots
    // round-trip byte-identically — the session truly resumes.
    for parked in [&before, &after] {
        let engine = QfeEngine::resume(SessionSnapshot::deserialize(parked).unwrap()).unwrap();
        assert_eq!(
            engine.snapshot().serialize(),
            *parked,
            "resumed engine must re-serialize to the recovered bytes"
        );
    }
}
