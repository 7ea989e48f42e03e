//! A [`SessionManager`] wrapped with a durable store and a memory-pressure
//! watermark: the service-facing session host.
//!
//! Requests address sessions by id exactly as with a bare manager; the host
//! transparently rehydrates a parked session from the store on its next
//! request, and parks the longest-idle sessions whenever the resident count
//! exceeds the configured watermark. A parked session costs no heap beyond
//! the store's index entry — the PIMDAL framing: keep cold state off the
//! memory bus entirely.
//!
//! Durability: parking writes the session through [`park_snapshot`];
//! rehydration leaves the stored copy in place, so a crash after resume
//! falls back to the last parked state instead of losing the session.
//! The copy is replaced on the next park.
//!
//! Concurrency: every verb holds its session's lock (a [`SessionLocks`]
//! entry) from rehydration through the engine op, and every park holds it
//! from snapshot to eviction. The watermark sweep runs after the verb has
//! released its own lock and only `try_lock`s its victims, skipping busy
//! ones, so it can never park a session between another request's
//! rehydration and its op, nor evict an engine whose answer has not been
//! written.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use qfe_core::{
    QfeEngine, QfeError, QfeSession, Result, SessionId, SessionManager, SessionSnapshot, Step,
};

use crate::park::{load_snapshot, park_snapshot, ParkReceipt};
use crate::store::{SnapshotStore, StoreError};

/// Converts a store failure into the core error vocabulary.
fn store_qfe(e: StoreError) -> QfeError {
    QfeError::Store {
        context: e.context,
        message: e.message,
    }
}

/// Tuning for a [`SessionHost`].
#[derive(Debug, Clone, Default)]
pub struct HostConfig {
    /// Resident-engine watermark: after any request, the longest-idle
    /// sessions are parked until at most this many engines stay on the
    /// heap. `None` disables pressure-driven parking (explicit `park`
    /// still works).
    pub max_resident: Option<usize>,
}

impl HostConfig {
    /// Config with the given resident watermark.
    pub fn with_max_resident(max_resident: usize) -> HostConfig {
        HostConfig {
            max_resident: Some(max_resident),
        }
    }
}

/// What a [`SessionHost::park_all`] sweep achieved before it finished or
/// hit its deadline — the shared shutdown/drain primitive: single-node
/// shutdown and cluster shard drain both run exactly this loop.
#[derive(Debug, Default)]
pub struct ParkAllReport {
    /// Sessions parked durably by this sweep.
    pub parked: usize,
    /// Sessions whose park failed (store error); they stay resident.
    pub failed: usize,
    /// Sessions left resident because the deadline expired first.
    pub remaining: usize,
    /// True when the sweep stopped on its deadline rather than completing.
    pub timed_out: bool,
    /// The first park failure, for the caller's error report.
    pub first_error: Option<QfeError>,
}

impl ParkAllReport {
    /// True when every resident session was parked durably.
    pub fn is_complete(&self) -> bool {
        self.failed == 0 && self.remaining == 0
    }
}

/// One lock per session id, created on first touch — the table both the
/// host and the cluster router serialize a session's verbs with. Whoever
/// holds both takes the cluster's before the host's.
#[derive(Debug, Default)]
pub struct SessionLocks {
    table: Mutex<HashMap<u64, Arc<Mutex<()>>>>,
}

impl SessionLocks {
    /// The lock for session `id`.
    pub fn get(&self, id: SessionId) -> Arc<Mutex<()>> {
        Arc::clone(
            self.table
                .lock()
                .expect("session lock table poisoned")
                .entry(id.as_u64())
                .or_default(),
        )
    }
}

/// A [`SessionManager`] with a durable snapshot store behind it.
#[derive(Debug)]
pub struct SessionHost {
    manager: SessionManager,
    store: Arc<dyn SnapshotStore>,
    config: HostConfig,
    locks: SessionLocks,
}

/// The store key a session parks under — shared vocabulary between the
/// host and the cluster router, which addresses the store directly when a
/// session's shard is dead.
pub fn session_store_key(id: SessionId) -> String {
    format!("s{}", id.as_u64())
}

/// Inverse of [`session_store_key`]; `None` for non-session keys (e.g. the
/// cluster supervisor's heartbeat probes).
pub fn parse_session_store_key(key: &str) -> Option<SessionId> {
    key.strip_prefix('s')?.parse().ok().map(SessionId::from_u64)
}

fn store_key(id: SessionId) -> String {
    session_store_key(id)
}

fn parse_store_key(key: &str) -> Option<u64> {
    parse_session_store_key(key).map(|id| id.as_u64())
}

impl SessionHost {
    /// Opens a host over `store`. Session ids found parked in the store are
    /// reserved, so ids created by this process generation never collide
    /// with sessions parked by a previous one.
    pub fn open(store: Arc<dyn SnapshotStore>, config: HostConfig) -> Result<SessionHost> {
        let manager = SessionManager::new();
        let keys = store.session_keys().map_err(store_qfe)?;
        if let Some(max_id) = keys.iter().filter_map(|k| parse_store_key(k)).max() {
            manager.reserve_ids(max_id.saturating_add(1));
        }
        Ok(SessionHost {
            manager,
            store,
            config,
            locks: SessionLocks::default(),
        })
    }

    /// The wrapped manager (resident sessions only).
    pub fn manager(&self) -> &SessionManager {
        &self.manager
    }

    /// The backing store.
    pub fn store(&self) -> &Arc<dyn SnapshotStore> {
        &self.store
    }

    /// Starts hosting a new session. May immediately park other sessions
    /// (or this one) if the resident watermark is exceeded.
    pub fn create(&self, session: &QfeSession) -> Result<SessionId> {
        let id = self.manager.create(session);
        self.enforce_watermark();
        Ok(id)
    }

    /// Starts hosting an existing engine (e.g. adopted from a snapshot sent
    /// over the wire).
    pub fn adopt(&self, engine: QfeEngine) -> Result<SessionId> {
        let id = self.manager.adopt(engine);
        self.enforce_watermark();
        Ok(id)
    }

    /// Starts hosting an engine under a caller-chosen id — the cluster
    /// placement path, where ids are allocated by the router rather than by
    /// any one shard's manager. Fails when the id is already resident.
    pub fn adopt_as(&self, id: SessionId, engine: QfeEngine) -> Result<()> {
        self.manager.adopt_as(id, engine)?;
        self.enforce_watermark();
        Ok(())
    }

    /// Restores a session from a snapshot under a fresh id.
    pub fn restore(&self, snapshot: SessionSnapshot) -> Result<SessionId> {
        let id = self.manager.restore(snapshot)?;
        self.enforce_watermark();
        Ok(id)
    }

    /// Runs `op` on the resident session under its lock, rehydrating it
    /// first if parked, then sweeps the watermark once the lock is released.
    fn verb<T>(&self, id: SessionId, op: impl FnOnce(&SessionManager) -> Result<T>) -> Result<T> {
        let result = {
            let lock = self.locks.get(id);
            let _guard = lock.lock().expect("session lock poisoned");
            self.ensure_resident(id).and_then(|_| op(&self.manager))
        };
        self.enforce_watermark();
        result
    }

    /// Advances a session, rehydrating it from the store first if parked.
    pub fn step(&self, id: SessionId) -> Result<Step> {
        self.verb(id, |m| m.step(id))
    }

    /// Answers a session's pending round, rehydrating first if parked.
    pub fn answer(&self, id: SessionId, choice_idx: usize) -> Result<()> {
        self.verb(id, |m| m.answer(id, choice_idx))
    }

    /// [`SessionManager::answer_timed`] with transparent rehydration.
    pub fn answer_timed(
        &self,
        id: SessionId,
        choice_idx: usize,
        user_time: Duration,
    ) -> Result<()> {
        self.verb(id, |m| m.answer_timed(id, choice_idx, user_time))
    }

    /// Rejects a session's pending round, rehydrating first if parked.
    pub fn reject(&self, id: SessionId) -> Result<()> {
        self.verb(id, |m| m.reject(id))
    }

    /// Parks a session: snapshots it to the store (workload payload stored
    /// once, content-addressed) and evicts the engine from memory. Parking
    /// an already-parked session is a no-op that reports the stored record.
    pub fn park(&self, id: SessionId) -> Result<ParkReceipt> {
        let lock = self.locks.get(id);
        let _guard = lock.lock().expect("session lock poisoned");
        self.park_locked(id)
    }

    /// [`SessionHost::park`] for a caller already holding the session lock.
    fn park_locked(&self, id: SessionId) -> Result<ParkReceipt> {
        let key = store_key(id);
        match self.manager.snapshot(id) {
            Ok(snapshot) => {
                let receipt =
                    park_snapshot(self.store.as_ref(), &key, &snapshot).map_err(store_qfe)?;
                self.manager.evict(id);
                Ok(receipt)
            }
            Err(QfeError::UnknownSession { .. }) => self
                .parked_receipt(&key)?
                .ok_or(QfeError::UnknownSession { id: id.as_u64() }),
            Err(e) => Err(e),
        }
    }

    /// Writes the session's current state to the store **without** evicting
    /// the engine — the cluster's write-through path. After a checkpoint, a
    /// crash that loses the resident engine rolls the session back only to
    /// this verb boundary instead of to its last explicit park.
    pub fn checkpoint(&self, id: SessionId) -> Result<ParkReceipt> {
        let lock = self.locks.get(id);
        let _guard = lock.lock().expect("session lock poisoned");
        let snapshot = self.manager.snapshot(id)?;
        park_snapshot(self.store.as_ref(), &store_key(id), &snapshot).map_err(store_qfe)
    }

    /// Ensures a session is resident, rehydrating it if parked. Returns
    /// `true` when this call brought it back from the store.
    pub fn resume(&self, id: SessionId) -> Result<bool> {
        let rehydrated = {
            let lock = self.locks.get(id);
            let _guard = lock.lock().expect("session lock poisoned");
            self.ensure_resident(id)
        };
        self.enforce_watermark();
        rehydrated
    }

    /// Parks every resident session, stopping early when `deadline` expires
    /// — the one drain loop shared by single-node shutdown (`qfe-server`'s
    /// exit path) and cluster shard drain. Sessions that vanish mid-sweep
    /// (a concurrent park or delete) are not failures; store errors are
    /// tallied and the sweep keeps going so one bad record cannot strand
    /// every other session in memory.
    pub fn park_all(&self, deadline: Option<Duration>) -> ParkAllReport {
        let start = Instant::now();
        let mut report = ParkAllReport::default();
        let ids = self.manager.session_ids();
        for (index, &id) in ids.iter().enumerate() {
            if let Some(deadline) = deadline {
                if start.elapsed() >= deadline {
                    report.timed_out = true;
                    report.remaining = ids.len() - index;
                    break;
                }
            }
            match self.park(id) {
                Ok(_) => report.parked += 1,
                // A concurrent request already parked or deleted it.
                Err(QfeError::UnknownSession { .. }) => {}
                Err(e) => {
                    report.failed += 1;
                    report.first_error.get_or_insert(e);
                }
            }
        }
        report
    }

    /// Parks every resident session — the drain-on-shutdown path. A thin
    /// wrapper over [`SessionHost::park_all`] with no deadline, failing on
    /// the first store error.
    pub fn drain(&self) -> Result<usize> {
        let report = self.park_all(None);
        match report.first_error {
            Some(e) => Err(e),
            None => Ok(report.parked),
        }
    }

    /// True when the session is resident or parked.
    pub fn contains(&self, id: SessionId) -> Result<bool> {
        if self.manager.contains(id) {
            return Ok(true);
        }
        Ok(self
            .store
            .get_session(&store_key(id))
            .map_err(store_qfe)?
            .is_some())
    }

    /// Number of engines currently on the heap.
    pub fn resident_count(&self) -> usize {
        self.manager.len()
    }

    /// Number of sessions parked in the store and not resident.
    pub fn parked_count(&self) -> Result<usize> {
        Ok(self.parked_ids()?.len())
    }

    /// Every hosted session id — resident and parked — in ascending order.
    pub fn session_ids(&self) -> Result<Vec<SessionId>> {
        let mut ids = self.manager.session_ids();
        ids.extend(self.parked_ids()?);
        ids.sort();
        ids.dedup();
        Ok(ids)
    }

    /// Drops a resident engine **without** parking it — a crash, as far as
    /// this session is concerned: its stored copy (if any) is untouched.
    /// Returns `false` when the session was not resident.
    pub fn discard(&self, id: SessionId) -> bool {
        let lock = self.locks.get(id);
        let _guard = lock.lock().expect("session lock poisoned");
        self.manager.evict(id)
    }

    /// Stops hosting a session entirely: evicts the engine and deletes any
    /// parked record. Returns `false` when the id was unknown everywhere.
    pub fn evict(&self, id: SessionId) -> Result<bool> {
        let lock = self.locks.get(id);
        let _guard = lock.lock().expect("session lock poisoned");
        let resident = self.manager.evict(id);
        let parked = self
            .store
            .remove_session(&store_key(id))
            .map_err(store_qfe)?;
        Ok(resident || parked)
    }

    fn parked_ids(&self) -> Result<Vec<SessionId>> {
        Ok(self
            .store
            .session_keys()
            .map_err(store_qfe)?
            .iter()
            .filter_map(|k| parse_store_key(k))
            .map(SessionId::from_u64)
            .filter(|id| !self.manager.contains(*id))
            .collect())
    }

    /// Reconstructs a receipt for an already-parked session from the store.
    fn parked_receipt(&self, key: &str) -> Result<Option<ParkReceipt>> {
        let Some(record) = self.store.get_session(key).map_err(store_qfe)? else {
            return Ok(None);
        };
        let state_bytes = record.len();
        let hash = qfe_wire::Json::parse(&record)
            .ok()
            .and_then(|j| {
                j.field("workload")
                    .ok()
                    .and_then(|h| h.as_str().ok().map(String::from))
            })
            .unwrap_or_default();
        let workload_bytes = self
            .store
            .get_workload(&hash)
            .map_err(store_qfe)?
            .map(|w| w.len())
            .unwrap_or(0);
        Ok(Some(ParkReceipt {
            workload_hash: hash,
            state_bytes,
            workload_bytes,
            workload_was_shared: true,
        }))
    }

    /// Rehydrates a parked session; `true` when it was not resident. The
    /// caller holds the session lock.
    fn ensure_resident(&self, id: SessionId) -> Result<bool> {
        if self.manager.contains(id) {
            return Ok(false);
        }
        let key = store_key(id);
        let snapshot = load_snapshot(self.store.as_ref(), &key)
            .map_err(store_qfe)?
            .ok_or(QfeError::UnknownSession { id: id.as_u64() })?;
        self.manager.restore_as(id, snapshot)?;
        Ok(true)
    }

    /// Parks the longest-idle sessions over the watermark. Victims busy in
    /// another request are skipped, and a victim whose park fails simply
    /// stays resident: the request that triggered the sweep has already
    /// committed, so its outcome must not turn into an error here.
    fn enforce_watermark(&self) {
        let Some(max) = self.config.max_resident else {
            return;
        };
        let idle = self.manager.idle_sessions();
        for (id, _) in &idle[..idle.len().saturating_sub(max)] {
            let lock = self.locks.get(*id);
            if let Ok(_guard) = lock.try_lock() {
                let _ = self.park_locked(*id);
            };
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::MemoryStore;
    use qfe_core::{FeedbackUser, OracleUser};
    use qfe_datasets::example_1_1;
    use qfe_query::SpjQuery;

    fn session_and_target(idx: usize) -> (QfeSession, SpjQuery) {
        let (db, result, candidates, _) = example_1_1();
        let target = candidates[idx].clone();
        let session = QfeSession::builder(db, result)
            .with_candidates(candidates)
            .build()
            .unwrap();
        (session, target)
    }

    fn drive(host: &SessionHost, id: SessionId, target: &SpjQuery) -> String {
        let oracle = OracleUser::new(target.clone());
        loop {
            match host.step(id).unwrap() {
                Step::Done(outcome) => break outcome.query.label.clone().unwrap_or_default(),
                Step::AwaitFeedback(round) => {
                    host.answer(id, oracle.choose(&round).unwrap()).unwrap()
                }
            }
        }
    }

    #[test]
    fn park_resume_preserves_the_session() {
        let host = SessionHost::open(Arc::new(MemoryStore::new()), HostConfig::default()).unwrap();
        let (session, target) = session_and_target(1);
        let id = host.create(&session).unwrap();
        let round = match host.step(id).unwrap() {
            Step::AwaitFeedback(round) => round,
            Step::Done(_) => panic!("round expected"),
        };

        let receipt = host.park(id).unwrap();
        assert!(!receipt.workload_was_shared);
        assert_eq!(host.resident_count(), 0);
        assert_eq!(host.parked_count().unwrap(), 1);
        assert!(host.contains(id).unwrap());
        // Parking twice is an idempotent no-op reporting the stored record.
        let again = host.park(id).unwrap();
        assert!(again.workload_was_shared);
        assert_eq!(again.workload_hash, receipt.workload_hash);
        assert_eq!(again.state_bytes, receipt.state_bytes);

        // The next request transparently rehydrates under the same id and
        // re-presents the cached round.
        match host.step(id).unwrap() {
            Step::AwaitFeedback(r) => assert_eq!(r, round),
            Step::Done(_) => panic!("pending round must survive the park"),
        }
        assert_eq!(host.resident_count(), 1);
        assert_eq!(drive(&host, id, &target), target.label.clone().unwrap());
    }

    #[test]
    fn watermark_parks_longest_idle_first() {
        let host = SessionHost::open(
            Arc::new(MemoryStore::new()),
            HostConfig::with_max_resident(2),
        )
        .unwrap();
        let ids: Vec<SessionId> = (0..3)
            .map(|i| host.create(&session_and_target(i % 3).0).unwrap())
            .collect();
        // Three created, watermark two: the longest-idle (first-created,
        // never touched) session was parked.
        assert_eq!(host.resident_count(), 2);
        assert_eq!(host.parked_count().unwrap(), 1);
        assert!(!host.manager().contains(ids[0]));
        // All three are still addressable.
        let all = host.session_ids().unwrap();
        assert_eq!(all, ids);
        // Touching the parked one rehydrates it and parks another instead.
        let _ = host.step(ids[0]).unwrap();
        assert!(host.manager().contains(ids[0]));
        assert_eq!(host.resident_count(), 2);
    }

    #[test]
    fn concurrent_verbs_survive_each_others_watermark_sweeps() {
        // Watermark 1 under four busy threads: every verb's sweep tries to
        // park the sessions the other threads are in the middle of using.
        // Each verb must still find its session, and no answer may be lost
        // (a lost answer re-presents the round it answered).
        let host = SessionHost::open(
            Arc::new(MemoryStore::new()),
            HostConfig::with_max_resident(1),
        )
        .unwrap();
        std::thread::scope(|scope| {
            for thread in 0..4 {
                let host = &host;
                scope.spawn(move || {
                    for i in 0..50 {
                        let (session, target) = session_and_target((thread + i) % 3);
                        let oracle = OracleUser::new(target.clone());
                        let id = host.create(&session).unwrap();
                        let mut answered = Vec::new();
                        loop {
                            match host.step(id).unwrap() {
                                Step::Done(outcome) => {
                                    assert_eq!(outcome.query.label, target.label);
                                    break;
                                }
                                Step::AwaitFeedback(round) => {
                                    assert!(!answered.contains(&round), "an answer was lost");
                                    host.answer(id, oracle.choose(&round).unwrap()).unwrap();
                                    answered.push(round);
                                }
                            }
                        }
                        assert!(host.evict(id).unwrap());
                    }
                });
            }
        });
        assert_eq!(host.resident_count(), 0);
    }

    #[test]
    fn zero_watermark_keeps_every_session_off_heap() {
        let host = SessionHost::open(
            Arc::new(MemoryStore::new()),
            HostConfig::with_max_resident(0),
        )
        .unwrap();
        let (session, target) = session_and_target(2);
        let id = host.create(&session).unwrap();
        assert_eq!(host.resident_count(), 0, "parked immediately");
        // Every request rehydrates, works, and parks again.
        assert_eq!(drive(&host, id, &target), target.label.clone().unwrap());
        assert_eq!(host.resident_count(), 0);
    }

    #[test]
    fn unknown_and_corrupt_sessions_error_cleanly() {
        let store = Arc::new(MemoryStore::new());
        let host = SessionHost::open(
            Arc::clone(&store) as Arc<dyn SnapshotStore>,
            HostConfig::default(),
        )
        .unwrap();
        let ghost = SessionId::from_u64(99);
        assert!(matches!(
            host.step(ghost),
            Err(QfeError::UnknownSession { id: 99 })
        ));
        // A corrupt parked record surfaces as a Store error for that id…
        store.put_session("s7", "{corrupt").unwrap();
        let err = host.step(SessionId::from_u64(7)).unwrap_err();
        assert!(matches!(err, QfeError::Store { .. }));
        assert!(err.to_string().contains("s7"));
        // …and the host keeps serving other sessions afterwards.
        let (session, target) = session_and_target(1);
        let id = host.create(&session).unwrap();
        assert_eq!(drive(&host, id, &target), target.label.clone().unwrap());
    }

    #[test]
    fn checkpoint_writes_through_without_evicting() {
        let store = Arc::new(MemoryStore::new());
        let host = SessionHost::open(
            Arc::clone(&store) as Arc<dyn SnapshotStore>,
            HostConfig::default(),
        )
        .unwrap();
        let (session, target) = session_and_target(1);
        let id = host.create(&session).unwrap();
        let _ = host.step(id).unwrap();

        let receipt = host.checkpoint(id).unwrap();
        assert!(receipt.state_bytes > 0);
        // The engine stays resident…
        assert_eq!(host.resident_count(), 1);
        // …and the stored copy is a full park: a fresh host over the same
        // store (the crash-recovery path) resumes from the checkpoint.
        let recovered = SessionHost::open(
            Arc::clone(&store) as Arc<dyn SnapshotStore>,
            HostConfig::default(),
        )
        .unwrap();
        assert_eq!(
            drive(&recovered, id, &target),
            target.label.clone().unwrap()
        );
        // Checkpointing a parked session is UnknownSession (state already
        // durable), not a panic.
        host.park(id).unwrap();
        assert!(matches!(
            host.checkpoint(id),
            Err(QfeError::UnknownSession { .. })
        ));
    }

    #[test]
    fn adopt_as_hosts_under_the_callers_id() {
        let host = SessionHost::open(Arc::new(MemoryStore::new()), HostConfig::default()).unwrap();
        let (session, target) = session_and_target(2);
        let id = SessionId::from_u64(17);
        host.adopt_as(id, session.start()).unwrap();
        assert!(host.manager().contains(id));
        // The id space advanced past the adopted id.
        let (other, _) = session_and_target(0);
        assert!(host.create(&other).unwrap().as_u64() > 17);
        assert_eq!(drive(&host, id, &target), target.label.clone().unwrap());
    }

    #[test]
    fn park_all_reports_progress_and_honors_the_deadline() {
        let host = SessionHost::open(Arc::new(MemoryStore::new()), HostConfig::default()).unwrap();
        let ids: Vec<SessionId> = (0..3)
            .map(|i| host.create(&session_and_target(i % 3).0).unwrap())
            .collect();
        // An expired deadline parks nothing and reports every session left.
        let stopped = host.park_all(Some(Duration::ZERO));
        assert!(stopped.timed_out);
        assert_eq!(stopped.parked, 0);
        assert_eq!(stopped.remaining, ids.len());
        assert!(!stopped.is_complete());
        // A generous deadline parks everything.
        let swept = host.park_all(Some(Duration::from_secs(30)));
        assert_eq!(swept.parked, 3);
        assert!(swept.is_complete() && !swept.timed_out);
        assert!(swept.first_error.is_none());
        assert_eq!(host.resident_count(), 0);
        assert_eq!(host.parked_count().unwrap(), 3);
        // Sweeping an empty host is a complete no-op.
        assert!(host.park_all(None).is_complete());
    }

    #[test]
    fn open_reserves_parked_ids_and_drain_parks_everything() {
        let store: Arc<dyn SnapshotStore> = Arc::new(MemoryStore::new());
        let first = SessionHost::open(Arc::clone(&store), HostConfig::default()).unwrap();
        let (session, _) = session_and_target(0);
        let id = first.create(&session).unwrap();
        let _ = first.step(id).unwrap();
        assert_eq!(first.drain().unwrap(), 1);
        assert_eq!(first.resident_count(), 0);

        // A second host generation over the same store: new ids never
        // collide with the parked one.
        let second = SessionHost::open(Arc::clone(&store), HostConfig::default()).unwrap();
        let (other, _) = session_and_target(1);
        let new_id = second.create(&other).unwrap();
        assert!(new_id.as_u64() > id.as_u64());
        assert!(second.contains(id).unwrap());
        // Evicting removes both the resident engine and the parked record.
        assert!(second.evict(id).unwrap());
        assert!(!second.contains(id).unwrap());
        assert!(!second.evict(id).unwrap());
    }
}
