//! Hosting many concurrent QFE sessions behind opaque handles.
//!
//! [`SessionManager`] owns a set of [`QfeEngine`]s keyed by [`SessionId`]
//! and exposes the engine operations — step, answer, reject, snapshot —
//! through the handle. It is the embedding point for a server frontend: a
//! request handler resolves the session id, steps or answers, and returns;
//! no thread ever blocks waiting for a user.
//!
//! Concurrency: the manager is `Sync`. The session table is behind a
//! read-write lock held only for lookup, and each engine has its own mutex,
//! so sessions progress independently — stepping one session (which runs
//! Algorithms 2–4) never blocks stepping another.

use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::time::{Duration, Instant};

use crate::driver::QfeSession;
use crate::engine::{QfeEngine, SessionSnapshot, Step};
use crate::error::{QfeError, Result};

/// Opaque handle to a session hosted by a [`SessionManager`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SessionId(u64);

impl SessionId {
    /// The raw numeric id (for logging and wire protocols).
    pub fn as_u64(self) -> u64 {
        self.0
    }

    /// Rebuilds a handle from its raw numeric id (the inverse of
    /// [`SessionId::as_u64`], for wire protocols and durable stores). The id
    /// is not checked against any manager; operations on an unhosted id fail
    /// with [`QfeError::UnknownSession`] as usual.
    pub fn from_u64(id: u64) -> SessionId {
        SessionId(id)
    }
}

impl fmt::Display for SessionId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "session-{}", self.0)
    }
}

/// A hosted engine plus its idle clock: `last_touch` is updated on every
/// step/answer/reject, so eviction policy (park the longest-idle session
/// first) is deterministic and observable via
/// [`SessionManager::idle_since`].
#[derive(Debug)]
struct Hosted {
    engine: Mutex<QfeEngine>,
    last_touch: Mutex<Instant>,
}

impl Hosted {
    fn new(engine: QfeEngine) -> Arc<Hosted> {
        Arc::new(Hosted {
            engine: Mutex::new(engine),
            last_touch: Mutex::new(Instant::now()),
        })
    }

    fn touch(&self) {
        *self.last_touch.lock().expect("idle clock lock poisoned") = Instant::now();
    }
}

/// Hosts many concurrent [`QfeEngine`]s behind [`SessionId`] handles.
#[derive(Debug, Default)]
pub struct SessionManager {
    sessions: RwLock<HashMap<SessionId, Arc<Hosted>>>,
    next_id: AtomicU64,
}

impl SessionManager {
    /// Creates an empty manager.
    pub fn new() -> Self {
        SessionManager::default()
    }

    /// Starts hosting a new session built from the given configured session.
    pub fn create(&self, session: &QfeSession) -> SessionId {
        self.adopt(session.start())
    }

    /// Starts hosting an existing engine (e.g. one resumed from a snapshot).
    pub fn adopt(&self, engine: QfeEngine) -> SessionId {
        let id = SessionId(self.next_id.fetch_add(1, Ordering::Relaxed));
        self.sessions
            .write()
            .expect("session table lock poisoned")
            .insert(id, Hosted::new(engine));
        id
    }

    /// Starts hosting an engine under a caller-chosen id — the rehydration
    /// path: a session parked to a durable store must come back under the
    /// handle its clients already hold. Fails when the id is already
    /// resident. The manager's id counter is advanced past `id` so freshly
    /// created sessions can never collide with rehydrated ones.
    pub fn adopt_as(&self, id: SessionId, engine: QfeEngine) -> Result<()> {
        self.reserve_ids(id.0.saturating_add(1));
        let mut sessions = self.sessions.write().expect("session table lock poisoned");
        if sessions.contains_key(&id) {
            return Err(QfeError::Store {
                context: format!("adopt_as {id}"),
                message: "session id is already resident".into(),
            });
        }
        sessions.insert(id, Hosted::new(engine));
        Ok(())
    }

    /// Restores a session from a snapshot and starts hosting it.
    pub fn restore(&self, snapshot: SessionSnapshot) -> Result<SessionId> {
        Ok(self.adopt(QfeEngine::resume(snapshot)?))
    }

    /// [`SessionManager::adopt_as`] from a snapshot.
    pub fn restore_as(&self, id: SessionId, snapshot: SessionSnapshot) -> Result<()> {
        self.adopt_as(id, QfeEngine::resume(snapshot)?)
    }

    /// Guarantees that every id handed out in the future is `>= min_next`.
    /// Called when sessions from a previous process generation are found in a
    /// durable store, so new ids never collide with parked ones.
    pub fn reserve_ids(&self, min_next: u64) {
        self.next_id.fetch_max(min_next, Ordering::Relaxed);
    }

    fn hosted(&self, id: SessionId) -> Result<Arc<Hosted>> {
        self.sessions
            .read()
            .expect("session table lock poisoned")
            .get(&id)
            .cloned()
            .ok_or(QfeError::UnknownSession { id: id.0 })
    }

    /// Runs one verb on a hosted engine. The idle clock is stamped before the
    /// verb (a session mid-verb is not idle) and again after it, so idle time
    /// counts from the end of the last verb, however long that verb ran.
    fn touched<T>(
        &self,
        id: SessionId,
        verb: impl FnOnce(&mut QfeEngine) -> Result<T>,
    ) -> Result<T> {
        let hosted = self.hosted(id)?;
        hosted.touch();
        let out = verb(&mut hosted.engine.lock().expect("engine lock poisoned"));
        hosted.touch();
        out
    }

    /// Advances a session: [`QfeEngine::step`] through the handle.
    pub fn step(&self, id: SessionId) -> Result<Step> {
        self.touched(id, QfeEngine::step)
    }

    /// Answers a session's pending round: [`QfeEngine::answer`].
    pub fn answer(&self, id: SessionId, choice_idx: usize) -> Result<()> {
        self.touched(id, |engine| engine.answer(choice_idx))
    }

    /// [`QfeEngine::answer_timed`] through the handle.
    pub fn answer_timed(
        &self,
        id: SessionId,
        choice_idx: usize,
        user_time: Duration,
    ) -> Result<()> {
        self.touched(id, |engine| engine.answer_timed(choice_idx, user_time))
    }

    /// Reports "none of these" for a session's pending round:
    /// [`QfeEngine::reject`].
    pub fn reject(&self, id: SessionId) -> Result<()> {
        self.touched(id, QfeEngine::reject)
    }

    /// Externalizes a session's state: [`QfeEngine::snapshot`]. The session
    /// keeps running; pair with [`SessionManager::evict`] to migrate it away.
    ///
    /// Snapshotting does not reset the idle clock: parking a long-idle
    /// session must not make it look freshly used.
    pub fn snapshot(&self, id: SessionId) -> Result<SessionSnapshot> {
        Ok(self
            .hosted(id)?
            .engine
            .lock()
            .expect("engine lock poisoned")
            .snapshot())
    }

    /// How long ago the session was last stepped, answered or rejected.
    /// Freshly created/adopted sessions start the clock at adoption.
    pub fn idle_since(&self, id: SessionId) -> Result<Duration> {
        Ok(self
            .hosted(id)?
            .last_touch
            .lock()
            .expect("idle clock lock poisoned")
            .elapsed())
    }

    /// `(id, idle duration)` for every hosted session, most idle first (ties
    /// broken by ascending id) — the order an eviction policy should park
    /// sessions in. One consistent pass under the table read lock.
    pub fn idle_sessions(&self) -> Vec<(SessionId, Duration)> {
        let now = Instant::now();
        let mut idle: Vec<(SessionId, Duration)> = self
            .sessions
            .read()
            .expect("session table lock poisoned")
            .iter()
            .map(|(id, hosted)| {
                let touched = *hosted.last_touch.lock().expect("idle clock lock poisoned");
                (*id, now.saturating_duration_since(touched))
            })
            .collect();
        idle.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        idle
    }

    /// Stops hosting a session. Returns `false` when the id was unknown
    /// (evicting twice is not an error).
    pub fn evict(&self, id: SessionId) -> bool {
        self.sessions
            .write()
            .expect("session table lock poisoned")
            .remove(&id)
            .is_some()
    }

    /// True when the id is currently hosted.
    pub fn contains(&self, id: SessionId) -> bool {
        self.sessions
            .read()
            .expect("session table lock poisoned")
            .contains_key(&id)
    }

    /// Number of hosted sessions.
    pub fn len(&self) -> usize {
        self.sessions
            .read()
            .expect("session table lock poisoned")
            .len()
    }

    /// True when no sessions are hosted.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The ids of all hosted sessions, in ascending order.
    pub fn session_ids(&self) -> Vec<SessionId> {
        let mut ids: Vec<SessionId> = self
            .sessions
            .read()
            .expect("session table lock poisoned")
            .keys()
            .copied()
            .collect();
        ids.sort();
        ids
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Step;
    use crate::feedback::{FeedbackUser, OracleUser};
    use qfe_datasets::example_1_1;
    use qfe_query::SpjQuery;

    fn session_for(target_idx: usize) -> (QfeSession, SpjQuery) {
        let (db, result, candidates, _) = example_1_1();
        let target = candidates[target_idx].clone();
        let session = QfeSession::builder(db, result)
            .with_candidates(candidates)
            .build()
            .unwrap();
        (session, target)
    }

    #[test]
    fn create_step_answer_evict_lifecycle() {
        let manager = SessionManager::new();
        assert!(manager.is_empty());
        let (session, target) = session_for(1);
        let id = manager.create(&session);
        assert!(manager.contains(id));
        assert_eq!(manager.len(), 1);
        assert_eq!(manager.session_ids(), vec![id]);
        assert_eq!(id.to_string(), format!("session-{}", id.as_u64()));

        let oracle = OracleUser::new(target.clone());
        let outcome = loop {
            match manager.step(id).unwrap() {
                Step::Done(outcome) => break outcome,
                Step::AwaitFeedback(round) => {
                    manager.answer(id, oracle.choose(&round).unwrap()).unwrap();
                }
            }
        };
        assert_eq!(outcome.query.label, target.label);
        assert!(manager.evict(id));
        assert!(!manager.evict(id));
        assert!(matches!(
            manager.step(id),
            Err(QfeError::UnknownSession { .. })
        ));
    }

    #[test]
    fn snapshot_restore_continues_under_a_new_id() {
        let manager = SessionManager::new();
        let (session, target) = session_for(2);
        let id = manager.create(&session);
        // Generate a round, snapshot mid-round, evict the original.
        let round = match manager.step(id).unwrap() {
            Step::AwaitFeedback(round) => round,
            Step::Done(_) => panic!("three candidates cannot finish immediately"),
        };
        let snapshot = manager.snapshot(id).unwrap();
        assert!(manager.evict(id));

        let restored = manager.restore(snapshot).unwrap();
        assert_ne!(restored, id);
        let oracle = OracleUser::new(target.clone());
        // The restored session re-presents the cached round.
        let outcome = loop {
            match manager.step(restored).unwrap() {
                Step::Done(outcome) => break outcome,
                Step::AwaitFeedback(r) => {
                    if r.iteration == round.iteration {
                        assert_eq!(r, round, "cached round must be re-presented");
                    }
                    manager
                        .answer(restored, oracle.choose(&r).unwrap())
                        .unwrap();
                }
            }
        };
        assert_eq!(outcome.query.label, target.label);
    }

    #[test]
    fn unknown_ids_are_reported() {
        let manager = SessionManager::new();
        let ghost = SessionId(999);
        assert!(!manager.contains(ghost));
        assert!(matches!(
            manager.answer(ghost, 0),
            Err(QfeError::UnknownSession { id: 999 })
        ));
        assert!(matches!(
            manager.snapshot(ghost),
            Err(QfeError::UnknownSession { .. })
        ));
        assert!(matches!(
            manager.reject(ghost),
            Err(QfeError::UnknownSession { .. })
        ));
        assert!(matches!(
            manager.answer_timed(ghost, 0, Duration::ZERO),
            Err(QfeError::UnknownSession { .. })
        ));
    }

    #[test]
    fn idle_clock_resets_on_step_and_answer() {
        let manager = SessionManager::new();
        let (session, _) = session_for(1);
        let id = manager.create(&session);
        assert!(manager.idle_since(id).unwrap() < Duration::from_secs(5));
        std::thread::sleep(Duration::from_millis(15));
        let idled = manager.idle_since(id).unwrap();
        assert!(idled >= Duration::from_millis(15));
        // Stepping resets the clock.
        let _ = manager.step(id).unwrap();
        assert!(manager.idle_since(id).unwrap() < idled);
        std::thread::sleep(Duration::from_millis(15));
        // Answering resets it again.
        manager.answer(id, 0).unwrap();
        assert!(manager.idle_since(id).unwrap() < Duration::from_millis(15));
        assert!(matches!(
            manager.idle_since(SessionId(404)),
            Err(QfeError::UnknownSession { id: 404 })
        ));
    }

    #[test]
    fn idle_sessions_order_most_idle_first() {
        let manager = SessionManager::new();
        let (s1, _) = session_for(1);
        let (s2, _) = session_for(2);
        let a = manager.create(&s1);
        let b = manager.create(&s2);
        std::thread::sleep(Duration::from_millis(10));
        let _ = manager.step(b).unwrap(); // b is now the freshest
        let order: Vec<SessionId> = manager.idle_sessions().iter().map(|(id, _)| *id).collect();
        assert_eq!(order, vec![a, b]);
        let _ = manager.step(a).unwrap();
        std::thread::sleep(Duration::from_millis(2));
        let order: Vec<SessionId> = manager.idle_sessions().iter().map(|(id, _)| *id).collect();
        assert_eq!(order, vec![b, a]);
    }

    #[test]
    fn adopt_as_rehosts_under_the_original_id_and_reserves_ids() {
        let manager = SessionManager::new();
        let (session, target) = session_for(2);
        let id = manager.create(&session);
        let _ = manager.step(id).unwrap();
        let snapshot = manager.snapshot(id).unwrap();
        assert!(manager.evict(id));

        // A fresh manager (a "restarted process") rehosts under the same id.
        let fresh = SessionManager::new();
        fresh.restore_as(id, snapshot.clone()).unwrap();
        assert!(fresh.contains(id));
        // Ids handed out afterwards never collide with the rehydrated one.
        let (other, _) = session_for(1);
        let new_id = fresh.create(&other);
        assert!(new_id.as_u64() > id.as_u64());

        // Rehosting over a resident id is a store error, not a panic.
        assert!(matches!(
            fresh.restore_as(id, snapshot),
            Err(QfeError::Store { .. })
        ));

        // The rehydrated session still finishes.
        let oracle = OracleUser::new(target.clone());
        let outcome = loop {
            match fresh.step(id).unwrap() {
                Step::Done(outcome) => break outcome,
                Step::AwaitFeedback(round) => {
                    fresh.answer(id, oracle.choose(&round).unwrap()).unwrap()
                }
            }
        };
        assert_eq!(outcome.query.label, target.label);
    }

    #[test]
    fn session_id_roundtrips_through_u64() {
        let id = SessionId::from_u64(42);
        assert_eq!(id.as_u64(), 42);
        assert_eq!(id, SessionId(42));
    }

    #[test]
    fn sessions_are_isolated() {
        let manager = SessionManager::new();
        let (s1, t1) = session_for(1);
        let (s2, t2) = session_for(2);
        let a = manager.create(&s1);
        let b = manager.create(&s2);
        // Interleave the two sessions round by round.
        let (o1, o2) = {
            let drive = |id, target: &SpjQuery| {
                let oracle = OracleUser::new(target.clone());
                loop {
                    match manager.step(id).unwrap() {
                        Step::Done(outcome) => break outcome,
                        Step::AwaitFeedback(round) => {
                            manager.answer(id, oracle.choose(&round).unwrap()).unwrap()
                        }
                    }
                }
            };
            // Alternate single steps first to prove interleaving is safe.
            let _ = manager.step(a).unwrap();
            let _ = manager.step(b).unwrap();
            (drive(a, &t1), drive(b, &t2))
        };
        assert_eq!(o1.query.label, t1.label);
        assert_eq!(o2.query.label, t2.label);
    }
}
