//! The cluster router: id allocation, per-session locking, routing, and the
//! migration / failover / drain protocols.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use qfe_core::{QfeEngine, QfeError, QfeSession, Result, SessionId, SessionSnapshot, Step};
use qfe_snapstore::{
    parse_session_store_key, session_store_key, FsckReport, HostConfig, ParkAllReport, ParkReceipt,
    SessionBackend, SessionHost, SessionLocks, SnapshotStore, StoreError,
};
use qfe_wire::Json;

use crate::shard::{Shard, ShardState, ShardStatus};

/// Route-claim retries before a request gives up — each retry only happens
/// when a shard died between route resolution and dispatch, so two is
/// already generous and eight is unreachable outside pathological chaos.
const ROUTE_ATTEMPTS: usize = 8;

fn store_qfe(e: StoreError) -> QfeError {
    QfeError::Store {
        context: e.context,
        message: e.message,
    }
}

fn no_such_shard(index: usize) -> QfeError {
    QfeError::Store {
        context: format!("cluster shard {index}"),
        message: "no such shard".to_string(),
    }
}

/// SplitMix64 — the placement hash. Sequential session ids land on
/// well-spread home shards, and the same id always hashes the same way, so
/// placement is deterministic across runs.
fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Tuning for a [`Cluster`].
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Number of shard hosts in the fleet.
    pub shards: usize,
    /// Per-shard resident-engine watermark (see
    /// [`HostConfig::max_resident`]). `None` disables pressure parking.
    pub max_resident_per_shard: Option<usize>,
    /// Consecutive failed health probes before [`Cluster::heartbeat_tick`]
    /// declares a shard dead and fails it over.
    pub probe_failure_threshold: u32,
}

impl Default for ClusterConfig {
    fn default() -> ClusterConfig {
        ClusterConfig {
            shards: 4,
            max_resident_per_shard: None,
            probe_failure_threshold: 3,
        }
    }
}

impl ClusterConfig {
    /// Config for a fleet of `shards` hosts with otherwise-default tuning.
    pub fn with_shards(shards: usize) -> ClusterConfig {
        ClusterConfig {
            shards,
            ..ClusterConfig::default()
        }
    }
}

/// The routing table: which shard currently owns each session id.
///
/// A session's *home* shard is a pure hash of its id
/// ([`ShardRouter::home_shard`]); the table records where the session
/// actually lives right now, which diverges from home after a migration or
/// failover. Entries are flipped atomically under the owning session's
/// lock — a reader never observes a half-moved session.
#[derive(Debug, Default)]
pub struct ShardRouter {
    routes: Mutex<HashMap<u64, usize>>,
}

impl ShardRouter {
    /// The hash-preferred shard for a session id in a fleet of `shards`.
    pub fn home_shard(id: SessionId, shards: usize) -> usize {
        (mix64(id.as_u64()) % shards.max(1) as u64) as usize
    }

    /// The shard currently routed for a session, if any.
    pub fn shard_of(&self, id: SessionId) -> Option<usize> {
        self.get(id.as_u64())
    }

    fn get(&self, key: u64) -> Option<usize> {
        self.table().get(&key).copied()
    }

    fn set(&self, key: u64, shard: usize) {
        self.table().insert(key, shard);
    }

    fn remove(&self, key: u64) {
        self.table().remove(&key);
    }

    fn routed_to(&self, shard: usize) -> Vec<u64> {
        let mut keys: Vec<u64> = self
            .table()
            .iter()
            .filter(|&(_, &s)| s == shard)
            .map(|(&k, _)| k)
            .collect();
        keys.sort_unstable();
        keys
    }

    fn keys(&self) -> Vec<u64> {
        self.table().keys().copied().collect()
    }

    fn len(&self) -> usize {
        self.table().len()
    }

    fn table(&self) -> std::sync::MutexGuard<'_, HashMap<u64, usize>> {
        self.routes.lock().expect("routing table lock poisoned")
    }
}

/// What [`Cluster::drain_shard`] achieved.
#[derive(Debug)]
pub struct DrainOutcome {
    /// The park sweep over the shard's resident sessions.
    pub sweep: ParkAllReport,
    /// Routing entries moved off the drained shard.
    pub reassigned: usize,
    /// True when the shard fully drained and went down; false when the
    /// sweep missed its deadline (or hit store errors) and the shard was
    /// rolled back to serving.
    pub completed: bool,
}

/// One shard's row from a [`Cluster::heartbeat_tick`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardHealth {
    /// The probed shard.
    pub index: usize,
    /// Serving state after the tick.
    pub state: ShardState,
    /// Whether this tick's probe succeeded (always false for a shard
    /// already down — it is not probed).
    pub probe_ok: bool,
    /// Consecutive probe failures after the tick.
    pub probe_failures: u32,
    /// True when this tick crossed the failure threshold and the
    /// supervisor killed and failed over the shard.
    pub declared_dead: bool,
}

/// Point-in-time operator view of the whole fleet (`GET /admin/shards`).
#[derive(Debug, Clone)]
pub struct ClusterStatus {
    /// Per-shard rows.
    pub shards: Vec<ShardStatus>,
    /// Sessions with a routing entry.
    pub routed_sessions: usize,
    /// Short name of the shared backing store.
    pub store_backend: &'static str,
    /// Completed migrations (explicit and drain-driven).
    pub migrations: u64,
    /// Sessions re-homed off a dead shard.
    pub failovers: u64,
    /// Successful write-through checkpoints.
    pub checkpoints: u64,
    /// Checkpoints that failed and were absorbed (rollback exposure).
    pub checkpoint_failures: u64,
}

impl ClusterStatus {
    /// The status as JSON — the body of `GET /admin/shards`.
    pub fn to_json(&self) -> Json {
        Json::object([
            (
                "shards",
                Json::Array(
                    self.shards
                        .iter()
                        .map(|s| {
                            Json::object([
                                ("index", Json::Int(s.index as i64)),
                                ("state", Json::Str(s.state.name().to_string())),
                                ("resident", Json::Int(s.resident as i64)),
                                ("served", Json::Int(s.served as i64)),
                                ("probe_failures", Json::Int(s.probe_failures as i64)),
                                ("times_killed", Json::Int(s.times_killed as i64)),
                            ])
                        })
                        .collect(),
                ),
            ),
            ("routed_sessions", Json::Int(self.routed_sessions as i64)),
            ("store", Json::Str(self.store_backend.to_string())),
            ("migrations", Json::Int(self.migrations as i64)),
            ("failovers", Json::Int(self.failovers as i64)),
            ("checkpoints", Json::Int(self.checkpoints as i64)),
            (
                "checkpoint_failures",
                Json::Int(self.checkpoint_failures as i64),
            ),
        ])
    }
}

/// N shard [`SessionHost`]s behind one router, sharing one durable store.
///
/// The cluster implements [`SessionBackend`], so a service frontend cannot
/// tell it from a single host — same verbs, same error vocabulary, same
/// exactly-once discipline. What it adds underneath: session ids allocated
/// fleet-wide, a per-session lock serializing each session's verbs against
/// the protocols that move it, and a write-through checkpoint after every
/// state-changing verb so no committed effect can be lost to a shard crash.
#[derive(Debug)]
pub struct Cluster {
    config: ClusterConfig,
    store: Arc<dyn SnapshotStore>,
    shards: Vec<Shard>,
    router: ShardRouter,
    /// A verb holds its session's lock across engine-op + checkpoint;
    /// migration, failover, drain, kill and delete take the same lock before
    /// touching the session — so a session is only ever mutated from one
    /// place at a time, even while the fleet is being killed and restarted
    /// under it. Taken before the shard host's own lock for the session.
    locks: SessionLocks,
    next_id: AtomicU64,
    migrations: AtomicU64,
    failovers: AtomicU64,
    checkpoints: AtomicU64,
    checkpoint_failures: AtomicU64,
}

impl Cluster {
    /// Opens a fleet of `config.shards` hosts over one shared store.
    /// Session ids parked by a previous process generation are reserved, so
    /// new ids never collide with recoverable sessions.
    pub fn open(store: Arc<dyn SnapshotStore>, config: ClusterConfig) -> Result<Cluster> {
        if config.shards == 0 {
            return Err(QfeError::Store {
                context: "cluster open".to_string(),
                message: "a cluster needs at least one shard".to_string(),
            });
        }
        let host_config = HostConfig {
            max_resident: config.max_resident_per_shard,
        };
        let shards = (0..config.shards)
            .map(|i| {
                SessionHost::open(Arc::clone(&store), host_config.clone())
                    .map(|host| Shard::new(i, host))
            })
            .collect::<Result<Vec<_>>>()?;
        let next_id = store
            .session_keys()
            .map_err(store_qfe)?
            .iter()
            .filter_map(|k| parse_session_store_key(k))
            .map(|id| id.as_u64())
            .max()
            .map_or(0, |m| m.saturating_add(1));
        Ok(Cluster {
            config,
            store,
            shards,
            router: ShardRouter::default(),
            locks: SessionLocks::default(),
            next_id: AtomicU64::new(next_id),
            migrations: AtomicU64::new(0),
            failovers: AtomicU64::new(0),
            checkpoints: AtomicU64::new(0),
            checkpoint_failures: AtomicU64::new(0),
        })
    }

    /// The fleet's shards, in index order.
    pub fn shards(&self) -> &[Shard] {
        &self.shards
    }

    /// Number of shards in the fleet (including dead ones).
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The shared backing store.
    pub fn store(&self) -> &Arc<dyn SnapshotStore> {
        &self.store
    }

    /// The routing table.
    pub fn router(&self) -> &ShardRouter {
        &self.router
    }

    fn stored(&self, key: u64) -> Result<bool> {
        Ok(self
            .store
            .get_session(&session_store_key(SessionId::from_u64(key)))
            .map_err(store_qfe)?
            .is_some())
    }

    /// First shard accepting placements, scanning from the id's home shard
    /// so placement is deterministic and spread.
    fn pick_assignable(&self, key: u64) -> Result<usize> {
        let n = self.shards.len();
        let home = ShardRouter::home_shard(SessionId::from_u64(key), n);
        for offset in 0..n {
            let candidate = (home + offset) % n;
            if self.shards[candidate].is_up() {
                return Ok(candidate);
            }
        }
        Err(QfeError::Store {
            context: format!("cluster route s{key}"),
            message: "no shard is accepting sessions".to_string(),
        })
    }

    /// Resolves (or repairs) the session's route. Caller holds the session
    /// lock. A route to a serving shard is returned as-is; a dead or
    /// missing route is re-claimed onto a survivor — the lazy half of
    /// failover, and the adoption path for sessions parked by a previous
    /// process generation.
    fn claim_route(&self, key: u64) -> Result<usize> {
        let current = self.router.get(key);
        if let Some(shard) = current {
            if self.shards[shard].is_serving() {
                return Ok(shard);
            }
        }
        // The store record is the session's identity: no record, no
        // session — a route left behind by lost data 404s instead of
        // resurrecting a blank session.
        if !self.stored(key)? {
            return Err(QfeError::UnknownSession { id: key });
        }
        let target = self.pick_assignable(key)?;
        self.router.set(key, target);
        if current.is_some() {
            self.failovers.fetch_add(1, Ordering::SeqCst);
        }
        Ok(target)
    }

    /// Runs `f` against the session's shard under the session lock. When
    /// `durable` is set (every state-changing verb), a successful `f` is
    /// followed by a write-through checkpoint — and if the shard was killed
    /// while `f` ran, the verb reports failure instead, because its effect
    /// died with the evicted engine and must be replayed elsewhere.
    fn with_shard<T>(
        &self,
        id: SessionId,
        durable: bool,
        f: impl Fn(&SessionHost) -> Result<T>,
    ) -> Result<T> {
        let key = id.as_u64();
        for _ in 0..ROUTE_ATTEMPTS {
            let lock = self.locks.get(id);
            let _guard = lock.lock().expect("session lock poisoned");
            let shard_index = self.claim_route(key)?;
            let shard = &self.shards[shard_index];
            if !shard.is_serving() {
                // Killed between claim and dispatch; re-route.
                continue;
            }
            let result = f(shard.host());
            shard.record_served();
            if durable && result.is_ok() {
                if shard.is_serving() {
                    match shard.host().checkpoint(id) {
                        Ok(_) => {
                            self.checkpoints.fetch_add(1, Ordering::SeqCst);
                        }
                        // The watermark parked it right after the verb —
                        // the park already wrote the post-verb state.
                        Err(QfeError::UnknownSession { .. }) => {}
                        // Best-effort: the verb stays committed in memory
                        // and the session's durable copy lags one verb. A
                        // crash before the next checkpoint rolls back to
                        // the previous round, which the deterministic
                        // engine simply re-presents.
                        Err(_) => {
                            self.checkpoint_failures.fetch_add(1, Ordering::SeqCst);
                        }
                    }
                } else {
                    // The shard was killed while the verb ran: the engine
                    // (and this verb's un-checkpointed effect) is gone.
                    // Failing the request keeps exactly-once intact — the
                    // client retries and replays on the session's new home.
                    return Err(QfeError::Store {
                        context: format!("cluster s{key}"),
                        message: "shard killed during the request; retry".to_string(),
                    });
                }
            }
            return result;
        }
        Err(QfeError::Store {
            context: format!("cluster s{key}"),
            message: "routing did not stabilize".to_string(),
        })
    }

    fn place(&self, engine: QfeEngine) -> Result<SessionId> {
        let id = SessionId::from_u64(self.next_id.fetch_add(1, Ordering::SeqCst));
        let key = id.as_u64();
        let lock = self.locks.get(id);
        let _guard = lock.lock().expect("session lock poisoned");
        let shard_index = self.pick_assignable(key)?;
        let shard = &self.shards[shard_index];
        if let Err(e) = shard.host().adopt_as(id, engine) {
            shard.host().discard(id);
            return Err(e);
        }
        // The birth certificate: until the session exists in the shared
        // store, a shard kill would lose it unrecoverably. This checkpoint
        // is mandatory — on failure the placement is rolled back so the
        // client's retry starts clean.
        match shard.host().checkpoint(id) {
            Ok(_) => {}
            // The watermark parked it during adoption — already durable.
            Err(QfeError::UnknownSession { .. }) => {}
            Err(e) => {
                shard.host().discard(id);
                return Err(e);
            }
        }
        self.router.set(key, shard_index);
        Ok(id)
    }

    /// Starts hosting a new session on its home shard (or the next serving
    /// one). The session is durable before the id is returned.
    pub fn create(&self, session: &QfeSession) -> Result<SessionId> {
        self.place(session.start())
    }

    /// Restores a session from a snapshot under a fresh cluster-wide id.
    pub fn restore(&self, snapshot: SessionSnapshot) -> Result<SessionId> {
        self.place(QfeEngine::resume(snapshot)?)
    }

    /// Advances a session on whichever shard owns it, rehydrating and
    /// re-routing as needed.
    pub fn step(&self, id: SessionId) -> Result<Step> {
        self.with_shard(id, true, |host| host.step(id))
    }

    /// Answers a session's pending round.
    pub fn answer(&self, id: SessionId, choice_idx: usize) -> Result<()> {
        self.with_shard(id, true, |host| host.answer(id, choice_idx))
    }

    /// Answers with the user's reported deliberation time.
    pub fn answer_timed(
        &self,
        id: SessionId,
        choice_idx: usize,
        user_time: Duration,
    ) -> Result<()> {
        self.with_shard(id, true, |host| {
            host.answer_timed(id, choice_idx, user_time)
        })
    }

    /// Rejects every presented result of the pending round.
    pub fn reject(&self, id: SessionId) -> Result<()> {
        self.with_shard(id, true, |host| host.reject(id))
    }

    /// Parks a session to the shared store wherever it lives.
    pub fn park(&self, id: SessionId) -> Result<ParkReceipt> {
        self.with_shard(id, false, |host| host.park(id))
    }

    /// Ensures a session is resident on its routed shard.
    pub fn resume(&self, id: SessionId) -> Result<bool> {
        self.with_shard(id, false, |host| host.resume(id))
    }

    /// Stops hosting a session fleet-wide: engine, routing entry, and the
    /// shared store record.
    pub fn evict(&self, id: SessionId) -> Result<bool> {
        let key = id.as_u64();
        let lock = self.locks.get(id);
        let _guard = lock.lock().expect("session lock poisoned");
        let mut found = false;
        if let Some(shard) = self.router.get(key) {
            if self.shards[shard].is_serving() {
                found |= self.shards[shard].host().discard(id);
            }
        }
        self.router.remove(key);
        found |= self
            .store
            .remove_session(&session_store_key(id))
            .map_err(store_qfe)?;
        Ok(found)
    }

    /// **Live migration**: park on the source (freshest state lands in the
    /// shared store), flip the routing entry, rehydrate on the target — all
    /// under the session's lock, so no request ever sees two owners.
    /// Returns `false` when the session already lives on `target`.
    pub fn migrate(&self, id: SessionId, target: usize) -> Result<bool> {
        let key = id.as_u64();
        let target_shard = self
            .shards
            .get(target)
            .ok_or_else(|| no_such_shard(target))?;
        if !target_shard.is_up() {
            return Err(QfeError::Store {
                context: format!("cluster migrate s{key}"),
                message: format!("target shard {target} is not accepting sessions"),
            });
        }
        let lock = self.locks.get(id);
        let _guard = lock.lock().expect("session lock poisoned");
        let source = self.router.get(key);
        if source == Some(target) {
            return Ok(false);
        }
        match source {
            Some(s) if self.shards[s].is_serving() => {
                // Park writes the freshest state through and evicts the
                // source engine: exactly one copy of the session exists
                // from here on.
                self.shards[s].host().park(id)?;
            }
            _ => {
                // Source dead or never routed: the store copy is the
                // freshest state there is. It must exist to migrate.
                if !self.stored(key)? {
                    return Err(QfeError::UnknownSession { id: key });
                }
            }
        }
        self.router.set(key, target);
        target_shard.host().resume(id)?;
        self.migrations.fetch_add(1, Ordering::SeqCst);
        Ok(true)
    }

    /// **Crash a shard**: marks it down, then drops its resident engines
    /// without parking — anything not yet checkpointed is lost, exactly
    /// like a real crash. Serialized per session, so an in-flight verb
    /// finishes first; its durable effect is gated on the shard still
    /// serving, so nothing the kill destroys was ever reported committed.
    /// Returns the number of engines dropped.
    pub fn kill_shard(&self, index: usize) -> Result<usize> {
        let shard = self.shards.get(index).ok_or_else(|| no_such_shard(index))?;
        shard.set_state(ShardState::Down);
        shard.record_kill();
        let mut dropped = 0;
        for id in shard.host().manager().session_ids() {
            let lock = self.locks.get(id);
            let _guard = lock.lock().expect("session lock poisoned");
            if shard.host().discard(id) {
                dropped += 1;
            }
        }
        Ok(dropped)
    }

    /// **Eager failover**: re-homes every session routed to a dead shard
    /// onto survivors and rehydrates it from its last checkpoint. Without
    /// this call the same recovery happens lazily, one session at a time,
    /// on each session's next request. Returns the number re-homed.
    pub fn fail_over(&self, index: usize) -> Result<usize> {
        let shard = self.shards.get(index).ok_or_else(|| no_such_shard(index))?;
        if shard.is_serving() {
            return Ok(0);
        }
        let mut moved = 0;
        for key in self.router.routed_to(index) {
            let lock = self.locks.get(SessionId::from_u64(key));
            let _guard = lock.lock().expect("session lock poisoned");
            // Revalidate under the lock: a concurrent request may already
            // have claimed a new home, or the shard may have restarted.
            if self.router.get(key) != Some(index) || shard.is_serving() {
                continue;
            }
            let target = self.pick_assignable(key)?;
            self.router.set(key, target);
            self.failovers.fetch_add(1, Ordering::SeqCst);
            // Rehydration here is best-effort: on a store fault the
            // session stays parked and the next request retries it.
            let _ = self.shards[target].host().resume(SessionId::from_u64(key));
            moved += 1;
        }
        Ok(moved)
    }

    /// Brings a dead shard back empty, ready to accept placements again.
    /// Its former sessions stay wherever failover put them; any still
    /// routed here simply rehydrate from the shared store on next touch.
    /// Returns `false` when the shard was not down.
    pub fn restart_shard(&self, index: usize) -> Result<bool> {
        let shard = self.shards.get(index).ok_or_else(|| no_such_shard(index))?;
        if shard.is_serving() {
            return Ok(false);
        }
        shard.reset_probe_failures();
        shard.set_state(ShardState::Up);
        Ok(true)
    }

    /// **Graceful drain**: stops new placements, parks every resident
    /// session (the same [`SessionHost::park_all`] sweep single-node
    /// shutdown uses, same deadline semantics), re-homes the shard's routes
    /// onto survivors, and takes the shard down. If the sweep cannot finish
    /// — deadline or store errors — the shard rolls back to serving and
    /// nothing moved.
    pub fn drain_shard(&self, index: usize, deadline: Option<Duration>) -> Result<DrainOutcome> {
        let shard = self.shards.get(index).ok_or_else(|| no_such_shard(index))?;
        if !shard.is_up() {
            return Err(QfeError::Store {
                context: format!("cluster drain shard {index}"),
                message: format!("shard {index} is {}, not up", shard.state().name()),
            });
        }
        shard.set_state(ShardState::Draining);
        // Take every routed session's lock in id order (deadlock-free:
        // every other path holds at most one cluster session lock, and
        // takes a host lock only after it) so no verb is in flight while
        // the shard's sessions move.
        let keys = self.router.routed_to(index);
        let locks: Vec<_> = keys
            .iter()
            .map(|&k| self.locks.get(SessionId::from_u64(k)))
            .collect();
        let guards: Vec<_> = locks
            .iter()
            .map(|l| l.lock().expect("session lock poisoned"))
            .collect();
        let sweep = shard.host().park_all(deadline);
        if !sweep.is_complete() {
            // Whatever failed to park must keep a live owner.
            shard.set_state(ShardState::Up);
            return Ok(DrainOutcome {
                sweep,
                reassigned: 0,
                completed: false,
            });
        }
        let mut reassigned = 0;
        for &key in &keys {
            let target = self.pick_assignable(key)?;
            self.router.set(key, target);
            let _ = self.shards[target].host().resume(SessionId::from_u64(key));
            self.migrations.fetch_add(1, Ordering::SeqCst);
            reassigned += 1;
        }
        drop(guards);
        shard.set_state(ShardState::Down);
        Ok(DrainOutcome {
            sweep,
            reassigned,
            completed: true,
        })
    }

    /// One supervisor round: probes each serving shard with a single store
    /// read on `hb-<index>` — a key a [`FaultPlan`] rule can target to
    /// sicken one shard — and kills + fails over any shard crossing
    /// [`ClusterConfig::probe_failure_threshold`] consecutive failures.
    /// Fully deterministic under a seeded fault plan: no wall-clock, no
    /// randomness of its own.
    ///
    /// [`FaultPlan`]: qfe_snapstore::FaultPlan
    pub fn heartbeat_tick(&self) -> Vec<ShardHealth> {
        let mut report = Vec::with_capacity(self.shards.len());
        for shard in &self.shards {
            let index = shard.index();
            if !shard.is_serving() {
                report.push(ShardHealth {
                    index,
                    state: shard.state(),
                    probe_ok: false,
                    probe_failures: shard.probe_failures(),
                    declared_dead: false,
                });
                continue;
            }
            let probe_ok = self.store.get_session(&format!("hb-{index}")).is_ok();
            let mut declared_dead = false;
            if probe_ok {
                shard.reset_probe_failures();
            } else if shard.record_probe_failure() >= self.config.probe_failure_threshold {
                let _ = self.kill_shard(index);
                let _ = self.fail_over(index);
                declared_dead = true;
            }
            report.push(ShardHealth {
                index,
                state: shard.state(),
                probe_ok,
                probe_failures: shard.probe_failures(),
                declared_dead,
            });
        }
        report
    }

    /// Parks every resident session on every serving shard — whole-fleet
    /// graceful shutdown, sharing the deadline across shards.
    pub fn park_all(&self, deadline: Option<Duration>) -> ParkAllReport {
        let start = Instant::now();
        let mut merged = ParkAllReport::default();
        for shard in self.shards.iter().filter(|s| s.is_serving()) {
            let remaining = deadline.map(|d| d.saturating_sub(start.elapsed()));
            let sweep = shard.host().park_all(remaining);
            merged.parked += sweep.parked;
            merged.failed += sweep.failed;
            merged.remaining += sweep.remaining;
            merged.timed_out |= sweep.timed_out;
            if merged.first_error.is_none() {
                merged.first_error = sweep.first_error;
            }
        }
        merged
    }

    /// Every hosted session id — routed and parked — ascending.
    pub fn session_ids(&self) -> Result<Vec<SessionId>> {
        let mut ids: Vec<u64> = self.router.keys();
        ids.extend(
            self.store
                .session_keys()
                .map_err(store_qfe)?
                .iter()
                .filter_map(|k| parse_session_store_key(k))
                .map(|id| id.as_u64()),
        );
        ids.sort_unstable();
        ids.dedup();
        Ok(ids.into_iter().map(SessionId::from_u64).collect())
    }

    /// Engines resident across the whole fleet.
    pub fn resident_count(&self) -> usize {
        self.shards.iter().map(|s| s.host().resident_count()).sum()
    }

    /// Sessions parked in the shared store and resident on no shard.
    pub fn parked_count(&self) -> Result<usize> {
        Ok(self
            .store
            .session_keys()
            .map_err(store_qfe)?
            .iter()
            .filter_map(|k| parse_session_store_key(k))
            .filter(|&id| !self.shards.iter().any(|s| s.host().manager().contains(id)))
            .count())
    }

    /// A point-in-time status snapshot of the fleet.
    pub fn status(&self) -> ClusterStatus {
        ClusterStatus {
            shards: self.shards.iter().map(|s| s.status()).collect(),
            routed_sessions: self.router.len(),
            store_backend: self.store.backend_name(),
            migrations: self.migrations.load(Ordering::SeqCst),
            failovers: self.failovers.load(Ordering::SeqCst),
            checkpoints: self.checkpoints.load(Ordering::SeqCst),
            checkpoint_failures: self.checkpoint_failures.load(Ordering::SeqCst),
        }
    }
}

impl SessionBackend for Cluster {
    fn create(&self, session: &QfeSession) -> Result<SessionId> {
        Cluster::create(self, session)
    }

    fn restore(&self, snapshot: SessionSnapshot) -> Result<SessionId> {
        Cluster::restore(self, snapshot)
    }

    fn step(&self, id: SessionId) -> Result<Step> {
        Cluster::step(self, id)
    }

    fn answer(&self, id: SessionId, choice_idx: usize) -> Result<()> {
        Cluster::answer(self, id, choice_idx)
    }

    fn answer_timed(&self, id: SessionId, choice_idx: usize, user_time: Duration) -> Result<()> {
        Cluster::answer_timed(self, id, choice_idx, user_time)
    }

    fn reject(&self, id: SessionId) -> Result<()> {
        Cluster::reject(self, id)
    }

    fn park(&self, id: SessionId) -> Result<ParkReceipt> {
        Cluster::park(self, id)
    }

    fn resume(&self, id: SessionId) -> Result<bool> {
        Cluster::resume(self, id)
    }

    fn evict(&self, id: SessionId) -> Result<bool> {
        Cluster::evict(self, id)
    }

    fn session_ids(&self) -> Result<Vec<SessionId>> {
        Cluster::session_ids(self)
    }

    fn resident_count(&self) -> usize {
        Cluster::resident_count(self)
    }

    fn parked_count(&self) -> Result<usize> {
        Cluster::parked_count(self)
    }

    fn store_backend_name(&self) -> &'static str {
        self.store.backend_name()
    }

    fn fsck(&self) -> std::result::Result<FsckReport, StoreError> {
        self.store.fsck()
    }

    fn park_all(&self, deadline: Option<Duration>) -> ParkAllReport {
        Cluster::park_all(self, deadline)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qfe_core::{FeedbackUser, OracleUser};
    use qfe_datasets::example_1_1;
    use qfe_query::SpjQuery;
    use qfe_snapstore::{
        FaultAction, FaultPlan, FaultRule, FaultTrigger, FaultyStore, MemoryStore,
    };

    fn session_and_target(idx: usize) -> (QfeSession, SpjQuery) {
        let (db, result, candidates, _) = example_1_1();
        let target = candidates[idx].clone();
        let session = QfeSession::builder(db, result)
            .with_candidates(candidates)
            .build()
            .unwrap();
        (session, target)
    }

    fn drive(cluster: &Cluster, id: SessionId, target: &SpjQuery) -> String {
        let oracle = OracleUser::new(target.clone());
        loop {
            match cluster.step(id).unwrap() {
                Step::Done(outcome) => break outcome.query.label.clone().unwrap_or_default(),
                Step::AwaitFeedback(round) => {
                    cluster.answer(id, oracle.choose(&round).unwrap()).unwrap()
                }
            }
        }
    }

    fn mem_cluster(shards: usize) -> Cluster {
        Cluster::open(
            Arc::new(MemoryStore::new()),
            ClusterConfig::with_shards(shards),
        )
        .unwrap()
    }

    #[test]
    fn sessions_spread_across_shards_and_complete() {
        let cluster = mem_cluster(4);
        let mut ids = Vec::new();
        for i in 0..8 {
            let (session, target) = session_and_target(i % 3);
            ids.push((cluster.create(&session).unwrap(), target));
        }
        assert_eq!(cluster.resident_count(), 8);
        let populated = cluster
            .shards()
            .iter()
            .filter(|s| s.host().resident_count() > 0)
            .count();
        assert!(populated >= 2, "placement must spread, got {populated}");
        // Every session is durable from birth: kill nothing, but verify
        // the store holds all eight.
        assert_eq!(cluster.store().session_keys().unwrap().len(), 8);
        for (id, target) in ids {
            assert_eq!(drive(&cluster, id, &target), target.label.clone().unwrap());
        }
        let status = cluster.status();
        assert_eq!(status.routed_sessions, 8);
        assert!(status.checkpoints > 0);
        assert_eq!(status.checkpoint_failures, 0);
    }

    #[test]
    fn migrate_moves_a_live_session_and_preserves_its_round() {
        let cluster = mem_cluster(3);
        let (session, target) = session_and_target(1);
        let id = cluster.create(&session).unwrap();
        let round = match cluster.step(id).unwrap() {
            Step::AwaitFeedback(round) => round,
            Step::Done(_) => panic!("round expected"),
        };
        let source = cluster.router().get(id.as_u64()).unwrap();
        let target_shard = (source + 1) % 3;
        assert!(cluster.migrate(id, target_shard).unwrap());
        assert!(cluster.shards()[target_shard].host().manager().contains(id));
        assert!(!cluster.shards()[source].host().manager().contains(id));
        // Migrating to where it already lives is a no-op.
        assert!(!cluster.migrate(id, target_shard).unwrap());
        // The pending round survived the move byte-for-byte.
        match cluster.step(id).unwrap() {
            Step::AwaitFeedback(r) => assert_eq!(r, round),
            Step::Done(_) => panic!("pending round must survive migration"),
        }
        assert_eq!(drive(&cluster, id, &target), target.label.clone().unwrap());
        assert_eq!(cluster.status().migrations, 1);
    }

    #[test]
    fn kill_and_failover_recover_sessions_from_their_checkpoints() {
        let cluster = mem_cluster(2);
        let (session, target) = session_and_target(2);
        let id = cluster.create(&session).unwrap();
        let round = match cluster.step(id).unwrap() {
            Step::AwaitFeedback(round) => round,
            Step::Done(_) => panic!("round expected"),
        };
        let home = cluster.router().get(id.as_u64()).unwrap();
        let dropped = cluster.kill_shard(home).unwrap();
        assert_eq!(dropped, 1);
        assert_eq!(cluster.shards()[home].state(), ShardState::Down);
        let moved = cluster.fail_over(home).unwrap();
        assert_eq!(moved, 1);
        let new_home = cluster.router().get(id.as_u64()).unwrap();
        assert_ne!(new_home, home);
        assert!(cluster.shards()[new_home].host().manager().contains(id));
        // The last checkpointed state — including the pending round — is
        // exactly what comes back.
        match cluster.step(id).unwrap() {
            Step::AwaitFeedback(r) => assert_eq!(r, round),
            Step::Done(_) => panic!("pending round must survive the kill"),
        }
        assert_eq!(drive(&cluster, id, &target), target.label.clone().unwrap());
        assert_eq!(cluster.status().failovers, 1);
        assert_eq!(cluster.shards()[home].times_killed(), 1);
    }

    #[test]
    fn a_dead_route_fails_over_lazily_on_the_next_request() {
        let cluster = mem_cluster(2);
        let (session, target) = session_and_target(0);
        let id = cluster.create(&session).unwrap();
        let home = cluster.router().get(id.as_u64()).unwrap();
        cluster.kill_shard(home).unwrap();
        // No eager fail_over: the next request re-claims the route itself.
        assert_eq!(drive(&cluster, id, &target), target.label.clone().unwrap());
        assert_ne!(cluster.router().get(id.as_u64()).unwrap(), home);
        assert_eq!(cluster.status().failovers, 1);
    }

    #[test]
    fn restarted_shard_serves_its_old_sessions_from_the_store() {
        let cluster = mem_cluster(2);
        let (session, target) = session_and_target(1);
        let id = cluster.create(&session).unwrap();
        let _ = cluster.step(id).unwrap();
        let home = cluster.router().get(id.as_u64()).unwrap();
        cluster.kill_shard(home).unwrap();
        assert!(cluster.restart_shard(home).unwrap());
        assert!(!cluster.restart_shard(home).unwrap(), "already up");
        // The route still points home; the engine rehydrates from the
        // shared store on next touch — no failover needed.
        assert_eq!(drive(&cluster, id, &target), target.label.clone().unwrap());
        assert_eq!(cluster.router().get(id.as_u64()).unwrap(), home);
        assert_eq!(cluster.status().failovers, 0);
    }

    #[test]
    fn drain_shard_rehomes_every_session_and_downs_the_shard() {
        let cluster = mem_cluster(2);
        let mut ids = Vec::new();
        for i in 0..6 {
            let (session, target) = session_and_target(i % 3);
            ids.push((cluster.create(&session).unwrap(), target));
        }
        let victim = 0;
        let before = cluster.shards()[victim].host().resident_count();
        let outcome = cluster
            .drain_shard(victim, Some(Duration::from_secs(30)))
            .unwrap();
        assert!(outcome.completed);
        assert_eq!(outcome.sweep.parked, before);
        assert_eq!(cluster.shards()[victim].state(), ShardState::Down);
        assert_eq!(cluster.shards()[victim].host().resident_count(), 0);
        // Draining a non-up shard is an error, not a second drain.
        assert!(cluster.drain_shard(victim, None).is_err());
        // Every session still completes, and new sessions avoid the dead
        // shard.
        for (id, target) in ids {
            assert_eq!(drive(&cluster, id, &target), target.label.clone().unwrap());
        }
        let (extra, _) = session_and_target(0);
        let new_id = cluster.create(&extra).unwrap();
        assert_eq!(cluster.router().get(new_id.as_u64()).unwrap(), 1);
    }

    #[test]
    fn heartbeat_threshold_kills_and_fails_over_the_sick_shard() {
        let plan = FaultPlan::new(7).with_rule(FaultRule {
            op: "get_session".to_string(),
            key_contains: Some("hb-1".to_string()),
            trigger: FaultTrigger::EveryNth(1),
            action: FaultAction::Error,
            limit: None,
        });
        let store = Arc::new(FaultyStore::new(Arc::new(MemoryStore::new()), plan));
        let cluster = Cluster::open(store, ClusterConfig::with_shards(2)).unwrap();
        // Pin a session on the soon-to-be-sick shard.
        let (session, target) = loop {
            let (session, target) = session_and_target(1);
            let id = cluster.create(&session).unwrap();
            if cluster.router().get(id.as_u64()) == Some(1) {
                break (id, target);
            }
            cluster.evict(id).unwrap();
        };
        let id = session;
        // Two failing ticks: sick but alive.
        for _ in 0..2 {
            let health = cluster.heartbeat_tick();
            assert!(!health[1].probe_ok);
            assert!(!health[1].declared_dead);
            assert_eq!(health[1].state, ShardState::Up);
            assert!(health[0].probe_ok);
        }
        // The third crosses the threshold: killed and failed over.
        let health = cluster.heartbeat_tick();
        assert!(health[1].declared_dead);
        assert_eq!(health[1].state, ShardState::Down);
        assert_eq!(cluster.router().get(id.as_u64()), Some(0));
        assert_eq!(drive(&cluster, id, &target), target.label.clone().unwrap());
        // A dead shard is not probed again.
        let after = cluster.heartbeat_tick();
        assert!(!after[1].declared_dead);
        assert_eq!(after[1].state, ShardState::Down);
    }

    #[test]
    fn create_rolls_back_cleanly_when_the_birth_checkpoint_fails() {
        let plan = FaultPlan::new(3).with_rule(FaultRule {
            op: "put_session".to_string(),
            key_contains: None,
            trigger: FaultTrigger::Nth(1),
            action: FaultAction::Error,
            limit: Some(1),
        });
        let store = Arc::new(FaultyStore::new(Arc::new(MemoryStore::new()), plan));
        let cluster = Cluster::open(store, ClusterConfig::with_shards(2)).unwrap();
        let (session, target) = session_and_target(0);
        let err = cluster.create(&session).unwrap_err();
        assert!(matches!(err, QfeError::Store { .. }));
        // Nothing leaked: no engine, no route, no store record.
        assert_eq!(cluster.resident_count(), 0);
        assert_eq!(cluster.status().routed_sessions, 0);
        // The client's retry (the fault was one-shot) succeeds.
        let id = cluster.create(&session).unwrap();
        assert_eq!(drive(&cluster, id, &target), target.label.clone().unwrap());
    }

    #[test]
    fn cluster_serves_the_session_backend_contract() {
        let cluster = mem_cluster(2);
        let backend: Arc<dyn SessionBackend> = Arc::new(cluster);
        let (session, _) = session_and_target(1);
        let id = backend.create(&session).unwrap();
        assert!(matches!(backend.step(id), Ok(Step::AwaitFeedback(_))));
        assert_eq!(backend.resident_count(), 1);
        backend.park(id).unwrap();
        assert_eq!(backend.resident_count(), 0);
        assert_eq!(backend.parked_count().unwrap(), 1);
        assert!(backend.resume(id).unwrap());
        assert_eq!(backend.store_backend_name(), "mem");
        assert!(backend.fsck().unwrap().is_clean());
        let sweep = backend.park_all(None);
        assert!(sweep.is_complete());
        assert_eq!(sweep.parked, 1);
        assert!(backend.evict(id).unwrap());
        assert_eq!(backend.session_ids().unwrap(), Vec::new());
    }

    #[test]
    fn open_reserves_ids_parked_by_a_previous_generation() {
        let store: Arc<dyn SnapshotStore> = Arc::new(MemoryStore::new());
        let first = Cluster::open(Arc::clone(&store), ClusterConfig::with_shards(2)).unwrap();
        let (session, target) = session_and_target(2);
        let id = first.create(&session).unwrap();
        let _ = first.step(id).unwrap();
        first.park_all(None);
        drop(first);
        // A fresh fleet generation adopts the parked session lazily and
        // never reuses its id.
        let second = Cluster::open(Arc::clone(&store), ClusterConfig::with_shards(3)).unwrap();
        let (other, _) = session_and_target(0);
        let new_id = second.create(&other).unwrap();
        assert!(new_id.as_u64() > id.as_u64());
        assert_eq!(drive(&second, id, &target), target.label.clone().unwrap());
    }

    #[test]
    fn zero_shards_is_a_clean_error() {
        let err =
            Cluster::open(Arc::new(MemoryStore::new()), ClusterConfig::with_shards(0)).unwrap_err();
        assert!(matches!(err, QfeError::Store { .. }));
    }
}
