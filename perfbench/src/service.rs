//! `service-churn`: Example 1.1 sessions over real HTTP against an
//! in-process `qfe-server` serving a 2-shard `Cluster` on a `LogStore`.
//!
//! Two closed-loop keep-alive clients, one per core, each drive one session
//! at a time. Every answered round is followed by a park; a seeded half of
//! the parks get an explicit resume, the rest rely on rehydration at the
//! next step. The engine's share is one sub-millisecond round per session
//! (Example 1.1 splits its three candidates at once); the rest of request
//! time goes to HTTP, routing and locks, snapshot JSON, write-through
//! checkpoints and rehydrating reads.
//!
//! The traced run measures three phases of a third of the run each: the
//! same load untraced, then traced (client spans per verb, and store spans
//! from a recording wrapper around the store), then the same verbs called
//! through `SessionBackend` without HTTP. It ends with a traced replay of
//! Example 1.1 sessions through the engine layers.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use qfe_cluster::{Cluster, ClusterConfig};
use qfe_core::{FeedbackRound, FeedbackUser as _, OracleUser, QfeSession, SessionReport, Step};
use qfe_query::SpjQuery;
use qfe_server::{serve_backend, HttpClient, Server, ServerConfig};
use qfe_snapstore::{FsckReport, LogStore, SessionBackend, SnapshotStore, StoreResult};
use qfe_wire::{FromJson, Json};

use crate::rounds::{
    derive_seed, engine_layer_metrics, expected_rounds, replay_rounds, LayerCounts,
};
use crate::stats::{mean, median, percentile};
use crate::trace;
use crate::{Metric, RunResult, Tally};

/// Closed-loop clients: one per core of the 2-core reference host.
const CLIENTS: usize = 2;
const SHARDS: usize = 2;
/// Booting takes about 0.1 ms, so it is repeated and the median reported.
/// Set-up stops before the first create: timing the create too made the
/// median swing from 0.33 to 0.89 ms across ten runs on a 2-core VM,
/// against 0.13 to 0.18 ms for the boot alone.
const SETUP_REPEATS: usize = 101;
/// Example 1.1 sessions replayed through the engine layers in a traced run.
const REPLAY_SESSIONS: usize = 30;

/// Client span and metric of each HTTP verb the per-layer metrics report.
const HTTP_VERBS: [(&str, &str); 5] = [
    ("http.create", "http.create_ms"),
    ("http.step", "http.step_ms"),
    ("http.answer", "http.answer_ms"),
    ("http.park", "http.park_ms"),
    ("http.resume", "http.resume_ms"),
];

/// HTTP span, backend span and metric of each verb also called through
/// `SessionBackend`.
const BACKEND_VERBS: [(&str, &str, &str); 4] = [
    ("http.step", "backend.step", "backend.step_ms"),
    ("http.answer", "backend.answer", "backend.answer_ms"),
    ("http.park", "backend.park", "backend.park_ms"),
    ("http.resume", "backend.resume", "backend.resume_ms"),
];

/// Per-layer metrics of the service layers, all zero: the rounds workloads
/// never reach them.
pub fn unexercised_service_layers() -> Vec<Metric> {
    service_layer_metrics(&Default::default(), [0.0; 2], &StoreCounts::default(), 0, 0)
}

/// A store wrapper that, while tracing is on, records a span per session
/// read and write and counts calls and bytes.
#[derive(Debug)]
struct RecordingStore {
    inner: Arc<dyn SnapshotStore>,
    puts: AtomicU64,
    put_bytes: AtomicU64,
    gets: AtomicU64,
}

#[derive(Debug, Default, Clone, Copy)]
struct StoreCounts {
    puts: u64,
    put_bytes: u64,
    gets: u64,
}

impl RecordingStore {
    fn take_counts(&self) -> StoreCounts {
        StoreCounts {
            puts: self.puts.swap(0, Ordering::Relaxed),
            put_bytes: self.put_bytes.swap(0, Ordering::Relaxed),
            gets: self.gets.swap(0, Ordering::Relaxed),
        }
    }
}

/// The session id in a store key (`s<id>`), for span ownership.
fn key_owner(key: &str) -> Option<u64> {
    key.strip_prefix('s').and_then(|id| id.parse().ok())
}

impl SnapshotStore for RecordingStore {
    fn put_session(&self, key: &str, text: &str) -> StoreResult<()> {
        let _span = trace::span("store.put_session", key_owner(key));
        if trace::enabled() {
            self.puts.fetch_add(1, Ordering::Relaxed);
            self.put_bytes
                .fetch_add(text.len() as u64, Ordering::Relaxed);
        }
        self.inner.put_session(key, text)
    }

    fn get_session(&self, key: &str) -> StoreResult<Option<String>> {
        let _span = trace::span("store.get_session", key_owner(key));
        if trace::enabled() {
            self.gets.fetch_add(1, Ordering::Relaxed);
        }
        self.inner.get_session(key)
    }

    fn remove_session(&self, key: &str) -> StoreResult<bool> {
        self.inner.remove_session(key)
    }

    fn session_keys(&self) -> StoreResult<Vec<String>> {
        self.inner.session_keys()
    }

    fn put_workload(&self, hash: &str, text: &str) -> StoreResult<()> {
        self.inner.put_workload(hash, text)
    }

    fn get_workload(&self, hash: &str) -> StoreResult<Option<String>> {
        self.inner.get_workload(hash)
    }

    fn has_workload(&self, hash: &str) -> StoreResult<bool> {
        self.inner.has_workload(hash)
    }

    fn workload_hashes(&self) -> StoreResult<Vec<String>> {
        self.inner.workload_hashes()
    }

    fn backend_name(&self) -> &'static str {
        self.inner.backend_name()
    }

    fn fsck(&self) -> StoreResult<FsckReport> {
        self.inner.fsck()
    }
}

/// A booted service: store, cluster and HTTP server.
struct Fleet {
    server: Server,
    cluster: Arc<Cluster>,
    recording: Option<Arc<RecordingStore>>,
}

impl Fleet {
    fn boot(dir: &Path, traced: bool) -> Result<Fleet, String> {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let log: Arc<dyn SnapshotStore> = Arc::new(
            LogStore::open(dir.join("sessions.log")).map_err(|e| format!("log store: {e}"))?,
        );
        let (store, recording) = if traced {
            let recording = Arc::new(RecordingStore {
                inner: log,
                puts: AtomicU64::new(0),
                put_bytes: AtomicU64::new(0),
                gets: AtomicU64::new(0),
            });
            (
                Arc::clone(&recording) as Arc<dyn SnapshotStore>,
                Some(recording),
            )
        } else {
            (log, None)
        };
        let cluster = Arc::new(
            Cluster::open(store, ClusterConfig::with_shards(SHARDS))
                .map_err(|e| format!("cluster: {e}"))?,
        );
        let config = ServerConfig {
            workers: CLIENTS,
            ..ServerConfig::default()
        };
        let server = serve_backend(
            "127.0.0.1:0",
            Arc::clone(&cluster) as Arc<dyn SessionBackend>,
            config,
        )
        .map_err(|e| format!("server: {e}"))?;
        Ok(Fleet {
            server,
            cluster,
            recording,
        })
    }

    fn shutdown(mut self) {
        self.server.shutdown_graceful(Duration::from_secs(5));
    }
}

/// Session `k`'s target: the seed rotates the three Example 1.1 candidates,
/// so every run of three consecutive sessions covers each target once.
fn target(seed: u64, k: usize, candidates: &[SpjQuery]) -> SpjQuery {
    candidates[(k + (seed % 3) as usize) % candidates.len()].clone()
}

/// Whether the park after session `k`'s answer `round` gets an explicit
/// resume.
fn resume_explicitly(seed: u64, k: usize, round: usize) -> bool {
    derive_seed(seed, (k as u64) << 8 | round as u64) & 1 == 0
}

/// What one client saw.
#[derive(Default)]
struct ClientLog {
    tally: Tally,
    round_ms: Vec<f64>,
    /// `(session index, rounds, modification cost)` per completed session.
    sessions: Vec<(usize, usize, usize)>,
}

impl ClientLog {
    /// One timed HTTP request; a transport error or non-2xx reply fails it.
    fn call(
        &mut self,
        client: &mut HttpClient,
        span: &'static str,
        request: u64,
        send: impl FnOnce(&mut HttpClient) -> qfe_core::Result<(u16, Json)>,
    ) -> Option<Json> {
        let started = Instant::now();
        let reply = {
            let _span = trace::span(span, Some(request));
            send(client)
        };
        self.tally.request(started.elapsed());
        match reply {
            Ok((status, body)) if (200..300).contains(&status) => Some(body),
            Ok((status, body)) => {
                self.tally
                    .fail(format!("{span}: HTTP {status}: {}", body.render()));
                None
            }
            Err(e) => {
                self.tally.fail(format!("{span}: {e}"));
                None
            }
        }
    }

    /// Drives session `k` over HTTP to its oracle's target.
    fn http_session(
        &mut self,
        client: &mut HttpClient,
        candidates: &[SpjQuery],
        seed: u64,
        k: usize,
        requests: &AtomicU64,
    ) {
        let target = target(seed, k, candidates);
        let oracle = OracleUser::new(target.clone());
        let next = || requests.fetch_add(1, Ordering::Relaxed);
        let create = Json::object([("workload", Json::Str("example_1_1".into()))]);
        let Some(body) = self.call(client, "http.create", next(), |c| {
            c.post("/sessions", &create)
        }) else {
            return;
        };
        let Ok(id) = body.field("id").and_then(Json::as_i64) else {
            self.tally.fail("create: no id".into());
            return;
        };
        let mut answered = 0usize;
        loop {
            let started = Instant::now();
            let path = format!("/sessions/{id}/step");
            let Some(step) = self.call(client, "http.step", next(), |c| c.get(&path)) else {
                return;
            };
            let status = step.field("status").and_then(Json::as_str).unwrap_or("");
            if status == "done" {
                let label = step.field("label").and_then(Json::as_str).ok();
                self.tally.check(label == target.label.as_deref(), || {
                    format!("session {k} ended on {label:?}, not {:?}", target.label)
                });
                match step.field("report").and_then(SessionReport::from_json) {
                    Ok(report) => self.sessions.push((
                        k,
                        report.iterations(),
                        report.total_modification_cost(),
                    )),
                    Err(e) => self.tally.fail(format!("session {k}: report: {e}")),
                }
                break;
            }
            let elapsed = started.elapsed();
            let Some(choice) = step
                .field("round")
                .and_then(FeedbackRound::from_json)
                .ok()
                .and_then(|round| oracle.choose(&round))
            else {
                self.tally
                    .fail(format!("session {k}: no round or no oracle choice"));
                return;
            };
            self.round_ms.push(elapsed.as_secs_f64() * 1e3);
            let answer = Json::object([("choice", Json::Int(choice as i64))]);
            let path = format!("/sessions/{id}/answer");
            if self
                .call(client, "http.answer", next(), |c| c.post(&path, &answer))
                .is_none()
            {
                return;
            }
            answered += 1;
            let path = format!("/sessions/{id}/park");
            if self
                .call(client, "http.park", next(), |c| c.post(&path, &Json::Null))
                .is_none()
            {
                return;
            }
            if resume_explicitly(seed, k, answered) {
                let path = format!("/sessions/{id}/resume");
                if self
                    .call(client, "http.resume", next(), |c| {
                        c.post(&path, &Json::Null)
                    })
                    .is_none()
                {
                    return;
                }
            }
        }
        let path = format!("/sessions/{id}");
        self.call(client, "http.delete", next(), |c| c.delete(&path));
    }

    /// Drives session `k` through the backend's verbs, without HTTP.
    fn backend_session(&mut self, cluster: &Cluster, seed: u64, k: usize) {
        let (db, result, candidates, _) = qfe_datasets::example_1_1();
        let target = target(seed, k, &candidates);
        let oracle = OracleUser::new(target.clone());
        let outcome = (|| -> qfe_core::Result<bool> {
            let session = QfeSession::builder(db, result)
                .with_candidates(candidates)
                .build()?;
            let id = {
                let _span = trace::span("backend.create", Some(k as u64));
                cluster.create(&session)?
            };
            let mut answered = 0;
            loop {
                let step = {
                    let _span = trace::span("backend.step", Some(k as u64));
                    cluster.step(id)?
                };
                let round = match step {
                    Step::Done(outcome) => {
                        cluster.evict(id)?;
                        return Ok(outcome.query.label == target.label);
                    }
                    Step::AwaitFeedback(round) => round,
                };
                let Some(choice) = oracle.choose(&round) else {
                    return Ok(false);
                };
                {
                    let _span = trace::span("backend.answer", Some(k as u64));
                    cluster.answer(id, choice)?;
                }
                answered += 1;
                {
                    let _span = trace::span("backend.park", Some(k as u64));
                    cluster.park(id)?;
                }
                if resume_explicitly(seed, k, answered) {
                    let _span = trace::span("backend.resume", Some(k as u64));
                    cluster.resume(id)?;
                }
            }
        })();
        match outcome {
            Ok(reached) => self
                .tally
                .check(reached, || format!("backend session {k} missed its target")),
            Err(e) => {
                self.tally.request(Duration::ZERO);
                self.tally.fail(format!("backend session {k}: {e}"));
            }
        }
    }
}

/// Runs `CLIENTS` closed-loop HTTP clients until `until`; session indices
/// come from `next_session`.
fn http_load(
    addr: &str,
    seed: u64,
    until: Instant,
    next_session: &AtomicUsize,
    requests: &AtomicU64,
) -> Vec<ClientLog> {
    std::thread::scope(|scope| {
        let clients: Vec<_> = (0..CLIENTS)
            .map(|_| {
                scope.spawn(move || {
                    let mut client = HttpClient::new(addr.to_string());
                    let (_, _, candidates, _) = qfe_datasets::example_1_1();
                    let mut log = ClientLog::default();
                    while Instant::now() < until {
                        let k = next_session.fetch_add(1, Ordering::Relaxed);
                        log.http_session(&mut client, &candidates, seed, k, requests);
                    }
                    log
                })
            })
            .collect();
        clients
            .into_iter()
            .map(|c| c.join().expect("client thread panicked"))
            .collect()
    })
}

/// Merges client logs into one.
fn merge(logs: Vec<ClientLog>) -> ClientLog {
    let mut all = ClientLog::default();
    for log in logs {
        all.tally.absorb(log.tally);
        all.round_ms.extend(log.round_ms);
        all.sessions.extend(log.sessions);
    }
    all.sessions.sort_unstable();
    all
}

/// Mean rounds and modification cost per session over the longest prefix
/// of session indices made of whole target rotations, so a fixed seed gives
/// exact figures whatever the throughput.
fn effort_per_session(sessions: &[(usize, usize, usize)]) -> Result<(f64, f64), String> {
    let whole = sessions
        .iter()
        .enumerate()
        .take_while(|(i, s)| s.0 == *i)
        .count()
        / 3
        * 3;
    if whole == 0 {
        return Err("no whole rotation of sessions completed".into());
    }
    let (rounds, cost) = sessions[..whole]
        .iter()
        .fold((0, 0), |(r, c), s| (r + s.1, c + s.2));
    Ok((rounds as f64 / whole as f64, cost as f64 / whole as f64))
}

fn work_dir() -> PathBuf {
    crate::out_dir().join(format!("service-{}", std::process::id()))
}

pub fn run(seed: u64, seconds: u64, traced: bool) -> Result<RunResult, String> {
    let dir = work_dir();
    let result = run_in(&dir, seed, seconds, traced);
    let _ = std::fs::remove_dir_all(&dir);
    result
}

fn run_in(dir: &Path, seed: u64, seconds: u64, traced: bool) -> Result<RunResult, String> {
    let mut setup_s = Vec::new();
    let mut fleet = None;
    for i in 0..SETUP_REPEATS {
        if let Some(previous) = fleet.take() {
            Fleet::shutdown(previous);
        }
        let boot_dir = dir.join(format!("boot-{i}"));
        let started = Instant::now();
        fleet = Some(Fleet::boot(&boot_dir, traced)?);
        setup_s.push(started.elapsed().as_secs_f64());
    }
    let fleet = fleet.expect("set up at least once");
    let addr = fleet.server.local_addr().to_string();
    let next_session = AtomicUsize::new(0);
    let requests = AtomicU64::new(0);
    let run_for = Duration::from_secs(seconds);

    if !traced {
        let started = Instant::now();
        let log = merge(http_load(
            &addr,
            seed,
            started + run_for,
            &next_session,
            &requests,
        ));
        let elapsed = started.elapsed();
        fleet.shutdown();
        let (rounds, cost) = effort_per_session(&log.sessions)?;
        let metrics = vec![
            Metric::new(
                "sessions_per_s",
                log.sessions.len() as f64 / elapsed.as_secs_f64(),
                "1/s",
            ),
            Metric::new("round_p90_ms", percentile(&log.round_ms, 90.0)?, "ms"),
            Metric::new("rounds_per_session", rounds, "count"),
            Metric::new("modification_cost_per_session", cost, "count"),
            Metric::new("setup_s", median(&setup_s), "s"),
        ];
        eprintln!(
            "service-churn: {} sessions, {} requests in {:.2} s",
            log.sessions.len(),
            log.tally.request_ms.len(),
            elapsed.as_secs_f64()
        );
        return Ok(log.tally.finish(metrics, Vec::new()));
    }

    let phase = run_for / 3;
    let recording = fleet.recording.clone().expect("traced fleets record");
    // Phase 1: untraced load, for the tracing overhead.
    let started = Instant::now();
    let untraced = merge(http_load(
        &addr,
        seed,
        started + phase,
        &next_session,
        &requests,
    ));
    let untraced_rate = untraced.sessions.len() as f64 / started.elapsed().as_secs_f64();
    recording.take_counts();

    // Phase 2: the same load, traced.
    trace::set_enabled(true);
    let started = Instant::now();
    let mut log = merge(http_load(
        &addr,
        seed,
        started + phase,
        &next_session,
        &requests,
    ));
    let traced_rate = log.sessions.len() as f64 / started.elapsed().as_secs_f64();
    let http_sessions = log.sessions.len();
    let store_counts = recording.take_counts();
    let request_p50 = percentile(&log.tally.request_ms, 50.0)?;
    let request_p99 = percentile(&log.tally.request_ms, 99.0)?;
    log.tally.absorb(untraced.tally);

    // Phase 3: the same verbs through the backend, no HTTP.
    let started = Instant::now();
    let mut k = next_session.load(Ordering::Relaxed);
    while started.elapsed() < phase {
        log.backend_session(&fleet.cluster, seed, k);
        k += 1;
    }
    let workloads_stored = fleet
        .cluster
        .store()
        .workload_hashes()
        .map_err(|e| format!("workload hashes: {e}"))?
        .len();
    fleet.shutdown();

    // The engine layers under this workload's sessions.
    let (db, result, candidates, _) = qfe_datasets::example_1_1();
    let (db, result) = (Arc::new(db), Arc::new(result));
    let mut counts = LayerCounts::default();
    for k in 0..REPLAY_SESSIONS {
        let target = target(seed, k, &candidates);
        let engine_rounds = {
            let session = QfeSession::builder((*db).clone(), (*result).clone())
                .with_candidates(candidates.clone())
                .build()
                .map_err(|e| format!("example session: {e}"))?;
            let mut engine = session.start();
            let oracle = OracleUser::new(target.clone());
            let mut rounds = Vec::new();
            loop {
                match engine.step().map_err(|e| format!("example session: {e}"))? {
                    Step::Done(_) => break,
                    Step::AwaitFeedback(round) => {
                        let choice = oracle
                            .choose(&round)
                            .ok_or("example session: no oracle choice")?;
                        engine
                            .answer(choice)
                            .map_err(|e| format!("example session: {e}"))?;
                        rounds.push(round);
                    }
                }
            }
            rounds
        };
        let replayed = {
            let _session = trace::span("session", Some(k as u64));
            replay_rounds(&db, &result, candidates.clone(), Some(&target), &mut counts)
        };
        log.tally.check(
            replayed.as_ref().ok() == Some(&expected_rounds(&engine_rounds)),
            || format!("example session {k}: traced replay differs from the engine"),
        );
    }

    let spans = trace::take();
    let layers = trace::layer_times(&spans);
    let mut metrics = engine_layer_metrics(&counts, REPLAY_SESSIONS, &layers);
    metrics.extend(service_layer_metrics(
        &layers,
        [request_p50, request_p99],
        &store_counts,
        http_sessions,
        workloads_stored,
    ));
    metrics.push(Metric::new(
        "trace.overhead_pct",
        (untraced_rate / traced_rate.max(1e-9) - 1.0) * 100.0,
        "%",
    ));
    eprintln!(
        "service-churn traced: {untraced_rate:.1} sessions/s untraced, {traced_rate:.1} traced"
    );
    Ok(log.tally.finish(metrics, spans))
}

/// The `qfe-server`, `qfe-cluster` and `qfe-snapstore` per-layer metrics.
/// Times are means per call except the client-observed request percentiles;
/// store counts are per HTTP session.
fn service_layer_metrics(
    layers: &std::collections::BTreeMap<&'static str, trace::LayerTime>,
    [request_p50, request_p99]: [f64; 2],
    store: &StoreCounts,
    http_sessions: usize,
    workloads_stored: usize,
) -> Vec<Metric> {
    let get = |name: &str| layers.get(name).copied().unwrap_or_default();
    let mut metrics: Vec<Metric> = HTTP_VERBS
        .iter()
        .map(|&(span, metric)| Metric::new(metric, get(span).mean_ms(), "ms"))
        .collect();
    // HTTP time above the backend's for the verbs both phases call, per
    // HTTP request.
    let (mut above, mut calls) = (0.0, 0usize);
    for &(http_span, span, metric) in &BACKEND_VERBS {
        let (http, backend) = (get(http_span), get(span));
        metrics.push(Metric::new(metric, backend.mean_ms(), "ms"));
        if backend.calls > 0 {
            above += http.total_ms() - backend.mean_ms() * http.calls as f64;
            calls += http.calls;
        }
    }
    let per_session = |n: u64| mean(n as f64, http_sessions);
    metrics.extend([
        Metric::new("http.overhead_ms", mean(above, calls), "ms"),
        Metric::new("http.request_p50_ms", request_p50, "ms"),
        Metric::new("http.request_p99_ms", request_p99, "ms"),
        Metric::new(
            "store.put_session_ms",
            get("store.put_session").mean_ms(),
            "ms",
        ),
        Metric::new(
            "store.get_session_ms",
            get("store.get_session").mean_ms(),
            "ms",
        ),
        Metric::new(
            "store.put_session_bytes",
            mean(store.put_bytes as f64, store.puts as usize),
            "bytes",
        ),
        Metric::new(
            "store.bytes_per_session",
            per_session(store.put_bytes),
            "bytes",
        ),
        Metric::new("store.puts_per_session", per_session(store.puts), "count"),
        Metric::new("store.gets_per_session", per_session(store.gets), "count"),
        Metric::new("store.workloads_stored", workloads_stored as f64, "count"),
    ]);
    metrics
}
