//! The simulated-user fleet: many concurrent oracle-answered Example 1.1
//! sessions driven over real HTTP against an in-process `qfe-server`, with
//! a park after every answered round (half followed by an explicit resume,
//! half rehydrated by the next step), in one of three scenarios:
//!
//! * [`Scenario::Service`] — fault-free single host over a log-file store,
//!   measuring what an operator would: sessions per second, round latency
//!   percentiles, and bytes per park with and without content-addressed
//!   workload sharing. The run is strict: any non-2xx reply, or a request
//!   the client had to resend, loses the session.
//! * [`Scenario::Chaos`] — the same host over a [`FaultyStore`] (I/O
//!   errors, one torn write, latency) behind a [`FlakyHandler`] (dropped,
//!   duplicated and delayed responses). Clients retry with idempotency keys
//!   and the fleet repeats `5xx` outcomes, which are refused before any
//!   durable effect; a `409` on a mutation would be a replay that
//!   re-executed and is counted as a duplicate effect, never retried.
//! * [`Scenario::Cluster`] — the chaos setup over a sharded [`Cluster`] on
//!   one shared store. Before any client starts, the heartbeat supervisor
//!   declares the shard sickened by scripted probe faults dead. Then chaos
//!   runs on a logical clock: every third answered round fleet-wide, the
//!   answering client migrates its own session to a seeded other shard,
//!   kills the shard now hosting it, fails that shard over and restarts it. With one client the whole schedule, and every counter in
//!   the report, replays exactly.
//!
//! The cluster's fault plan injects no torn writes: the cluster absorbs
//! failed write-through checkpoints by design, so a torn record's survival
//! would hinge on kill timing rather than on the migration and failover
//! protocols under test. Torn-write recovery is the chaos scenario's job.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use qfe_cluster::{Cluster, ClusterConfig};
use qfe_core::{FeedbackRound, FeedbackUser as _, OracleUser, SessionId};
use qfe_server::{
    FlakyConfig, FlakyHandler, Handler, HttpClient, RetryPolicy, Server, ServerConfig, ServiceState,
};
use qfe_snapstore::{
    FaultAction, FaultPlan, FaultRule, FaultTrigger, FaultyStore, HostConfig, LogStore,
    SessionBackend, SessionHost, SnapshotStore,
};
use qfe_wire::{FromJson, Json};

/// Answered rounds, fleet-wide, between two chaos moves of the cluster
/// scenario.
const CHAOS_EVERY: usize = 3;

/// Which fleet to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scenario {
    /// Fault-free single host; writes `BENCH_service.json`.
    Service,
    /// Single host under store and response faults; writes
    /// `BENCH_chaos.json`.
    Chaos,
    /// A fleet of `shards` hosts (at least 2) under store and response
    /// faults and chaos moves; writes `BENCH_cluster.json`.
    Cluster {
        /// Shards in the fleet.
        shards: usize,
    },
}

impl Scenario {
    /// The artifact's `benchmark` and `workload` names.
    fn names(self) -> (&'static str, &'static str) {
        match self {
            Scenario::Service => ("service-fleet", "example-1-1-over-http-log-store"),
            Scenario::Chaos => ("chaos-fleet", "example-1-1-over-http-faulty-log-store"),
            Scenario::Cluster { .. } => (
                "cluster-chaos",
                "example-1-1-over-http-sharded-faulty-log-store",
            ),
        }
    }
}

/// Shape of a fleet run. Each client keeps one keep-alive connection and the
/// server runs one worker per client.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// What to run.
    pub scenario: Scenario,
    /// Total sessions driven to completion.
    pub sessions: usize,
    /// Concurrent client threads.
    pub clients: usize,
    /// Resident-engine watermark, per shard when clustered.
    pub max_resident: usize,
    /// Seed pinned across the fault plan, the response chaos, the client
    /// jitter streams and the chaos moves' targets.
    pub seed: u64,
}

impl FleetConfig {
    /// The scenario's default run, as `experiments` uses it.
    pub fn new(scenario: Scenario) -> FleetConfig {
        let (sessions, clients, max_resident, seed) = match scenario {
            Scenario::Service => (64, 8, 16, 0),
            Scenario::Chaos => (32, 4, 4, 0xC4A05),
            Scenario::Cluster { .. } => (24, 4, 2, 0xC1_05_7E),
        };
        FleetConfig {
            scenario,
            sessions,
            clients,
            max_resident,
            seed,
        }
    }
}

/// What a fleet run measured. The two zeros every scenario exists to prove
/// are [`lost_sessions`](FleetReport::lost_sessions) and
/// [`duplicate_effects`](FleetReport::duplicate_effects).
#[derive(Debug, Clone, Default)]
pub struct FleetReport {
    /// Sessions that converged to their oracle's query.
    pub completed: usize,
    /// Sessions that failed a verb or converged wrongly. Must be 0.
    pub lost_sessions: usize,
    /// `409` replies to idempotent mutations. Must be 0.
    pub duplicate_effects: usize,
    /// Feedback rounds answered across all sessions.
    pub rounds: usize,
    /// Parks performed by the churn schedule.
    pub parks: usize,
    /// Step + answer round-trip latencies, milliseconds, ascending.
    pub round_latencies_ms: Vec<f64>,
    /// State-document bytes written by the parks.
    pub park_state_bytes: u64,
    /// Workload-payload bytes the parks would have written without content
    /// addressing.
    pub park_workload_bytes: u64,
    /// Distinct workload payloads the store ended up holding.
    pub workloads_stored: usize,
    /// Faults the store injected.
    pub store_faults: usize,
    /// Responses the chaos middleware dropped after executing the request.
    pub responses_dropped: usize,
    /// Requests the chaos middleware handled twice.
    pub requests_duplicated: usize,
    /// Requests the chaos middleware delayed.
    pub requests_delayed: usize,
    /// Transport-level resends by the clients.
    pub client_retries: usize,
    /// Fleet-level repeats of `5xx` outcomes.
    pub app_retries: usize,
    /// Mutations the server answered from its idempotency cache.
    pub idem_replays: usize,
    /// Shards killed by chaos moves.
    pub kills: usize,
    /// Shards the heartbeat supervisor declared dead.
    pub supervisor_kills: usize,
    /// Down shards brought back.
    pub restarts: usize,
    /// Live migrations the chaos moves requested.
    pub migration_requests: usize,
    /// Migrations the cluster completed.
    pub migrations: usize,
    /// Sessions re-homed off dead shards.
    pub failovers: usize,
    /// Write-through checkpoints that landed.
    pub checkpoints: usize,
    /// Checkpoints the faulty store refused.
    pub checkpoint_failures: usize,
    /// Wall-clock time for the whole fleet.
    pub elapsed: Duration,
}

impl FleetReport {
    /// The scenario's schedule-determined counters, in artifact order —
    /// everything but timings and byte sizes.
    pub fn counters(&self, scenario: Scenario) -> Vec<(&'static str, usize)> {
        let mut counters = vec![
            ("completed", self.completed),
            ("lost_sessions", self.lost_sessions),
            ("rounds", self.rounds),
            ("parks", self.parks),
        ];
        if scenario == Scenario::Service {
            return counters;
        }
        let duplicates = match scenario {
            Scenario::Chaos => "duplicate_answer_effects",
            _ => "duplicate_effects",
        };
        counters.extend([
            (duplicates, self.duplicate_effects),
            ("store_faults", self.store_faults),
            ("responses_dropped", self.responses_dropped),
            ("requests_duplicated", self.requests_duplicated),
            ("requests_delayed", self.requests_delayed),
            ("client_retries", self.client_retries),
            ("app_retries", self.app_retries),
            ("idem_replays", self.idem_replays),
        ]);
        if let Scenario::Cluster { .. } = scenario {
            counters.extend([
                ("kills", self.kills),
                ("supervisor_kills", self.supervisor_kills),
                ("restarts", self.restarts),
                ("migration_requests", self.migration_requests),
                ("migrations", self.migrations),
                ("failovers", self.failovers),
                ("checkpoints", self.checkpoints),
                ("checkpoint_failures", self.checkpoint_failures),
            ]);
        }
        counters
    }
}

fn percentile(sorted_ms: &[f64], p: f64) -> f64 {
    if sorted_ms.is_empty() {
        return 0.0;
    }
    let idx = ((p / 100.0) * (sorted_ms.len() - 1) as f64).round() as usize;
    sorted_ms[idx.min(sorted_ms.len() - 1)]
}

fn rule(op: &str, trigger: FaultTrigger, action: FaultAction) -> FaultRule {
    FaultRule {
        op: op.to_string(),
        key_contains: None,
        trigger,
        action,
        limit: None,
    }
}

/// The pinned fault script of a faulty scenario, `None` for the fault-free
/// one. Chaos: periodic write errors, one torn session write and read
/// latency. Cluster: periodic atomic write refusals (birth checkpoints,
/// write-through checkpoints and parks alike), read latency, and exactly
/// enough consecutive heartbeat-probe failures on shard 1 to cross the
/// supervisor's threshold once.
pub fn fault_plan(config: &FleetConfig) -> Option<FaultPlan> {
    use FaultAction::{Error, Latency};
    use FaultTrigger::EveryNth;
    let latency = Latency { millis: 1 };
    let plan = FaultPlan::new(config.seed);
    Some(match config.scenario {
        Scenario::Service => return None,
        Scenario::Chaos => plan
            .with_rule(rule("put_session", EveryNth(5), Error))
            .with_rule(FaultRule {
                limit: Some(1),
                ..rule(
                    "put_session",
                    FaultTrigger::Nth(3),
                    FaultAction::Torn { keep: 0.5 },
                )
            })
            .with_rule(rule("get_session", EveryNth(7), latency.clone()))
            .with_rule(rule("get_workload", EveryNth(4), latency)),
        Scenario::Cluster { .. } => plan
            .with_rule(rule("put_session", EveryNth(9), Error))
            .with_rule(rule("get_session", EveryNth(11), latency.clone()))
            .with_rule(rule("get_workload", EveryNth(5), latency))
            .with_rule(FaultRule {
                key_contains: Some("hb-1".to_string()),
                limit: Some(u64::from(ClusterConfig::default().probe_failure_threshold)),
                ..rule("get_session", EveryNth(1), Error)
            }),
    })
}

/// What the client threads share.
struct Fleet<'a> {
    config: &'a FleetConfig,
    addr: String,
    cluster: Option<&'a Cluster>,
    /// The chaos clock: rounds answered fleet-wide.
    answered: AtomicUsize,
    report: Mutex<FleetReport>,
}

impl Fleet<'_> {
    fn tally(&self) -> MutexGuard<'_, FleetReport> {
        self.report.lock().expect("fleet tally poisoned")
    }

    /// One client thread: one keep-alive connection driving every
    /// `clients`-th session from `first`.
    fn run_client(&self, first: usize, clients: usize) {
        let mut http = match self.config.scenario {
            Scenario::Service => HttpClient::new(&self.addr),
            _ => HttpClient::with_retry(
                &self.addr,
                RetryPolicy {
                    max_retries: 12,
                    base_delay: Duration::from_millis(2),
                    max_delay: Duration::from_millis(20),
                    budget: Duration::from_secs(10),
                    seed: self.config.seed ^ (first as u64).wrapping_mul(0x9E37),
                },
            ),
        };
        for index in (first..self.config.sessions).step_by(clients) {
            let converged = self.run_session(&mut http, index) == Some(true);
            let mut tally = self.tally();
            match converged {
                true => tally.completed += 1,
                false => tally.lost_sessions += 1,
            }
        }
        self.tally().client_retries += http.retries();
    }

    /// Sends one request and returns its body when the reply status is
    /// `expect`. Under faults a `5xx` or transport failure was refused
    /// before any durable effect, so it is repeated; fault-free runs are
    /// strict and repeat nothing, and a reply the client had to resend
    /// counts as a failure.
    fn send(
        &self,
        http: &mut HttpClient,
        expect: u16,
        request: impl Fn(&mut HttpClient) -> qfe_core::Result<(u16, Json)>,
    ) -> Option<Json> {
        let strict = self.config.scenario == Scenario::Service;
        let resends = http.retries();
        let mut reply = request(http).unwrap_or((0, Json::Null));
        for _ in 0..12 {
            if strict || (reply.0 != 0 && reply.0 < 500) {
                break;
            }
            self.tally().app_retries += 1;
            std::thread::sleep(Duration::from_millis(2));
            reply = request(http).unwrap_or((0, Json::Null));
        }
        if reply.0 == 409 {
            self.tally().duplicate_effects += 1;
        }
        let resent = strict && http.retries() > resends;
        (reply.0 == expect && !resent).then_some(reply.1)
    }

    /// Drives session `index` to completion: `Some(true)` when it converged
    /// on its oracle's query, `None` when a verb failed.
    fn run_session(&self, http: &mut HttpClient, index: usize) -> Option<bool> {
        let (_, _, candidates, _) = qfe_datasets::example_1_1();
        let target = candidates[index % candidates.len()].clone();
        let oracle = OracleUser::new(target.clone());
        let workload = Json::object([("workload", Json::Str("example_1_1".to_string()))]);
        let created = self.send(http, 201, |c| c.post("/sessions", &workload))?;
        let id = created.field("id").ok()?.as_i64().ok()?;
        let path = |verb: &str| format!("/sessions/{id}/{verb}");
        for _ in 0..100 {
            let round_start = Instant::now();
            let step = self.send(http, 200, |c| c.get(&path("step")))?;
            if step.field("status").ok()?.as_str().ok()? == "done" {
                let label = step.field("label").ok()?.as_str().ok();
                self.send(http, 200, |c| c.delete(&format!("/sessions/{id}")))?;
                return Some(label == target.label.as_deref());
            }
            let round = FeedbackRound::from_json(step.field("round").ok()?).ok()?;
            let choice = Json::object([("choice", Json::Int(oracle.choose(&round)? as i64))]);
            self.send(http, 200, |c| c.post_idempotent(&path("answer"), &choice))?;
            let latency_ms = round_start.elapsed().as_secs_f64() * 1000.0;
            self.tally().round_latencies_ms.push(latency_ms);
            self.chaos_tick(SessionId::from_u64(id as u64));

            let no_fields = Json::object::<String, [(String, Json); 0]>([]);
            let receipt = self.send(http, 200, |c| c.post_idempotent(&path("park"), &no_fields))?;
            let bytes = |field: &str| receipt.field(field).and_then(Json::as_i64).unwrap_or(0);
            let parks = {
                let mut tally = self.tally();
                tally.park_state_bytes += bytes("state_bytes") as u64;
                tally.park_workload_bytes += bytes("workload_bytes") as u64;
                tally.parks += 1;
                tally.parks
            };
            if parks.is_multiple_of(2) {
                self.send(http, 200, |c| c.post(&path("resume"), &Json::Null))?;
            } // else: the next step rehydrates transparently
        }
        None
    }

    /// Advances the chaos clock after an answered round; on every
    /// `CHAOS_EVERY`-th tick, moves the answering session and crashes the
    /// shard that receives it.
    fn chaos_tick(&self, id: SessionId) {
        let tick = self.answered.fetch_add(1, Ordering::SeqCst) + 1;
        let Some(cluster) = self.cluster else {
            return;
        };
        if !tick.is_multiple_of(CHAOS_EVERY) {
            return;
        }
        let shards = cluster.shard_count();
        let from = cluster.router().shard_of(id).unwrap_or(0);
        let hop = (self.config.seed ^ tick as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 33;
        // A refused park leaves the session where it was; it is crashed
        // there instead.
        let _ = cluster.migrate(id, (from + 1 + hop as usize % (shards - 1)) % shards);
        let victim = cluster.router().shard_of(id).unwrap_or(from);
        let killed = cluster.kill_shard(victim).is_ok();
        let _ = cluster.fail_over(victim);
        let restarted = cluster.restart_shard(victim).unwrap_or(false);
        let mut tally = self.tally();
        tally.migration_requests += 1;
        tally.kills += usize::from(killed);
        tally.restarts += usize::from(restarted);
    }
}

/// The heartbeat phase: one tick per scripted probe failure plus one to see
/// the sick shard down, then every down shard restarts. Returns
/// `(supervisor kills, restarts)`.
fn heartbeat_phase(cluster: &Cluster) -> (usize, usize) {
    let mut declared = 0;
    for _ in 0..=ClusterConfig::default().probe_failure_threshold {
        declared += cluster
            .heartbeat_tick()
            .iter()
            .filter(|health| health.declared_dead)
            .count();
    }
    let restarts = (0..cluster.shard_count())
        .filter(|&index| cluster.restart_shard(index).unwrap_or(false))
        .count();
    (declared, restarts)
}

/// Runs one fleet: boots the scenario's service on an ephemeral port over a
/// log-file store in a fresh temp directory, drives `config.sessions`
/// sessions from `config.clients` threads, and reports.
pub fn run_fleet(config: &FleetConfig) -> FleetReport {
    static RUN: AtomicU64 = AtomicU64::new(0);
    let run = RUN.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("qfe-fleet-{}-{run}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let log: Arc<dyn SnapshotStore> =
        Arc::new(LogStore::open(dir.join("fleet.log")).expect("log store opens"));
    let faulty = fault_plan(config).map(|plan| Arc::new(FaultyStore::new(Arc::clone(&log), plan)));
    let store = match &faulty {
        Some(faulty) => Arc::clone(faulty) as Arc<dyn SnapshotStore>,
        None => Arc::clone(&log),
    };
    let cluster = match config.scenario {
        Scenario::Cluster { shards } => {
            let shards = shards.max(2);
            let cluster_config = ClusterConfig {
                max_resident_per_shard: Some(config.max_resident),
                ..ClusterConfig::with_shards(shards)
            };
            Some(Arc::new(
                Cluster::open(Arc::clone(&store), cluster_config).expect("cluster opens"),
            ))
        }
        _ => None,
    };
    let backend: Arc<dyn SessionBackend> = match &cluster {
        Some(cluster) => Arc::clone(cluster) as Arc<dyn SessionBackend>,
        None => {
            let host_config = HostConfig::with_max_resident(config.max_resident);
            Arc::new(SessionHost::open(store, host_config).expect("session host opens"))
        }
    };
    let state = Arc::new(ServiceState::from_backend(backend));
    let flaky = faulty.as_ref().map(|_| {
        let chaos = FlakyConfig {
            seed: config.seed,
            drop_response: 0.25,
            duplicate: 0.15,
            delay: 0.1,
            delay_millis: 2,
            ..FlakyConfig::default()
        };
        Arc::new(FlakyHandler::new(
            Arc::clone(&state) as Arc<dyn Handler>,
            chaos,
        ))
    });
    let handler = match &flaky {
        Some(flaky) => Arc::clone(flaky) as Arc<dyn Handler>,
        None => Arc::clone(&state) as Arc<dyn Handler>,
    };
    let clients = config.clients.max(1);
    let workers = ServerConfig {
        workers: clients,
        ..ServerConfig::default()
    };
    let server = Server::bind("127.0.0.1:0", handler, workers).expect("server binds a port");

    let start = Instant::now();
    let fleet = Fleet {
        config,
        addr: server.local_addr().to_string(),
        cluster: cluster.as_deref(),
        answered: AtomicUsize::new(0),
        report: Mutex::new(FleetReport::default()),
    };
    if let Some(cluster) = fleet.cluster {
        let mut tally = fleet.tally();
        (tally.supervisor_kills, tally.restarts) = heartbeat_phase(cluster);
    }
    std::thread::scope(|scope| {
        for first in 0..clients {
            let fleet = &fleet;
            scope.spawn(move || fleet.run_client(first, clients));
        }
    });
    let mut report = fleet.report.into_inner().expect("fleet tally poisoned");
    report.elapsed = start.elapsed();
    report.rounds = report.round_latencies_ms.len();
    report
        .round_latencies_ms
        .sort_by(|a, b| a.partial_cmp(b).expect("latencies are finite"));
    report.workloads_stored = log.workload_hashes().expect("store lists workloads").len();
    report.store_faults = faulty.as_ref().map_or(0, |f| f.injection_count());
    if let Some(flaky) = &flaky {
        report.responses_dropped = flaky.dropped();
        report.requests_duplicated = flaky.duplicated();
        report.requests_delayed = flaky.delayed();
    }
    report.idem_replays = state.idem_replays();
    if let Some(cluster) = &cluster {
        let status = cluster.status();
        report.migrations = status.migrations as usize;
        report.failovers = status.failovers as usize;
        report.checkpoints = status.checkpoints as usize;
        report.checkpoint_failures = status.checkpoint_failures as usize;
    }
    drop(server);
    let _ = std::fs::remove_dir_all(&dir);
    report
}

/// The commit of the working directory's git checkout, or `None` outside one.
fn commit() -> Option<String> {
    let out = std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// The `BENCH_*.json` document of a run: the host it ran on, the scenario's
/// counters and timings, and for the faulty scenarios the exact fault plan,
/// so a failing run replays from the artifact alone. CI greps it for
/// `"lost_sessions": 0` and the scenario's duplicate-effects zero.
pub fn fleet_json(config: &FleetConfig, report: &FleetReport) -> String {
    let (benchmark, workload) = config.scenario.names();
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut fields: Vec<(&str, String)> = vec![
        ("benchmark", format!("\"{benchmark}\"")),
        ("workload", format!("\"{workload}\"")),
        ("available_parallelism", cores.to_string()),
        (
            "commit",
            commit().map_or("null".to_string(), |c| format!("\"{c}\"")),
        ),
        ("sessions", config.sessions.to_string()),
        ("clients", config.clients.to_string()),
    ];
    match config.scenario {
        Scenario::Service => fields.extend([
            ("park_every", "1".to_string()),
            ("max_resident", config.max_resident.to_string()),
        ]),
        Scenario::Chaos => fields.push(("seed", config.seed.to_string())),
        Scenario::Cluster { shards } => fields.extend([
            ("seed", config.seed.to_string()),
            ("shards", shards.max(2).to_string()),
        ]),
    }
    fields.extend(
        report
            .counters(config.scenario)
            .into_iter()
            .map(|(key, n)| (key, n.to_string())),
    );
    if config.scenario == Scenario::Service {
        let per_park = |bytes: u64| format!("{:.0}", bytes as f64 / (report.parks as f64).max(1.0));
        let round_ms = |p: f64| format!("{:.3}", percentile(&report.round_latencies_ms, p));
        let seconds = report.elapsed.as_secs_f64().max(1e-9);
        fields.extend([
            (
                "sessions_per_sec",
                format!("{:.1}", report.completed as f64 / seconds),
            ),
            ("p50_round_ms", round_ms(50.0)),
            ("p99_round_ms", round_ms(99.0)),
            (
                "parked_bytes_per_session_with_content_addressing",
                per_park(report.park_state_bytes),
            ),
            (
                "parked_bytes_per_session_without_content_addressing",
                per_park(report.park_state_bytes + report.park_workload_bytes),
            ),
            ("workloads_stored", report.workloads_stored.to_string()),
        ]);
    }
    fields.push((
        "elapsed_seconds",
        format!("{:.6}", report.elapsed.as_secs_f64()),
    ));
    if let Some(plan) = fault_plan(config) {
        fields.push(("fault_plan", plan.serialize()));
    }
    let lines: Vec<String> = fields
        .iter()
        .map(|(key, value)| format!("  \"{key}\": {value}"))
        .collect();
    format!("{{\n{}\n}}\n", lines.join(",\n"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small(scenario: Scenario, sessions: usize, clients: usize) -> FleetConfig {
        FleetConfig {
            sessions,
            clients,
            ..FleetConfig::new(scenario)
        }
    }

    #[test]
    fn small_fleet_completes_with_sharing() {
        // Watermark below the client count: the host parks sessions other
        // clients are about to use, and the strict run must still lose
        // nothing.
        let config = FleetConfig {
            max_resident: 2,
            ..small(Scenario::Service, 6, 3)
        };
        let report = run_fleet(&config);
        assert_eq!(report.lost_sessions, 0);
        assert_eq!(report.completed, 6);
        assert!(report.rounds >= 6, "every session answers at least once");
        assert!(report.parks > 0);
        // Content addressing: many sessions, one stored workload, and the
        // per-park write cost excludes the workload bytes.
        assert_eq!(report.workloads_stored, 1);
        assert!(report.park_workload_bytes > 0);
        let json = fleet_json(&config, &report);
        assert!(json.contains("\"benchmark\": \"service-fleet\""));
        assert!(json.contains("parked_bytes_per_session_with_content_addressing"));
        assert!(json.contains("\"available_parallelism\": "));
        assert!(json.contains("\"commit\": "));
        assert!(Json::parse(&json).is_ok());
    }

    #[test]
    fn chaos_fleet_loses_nothing_and_duplicates_nothing() {
        let config = small(Scenario::Chaos, 6, 2);
        let report = run_fleet(&config);
        assert_eq!(report.completed, 6, "every session converges correctly");
        assert_eq!(report.lost_sessions, 0);
        assert_eq!(report.duplicate_effects, 0);
        assert!(report.parks > 0);
        // The chaos actually bit: faults were injected at at least one
        // layer and the resilience machinery engaged.
        assert!(
            report.store_faults + report.responses_dropped + report.requests_duplicated > 0,
            "pinned schedule injected nothing"
        );
        let json = fleet_json(&config, &report);
        assert!(json.contains("\"benchmark\": \"chaos-fleet\""));
        assert!(json.contains("\"lost_sessions\": 0"));
        assert!(json.contains("\"duplicate_answer_effects\": 0"));
        assert!(json.contains("\"fault_plan\""));
    }

    #[test]
    fn cluster_chaos_loses_nothing_and_duplicates_nothing() {
        let config = small(Scenario::Cluster { shards: 3 }, 6, 2);
        let report = run_fleet(&config);
        assert_eq!(report.completed, 6, "every session converges correctly");
        assert_eq!(report.lost_sessions, 0);
        assert_eq!(report.duplicate_effects, 0);
        assert!(report.kills >= 2, "the chaos clock crashed shards");
        assert!(
            report.supervisor_kills >= 1,
            "the scripted probe faults crossed the heartbeat threshold"
        );
        assert!(report.restarts >= report.kills, "down shards came back");
        assert!(
            report.failovers + report.migrations > 0,
            "sessions actually moved between shards"
        );
        assert!(report.checkpoints > 0, "write-through checkpoints landed");
        let json = fleet_json(&config, &report);
        assert!(json.contains("\"benchmark\": \"cluster-chaos\""));
        assert!(json.contains("\"lost_sessions\": 0"));
        assert!(json.contains("\"duplicate_effects\": 0"));
        assert!(json.contains("\"fault_plan\""));
    }

    #[test]
    fn one_client_cluster_chaos_replays_every_counter() {
        let scenario = Scenario::Cluster { shards: 3 };
        let config = small(scenario, 6, 1);
        let first = run_fleet(&config);
        let second = run_fleet(&config);
        assert_eq!(first.lost_sessions, 0);
        assert!(first.kills > 0 && first.store_faults > 0);
        assert_eq!(first.counters(scenario), second.counters(scenario));
    }

    #[test]
    fn fault_plan_is_pinned_and_serializable() {
        assert!(fault_plan(&FleetConfig::new(Scenario::Service)).is_none());
        let plan = fault_plan(&FleetConfig::new(Scenario::Chaos)).expect("faulty scenario");
        assert_eq!(FaultPlan::parse(&plan.serialize()).unwrap(), plan);
    }

    #[test]
    fn cluster_fault_plan_is_pinned_and_serializable() {
        let config = FleetConfig::new(Scenario::Cluster { shards: 4 });
        let plan = fault_plan(&config).expect("faulty scenario");
        assert_eq!(FaultPlan::parse(&plan.serialize()).unwrap(), plan);
    }

    #[test]
    fn percentile_handles_edges() {
        assert_eq!(percentile(&[], 50.0), 0.0);
        assert_eq!(percentile(&[5.0], 99.0), 5.0);
        let xs = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&xs, 0.0), 1.0);
        assert_eq!(percentile(&xs, 100.0), 4.0);
    }
}
