//! # QFE — Query From Examples
//!
//! Umbrella crate for the reproduction of *"Query From Examples: An Iterative,
//! Data-Driven Approach to Query Construction"* (Li, Chan, Maier — PVLDB 8(13),
//! 2015).
//!
//! This crate simply re-exports the workspace crates so that downstream users
//! (and the repository's `examples/` and `tests/`) can depend on a single
//! `qfe` crate:
//!
//! * [`relation`] — the in-memory relational substrate (tables, foreign keys,
//!   joins, table edit distance), including the columnar evaluation layer
//!   ([`ColumnarJoin`](relation::ColumnarJoin) +
//!   [`Bitmap`](relation::Bitmap)): typed column vectors, dictionary-coded
//!   strings and null bitmaps mirroring a join.
//! * [`query`] — select-project-join queries, evaluation and SQL text. Hot
//!   many-queries-one-join paths evaluate vectorized: each atomic term
//!   compiles to a selection bitmap served from a shared
//!   [`TermBitmapCache`](query::TermBitmapCache), and candidates are
//!   assembled by bitmap AND/OR instead of row walks.
//! * [`qbo`] — the candidate-query generator (reverse engineering from a
//!   database-result pair). Its generate-and-verify pass and the constant
//!   mutation frontier are batched through one columnar mirror per join
//!   ([`BatchVerifier`](qbo::BatchVerifier)), deduplicating verdicts by
//!   projection-bitmap signature.
//! * [`core`] — the paper's contribution: tuple classes, the user-effort cost
//!   model, Algorithms 1–4 and the interactive feedback driver.
//! * [`datasets`] — seeded synthetic versions of the paper's evaluation
//!   datasets and queries Q1–Q6.
//! * [`snapstore`] — snapshot stores for parked sessions (in-memory, and
//!   the durable append-only log file), with the example pair
//!   `(D, R)` stored once per workload under a content hash, and the
//!   [`SessionHost`](snapstore::SessionHost) that parks idle engines under a
//!   memory watermark and rehydrates them on demand.
//! * [`server`] — a dependency-free HTTP/1.1 frontend exposing sessions as
//!   JSON endpoints, plus the matching client.
//! * [`cluster`] — the sharded session fleet: a
//!   [`ShardRouter`](cluster::ShardRouter) hashing sessions across N
//!   [`SessionHost`](snapstore::SessionHost) shards that share one snapshot
//!   store, with live migration, shard failover, heartbeat supervision and
//!   graceful drain — behind the same
//!   [`SessionBackend`](snapstore::SessionBackend) interface the server
//!   serves, so the HTTP surface is identical at any shard count.
//!
//! The columnar mirror of a join is built **once per join** — when a
//! `GenerationContext` is constructed and when a QBO verification pass
//! starts — and is only rebuilt when the join itself is (different join
//! schema, or a key-column edit that changes the join structure). Between
//! feedback rounds `GenerationContext::advance` either `Arc`-shares the
//! mirror untouched (no edits) or patches the edited cells in place.
//!
//! ## Differential round maintenance
//!
//! Round-over-round cost scales with the **edit**, not the database. Each
//! [`patch_cell`](relation::ColumnarJoin::patch_cell) returns a
//! [`CellDelta`](relation::CellDelta) (row, column, old/new value, column
//! edit epochs); [`TermBitmapCache::apply_delta`](query::TermBitmapCache)
//! flips the one affected bit of every cached bitmap on the patched column
//! instead of recomputing, falling back to wholesale invalidation only when
//! the patch restructures the column (dictionary insert, type demotion).
//! Downstream, the outcome kernel repairs only the classes whose rows moved,
//! the QBO [`BatchVerifier`](qbo::BatchVerifier) re-verifies only candidates
//! whose terms or projection touch the patched column
//! (`reverify_after_patch`), and the skyline re-enumerates only (source,
//! destination) class pairs whose blocks changed, via a cross-round
//! [`SkylineMemo`](core::SkylineMemo). Key-column edits fall back to a full
//! rebuild (counted by [`advance_full_rebuilds`](core::advance_full_rebuilds)
//! and logged when `QFE_LOG_REBUILD` is set), with untouched tables still
//! `Arc`-shared. Every fast path is property-tested byte-identical to a
//! fresh rebuild (`tests/differential.rs`); `experiments -- rounds` records
//! the advance-vs-rebuild trajectory in `BENCH_rounds.json`.
//!
//! ## Quick start
//!
//! ```
//! use qfe::prelude::*;
//!
//! // The paper's Example 1.1: a single Employee table and a result with the
//! // names of two employees.  QFE narrows three candidate queries down to the
//! // intended one using at most two single-change feedback rounds.
//! let (db, result, candidates, target) = qfe::datasets::example_1_1();
//! let user = OracleUser::new(target.clone());
//! let session = QfeSession::builder(db, result)
//!     .with_candidates(candidates)
//!     .build()
//!     .expect("valid example input");
//! let outcome = session.run(&user).expect("QFE terminates");
//! assert_eq!(outcome.query, target);
//! assert!(outcome.report.iterations() <= 2);
//! ```
//!
//! ## Sans-IO sessions: step, snapshot, resume, host
//!
//! `run()` blocks until the responder answers, which suits automated
//! feedback. Interactive and hosted deployments use the step API instead:
//! [`QfeSession::start`](prelude::QfeSession::start) yields a
//! [`QfeEngine`](prelude::QfeEngine) that returns each feedback round and is
//! fed each answer, holds all loop state, and externalizes as a JSON
//! [`SessionSnapshot`](prelude::SessionSnapshot) that resumes in another
//! process. A [`SessionManager`](prelude::SessionManager) hosts many
//! concurrent engines behind [`SessionId`](prelude::SessionId) handles —
//! the embedding point for a server frontend.
//!
//! ```
//! use qfe::prelude::*;
//!
//! let (db, result, candidates, target) = qfe::datasets::example_1_1();
//! let user = OracleUser::new(target.clone());
//! let session = QfeSession::builder(db, result)
//!     .with_candidates(candidates)
//!     .build()
//!     .expect("valid example input");
//!
//! // Host the session behind an id, as a server would.
//! let manager = SessionManager::new();
//! let mut id = manager.create(&session);
//! let outcome = loop {
//!     match manager.step(id).expect("hosted session steps") {
//!         Step::Done(outcome) => break outcome,
//!         Step::AwaitFeedback(round) => {
//!             // Mid-round the session can leave the process entirely…
//!             let parked: String = manager.snapshot(id).unwrap().serialize();
//!             assert!(manager.evict(id));
//!             // …and come back later, under a new handle.
//!             let snapshot = SessionSnapshot::deserialize(&parked).unwrap();
//!             id = manager.restore(snapshot).unwrap();
//!             let choice = user.choose(&round).expect("oracle finds its result");
//!             manager.answer(id, choice).unwrap();
//!         }
//!     }
//! };
//! assert_eq!(outcome.query, target);
//! ```
//!
//! ## Operators guide: running QFE as a service
//!
//! The `qfe-server` binary serves the session API over plain HTTP/1.1 with
//! no dependencies beyond the standard library:
//!
//! ```text
//! cargo run -p qfe-server --release -- \
//!     --addr 127.0.0.1:7878 --store log:/var/lib/qfe/sessions.log \
//!     --workers 8 --max-resident 512
//! ```
//!
//! `--store` selects durability: `mem` (nothing survives a restart) or
//! `log:PATH` (one append-only file, index rebuilt at boot, torn trailing
//! records truncated away — the one durable format). With `--max-resident N`, the
//! longest-idle sessions park to the store automatically whenever more than
//! `N` engines are resident; any request to a parked session transparently
//! rehydrates it. Parked state is split: the per-session document references
//! the example pair `(D, R)` by content hash, so a thousand sessions on one
//! workload store the workload once.
//!
//! A complete session over `curl`:
//!
//! ```text
//! # Liveness and occupancy.
//! curl -s localhost:7878/healthz
//! #   {"status":"ok","resident":0,"parked":0}
//!
//! # Start a session on the paper's running example; note the id.
//! curl -s -X POST localhost:7878/sessions -d '{"workload":"example_1_1"}'
//! #   {"id":1}
//!
//! # Ask for the next feedback round. The response carries the modified
//! # database D' and the candidate results to choose between.
//! curl -s localhost:7878/sessions/1/step
//! #   {"status":"await_feedback","round":{...,"choices":[...]}}
//!
//! # Answer with the index of the result matching the intended query
//! # (optionally reporting how long the human deliberated).
//! curl -s -X POST localhost:7878/sessions/1/answer \
//!      -d '{"choice":0,"user_millis":4200}'
//!
//! # Park the session durably (e.g. the user went to lunch)…
//! curl -s -X POST localhost:7878/sessions/1/park
//! #   {"status":"parked","workload_hash":"…","state_bytes":…,
//! #    "workload_bytes":…,"workload_shared":false}
//!
//! # …and carry on later — an explicit resume, or just step again and the
//! # host rehydrates on demand. This works across server restarts for the
//! # log store.
//! curl -s -X POST localhost:7878/sessions/1/resume
//! curl -s localhost:7878/sessions/1/step
//!
//! # Repeat step/answer until the loop converges.
//! #   {"status":"done","sql":"SELECT name FROM Employee WHERE …",…}
//!
//! # Forget the session (engine and stored state).
//! curl -s -X DELETE localhost:7878/sessions/1
//! ```
//!
//! When none of the presented results is right, `POST /sessions/{id}/reject`
//! tells the engine the intended query is outside the candidate set.
//! Protocol misuse (answering with no pending round, out-of-range choices)
//! is `409`; unknown sessions are `404`; a corrupt stored record fails that
//! session's request with `500` and leaves every other session serving.
//! `examples/interactive_session.rs --http` drives the same endpoints with
//! the bundled [`HttpClient`](server::HttpClient).
//!
//! ## Running a sharded fleet
//!
//! One host saturates? Serve the same store from several. `--shards N`
//! (N > 1) turns the binary into a fleet of N shard hosts behind one
//! router, all sharing the one `--store`:
//!
//! ```text
//! cargo run -p qfe-server --release -- \
//!     --addr 127.0.0.1:7878 --store log:/var/lib/qfe/sessions.log \
//!     --shards 4 --max-resident 128
//! ```
//!
//! Every session API route is unchanged — clients cannot tell a fleet from
//! a single host. Underneath, each session id hashes to a home shard, every
//! state-changing verb writes a checkpoint through to the shared store
//! before the response leaves, and three protocols keep the fleet honest
//! (`--max-resident` becomes the *per-shard* watermark):
//!
//! * **Live migration** parks a session on its source shard, flips the one
//!   routing entry, and rehydrates on the target — all under the session's
//!   lock, so no request ever sees two owners.
//! * **Failover**: when a shard dies, its sessions are recovered from their
//!   last checkpoints onto the survivors — eagerly on a kill, lazily (one
//!   session, next request) otherwise. At most the one uncheckpointed verb
//!   rolls back; the engine re-presents that round and the normal retry
//!   path re-answers it, deduplicated by the shared idempotency cache.
//! * **Graceful drain** stops placements on a shard, parks its residents
//!   (the same deadline-bounded sweep as single-node shutdown), re-homes
//!   its routes, and takes it down — zero sessions lost.
//!
//! The fleet is administered over HTTP:
//!
//! ```text
//! # Per-shard state, occupancy and health, plus fleet counters.
//! curl -s localhost:7878/admin/shards
//! #   {"shards":[{"index":0,"state":"up","resident":31,…},…],
//! #    "routed_sessions":117,"migrations":4,"failovers":0,…}
//!
//! # Drain shard 2 (park + re-home everything, then down it); bring it back.
//! curl -s -X POST localhost:7878/admin/shards/2/drain
//! curl -s -X POST localhost:7878/admin/shards/2/restart
//!
//! # Simulate a crash (testing the failover path in staging).
//! curl -s -X POST localhost:7878/admin/shards/2/kill
//!
//! # Audit the shared store offline: JSON FsckReport on stdout, exit 0/1.
//! qfe-server --store log:/var/lib/qfe/sessions.log --fsck
//! # …or online while serving:
//! curl -s localhost:7878/admin/fsck
//! ```
//!
//! The headline invariant — proven in `crates/cluster/tests/fleet.rs` over
//! both store backends — is **placement transparency**: a session's
//! rounds and outcome are byte-identical whether it lives on one shard,
//! migrates between every round, or survives a shard kill after every
//! round. `experiments -- cluster` runs the fleet under store faults and
//! flaky responses, and at every third answered round fleet-wide migrates
//! the answering session, kills the shard now hosting it, fails it over and
//! restarts it; it writes `BENCH_cluster.json`, and CI greps it for `"lost_sessions": 0` and `"duplicate_effects": 0`.
//!
//! ## Failure modes & recovery
//!
//! Every failure the stack claims to survive is provoked on purpose in the
//! test suite and the chaos bench; this section is the operator's map of
//! what breaks, what the system does about it, and what is left to do.
//!
//! **A process dies mid-write.** The log store is crash-safe at every byte
//! offset (`tests/crashpoints.rs` kills it at each one). It frames one
//! checksummed record per line — a torn trailing record is truncated away
//! at the next open, rolling back to the previous accepted state.
//!
//! **Bytes rot on disk.** Every record carries a content checksum
//! (a `c=<hash>` log field) verified at open *and* on every read. A failing
//! record is **quarantined** — dropped from the index — failing only that
//! record's session while the previous good version of the key, if any,
//! keeps serving. [`LogStore::fsck`](snapstore::LogStore::fsck) rescans
//! everything and returns an [`FsckReport`](snapstore::FsckReport): live counts, quarantined
//! records with reasons, torn-tail and garbage bytes. Records from before
//! the checksum era still serve, just unverified.
//!
//! **The server is overloaded or shutting down.** The accept queue is
//! bounded: past `queue_depth` waiting connections the server sheds load
//! with `503` + `Retry-After` *before* touching the session — always safe
//! to retry. Slow or hostile clients hit per-request deadlines (`408`) and
//! header-count/byte limits (`431`). `POST /admin/shutdown` (or dropping
//! the server handle gracefully) stops accepting, drains in-flight
//! requests, then parks every resident session to the store; `GET /healthz`
//! doubles as the readiness probe, reporting `"draining"` with `503` so a
//! load balancer stops routing while the drain completes.
//!
//! **A response is lost in flight.** The mutating verbs accept an `idem`
//! key; the server caches each `(session, key)` outcome and replays it
//! byte-identically on retry, so a client that never saw the answer can
//! resend without double-applying it.
//! [`HttpClient::with_retry`](server::HttpClient::with_retry) does this
//! automatically: exponential backoff with seeded jitter under a total
//! retry budget, honoring `Retry-After`, retrying `503`s and ambiguous
//! transport failures only when the request is idempotent.
//!
//! **The delta machinery itself is suspect.** Setting `QFE_PARANOIA=1`
//! (or `=N` for every `N`-th advance) makes
//! [`GenerationContext::advance_with_report`](core::GenerationContext::advance_with_report)
//! audit each delta-maintained round against a fresh rebuild; on a
//! mismatch it logs the divergence, counts it
//! ([`paranoia_mismatches`](core::paranoia_mismatches)), and degrades
//! gracefully by serving the rebuilt context.
//!
//! **Rehearsing all of it.** [`FaultyStore`](snapstore::FaultyStore) wraps
//! any store and injects I/O errors, torn writes, stale reads and latency
//! from a serializable, seeded [`FaultPlan`](snapstore::FaultPlan);
//! [`FlakyHandler`](server::FlakyHandler) drops, duplicates and delays
//! responses in front of the service. `experiments -- chaos` runs the full
//! fleet under both at a pinned seed and writes `BENCH_chaos.json`, which
//! CI checks for the two zeros that matter: `lost_sessions` and
//! `duplicate_answer_effects`.

pub use qfe_cluster as cluster;
pub use qfe_core as core;
pub use qfe_datasets as datasets;
pub use qfe_qbo as qbo;
pub use qfe_query as query;
pub use qfe_relation as relation;
pub use qfe_server as server;
pub use qfe_snapstore as snapstore;
pub use qfe_wire as wire;

/// Convenience re-exports of the most commonly used types.
pub mod prelude {
    pub use qfe_cluster::{Cluster, ClusterConfig, ShardRouter};
    pub use qfe_core::{
        AltCostModel, CostModelKind, CostParams, DatabaseGenerator, FeedbackUser, InteractiveUser,
        IterationStats, OracleUser, QfeEngine, QfeError, QfeOutcome, QfeSession, SessionId,
        SessionManager, SessionReport, SessionSnapshot, SimulatedHumanUser, Step, WorstCaseUser,
    };
    pub use qfe_qbo::{QboConfig, QueryGenerator};
    pub use qfe_query::{ComparisonOp, DnfPredicate, QueryResult, SpjQuery};
    pub use qfe_relation::{DataType, Database, ForeignKey, Table, TableSchema, Tuple, Value};
    pub use qfe_server::{serve, HttpClient, ServerConfig, ServiceState};
    pub use qfe_snapstore::{
        HostConfig, LogStore, MemoryStore, SessionBackend, SessionHost, SnapshotStore,
    };
    pub use qfe_wire::{FromJson, Json, ToJson};
}
