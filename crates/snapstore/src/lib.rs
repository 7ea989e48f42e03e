//! # qfe-snapstore — durable, content-addressed session parking
//!
//! A QFE deployment hosts many long-lived interactive sessions with large
//! idle gaps between feedback rounds. Keeping every idle [`QfeEngine`]
//! resident wastes memory, and keeping it only in memory loses the session
//! on a crash. This crate provides the storage discipline for parking
//! sessions off the heap and across process restarts:
//!
//! * [`SnapshotStore`] — the trait a backend implements, with two
//!   implementations: [`MemoryStore`] (tests and single-process eviction)
//!   and [`LogStore`], the one durable format (one append-only log file with
//!   an in-memory index, cheap to write, survives crashes mid-record).
//! * **Content addressing** — the example pair `(D, R)` of a workload is
//!   serialized once, keyed by the hash of its canonical JSON text
//!   ([`qfe_wire::content_hash`]), and every parked session on that workload
//!   stores only a tiny state document referencing the hash. Thousands of
//!   parked sessions share one copy of the bulk data (see
//!   [`park_snapshot`] / [`load_snapshot`]).
//! * [`SessionHost`] — a [`SessionManager`] wrapped with a store and a
//!   memory-pressure watermark: sessions over the resident limit are parked
//!   longest-idle-first, and any request for a parked session transparently
//!   rehydrates it under its original id.
//!
//! Failures surface as [`QfeError::Store`] with a context string naming the
//! operation and key — a corrupt or missing snapshot produces a clean error
//! for one request, never a poisoned lock or a crashed host.
//!
//! ## Integrity and fault tolerance
//!
//! [`LogStore`] writes a per-record checksum ([`qfe_wire::content_hash`]
//! over the record identity and body) and verifies it on **every** read,
//! not just at open. A record whose bytes rot on disk is *quarantined*:
//! dropped from service so later reads are clean misses, while the damage
//! is reported through [`LogStore::fsck`] as an [`FsckReport`] listing each
//! [`QuarantinedRecord`], garbage bytes, and a torn tail.
//!
//! For provoking failures deterministically, [`FaultyStore`] wraps any
//! [`SnapshotStore`] and injects faults — IO errors, torn writes, stale
//! reads, latency — scripted by a serializable, seeded [`FaultPlan`]. The
//! same plan and seed always produce the same fault schedule, which is what
//! lets CI replay a chaos run byte-for-byte.
//!
//! [`QfeEngine`]: qfe_core::QfeEngine
//! [`SessionManager`]: qfe_core::SessionManager
//! [`QfeError::Store`]: qfe_core::QfeError

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod backend;
mod fault;
mod fsck;
mod host;
mod log;
mod park;
mod store;

pub use backend::SessionBackend;
pub use fault::{FaultAction, FaultPlan, FaultRule, FaultTrigger, FaultyStore, InjectedFault};
pub use fsck::{FsckReport, QuarantinedRecord};
pub use host::{
    parse_session_store_key, session_store_key, HostConfig, ParkAllReport, SessionHost,
    SessionLocks,
};
pub use log::LogStore;
pub use park::{load_snapshot, park_snapshot, ParkReceipt};
pub use store::{MemoryStore, SnapshotStore, StoreError, StoreResult};
