//! The store trait, its error type, and the in-memory implementation.

use std::collections::HashMap;
use std::fmt;
use std::sync::Mutex;

use crate::fsck::FsckReport;

/// A snapshot store operation failed. `context` names the operation and key
/// (`"get_session s7"`), `message` the underlying cause — enough for an
/// operator to locate the damaged record. Converts into
/// [`qfe_core::QfeError::Store`] at the session-host boundary.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StoreError {
    /// The operation and key that failed.
    pub context: String,
    /// The underlying cause.
    pub message: String,
}

impl StoreError {
    /// Creates an error from an operation context and a cause.
    pub fn new(context: impl Into<String>, message: impl fmt::Display) -> StoreError {
        StoreError {
            context: context.into(),
            message: message.to_string(),
        }
    }
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "store error ({}): {}", self.context, self.message)
    }
}

impl std::error::Error for StoreError {}

/// Convenience result alias for this crate.
pub type StoreResult<T> = std::result::Result<T, StoreError>;

/// A durable backend for parked sessions and their shared workloads.
///
/// Two keyspaces:
///
/// * **Sessions** — small mutable-by-replacement state documents, keyed by a
///   caller-chosen string (the session host uses `s<id>`). `put` overwrites,
///   `remove` deletes.
/// * **Workloads** — immutable content-addressed bulk payloads (the
///   serialized example pair `(D, R)`), keyed by the hash of their text.
///   Writing the same hash twice is a no-op: the content is identical by
///   construction, which is exactly what lets thousands of sessions share
///   one stored copy.
///
/// Implementations are `Send + Sync`; a server calls them from many worker
/// threads. All failures are reported, never panicked.
pub trait SnapshotStore: Send + Sync + fmt::Debug {
    /// Writes (or replaces) a parked session document.
    fn put_session(&self, key: &str, text: &str) -> StoreResult<()>;
    /// Reads a parked session document. `Ok(None)` when the key is absent.
    fn get_session(&self, key: &str) -> StoreResult<Option<String>>;
    /// Deletes a parked session document. `Ok(false)` when the key was
    /// absent (removing twice is not an error).
    fn remove_session(&self, key: &str) -> StoreResult<bool>;
    /// Every parked session key, in sorted order.
    fn session_keys(&self) -> StoreResult<Vec<String>>;

    /// Stores a workload payload under its content hash. A no-op when the
    /// hash is already present.
    fn put_workload(&self, hash: &str, text: &str) -> StoreResult<()>;
    /// Reads a workload payload by content hash.
    fn get_workload(&self, hash: &str) -> StoreResult<Option<String>>;
    /// True when the content hash is already stored.
    fn has_workload(&self, hash: &str) -> StoreResult<bool> {
        Ok(self.get_workload(hash)?.is_some())
    }
    /// Every stored workload hash, in sorted order.
    fn workload_hashes(&self) -> StoreResult<Vec<String>>;

    /// Short name of the backend (`"mem"`, `"log"`, …) for the
    /// readiness probe and operator-facing reports.
    fn backend_name(&self) -> &'static str {
        "custom"
    }

    /// Audits the backing storage: verifies record integrity, quarantines
    /// damage, and reports what was found. Backends without durable bytes to
    /// verify (the in-memory store) report a clean pass over their live
    /// records; [`LogStore`](crate::LogStore) runs its full rescan. Exposed through
    /// the trait so operators can fsck whatever store a host happens to be
    /// configured with (`qfe-server --fsck`, `GET /admin/fsck`).
    fn fsck(&self) -> StoreResult<FsckReport> {
        Ok(FsckReport {
            backend: self.backend_name(),
            records_scanned: self.session_keys()?.len() + self.workload_hashes()?.len(),
            live_sessions: self.session_keys()?.len(),
            live_workloads: self.workload_hashes()?.len(),
            ..FsckReport::default()
        })
    }
}

/// The trivial [`SnapshotStore`]: everything in process memory.
///
/// Does not survive a restart — its role is (a) tests, and (b) pure
/// memory-pressure eviction, where parking to a compact serialized form
/// still shrinks the heap (a parked session holds JSON text instead of a
/// live engine with its generation context).
#[derive(Debug, Default)]
pub struct MemoryStore {
    sessions: Mutex<HashMap<String, String>>,
    workloads: Mutex<HashMap<String, String>>,
}

impl MemoryStore {
    /// Creates an empty in-memory store.
    pub fn new() -> MemoryStore {
        MemoryStore::default()
    }
}

impl SnapshotStore for MemoryStore {
    fn put_session(&self, key: &str, text: &str) -> StoreResult<()> {
        self.sessions
            .lock()
            .expect("memory store lock poisoned")
            .insert(key.to_string(), text.to_string());
        Ok(())
    }

    fn get_session(&self, key: &str) -> StoreResult<Option<String>> {
        Ok(self
            .sessions
            .lock()
            .expect("memory store lock poisoned")
            .get(key)
            .cloned())
    }

    fn remove_session(&self, key: &str) -> StoreResult<bool> {
        Ok(self
            .sessions
            .lock()
            .expect("memory store lock poisoned")
            .remove(key)
            .is_some())
    }

    fn session_keys(&self) -> StoreResult<Vec<String>> {
        let mut keys: Vec<String> = self
            .sessions
            .lock()
            .expect("memory store lock poisoned")
            .keys()
            .cloned()
            .collect();
        keys.sort();
        Ok(keys)
    }

    fn put_workload(&self, hash: &str, text: &str) -> StoreResult<()> {
        self.workloads
            .lock()
            .expect("memory store lock poisoned")
            .entry(hash.to_string())
            .or_insert_with(|| text.to_string());
        Ok(())
    }

    fn get_workload(&self, hash: &str) -> StoreResult<Option<String>> {
        Ok(self
            .workloads
            .lock()
            .expect("memory store lock poisoned")
            .get(hash)
            .cloned())
    }

    fn workload_hashes(&self) -> StoreResult<Vec<String>> {
        let mut hashes: Vec<String> = self
            .workloads
            .lock()
            .expect("memory store lock poisoned")
            .keys()
            .cloned()
            .collect();
        hashes.sort();
        Ok(hashes)
    }

    fn backend_name(&self) -> &'static str {
        "mem"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn memory_store_sessions_roundtrip() {
        let store = MemoryStore::new();
        assert_eq!(store.get_session("s1").unwrap(), None);
        store.put_session("s1", "{\"a\":1}").unwrap();
        store.put_session("s0", "{}").unwrap();
        assert_eq!(store.get_session("s1").unwrap().unwrap(), "{\"a\":1}");
        assert_eq!(store.session_keys().unwrap(), vec!["s0", "s1"]);
        // Replacement overwrites.
        store.put_session("s1", "{\"a\":2}").unwrap();
        assert_eq!(store.get_session("s1").unwrap().unwrap(), "{\"a\":2}");
        assert!(store.remove_session("s1").unwrap());
        assert!(!store.remove_session("s1").unwrap());
        assert_eq!(store.session_keys().unwrap(), vec!["s0"]);
    }

    #[test]
    fn memory_store_workloads_are_write_once() {
        let store = MemoryStore::new();
        assert!(!store.has_workload("abc").unwrap());
        store.put_workload("abc", "payload").unwrap();
        assert!(store.has_workload("abc").unwrap());
        // Re-putting the same hash never replaces the stored content.
        store.put_workload("abc", "different").unwrap();
        assert_eq!(store.get_workload("abc").unwrap().unwrap(), "payload");
        assert_eq!(store.workload_hashes().unwrap(), vec!["abc"]);
    }

    #[test]
    fn store_error_display_includes_context() {
        let e = StoreError::new("put_session s3", "disk full");
        assert!(e.to_string().contains("put_session s3"));
        assert!(e.to_string().contains("disk full"));
    }
}
