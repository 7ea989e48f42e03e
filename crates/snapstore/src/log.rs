//! The single-file append-only log store.
//!
//! One log file holds every record; an in-memory index built by scanning the
//! log at open maps each live key to the byte range of its body. Writes are
//! appends (cheap, crash-friendly: a torn trailing record is truncated away
//! at the next open), reads seek into the file — a parked
//! session occupies no heap beyond its index entry.
//!
//! Record format, one per line:
//!
//! ```text
//! kind <TAB> key <TAB> c=<checksum> <TAB> body <LF>
//! ```
//!
//! `kind` is `p` (parked session), `w` (workload payload) or `d` (session
//! tombstone, body `-`). The checksum is a 128-bit content hash over
//! `kind\tkey\tbody`, so a record whose bytes rot on disk — or whose key
//! and body were spliced together by a partial overwrite — is detected and
//! **quarantined** instead of being served: at open a failing record is
//! dropped from the index (the previous version of the key, if any, stays
//! live), and on every read the body is re-verified so post-open corruption
//! fails just that record, never the host. Records written before the
//! checksum era (three fields, no `c=`) are still readable, just unverified.
//!
//! Bodies are compact `qfe-wire` JSON, which escapes every control
//! character, so a body never contains a literal tab or newline and the
//! framing is unambiguous. Replaced and deleted records stay in the file as
//! garbage; the index only tracks the latest state, and [`LogStore::fsck`]
//! reports how much of the file is garbage, what was quarantined, and what
//! is live.

use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::Mutex;

use qfe_wire::content_hash;

use crate::fsck::{FsckReport, QuarantinedRecord};
use crate::store::{SnapshotStore, StoreError, StoreResult};

/// Index entry: body byte range plus the record checksum (empty for
/// pre-checksum records, which are served unverified).
type Span = (u64, usize, String);

/// Checksum over the identity and content of a record — binding the kind
/// and key prevents a spliced record (valid body under the wrong key) from
/// verifying.
fn record_checksum(kind: &str, key: &str, body: &str) -> String {
    content_hash(&format!("{kind}\t{key}\t{body}"))
}

/// What one scan of the log text produced.
#[derive(Debug, Default)]
struct Scan {
    sessions: HashMap<String, Span>,
    workloads: HashMap<String, Span>,
    /// Full line byte range per live key, for garbage accounting:
    /// `(namespace, key) → line length`.
    live_lines: HashMap<(u8, String), u64>,
    quarantined: Vec<QuarantinedRecord>,
    records: usize,
    torn_at: Option<u64>,
}

/// Parses the whole log text into an index, quarantining every record whose
/// checksum fails. Later records win; a quarantined record does *not*
/// supersede the previous version of its key — serving the last good
/// version beats serving nothing.
fn scan_log(text: &str) -> Scan {
    let mut scan = Scan::default();
    let mut offset = 0u64;
    for line in text.split_inclusive('\n') {
        let line_start = offset;
        offset += line.len() as u64;
        if !line.ends_with('\n') {
            // Torn trailing record — a crash mid-append. The caller
            // truncates it so the next append starts on a fresh line.
            scan.torn_at = Some(line_start);
            break;
        }
        let record = &line[..line.len() - 1];
        let parts: Vec<&str> = record.splitn(4, '\t').collect();
        let (kind, key, checksum, body, body_offset) = match parts.as_slice() {
            [kind, key, sum, body] if sum.starts_with("c=") => {
                let body_offset =
                    line_start + (kind.len() + 1 + key.len() + 1 + sum.len() + 1) as u64;
                (*kind, *key, &sum[2..], *body, body_offset)
            }
            // Pre-checksum record: kind, key, body (body has no tabs, so a
            // three-way split is exact).
            [kind, key, body] => {
                let body_offset = line_start + (kind.len() + 1 + key.len() + 1) as u64;
                (*kind, *key, "", *body, body_offset)
            }
            // Malformed line (hand-edited file): skip it rather than
            // refuse to open — later records may still be fine.
            _ => continue,
        };
        scan.records += 1;
        if !checksum.is_empty() && record_checksum(kind, key, body) != checksum {
            scan.quarantined.push(QuarantinedRecord {
                namespace: if kind == "w" { "workloads" } else { "sessions" }.to_string(),
                key: key.to_string(),
                location: format!("offset {line_start}"),
                reason: "checksum mismatch".to_string(),
            });
            continue;
        }
        let span = (body_offset, body.len(), checksum.to_string());
        match kind {
            "p" => {
                scan.sessions.insert(key.to_string(), span);
                scan.live_lines
                    .insert((0, key.to_string()), line.len() as u64);
            }
            // Content-addressed: the first write of a hash wins.
            "w" if !scan.workloads.contains_key(key) => {
                scan.workloads.insert(key.to_string(), span);
                scan.live_lines
                    .insert((1, key.to_string()), line.len() as u64);
            }
            "d" => {
                scan.sessions.remove(key);
                scan.live_lines.remove(&(0, key.to_string()));
            }
            _ => {}
        }
    }
    scan
}

#[derive(Debug)]
struct LogInner {
    file: File,
    /// Key → body span for live parked sessions.
    sessions: HashMap<String, Span>,
    /// Hash → body span for stored workloads.
    workloads: HashMap<String, Span>,
    /// Records dropped from the index because their bytes fail
    /// verification — at open or on a later read.
    quarantined: Vec<QuarantinedRecord>,
    /// End-of-file offset where the next record will land.
    end: u64,
}

/// [`SnapshotStore`] backed by one append-only log file.
#[derive(Debug)]
pub struct LogStore {
    path: PathBuf,
    inner: Mutex<LogInner>,
}

impl LogStore {
    /// Opens (or creates) the log at `path` and rebuilds the index by
    /// scanning it. A torn trailing record — a crash mid-append — is
    /// truncated away so subsequent appends start on a fresh line; a record
    /// whose checksum fails is quarantined (see [`LogStore::fsck`]).
    pub fn open(path: impl AsRef<Path>) -> StoreResult<LogStore> {
        let path = path.as_ref().to_path_buf();
        let ctx = || format!("open log {}", path.display());
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent).map_err(|e| StoreError::new(ctx(), e))?;
            }
        }
        let mut file = OpenOptions::new()
            .create(true)
            .read(true)
            .append(true)
            .open(&path)
            .map_err(|e| StoreError::new(ctx(), e))?;
        let mut text = String::new();
        file.seek(SeekFrom::Start(0))
            .map_err(|e| StoreError::new(ctx(), e))?;
        file.read_to_string(&mut text)
            .map_err(|e| StoreError::new(ctx(), e))?;

        let scan = scan_log(&text);
        let mut end = text.len() as u64;
        if let Some(torn_start) = scan.torn_at {
            file.set_len(torn_start)
                .map_err(|e| StoreError::new(ctx(), e))?;
            end = torn_start;
        }
        Ok(LogStore {
            path,
            inner: Mutex::new(LogInner {
                file,
                sessions: scan.sessions,
                workloads: scan.workloads,
                quarantined: scan.quarantined,
                end,
            }),
        })
    }

    /// The path of the backing log file.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Records quarantined so far — at open or by read-time verification.
    pub fn quarantined(&self) -> Vec<QuarantinedRecord> {
        self.inner
            .lock()
            .expect("log store lock poisoned")
            .quarantined
            .clone()
    }

    /// Rescans the whole log, re-verifying every record checksum, and
    /// repairs the in-memory index to the verified state: damaged records
    /// are quarantined (later reads are clean misses, or serve the previous
    /// good version of the key). Returns the recovery report.
    pub fn fsck(&self) -> StoreResult<FsckReport> {
        let ctx = || format!("fsck log {}", self.path.display());
        let mut inner = self.inner.lock().expect("log store lock poisoned");
        let mut text = String::new();
        inner
            .file
            .seek(SeekFrom::Start(0))
            .map_err(|e| StoreError::new(ctx(), e))?;
        inner
            .file
            .read_to_string(&mut text)
            .map_err(|e| StoreError::new(ctx(), e))?;
        let scan = scan_log(&text);
        let live_bytes: u64 = scan.live_lines.values().sum();
        let torn_bytes = scan
            .torn_at
            .map(|start| text.len() as u64 - start)
            .unwrap_or(0);
        let report = FsckReport {
            backend: "log",
            records_scanned: scan.records,
            live_sessions: scan.sessions.len(),
            live_workloads: scan.workloads.len(),
            quarantined: scan.quarantined.clone(),
            torn_tail_bytes: torn_bytes,
            garbage_bytes: (text.len() as u64).saturating_sub(live_bytes + torn_bytes),
        };
        inner.sessions = scan.sessions;
        inner.workloads = scan.workloads;
        inner.quarantined = scan.quarantined;
        Ok(report)
    }

    fn check_key(&self, context: &str, key: &str) -> StoreResult<()> {
        if key.is_empty() || key.contains('\t') || key.contains('\n') {
            return Err(StoreError::new(
                format!("{context} {}", self.path.display()),
                format!("invalid key {key:?}: must be non-empty without tab/newline"),
            ));
        }
        Ok(())
    }

    fn append(
        &self,
        inner: &mut LogInner,
        context: &str,
        kind: &str,
        key: &str,
        body: &str,
    ) -> StoreResult<Span> {
        if body.contains('\n') || body.contains('\t') {
            return Err(StoreError::new(
                context.to_string(),
                "record body may not contain raw tab/newline (wire JSON escapes them)",
            ));
        }
        let checksum = record_checksum(kind, key, body);
        let record = format!("{kind}\t{key}\tc={checksum}\t{body}\n");
        inner
            .file
            .write_all(record.as_bytes())
            .map_err(|e| StoreError::new(context.to_string(), e))?;
        let body_offset =
            inner.end + (kind.len() + 1 + key.len() + 1 + 2 + checksum.len() + 1) as u64;
        inner.end += record.len() as u64;
        Ok((body_offset, body.len(), checksum))
    }

    /// Reads a record body and verifies it against the indexed checksum. A
    /// mismatch — the bytes changed under us since the index was built —
    /// quarantines the record (subsequent reads are clean misses) and fails
    /// only this call.
    fn read_verified(
        &self,
        inner: &mut LogInner,
        context: &str,
        kind: &str,
        key: &str,
        span: &Span,
    ) -> StoreResult<String> {
        let (offset, len, checksum) = span;
        inner
            .file
            .seek(SeekFrom::Start(*offset))
            .map_err(|e| StoreError::new(context.to_string(), e))?;
        let mut buf = vec![0u8; *len];
        inner
            .file
            .read_exact(&mut buf)
            .map_err(|e| StoreError::new(context.to_string(), e))?;
        let body = String::from_utf8(buf)
            .map_err(|e| StoreError::new(context.to_string(), format!("record not UTF-8: {e}")))?;
        if !checksum.is_empty() && record_checksum(kind, key, &body) != *checksum {
            let namespace = if kind == "w" { "workloads" } else { "sessions" };
            inner.quarantined.push(QuarantinedRecord {
                namespace: namespace.to_string(),
                key: key.to_string(),
                location: format!("offset {offset}"),
                reason: "checksum mismatch on read".to_string(),
            });
            if kind == "w" {
                inner.workloads.remove(key);
            } else {
                inner.sessions.remove(key);
            }
            return Err(StoreError::new(
                context.to_string(),
                "record checksum mismatch (quarantined)",
            ));
        }
        Ok(body)
    }
}

impl SnapshotStore for LogStore {
    fn put_session(&self, key: &str, text: &str) -> StoreResult<()> {
        let context = format!("put_session {key}");
        self.check_key(&context, key)?;
        let mut inner = self.inner.lock().expect("log store lock poisoned");
        let span = self.append(&mut inner, &context, "p", key, text)?;
        inner.sessions.insert(key.to_string(), span);
        Ok(())
    }

    fn get_session(&self, key: &str) -> StoreResult<Option<String>> {
        let context = format!("get_session {key}");
        let mut inner = self.inner.lock().expect("log store lock poisoned");
        match inner.sessions.get(key).cloned() {
            None => Ok(None),
            Some(span) => Ok(Some(
                self.read_verified(&mut inner, &context, "p", key, &span)?,
            )),
        }
    }

    fn remove_session(&self, key: &str) -> StoreResult<bool> {
        let context = format!("remove_session {key}");
        self.check_key(&context, key)?;
        let mut inner = self.inner.lock().expect("log store lock poisoned");
        if inner.sessions.remove(key).is_none() {
            return Ok(false);
        }
        self.append(&mut inner, &context, "d", key, "-")?;
        Ok(true)
    }

    fn session_keys(&self) -> StoreResult<Vec<String>> {
        let inner = self.inner.lock().expect("log store lock poisoned");
        let mut keys: Vec<String> = inner.sessions.keys().cloned().collect();
        keys.sort();
        Ok(keys)
    }

    fn put_workload(&self, hash: &str, text: &str) -> StoreResult<()> {
        let context = format!("put_workload {hash}");
        self.check_key(&context, hash)?;
        let mut inner = self.inner.lock().expect("log store lock poisoned");
        if inner.workloads.contains_key(hash) {
            return Ok(()); // content-addressed: identical by construction
        }
        let span = self.append(&mut inner, &context, "w", hash, text)?;
        inner.workloads.insert(hash.to_string(), span);
        Ok(())
    }

    fn get_workload(&self, hash: &str) -> StoreResult<Option<String>> {
        let context = format!("get_workload {hash}");
        let mut inner = self.inner.lock().expect("log store lock poisoned");
        match inner.workloads.get(hash).cloned() {
            None => Ok(None),
            Some(span) => Ok(Some(
                self.read_verified(&mut inner, &context, "w", hash, &span)?,
            )),
        }
    }

    fn has_workload(&self, hash: &str) -> StoreResult<bool> {
        let inner = self.inner.lock().expect("log store lock poisoned");
        Ok(inner.workloads.contains_key(hash))
    }

    fn workload_hashes(&self) -> StoreResult<Vec<String>> {
        let inner = self.inner.lock().expect("log store lock poisoned");
        let mut hashes: Vec<String> = inner.workloads.keys().cloned().collect();
        hashes.sort();
        Ok(hashes)
    }

    fn backend_name(&self) -> &'static str {
        "log"
    }

    fn fsck(&self) -> StoreResult<FsckReport> {
        LogStore::fsck(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_log(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("qfe-snapstore-test-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir.join("store.log")
    }

    #[test]
    fn log_survives_reopen() {
        let path = temp_log("reopen");
        {
            let store = LogStore::open(&path).unwrap();
            store.put_session("s1", "{\"v\":1}").unwrap();
            store.put_session("s2", "{\"v\":2}").unwrap();
            store.put_session("s1", "{\"v\":3}").unwrap(); // replace
            store.put_workload("abc", "{\"w\":true}").unwrap();
            assert!(store.remove_session("s2").unwrap());
        }
        // A fresh handle on the same path — a "process restart" — sees the
        // latest state: s1 replaced, s2 tombstoned, workload intact.
        let store = LogStore::open(&path).unwrap();
        assert_eq!(store.get_session("s1").unwrap().unwrap(), "{\"v\":3}");
        assert_eq!(store.get_session("s2").unwrap(), None);
        assert_eq!(store.session_keys().unwrap(), vec!["s1"]);
        assert_eq!(store.get_workload("abc").unwrap().unwrap(), "{\"w\":true}");
        assert_eq!(store.workload_hashes().unwrap(), vec!["abc"]);
        assert_eq!(store.path(), path.as_path());
        assert_eq!(store.backend_name(), "log");
    }

    #[test]
    fn torn_trailing_record_is_neutralized() {
        let path = temp_log("torn");
        {
            let store = LogStore::open(&path).unwrap();
            store.put_session("s1", "{\"v\":1}").unwrap();
        }
        // Simulate a crash mid-append: a record without the trailing newline.
        {
            let mut f = OpenOptions::new().append(true).open(&path).unwrap();
            f.write_all(b"p\ts2\t{\"v\":2").unwrap();
        }
        let store = LogStore::open(&path).unwrap();
        assert_eq!(store.get_session("s1").unwrap().unwrap(), "{\"v\":1}");
        assert_eq!(
            store.get_session("s2").unwrap(),
            None,
            "torn record ignored"
        );
        // New appends land on a fresh line, not glued to the torn record.
        store.put_session("s3", "{\"v\":3}").unwrap();
        let reopened = LogStore::open(&path).unwrap();
        assert_eq!(reopened.get_session("s3").unwrap().unwrap(), "{\"v\":3}");
        assert_eq!(reopened.session_keys().unwrap(), vec!["s1", "s3"]);
    }

    #[test]
    fn keys_and_bodies_are_validated() {
        let path = temp_log("validate");
        let store = LogStore::open(&path).unwrap();
        assert!(store.put_session("has\ttab", "{}").is_err());
        assert!(store.put_session("", "{}").is_err());
        let err = store.put_session("ok", "line\nbreak").unwrap_err();
        assert!(err.to_string().contains("put_session ok"));
        assert!(!store.remove_session("missing").unwrap());
    }

    #[test]
    fn workload_put_is_idempotent_across_reopen() {
        let path = temp_log("workload");
        {
            let store = LogStore::open(&path).unwrap();
            store.put_workload("h1", "payload").unwrap();
            store.put_workload("h1", "ignored").unwrap();
        }
        let store = LogStore::open(&path).unwrap();
        assert_eq!(store.get_workload("h1").unwrap().unwrap(), "payload");
        store.put_workload("h1", "still-ignored").unwrap();
        assert_eq!(store.get_workload("h1").unwrap().unwrap(), "payload");
        assert!(store.has_workload("h1").unwrap());
        assert!(!store.has_workload("h2").unwrap());
    }

    /// Flips one byte inside the *body* of the record holding `needle`.
    fn corrupt_body_byte(path: &Path, needle: &str) {
        let mut bytes = std::fs::read(path).unwrap();
        let text = String::from_utf8(bytes.clone()).unwrap();
        let at = text.find(needle).expect("needle present in log");
        bytes[at] ^= 0x20; // flip case / perturb the byte
        std::fs::write(path, bytes).unwrap();
    }

    #[test]
    fn corruption_at_open_quarantines_only_the_damaged_record() {
        let path = temp_log("open-quarantine");
        {
            let store = LogStore::open(&path).unwrap();
            store.put_session("good", "{\"v\":\"keepme\"}").unwrap();
            store.put_session("bad", "{\"v\":\"rotten\"}").unwrap();
        }
        corrupt_body_byte(&path, "rotten");
        let store = LogStore::open(&path).unwrap();
        // The damaged record is quarantined: a clean miss, not an error, and
        // the undamaged record still serves.
        assert_eq!(store.get_session("bad").unwrap(), None);
        assert_eq!(
            store.get_session("good").unwrap().unwrap(),
            "{\"v\":\"keepme\"}"
        );
        let quarantined = store.quarantined();
        assert_eq!(quarantined.len(), 1);
        assert_eq!(quarantined[0].key, "bad");
        assert!(quarantined[0].reason.contains("checksum"));
    }

    #[test]
    fn corrupt_replacement_falls_back_to_last_good_version() {
        let path = temp_log("last-good");
        {
            let store = LogStore::open(&path).unwrap();
            store.put_session("s1", "{\"v\":\"first\"}").unwrap();
            store.put_session("s1", "{\"v\":\"second\"}").unwrap();
        }
        corrupt_body_byte(&path, "second");
        // The corrupt replacement is quarantined; the previous good version
        // of the key is served instead of nothing.
        let store = LogStore::open(&path).unwrap();
        assert_eq!(
            store.get_session("s1").unwrap().unwrap(),
            "{\"v\":\"first\"}"
        );
        assert_eq!(store.quarantined().len(), 1);
    }

    #[test]
    fn read_path_verifies_checksums_and_fails_one_record() {
        let path = temp_log("read-verify");
        let store = LogStore::open(&path).unwrap();
        store.put_session("s1", "{\"v\":\"alpha\"}").unwrap();
        store.put_session("s2", "{\"v\":\"betaa\"}").unwrap();
        // Corrupt s1's body *after* the index was built: only read-time
        // verification can catch this.
        corrupt_body_byte(&path, "alpha");
        let err = store.get_session("s1").unwrap_err();
        assert!(err.to_string().contains("checksum mismatch"), "{err}");
        // The record self-quarantined: the next read is a clean miss, and
        // the sibling record is untouched.
        assert_eq!(store.get_session("s1").unwrap(), None);
        assert_eq!(
            store.get_session("s2").unwrap().unwrap(),
            "{\"v\":\"betaa\"}"
        );
        assert_eq!(store.quarantined().len(), 1);
        assert!(store.quarantined()[0].reason.contains("on read"));
    }

    #[test]
    fn fsck_reports_garbage_quarantine_and_live_counts() {
        let path = temp_log("fsck");
        let store = LogStore::open(&path).unwrap();
        store.put_session("s1", "{\"v\":1}").unwrap();
        store.put_session("s1", "{\"v\":2}").unwrap(); // supersedes → garbage
        store.put_session("s2", "{\"v\":\"target\"}").unwrap();
        store.put_workload("w1", "{\"w\":1}").unwrap();
        store.remove_session("s1").unwrap(); // tombstone + garbage
        let clean = store.fsck().unwrap();
        assert!(clean.is_clean());
        assert_eq!(clean.backend, "log");
        assert_eq!(clean.live_sessions, 1);
        assert_eq!(clean.live_workloads, 1);
        assert_eq!(clean.records_scanned, 5);
        assert!(clean.garbage_bytes > 0, "superseded records are garbage");

        // Rot a live record on disk; fsck quarantines it and repairs the
        // index so the next read is a clean miss.
        corrupt_body_byte(&path, "target");
        let report = store.fsck().unwrap();
        assert_eq!(report.quarantined.len(), 1);
        assert_eq!(report.quarantined[0].key, "s2");
        assert_eq!(report.live_sessions, 0);
        assert_eq!(store.get_session("s2").unwrap(), None);
        assert!(report.to_string().contains("sessions/s2"));
    }

    #[test]
    fn legacy_records_without_checksums_still_serve() {
        let path = temp_log("legacy");
        std::fs::write(&path, "p\told\t{\"v\":\"legacy\"}\n").unwrap();
        let store = LogStore::open(&path).unwrap();
        assert_eq!(
            store.get_session("old").unwrap().unwrap(),
            "{\"v\":\"legacy\"}"
        );
        // New writes get checksums; both formats coexist in one file.
        store.put_session("new", "{\"v\":\"fresh\"}").unwrap();
        let reopened = LogStore::open(&path).unwrap();
        assert_eq!(reopened.session_keys().unwrap(), vec!["new", "old"]);
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.contains("\tc="), "new records carry checksums");
    }
}
