//! Spans recorded by the benchmark around its calls into each layer.
//!
//! Tracing is off unless turned on with [`set_enabled`], and a disabled [`span`] reads
//! no clock. An enabled span records its name, start, end, parent span and
//! the session or request it belongs to. Spans are kept in memory and taken
//! with [`take`] when the run ends. A span's parent is the innermost span
//! open on the same thread when it started.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

use qfe_wire::Json;

/// One finished span. Times are nanoseconds since the first span of the run.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub name: &'static str,
    /// The session or request the span belongs to (inherited from the parent
    /// when not given).
    pub owner: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU64 = AtomicU64::new(1);
static SPANS: Mutex<Vec<Span>> = Mutex::new(Vec::new());

thread_local! {
    /// Open spans on this thread: `(id, owner)`, innermost last.
    static OPEN: RefCell<Vec<(u64, u64)>> = const { RefCell::new(Vec::new()) };
}

fn origin() -> Instant {
    static ORIGIN: OnceLock<Instant> = OnceLock::new();
    *ORIGIN.get_or_init(Instant::now)
}

fn nanos_since_origin(at: Instant) -> u64 {
    u64::try_from(at.duration_since(origin()).as_nanos()).expect("run shorter than 584 years")
}

/// Turns span recording on or off.
pub fn set_enabled(on: bool) {
    origin();
    ENABLED.store(on, Ordering::Relaxed);
}

pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// An open span; it ends when dropped.
#[must_use = "a span ends when its guard is dropped"]
pub struct Guard(Option<OpenSpan>);

struct OpenSpan {
    id: u64,
    parent: Option<u64>,
    name: &'static str,
    owner: u64,
    start: Instant,
}

/// Opens a span named `name` for `owner`, or for the parent's owner when
/// `owner` is `None`.
pub fn span(name: &'static str, owner: Option<u64>) -> Guard {
    if !enabled() {
        return Guard(None);
    }
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    let (parent, owner) = OPEN.with(|open| {
        let mut open = open.borrow_mut();
        let parent = open.last().copied();
        let owner = owner.or(parent.map(|(_, o)| o)).unwrap_or(0);
        open.push((id, owner));
        (parent.map(|(p, _)| p), owner)
    });
    Guard(Some(OpenSpan {
        id,
        parent,
        name,
        owner,
        start: Instant::now(),
    }))
}

impl Drop for Guard {
    fn drop(&mut self) {
        let Some(open) = self.0.take() else { return };
        let end = Instant::now();
        OPEN.with(|stack| {
            let popped = stack.borrow_mut().pop();
            debug_assert_eq!(popped.map(|(id, _)| id), Some(open.id), "spans nest");
        });
        let span = Span {
            id: open.id,
            parent: open.parent,
            name: open.name,
            owner: open.owner,
            start_ns: nanos_since_origin(open.start),
            end_ns: nanos_since_origin(end),
        };
        // A poisoned lock means another thread panicked mid-push; the span
        // list is still a valid Vec, so keep recording.
        SPANS
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
            .push(span);
    }
}

/// Removes and returns every span recorded so far, ordered by start.
pub fn take() -> Vec<Span> {
    let mut spans = std::mem::take(
        &mut *SPANS
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner()),
    );
    spans.sort_by_key(|s| (s.start_ns, s.id));
    spans
}

/// Calls, total time and self time of every span with one name.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LayerTime {
    pub calls: usize,
    pub total_ns: u64,
    /// Total time minus the time covered by direct child spans.
    pub self_ns: u64,
}

impl LayerTime {
    pub fn total_ms(&self) -> f64 {
        self.total_ns as f64 / 1e6
    }

    /// Mean duration of one call, in milliseconds (0 when never called).
    pub fn mean_ms(&self) -> f64 {
        crate::stats::mean(self.total_ms(), self.calls)
    }
}

/// Aggregates spans by name. Child spans on one thread run inside their
/// parent one after another, so a parent's self time is its duration minus
/// the sum of its children's.
pub fn layer_times(spans: &[Span]) -> BTreeMap<&'static str, LayerTime> {
    let mut child_ns: BTreeMap<u64, u64> = BTreeMap::new();
    for span in spans {
        if let Some(parent) = span.parent {
            *child_ns.entry(parent).or_default() += span.duration_ns();
        }
    }
    let mut layers: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
    for span in spans {
        let layer = layers.entry(span.name).or_default();
        layer.calls += 1;
        layer.total_ns += span.duration_ns();
        let children = child_ns.get(&span.id).copied().unwrap_or(0);
        layer.self_ns += span.duration_ns().saturating_sub(children);
    }
    layers
}

/// The span export: run header, per-layer totals and self times, and every
/// span.
pub fn export(header: Vec<(&str, Json)>, spans: &[Span]) -> Json {
    let layers = layer_times(spans).into_iter().map(|(name, t)| {
        (
            name,
            Json::object([
                ("calls", Json::Int(t.calls as i64)),
                ("total_ms", Json::Float(t.total_ms())),
                ("self_ms", Json::Float(t.self_ns as f64 / 1e6)),
            ]),
        )
    });
    let span_rows = spans.iter().map(|s| {
        Json::object([
            ("id", Json::Int(s.id as i64)),
            (
                "parent",
                s.parent.map_or(Json::Null, |p| Json::Int(p as i64)),
            ),
            ("name", Json::Str(s.name.to_string())),
            ("owner", Json::Int(s.owner as i64)),
            ("start_ns", Json::Int(s.start_ns as i64)),
            ("end_ns", Json::Int(s.end_ns as i64)),
        ])
    });
    let mut fields: Vec<(String, Json)> = header
        .into_iter()
        .map(|(k, v)| (k.to_string(), v))
        .collect();
    fields.push(("layers".into(), Json::object(layers)));
    fields.push(("spans".into(), Json::Array(span_rows.collect())));
    Json::Object(fields)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn at(id: u64, parent: Option<u64>, name: &'static str, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            name,
            owner: 7,
            start_ns: start,
            end_ns: end,
        }
    }

    #[test]
    fn self_time_excludes_direct_children_only() {
        let spans = [
            at(1, None, "round", 0, 100),
            at(2, Some(1), "skyline", 10, 40),
            at(3, Some(1), "pick", 40, 90),
            at(4, Some(3), "inner", 50, 60),
        ];
        let layers = layer_times(&spans);
        assert_eq!(layers["round"].self_ns, 20);
        assert_eq!(layers["pick"].self_ns, 40);
        assert_eq!(layers["pick"].total_ns, 50);
        assert_eq!(layers["inner"].calls, 1);
    }

    #[test]
    fn nested_guards_record_parent_and_owner() {
        set_enabled(true);
        {
            let _outer = span("test.outer", Some(42));
            let _inner = span("test.inner", None);
        }
        let spans: Vec<Span> = take()
            .into_iter()
            .filter(|s| s.name.starts_with("test."))
            .collect();
        let outer = spans.iter().find(|s| s.name == "test.outer").unwrap();
        let inner = spans.iter().find(|s| s.name == "test.inner").unwrap();
        assert_eq!(inner.parent, Some(outer.id));
        assert_eq!(inner.owner, 42);
        assert!(outer.start_ns <= inner.start_ns && inner.end_ns <= outer.end_ns);
    }
}
