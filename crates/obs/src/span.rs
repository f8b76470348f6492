//! Hierarchical wall-clock spans with a thread-safe global collector.
//!
//! A [`span`] returns a guard; the span covers guard creation to drop.
//! Parentage is tracked per thread, so nested guards form a tree and
//! concurrent threads get independent branches. Finished spans land in a
//! global collector drained by the exporters.

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// A finished span, in nanoseconds relative to the process epoch.
#[derive(Clone, Debug)]
pub struct SpanRecord {
    /// Unique nonzero id.
    pub id: u64,
    /// Id of the enclosing span on the same thread, or 0 for roots.
    pub parent: u64,
    /// Span name (phase or phase:detail).
    pub name: String,
    /// Start offset from the process epoch, ns.
    pub start_ns: u64,
    /// Wall-clock duration, ns.
    pub dur_ns: u64,
    /// Small dense id of the recording thread.
    pub thread: u64,
}

static NEXT_ID: AtomicU64 = AtomicU64::new(1);
static NEXT_THREAD: AtomicU64 = AtomicU64::new(1);

thread_local! {
    static CURRENT: Cell<u64> = const { Cell::new(0) };
    static THREAD_ID: Cell<u64> = const { Cell::new(0) };
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

fn collector() -> &'static Mutex<Vec<SpanRecord>> {
    static SPANS: OnceLock<Mutex<Vec<SpanRecord>>> = OnceLock::new();
    SPANS.get_or_init(|| Mutex::new(Vec::new()))
}

fn thread_id() -> u64 {
    THREAD_ID.with(|t| {
        if t.get() == 0 {
            t.set(NEXT_THREAD.fetch_add(1, Ordering::Relaxed));
        }
        t.get()
    })
}

/// Starts a span named by a static string; the usual entry point.
#[inline]
pub fn span(name: &'static str) -> SpanGuard {
    if !crate::spans_enabled() {
        return SpanGuard { live: None };
    }
    start_span(name.to_string())
}

/// Starts a span with a computed name (e.g. a routine name). The name is
/// only materialized when recording is on — pass a closure.
#[inline]
pub fn span_owned<F: FnOnce() -> String>(name: F) -> SpanGuard {
    if !crate::spans_enabled() {
        return SpanGuard { live: None };
    }
    start_span(name())
}

fn start_span(name: String) -> SpanGuard {
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    let parent = CURRENT.with(|c| c.replace(id));
    let started = Instant::now();
    let start_ns = started.duration_since(epoch()).as_nanos() as u64;
    SpanGuard {
        live: Some(LiveSpan {
            id,
            parent,
            name,
            started,
            start_ns,
        }),
    }
}

struct LiveSpan {
    id: u64,
    parent: u64,
    name: String,
    started: Instant,
    start_ns: u64,
}

/// Guard for an in-progress span; records it on drop.
pub struct SpanGuard {
    live: Option<LiveSpan>,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(live) = self.live.take() else { return };
        let dur_ns = live.started.elapsed().as_nanos() as u64;
        CURRENT.with(|c| c.set(live.parent));
        let rec = SpanRecord {
            id: live.id,
            parent: live.parent,
            name: live.name,
            start_ns: live.start_ns,
            dur_ns,
            thread: thread_id(),
        };
        if let Ok(mut spans) = collector().lock() {
            spans.push(rec);
        }
    }
}

/// Snapshot of every finished span, in completion order.
pub fn snapshot_spans() -> Vec<SpanRecord> {
    collector().lock().map(|s| s.clone()).unwrap_or_default()
}

pub(crate) fn reset_spans() {
    if let Ok(mut spans) = collector().lock() {
        spans.clear();
    }
}
