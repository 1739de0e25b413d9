//! Span guards: monotonic wall-clock intervals with parent/child nesting.
//!
//! A [`span`] call returns a [`Span`] guard; the interval closes when the
//! guard drops. Spans nest per thread — the innermost open span on the
//! current thread becomes the parent of the next one — and completed
//! records accumulate in a per-thread buffer that flushes into a global
//! sink when it grows past a watermark, when a root span completes, or
//! when the thread exits. [`drain`] empties the sink for export.
//!
//! ## Cost model
//!
//! Tracing is off by default. On the disabled path `span()` performs one
//! relaxed atomic load and returns an inert guard — no clock read, no
//! allocation, no thread-local access — mirroring `dfp-fault`'s disarmed
//! fast path. Instrumentation must therefore never be *conditionally
//! compiled out*: leaving it in place costs nothing measurable and keeps
//! release and traced binaries identical in behaviour.
//!
//! Spans never alter results: guards only read the monotonic clock and
//! append to buffers. The workspace proptest suite verifies bit-identical
//! pipeline outputs with tracing on vs off.

use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

static TRACING: AtomicBool = AtomicBool::new(false);
static NEXT_SPAN_ID: AtomicU64 = AtomicU64::new(1);
static NEXT_THREAD_ID: AtomicU64 = AtomicU64::new(1);

/// Completed-span sink, drained by [`drain`] for export.
static SINK: Mutex<Vec<SpanRecord>> = Mutex::new(Vec::new());

/// Per-thread buffer watermark: flush to the sink once this many records
/// accumulate (long-lived worker threads also flush on root completion).
const FLUSH_AT: usize = 256;

/// Whether span recording is currently enabled (one relaxed load).
#[inline]
pub fn tracing_enabled() -> bool {
    TRACING.load(Ordering::Relaxed)
}

/// Globally enables or disables span recording.
///
/// Usually managed by [`crate::trace::TraceSession`]; direct use is for
/// tests and embedders.
pub fn set_tracing(on: bool) {
    if on {
        // Pin the epoch before the first span so timestamps are meaningful.
        epoch();
    }
    TRACING.store(on, Ordering::Relaxed);
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Nanoseconds since the process trace epoch (monotonic).
pub fn now_ns() -> u64 {
    epoch().elapsed().as_nanos().min(u64::MAX as u128) as u64
}

/// One completed span interval.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRecord {
    /// Static span name, dot-separated by convention (`"mine.closed"`).
    pub name: &'static str,
    /// Unique id (> 0) within the process.
    pub id: u64,
    /// Id of the enclosing span on the same thread, or 0 for roots.
    pub parent: u64,
    /// Small sequential id of the recording thread.
    pub tid: u64,
    /// Start, nanoseconds since the trace epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the trace epoch (`>= start_ns`).
    pub end_ns: u64,
    /// Attributes attached via [`Span::attr`], in insertion order.
    pub attrs: Vec<(&'static str, String)>,
}

struct ThreadBuf {
    tid: u64,
    /// Ids of currently-open spans, innermost last.
    stack: Vec<u64>,
    buf: Vec<SpanRecord>,
}

impl ThreadBuf {
    fn flush(&mut self) {
        if !self.buf.is_empty() {
            let mut sink = SINK.lock().unwrap_or_else(|e| e.into_inner());
            sink.append(&mut self.buf);
        }
    }
}

impl Drop for ThreadBuf {
    fn drop(&mut self) {
        self.flush();
    }
}

thread_local! {
    static TLS: RefCell<ThreadBuf> = RefCell::new(ThreadBuf {
        tid: NEXT_THREAD_ID.fetch_add(1, Ordering::Relaxed),
        stack: Vec::new(),
        buf: Vec::new(),
    });
}

struct SpanMeta {
    name: &'static str,
    id: u64,
    parent: u64,
    tid: u64,
    start_ns: u64,
    attrs: Vec<(&'static str, String)>,
}

/// A live span guard; the interval closes when it drops.
///
/// Inert (all methods are no-ops) when tracing was disabled at creation.
pub struct Span {
    meta: Option<SpanMeta>,
}

/// Opens a span named `name` on the current thread.
///
/// With tracing disabled this is a single relaxed atomic load.
#[inline]
pub fn span(name: &'static str) -> Span {
    if !tracing_enabled() {
        return Span { meta: None };
    }
    span_slow(name)
}

#[cold]
fn span_slow(name: &'static str) -> Span {
    let id = NEXT_SPAN_ID.fetch_add(1, Ordering::Relaxed);
    let meta = TLS
        .try_with(|tls| {
            let mut tls = tls.borrow_mut();
            let parent = tls.stack.last().copied().unwrap_or(0);
            tls.stack.push(id);
            SpanMeta {
                name,
                id,
                parent,
                tid: tls.tid,
                start_ns: now_ns(),
                attrs: Vec::new(),
            }
        })
        .ok();
    Span { meta }
}

impl Span {
    /// Whether this guard is recording.
    pub fn is_active(&self) -> bool {
        self.meta.is_some()
    }

    /// Attaches a key/value attribute (no-op when inert).
    pub fn attr(&mut self, key: &'static str, value: impl std::fmt::Display) {
        if let Some(meta) = &mut self.meta {
            meta.attrs.push((key, value.to_string()));
        }
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some(meta) = self.meta.take() else {
            return;
        };
        let end_ns = now_ns();
        let record = SpanRecord {
            name: meta.name,
            id: meta.id,
            parent: meta.parent,
            tid: meta.tid,
            start_ns: meta.start_ns,
            end_ns,
            attrs: meta.attrs,
        };
        let pushed = TLS.try_with(|tls| {
            let mut tls = tls.borrow_mut();
            // Spans drop in LIFO order, so this id is the innermost open one;
            // defend anyway against a guard smuggled across scopes.
            if tls.stack.last() == Some(&record.id) {
                tls.stack.pop();
            } else {
                tls.stack.retain(|&open| open != record.id);
            }
            tls.buf.push(record.clone());
            if tls.buf.len() >= FLUSH_AT || tls.stack.is_empty() {
                tls.flush();
            }
        });
        if pushed.is_err() {
            // Thread-local already destroyed (thread teardown): go direct.
            let mut sink = SINK.lock().unwrap_or_else(|e| e.into_inner());
            sink.push(record);
        }
    }
}

/// Flushes the calling thread's buffer and takes every completed span
/// accumulated so far. Other threads' *unflushed* buffers are not included,
/// but worker threads flush whenever a root span completes, so steady-state
/// loss is limited to spans still open elsewhere.
pub fn drain() -> Vec<SpanRecord> {
    let _ = TLS.try_with(|tls| tls.borrow_mut().flush());
    let mut sink = SINK.lock().unwrap_or_else(|e| e.into_inner());
    std::mem::take(&mut *sink)
}

/// Serialises access to the global tracing toggle across unit tests.
#[cfg(test)]
pub(crate) static TEST_LOCK: Mutex<()> = Mutex::new(());

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_spans_are_inert() {
        let _guard = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        set_tracing(false);
        drain();
        {
            let mut s = span("test.span.disabled");
            s.attr("k", 1);
            assert!(!s.is_active());
        }
        assert!(drain().iter().all(|r| r.name != "test.span.disabled"));
    }

    #[test]
    fn disabled_span_is_a_single_atomic_load() {
        let _guard = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        set_tracing(false);
        let start = std::time::Instant::now();
        const N: u32 = 1_000_000;
        for _ in 0..N {
            let _sp = span("test.span.noop");
        }
        let per_ns = start.elapsed().as_nanos() / u128::from(N);
        eprintln!("disabled span: ~{per_ns} ns/call over {N} calls");
        // Release builds measure ~1 ns; the ceiling only guards against the
        // fast path accidentally growing a lock or allocation (debug builds
        // included).
        assert!(per_ns < 1_000, "disabled span cost {per_ns} ns/call");
    }

    #[test]
    fn spans_nest_and_record() {
        let _guard = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        set_tracing(true);
        drain();
        {
            let mut outer = span("test.span.outer");
            outer.attr("n", 42);
            let _inner = span("test.span.inner");
        }
        set_tracing(false);
        let records = drain();
        let outer = records
            .iter()
            .find(|r| r.name == "test.span.outer")
            .expect("outer recorded");
        let inner = records
            .iter()
            .find(|r| r.name == "test.span.inner")
            .expect("inner recorded");
        assert_eq!(inner.parent, outer.id);
        assert_eq!(outer.parent, 0);
        assert_eq!(outer.tid, inner.tid);
        assert!(outer.start_ns <= inner.start_ns);
        assert!(inner.end_ns <= outer.end_ns);
        assert_eq!(outer.attrs, vec![("n", "42".to_string())]);
        // Inner drops first, so it is buffered before outer.
        let io = records.iter().position(|r| r.id == inner.id).unwrap();
        let oo = records.iter().position(|r| r.id == outer.id).unwrap();
        assert!(io < oo);
    }

    #[test]
    fn sibling_spans_share_a_parent() {
        let _guard = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        set_tracing(true);
        drain();
        {
            let _root = span("test.span.root");
            let _ = span("test.span.a");
            let _ = span("test.span.b");
        }
        set_tracing(false);
        let records = drain();
        let root = records.iter().find(|r| r.name == "test.span.root").unwrap();
        for child in ["test.span.a", "test.span.b"] {
            let r = records.iter().find(|r| r.name == child).unwrap();
            assert_eq!(r.parent, root.id, "{child}");
        }
    }

    #[test]
    fn cross_thread_spans_are_roots_with_distinct_tids() {
        let _guard = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        set_tracing(true);
        drain();
        let main_tid = {
            let _s = span("test.span.main");
            std::thread::spawn(|| {
                let _w = span("test.span.worker");
            })
            .join()
            .unwrap();
            TLS.with(|t| t.borrow().tid)
        };
        set_tracing(false);
        let records = drain();
        let worker = records
            .iter()
            .find(|r| r.name == "test.span.worker")
            .expect("worker flushed on thread exit");
        assert_eq!(worker.parent, 0);
        assert_ne!(worker.tid, main_tid);
    }
}
