//! Lightweight tracing: spans into preallocated per-thread rings, drained
//! into Chrome trace-event JSON that Perfetto / `chrome://tracing` loads
//! directly.
//!
//! Cost model, in order of importance:
//!
//! * **Disabled** (the default): creating a span is one relaxed atomic load
//!   and a branch. No clocks are read, no thread-locals touched.
//! * **Enabled, steady state**: a span reads the monotonic clock twice and
//!   pushes one fixed-size [`SpanRecord`] into this thread's ring — a
//!   `Mutex` lock that is uncontended except while a collector drains, and
//!   **zero heap allocation** (the workspace's counting-allocator audits run
//!   with tracing enabled to enforce this).
//! * **Enabled, first span on a thread**: the ring (a `Vec` at full
//!   capacity) and the thread-name string are allocated once and registered
//!   globally; warm-up iterations absorb this.
//!
//! Rings are bounded: once full they overwrite the oldest record and count
//! it in `dropped`, so a forgotten `set_enabled(true)` costs bounded memory.
//! Each record carries the frame id that was current on the recording
//! thread (see [`frame_scope`]); the compute pool forwards the spawning
//! thread's frame id into its workers, so one frame's spans line up across
//! pipeline stages *and* pool workers when the trace is opened in Perfetto.

use std::cell::{Cell, OnceCell};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use crate::json::Value;

/// Sentinel frame id meaning "no frame in scope".
pub const NO_FRAME: u64 = u64::MAX;

/// Default per-thread ring capacity, in span records (~40 B each).
pub const DEFAULT_RING_CAPACITY: usize = 16 * 1024;

static ENABLED: AtomicBool = AtomicBool::new(false);
static RING_CAPACITY: AtomicUsize = AtomicUsize::new(DEFAULT_RING_CAPACITY);
static NEXT_TID: AtomicU64 = AtomicU64::new(1);

/// Whether span recording is on. This is the *entire* disabled-path cost.
#[inline(always)]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turns span recording on or off, process-wide. Spans already open keep
/// the armed/disarmed state they were created with.
pub fn set_enabled(on: bool) {
    if on {
        epoch(); // pin t=0 before the first span reads the clock
    }
    ENABLED.store(on, Ordering::Relaxed);
}

/// Sets the capacity (in records) of rings created *after* this call;
/// existing rings keep their size. Returns the previous value.
pub fn set_ring_capacity(records: usize) -> usize {
    RING_CAPACITY.swap(records.max(1), Ordering::Relaxed)
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Nanoseconds since the trace epoch (pinned at first use / first enable).
#[inline]
pub fn now_ns() -> u64 {
    epoch().elapsed().as_nanos() as u64
}

/// One completed span, as stored in the rings.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanRecord {
    /// Static span name, `subsystem.detail` by convention.
    pub name: &'static str,
    /// Frame id in scope when the span was recorded, or [`NO_FRAME`].
    pub frame_id: u64,
    /// Start, nanoseconds since the trace epoch.
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
}

struct RingState {
    buf: Vec<SpanRecord>,
    /// Overwrite cursor once `buf` is at capacity.
    next: usize,
    /// Records overwritten (lost) since the last drain.
    dropped: u64,
}

struct Ring {
    thread: String,
    tid: u64,
    state: Mutex<RingState>,
}

impl Ring {
    fn push(&self, rec: SpanRecord) {
        let mut st = crate::lock(&self.state);
        if st.buf.len() < st.buf.capacity() {
            st.buf.push(rec);
        } else {
            let i = st.next;
            st.buf[i] = rec;
            st.next = (i + 1) % st.buf.len();
            st.dropped += 1;
        }
    }

    /// Copies out records oldest-first and resets the ring (capacity kept).
    fn drain(&self) -> (Vec<SpanRecord>, u64) {
        let mut st = crate::lock(&self.state);
        let split = st.next;
        let mut spans = Vec::with_capacity(st.buf.len());
        spans.extend_from_slice(&st.buf[split..]);
        spans.extend_from_slice(&st.buf[..split]);
        let dropped = st.dropped;
        st.buf.clear();
        st.next = 0;
        st.dropped = 0;
        (spans, dropped)
    }
}

fn all_rings() -> &'static Mutex<Vec<Arc<Ring>>> {
    static RINGS: OnceLock<Mutex<Vec<Arc<Ring>>>> = OnceLock::new();
    RINGS.get_or_init(|| Mutex::new(Vec::new()))
}

thread_local! {
    static LOCAL_RING: OnceCell<Arc<Ring>> = const { OnceCell::new() };
    static CURRENT_FRAME: Cell<u64> = const { Cell::new(NO_FRAME) };
}

fn new_ring() -> Arc<Ring> {
    let tid = NEXT_TID.fetch_add(1, Ordering::Relaxed);
    let thread = match std::thread::current().name() {
        Some(n) => n.to_string(),
        None => format!("thread-{tid}"),
    };
    let cap = RING_CAPACITY.load(Ordering::Relaxed);
    let ring = Arc::new(Ring {
        thread,
        tid,
        state: Mutex::new(RingState {
            buf: Vec::with_capacity(cap),
            next: 0,
            dropped: 0,
        }),
    });
    crate::lock(all_rings()).push(Arc::clone(&ring));
    ring
}

#[inline]
fn record(rec: SpanRecord) {
    LOCAL_RING.with(|cell| cell.get_or_init(new_ring).push(rec));
}

/// Records an already-measured span (used where the caller timed the work
/// itself, e.g. the compute pool's per-worker drain loops). No-op when
/// tracing is disabled.
#[inline]
pub fn record_span(name: &'static str, frame_id: u64, start_ns: u64, dur_ns: u64) {
    if !enabled() {
        return;
    }
    record(SpanRecord {
        name,
        frame_id,
        start_ns,
        dur_ns,
    });
}

/// The frame id currently in scope on this thread, or [`NO_FRAME`].
#[inline]
pub fn current_frame() -> u64 {
    CURRENT_FRAME.with(Cell::get)
}

/// Guard restoring the previous frame id on drop. See [`frame_scope`].
pub struct FrameScope {
    prev: u64,
}

/// Marks `frame_id` as the frame being processed on this thread until the
/// returned guard drops. Spans created meanwhile (on this thread, or on
/// pool workers the compute layer forwards the id to) are tagged with it.
#[must_use = "the frame id is only in scope while the guard lives"]
pub fn frame_scope(frame_id: u64) -> FrameScope {
    FrameScope {
        prev: CURRENT_FRAME.with(|f| f.replace(frame_id)),
    }
}

impl Drop for FrameScope {
    fn drop(&mut self) {
        CURRENT_FRAME.with(|f| f.set(self.prev));
    }
}

/// An open span; records itself into this thread's ring when dropped.
/// Created by [`span`] / [`span_frame`] (or the [`crate::span!`] macro).
#[must_use = "a span measures until it is dropped; bind it to a variable"]
pub struct Span {
    name: &'static str,
    frame_id: u64,
    start_ns: u64,
    armed: bool,
}

/// Opens a span tagged with this thread's current frame id. When tracing is
/// disabled this is one atomic load plus a branch.
#[inline]
pub fn span(name: &'static str) -> Span {
    if !enabled() {
        return Span {
            name,
            frame_id: NO_FRAME,
            start_ns: 0,
            armed: false,
        };
    }
    Span {
        name,
        frame_id: current_frame(),
        start_ns: now_ns(),
        armed: true,
    }
}

/// Opens a span tagged with an explicit frame id.
#[inline]
pub fn span_frame(name: &'static str, frame_id: u64) -> Span {
    if !enabled() {
        return Span {
            name,
            frame_id: NO_FRAME,
            start_ns: 0,
            armed: false,
        };
    }
    Span {
        name,
        frame_id,
        start_ns: now_ns(),
        armed: true,
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if !self.armed {
            return;
        }
        let end = now_ns();
        record(SpanRecord {
            name: self.name,
            frame_id: self.frame_id,
            start_ns: self.start_ns,
            dur_ns: end.saturating_sub(self.start_ns),
        });
    }
}

/// Everything recorded by one thread since the previous drain.
#[derive(Debug, Clone)]
pub struct ThreadTrace {
    /// Thread name (from `std::thread`, or `thread-<tid>`).
    pub thread: String,
    /// Stable per-ring id, used as `tid` in the Chrome trace.
    pub tid: u64,
    /// Records lost to ring overwrite since the previous drain.
    pub dropped: u64,
    /// Completed spans, oldest first.
    pub spans: Vec<SpanRecord>,
}

/// A drained set of per-thread traces, convertible to Chrome trace-event
/// JSON. Draining empties the rings (capacity retained), so successive
/// collections see disjoint spans.
#[derive(Debug, Clone, Default)]
pub struct TraceCollector {
    /// One entry per thread that recorded at least one span ever.
    pub threads: Vec<ThreadTrace>,
}

impl TraceCollector {
    /// Folds `other` into `self`: spans append per thread (matched by
    /// `tid`), dropped counts sum, previously-unseen threads are adopted.
    /// Used by the re-entrant dump accumulator, where successive drains of
    /// the same process must concatenate rather than clobber.
    pub fn merge(&mut self, other: TraceCollector) {
        for t in other.threads {
            match self.threads.iter_mut().find(|own| own.tid == t.tid) {
                Some(own) => {
                    own.dropped += t.dropped;
                    own.spans.extend(t.spans);
                }
                None => self.threads.push(t),
            }
        }
    }

    /// Drains every registered ring.
    pub fn drain() -> TraceCollector {
        let rings = crate::lock(all_rings());
        TraceCollector {
            threads: rings
                .iter()
                .map(|r| {
                    let (spans, dropped) = r.drain();
                    ThreadTrace {
                        thread: r.thread.clone(),
                        tid: r.tid,
                        dropped,
                        spans,
                    }
                })
                .collect(),
        }
    }

    /// Total spans across all threads.
    pub fn span_count(&self) -> usize {
        self.threads.iter().map(|t| t.spans.len()).sum()
    }

    /// Iterates all spans with their originating thread's `tid`.
    pub fn iter_spans(&self) -> impl Iterator<Item = (u64, &SpanRecord)> {
        self.threads
            .iter()
            .flat_map(|t| t.spans.iter().map(move |s| (t.tid, s)))
    }

    /// Converts to a Chrome trace-event document:
    /// `{"traceEvents": [...]}`, with one `"X"` (complete) event per span —
    /// `ts`/`dur` in microseconds, `cat` set to the span's subsystem (the
    /// name prefix before the first `.`), and `args.frame_id` when the span
    /// had a frame in scope — plus one `thread_name` metadata event per
    /// thread. Load it in <https://ui.perfetto.dev> or `chrome://tracing`.
    pub fn chrome_trace(&self) -> Value {
        self.chrome_trace_extra([])
    }

    /// [`chrome_trace`](Self::chrome_trace) plus extra top-level keys
    /// (Perfetto ignores unknown keys), e.g. a registry snapshot under
    /// `"registry"`.
    pub fn chrome_trace_extra(&self, extra: impl IntoIterator<Item = (String, Value)>) -> Value {
        let mut events = Vec::with_capacity(self.span_count() + self.threads.len());
        for t in &self.threads {
            let mut meta = BTreeMap::new();
            meta.insert("name".to_string(), Value::String("thread_name".to_string()));
            meta.insert("ph".to_string(), Value::String("M".to_string()));
            meta.insert("pid".to_string(), Value::Number(1.0));
            meta.insert("tid".to_string(), Value::Number(t.tid as f64));
            let mut args = BTreeMap::new();
            args.insert("name".to_string(), Value::String(t.thread.clone()));
            meta.insert("args".to_string(), Value::Object(args));
            events.push(Value::Object(meta));
            for s in &t.spans {
                let mut ev = BTreeMap::new();
                ev.insert("name".to_string(), Value::String(s.name.to_string()));
                let cat = s.name.split('.').next().unwrap_or(s.name);
                ev.insert("cat".to_string(), Value::String(cat.to_string()));
                ev.insert("ph".to_string(), Value::String("X".to_string()));
                ev.insert("ts".to_string(), Value::Number(s.start_ns as f64 / 1e3));
                ev.insert("dur".to_string(), Value::Number(s.dur_ns as f64 / 1e3));
                ev.insert("pid".to_string(), Value::Number(1.0));
                ev.insert("tid".to_string(), Value::Number(t.tid as f64));
                if s.frame_id != NO_FRAME {
                    let mut args = BTreeMap::new();
                    args.insert("frame_id".to_string(), Value::Number(s.frame_id as f64));
                    ev.insert("args".to_string(), Value::Object(args));
                }
                events.push(Value::Object(ev));
            }
        }
        let mut root = BTreeMap::new();
        root.insert("traceEvents".to_string(), Value::Array(events));
        for (k, v) in extra {
            root.insert(k, v);
        }
        Value::Object(root)
    }
}

/// Summary of one [`export_accumulated`] call.
#[derive(Debug, Clone, Copy)]
pub struct ExportSummary {
    /// Spans in the written file (cumulative across every export so far).
    pub spans: usize,
    /// Threads that recorded at least one span.
    pub threads: usize,
}

fn accumulator() -> &'static Mutex<TraceCollector> {
    static ACCUM: OnceLock<Mutex<TraceCollector>> = OnceLock::new();
    ACCUM.get_or_init(|| Mutex::new(TraceCollector::default()))
}

/// Drains every ring into a process-global accumulator and writes the
/// *cumulative* Chrome trace (every span recorded since process start, plus
/// `extra` top-level keys) to `path`.
///
/// This is the re-entrant alternative to hand-rolling
/// [`TraceCollector::drain`] + write at the end of a run: draining empties
/// the rings, so two runs (two cells, a fleet of pipelines, or repeated
/// runs in one test process) each doing their own drain-and-write would
/// clobber the file with only the most recent run's spans. Here every
/// caller folds its drain into the shared accumulator and rewrites the full
/// picture — concurrent exporters serialize on the accumulator lock and the
/// last write contains everything. Extra keys are supplied per call (the
/// registry snapshot is cumulative anyway), and the rings stay registered,
/// so tracing keeps recording after an export.
pub fn export_accumulated(
    path: &str,
    extra: impl IntoIterator<Item = (String, Value)>,
) -> std::io::Result<ExportSummary> {
    let (doc, summary) = accumulated_chrome_trace(extra);
    std::fs::write(path, doc.to_pretty())?;
    Ok(summary)
}

/// The in-memory flavor of [`export_accumulated`]: drains every ring into
/// the process-global accumulator and returns the cumulative Chrome trace
/// document (plus `extra` top-level keys) without touching the filesystem.
/// The `/trace` scrape endpoint serves this directly, and it composes with
/// later `export_accumulated` calls — both fold into the same accumulator.
pub fn accumulated_chrome_trace(
    extra: impl IntoIterator<Item = (String, Value)>,
) -> (Value, ExportSummary) {
    let mut accum = crate::lock(accumulator());
    accum.merge(TraceCollector::drain());
    let doc = accum.chrome_trace_extra(extra);
    let summary = ExportSummary {
        spans: accum.span_count(),
        threads: accum.threads.len(),
    };
    (doc, summary)
}

#[cfg(test)]
mod tests {
    use super::*;

    // Tracing state is process-global, so everything lives in one #[test]
    // to avoid cross-test interference under the parallel test runner.
    #[test]
    fn spans_rings_and_chrome_export() {
        // Disabled: no record, not even a ring.
        assert!(!enabled());
        drop(span("off.disabled"));
        set_enabled(true);

        {
            let _fs = frame_scope(7);
            let _s = span("stage.align");
            let _inner = span_frame("stage.inner", 9);
        }
        drop(span("stage.noframe"));
        record_span("pool.worker", 7, 10, 20);

        let t = std::thread::Builder::new()
            .name("worker-x".to_string())
            .spawn(|| {
                let _fs = frame_scope(7);
                drop(span("pool.remote"));
            })
            .unwrap();
        t.join().unwrap();
        set_enabled(false);

        let col = TraceCollector::drain();
        assert_eq!(col.span_count(), 5);
        let names: Vec<&str> = col.iter_spans().map(|(_, s)| s.name).collect();
        assert!(!names.contains(&"off.disabled"));
        let align = col
            .iter_spans()
            .find(|(_, s)| s.name == "stage.align")
            .unwrap()
            .1;
        assert_eq!(align.frame_id, 7);
        let inner = col
            .iter_spans()
            .find(|(_, s)| s.name == "stage.inner")
            .unwrap()
            .1;
        assert_eq!(inner.frame_id, 9);
        // Drop order: inner closes before align, which closes before the
        // frame scope, so both saw frame 7 state correctly restored after.
        assert_eq!(current_frame(), NO_FRAME);
        let noframe = col
            .iter_spans()
            .find(|(_, s)| s.name == "stage.noframe")
            .unwrap()
            .1;
        assert_eq!(noframe.frame_id, NO_FRAME);
        assert!(col
            .threads
            .iter()
            .any(|t| t.thread == "worker-x" && t.spans.iter().any(|s| s.frame_id == 7)));

        let doc = col.chrome_trace_extra([(
            "registry".to_string(),
            Value::String("placeholder".to_string()),
        )]);
        let parsed = crate::json::parse(&doc.to_pretty()).unwrap();
        let events = parsed.get("traceEvents").and_then(Value::as_array).unwrap();
        // 5 spans + one metadata event per thread that ever recorded.
        let metas = events
            .iter()
            .filter(|e| e.get("ph").and_then(Value::as_str) == Some("M"))
            .count();
        let xs: Vec<&Value> = events
            .iter()
            .filter(|e| e.get("ph").and_then(Value::as_str) == Some("X"))
            .collect();
        assert_eq!(xs.len(), 5);
        assert!(metas >= 2);
        let ev = xs
            .iter()
            .find(|e| e.get("name").and_then(Value::as_str) == Some("pool.worker"))
            .unwrap();
        assert_eq!(ev.get("cat").and_then(Value::as_str), Some("pool"));
        assert_eq!(
            ev.get("args")
                .and_then(|a| a.get("frame_id"))
                .and_then(Value::as_f64),
            Some(7.0)
        );
        assert_eq!(ev.get("dur").and_then(Value::as_f64), Some(0.02));
        assert!(parsed.get("registry").is_some());

        // Second drain sees nothing (rings were emptied).
        assert_eq!(TraceCollector::drain().span_count(), 0);

        // Ring overwrite: tiny capacity on a dedicated thread.
        set_ring_capacity(4);
        set_enabled(true);
        std::thread::spawn(|| {
            for i in 0..10u64 {
                record_span("ring.item", i, i, 1);
            }
        })
        .join()
        .unwrap();
        set_enabled(false);
        set_ring_capacity(DEFAULT_RING_CAPACITY);
        let col = TraceCollector::drain();
        let small = col
            .threads
            .iter()
            .find(|t| t.dropped > 0)
            .expect("the tiny ring overwrote");
        assert_eq!(small.dropped, 6);
        // Oldest-first after wrap: frames 6..=9 survive.
        let ids: Vec<u64> = small.spans.iter().map(|s| s.frame_id).collect();
        assert_eq!(ids, vec![6, 7, 8, 9]);
    }
}
