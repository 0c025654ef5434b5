//! Always-on per-frame flight recorder.
//!
//! Everything the registry exports is cumulative; everything the tracer
//! exports is a span. Neither can answer "why did cell 7 stop decoding tag
//! 12 forty seconds ago" — that needs the last N *frames* as structured
//! records. This module keeps a fixed-capacity ring of [`FrameRecord`]s per
//! cell, filled by the runtime on every processed frame:
//!
//! * **Zero steady-state allocation.** Each ring is a `Vec` preallocated at
//!   full capacity; recording copies one `Copy` struct under a mutex that
//!   is uncontended except while a reader snapshots. The workspace's
//!   counting-allocator audits run with the recorder enabled and still
//!   assert exactly 0 allocations.
//! * **Bounded memory.** Once full, a ring overwrites oldest-first and
//!   counts the overwritten records, like the trace rings.
//! * **Structured.** A record carries the frame id, per-stage nanoseconds
//!   ([`StageNanos`], filled by the frame entry points in `core::isac`),
//!   whether the frame failed, the located SNR, the acquisition PSLR, decoded-bit and
//!   CFAR counts, and the cumulative queue/admission drop count at capture
//!   time — the exact signals the [`crate::health`] engine and the
//!   [`crate::serve`] `/frames` endpoint consume.
//!
//! Rings are registered in a process-global table keyed by cell id
//! ([`for_cell`]), so the scrape server can find every cell's recorder
//! without the runtime handing it references.

use std::sync::{Arc, Mutex, OnceLock};

use crate::json::Value;
use crate::trace;

/// Default per-cell ring capacity, in frame records (~136 B each).
pub const DEFAULT_CAPACITY: usize = 1024;

/// Per-stage processing time of one frame, nanoseconds. Filled by the
/// frame entry points (`core::isac::run_frame` and
/// `core::isac::run_cold_start_frame`); stages that did not run (e.g.
/// `acquire` on a warm frame) stay 0.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StageNanos {
    /// Stage 0: cold-start correlator-bank acquisition (0 on warm frames).
    pub acquire: u64,
    /// Stage 1: frame synthesis (tag-side capture + symbol decisions).
    pub synthesize: u64,
    /// Stage 2: dechirp to IF.
    pub dechirp: u64,
    /// Stage 3: range alignment.
    pub align: u64,
    /// Stage 4: slow-time Doppler map.
    pub doppler: u64,
    /// Stage 5: CFAR + localization + uplink decode.
    pub detect: u64,
}

impl StageNanos {
    /// Sum over all stages.
    pub fn total(&self) -> u64 {
        self.acquire + self.synthesize + self.dechirp + self.align + self.doppler + self.detect
    }
}

/// One processed frame, as captured by the runtime. `Copy`, so recording is
/// a struct store with no ownership transfer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FrameRecord {
    /// Frame id (the job's monotonically increasing id).
    pub frame_id: u64,
    /// Cell that processed the frame.
    pub cell_id: u32,
    /// Capture timestamp, nanoseconds since the trace epoch
    /// ([`trace::now_ns`]) — lines records up with trace spans.
    pub t_ns: u64,
    /// End-to-end time of the frame, nanoseconds: from when it entered the
    /// cell (its job was queued, on a streaming cell) to when it finished.
    pub total_ns: u64,
    /// Per-stage service time; `total_ns - stages.total()` is the time the
    /// frame waited.
    pub stages: StageNanos,
    /// The frame panicked and produced no outcome (its other fields then
    /// carry no measurements).
    pub failed: bool,
    /// Post-processing SNR of the located tag signature, dB. `NaN` when the
    /// tag was not located this frame.
    pub snr_db: f64,
    /// Acquisition PSLR, dB. `NaN` on warm (non-cold-start) frames and on
    /// rejected acquisitions.
    pub pslr_db: f64,
    /// Uplink bits decoded this frame (primary tag plus batched tags).
    pub decoded_bits: u32,
    /// CFAR detections from the sensing path.
    pub cfar_detections: u32,
    /// Cumulative queue + admission drops charged to this cell at capture
    /// time. Successive records difference into a live drop *rate*.
    pub queue_drops: u64,
}

impl FrameRecord {
    /// Renders the record as a JSON object (one `/frames` JSONL line).
    /// Non-finite `snr_db`/`pslr_db` become `null`, the workspace's pinned
    /// JSON behavior for non-finite numbers.
    pub fn to_json(&self) -> Value {
        let mut m = std::collections::BTreeMap::new();
        m.insert("frame_id".to_string(), Value::Number(self.frame_id as f64));
        m.insert("cell_id".to_string(), Value::Number(self.cell_id as f64));
        m.insert("t_ns".to_string(), Value::Number(self.t_ns as f64));
        m.insert("total_ns".to_string(), Value::Number(self.total_ns as f64));
        for (k, v) in [
            ("acquire_ns", self.stages.acquire),
            ("synthesize_ns", self.stages.synthesize),
            ("dechirp_ns", self.stages.dechirp),
            ("align_ns", self.stages.align),
            ("doppler_ns", self.stages.doppler),
            ("detect_ns", self.stages.detect),
        ] {
            m.insert(k.to_string(), Value::Number(v as f64));
        }
        m.insert("failed".to_string(), Value::Bool(self.failed));
        m.insert("snr_db".to_string(), Value::Number(self.snr_db));
        m.insert("pslr_db".to_string(), Value::Number(self.pslr_db));
        m.insert(
            "decoded_bits".to_string(),
            Value::Number(self.decoded_bits as f64),
        );
        m.insert(
            "cfar_detections".to_string(),
            Value::Number(self.cfar_detections as f64),
        );
        m.insert(
            "queue_drops".to_string(),
            Value::Number(self.queue_drops as f64),
        );
        Value::Object(m)
    }
}

struct RecorderState {
    buf: Vec<FrameRecord>,
    /// Overwrite cursor once `buf` is at capacity.
    next: usize,
    /// Records overwritten (lost) since creation.
    overwritten: u64,
    /// Records ever pushed. Readers use deltas of this to know how many
    /// records arrived since their last look.
    total: u64,
}

/// A fixed-capacity ring of [`FrameRecord`]s for one cell.
pub struct FlightRecorder {
    cell_id: u32,
    state: Mutex<RecorderState>,
}

impl FlightRecorder {
    /// A recorder holding the most recent `capacity` records.
    pub fn with_capacity(cell_id: u32, capacity: usize) -> Self {
        FlightRecorder {
            cell_id,
            state: Mutex::new(RecorderState {
                buf: Vec::with_capacity(capacity.max(1)),
                next: 0,
                overwritten: 0,
                total: 0,
            }),
        }
    }

    /// Records one frame. Zero heap allocation: the ring was sized at
    /// construction, so this is a mutex lock and a struct store.
    pub fn record(&self, rec: FrameRecord) {
        let mut st = crate::lock(&self.state);
        st.total += 1;
        if st.buf.len() < st.buf.capacity() {
            st.buf.push(rec);
        } else {
            let i = st.next;
            st.buf[i] = rec;
            st.next = (i + 1) % st.buf.len();
            st.overwritten += 1;
        }
    }

    /// Copies the ring out oldest-first *without* clearing it — the
    /// recorder keeps flying while dashboards read. Allocates (scrape path,
    /// not frame path).
    pub fn snapshot(&self) -> Vec<FrameRecord> {
        let st = crate::lock(&self.state);
        let mut out = Vec::with_capacity(st.buf.len());
        out.extend_from_slice(&st.buf[st.next..]);
        out.extend_from_slice(&st.buf[..st.next]);
        out
    }

    /// Records ever pushed into this ring.
    pub fn total_recorded(&self) -> u64 {
        crate::lock(&self.state).total
    }

    /// Records lost to ring overwrite since creation.
    pub fn overwritten(&self) -> u64 {
        crate::lock(&self.state).overwritten
    }
}

fn table() -> &'static Mutex<Vec<Arc<FlightRecorder>>> {
    static TABLE: OnceLock<Mutex<Vec<Arc<FlightRecorder>>>> = OnceLock::new();
    TABLE.get_or_init(|| Mutex::new(Vec::new()))
}

/// The process-wide recorder for `cell_id`, created on first use with
/// [`DEFAULT_CAPACITY`] records.
/// Handles are `Arc` clones of one ring per cell id: the runtime's cell and
/// the scrape server resolve the same storage. Cache the handle — this
/// takes the table lock.
pub fn for_cell(cell_id: u32) -> Arc<FlightRecorder> {
    let mut t = crate::lock(table());
    if let Some(r) = t.iter().find(|r| r.cell_id == cell_id) {
        return Arc::clone(r);
    }
    let r = Arc::new(FlightRecorder::with_capacity(cell_id, DEFAULT_CAPACITY));
    t.push(Arc::clone(&r));
    r
}

/// Every registered recorder, ascending by cell id.
pub fn all() -> Vec<Arc<FlightRecorder>> {
    let mut v: Vec<Arc<FlightRecorder>> = crate::lock(table()).iter().cloned().collect();
    v.sort_by_key(|r| r.cell_id);
    v
}

/// Dumps every cell's ring as JSONL: one [`FrameRecord::to_json`] object
/// per line, cells ascending, oldest record first within a cell. This is
/// the `/frames` payload and the offline post-mortem format.
pub fn dump_jsonl() -> String {
    let mut out = String::new();
    for rec in all() {
        for r in rec.snapshot() {
            out.push_str(&r.to_json().to_compact());
            out.push('\n');
        }
    }
    out
}

/// A capture-time timestamp for [`FrameRecord::t_ns`] (trace-epoch ns).
pub fn now_ns() -> u64 {
    trace::now_ns()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(frame_id: u64) -> FrameRecord {
        FrameRecord {
            frame_id,
            cell_id: 3,
            t_ns: frame_id * 10,
            total_ns: 100,
            stages: StageNanos {
                dechirp: 40,
                align: 30,
                doppler: 20,
                detect: 10,
                ..StageNanos::default()
            },
            failed: false,
            snr_db: 21.5,
            pslr_db: f64::NAN,
            decoded_bits: 8,
            cfar_detections: 2,
            queue_drops: 0,
        }
    }

    #[test]
    fn ring_overwrites_oldest_first() {
        let r = FlightRecorder::with_capacity(3, 4);
        for i in 0..10 {
            r.record(rec(i));
        }
        assert_eq!(r.total_recorded(), 10);
        assert_eq!(r.overwritten(), 6);
        let snap = r.snapshot();
        let ids: Vec<u64> = snap.iter().map(|x| x.frame_id).collect();
        assert_eq!(ids, vec![6, 7, 8, 9]);
        // Snapshot does not clear: a second reader sees the same tail.
        assert_eq!(r.snapshot().len(), 4);
    }

    #[test]
    fn stage_total_sums_stages() {
        assert_eq!(rec(0).stages.total(), 100);
    }

    #[test]
    fn jsonl_line_round_trips_with_nan_as_null() {
        let line = rec(7).to_json().to_compact();
        let v = crate::json::parse(&line).unwrap();
        assert_eq!(v.get("frame_id").and_then(Value::as_f64), Some(7.0));
        assert_eq!(v.get("snr_db").and_then(Value::as_f64), Some(21.5));
        // NaN PSLR follows the pinned JSON rule: emitted as null.
        assert_eq!(v.get("pslr_db"), Some(&Value::Null));
        assert_eq!(v.get("dechirp_ns").and_then(Value::as_f64), Some(40.0));
    }

    #[test]
    fn global_table_shares_rings_by_cell_id() {
        let a = for_cell(900);
        let b = for_cell(900);
        a.record(FrameRecord {
            cell_id: 900,
            ..rec(1)
        });
        assert_eq!(b.total_recorded(), 1);
        assert!(all().iter().any(|r| r.cell_id == 900));
        assert!(dump_jsonl().contains("\"cell_id\":900.0"));
    }

    #[test]
    fn poisoned_ring_and_table_keep_recording() {
        let r = for_cell(901);
        let on_cell = |id| FrameRecord {
            cell_id: 901,
            ..rec(id)
        };
        r.record(on_cell(1));
        crate::poison(&r.state);
        crate::poison(table());
        r.record(on_cell(2));
        assert_eq!((r.total_recorded(), r.overwritten()), (2, 0));
        let ids: Vec<u64> = r.snapshot().iter().map(|x| x.frame_id).collect();
        assert_eq!(ids, vec![1, 2]);
        assert!(Arc::ptr_eq(&for_cell(901), &r));
        assert!(all().iter().any(|x| x.cell_id == 901));
        assert_eq!(dump_jsonl().matches("\"cell_id\":901.0").count(), 2);
    }
}
