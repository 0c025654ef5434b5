//! The traced run: rebuilds frames from the program's public stage
//! functions, with a span around each call, to say where a frame's time
//! and allocations go.
//!
//! The replay calls exactly what `Cell::process` composes — synthesis,
//! dechirp, align, Doppler and detect on the cell's tier, and for cold-start
//! frames the capture and correlator bank first — and checks that every
//! replayed outcome is bit-identical to `Cell::process` on the same job, so
//! the budget describes the code that runs. The tag-side layers inside
//! synthesis are timed by calling them again on the same job, under a
//! `tag.side` root span of their own: the frame sequencer, the tag's
//! envelope capture, and the downlink decoder with its period and
//! slot-timing searches. Synthesis's own time and the decoder's decision
//! time are therefore derived by subtraction, not read off the span tree.
//!
//! Spans are kept in memory and written at the end as a Chrome trace. A
//! layer's self time is its duration minus its children's.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

use biscatter_core::dsp::signal::NoiseSource;
use biscatter_core::isac::precision::{
    align_stage_into_f32, dechirp_stage_into_f32, detect_stage_with_f32, doppler_stage_into_f32,
    AlignedPair32,
};
use biscatter_core::isac::{
    acquire_config, acquire_hypotheses, align_stage_into, dechirp_stage_into, detect_stage_multi,
    detect_stage_with, doppler_stage_into, synthesize_cold_start_capture, synthesize_frame,
    AlignedPair, ColdStartOutcome, IsacOutcome,
};
use biscatter_core::link::packet::DownlinkPacket;
use biscatter_core::obs::json::Value;
use biscatter_core::radar::receiver::acquire::{
    acquire_all, AcquireScratch, CorrelatorBank, HypothesisScore,
};
use biscatter_core::radar::receiver::doppler::RangeDopplerMap;
use biscatter_core::radar::receiver::multitag::{MultiTagScratch, TagBank};
use biscatter_core::radar::sequencer::isac_frame;
use biscatter_core::rf::frame::MAX_DUTY;
use biscatter_core::rf::slab::{SampleSlab, SampleSlab32};
use biscatter_core::system::BiScatterSystem;
use biscatter_core::tag::acquisition::{estimate_period, estimate_slot_timing};
use biscatter_core::tag::decoder::DownlinkDecoder;
use biscatter_runtime::compute::ComputePool;
use biscatter_runtime::{Cell, FrameJob, PrecisionTier};

use crate::alloc::{self, Allocs};
use crate::stats::median;
use crate::workload::{Bench, Drive, Outcome, Workload};

/// One timed call.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    /// Replay sequence number of the frame the span belongs to.
    pub frame: u64,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub dur_ns: u64,
    /// Allocations inside the span, children included.
    pub allocs: u64,
    open_allocs: Allocs,
}

/// In-memory span store. Capacity is reserved up front so recording a span
/// does not itself allocate inside an enclosing span.
pub struct Spans {
    epoch: Instant,
    pub spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Spans {
    pub fn with_capacity(n: usize) -> Spans {
        Spans {
            epoch: Instant::now(),
            spans: Vec::with_capacity(n),
            stack: Vec::with_capacity(16),
        }
    }

    pub fn begin(&mut self, name: &'static str, frame: u64) -> usize {
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            frame,
            parent: self.stack.last().copied(),
            start_ns: 0,
            dur_ns: 0,
            allocs: 0,
            open_allocs: Allocs::default(),
        });
        self.stack.push(id);
        let s = &mut self.spans[id];
        s.open_allocs = alloc::snapshot();
        s.start_ns = self.epoch.elapsed().as_nanos() as u64;
        id
    }

    pub fn end(&mut self, id: usize) {
        let now = self.epoch.elapsed().as_nanos() as u64;
        let allocs = alloc::snapshot();
        let s = &mut self.spans[id];
        s.dur_ns = now - s.start_ns;
        s.allocs = allocs.since(s.open_allocs).count;
        let top = self.stack.pop();
        debug_assert_eq!(top, Some(id), "spans close in order");
    }

    /// Runs `f` inside a span.
    pub fn time<R>(&mut self, name: &'static str, frame: u64, f: impl FnOnce() -> R) -> R {
        let id = self.begin(name, frame);
        let r = f();
        self.end(id);
        r
    }

    /// Chrome trace-event JSON (load in `chrome://tracing` or Perfetto).
    pub fn chrome_trace(&self, workload: &str) -> Value {
        let obj = |pairs: Vec<(&str, Value)>| {
            Value::Object(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
        };
        let num = |x: f64| Value::Number(x);
        let mut events = vec![obj(vec![
            ("name", Value::String("thread_name".into())),
            ("ph", Value::String("M".into())),
            ("pid", num(1.0)),
            ("tid", num(1.0)),
            (
                "args",
                obj(vec![(
                    "name",
                    Value::String(format!("e2e replay: {workload}")),
                )]),
            ),
        ])];
        for s in &self.spans {
            let parent = s
                .parent
                .map_or(Value::Null, |p| Value::String(self.spans[p].name.into()));
            events.push(obj(vec![
                ("name", Value::String(s.name.into())),
                (
                    "cat",
                    Value::String(s.name.split('.').next().unwrap_or("").into()),
                ),
                ("ph", Value::String("X".into())),
                ("ts", num(s.start_ns as f64 / 1e3)),
                ("dur", num(s.dur_ns as f64 / 1e3)),
                ("pid", num(1.0)),
                ("tid", num(1.0)),
                (
                    "args",
                    obj(vec![
                        ("frame_id", num(s.frame as f64)),
                        ("parent", parent),
                        ("allocs", num(s.allocs as f64)),
                    ]),
                ),
            ]));
        }
        obj(vec![
            ("traceEvents", Value::Array(events)),
            ("displayTimeUnit", Value::String("ns".into())),
        ])
    }
}

/// Reused stage buffers, so the replay runs warm like the cell's arena
/// (after one untimed frame per tier).
#[derive(Default)]
struct Buffers {
    slab: SampleSlab,
    slab32: SampleSlab32,
    pair: AlignedPair,
    pair32: AlignedPair32,
    map: RangeDopplerMap,
    mean_power: Vec<f64>,
    bank: TagBank,
    multitag: MultiTagScratch,
    capture: Vec<f64>,
    acq_bank: CorrelatorBank,
    acq_scratch: AcquireScratch,
    scores: Vec<HypothesisScore>,
}

/// The five aligned stages of one frame, each in its span.
fn replay_aligned(
    sp: &mut Spans,
    frame: u64,
    pool: &ComputePool,
    sys: &BiScatterSystem,
    job: &FrameJob,
    tier: PrecisionTier,
    b: &mut Buffers,
) -> IsacOutcome {
    let (scenario, seed) = (&job.scenario, job.seed);
    let synth = sp.time("core.synthesize", frame, || {
        synthesize_frame(sys, scenario, &job.payload, seed)
    });
    // The f32 tier serves single-tag frames; batched multi-tag detection
    // stays on the f64 path (as in `run_isac_frame_f32_with_times`).
    if tier == PrecisionTier::F32 && scenario.extra_tags.is_empty() {
        sp.time("rf.dechirp", frame, || {
            dechirp_stage_into_f32(pool, sys, &synth.train, &synth.scene, seed, &mut b.slab32)
        });
        sp.time("radar.align", frame, || {
            align_stage_into_f32(pool, sys, &synth.train, &b.slab32, &mut b.pair32)
        });
        sp.time("radar.doppler", frame, || {
            doppler_stage_into_f32(pool, &b.pair32, &mut b.map)
        });
        return sp.time("radar.detect", frame, || {
            detect_stage_with_f32(
                scenario,
                &b.pair32,
                &b.map,
                synth.downlink,
                &mut b.mean_power,
            )
        });
    }
    sp.time("rf.dechirp", frame, || {
        dechirp_stage_into(pool, sys, &synth.train, &synth.scene, seed, &mut b.slab)
    });
    sp.time("radar.align", frame, || {
        align_stage_into(pool, sys, &synth.train, &b.slab, &mut b.pair)
    });
    sp.time("radar.doppler", frame, || {
        doppler_stage_into(pool, &b.pair, &mut b.map)
    });
    sp.time("radar.detect", frame, || {
        if scenario.extra_tags.is_empty() {
            detect_stage_with(scenario, &b.pair, &b.map, synth.downlink, &mut b.mean_power)
        } else {
            detect_stage_multi(
                pool,
                scenario,
                &b.pair,
                &b.map,
                synth.downlink,
                &mut b.bank,
                &mut b.multitag,
                &mut b.mean_power,
            )
        }
    })
}

/// The tag-side layers of synthesis, called again on the same job under
/// their own root span. Returns the payload the decoder recovered (empty
/// when it could not parse one), which must equal what synthesis got.
fn replay_tag_side(sp: &mut Spans, frame: u64, sys: &BiScatterSystem, job: &FrameJob) -> Vec<u8> {
    let root = sp.begin("tag.side", frame);
    let packet = DownlinkPacket::new(job.payload.clone());
    let (train, _, _) = sp
        .time("radar.sequence", frame, || {
            isac_frame(&packet, &sys.alphabet, sys.radar.t_period, sys.frame_chirps)
        })
        .expect("alphabet durations satisfy the duty constraint by construction");
    let snr_db = sys.downlink_snr_at(job.scenario.tag_range_m);
    let mut noise = NoiseSource::new(job.seed);
    let adc = sp.time("rf.tag_capture", frame, || {
        sys.front_end.capture_train(&train, snr_db, 0.0, &mut noise)
    });
    let decoder = DownlinkDecoder::new(sys.nominal_decider());
    let decoded = sp.time("tag.decode", frame, || {
        decoder.decode(&adc, Some(job.payload.len()))
    });
    let fs = decoder.decider.fs;
    let coarse = sp.time("tag.period", frame, || {
        estimate_period(&adc, fs, decoder.t_period_min, decoder.t_period_max)
    });
    if let Some(coarse_s) = coarse {
        let coarse = (coarse_s * fs).round() as usize;
        sp.time("tag.slot_timing", frame, || {
            black_box(estimate_slot_timing(&adc, coarse, 1.0 - MAX_DUTY))
        });
    }
    sp.end(root);
    decoded
        .ok()
        .and_then(|r| r.payload.ok())
        .unwrap_or_default()
}

/// One replayed frame: the `frame` root span over exactly the work
/// `Cell::process` (or `process_cold_start`) does, then the tag-side
/// layers outside it.
fn replay_frame(
    sp: &mut Spans,
    frame: u64,
    bench: &Bench,
    job: &FrameJob,
    tier: PrecisionTier,
    b: &mut Buffers,
) -> (Outcome, Option<Vec<u8>>) {
    let (sys, pool) = (&bench.sys, &bench.pool);
    let root = sp.begin("frame", frame);
    let outcome = if bench.workload == Workload::ColdStart {
        sp.time("radar.acquire.capture", frame, || {
            synthesize_cold_start_capture(sys, &job.scenario, job.seed, &mut b.capture)
        });
        let acquisition = sp.time("radar.acquire.correlate", frame, || {
            let cfg = acquire_config(sys);
            b.acq_bank.set_hypotheses(&acquire_hypotheses(sys));
            acquire_all(
                pool,
                &mut b.acq_bank,
                &cfg,
                &b.capture,
                &mut b.acq_scratch,
                &mut b.scores,
            )
        });
        let frame_out = acquisition.map(|_| replay_aligned(sp, frame, pool, sys, job, tier, b));
        Outcome::Cold(ColdStartOutcome {
            acquisition,
            scores: b.scores.clone(),
            frame: frame_out,
        })
    } else {
        Outcome::Warm(replay_aligned(sp, frame, pool, sys, job, tier, b))
    };
    sp.end(root);
    let synthesized = match &outcome {
        Outcome::Warm(_) | Outcome::Cold(ColdStartOutcome { frame: Some(_), .. }) => true,
        Outcome::Cold(_) => false,
    };
    let decoded = synthesized.then(|| replay_tag_side(sp, frame, sys, job));
    (outcome, decoded)
}

/// The replay's findings.
pub struct Replay {
    pub frames: u64,
    /// Per-layer metrics (every [`crate::metrics::PER_LAYER`] name except
    /// the runtime and host ones, which come from the untraced phase).
    pub layers: BTreeMap<String, f64>,
    /// Layer numbers that only some workloads have.
    pub extra: BTreeMap<String, f64>,
    /// Every bit-identity or decode mismatch, one line each.
    pub errors: Vec<String>,
    pub spans: Spans,
}

/// Layers reported with a median time and a share of the frame.
const TIMED: [&str; 11] = [
    "core.synthesize",
    "radar.sequence",
    "rf.tag_capture",
    "tag.decode",
    "tag.period",
    "tag.slot_timing",
    "tag.decide",
    "rf.dechirp",
    "radar.align",
    "radar.doppler",
    "radar.detect",
];

/// Layers reported with their allocations per frame (children included).
const COUNTED: [&str; 7] = [
    "core.synthesize",
    "rf.tag_capture",
    "tag.decode",
    "rf.dechirp",
    "radar.align",
    "radar.doppler",
    "radar.detect",
];

/// Measured spans that together cover a frame's work with no overlap:
/// the tag-side calls inside synthesis and every stage after it. Their sum
/// over the untraced `Cell::process` time says how much of a frame the
/// named layers account for; synthesis's own work and the gaps between
/// calls make up the rest.
const LEAVES: [&str; 9] = [
    "radar.sequence",
    "rf.tag_capture",
    "tag.decode",
    "rf.dechirp",
    "radar.align",
    "radar.doppler",
    "radar.detect",
    "radar.acquire.capture",
    "radar.acquire.correlate",
];

/// Replays the workload's first `first` jobs once each.
pub fn replay(bench: &Bench, first: usize) -> Replay {
    let jobs: Vec<(&Cell, &FrameJob)> = match &bench.drive {
        Drive::Inline { cell, jobs } | Drive::Pipeline { cell, jobs } => {
            jobs.iter().take(first).map(|j| (cell, j)).collect()
        }
        Drive::Fleet { fleet, jobs, .. } => jobs
            .iter()
            .take(first)
            .map(|cj| (&fleet.cells()[cj.cell], &cj.job))
            .collect(),
    };
    // Fourteen spans per frame at most.
    let mut sp = Spans::with_capacity(jobs.len() * 14);
    let mut b = Buffers::default();
    // One untimed frame per tier first, so the buffers, the correlator
    // bank and the plans are warm before any span is kept, as the cell's
    // arena is after set-up.
    for tier in [PrecisionTier::F64, PrecisionTier::F32] {
        if let Some(&(_, job)) = jobs.iter().find(|(c, _)| c.config().precision == tier) {
            replay_frame(&mut Spans::with_capacity(14), 0, bench, job, tier, &mut b);
        }
    }
    let mut errors = Vec::new();
    let mut untraced_ns = Vec::new();
    let (mut searched, mut located, mut hypotheses, mut accepted) = (0u64, 0u64, 0u64, 0u64);
    let mut n = 0u64;
    for &(cell, job) in &jobs {
        let tier = cell.config().precision;
        // The reference: the cell's own call on the job, untraced.
        let t0 = Instant::now();
        let want = bench.process(cell, job);
        untraced_ns.push(t0.elapsed().as_nanos() as f64);
        let (got, decoded) = replay_frame(&mut sp, n, bench, job, tier, &mut b);
        if got != want {
            errors.push(format!(
                "{} job {} ({}): replayed outcome differs from the cell's",
                bench.workload.name(),
                job.id,
                tier.name()
            ));
        }
        if let Outcome::Cold(c) = &got {
            hypotheses += c.scores.len() as u64;
            accepted += c.acquisition.is_some() as u64;
        }
        let synthesized = match &got {
            Outcome::Warm(o) | Outcome::Cold(ColdStartOutcome { frame: Some(o), .. }) => Some(o),
            Outcome::Cold(_) => None,
        };
        if let Some(o) = synthesized {
            if o.tags.is_empty() {
                searched += 1;
                located += o.location.is_some() as u64;
            } else {
                searched += o.tags.len() as u64;
                located += o.tags.iter().filter(|t| t.location.is_some()).count() as u64;
            }
        }
        if let (Some(o), Some(decoded)) = (synthesized, decoded) {
            if decoded != o.downlink.received {
                errors.push(format!(
                    "{} job {}: decoder payload {:?} differs from synthesis {:?}",
                    bench.workload.name(),
                    job.id,
                    decoded,
                    o.downlink.received
                ));
            }
        }
        n += 1;
    }
    let (mut layers, extra) = budget(&sp, &untraced_ns);
    let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
    layers.insert(
        "radar.detect.located_ratio".into(),
        ratio(located, searched),
    );
    layers.insert(
        "radar.acquire.useful_ratio".into(),
        ratio(accepted, hypotheses),
    );
    Replay {
        frames: n,
        layers,
        extra,
        errors,
        spans: sp,
    }
}

/// Per-frame layer times and allocations from the spans, with the two
/// derived self times.
fn per_frame(sp: &Spans) -> Vec<BTreeMap<&'static str, (f64, f64)>> {
    let mut frames: Vec<BTreeMap<&'static str, (f64, f64)>> = Vec::new();
    for s in &sp.spans {
        let f = s.frame as usize;
        if frames.len() <= f {
            frames.resize_with(f + 1, BTreeMap::new);
        }
        frames[f].insert(s.name, (s.dur_ns as f64, s.allocs as f64));
    }
    for f in &mut frames {
        let ns = |f: &BTreeMap<&str, (f64, f64)>, k: &str| f.get(k).map_or(0.0, |v| v.0);
        if let Some(&(decode, _)) = f.get("tag.decode") {
            let decide = decode - ns(f, "tag.period") - ns(f, "tag.slot_timing");
            f.insert("tag.decide", (decide, 0.0));
        }
        if let Some(&(synth, _)) = f.get("core.synthesize") {
            let own =
                synth - ns(f, "radar.sequence") - ns(f, "rf.tag_capture") - ns(f, "tag.decode");
            f.insert("core.synthesize.self", (own, 0.0));
        }
    }
    frames
}

fn budget(sp: &Spans, untraced_ns: &[f64]) -> (BTreeMap<String, f64>, BTreeMap<String, f64>) {
    let frames = per_frame(sp);
    let values = |k: &str, which: fn(&(f64, f64)) -> f64| -> Vec<f64> {
        frames.iter().filter_map(|f| f.get(k).map(which)).collect()
    };
    // `fold` from +0.0: an empty `sum()` of floats is -0.0.
    let total = |v: Vec<f64>| v.iter().fold(0.0, |a, x| a + x);
    let frame_total = total(values("frame", |v| v.0));
    let share = |k: &str| {
        let sum = total(values(k, |v| v.0));
        if frame_total > 0.0 {
            100.0 * sum / frame_total
        } else {
            0.0
        }
    };

    let mut layers = BTreeMap::new();
    let frame_ns = median(&values("frame", |v| v.0));
    layers.insert("frame.ns".to_string(), frame_ns);
    for k in TIMED {
        layers.insert(format!("{k}.ns"), median(&values(k, |v| v.0)));
        layers.insert(format!("{k}.share"), share(k));
    }
    for k in ["radar.acquire.capture", "radar.acquire.correlate"] {
        layers.insert(format!("{k}.share"), share(k));
    }
    for k in COUNTED {
        layers.insert(format!("{k}.allocs"), median(&values(k, |v| v.1)));
    }
    let acquire_allocs: Vec<f64> = frames
        .iter()
        .filter(|f| f.contains_key("radar.acquire.correlate"))
        .map(|f| {
            f.get("radar.acquire.capture").map_or(0.0, |v| v.1)
                + f.get("radar.acquire.correlate").map_or(0.0, |v| v.1)
        })
        .collect();
    layers.insert("radar.acquire.allocs".to_string(), median(&acquire_allocs));
    let untraced = median(untraced_ns);
    let overhead = if untraced > 0.0 {
        100.0 * (frame_ns - untraced) / untraced
    } else {
        0.0
    };
    layers.insert("trace.overhead_pct".to_string(), overhead);

    // Synthesis minus its tag-side parts is derived from calls made
    // twice, so it is a small difference of noisy times; it goes to the
    // `--out` file, not the per-layer set.
    let mut extra = BTreeMap::new();
    extra.insert(
        "core.synthesize.self.ns".to_string(),
        median(&values("core.synthesize.self", |v| v.0)),
    );
    extra.insert(
        "core.synthesize.self.share".to_string(),
        share("core.synthesize.self"),
    );
    for k in ["radar.acquire.capture", "radar.acquire.correlate"] {
        let v = values(k, |v| v.0);
        if !v.is_empty() {
            extra.insert(format!("{k}.ns"), median(&v));
        }
    }
    let leaves: f64 = LEAVES.iter().map(|k| total(values(k, |v| v.0))).sum();
    let untraced_total = total(untraced_ns.to_vec());
    if untraced_total > 0.0 {
        extra.insert(
            "trace.leaf_coverage_pct".to_string(),
            100.0 * leaves / untraced_total,
        );
    }
    extra.insert("trace.untraced_frame.ns".to_string(), untraced);
    (layers, extra)
}
