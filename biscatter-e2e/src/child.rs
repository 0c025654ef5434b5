//! One (round, workload) slice, run in a fresh process of this binary so
//! workloads never share the process-global recorder table or metric
//! registry, and so set-up time and peak memory are the workload's own.
//!
//! The slice prints one JSON line on stdout, which the parent parses.

use std::collections::BTreeMap;
use std::time::Instant;

use biscatter_core::obs::json::Value;
use biscatter_runtime::PrecisionTier;

use crate::host;
use crate::stats::{mean, median, percentile};
use crate::traced;
use crate::workload::{round_seed, Bench, Tally, Workload, FLEET_SHARDS};

pub struct SliceArgs {
    pub workload: Workload,
    pub seed: u64,
    pub round: u64,
    /// Jobs in the round's list.
    pub frames: usize,
    /// `Some(frames to replay)` for the traced run.
    pub replay: Option<usize>,
    /// Where the traced run writes its Chrome trace.
    pub trace_file: Option<String>,
}

fn num(x: f64) -> Value {
    Value::Number(x)
}

fn object<K: Into<String>>(pairs: impl IntoIterator<Item = (K, Value)>) -> Value {
    Value::Object(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
}

fn numbers(map: &BTreeMap<String, f64>) -> Value {
    object(map.iter().map(|(k, v)| (k.clone(), num(*v))))
}

/// The end-to-end values of one round.
fn round_values(setup_s: f64, t: &Tally, peak_rss_mb: f64) -> BTreeMap<String, f64> {
    let per_frame = |x: u64| {
        if t.completed == 0 {
            0.0
        } else {
            x as f64 / t.completed as f64
        }
    };
    let q = &t.quality;
    [
        (
            "frames_per_s",
            if t.busy_s > 0.0 {
                t.completed as f64 / t.busy_s
            } else {
                0.0
            },
        ),
        ("frame_ms_mean", mean(&t.latency_ms)),
        ("frame_ms_p90", percentile(&t.latency_ms, 90.0)),
        ("setup_s", setup_s),
        (
            "frames_ok_ratio",
            t.attempted.saturating_sub(t.failures.total()) as f64 / t.attempted.max(1) as f64,
        ),
        ("downlink_ok_ratio", q.downlink_ok_ratio()),
        ("range_err_m", mean(&q.range_err_m)),
        ("uplink_bits_ok_ratio", q.uplink_bits_ok_ratio()),
        ("acquire_correct_ratio", q.acquire_correct_ratio()),
        ("allocs_per_frame", per_frame(t.allocs.count)),
        ("alloc_bytes_per_frame", per_frame(t.allocs.bytes)),
        ("peak_rss_mb", peak_rss_mb),
    ]
    .into_iter()
    .map(|(k, v)| (k.to_string(), v))
    .collect()
}

/// Runtime-layer numbers read from the flight records the program already
/// keeps: service time (the sum of its per-stage times), the rest of the
/// frame's recorded time (queue wait on the pipeline, cell bookkeeping
/// inline), and on the fleet the shard occupancy and per-tier service.
fn runtime_layers(
    bench: &Bench,
    t: &Tally,
    h: &host::Delta,
) -> (BTreeMap<String, f64>, BTreeMap<String, f64>) {
    let service: Vec<f64> = t.records.iter().map(|r| r.stages.total() as f64).collect();
    let wait: Vec<f64> = t
        .records
        .iter()
        .map(|r| r.total_ns.saturating_sub(r.stages.total()) as f64)
        .collect();
    let total: f64 = t.records.iter().map(|r| r.total_ns as f64).sum();
    let mut layers = BTreeMap::new();
    layers.insert("runtime.service.ns".to_string(), median(&service));
    layers.insert("runtime.wait.ns".to_string(), median(&wait));
    layers.insert(
        "runtime.wait.share".to_string(),
        if total > 0.0 {
            100.0 * wait.iter().sum::<f64>() / total
        } else {
            0.0
        },
    );
    layers.insert("process.cpu_util".to_string(), h.cpu_util);
    layers.insert("host.runq_wait_share".to_string(), h.runq_wait_share);

    let mut extra = BTreeMap::new();
    if bench.workload == Workload::FleetMobility {
        extra.insert(
            "fleet.shard.busy_share".to_string(),
            if t.busy_s > 0.0 {
                total * 1e-9 / (t.busy_s * FLEET_SHARDS as f64)
            } else {
                0.0
            },
        );
        extra.insert("fleet.handoffs".to_string(), t.handoffs as f64);
        extra.insert(
            "fleet.admission.drops".to_string(),
            t.failures.dropped as f64,
        );
        extra.insert(
            "fleet.admission.rejects".to_string(),
            t.failures.rejected as f64,
        );
        for tier in [PrecisionTier::F64, PrecisionTier::F32] {
            let v: Vec<f64> = t
                .records
                .iter()
                .filter(|r| bench.cell_tier(r.cell_id as usize) == tier)
                .map(|r| r.stages.total() as f64)
                .collect();
            extra.insert(
                format!("fleet.frame.service.{}.ns", tier.name()),
                median(&v),
            );
        }
    }
    (layers, extra)
}

/// Runs the slice and returns the line the parent reads.
pub fn run(a: &SliceArgs) -> Value {
    let t0 = Instant::now();
    let bench = Bench::prepare(a.workload, round_seed(a.seed, a.round), a.frames);
    let setup_s = t0.elapsed().as_secs_f64();

    // The traced run measures the runtime numbers on this untraced pass
    // before it replays.
    let mut tally = Tally::default();
    let before = host::Sample::now();
    bench.run(&mut tally);
    let h = before.delta_to(&host::Sample::now());
    let peak_rss_mb = host::peak_rss_mb();

    let f = &tally.failures;
    let mut fields: Vec<(&str, Value)> = vec![
        ("workload", Value::String(a.workload.name().into())),
        ("round", num(a.round as f64)),
        (
            "values",
            numbers(&round_values(setup_s, &tally, peak_rss_mb)),
        ),
        (
            "latency_ms",
            Value::Array(tally.latency_ms.iter().map(|&x| num(x)).collect()),
        ),
        (
            "frame_keys",
            Value::Array(tally.frame_keys.iter().map(|&k| num(k as f64)).collect()),
        ),
        ("attempted", num(tally.attempted as f64)),
        (
            "failures",
            object([
                ("missing", num(f.missing as f64)),
                ("duplicated", num(f.duplicated as f64)),
                ("dropped", num(f.dropped as f64)),
                ("rejected", num(f.rejected as f64)),
                ("panicked", num(f.panicked as f64)),
            ]),
        ),
        ("quality", tally.quality.to_json()),
        (
            "host",
            object([
                ("wall_s", num(h.wall_s)),
                ("runq_wait_share", num(h.runq_wait_share)),
                ("cpu_util", num(h.cpu_util)),
                ("steal_share", num(h.steal_share)),
            ]),
        ),
    ];
    let mut errors = Vec::new();
    if let Some(frames) = a.replay {
        let replay = traced::replay(&bench, frames);
        let (mut layers, mut extra) = runtime_layers(&bench, &tally, &h);
        layers.extend(replay.layers);
        extra.extend(replay.extra);
        extra.insert("trace.frames".to_string(), replay.frames as f64);
        errors.extend(replay.errors);
        if let Some(path) = &a.trace_file {
            let trace = replay.spans.chrome_trace(a.workload.name()).to_compact();
            if let Err(e) = std::fs::write(path, trace) {
                eprintln!("e2e: could not write {path}: {e}");
            }
        }
        fields.push(("layers", numbers(&layers)));
        fields.push(("extra", numbers(&extra)));
    }
    fields.push((
        "errors",
        Value::Array(errors.into_iter().map(Value::String).collect()),
    ));
    object(fields)
}
