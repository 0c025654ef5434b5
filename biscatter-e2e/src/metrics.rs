//! The metric tables: the names, units, directions and regression bounds
//! this benchmark reports. `BENCHMARK.json` at the repository root declares
//! the same tables; a unit test keeps the two in step.

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn name(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the baseline median by which the metric may worsen before
    /// a change counts as a regression (end-to-end metrics only).
    pub bound: f64,
}

const fn m(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound,
    }
}

use Better::{Higher, Lower};

/// What a user of the system sees, measured with tracing off. Each is the
/// median over a set's rounds of the round's value.
pub const END_TO_END: [Metric; 12] = [
    m("frames_per_s", "1/s", Higher, 0.25),
    m("frame_ms_mean", "ms", Lower, 0.25),
    m("frame_ms_p90", "ms", Lower, 0.25),
    m("setup_s", "s", Lower, 0.25),
    m("frames_ok_ratio", "ratio", Higher, 0.01),
    m("downlink_ok_ratio", "ratio", Higher, 0.07),
    m("range_err_m", "m", Lower, 0.05),
    m("uplink_bits_ok_ratio", "ratio", Higher, 0.09),
    m("acquire_correct_ratio", "ratio", Higher, 0.01),
    m("allocs_per_frame", "count", Lower, 0.09),
    m("alloc_bytes_per_frame", "B", Lower, 0.09),
    m("peak_rss_mb", "MiB", Lower, 0.04),
];

/// Per-layer metrics of the traced run that exist on every workload (the
/// set `--trace 1` prints). Layers that only some workloads run — the
/// acquisition stage's own times, the fleet's shards — are written to the
/// `--out` file only, where they apply.
pub const PER_LAYER: [Metric; 41] = [
    m("frame.ns", "ns", Lower, 0.0),
    m("core.synthesize.ns", "ns", Lower, 0.0),
    m("radar.sequence.ns", "ns", Lower, 0.0),
    m("rf.tag_capture.ns", "ns", Lower, 0.0),
    m("tag.decode.ns", "ns", Lower, 0.0),
    m("tag.period.ns", "ns", Lower, 0.0),
    m("tag.slot_timing.ns", "ns", Lower, 0.0),
    m("tag.decide.ns", "ns", Lower, 0.0),
    m("rf.dechirp.ns", "ns", Lower, 0.0),
    m("radar.align.ns", "ns", Lower, 0.0),
    m("radar.doppler.ns", "ns", Lower, 0.0),
    m("radar.detect.ns", "ns", Lower, 0.0),
    m("runtime.service.ns", "ns", Lower, 0.0),
    m("runtime.wait.ns", "ns", Lower, 0.0),
    m("core.synthesize.share", "%", Lower, 0.0),
    m("radar.sequence.share", "%", Lower, 0.0),
    m("rf.tag_capture.share", "%", Lower, 0.0),
    m("tag.decode.share", "%", Lower, 0.0),
    m("tag.period.share", "%", Lower, 0.0),
    m("tag.slot_timing.share", "%", Lower, 0.0),
    m("tag.decide.share", "%", Lower, 0.0),
    m("rf.dechirp.share", "%", Lower, 0.0),
    m("radar.align.share", "%", Lower, 0.0),
    m("radar.doppler.share", "%", Lower, 0.0),
    m("radar.detect.share", "%", Lower, 0.0),
    m("radar.acquire.capture.share", "%", Lower, 0.0),
    m("radar.acquire.correlate.share", "%", Lower, 0.0),
    m("runtime.wait.share", "%", Lower, 0.0),
    m("core.synthesize.allocs", "count", Lower, 0.0),
    m("rf.tag_capture.allocs", "count", Lower, 0.0),
    m("tag.decode.allocs", "count", Lower, 0.0),
    m("rf.dechirp.allocs", "count", Lower, 0.0),
    m("radar.align.allocs", "count", Lower, 0.0),
    m("radar.doppler.allocs", "count", Lower, 0.0),
    m("radar.detect.allocs", "count", Lower, 0.0),
    m("radar.acquire.allocs", "count", Lower, 0.0),
    m("radar.detect.located_ratio", "ratio", Higher, 0.0),
    m("radar.acquire.useful_ratio", "ratio", Higher, 0.0),
    m("process.cpu_util", "ratio", Higher, 0.0),
    m("host.runq_wait_share", "ratio", Lower, 0.0),
    m("trace.overhead_pct", "%", Lower, 0.0),
];

#[cfg(test)]
pub fn end_to_end(name: &str) -> Option<&'static Metric> {
    END_TO_END.iter().find(|m| m.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use biscatter_core::obs::json::{parse, Value};

    fn declared(doc: &Value, key: &str) -> Vec<(String, String, String, Option<f64>)> {
        doc.get(key)
            .and_then(Value::as_array)
            .expect("metric list")
            .iter()
            .map(|m| {
                let s = |k| m.get(k).and_then(Value::as_str).expect(k).to_string();
                (
                    s("name"),
                    s("unit"),
                    s("better"),
                    m.get("bound").and_then(Value::as_f64),
                )
            })
            .collect()
    }

    /// `BENCHMARK.json` declares exactly the tables this binary reports.
    #[test]
    fn benchmark_json_matches_the_metric_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("read BENCHMARK.json");
        let doc = parse(&text).expect("BENCHMARK.json parses");
        let e2e: Vec<_> = END_TO_END
            .iter()
            .map(|m| {
                let unit = m.unit.to_string();
                (
                    m.name.to_string(),
                    unit,
                    m.better.name().to_string(),
                    Some(m.bound),
                )
            })
            .collect();
        assert_eq!(declared(&doc, "end_to_end"), e2e);
        let layers: Vec<_> = PER_LAYER
            .iter()
            .map(|m| {
                let unit = m.unit.to_string();
                (m.name.to_string(), unit, m.better.name().to_string(), None)
            })
            .collect();
        assert_eq!(declared(&doc, "per_layer"), layers);
        let workloads: Vec<_> = doc
            .get("workloads")
            .and_then(Value::as_array)
            .expect("workloads")
            .iter()
            .map(|w| {
                w.get("name")
                    .and_then(Value::as_str)
                    .expect("name")
                    .to_string()
            })
            .collect();
        let ours: Vec<_> = crate::workload::DEFAULT.iter().map(|w| w.name()).collect();
        assert_eq!(workloads, ours);
    }

    #[test]
    fn names_are_unique() {
        let mut names: Vec<_> = END_TO_END
            .iter()
            .chain(&PER_LAYER)
            .map(|m| m.name)
            .collect();
        names.sort_unstable();
        let n = names.len();
        names.dedup();
        assert_eq!(names.len(), n);
    }
}
