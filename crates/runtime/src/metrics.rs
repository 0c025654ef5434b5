//! Streaming-run metrics: frame counts, end-to-end latency, and a copy of
//! the metric registry.
//!
//! The histogram types themselves ([`LatencyHistogram`], [`LatencySnapshot`])
//! live in [`biscatter_obs::metrics`] so every crate can record latencies;
//! they are re-exported here unchanged. Per-stage time is not kept here: it
//! is measured once per frame into the flight recorder's `StageNanos`. A
//! [`MetricsSnapshot`] is an immutable copy taken after a run — including a
//! [`RegistrySnapshot`] of every registered metric — exportable as text or
//! JSON via [`biscatter_core::json`].

use std::time::Duration;

use biscatter_core::json::Value;

pub use biscatter_obs::metrics::{LatencyHistogram, LatencySnapshot, RegistrySnapshot};

/// Full metrics picture of one streaming run.
#[derive(Debug, Clone)]
pub struct MetricsSnapshot {
    /// End-to-end latency of completed frames (job queued -> outcome).
    pub end_to_end: LatencySnapshot,
    /// Frames that produced an outcome.
    pub frames_completed: u64,
    /// Frames whose processing panicked (contained by their worker).
    pub frames_failed: u64,
    /// Frames the intake shed: evicted under drop-oldest plus refused under
    /// reject backpressure.
    pub total_drops: u64,
    pub elapsed: Duration,
    /// Every metric in the global registry at snapshot time (plan cache,
    /// compute pool, multitag, queue gauges, frame counters, ...). Cumulative per
    /// process, unlike the per-run counts above.
    pub registry: RegistrySnapshot,
}

impl MetricsSnapshot {
    /// Completed frames per wall-clock second.
    pub fn frames_per_sec(&self) -> f64 {
        if self.elapsed.is_zero() {
            return 0.0;
        }
        self.frames_completed as f64 / self.elapsed.as_secs_f64()
    }

    /// Renders a human-readable summary, followed by the registry metrics
    /// listing.
    pub fn to_text(&self) -> String {
        let e = &self.end_to_end;
        let mut out = format!(
            "stream: {} frames in {:.3} s ({:.1} frames/s), {} dropped, {} failed\n\
             end-to-end: p50 {:.1?} p90 {:.1?} p99 {:.1?} max {:.1?}\n",
            self.frames_completed,
            self.elapsed.as_secs_f64(),
            self.frames_per_sec(),
            self.total_drops,
            self.frames_failed,
            e.percentile(0.50),
            e.percentile(0.90),
            e.percentile(0.99),
            e.max(),
        );
        if !self.registry.is_empty() {
            out.push_str("registry:\n");
            out.push_str(&self.registry.to_text());
        }
        out
    }

    /// Renders the snapshot as a JSON value (registry metrics included
    /// under `"registry"`).
    pub fn to_json(&self) -> Value {
        let mut root = std::collections::BTreeMap::new();
        for (k, v) in [
            ("frames_completed", self.frames_completed as f64),
            ("frames_failed", self.frames_failed as f64),
            ("total_drops", self.total_drops as f64),
            ("elapsed_s", self.elapsed.as_secs_f64()),
            ("frames_per_sec", self.frames_per_sec()),
        ] {
            root.insert(k.to_string(), Value::Number(v));
        }
        root.insert(
            "end_to_end".to_string(),
            Value::Object(self.end_to_end.json_fields()),
        );
        root.insert("registry".to_string(), self.registry.to_json());
        Value::Object(root)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_renders_text_and_json() {
        let e2e = LatencyHistogram::default();
        e2e.record(Duration::from_millis(2));
        biscatter_obs::registry()
            .counter("runtime.metrics_test")
            .inc();
        let snap = MetricsSnapshot {
            end_to_end: e2e.snapshot(),
            frames_completed: 2,
            frames_failed: 1,
            total_drops: 0,
            elapsed: Duration::from_millis(10),
            registry: biscatter_obs::registry().snapshot(),
        };
        let text = snap.to_text();
        for want in ["2 frames", "1 failed", "end-to-end", "registry:"] {
            assert!(text.contains(want), "{want} missing from {text}");
        }
        let json = snap.to_json().to_pretty();
        let parsed = biscatter_core::json::parse(&json).expect("snapshot JSON parses");
        let field = |k: &str| parsed.get(k).and_then(Value::as_f64);
        assert_eq!(field("frames_completed"), Some(2.0));
        assert_eq!(field("frames_failed"), Some(1.0));
        assert!(parsed
            .get("registry")
            .and_then(|r| r.get("counters"))
            .is_some());
    }
}
