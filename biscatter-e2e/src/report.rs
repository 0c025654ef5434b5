//! Folding a set's slices into per-workload metrics, printing them, and
//! writing the `--out` file and the final result line.

use std::collections::BTreeMap;

use biscatter_core::obs::json::Value;

use crate::check::Quality;
use crate::metrics::{END_TO_END, PER_LAYER};
use crate::stats::{mean, median, percentile, quartiles};
use crate::workload::Workload;

/// The percentile `frame_ms_p90` reports.
const TAIL_PCT: f64 = 90.0;

/// One metric over a set: its headline value and the per-round values its
/// spread comes from.
#[derive(Debug, Clone, PartialEq)]
pub struct Agg {
    pub value: f64,
    pub rounds: Vec<f64>,
}

#[derive(Debug, Default)]
pub struct Summary {
    pub attempted: u64,
    pub failed: u64,
    pub failures: BTreeMap<String, f64>,
    pub quality: Quality,
    pub errors: Vec<String>,
    pub metrics: BTreeMap<&'static str, Agg>,
    pub layers: BTreeMap<String, f64>,
    pub extra: BTreeMap<String, f64>,
    /// Per-run host readings: run-queue wait, CPU use, steal.
    pub host: BTreeMap<String, Vec<f64>>,
    /// Each frame's better latency over its round's runs, ms, one list per
    /// round.
    pub latency_ms: Vec<Vec<f64>>,
    /// Every run's own frame latencies, ms, in the order the runs ended.
    pub run_latency_ms: Vec<Vec<f64>>,
    /// Every run's own end-to-end values, in the same order.
    pub run_values: Vec<BTreeMap<String, f64>>,
}

fn f(v: &Value, k: &str) -> f64 {
    v.get(k).and_then(Value::as_f64).unwrap_or(0.0)
}

fn floats(v: &Value, k: &str) -> Vec<f64> {
    v.get(k)
        .and_then(Value::as_array)
        .map(|a| a.iter().filter_map(Value::as_f64).collect())
        .unwrap_or_default()
}

/// Each frame's lower latency over the runs of one round, matched by the
/// runs' `frame_keys` (by position where a run has none). Both runs hold the
/// same jobs, so the lower time is the frame's cost with less of the host's
/// other load in it.
fn best_latencies(runs: &[&Value]) -> Vec<f64> {
    let mut best: BTreeMap<u64, f64> = BTreeMap::new();
    for v in runs {
        let keys = floats(v, "frame_keys");
        for (i, x) in floats(v, "latency_ms").into_iter().enumerate() {
            let key = keys.get(i).map_or(i as u64, |&k| k as u64);
            best.entry(key).and_modify(|b| *b = b.min(x)).or_insert(x);
        }
    }
    best.into_values().collect()
}

fn numbers(v: Option<&Value>) -> BTreeMap<String, f64> {
    match v {
        Some(Value::Object(m)) => m
            .iter()
            .filter_map(|(k, v)| v.as_f64().map(|x| (k.clone(), x)))
            .collect(),
        _ => BTreeMap::new(),
    }
}

impl Summary {
    /// Folds the slices of one workload: the runs of each round (one per
    /// sweep) into that round's values, then the rounds into the set's. A
    /// slice that failed to run at all arrives as `Err` and makes the set
    /// incorrect.
    ///
    /// Within a round, the timings come from each frame's better run; the
    /// quality counts and range error are the same in every run of the
    /// round's jobs (a difference is an error), and memory is averaged over
    /// the runs. `setup_s` keeps every run's own value.
    pub fn fold(workload: Workload, slices: &[Result<Value, String>]) -> Summary {
        let mut s = Summary::default();
        let mut by_round: BTreeMap<u64, Vec<&Value>> = BTreeMap::new();
        for slice in slices {
            let v = match slice {
                Ok(v) => v,
                Err(e) => {
                    s.errors.push(format!("{}: {e}", workload.name()));
                    continue;
                }
            };
            s.attempted += f(v, "attempted") as u64;
            for (k, x) in numbers(v.get("failures")) {
                s.failed += x as u64;
                *s.failures.entry(k).or_default() += x;
            }
            s.run_latency_ms.push(floats(v, "latency_ms"));
            s.run_values.push(numbers(v.get("values")));
            for (k, x) in numbers(v.get("host")) {
                s.host.entry(k).or_default().push(x);
            }
            s.layers.extend(numbers(v.get("layers")));
            s.extra.extend(numbers(v.get("extra")));
            if let Some(errs) = v.get("errors").and_then(Value::as_array) {
                s.errors
                    .extend(errs.iter().filter_map(Value::as_str).map(str::to_string));
            }
            by_round.entry(f(v, "round") as u64).or_default().push(v);
        }

        let mut rounds: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        for (round, runs) in &by_round {
            let quality = |v: &Value| v.get("quality").map(Quality::from_json);
            if runs.iter().any(|v| quality(v) != quality(runs[0])) {
                s.errors.push(format!(
                    "{} round {round}: the same jobs gave different outcomes in two runs",
                    workload.name()
                ));
            }
            if let Some(q) = quality(runs[0]) {
                s.quality.add(&q);
            }
            let values: Vec<BTreeMap<String, f64>> =
                runs.iter().map(|v| numbers(v.get("values"))).collect();
            let of_runs = |name: &str| -> Vec<f64> {
                values.iter().filter_map(|m| m.get(name).copied()).collect()
            };
            let best = best_latencies(runs);
            for m in &END_TO_END {
                let x = match m.name {
                    // Inline, a frame's latency is the program's busy time;
                    // the threaded workloads keep their better run's rate.
                    "frames_per_s" if workload.inline() && !best.is_empty() => {
                        Some(best.len() as f64 / (best.iter().sum::<f64>() * 1e-3))
                    }
                    "frames_per_s" => of_runs(m.name).into_iter().reduce(f64::max),
                    "frame_ms_mean" | "frame_ms_p90" if best.is_empty() => None,
                    "frame_ms_mean" => Some(mean(&best)),
                    "frame_ms_p90" => Some(percentile(&best, TAIL_PCT)),
                    "setup_s" => {
                        rounds.entry(m.name).or_default().extend(of_runs(m.name));
                        continue;
                    }
                    "allocs_per_frame" | "alloc_bytes_per_frame" | "peak_rss_mb" => {
                        Some(of_runs(m.name))
                            .filter(|v| !v.is_empty())
                            .map(|v| mean(&v))
                    }
                    _ => values[0].get(m.name).copied(),
                };
                if let Some(x) = x {
                    rounds.entry(m.name).or_default().push(x);
                }
            }
            s.latency_ms.push(best);
        }
        // The median over rounds shrugs off a round that host load slowed.
        // Two kinds of metric are taken over the whole set instead, with the
        // per-round values kept for the spread: the tail, because a round
        // alone has too few frames beyond its 90th percentile (2 of 20 on
        // `warehouse_k24`); and the ratios of counts, so that one wrong
        // frame anywhere in the set moves them.
        let p90 = percentile(&s.pooled_latency_ms(), TAIL_PCT);
        let frames_ok = s.attempted.saturating_sub(s.failed) as f64 / s.attempted.max(1) as f64;
        let q = &s.quality;
        let over_set = [
            ("frame_ms_p90", p90),
            ("frames_ok_ratio", frames_ok),
            ("downlink_ok_ratio", q.downlink_ok_ratio()),
            ("uplink_bits_ok_ratio", q.uplink_bits_ok_ratio()),
            ("acquire_correct_ratio", q.acquire_correct_ratio()),
        ];
        for (name, r) in rounds {
            let value = over_set
                .iter()
                .find(|(n, _)| *n == name)
                .map_or_else(|| median(&r), |&(_, v)| v);
            s.metrics.insert(name, Agg { value, rounds: r });
        }
        s
    }

    pub fn pooled_latency_ms(&self) -> Vec<f64> {
        self.latency_ms.concat()
    }

    /// Pooled latency samples strictly above the reported 90th percentile.
    pub fn beyond_p90(&self) -> usize {
        let pooled = self.pooled_latency_ms();
        let p90 = percentile(&pooled, TAIL_PCT);
        pooled.iter().filter(|&&x| x > p90).count()
    }

    /// Quality below its floor, one line per miss. The floors sit well
    /// under what every seed reaches today (downlink ≥ 0.94, uplink bits
    /// ≥ 0.38, acquisition ≥ 0.998): they catch a decoder or correlator that
    /// stopped working, while the bounds catch drift.
    pub fn quality_misses(&self, workload: Workload) -> Vec<String> {
        let q = &self.quality;
        [
            ("downlink_ok_ratio", q.downlink_ok_ratio(), 0.8),
            ("uplink_bits_ok_ratio", q.uplink_bits_ok_ratio(), 0.3),
            ("acquire_correct_ratio", q.acquire_correct_ratio(), 0.9),
        ]
        .into_iter()
        .filter(|&(_, got, min)| got < min)
        .map(|(name, got, min)| format!("{}: {name} {got:.4} below {min}", workload.name()))
        .collect()
    }

    pub fn correct(&self) -> bool {
        self.errors.is_empty() && self.failed == 0 && self.attempted > 0
    }

    /// The metrics a result line carries: end-to-end untraced, per-layer
    /// traced.
    pub fn result_metrics(&self, traced: bool) -> Vec<(&'static str, &'static str, f64)> {
        if traced {
            PER_LAYER
                .iter()
                .map(|m| {
                    (
                        m.name,
                        m.unit,
                        self.layers.get(m.name).copied().unwrap_or(0.0),
                    )
                })
                .collect()
        } else {
            END_TO_END
                .iter()
                .map(|m| {
                    (
                        m.name,
                        m.unit,
                        self.metrics.get(m.name).map_or(0.0, |a| a.value),
                    )
                })
                .collect()
        }
    }

    pub fn to_json(&self) -> Value {
        let num = Value::Number;
        let obj = |m: BTreeMap<String, Value>| Value::Object(m);
        let mut out = BTreeMap::new();
        out.insert("attempted".into(), num(self.attempted as f64));
        out.insert("failed".into(), num(self.failed as f64));
        out.insert(
            "failures".into(),
            obj(self
                .failures
                .iter()
                .map(|(k, v)| (k.clone(), num(*v)))
                .collect()),
        );
        out.insert("quality_checks".into(), self.quality.to_json());
        out.insert(
            "errors".into(),
            Value::Array(self.errors.iter().cloned().map(Value::String).collect()),
        );
        out.insert(
            "latency_samples".into(),
            num(self.pooled_latency_ms().len() as f64),
        );
        let lists = |l: &[Vec<f64>]| {
            Value::Array(
                l.iter()
                    .map(|r| Value::Array(r.iter().map(|&x| num(x)).collect()))
                    .collect(),
            )
        };
        out.insert("latency_ms_by_round".into(), lists(&self.latency_ms));
        out.insert("latency_ms_by_run".into(), lists(&self.run_latency_ms));
        let nums =
            |m: &BTreeMap<String, f64>| obj(m.iter().map(|(k, v)| (k.clone(), num(*v))).collect());
        out.insert(
            "values_by_run".into(),
            Value::Array(self.run_values.iter().map(nums).collect()),
        );
        out.insert("latency_beyond_p90".into(), num(self.beyond_p90() as f64));
        let metrics = END_TO_END
            .iter()
            .filter_map(|m| {
                let a = self.metrics.get(m.name)?;
                let [q1, _, q3] = quartiles(&a.rounds);
                let fields = [
                    ("value", num(a.value)),
                    ("unit", Value::String(m.unit.into())),
                    ("better", Value::String(m.better.name().into())),
                    ("bound", num(m.bound)),
                    ("q1", num(q1)),
                    ("q3", num(q3)),
                    (
                        "rounds",
                        Value::Array(a.rounds.iter().map(|&x| num(x)).collect()),
                    ),
                ];
                Some((
                    m.name.to_string(),
                    obj(fields
                        .into_iter()
                        .map(|(k, v)| (k.to_string(), v))
                        .collect()),
                ))
            })
            .collect();
        out.insert("metrics".into(), obj(metrics));
        if !self.layers.is_empty() {
            out.insert("layers".into(), nums(&self.layers));
            out.insert("extra".into(), nums(&self.extra));
        }
        out.insert(
            "host".into(),
            obj(self
                .host
                .iter()
                .map(|(k, v)| (k.clone(), Value::Array(v.iter().map(|&x| num(x)).collect())))
                .collect()),
        );
        obj(out)
    }

    pub fn print(&self, workload: Workload, traced: bool) {
        let beyond = self.beyond_p90();
        println!(
            "== {}: {} frames attempted, {} failed, {} latency samples ({beyond} beyond p90{})",
            workload.name(),
            self.attempted,
            self.failed,
            self.pooled_latency_ms().len(),
            if beyond < 10 {
                "; too few for a p90"
            } else {
                ""
            }
        );
        if traced {
            for (name, unit, v) in self.result_metrics(true) {
                println!("  {name:<34} {v:>18.4} {unit}");
            }
            // The `--out`-only numbers name their unit by suffix.
            for (name, v) in &self.extra {
                let unit = if name.ends_with(".ns") {
                    "ns"
                } else if name.ends_with(".share") || name.ends_with("_pct") {
                    "%"
                } else if name.ends_with("_share") {
                    "ratio"
                } else {
                    "count"
                };
                println!("  {name:<34} {v:>18.4} {unit}");
            }
        } else {
            for m in &END_TO_END {
                if let Some(a) = self.metrics.get(m.name) {
                    let [q1, _, q3] = quartiles(&a.rounds);
                    println!(
                        "  {:<24} {:>14.4} {:<6} [q1 {:.4}, q3 {:.4}]",
                        m.name, a.value, m.unit, q1, q3
                    );
                }
            }
        }
        for e in &self.errors {
            println!("  ERROR {e}");
        }
    }
}

/// The final stdout line: `correct`, `attempted`, `failed`, and the metrics
/// as `{"value", "unit"}` objects. Counts print as integers.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(String, &str, f64)],
) -> String {
    let body: BTreeMap<String, Value> = metrics
        .iter()
        .map(|(name, unit, value)| {
            let mut m = BTreeMap::new();
            m.insert("value".to_string(), Value::Number(*value));
            m.insert("unit".to_string(), Value::String(unit.to_string()));
            (name.clone(), Value::Object(m))
        })
        .collect();
    format!(
        "{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{}}}",
        Value::Object(body).to_compact()
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use biscatter_core::obs::json::parse;

    /// A run of `round` whose frames `keys` took `latency` ms.
    fn run(round: u64, fps: f64, keys: &[u64], latency: &[f64]) -> Result<Value, String> {
        let list = |v: Vec<String>| v.join(", ");
        let text = format!(
            "{{\"round\": {round}, \"attempted\": {}, \"failures\": {{\"missing\": 0}}, \
             \"values\": {{\"frames_per_s\": {fps}, \"setup_s\": {fps}, \"peak_rss_mb\": {fps}}}, \
             \"latency_ms\": [{}], \"frame_keys\": [{}], \"errors\": []}}",
            keys.len(),
            list(latency.iter().map(f64::to_string).collect()),
            list(keys.iter().map(u64::to_string).collect()),
        );
        Ok(parse(&text).unwrap())
    }

    /// A run of `round` with 10 frames whose latencies are `base + 0..10` ms.
    fn slice(round: u64, fps: f64, base: f64) -> Result<Value, String> {
        let latency: Vec<f64> = (0..10).map(|i| base + i as f64).collect();
        run(round, fps, &(0..10).collect::<Vec<_>>(), &latency)
    }

    #[test]
    fn fold_takes_round_medians_and_a_pooled_tail() {
        let s = Summary::fold(
            Workload::PipelineStream,
            &[
                slice(0, 10.0, 0.0),
                slice(1, 30.0, 10.0),
                slice(2, 20.0, 20.0),
            ],
        );
        assert_eq!(s.attempted, 30);
        assert_eq!(s.failed, 0);
        assert!(s.correct());
        // One fast round does not move the headline throughput.
        assert_eq!(s.metrics["frames_per_s"].value, 20.0);
        assert_eq!(s.metrics["frames_per_s"].rounds, vec![10.0, 30.0, 20.0]);
        assert_eq!(s.metrics["frame_ms_mean"].rounds, vec![4.5, 14.5, 24.5]);
        // The tail is the 90th percentile of all 30 latencies (0..30 ms),
        // not the median of the rounds' own (18.1 ms); the rounds' values
        // stay for the spread.
        let p90 = &s.metrics["frame_ms_p90"];
        assert!((p90.value - 26.1).abs() < 1e-9, "{}", p90.value);
        let r = &p90.rounds;
        assert!((r[0] - 8.1).abs() + (r[1] - 18.1).abs() + (r[2] - 28.1).abs() < 1e-9);
        assert_eq!((s.pooled_latency_ms().len(), s.beyond_p90()), (30, 3));
    }

    #[test]
    fn a_round_keeps_each_frames_better_run() {
        // Frame 1 was slowed in the first run, frame 0 in the second, which
        // lists its frames in another order.
        let a = run(0, 50.0, &[0, 1, 2], &[10.0, 50.0, 12.0]);
        let b = run(0, 70.0, &[1, 0, 2], &[11.0, 30.0, 12.0]);
        let s = Summary::fold(Workload::CellStream, &[a.clone(), b.clone()]);
        assert!(s.correct(), "{:?}", s.errors);
        assert_eq!(s.latency_ms, vec![vec![10.0, 11.0, 12.0]]);
        assert_eq!(s.run_latency_ms.len(), 2);
        assert_eq!(s.metrics["frame_ms_mean"].value, 11.0);
        // Inline, throughput is the frames over their better times.
        let fps = s.metrics["frames_per_s"].value;
        assert!((fps - 3.0 / 0.033).abs() < 1e-9, "{fps}");
        // Set-up keeps both runs' values; memory is their mean.
        assert_eq!(s.metrics["setup_s"].rounds, vec![50.0, 70.0]);
        assert_eq!(s.metrics["peak_rss_mb"].rounds, vec![60.0]);
        // Threaded, throughput is the better run's.
        let s = Summary::fold(Workload::FleetMobility, &[a, b]);
        assert_eq!(s.metrics["frames_per_s"].value, 70.0);
    }

    #[test]
    fn runs_of_a_round_must_agree_on_outcomes() {
        let with = |ok: u64| {
            let mut v = slice(0, 10.0, 0.0).unwrap();
            if let Value::Object(m) = &mut v {
                let text = format!("{{\"downlink_ok\": {ok}, \"downlink_n\": 10}}");
                m.insert("quality".into(), parse(&text).unwrap());
            }
            Ok(v)
        };
        let s = Summary::fold(Workload::CellStream, &[with(10), with(10)]);
        assert!(s.correct());
        // Counted once per round, not once per run.
        assert_eq!(s.quality.downlink_n, 10);
        let s = Summary::fold(Workload::CellStream, &[with(10), with(9)]);
        assert!(!s.correct());
    }

    #[test]
    fn count_ratios_are_taken_over_the_set() {
        let with = |round: u64, ok: u64, ratio: f64| {
            let mut v = slice(round, 10.0, 0.0).unwrap();
            if let Value::Object(m) = &mut v {
                let text = format!("{{\"downlink_ok\": {ok}, \"downlink_n\": 10}}");
                m.insert("quality".into(), parse(&text).unwrap());
                let text = format!("{{\"downlink_ok_ratio\": {ratio}}}");
                m.insert("values".into(), parse(&text).unwrap());
            }
            Ok(v)
        };
        let s = Summary::fold(
            Workload::CellStream,
            &[with(0, 10, 1.0), with(1, 7, 0.7), with(2, 10, 1.0)],
        );
        // The median round reads 1; the set got 27 of 30.
        let d = &s.metrics["downlink_ok_ratio"];
        assert!((d.value - 0.9).abs() < 1e-12, "{}", d.value);
        assert_eq!(d.rounds, vec![1.0, 0.7, 1.0]);
    }

    #[test]
    fn a_lost_slice_or_a_failed_frame_makes_the_set_incorrect() {
        let s = Summary::fold(
            Workload::CellStream,
            &[slice(0, 10.0, 1.0), Err("child exited with 101".into())],
        );
        assert!(!s.correct());
        let mut bad = slice(0, 10.0, 1.0).unwrap();
        if let Value::Object(m) = &mut bad {
            m.insert("failures".into(), parse("{\"panicked\": 1}").unwrap());
        }
        let s = Summary::fold(Workload::CellStream, &[Ok(bad)]);
        assert_eq!(s.failed, 1);
        assert!(!s.correct());
    }

    #[test]
    fn result_line_prints_integer_counts() {
        let line = result_line(true, 96, 0, &[("setup_s".into(), "s", 0.8127)]);
        assert_eq!(
            line,
            "{\"correct\":true,\"attempted\":96,\"failed\":0,\
             \"metrics\":{\"setup_s\":{\"unit\":\"s\",\"value\":0.8127}}}"
        );
        assert!(parse(&line).is_ok());
    }
}
