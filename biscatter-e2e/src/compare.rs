//! `e2e compare A.json B.json`: one row per workload × end-to-end metric,
//! with a verdict that respects the run-to-run spread.

use biscatter_core::obs::json::{self, Value};

use crate::metrics::{Better, Metric, END_TO_END};
use crate::stats::{quartiles, relative_spread};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// B is better by more than A's own spread.
    Better,
    /// B differs from A by no more than A's own spread.
    Same,
    /// B is worse by more than A's own spread, but within the bound: shown,
    /// and does not fail the comparison.
    Worse,
    /// B is worse than A by more than the bound.
    WorseBeyondBound,
    /// The rounds scatter more than the bound, so a change of this size
    /// cannot be told from noise.
    Unresolved,
    /// One side has no value: its slices crashed, or it predates the
    /// metric. Fails the comparison like `WorseBeyondBound`.
    Missing,
}

impl Verdict {
    pub fn name(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Same => "same",
            Verdict::Worse => "worse",
            Verdict::WorseBeyondBound => "worse-beyond-bound",
            Verdict::Unresolved => "unresolved",
            Verdict::Missing => "missing",
        }
    }
}

/// Judges B against A from each side's headline value and its per-round
/// values. Where either side's rounds spread wider than the bound, the row
/// is unresolved unless every round of B beats every round of A (or loses
/// to all of them by more than the bound). A row whose every round repeats
/// exactly is the same: the rounds differ by their inputs, not by noise.
pub fn verdict(m: &Metric, a: f64, a_rounds: &[f64], b: f64, b_rounds: &[f64]) -> Verdict {
    if a == b && a_rounds == b_rounds {
        return Verdict::Same;
    }
    let sign = match m.better {
        Better::Higher => 1.0,
        Better::Lower => -1.0,
    };
    // Relative gain of B over A: positive is better.
    let gain = if a != 0.0 {
        sign * (b - a) / a.abs()
    } else if b == a {
        0.0
    } else {
        sign * (b - a).signum()
    };
    let beats = |x: f64, y: f64| sign * (x - y) > 0.0;
    let all_better = b_rounds
        .iter()
        .all(|&y| a_rounds.iter().all(|&x| beats(y, x)));
    let all_worse = b_rounds
        .iter()
        .all(|&y| a_rounds.iter().all(|&x| beats(x, y)));
    let spread = relative_spread(a_rounds).max(relative_spread(b_rounds));
    if spread > m.bound {
        if all_better {
            Verdict::Better
        } else if all_worse && -gain > m.bound {
            Verdict::WorseBeyondBound
        } else {
            Verdict::Unresolved
        }
    } else if -gain > m.bound {
        Verdict::WorseBeyondBound
    } else if gain.abs() <= relative_spread(a_rounds) {
        Verdict::Same
    } else if gain > 0.0 {
        Verdict::Better
    } else {
        Verdict::Worse
    }
}

fn load(path: &str) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

/// A metric's headline value and per-round values in one `--out` file.
type Side = (f64, Vec<f64>);

fn metric_of(doc: &Value, workload: &str, name: &str) -> Option<Side> {
    let m = doc
        .get("workloads")?
        .get(workload)?
        .get("metrics")?
        .get(name)?;
    let value = m.get("value")?.as_f64()?;
    let rounds = m
        .get("rounds")?
        .as_array()?
        .iter()
        .filter_map(Value::as_f64)
        .collect();
    Some((value, rounds))
}

pub struct Row {
    pub workload: String,
    pub metric: &'static Metric,
    pub a: Option<Side>,
    pub b: Option<Side>,
    pub verdict: Verdict,
}

/// B judged against A: one row per workload of A × end-to-end metric, and
/// which of the two files say their own run was not correct.
pub struct Comparison {
    pub rows: Vec<Row>,
    pub incorrect: Vec<&'static str>,
}

impl Comparison {
    /// Both runs correct, and no row worse beyond its bound or missing.
    pub fn passes(&self) -> bool {
        self.incorrect.is_empty()
            && self
                .rows
                .iter()
                .all(|r| !matches!(r.verdict, Verdict::WorseBeyondBound | Verdict::Missing))
    }
}

pub fn compare(a: &Value, b: &Value) -> Result<Comparison, String> {
    let workloads: Vec<String> = match a.get("workloads") {
        Some(Value::Object(map)) if !map.is_empty() => map.keys().cloned().collect(),
        _ => return Err("A has no workloads".into()),
    };
    let mut rows = Vec::new();
    for w in workloads {
        for m in &END_TO_END {
            let (ra, rb) = (metric_of(a, &w, m.name), metric_of(b, &w, m.name));
            let verdict = match (&ra, &rb) {
                (Some((av, ar)), Some((bv, br))) => verdict(m, *av, ar, *bv, br),
                _ => Verdict::Missing,
            };
            rows.push(Row {
                workload: w.clone(),
                metric: m,
                a: ra,
                b: rb,
                verdict,
            });
        }
    }
    let incorrect = [("A", a), ("B", b)]
        .into_iter()
        .filter(|(_, doc)| !matches!(doc.get("correct"), Some(Value::Bool(true))))
        .map(|(side, _)| side)
        .collect();
    Ok(Comparison { rows, incorrect })
}

/// Prints the comparison table; `Ok(true)` when the comparison passes.
pub fn run(a_path: &str, b_path: &str) -> Result<bool, String> {
    let (a, b) = (load(a_path)?, load(b_path)?);
    let c = compare(&a, &b).map_err(|e| format!("{a_path}: {e}"))?;
    println!(
        "{:<16} {:<22} {:>28} {:>28} {:>9} {:>6}  verdict",
        "workload", "metric", "A median [q1, q3]", "B median [q1, q3]", "delta", "bound"
    );
    let side = |s: &Option<Side>| match s {
        Some((x, r)) => {
            let [q1, _, q3] = quartiles(r);
            format!("{x:.4} [{q1:.4}, {q3:.4}]")
        }
        None => "-".to_string(),
    };
    for r in &c.rows {
        let delta = match (&r.a, &r.b) {
            (Some((av, _)), Some((bv, _))) if *av != 0.0 => {
                format!("{:+.2}%", 100.0 * (bv - av) / av.abs())
            }
            _ => "n/a".to_string(),
        };
        println!(
            "{:<16} {:<22} {:>28} {:>28} {delta:>9} {:>5.1}%  {}",
            r.workload,
            r.metric.name,
            side(&r.a),
            side(&r.b),
            100.0 * r.metric.bound,
            r.verdict.name()
        );
    }
    let count = |v: Verdict| c.rows.iter().filter(|r| r.verdict == v).count();
    println!(
        "{} row(s) worse beyond bound, {} missing",
        count(Verdict::WorseBeyondBound),
        count(Verdict::Missing)
    );
    for side in &c.incorrect {
        let path = if *side == "A" { a_path } else { b_path };
        println!("{path}: the run was not correct");
    }
    Ok(c.passes())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::end_to_end;

    fn fps() -> &'static Metric {
        end_to_end("frames_per_s").unwrap()
    }
    fn latency() -> &'static Metric {
        end_to_end("frame_ms_mean").unwrap()
    }

    #[test]
    fn identical_sets_are_the_same() {
        let r = [50.0, 51.0, 49.0, 50.5, 50.2];
        assert_eq!(verdict(fps(), 50.2, &r, 50.2, &r), Verdict::Same);
    }

    #[test]
    fn clear_gain_is_better_and_clear_loss_is_worse() {
        let a = [50.0, 51.0, 49.0, 50.5, 50.2];
        let b = [80.0, 81.0, 79.0, 80.5, 80.2];
        assert_eq!(verdict(fps(), 50.2, &a, 80.2, &b), Verdict::Better);
        assert_eq!(
            verdict(fps(), 80.2, &b, 50.2, &a),
            Verdict::WorseBeyondBound
        );
        // Lower is better for latency: the same numbers flip.
        assert_eq!(verdict(latency(), 80.2, &b, 50.2, &a), Verdict::Better);
        assert_eq!(
            verdict(latency(), 50.2, &a, 80.2, &b),
            Verdict::WorseBeyondBound
        );
        // A gain smaller than the bound still counts once it clears A's
        // own spread.
        let c = [53.0, 53.1, 52.9, 53.0, 53.05];
        assert_eq!(verdict(fps(), 50.2, &a, 53.0, &c), Verdict::Better);
    }

    #[test]
    fn a_loss_within_the_bound_shows_but_passes() {
        let a = [50.0, 50.1, 49.9, 50.0, 50.05];
        let b = [47.0, 47.1, 46.9, 47.0, 47.05];
        assert_eq!(verdict(fps(), 50.0, &a, 47.0, &b), Verdict::Worse);
        // Within A's own spread it is the same.
        let a = [48.0, 52.0, 49.0, 50.0, 51.0];
        assert_eq!(verdict(fps(), 50.0, &a, 49.0, &b), Verdict::Same);
    }

    #[test]
    fn wide_spread_is_unresolved_unless_rounds_separate() {
        // Quartile spread ~60% > 25% bound.
        let a = [30.0, 50.0, 70.0, 40.0, 60.0];
        let b = [25.0, 45.0, 65.0, 35.0, 55.0];
        assert_eq!(verdict(fps(), 50.0, &a, 45.0, &b), Verdict::Unresolved);
        // Unless B repeats A round for round: a count whose rounds differ
        // only by their inputs.
        assert_eq!(verdict(fps(), 50.0, &a, 50.0, &a), Verdict::Same);
        // Every B round beats every A round: better even though noisy.
        let b = [80.0, 120.0, 160.0, 100.0, 140.0];
        assert_eq!(verdict(fps(), 50.0, &a, 120.0, &b), Verdict::Better);
        // Every B round loses to every A round by far: worse.
        let b = [5.0, 10.0, 15.0, 8.0, 12.0];
        assert_eq!(
            verdict(fps(), 50.0, &a, 10.0, &b),
            Verdict::WorseBeyondBound
        );
    }

    /// An `--out` document with every end-to-end metric of `workloads`
    /// reading 1 in each of three rounds, except those of `empty`.
    fn doc(correct: bool, workloads: &[&str], empty: &str) -> Value {
        let metrics: Vec<String> = END_TO_END
            .iter()
            .map(|m| format!("\"{}\": {{\"value\": 1, \"rounds\": [1, 1, 1]}}", m.name))
            .collect();
        let w: Vec<String> = workloads
            .iter()
            .map(|w| {
                let body = if *w == empty {
                    String::new()
                } else {
                    metrics.join(", ")
                };
                format!("\"{w}\": {{\"metrics\": {{{body}}}}}")
            })
            .collect();
        let text = format!(
            "{{\"correct\": {correct}, \"workloads\": {{{}}}}}",
            w.join(", ")
        );
        json::parse(&text).unwrap()
    }

    #[test]
    fn lost_metrics_or_an_incorrect_run_fail_the_comparison() {
        let both = ["cell_stream", "cold_start"];
        let a = doc(true, &both, "");
        let c = compare(&a, &doc(true, &both, "")).unwrap();
        assert_eq!(c.rows.len(), 2 * END_TO_END.len());
        assert!(c.passes());
        // B's `cold_start` slices all crashed: every one of its rows is
        // missing, and the comparison fails.
        let c = compare(&a, &doc(true, &both, "cold_start")).unwrap();
        let missing: Vec<_> = c
            .rows
            .iter()
            .filter(|r| r.verdict == Verdict::Missing)
            .map(|r| r.workload.as_str())
            .collect();
        assert_eq!(missing, vec!["cold_start"; END_TO_END.len()]);
        assert!(!c.passes());
        // A workload B never ran is missing too.
        assert!(!compare(&a, &doc(true, &["cell_stream"], ""))
            .unwrap()
            .passes());
        // Identical numbers, but B says its run was not correct.
        let c = compare(&a, &doc(false, &both, "")).unwrap();
        assert_eq!(c.incorrect, vec!["B"]);
        assert!(!c.passes());
        assert!(compare(&doc(true, &[], ""), &a).is_err());
    }

    #[test]
    fn zero_baseline_compares_by_sign() {
        let m = end_to_end("allocs_per_frame").unwrap();
        assert_eq!(verdict(m, 0.0, &[0.0], 0.0, &[0.0]), Verdict::Same);
        assert_eq!(
            verdict(m, 0.0, &[0.0], 3.0, &[3.0]),
            Verdict::WorseBeyondBound
        );
    }
}
