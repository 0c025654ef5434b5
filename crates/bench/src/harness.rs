//! One way to time and record a bench: every `cargo bench -p
//! biscatter-bench` target parses its arguments with [`Args`], times its
//! rows with a [`Sampler`] and writes `results/BENCH_<name>.json` through
//! [`record`].
//!
//! * **Arguments.** `--quick` runs every body once and writes nothing: the
//!   CI smoke mode, which still runs each bench's correctness assertions.
//!   Any other argument that does not start with `-` keeps only the rows
//!   whose name contains it.
//! * **Sampling.** One warm-up sample per body, which also counts how many
//!   runs of the body fill 2 ms (at least one, at most 10 000); every timed
//!   sample then loops that many runs, so a fast kernel dominates the
//!   timer's resolution. Rows timed together are interleaved sample by
//!   sample, in alternating order, so host drift cancels out of their
//!   ratios.
//! * **Recording.** Each timed row is written as its median, quartiles and
//!   sample count (see [`Fields::row`]), next to the bench's note, the SIMD
//!   dispatch fields, the core count and the commit. A bench records before
//!   it checks its speed gates, so a failing gate still leaves its numbers
//!   behind.

use std::collections::BTreeMap;
use std::fmt;
use std::hint::black_box;
use std::process::Command;
use std::time::{Duration, Instant};

use biscatter_core::json::{self, Value};

use crate::dispatch_json_fields;

/// Wall-clock time one timed sample aims to fill.
const SAMPLE_TARGET: Duration = Duration::from_millis(2);
/// Upper bound on the runs looped in one sample.
const MAX_RUNS_PER_SAMPLE: u32 = 10_000;

/// A bench's command line: `--quick` and name filters.
pub struct Args {
    /// `--quick`: run each body once, write nothing.
    pub quick: bool,
    filters: Vec<String>,
}

impl Args {
    /// Reads the process arguments (`cargo bench --bench <b> -- <args>`).
    pub fn parse() -> Self {
        let args: Vec<String> = std::env::args().skip(1).collect();
        Args {
            quick: args.iter().any(|a| a == "--quick"),
            filters: args.into_iter().filter(|a| !a.starts_with('-')).collect(),
        }
    }

    /// True when no filter was given or `name` contains one of them.
    pub fn wants(&self, name: &str) -> bool {
        self.filters.is_empty() || self.filters.iter().any(|f| name.contains(f.as_str()))
    }
}

/// Times bench bodies; see the module docs for the protocol.
pub struct Sampler {
    quick: bool,
    samples: usize,
}

impl Sampler {
    /// A sampler taking `samples` timed samples per row (one, with no
    /// warm-up, under `--quick`).
    pub fn new(args: &Args, samples: usize) -> Self {
        Sampler {
            quick: args.quick,
            samples,
        }
    }

    /// Times `body` alone.
    pub fn time<O>(&self, mut body: impl FnMut() -> O) -> Samples {
        let mut run = || {
            black_box(body());
        };
        self.interleave(&mut [&mut run]).remove(0)
    }

    /// Times `bodies` together: sample `k` of every body is taken in the
    /// same round, the bodies running in order in even rounds and in
    /// reverse in odd ones. Returns one [`Samples`] per body, in order.
    /// Each body must consume its own result (through
    /// [`std::hint::black_box`]).
    pub fn interleave(&self, bodies: &mut [&mut dyn FnMut()]) -> Vec<Samples> {
        let (runs, samples): (Vec<u32>, usize) = if self.quick {
            (vec![1; bodies.len()], 1)
        } else {
            (
                bodies.iter_mut().map(|b| warm_up(*b)).collect(),
                self.samples,
            )
        };
        let mut out = vec![Vec::with_capacity(samples); bodies.len()];
        for round in 0..samples {
            for k in 0..bodies.len() {
                let i = if round % 2 == 0 {
                    k
                } else {
                    bodies.len() - 1 - k
                };
                let t0 = Instant::now();
                for _ in 0..runs[i] {
                    (bodies[i])();
                }
                out[i].push(t0.elapsed().as_nanos() as f64 / f64::from(runs[i]));
            }
        }
        out.into_iter().map(Samples).collect()
    }
}

/// Runs `body` until [`SAMPLE_TARGET`] has passed (at least once, at most
/// [`MAX_RUNS_PER_SAMPLE`] times) and returns the number of runs.
fn warm_up(body: &mut dyn FnMut()) -> u32 {
    let t0 = Instant::now();
    let mut runs = 0;
    while runs < MAX_RUNS_PER_SAMPLE {
        body();
        runs += 1;
        if t0.elapsed() >= SAMPLE_TARGET {
            break;
        }
    }
    runs
}

/// One row's samples in the order they were taken: nanoseconds per run for
/// a timed row, or any per-sample quantity derived with [`Samples::paired`].
#[derive(Debug, Clone)]
pub struct Samples(Vec<f64>);

impl Samples {
    /// The `q` quantile (0..=1), interpolated linearly between the two
    /// nearest samples.
    pub fn quantile(&self, q: f64) -> f64 {
        let mut v = self.0.clone();
        v.sort_by(f64::total_cmp);
        let pos = q * (v.len() - 1) as f64;
        let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
        v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
    }

    /// The median sample.
    pub fn median(&self) -> f64 {
        self.quantile(0.5)
    }

    fn len(&self) -> usize {
        self.0.len()
    }

    /// `f(self[k], other[k])` for each sample `k` of two rows timed in one
    /// [`Sampler::interleave`], so each value compares samples taken
    /// back to back.
    pub fn paired(&self, other: &Samples, f: impl Fn(f64, f64) -> f64) -> Samples {
        assert_eq!(self.len(), other.len(), "rows were not sampled together");
        Samples(
            self.0
                .iter()
                .zip(&other.0)
                .map(|(&a, &b)| f(a, b))
                .collect(),
        )
    }

    /// Every sample multiplied by `k` (a change of unit).
    pub fn scaled(&self, k: f64) -> Samples {
        Samples(self.0.iter().map(|x| x * k).collect())
    }
}

/// A timed row as `median [p25, p75] ×n`, in the unit that fits.
impl fmt::Display for Samples {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} [{}, {}] ×{}",
            fmt_ns(self.median()),
            fmt_ns(self.quantile(0.25)),
            fmt_ns(self.quantile(0.75)),
            self.len()
        )
    }
}

fn fmt_ns(ns: f64) -> String {
    if ns < 1e3 {
        format!("{ns:.1} ns")
    } else if ns < 1e6 {
        format!("{:.2} µs", ns / 1e3)
    } else if ns < 1e9 {
        format!("{:.2} ms", ns / 1e6)
    } else {
        format!("{:.3} s", ns / 1e9)
    }
}

/// A JSON object under construction: one results file, or one row of an
/// array in it. Numbers are written to two decimals.
#[derive(Debug, Default)]
pub struct Fields(BTreeMap<String, Value>);

impl Fields {
    /// Sets `key` to `x`, rounded to two decimals.
    pub fn num(&mut self, key: &str, x: f64) -> &mut Self {
        self.set(key, Value::Number((x * 100.0).round() / 100.0))
    }

    /// Sets `key` to `value`.
    pub fn set(&mut self, key: &str, value: Value) -> &mut Self {
        self.0.insert(key.to_string(), value);
        self
    }

    /// Writes a sampled row: its median as `<stem>_<unit>`, its quartiles
    /// as `<stem>_p25_<unit>` and `<stem>_p75_<unit>`, and its sample count
    /// as `<stem>_samples`. An empty stem writes `median_<unit>`,
    /// `p25_<unit>`, `p75_<unit>` and `samples`, for an object that is one
    /// row.
    pub fn row(&mut self, stem: &str, unit: &str, s: &Samples) -> &mut Self {
        let (median, prefix) = if stem.is_empty() {
            (format!("median_{unit}"), String::new())
        } else {
            (format!("{stem}_{unit}"), format!("{stem}_"))
        };
        self.num(&median, s.median())
            .num(&format!("{prefix}p25_{unit}"), s.quantile(0.25))
            .num(&format!("{prefix}p75_{unit}"), s.quantile(0.75))
            .num(&format!("{prefix}samples"), s.len() as f64)
    }
}

impl From<Fields> for Value {
    fn from(f: Fields) -> Value {
        Value::Object(f.0)
    }
}

/// Writes `fields` to `results/BENCH_<name>.json`, adding the bench's
/// title, `note`, the SIMD dispatch fields, the core count and the commit;
/// under `--quick` writes nothing.
pub fn record(args: &Args, name: &str, title: &str, note: &str, fields: Fields) {
    if args.quick {
        println!("--quick: smoke run only, results/BENCH_{name}.json not rewritten");
        return;
    }
    let mut doc = fields.0;
    let Ok(Value::Object(dispatch)) = json::parse(&format!("{{{}}}", dispatch_json_fields()))
    else {
        panic!("dispatch_json_fields() must be the body of a JSON object");
    };
    doc.extend(dispatch);
    let s = |x: &str| Value::String(x.to_string());
    doc.insert(
        "bench".into(),
        s(&format!("{title} (crates/bench/benches/{name}.rs)")),
    );
    doc.insert("note".into(), s(note));
    doc.insert("cores".into(), Value::Number(cores() as f64));
    doc.insert("commit".into(), s(&commit()));
    let path = format!(
        "{}/../../results/BENCH_{name}.json",
        env!("CARGO_MANIFEST_DIR")
    );
    let text = Value::Object(doc).to_pretty() + "\n";
    std::fs::write(&path, text).unwrap_or_else(|e| panic!("write {path}: {e}"));
    println!("wrote {path}");
}

/// Cores this process may run on.
pub fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The checked-out commit, with `-dirty` when tracked files other than
/// `results/` differ from it; `unknown` without git.
fn commit() -> String {
    let git = |args: &[&str]| {
        Command::new("git")
            .args(args)
            .current_dir(env!("CARGO_MANIFEST_DIR"))
            .output()
            .ok()
    };
    let Some(head) = git(&["rev-parse", "HEAD"]).filter(|o| o.status.success()) else {
        return "unknown".into();
    };
    let head = String::from_utf8_lossy(&head.stdout).trim().to_string();
    let clean = git(&["diff", "--quiet", "HEAD", "--", ":(top,exclude)results"])
        .is_some_and(|o| o.status.success());
    if clean {
        head
    } else {
        head + "-dirty"
    }
}
