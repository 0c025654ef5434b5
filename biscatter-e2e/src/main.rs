//! `e2e` — the BiScatter end-to-end benchmark.
//!
//! ```text
//! e2e [--workload NAME]... [--seed N] [--seconds S] [--trace 0|1]
//!     [--quick] [--out PATH]
//! e2e compare A.json B.json
//! ```
//!
//! Without `--workload` it runs the three single-threaded workloads
//! `BENCHMARK.json` declares; `pipeline_stream` and `fleet_mobility` run
//! when named.
//!
//! The parent sweeps 5 interleaved rounds (1 with `--quick`), and then
//! sweeps the same rounds again (the fleet: twice again); each round runs
//! every selected workload once, in an order that rotates from round to
//! round, and each (round, workload) slice runs in a fresh child process of
//! this binary. A slice measures one pass over a fixed job list that the
//! round draws from `--seed`, so a set does the same work on every commit;
//! `--seconds` only sets how long a slice may take before it counts as hung.
//! A frame's time is the best of its runs, which sit a sweep apart, so a
//! burst of load from elsewhere on the host rarely lands on all of them.
//! End-to-end metrics are medians over rounds, except `frame_ms_p90`, which
//! is taken over the frames of all rounds pooled.
//!
//! `--trace 1` instead runs one traced child per workload, which replays
//! its first 32 frames through the public stage functions and prints the
//! per-layer budget; its Chrome trace lands next to the `--out` file.
//!
//! The last stdout line is one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`. The exit code is non-zero when any correctness
//! check fails.

mod alloc;
mod check;
mod child;
mod compare;
mod host;
mod metrics;
mod report;
mod stats;
mod traced;
mod workload;

use std::collections::BTreeMap;
use std::io::Read;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

use biscatter_core::obs::json::{self, Value};

use report::Summary;
use workload::Workload;

#[global_allocator]
static ALLOCATOR: alloc::CountingAlloc = alloc::CountingAlloc;

const DEFAULT_OUT: &str = "target/bench-e2e/latest.json";
const ROUNDS: usize = 5;
/// Frames the traced run replays.
const REPLAY_FRAMES: usize = 32;
/// `--quick`: frames per workload and frames replayed.
const QUICK_FRAMES: usize = 2;

struct Args {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: Option<f64>,
    rounds: usize,
    trace: bool,
    quick: bool,
    out: PathBuf,
    // Child-only.
    child: bool,
    round: u64,
    frames: Option<usize>,
    replay: Option<usize>,
    trace_file: Option<String>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workloads: Vec::new(),
        seed: 42,
        seconds: None,
        rounds: ROUNDS,
        trace: false,
        quick: false,
        out: PathBuf::from(DEFAULT_OUT),
        child: false,
        round: 0,
        frames: None,
        replay: None,
        trace_file: None,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs {what}"))
        };
        fn num<T: std::str::FromStr>(flag: &str, v: String) -> Result<T, String> {
            v.parse().map_err(|_| format!("{flag}: cannot parse {v:?}"))
        }
        match flag.as_str() {
            "child" => a.child = true,
            "--workload" => {
                let v = value("a workload name")?;
                let w = Workload::parse(&v).ok_or_else(|| format!("unknown workload {v:?}"))?;
                if !a.workloads.contains(&w) {
                    a.workloads.push(w);
                }
            }
            "--seed" => a.seed = num(flag, value("a number")?)?,
            "--seconds" => {
                let s: f64 = num(flag, value("a number")?)?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
                a.seconds = Some(s);
            }
            "--trace" => {
                a.trace = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v:?}")),
                }
            }
            "--quick" => a.quick = true,
            "--out" => a.out = PathBuf::from(value("a path")?),
            "--round" => a.round = num(flag, value("a number")?)?,
            "--frames" => a.frames = Some(num(flag, value("a number")?)?),
            "--replay" => a.replay = Some(num(flag, value("a number")?)?),
            "--trace-file" => a.trace_file = Some(value("a path")?),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if a.workloads.is_empty() {
        a.workloads = workload::DEFAULT.to_vec();
    }
    if a.quick {
        a.rounds = 1;
    }
    Ok(a)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("compare") {
        return match argv.as_slice() {
            [_, a, b] => match compare::run(a, b) {
                Ok(true) => ExitCode::SUCCESS,
                Ok(false) => ExitCode::from(1),
                Err(e) => {
                    eprintln!("e2e compare: {e}");
                    ExitCode::from(2)
                }
            },
            _ => {
                eprintln!("usage: e2e compare A.json B.json");
                ExitCode::from(2)
            }
        };
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("e2e: {e}");
            return ExitCode::from(2);
        }
    };
    if args.child {
        let slice = child::SliceArgs {
            workload: args.workloads[0],
            seed: args.seed,
            round: args.round,
            frames: args.frames.unwrap_or(args.workloads[0].frames_per_round()),
            replay: args.replay,
            trace_file: args.trace_file.clone(),
        };
        println!("{}", child::run(&slice).to_compact());
        return ExitCode::SUCCESS;
    }
    parent(&args)
}

/// Spawns one slice and returns its JSON line. A child that fails, hangs
/// past `deadline`, or prints no parsable line is an error.
fn spawn_slice(args: &[String], deadline: Duration) -> Result<Value, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own binary: {e}"))?;
    let mut child = Command::new(exe)
        .args(args)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
        .map_err(|e| format!("cannot start child: {e}"))?;
    let mut stdout = child.stdout.take().expect("stdout is piped");
    // Drain stdout on its own thread so a long line cannot block the child.
    let reader = std::thread::spawn(move || {
        let mut s = String::new();
        stdout.read_to_string(&mut s).map(|_| s)
    });
    let started = Instant::now();
    let status = loop {
        match child.try_wait() {
            Ok(Some(status)) => break Ok(status),
            Ok(None) if started.elapsed() > deadline => {
                let _ = child.kill();
                let _ = child.wait();
                break Err(format!("child killed after {deadline:?}"));
            }
            Ok(None) => std::thread::sleep(Duration::from_millis(20)),
            Err(e) => break Err(format!("waiting for child: {e}")),
        }
    };
    let out = reader
        .join()
        .map_err(|_| "stdout reader panicked".to_string())?
        .map_err(|e| format!("reading child stdout: {e}"))?;
    let status = status?;
    if !status.success() {
        return Err(format!("child exited with {status}"));
    }
    let line = out.lines().last().ok_or("child printed nothing")?;
    json::parse(line).map_err(|e| format!("child line: {e}"))
}

fn slice_args(a: &Args, w: Workload, round: usize, trace_file: Option<&Path>) -> Vec<String> {
    let mut v: Vec<String> = vec![
        "child".into(),
        "--workload".into(),
        w.name().into(),
        "--seed".into(),
        a.seed.to_string(),
        "--round".into(),
        round.to_string(),
    ];
    if a.quick {
        v.extend(["--frames".into(), QUICK_FRAMES.to_string()]);
    }
    if a.trace {
        let replay = if a.quick { QUICK_FRAMES } else { REPLAY_FRAMES };
        if !a.quick && w.frames_per_round() < replay {
            // The traced child draws enough jobs to replay.
            v.extend(["--frames".into(), replay.to_string()]);
        }
        v.extend(["--replay".into(), replay.to_string()]);
        if let Some(p) = trace_file {
            v.extend(["--trace-file".into(), p.display().to_string()]);
        }
    }
    v
}

fn parent(a: &Args) -> ExitCode {
    let out_dir = a.out.parent().map(Path::to_path_buf).unwrap_or_default();
    if let Err(e) = std::fs::create_dir_all(&out_dir) {
        eprintln!("e2e: cannot create {}: {e}", out_dir.display());
    }
    // A slice counts as hung after start-up plus four times a round's share
    // of `--seconds` (a traced slice: all of it), or after ten minutes.
    let deadline = match a.seconds {
        Some(s) => {
            Duration::from_secs_f64(20.0 + 4.0 * s / if a.trace { 1.0 } else { a.rounds as f64 })
        }
        None => Duration::from_secs(600),
    };

    let n = a.workloads.len();
    let mut slices: Vec<Vec<Result<Value, String>>> = (0..n).map(|_| Vec::new()).collect();
    if a.trace {
        for (k, &w) in a.workloads.iter().enumerate() {
            let file = out_dir.join(format!("trace-{}.json", w.name()));
            slices[k].push(spawn_slice(&slice_args(a, w, 0, Some(&file)), deadline));
        }
    } else {
        let sweeps = a.workloads.iter().map(|w| w.sweeps()).max().unwrap_or(0);
        for sweep in 0..sweeps {
            for round in 0..a.rounds {
                for i in 0..n {
                    let k = (i + round) % n;
                    let w = a.workloads[k];
                    if sweep < w.sweeps() {
                        slices[k].push(spawn_slice(&slice_args(a, w, round, None), deadline));
                    }
                }
            }
        }
    }

    let summaries: Vec<(Workload, Summary)> = a
        .workloads
        .iter()
        .zip(&slices)
        .map(|(&w, slices)| {
            let mut s = Summary::fold(w, slices);
            let misses = s.quality_misses(w);
            s.errors.extend(misses);
            (w, s)
        })
        .collect();
    for (w, s) in &summaries {
        s.print(*w, a.trace);
    }
    let correct = summaries.iter().all(|(_, s)| s.correct());
    let attempted = summaries.iter().map(|(_, s)| s.attempted).sum();
    let failed = summaries.iter().map(|(_, s)| s.failed).sum();

    let doc = out_document(a, correct, &summaries);
    match std::fs::write(&a.out, doc.to_pretty()) {
        Ok(()) => println!("wrote {}", a.out.display()),
        Err(e) => eprintln!("e2e: cannot write {}: {e}", a.out.display()),
    }

    // One workload: metrics by their own names. Several: prefixed by the
    // workload.
    let single = summaries.len() == 1;
    let metrics: Vec<(String, &str, f64)> = summaries
        .iter()
        .flat_map(|(w, s)| {
            s.result_metrics(a.trace)
                .into_iter()
                .map(move |(name, unit, v)| {
                    let name = if single {
                        name.to_string()
                    } else {
                        format!("{}.{name}", w.name())
                    };
                    (name, unit, v)
                })
        })
        .collect();
    println!(
        "{}",
        report::result_line(correct, attempted, failed, &metrics)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// The commit the benchmark was built from, read from `.git` in the working
/// directory when there is one.
fn git_rev() -> String {
    let read = |p: &str| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    let Some(head) = read(".git/HEAD") else {
        return "unknown".into();
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    read(&format!(".git/{reference}"))
        .or_else(|| {
            read(".git/packed-refs")?
                .lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next())
                .map(str::to_string)
        })
        .unwrap_or_else(|| "unknown".into())
}

fn out_document(a: &Args, correct: bool, summaries: &[(Workload, Summary)]) -> Value {
    let s = |x: &str| Value::String(x.to_string());
    let dispatch = json::parse(&format!("{{{}}}", biscatter_bench::dispatch_json_fields()))
        .unwrap_or(Value::Null);
    let provenance: BTreeMap<String, Value> = [
        ("git_rev", s(&git_rev())),
        ("dispatch", dispatch),
        ("nproc", Value::Number(host::cores() as f64)),
        ("seed", Value::Number(a.seed as f64)),
        ("rounds", Value::Number(a.rounds as f64)),
        (
            "sweeps",
            Value::Object(
                a.workloads
                    .iter()
                    .map(|w| {
                        let n = if a.trace { 1 } else { w.sweeps() };
                        (w.name().to_string(), Value::Number(n as f64))
                    })
                    .collect(),
            ),
        ),
        ("quick", Value::Bool(a.quick)),
        ("trace", Value::Bool(a.trace)),
        ("seconds", a.seconds.map_or(Value::Null, Value::Number)),
    ]
    .into_iter()
    .map(|(k, v)| (k.to_string(), v))
    .collect();
    let workloads = summaries
        .iter()
        .map(|(w, s)| (w.name().to_string(), s.to_json()))
        .collect();
    Value::Object(
        [
            ("benchmark", s("biscatter-e2e")),
            ("correct", Value::Bool(correct)),
            ("provenance", Value::Object(provenance)),
            ("workloads", Value::Object(workloads)),
        ]
        .into_iter()
        .map(|(k, v)| (k.to_string(), v))
        .collect(),
    )
}
