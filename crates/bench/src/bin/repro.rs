//! `repro` — regenerate every table and figure of the paper.
//!
//! Usage:
//! ```text
//! repro [EXPERIMENT ...]       # run matching experiments (default: all)
//! repro --list                 # list experiment names
//! repro --out DIR [EXPERIMENT] # also write JSON + CSV into DIR
//! ```
//!
//! An experiment runs when its name contains any `EXPERIMENT` argument as a
//! substring (`repro fig13 fig15`); a full name selects just that one.
//! No match exits with status 2.
//!
//! Environment: `BISCATTER_FRAMES` (Monte-Carlo frames per point, default
//! 60), `BISCATTER_ISAC_FRAMES` (frames for localization points, default 8).
//! A count that is not a positive integer exits with status 2.

use biscatter_bench::{all_specs, ExperimentSpec, Fidelity};
use std::io::Write;

/// The count in environment variable `var`, or `default` when it is unset.
/// Exits with status 2 when it is set to anything but a positive integer,
/// so a mistyped count cannot pass for the default.
fn env_count(var: &str, default: usize) -> usize {
    let Some(v) = std::env::var_os(var) else {
        return default;
    };
    match v.to_str().and_then(|v| v.parse().ok()) {
        Some(n) if n > 0 => n,
        _ => {
            eprintln!("{var}={v:?}: expected a positive integer");
            std::process::exit(2);
        }
    }
}

fn main() {
    let defaults = Fidelity::default();
    let fidelity = Fidelity {
        frames_per_point: env_count("BISCATTER_FRAMES", defaults.frames_per_point),
        isac_frames_per_point: env_count("BISCATTER_ISAC_FRAMES", defaults.isac_frames_per_point),
    };
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut out_dir: Option<String> = None;
    let mut names: Vec<String> = Vec::new();
    let mut iter = args.into_iter();
    while let Some(a) = iter.next() {
        match a.as_str() {
            "--list" => {
                for s in all_specs() {
                    println!("{:24} {}", s.name, s.paper_artifact);
                }
                return;
            }
            "--out" => {
                out_dir = iter.next();
                if out_dir.is_none() {
                    eprintln!("--out requires a directory");
                    std::process::exit(2);
                }
            }
            other => names.push(other.to_string()),
        }
    }

    let specs: Vec<ExperimentSpec> = all_specs()
        .into_iter()
        .filter(|s| names.is_empty() || names.iter().any(|n| s.name.contains(n.as_str())))
        .collect();
    if specs.is_empty() {
        eprintln!("no matching experiments; try --list");
        std::process::exit(2);
    }

    if let Some(dir) = &out_dir {
        std::fs::create_dir_all(dir).expect("create output directory");
    }

    for spec in specs {
        eprintln!("running {} ({}) ...", spec.name, spec.paper_artifact);
        let start = std::time::Instant::now();
        let exp = (spec.run)(fidelity);
        println!("{}", exp.to_table());
        eprintln!("  done in {:.1}s", start.elapsed().as_secs_f64());
        if let Some(dir) = &out_dir {
            let json_path = format!("{dir}/{}.json", spec.name);
            let csv_path = format!("{dir}/{}.csv", spec.name);
            std::fs::File::create(&json_path)
                .and_then(|mut f| f.write_all(exp.to_json().as_bytes()))
                .expect("write JSON");
            std::fs::File::create(&csv_path)
                .and_then(|mut f| f.write_all(exp.to_csv().as_bytes()))
                .expect("write CSV");
        }
    }
}
