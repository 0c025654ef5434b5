//! Multi-cell fleet demo: 16 radar cells on 4 shards, roaming tags, one
//! merged fleet snapshot.
//!
//! Runs a deterministic mobility workload — 8 tags roaming 16 cells, each
//! handing off to the next cell every 3 ticks — then proves the fleet
//! contract on the spot:
//!
//! * per-cell outcomes are bit-identical to the one-shot serial path,
//! * every uplink session survives its handoffs with the oracle bit
//!   stream, and
//! * the per-cell metric scopes fold into one aggregate snapshot.
//!
//! ```sh
//! cargo run --release --example fleet
//! ```
//!
//! Set `BISCATTER_TRACE=<path>` to write a Perfetto trace of the fleet's
//! runs once the last one returns, before the contract checks replay the
//! frames (fleet / runtime / ISAC / DSP / compute spans + the metric
//! registry and the fleet snapshot):
//!
//! ```sh
//! BISCATTER_TRACE=/tmp/biscatter_fleet.json cargo run --release --example fleet
//! ```
//!
//! Set `BISCATTER_METRICS_ADDR=<host:port>` to serve the live observability
//! plane (`/metrics`, `/health`, `/frames`, `/trace`) while the fleet runs,
//! and `BISCATTER_FLEET_REPEAT=<n>` to repeat the workload so an external
//! scraper has a live process to poll mid-run (CI does both):
//!
//! ```sh
//! BISCATTER_METRICS_ADDR=127.0.0.1:9100 BISCATTER_FLEET_REPEAT=50 \
//!     cargo run --release --example fleet
//! ```

#[path = "support/edge.rs"]
mod edge;

use biscatter_core::isac::run_isac_frame;
use biscatter_fleet::{AdmissionPolicy, Fleet, FleetConfig};
use biscatter_runtime::source::{streaming_system, MobilitySpec};

/// `BISCATTER_FLEET_REPEAT`, the number of times to run the workload: 1
/// when unset. Exits with status 2 when it is set to anything but a
/// positive integer, so a mistyped count cannot pass for one run.
fn repeat_count() -> u32 {
    let Some(v) = std::env::var_os("BISCATTER_FLEET_REPEAT") else {
        return 1;
    };
    match v.to_str().and_then(|v| v.parse().ok()) {
        Some(n) if n > 0 => n,
        _ => {
            eprintln!("BISCATTER_FLEET_REPEAT={v:?}: expected a positive integer");
            std::process::exit(2);
        }
    }
}

fn main() {
    let sys = streaming_system();
    // Deployment settings are read here, at the process edge; the fleet
    // itself reads no environment. CI's obs-smoke job repeats the workload
    // so the metrics server stays up long enough to be scraped mid-run.
    let repeat = repeat_count();
    let trace_path = edge::trace_path();
    let _server = edge::metrics_server();

    let spec = MobilitySpec {
        n_cells: 16,
        mobile_tags: 8,
        n_ticks: 24,
        dwell_ticks: 3,
        base_seed: 42,
    };
    let cfg = FleetConfig {
        n_cells: spec.n_cells,
        shards: 4,
        intake_quota: 8,
        admission: AdmissionPolicy::Block,
        ..FleetConfig::default()
    };
    println!(
        "fleet: {} cells on {} shards, {} roaming tags, {} ticks (seed {})",
        cfg.n_cells, cfg.shards, spec.mobile_tags, spec.n_ticks, spec.base_seed
    );

    let fleet = Fleet::new(sys.clone(), cfg);
    for _ in 1..repeat {
        fleet.run(spec.jobs(&sys));
    }
    let jobs = spec.jobs(&sys);
    let report = fleet.run(jobs);
    println!(
        "processed {} frames in {:.3} s, {} handoffs, {} drops",
        report.frames_completed(),
        report.elapsed.as_secs_f64(),
        report.handoffs,
        report.admission_drops,
    );
    // The trace covers the fleet's runs only: write it before the oracle
    // replays below open spans of their own.
    if let Some(path) = &trace_path {
        edge::write_trace(path, [("fleet".to_string(), report.snapshot.to_json())]);
    }

    // Contract 1: every cell's outcomes are bit-identical to the one-shot
    // serial path (per-frame seeds make results scheduling-independent).
    let again = spec.jobs(&sys);
    let mut checked = 0usize;
    for cj in &again {
        let oracle = run_isac_frame(&sys, &cj.job.scenario, &cj.job.payload, cj.job.seed);
        let got = report.outcomes[cj.cell]
            .iter()
            .find(|(id, _)| *id == cj.job.id)
            .map(|(_, o)| o)
            .expect("frame missing from its cell's outcomes");
        assert_eq!(
            got, &oracle,
            "cell {} frame {} diverged",
            cj.cell, cj.job.id
        );
        checked += 1;
    }
    println!(
        "bit-identical to standalone: {checked}/{} frames",
        again.len()
    );

    // Contract 2: each roaming tag's session carries the oracle bit stream
    // through every handoff.
    for session in &report.sessions {
        let oracle: Vec<bool> = spec
            .oracle_jobs(&sys, session.tag)
            .iter()
            .flat_map(|j| {
                run_isac_frame(&sys, &j.scenario, &j.payload, j.seed)
                    .uplink_bits
                    .unwrap_or_default()
            })
            .collect();
        assert_eq!(
            session.bits, oracle,
            "tag {} session diverged from the single-cell oracle",
            session.tag
        );
        println!(
            "tag {}: {} bits across {} handoffs (owner now cell {})",
            session.tag,
            session.bits.len(),
            session.handoffs,
            session.owner
        );
    }

    // Contract 3: one merged snapshot covering all cells.
    println!("\n=== fleet snapshot ===");
    println!("{}", report.snapshot.to_text());
}
