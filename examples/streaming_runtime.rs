//! Streaming ISAC runtime demo: 4 radars × 8 tags, 200 continuous frames.
//!
//! Streams the workload through a cell's frame workers twice — once with
//! lossless blocking backpressure, once with drop-oldest shedding on a tiny
//! intake — and prints the run metrics plus the JSON snapshot.
//!
//! ```sh
//! cargo run --release --example streaming_runtime
//! ```
//!
//! Set `BISCATTER_TRACE=<path>` to additionally record spans from every
//! thread (source, frame workers, intra-frame compute pool) and write a
//! Perfetto-loadable Chrome trace — with the metric registry embedded under
//! a `"registry"` key — when the demo exits:
//!
//! ```sh
//! BISCATTER_TRACE=/tmp/biscatter_trace.json \
//!     cargo run --release --example streaming_runtime
//! # then open the file at https://ui.perfetto.dev
//! ```
//!
//! Set `BISCATTER_METRICS_ADDR=<host:port>` to serve the live observability
//! plane (`/metrics`, `/health`, `/frames`, `/trace`) while the demo runs.

#[path = "support/edge.rs"]
mod edge;

use biscatter_runtime::pipeline::{run_streaming, RuntimeConfig};
use biscatter_runtime::queue::Backpressure;
use biscatter_runtime::source::{streaming_system, WorkloadSpec};

fn main() {
    let sys = streaming_system();
    // Deployment settings are read here, at the process edge; the runtime
    // itself reads no environment.
    let trace_path = edge::trace_path();
    let _server = edge::metrics_server();
    let spec = WorkloadSpec::four_by_eight(200, 42);
    println!(
        "workload: {} radars x {} tags, {} frames (seed {})",
        spec.n_radars, spec.tags_per_radar, spec.n_frames, spec.base_seed
    );

    // Lossless run: blocking backpressure, bounded intake. Two intra-frame
    // threads so the shared compute pool's fork-join spans show up in the
    // trace alongside the stage spans.
    let cfg = RuntimeConfig {
        queue_capacity: 8,
        policy: Backpressure::Block,
        intra_frame_threads: 2,
        ..RuntimeConfig::default()
    };
    let report = run_streaming(&sys, spec.jobs(&sys), &cfg);

    let located = report
        .outcomes
        .iter()
        .filter(|(_, o)| o.location.is_some())
        .count();
    let decoded = report
        .outcomes
        .iter()
        .filter(|(_, o)| o.downlink.parsed)
        .count();
    println!(
        "\n=== blocking backpressure (intake capacity {}) ===",
        cfg.queue_capacity
    );
    println!(
        "downlink decoded {}/{}, tags located {}/{}",
        decoded,
        report.outcomes.len(),
        located,
        report.outcomes.len()
    );
    println!("{}", report.metrics.to_text());

    // Overload run: a tiny intake with drop-oldest shedding, also with two
    // intra-frame threads.
    let lossy = RuntimeConfig {
        queue_capacity: 2,
        policy: Backpressure::DropOldest,
        workers: 1,
        intra_frame_threads: 2,
        ..RuntimeConfig::default()
    };
    let shed = run_streaming(&sys, WorkloadSpec::four_by_eight(60, 42).jobs(&sys), &lossy);
    println!("=== drop-oldest on a capacity-2 intake (60 frames) ===");
    println!("{}", shed.metrics.to_text());

    println!("=== JSON snapshot (blocking run) ===");
    println!("{}", report.metrics.to_json().to_pretty());

    if let Some(path) = trace_path {
        edge::write_trace(&path, []);
    }
}
