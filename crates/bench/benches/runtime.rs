//! `cargo bench --bench runtime` — streaming-runtime throughput: serial
//! one-shot frames vs a cell's frame workers on the same seeded 4-radar ×
//! 8-tag workload, timed interleaved and recorded in
//! `results/BENCH_runtime.json`.
//!
//! The streaming speedup is bounded by the machine's core count (the
//! default runs one frame worker per core), so read the two rates together
//! with the recorded core count. `--quick` runs each path once and writes
//! nothing.

use std::hint::black_box;

use biscatter_bench::harness::{self, Args, Fields, Sampler};
use biscatter_runtime::pipeline::{run_serial, run_streaming, RuntimeConfig};
use biscatter_runtime::queue::Backpressure;
use biscatter_runtime::source::{streaming_system, WorkloadSpec};

const FRAMES: usize = 24;

fn main() {
    let args = Args::parse();
    let sys = streaming_system();
    let jobs = WorkloadSpec::four_by_eight(FRAMES, 42).jobs(&sys);
    let cfg = RuntimeConfig {
        queue_capacity: 8,
        policy: Backpressure::Block,
        ..RuntimeConfig::default()
    };

    let rows = Sampler::new(&args, 10).interleave(&mut [
        &mut || {
            black_box(run_serial(&sys, black_box(&jobs)));
        },
        &mut || {
            black_box(run_streaming(&sys, black_box(jobs.clone()), &cfg));
        },
    ]);
    let mut results = Fields::default();
    for (name, row) in ["serial_24_frames", "streamed_24_frames"].iter().zip(&rows) {
        let per_s = FRAMES as f64 / (row.median() * 1e-9);
        println!("runtime/{name:<20} {row}  {per_s:.1} frames/s");
        let mut r = Fields::default();
        r.row("", "ms", &row.scaled(1e-6))
            .num("frames_per_sec", per_s);
        results.set(name, r.into());
    }

    let mut fields = Fields::default();
    fields
        .set("results", results.into())
        .num("frames", FRAMES as f64)
        .num("workers", cfg.workers as f64);
    harness::record(
        &args,
        "runtime",
        "runtime throughput",
        "streaming_system() (paper_9ghz with frame_chirps=32, n_fft=256, n_range_bins=256), \
         WorkloadSpec::four_by_eight: 4 radars x 8 tags, 24 frames, base_seed 42. serial = \
         run_serial (one-shot frames on this thread); streamed = run_streaming with Block \
         backpressure, queue_capacity 8 and RuntimeConfig::default()'s one whole-frame worker \
         per core. Each row is the time for all 24 frames, the two rows interleaved; \
         frames_per_sec uses the median. The >=2x streamed-vs-serial criterion applies on >=4 \
         cores and is asserted by the gated pipelined_beats_serial_on_multicore test in \
         crates/runtime/tests/streaming.rs only when available_parallelism() >= 4.",
        fields,
    );
}
