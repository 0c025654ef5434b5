//! Streaming-runtime throughput: serial one-shot frames vs a cell's frame
//! workers on the same seeded 4-radar × 8-tag workload.
//!
//! Reports frames/sec for both paths (`Throughput::Elements`). The streaming
//! speedup is bounded by the machine's core count (the default runs one
//! frame worker per core), so compare the two rates together with the
//! recorded core count (see `results/BENCH_runtime.json`).

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use std::hint::black_box;

use biscatter_runtime::pipeline::{run_serial, run_streaming, RuntimeConfig};
use biscatter_runtime::queue::Backpressure;
use biscatter_runtime::source::{streaming_system, WorkloadSpec};

const FRAMES: usize = 24;

fn bench_runtime(c: &mut Criterion) {
    let sys = streaming_system();
    let jobs = WorkloadSpec::four_by_eight(FRAMES, 42).jobs(&sys);

    let mut g = c.benchmark_group("runtime");
    g.sample_size(10);
    g.throughput(Throughput::Elements(FRAMES as u64));

    g.bench_function("serial_24_frames", |b| {
        b.iter(|| run_serial(&sys, black_box(&jobs)))
    });

    let cfg = RuntimeConfig {
        queue_capacity: 8,
        policy: Backpressure::Block,
        ..RuntimeConfig::default()
    };
    g.bench_function("streamed_24_frames", |b| {
        b.iter(|| run_streaming(&sys, black_box(jobs.clone()), &cfg))
    });

    g.finish();
}

criterion_group!(benches, bench_runtime);
criterion_main!(benches);
