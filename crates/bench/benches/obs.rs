//! `cargo bench --bench obs` — cost of the PR-5 telemetry layer, recorded
//! in `results/BENCH_obs.json`. Every overhead is measured as interleaved
//! pairs of frames (stages 2–4 on a 1-thread pool) and reported as the
//! median and quartiles of the per-pair overhead:
//!
//! * tracing **disabled** (the default: every span is one relaxed atomic
//!   load and a branch) vs tracing **enabled** (spans recorded into the
//!   per-thread ring);
//! * the flight-recorder row: enabled-tracing frames with a `FrameRecord`
//!   captured per frame vs plain enabled frames;
//! * the scrape-under-load row: enabled frames while a client thread polls
//!   a live `obs::serve` HTTP server's `/metrics` every 25 ms vs enabled
//!   frames with the client paused — the cost of Prometheus-style polling
//!   on the frame path;
//! * steady-state allocations of one traced frame and of one recorded
//!   frame (must be 0 — the ring and all registry handles exist after
//!   warm-up);
//! * how many spans one frame records, and the cost of draining + exporting
//!   the Chrome trace JSON.
//!
//! `--quick` runs one frame per path and writes nothing, but still enforces
//! the zero-allocation assertions and one successful scrape.

use std::hint::black_box;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use biscatter_bench::harness::{self, Args, Fields, Sampler, Samples};
use biscatter_bench::hot_stages;
use biscatter_core::isac::{synthesize_frame, warm_dsp_plans, IsacScenario, SynthesizedFrame};
use biscatter_core::obs::alloc::{counted, CountingAlloc};
use biscatter_core::radar::receiver::doppler::RangeDopplerMap;
use biscatter_core::radar::receiver::AlignedFrame;
use biscatter_core::rf::slab::SampleSlab;
use biscatter_core::system::BiScatterSystem;
use biscatter_runtime::compute::ComputePool;
use biscatter_runtime::obs::recorder::{FlightRecorder, FrameRecord, StageNanos};
use biscatter_runtime::obs::serve::MetricsServer;
use biscatter_runtime::obs::trace::{self, TraceCollector};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// One frame through the hot stages on the buffers in `bufs`: the IF slab,
/// the aligned frame and the map.
fn frame(
    pool: &ComputePool,
    sys: &BiScatterSystem,
    synth: &SynthesizedFrame,
    bufs: &mut (SampleSlab, AlignedFrame, RangeDopplerMap),
) {
    let (slab, aligned, map) = bufs;
    hot_stages(pool, sys, synth, slab, aligned, map, 1);
    black_box(map.at(0, 0));
}

/// Records one interleaved pair, `[without, with]`: both rows' times and
/// the per-pair overhead of `with` in percent.
fn put_pair(fields: &mut Fields, stems: [&str; 3], rows: &[Samples]) {
    let overhead = rows[0].paired(&rows[1], |a, b| (b / a - 1.0) * 100.0);
    fields
        .row(stems[0], "ns", &rows[0])
        .row(stems[1], "ns", &rows[1])
        .row(stems[2], "pct", &overhead);
    println!(
        "{}: {} vs {}: {:+.2}% [{:+.2}, {:+.2}]",
        stems[2],
        rows[0],
        rows[1],
        overhead.median(),
        overhead.quantile(0.25),
        overhead.quantile(0.75)
    );
}

fn flight_record(frame_id: u64, total_ns: u64) -> FrameRecord {
    FrameRecord {
        frame_id,
        cell_id: 0,
        t_ns: 0,
        total_ns,
        stages: StageNanos {
            dechirp: total_ns / 3,
            align: total_ns / 3,
            doppler: total_ns / 3,
            ..StageNanos::default()
        },
        failed: false,
        snr_db: f64::NAN,
        pslr_db: f64::NAN,
        decoded_bits: 32,
        cfar_detections: 1,
        queue_drops: 0,
    }
}

fn main() {
    let args = Args::parse();
    let sampler = Sampler::new(&args, 25);
    let sys = BiScatterSystem::paper_9ghz();
    let scenario = IsacScenario::single_tag(3.0, 16.0 / (128.0 * 120e-6)).with_office_clutter();
    let synth = synthesize_frame(&sys, &scenario, b"CMD1", 7);
    warm_dsp_plans(&sys);
    let pool = ComputePool::new(1);
    let mut fields = Fields::default();
    let (mut a, mut b) = (Default::default(), Default::default());

    // --- Disabled vs enabled. ---------------------------------------------
    // Each disabled sample has an enabled neighbour taken a frame later, so
    // the per-pair difference isolates the span-site cost — one relaxed
    // atomic load + branch when off, a ring write when on.
    let rows = sampler.interleave(&mut [
        &mut || {
            trace::set_enabled(false);
            frame(&pool, &sys, &synth, &mut a);
        },
        &mut || {
            trace::set_enabled(true);
            frame(&pool, &sys, &synth, &mut b);
        },
    ]);
    put_pair(
        &mut fields,
        ["disabled_frame", "enabled_frame", "enabled_overhead"],
        &rows,
    );

    // --- Zero-allocation audit with tracing on. ---------------------------
    // The frames above were the warm-up; a further frame must not touch the
    // heap even while recording spans.
    trace::set_enabled(true);
    frame(&pool, &sys, &synth, &mut a);
    let ((), traced_allocs) = counted(|| frame(&pool, &sys, &synth, &mut a));
    println!("steady-state allocations with tracing enabled: {traced_allocs}");
    assert_eq!(
        traced_allocs, 0,
        "traced frame path allocated in steady state"
    );

    // Span volume + export cost: how many spans one frame records, and what
    // draining + rendering the Chrome trace costs.
    TraceCollector::drain(); // reset rings
    frame(&pool, &sys, &synth, &mut a);
    let t0 = Instant::now();
    let collector = TraceCollector::drain();
    let spans_per_frame = collector.span_count();
    let trace_json = collector.chrome_trace().to_pretty();
    let export_s = t0.elapsed().as_secs_f64();
    println!(
        "one frame records {spans_per_frame} spans; drain + Chrome-JSON export: {:.1} us ({} bytes)",
        export_s * 1e6,
        trace_json.len()
    );
    assert!(spans_per_frame >= 3, "expected dechirp/align/doppler spans");

    // --- Flight recorder: frame + one FrameRecord capture. ----------------
    // The record itself is a Mutex lock and a Copy write into a
    // preallocated ring.
    let recorder = FlightRecorder::with_capacity(0, 1024);
    let mut frame_id = 0;
    let rows = sampler.interleave(&mut [&mut || frame(&pool, &sys, &synth, &mut a), &mut || {
        frame(&pool, &sys, &synth, &mut b);
        frame_id += 1;
        recorder.record(flight_record(frame_id, 1_000_000));
    }]);
    put_pair(
        &mut fields,
        ["recorder_baseline", "recorder_frame", "recorder_overhead"],
        &rows,
    );

    // Recorder zero-alloc audit: the capture must ride the frame without
    // touching the heap (the ring was preallocated above).
    let ((), recorder_allocs) = counted(|| {
        frame(&pool, &sys, &synth, &mut a);
        recorder.record(flight_record(u64::MAX, 1));
    });
    println!("steady-state allocations with tracing + flight recorder: {recorder_allocs}");
    assert_eq!(
        recorder_allocs, 0,
        "flight-recorder capture allocated in steady state"
    );

    // --- Scrape under load: frames while /metrics is being polled. --------
    // A live server plus a client thread scraping every 25 ms while
    // `polling` is set — far hotter than Prometheus' usual 15 s cadence, so
    // this bounds realistic cost from above. The scraped row sets it, the
    // baseline row clears it. One scrape always runs so `--quick` covers
    // the server too.
    let server = MetricsServer::start("127.0.0.1:0").expect("bind metrics server");
    let addr = server.addr();
    let stop = Arc::new(AtomicBool::new(false));
    let polling = Arc::new(AtomicBool::new(true));
    let scrapes = Arc::new(AtomicU64::new(0));
    let scraper = {
        let (stop, polling, scrapes) = (stop.clone(), polling.clone(), scrapes.clone());
        std::thread::spawn(move || {
            use std::io::{Read, Write};
            while !stop.load(Ordering::Relaxed) {
                if polling.load(Ordering::Relaxed) {
                    if let Ok(mut s) = std::net::TcpStream::connect(addr) {
                        let _ = s.write_all(
                            b"GET /metrics HTTP/1.1\r\nHost: bench\r\nConnection: close\r\n\r\n",
                        );
                        let mut body = String::new();
                        if s.read_to_string(&mut body).is_ok() && body.contains("biscatter_") {
                            scrapes.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                }
                std::thread::sleep(Duration::from_millis(25));
            }
        })
    };
    while scrapes.load(Ordering::Relaxed) == 0 && !scraper.is_finished() {
        std::thread::sleep(Duration::from_millis(5));
    }
    let rows = sampler.interleave(&mut [
        &mut || {
            polling.store(false, Ordering::Relaxed);
            frame(&pool, &sys, &synth, &mut a);
        },
        &mut || {
            polling.store(true, Ordering::Relaxed);
            frame(&pool, &sys, &synth, &mut b);
        },
    ]);
    stop.store(true, Ordering::Relaxed);
    scraper.join().expect("scraper thread");
    let scrape_count = scrapes.load(Ordering::Relaxed);
    server.shutdown();
    trace::set_enabled(false);
    assert!(
        scrape_count > 0,
        "scraper never completed a successful /metrics poll"
    );
    put_pair(
        &mut fields,
        ["scrape_baseline", "scrape_frame", "scrape_overhead"],
        &rows,
    );

    fields
        .num("recorder_steady_state_allocs", recorder_allocs as f64)
        .num("scrape_polls", scrape_count as f64)
        .num("spans_per_frame", spans_per_frame as f64)
        .num("trace_export_us", export_s * 1e6)
        .num("traced_steady_state_allocs", traced_allocs as f64);
    harness::record(
        &args,
        "obs",
        "telemetry overhead",
        "stages 2-4 of one ISAC frame on a 1-thread pool. Each overhead row is the median and \
         quartiles over interleaved sample pairs of (with / without - 1) * 100, so host drift \
         cancels within each pair. enabled vs disabled: spans recorded into the per-thread ring \
         vs tracing off (one relaxed atomic load + branch per span site). recorder_frame vs \
         recorder_baseline: one FrameRecord capture per frame into the preallocated \
         flight-recorder ring, both with tracing on. scrape_frame vs scrape_baseline: a client \
         thread polling a live obs::serve HTTP server's /metrics every 25 ms during the scraped \
         frames and paused during the baseline ones (scrape_polls counts its successful polls, \
         including the one before sampling). *_steady_state_allocs counted by obs::alloc over one \
         traced frame and one recorded frame; acceptance: 0.",
        fields,
    );
}
