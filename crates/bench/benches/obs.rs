//! `cargo bench --bench obs` — cost of the PR-5 telemetry layer, recorded
//! in `results/BENCH_obs.json`:
//!
//! * per-frame latency of stages 2–4 with tracing **disabled** (the default:
//!   every span is one relaxed atomic load and a branch) vs tracing
//!   **enabled** (spans recorded into the per-thread ring), sampled
//!   interleaved pair-by-pair so machine drift cancels out of the overhead;
//! * the disabled-path latency compared against the untraced baseline in
//!   `results/BENCH_frame.json` (same stages, same system, same pool) — the
//!   acceptance gate is that the disabled path sits within 2% of it;
//! * steady-state allocations of one traced frame (must be 0 — the ring and
//!   all registry handles exist after warm-up);
//! * how many spans one frame records, and the cost of draining + exporting
//!   the Chrome trace JSON;
//! * the flight-recorder row: enabled-tracing frames with a `FrameRecord`
//!   captured per frame, interleaved against plain enabled frames (gate:
//!   within 2%, and recording must not allocate in steady state);
//! * the scrape-under-load row: the same frames while a live
//!   `obs::serve` HTTP server answers `/metrics` every 25 ms from a client
//!   thread — the cost of Prometheus-style polling on the frame path.
//!
//! A plain `main` (harness = false) so the medians can be written to JSON.
//! `--quick` runs one frame per path and skips the JSON write and the
//! baseline comparison, but still enforces the zero-allocation assertion.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::hint::black_box;
use std::time::Instant;

use biscatter_core::isac::{
    align_stage_into, dechirp_stage_into, doppler_stage_into, synthesize_frame, warm_dsp_plans,
    AlignedPair, FrameArena, IsacScenario, SynthesizedFrame,
};
use biscatter_core::radar::receiver::doppler::RangeDopplerMap;
use biscatter_core::rf::slab::SampleSlab;
use biscatter_core::system::BiScatterSystem;
use biscatter_runtime::compute::ComputePool;
use biscatter_runtime::obs::recorder::{FlightRecorder, FrameRecord, StageNanos};
use biscatter_runtime::obs::serve::MetricsServer;
use biscatter_runtime::obs::trace::{self, TraceCollector};

thread_local! {
    /// `-1` = not counting; `>= 0` = allocations observed on this thread.
    static ALLOCS: Cell<isize> = const { Cell::new(-1) };
}

struct CountingAlloc;

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }
}

fn count_one() {
    let _ = ALLOCS.try_with(|c| {
        let v = c.get();
        if v >= 0 {
            c.set(v + 1);
        }
    });
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// One frame through the hot stages (2–4) on the arena path — identical to
/// the `frame` bench's loop, so the two benches measure the same work.
fn run_frame(
    pool: &ComputePool,
    sys: &BiScatterSystem,
    synth: &SynthesizedFrame,
    arena: &FrameArena,
    pair: &mut AlignedPair,
    map: &mut RangeDopplerMap,
) {
    let mut slab = arena.if_slabs.take_or(SampleSlab::new);
    dechirp_stage_into(pool, sys, &synth.train, &synth.scene, 1, &mut slab);
    align_stage_into(pool, sys, &synth.train, &*slab, pair);
    doppler_stage_into(pool, pair, map);
}

/// One timed frame through the hot stages.
fn sample_frame_s(
    pool: &ComputePool,
    sys: &BiScatterSystem,
    synth: &SynthesizedFrame,
    arena: &FrameArena,
    pair: &mut AlignedPair,
    map: &mut RangeDopplerMap,
) -> f64 {
    let t0 = Instant::now();
    run_frame(pool, sys, synth, arena, pair, map);
    let dt = t0.elapsed().as_secs_f64();
    black_box(map.at(0, 0));
    dt
}

fn median(times: &mut [f64]) -> f64 {
    times.sort_by(|a, b| a.partial_cmp(b).unwrap());
    times[times.len() / 2]
}

/// `serial_frame_ns` from `results/BENCH_frame.json`, if present.
fn frame_bench_baseline_ns(path: &str) -> Option<f64> {
    let text = std::fs::read_to_string(path).ok()?;
    let doc = biscatter_core::json::parse(&text).ok()?;
    doc.get("serial_frame_ns")
        .and_then(biscatter_core::json::Value::as_f64)
}

fn main() {
    let quick = std::env::args().skip(1).any(|a| a == "--quick");
    let samples = 25;
    let sys = BiScatterSystem::paper_9ghz();
    let scenario = IsacScenario::single_tag(3.0, 16.0 / (128.0 * 120e-6)).with_office_clutter();
    let synth = synthesize_frame(&sys, &scenario, b"CMD1", 7);
    warm_dsp_plans(&sys);
    let pool = ComputePool::new(1);
    let arena = FrameArena::default();

    // --- Disabled vs enabled, interleaved sample by sample. ---------------
    // Interleaving cancels slow machine drift (thermal / contention): each
    // disabled sample has an enabled neighbour taken microseconds later, so
    // the median difference isolates the span-site cost — one relaxed atomic
    // load + branch when off, a ring write when on.
    let mut pair = AlignedPair::default();
    let mut map = RangeDopplerMap::default();
    trace::set_enabled(false);
    run_frame(&pool, &sys, &synth, &arena, &mut pair, &mut map);
    trace::set_enabled(true);
    run_frame(&pool, &sys, &synth, &arena, &mut pair, &mut map);
    let (mut dis, mut en) = (Vec::new(), Vec::new());
    if !quick {
        for _ in 0..samples {
            trace::set_enabled(false);
            dis.push(sample_frame_s(
                &pool, &sys, &synth, &arena, &mut pair, &mut map,
            ));
            trace::set_enabled(true);
            en.push(sample_frame_s(
                &pool, &sys, &synth, &arena, &mut pair, &mut map,
            ));
        }
    }
    let disabled_s = if quick { 0.0 } else { median(&mut dis) };
    let enabled_s = if quick { 0.0 } else { median(&mut en) };

    // --- Zero-allocation audit with tracing on. ---------------------------
    // The frames above were the warm-up; a further frame must not touch the
    // heap even while recording spans.
    trace::set_enabled(true);
    run_frame(&pool, &sys, &synth, &arena, &mut pair, &mut map);
    ALLOCS.with(|c| c.set(0));
    run_frame(&pool, &sys, &synth, &arena, &mut pair, &mut map);
    let traced_allocs = ALLOCS.with(|c| c.replace(-1));
    println!("steady-state allocations with tracing enabled: {traced_allocs}");
    assert_eq!(
        traced_allocs, 0,
        "traced frame path allocated in steady state"
    );

    // Span volume + export cost: how many spans one frame records, and what
    // draining + rendering the Chrome trace costs.
    TraceCollector::drain(); // reset rings
    run_frame(&pool, &sys, &synth, &arena, &mut pair, &mut map);
    let t0 = Instant::now();
    let collector = TraceCollector::drain();
    let spans_per_frame = collector.span_count();
    let trace_json = collector.chrome_trace().to_pretty();
    let export_s = t0.elapsed().as_secs_f64();
    trace::set_enabled(false);
    println!(
        "one frame records {spans_per_frame} spans; drain + Chrome-JSON export: {:.1} us ({} bytes)",
        export_s * 1e6,
        trace_json.len()
    );
    assert!(spans_per_frame >= 3, "expected dechirp/align/doppler spans");

    // --- Flight recorder row: frame + one FrameRecord capture. ------------
    // Interleaved against plain enabled frames like the disabled/enabled
    // pair above. The record itself is a Mutex lock and a Copy write into a
    // preallocated ring, so the gate is the same 2% the tracing layer meets.
    let recorder = FlightRecorder::with_capacity(0, 1024);
    let flight_record = |frame_id: u64, total_ns: u64| FrameRecord {
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
    };
    trace::set_enabled(true);
    let (mut base, mut rec) = (Vec::new(), Vec::new());
    if !quick {
        for i in 0..samples {
            base.push(sample_frame_s(
                &pool, &sys, &synth, &arena, &mut pair, &mut map,
            ));
            let t0 = Instant::now();
            run_frame(&pool, &sys, &synth, &arena, &mut pair, &mut map);
            recorder.record(flight_record(i as u64, t0.elapsed().as_nanos() as u64));
            rec.push(t0.elapsed().as_secs_f64());
        }
    }
    let recorder_base_s = if quick { 0.0 } else { median(&mut base) };
    let recorder_s = if quick { 0.0 } else { median(&mut rec) };

    // Recorder zero-alloc audit: the capture must ride the frame without
    // touching the heap (the ring was preallocated above).
    ALLOCS.with(|c| c.set(0));
    run_frame(&pool, &sys, &synth, &arena, &mut pair, &mut map);
    recorder.record(flight_record(u64::MAX, 1));
    let recorder_allocs = ALLOCS.with(|c| c.replace(-1));
    println!("steady-state allocations with tracing + flight recorder: {recorder_allocs}");
    assert_eq!(
        recorder_allocs, 0,
        "flight-recorder capture allocated in steady state"
    );

    // --- Scrape-under-load row: frames while /metrics is being polled. ----
    // A live server plus a client thread scraping every 25 ms — far hotter
    // than Prometheus' usual 15 s cadence, so this bounds realistic cost
    // from above. Skipped timing in --quick, but one scrape always runs so
    // the smoke path covers the server.
    let server = MetricsServer::start("127.0.0.1:0").expect("bind metrics server");
    let addr = server.addr();
    let stop = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
    let scrapes = std::sync::Arc::new(std::sync::atomic::AtomicU64::new(0));
    let scraper = {
        let (stop, scrapes) = (stop.clone(), scrapes.clone());
        std::thread::spawn(move || {
            use std::io::{Read, Write};
            while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                if let Ok(mut s) = std::net::TcpStream::connect(addr) {
                    let _ = s.write_all(
                        b"GET /metrics HTTP/1.1\r\nHost: bench\r\nConnection: close\r\n\r\n",
                    );
                    let mut body = String::new();
                    if s.read_to_string(&mut body).is_ok() && body.contains("biscatter_") {
                        scrapes.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                    }
                }
                std::thread::sleep(std::time::Duration::from_millis(25));
            }
        })
    };
    let mut under_scrape = Vec::new();
    if !quick {
        for _ in 0..samples {
            under_scrape.push(sample_frame_s(
                &pool, &sys, &synth, &arena, &mut pair, &mut map,
            ));
        }
    } else {
        // Give the scraper thread one poll so --quick still proves liveness.
        std::thread::sleep(std::time::Duration::from_millis(120));
    }
    stop.store(true, std::sync::atomic::Ordering::Relaxed);
    scraper.join().expect("scraper thread");
    let scrape_count = scrapes.load(std::sync::atomic::Ordering::Relaxed);
    server.shutdown();
    assert!(
        scrape_count > 0,
        "scraper never completed a successful /metrics poll"
    );
    let scrape_s = if quick {
        0.0
    } else {
        median(&mut under_scrape)
    };
    trace::set_enabled(false);

    if quick {
        println!("--quick: smoke run only ({scrape_count} scrapes), results/BENCH_obs.json not rewritten");
        return;
    }

    let recorder_overhead_pct = (recorder_s / recorder_base_s - 1.0) * 100.0;
    println!(
        "flight recorder: plain {:.3} ms, recorded {:.3} ms ({recorder_overhead_pct:+.2}% overhead)",
        recorder_base_s * 1e3,
        recorder_s * 1e3,
    );
    if recorder_overhead_pct.abs() > 2.0 {
        eprintln!(
            "WARNING: flight-recorder capture is {recorder_overhead_pct:+.2}% off the plain \
             enabled path (gate: 2%) — interleaved medians should sit well inside it"
        );
    }
    let scrape_overhead_pct = (scrape_s / recorder_base_s - 1.0) * 100.0;
    println!(
        "scrape under load: {:.3} ms over {} /metrics polls ({scrape_overhead_pct:+.2}% vs unscraped)",
        scrape_s * 1e3,
        scrape_count,
    );

    let enabled_overhead_pct = (enabled_s / disabled_s - 1.0) * 100.0;
    println!(
        "frame stages 2-4: tracing disabled {:.3} ms, enabled {:.3} ms ({enabled_overhead_pct:+.2}% overhead)",
        disabled_s * 1e3,
        enabled_s * 1e3,
    );

    // --- Baseline comparison: disabled tracing vs the frame bench. --------
    let baseline_path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../results/BENCH_frame.json"
    );
    let baseline_ns = frame_bench_baseline_ns(baseline_path);
    let vs_baseline_pct = baseline_ns.map(|b| (disabled_s * 1e9 / b - 1.0) * 100.0);
    match (baseline_ns, vs_baseline_pct) {
        (Some(b), Some(pct)) => {
            println!(
                "vs untraced baseline (BENCH_frame serial {:.2} ms): {pct:+.2}%",
                b / 1e6
            );
            if pct.abs() > 2.0 {
                // Cross-process comparison, so a stale baseline or machine
                // drift can exceed the gate without any code change; flag it
                // loudly instead of failing the in-process measurements.
                eprintln!(
                    "WARNING: disabled-tracing latency is {pct:+.2}% off the untraced \
                     baseline (gate: 2%) — rerun `cargo bench --bench frame` \
                     back-to-back with this bench to refresh the baseline"
                );
            }
        }
        _ => println!("no results/BENCH_frame.json baseline; skipping comparison"),
    }

    let json = format!(
        "{{\n  \"bench\": \"telemetry overhead (crates/bench/benches/obs.rs)\",\n  {dispatch},\n  \"note\": \"stages 2-4 of one ISAC frame on a 1-thread pool; disabled/enabled samples interleaved pairwise ({samples} pairs, medians) so machine drift cancels. disabled = tracing off (one relaxed atomic load + branch per span site); enabled = spans recorded into the per-thread ring. recorder_frame_ns adds one FrameRecord capture per frame into the preallocated flight-recorder ring (vs recorder_baseline_ns, same interleaving; acceptance: within 2% and 0 steady-state allocs). scrape_frame_ns is the same frame while a live obs::serve HTTP server answers /metrics every 25 ms from a client thread. vs_untraced_baseline_pct compares the disabled path to serial_frame_ns in results/BENCH_frame.json (same stages, same system, separate process); acceptance: within 2%, regenerate both back-to-back. traced_steady_state_allocs counted by a wrapping global allocator with tracing enabled; acceptance: 0.\",\n  \"disabled_frame_ns\": {:.0},\n  \"enabled_frame_ns\": {:.0},\n  \"enabled_overhead_pct\": {enabled_overhead_pct:.2},\n  \"recorder_baseline_ns\": {:.0},\n  \"recorder_frame_ns\": {:.0},\n  \"recorder_overhead_pct\": {recorder_overhead_pct:.2},\n  \"recorder_steady_state_allocs\": {recorder_allocs},\n  \"scrape_frame_ns\": {:.0},\n  \"scrape_overhead_pct\": {scrape_overhead_pct:.2},\n  \"scrape_polls\": {scrape_count},\n  \"vs_untraced_baseline_pct\": {},\n  \"spans_per_frame\": {spans_per_frame},\n  \"trace_export_us\": {:.1},\n  \"traced_steady_state_allocs\": {traced_allocs}\n}}\n",
        disabled_s * 1e9,
        enabled_s * 1e9,
        recorder_base_s * 1e9,
        recorder_s * 1e9,
        scrape_s * 1e9,
        vs_baseline_pct.map_or("null".to_string(), |p| format!("{p:.2}")),
        export_s * 1e6,
        dispatch = biscatter_bench::dispatch_json_fields(),
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../results/BENCH_obs.json");
    std::fs::write(path, &json).expect("write BENCH_obs.json");
    println!("wrote {path}");
}
