//! Integration tests for the streaming runtime.
//!
//! Uses the reduced-cost `streaming_system()` (32-chirp frames, 256-point
//! range processing) so multi-hundred-frame streams stay affordable in debug
//! builds.

use std::sync::mpsc;
use std::thread;
use std::time::Duration;

use biscatter_compute::ComputePool;
use biscatter_obs::recorder;
use biscatter_runtime::pipeline::{run_serial, run_streaming, Cell, RuntimeConfig};
use biscatter_runtime::queue::Backpressure;
use biscatter_runtime::source::{cold_start_jobs, multi_tag_jobs, streaming_system, WorkloadSpec};
use biscatter_runtime::PrecisionTier;

/// Cell `id`'s metrics (each test uses its own cell id, so scopes don't mix).
fn cell_view(id: usize) -> biscatter_obs::metrics::RegistrySnapshot {
    let prefix = format!("cell{id}.");
    biscatter_obs::registry()
        .snapshot()
        .filter_prefix(&prefix)
        .strip_prefix(&prefix)
}

/// The acceptance workload: a seeded 4-radar × 8-tag stream of 200+
/// frames through a bounded intake must lose nothing under blocking
/// backpressure, and the metrics must account for every frame.
#[test]
fn blocking_stream_of_200_frames_is_lossless() {
    let sys = streaming_system();
    let spec = WorkloadSpec::four_by_eight(200, 42);
    let cfg = RuntimeConfig {
        queue_capacity: 4,
        policy: Backpressure::Block,
        ..RuntimeConfig::default()
    };
    let report = Cell::new(81, sys.clone(), cfg).run_streaming(spec.jobs(&sys));

    assert_eq!(report.outcomes.len(), 200, "no frame may be lost");
    assert_eq!(report.metrics.frames_completed, 200);
    assert_eq!(report.metrics.frames_failed, 0);
    assert_eq!(report.metrics.total_drops, 0);
    // Outcomes come back in frame order.
    for (i, (id, _)) in report.outcomes.iter().enumerate() {
        assert_eq!(*id, i as u64);
    }
    assert_eq!(report.metrics.end_to_end.count(), 200);
    // The intake drained, stayed bounded, and dropped nothing; every frame
    // was counted.
    let view = cell_view(81);
    assert_eq!(view.gauge("runtime.queue.intake.depth"), Some(0.0));
    let hiwat = view.gauge("runtime.queue.intake.high_water").unwrap();
    assert!(
        (1.0..=cfg.queue_capacity as f64).contains(&hiwat),
        "high water {hiwat}"
    );
    assert_eq!(view.counter("runtime.queue.intake.drops"), Some(0));
    assert_eq!(view.counter("runtime.frames"), Some(200));

    // The pipeline does real ISAC work: most frames decode and localize.
    let decoded = report
        .outcomes
        .iter()
        .filter(|(_, o)| o.downlink.parsed)
        .count();
    let located = report
        .outcomes
        .iter()
        .filter(|(_, o)| o.location.is_some())
        .count();
    assert!(decoded >= 180, "only {decoded}/200 downlinks decoded");
    assert!(located >= 180, "only {located}/200 tags located");
}

/// Streamed outcomes must be bit-identical to the one-shot
/// `core::isac::run_isac_frame` path on the same seeds, independent of
/// worker counts and queue sizing.
#[test]
fn streaming_matches_one_shot_path() {
    let sys = streaming_system();
    let spec = WorkloadSpec::four_by_eight(24, 7);
    let jobs = spec.jobs(&sys);
    let serial = run_serial(&sys, &jobs);

    for (workers, capacity) in [(1, 2), (2, 5), (3, 3)] {
        let cfg = RuntimeConfig {
            queue_capacity: capacity,
            policy: Backpressure::Block,
            workers,
            ..RuntimeConfig::default()
        };
        let streamed = run_streaming(&sys, jobs.clone(), &cfg);
        assert_eq!(streamed.outcomes.len(), serial.len());
        for ((sid, s), (rid, r)) in streamed.outcomes.iter().zip(&serial) {
            assert_eq!(sid, rid);
            assert_eq!(s, r, "frame {sid} diverged from the one-shot path");
        }
    }
}

/// Multi-tag frames route through the batched detect stage; streamed
/// outcomes must still match the one-shot path bit for bit, every tag must
/// be reported, and most tags should be found and decoded.
#[test]
fn multi_tag_stream_matches_one_shot_path() {
    let sys = streaming_system();
    let jobs = multi_tag_jobs(&sys, 12, 4, 11);
    let serial = run_serial(&sys, &jobs);

    for (workers, capacity) in [(1, 2), (2, 4), (3, 3)] {
        let cfg = RuntimeConfig {
            queue_capacity: capacity,
            policy: Backpressure::Block,
            workers,
            ..RuntimeConfig::default()
        };
        let streamed = run_streaming(&sys, jobs.clone(), &cfg);
        assert_eq!(streamed.outcomes.len(), serial.len());
        for ((sid, s), (rid, r)) in streamed.outcomes.iter().zip(&serial) {
            assert_eq!(sid, rid);
            assert_eq!(s, r, "multi-tag frame {sid} diverged from one-shot");
        }
    }

    // Sanity on content: each frame reports all 4 tags, the primary's bits
    // surface in `uplink_bits`, and most tags localize + decode.
    let mut located = 0usize;
    let mut decoded = 0usize;
    let mut total = 0usize;
    for (_, o) in &serial {
        assert_eq!(o.tags.len(), 4);
        assert_eq!(o.location, o.tags[0].location);
        if o.tags[0].location.is_some() {
            assert_eq!(
                o.uplink_bits.as_deref(),
                o.tags[0].uplink.as_ref().map(|d| &d.bits[..])
            );
        }
        for t in &o.tags {
            total += 1;
            located += t.location.is_some() as usize;
            decoded += t.uplink.is_some() as usize;
        }
    }
    assert!(located * 10 >= total * 8, "only {located}/{total} located");
    assert!(decoded * 10 >= total * 7, "only {decoded}/{total} decoded");
}

/// Same spec + same seed streamed twice must give identical outcomes
/// (scheduling-independent determinism).
#[test]
fn streaming_is_deterministic_across_runs() {
    let sys = streaming_system();
    let spec = WorkloadSpec::four_by_eight(16, 99);
    let cfg = RuntimeConfig::default();
    let a = run_streaming(&sys, spec.jobs(&sys), &cfg);
    let b = run_streaming(&sys, spec.jobs(&sys), &cfg);
    assert_eq!(a.outcomes, b.outcomes);
}

/// Drop-oldest backpressure on an overloaded intake sheds frames and counts
/// every shed frame.
#[test]
fn drop_oldest_sheds_and_accounts() {
    let sys = streaming_system();
    let spec = WorkloadSpec::four_by_eight(30, 5);
    let cfg = RuntimeConfig {
        queue_capacity: 1,
        policy: Backpressure::DropOldest,
        workers: 1,
        ..RuntimeConfig::default()
    };
    let report = Cell::new(82, sys.clone(), cfg).run_streaming(spec.jobs(&sys));
    // Conservation: completed + dropped + failed = offered. (The source
    // never blocks under drop-oldest, so all 30 jobs enter the intake.)
    let m = &report.metrics;
    assert_eq!(
        m.frames_completed + m.total_drops + m.frames_failed,
        30,
        "dropped frames must be accounted for"
    );
    let view = cell_view(82);
    assert_eq!(
        view.counter("runtime.queue.intake.drops"),
        Some(m.total_drops)
    );
    assert_eq!(view.gauge("runtime.queue.intake.high_water"), Some(1.0));
    assert_eq!(view.counter("runtime.frames"), Some(m.frames_completed));
    // Results that did come through are still frame-id ordered.
    let ids: Vec<u64> = report.outcomes.iter().map(|(id, _)| *id).collect();
    let mut sorted = ids.clone();
    sorted.sort_unstable();
    assert_eq!(ids, sorted);
}

/// Reject backpressure on an overloaded intake refuses frames instead: each
/// refused frame is counted once, in the intake's `rejected` counter, and
/// `total_drops` takes it in.
#[test]
fn reject_refuses_and_accounts() {
    let sys = streaming_system();
    let spec = WorkloadSpec::four_by_eight(30, 5);
    let cfg = RuntimeConfig {
        queue_capacity: 1,
        policy: Backpressure::Reject,
        workers: 1,
        ..RuntimeConfig::default()
    };
    let report = Cell::new(88, sys.clone(), cfg).run_streaming(spec.jobs(&sys));
    let m = &report.metrics;
    assert_eq!(
        m.frames_completed + m.total_drops + m.frames_failed,
        30,
        "refused frames must be accounted for"
    );
    let view = cell_view(88);
    assert_eq!(
        view.counter("runtime.queue.intake.rejected"),
        Some(m.total_drops)
    );
    assert_eq!(view.counter("runtime.queue.intake.drops"), Some(0));
    assert_eq!(view.counter("runtime.frames"), Some(m.frames_completed));
}

/// On a machine with real parallelism the pipeline must beat the serial
/// path by >=2x frames/sec. Gated on core count: a single-core runner can
/// only measure thread overhead, not pipelining.
#[test]
fn pipelined_beats_serial_on_multicore() {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    if cores < 4 {
        eprintln!("skipping speedup assertion: only {cores} core(s) available");
        return;
    }
    let sys = streaming_system();
    let jobs = WorkloadSpec::four_by_eight(48, 42).jobs(&sys);

    let t0 = std::time::Instant::now();
    let serial = run_serial(&sys, &jobs);
    let serial_elapsed = t0.elapsed();

    let cfg = RuntimeConfig {
        queue_capacity: 8,
        policy: Backpressure::Block,
        ..RuntimeConfig::default()
    };
    let t1 = std::time::Instant::now();
    let streamed = run_streaming(&sys, jobs, &cfg);
    let streamed_elapsed = t1.elapsed();

    assert_eq!(streamed.outcomes.len(), serial.len());
    let speedup = serial_elapsed.as_secs_f64() / streamed_elapsed.as_secs_f64();
    assert!(
        speedup >= 2.0,
        "pipelined path only {speedup:.2}x faster on {cores} cores \
         (serial {serial_elapsed:?}, pipelined {streamed_elapsed:?})"
    );
}

/// Metrics snapshots export to text and parseable JSON.
#[test]
fn metrics_snapshot_exports() {
    let sys = streaming_system();
    let report = run_streaming(
        &sys,
        WorkloadSpec::four_by_eight(8, 3).jobs(&sys),
        &RuntimeConfig::default(),
    );
    let text = report.metrics.to_text();
    assert!(text.contains("8 frames"), "text snapshot: {text}");
    assert!(text.contains("end-to-end"), "text snapshot: {text}");
    let json = report.metrics.to_json().to_pretty();
    let parsed = biscatter_core::json::parse(&json).expect("snapshot JSON parses");
    let field = |k: &str| parsed.get(k).and_then(biscatter_core::json::Value::as_f64);
    assert_eq!(field("frames_completed"), Some(8.0));
    assert_eq!(field("frames_failed"), Some(0.0));
    assert_eq!(field("total_drops"), Some(0.0));
}

/// An F32 cell streams on its own tier: each streamed outcome equals
/// `Cell::process` on the same job.
#[test]
fn f32_cell_streams_what_process_returns() {
    let sys = streaming_system();
    let jobs = WorkloadSpec::four_by_eight(8, 13).jobs(&sys);
    let cfg = RuntimeConfig {
        workers: 2,
        precision: PrecisionTier::F32,
        ..RuntimeConfig::default()
    };
    let cell = Cell::new(83, sys.clone(), cfg);
    let streamed = cell.run_streaming(jobs.clone());
    assert_eq!(streamed.outcomes.len(), jobs.len());
    let pool = ComputePool::new(1);
    for ((id, s), job) in streamed.outcomes.iter().zip(&jobs) {
        assert_eq!(*id, job.id);
        assert_eq!(*s, cell.process(&pool, job), "frame {id} left the f32 tier");
    }
}

/// A frame that panics (a NaN tag range) is contained by its worker: the
/// stream returns, the other 23 outcomes match the serial path bit for bit,
/// and the failure is counted and flight-recorded.
#[test]
fn panicking_frame_is_contained() {
    let sys = streaming_system();
    let mut jobs = WorkloadSpec::four_by_eight(24, 7).jobs(&sys);
    jobs[5].scenario.tag_range_m = f64::NAN;
    let healthy: Vec<_> = jobs.iter().filter(|j| j.id != 5).cloned().collect();
    let serial = run_serial(&sys, &healthy);

    let cfg = RuntimeConfig {
        workers: 2,
        ..RuntimeConfig::default()
    };
    let cell = Cell::new(84, sys.clone(), cfg);
    let (tx, rx) = mpsc::channel();
    thread::spawn(move || tx.send(cell.run_streaming(jobs)).ok());
    let report = rx
        .recv_timeout(Duration::from_secs(600))
        .expect("stream hung on a panicking frame");

    let m = &report.metrics;
    assert_eq!(m.frames_failed, 1);
    assert_eq!(m.frames_completed + m.total_drops + m.frames_failed, 24);
    assert_eq!(report.outcomes, serial);
    assert_eq!(cell_view(84).counter("runtime.frames.failed"), Some(1));
    let failed: Vec<u64> = recorder::for_cell(84)
        .snapshot()
        .iter()
        .filter(|r| r.failed)
        .map(|r| r.frame_id)
        .collect();
    assert_eq!(failed, vec![5]);
}

/// `Cell::process_cold_start` runs its aligned frame on the cell's tier: an
/// acquired job's frame equals `Cell::process` on the same job, on either
/// tier.
#[test]
fn cold_start_frame_runs_on_the_cell_tier() {
    let sys = streaming_system();
    let jobs = cold_start_jobs(&sys, 2, 19);
    let pool = ComputePool::new(1);
    for (id, tier) in [(85, PrecisionTier::F64), (86, PrecisionTier::F32)] {
        let cfg = RuntimeConfig {
            precision: tier,
            ..RuntimeConfig::default()
        };
        let cell = Cell::new(id, sys.clone(), cfg);
        for job in &jobs {
            let cold = cell.process_cold_start(&pool, job);
            assert!(cold.acquisition.is_some(), "job {} not acquired", job.id);
            assert_eq!(
                cold.frame,
                Some(cell.process(&pool, job)),
                "{tier:?} cold-start frame {} left the cell's tier",
                job.id
            );
        }
    }
}
