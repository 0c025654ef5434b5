//! End-to-end telemetry audit for the streaming runtime.
//!
//! Runs a real multi-frame stream with tracing enabled and an intra-frame
//! compute pool, then drains the trace rings and the metric registry and
//! checks the whole observability story at once:
//!
//! - every completed frame id shows spans from the source, the frame
//!   worker, all five ISAC stages, and at least one compute-pool worker —
//!   i.e. the frame id propagated from the source thread through the frame
//!   worker into the pool's fork-join regions;
//! - the plan cache reports a non-zero hit rate, proving the hot-path
//!   instrumentation observed the reuse the DESIGN doc claims.
//!
//! This file keeps exactly one `#[test]`: the trace rings and the registry
//! are process-global, and `TraceCollector::drain` resets the rings, so a
//! second test in the same binary would race this one.

use std::collections::{BTreeMap, BTreeSet};

use biscatter_compute::ComputePool;
use biscatter_obs::trace::{self, TraceCollector};
use biscatter_runtime::pipeline::{run_streaming, Cell, RuntimeConfig};
use biscatter_runtime::queue::Backpressure;
use biscatter_runtime::source::{cold_start_jobs, streaming_system, WorkloadSpec};

const N_FRAMES: usize = 16;
const N_COLD: usize = 4;

#[test]
fn every_frame_is_traced_end_to_end() {
    trace::set_enabled(true);
    let sys = streaming_system();
    let spec = WorkloadSpec::four_by_eight(N_FRAMES, 42);
    let cfg = RuntimeConfig {
        queue_capacity: 4,
        policy: Backpressure::Block,
        workers: 1,
        intra_frame_threads: 2,
        ..RuntimeConfig::default()
    };
    let report = run_streaming(&sys, spec.jobs(&sys), &cfg);
    assert_eq!(report.outcomes.len(), N_FRAMES, "stream must be lossless");

    // Cold-start frames through the same cell machinery (inline path), so
    // the acquisition stage's spans and metrics land in the same drain.
    // Frame ids continue past the streamed ones to stay disjoint.
    let cell = Cell::standalone(sys.clone(), cfg);
    let pool = ComputePool::new(2);
    let mut cold = cold_start_jobs(&sys, N_COLD, 7);
    let mut cold_ids = Vec::new();
    for job in cold.iter_mut() {
        job.id += N_FRAMES as u64;
        cold_ids.push(job.id);
        let out = cell.process_cold_start(&pool, job);
        assert!(
            out.acquisition.is_some(),
            "cold-start frame {} not acquired",
            job.id
        );
    }

    // Gather, per frame id, the set of span names recorded anywhere.
    let collector = TraceCollector::drain();
    let mut by_frame: BTreeMap<u64, BTreeSet<&'static str>> = BTreeMap::new();
    let mut threads_with_spans = BTreeSet::new();
    for (tid, span) in collector.iter_spans() {
        threads_with_spans.insert(tid);
        if span.frame_id != trace::NO_FRAME {
            by_frame.entry(span.frame_id).or_default().insert(span.name);
        }
    }
    for t in &collector.threads {
        assert_eq!(t.dropped, 0, "thread {} overflowed its ring", t.thread);
    }
    assert!(
        threads_with_spans.len() >= 3,
        "expected spans from several threads (source, frame worker, pool), got {}",
        threads_with_spans.len()
    );

    // Every completed frame was traced at the source, in its frame worker,
    // through each ISAC stage, and inside at least one compute-pool worker.
    let required = [
        "runtime.source",
        "runtime.frame",
        "isac.synthesize",
        "isac.dechirp",
        "isac.align",
        "isac.doppler",
        "isac.detect",
        "compute.worker",
    ];
    for (id, _) in &report.outcomes {
        let names = by_frame
            .get(id)
            .unwrap_or_else(|| panic!("frame {id} recorded no spans at all"));
        for want in required {
            assert!(
                names.contains(want),
                "frame {id} is missing a `{want}` span (has {names:?})"
            );
        }
    }

    // The registry saw the hot-path reuse: FFT plans report hits after the
    // first few frames.
    let reg = &report.metrics.registry;
    let counter = |name: &str| {
        reg.counter(name)
            .unwrap_or_else(|| panic!("registry is missing counter `{name}`"))
    };
    assert!(counter("dsp.plan_cache.hits") > 0, "plan cache never hit");
    assert!(
        counter("compute.fork_join.calls") > 0,
        "intra-frame pool never forked"
    );

    // The intake published its congestion gauges: used, drained, and
    // lossless under blocking backpressure.
    let hw = reg.gauge("runtime.queue.intake.high_water");
    assert!(hw.is_some_and(|hw| hw >= 1.0), "intake high water {hw:?}");
    assert_eq!(reg.gauge("runtime.queue.intake.depth"), Some(0.0));
    assert_eq!(counter("runtime.queue.intake.drops"), 0);

    // Every cold-start frame shows the acquisition stage's spans — the
    // stage wrapper, the correlator bank, and its fan-out/scan phases (the
    // block spectra, the per-hypothesis correlation with its energy fold,
    // the scan) — and then the aligned-frame spans, since every dwell here
    // carries a tag.
    let acquire_spans = [
        "isac.acquire",
        "acquire.bank",
        "acquire.spectra",
        "acquire.correlate",
        "acquire.scan",
        "isac.dechirp",
        "isac.detect",
    ];
    for id in &cold_ids {
        let names = by_frame
            .get(id)
            .unwrap_or_else(|| panic!("cold-start frame {id} recorded no spans"));
        for want in acquire_spans {
            assert!(
                names.contains(want),
                "cold-start frame {id} is missing a `{want}` span (has {names:?})"
            );
        }
    }

    // The cold-start frames ran after `run_streaming` snapshotted the
    // registry, so their counters need a fresh snapshot. The bank evaluated
    // every hypothesis once per frame, finished at least one and at most
    // all of them, folded their windows, and — after the first frame built
    // the templates — served the rest from cache.
    let snap = biscatter_obs::registry().snapshot();
    let acq_counter = |name: &str| {
        snap.counter(name)
            .unwrap_or_else(|| panic!("registry is missing counter `{name}`"))
    };
    let hyps = acq_counter("acquire.hypotheses.evaluated");
    assert!(hyps >= N_COLD as u64, "hypotheses evaluated: {hyps}");
    let finished = acq_counter("acquire.hypotheses.finished");
    assert!(
        (1..=hyps).contains(&finished),
        "hypotheses finished: {finished} of {hyps} evaluated"
    );
    assert!(
        acq_counter("acquire.windows.accumulated") > hyps,
        "windows accumulated should exceed hypotheses evaluated"
    );
    assert!(
        acq_counter("acquire.templates.cache_misses") >= 1,
        "the first cold-start frame must build the template cache"
    );
    assert!(
        acq_counter("acquire.templates.cache_hits") >= 1,
        "later cold-start frames never hit the template cache"
    );
    assert_eq!(
        acq_counter("acquire.tags.acquired"),
        N_COLD as u64,
        "every cold-start dwell here carries a tag"
    );
    let bank_size = snap
        .gauge("acquire.bank.hypotheses")
        .expect("registry is missing gauge `acquire.bank.hypotheses`");
    assert!(bank_size >= 1.0, "bank-size gauge never set");
    let pslr = snap
        .histogram("acquire.pslr_mdb")
        .expect("registry is missing histogram `acquire.pslr_mdb`");
    assert_eq!(
        pslr.count(),
        N_COLD as u64,
        "one PSLR sample per cold-start dwell"
    );
}
