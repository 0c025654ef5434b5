//! A frame's buffers belong to the thread that runs it, not to a cell: once
//! a thread's frames have sized its buffer set, a cell that has never run a
//! frame makes exactly the allocations of a warmed cell's frame of the same
//! job. A cell that kept buffers of its own would size them in its first
//! frame and show here as extra allocations.
//!
//! The cases cover a single-tag `streaming_system` frame, a 24-tag
//! `paper_9ghz` frame (the multi-tag bank and its scratch) and a cold-start
//! frame (the dwell capture, the correlator bank and its slabs, then the
//! aligned frame on the same set). Cells carry no buffers, so a
//! [`Cell::new`] cell registers only its frame and intake series.
//!
//! The allocation counter is thread-local and every frame runs inline on
//! a 1-thread pool, so the counts are the test thread's own; this file keeps
//! exactly one `#[test]`.

use std::collections::BTreeSet;

use biscatter_core::obs::alloc::{counted, CountingAlloc};
use biscatter_core::system::BiScatterSystem;
use biscatter_runtime::compute::ComputePool;
use biscatter_runtime::obs::registry;
use biscatter_runtime::source::{cold_start_jobs, multi_tag_jobs};
use biscatter_runtime::{streaming_system, Cell, FrameJob, RuntimeConfig, WorkloadSpec};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Runs `job` on `cell` (cold-start jobs through acquisition first) and
/// returns the outcome's debug text, which carries every output field, with
/// the allocations the cell's call made.
fn run(cell: &Cell, pool: &ComputePool, job: &FrameJob) -> (String, usize) {
    if job.scenario.cold_start.is_some() {
        let (outcome, allocs) = counted(|| cell.process_cold_start(pool, job));
        (format!("{outcome:?}"), allocs)
    } else {
        let (outcome, allocs) = counted(|| cell.process(pool, job));
        (format!("{outcome:?}"), allocs)
    }
}

#[test]
fn new_cell_on_a_warmed_thread_allocates_no_frame_buffers() {
    let pool = ComputePool::new(1);
    let cfg = RuntimeConfig::default();
    let paper = BiScatterSystem::paper_9ghz();
    let streaming = streaming_system();
    let cases = [
        (
            "streaming_system 4x8",
            &streaming,
            WorkloadSpec::four_by_eight(8, 42)
                .jobs(&streaming)
                .remove(0),
        ),
        (
            "paper_9ghz 24 tags",
            &paper,
            multi_tag_jobs(&paper, 4, 24, 42).remove(0),
        ),
        (
            "paper_9ghz cold start",
            &paper,
            cold_start_jobs(&paper, 7, 42).remove(0),
        ),
    ];
    for (i, (name, sys, job)) in cases.into_iter().enumerate() {
        let warmed = Cell::new(900 + 2 * i, sys.clone(), cfg);
        run(&warmed, &pool, &job);
        run(&warmed, &pool, &job);
        let (steady, steady_allocs) = run(&warmed, &pool, &job);

        let fresh = Cell::new(901 + 2 * i, sys.clone(), cfg);
        let (first, first_allocs) = run(&fresh, &pool, &job);
        println!("{name}: new cell {first_allocs}, warmed cell {steady_allocs} allocations");
        assert_eq!(first, steady, "{name}: the new cell's outcome differs");
        assert_eq!(
            first_allocs, steady_allocs,
            "{name}: a new cell's first frame on a warmed thread made {first_allocs} \
             allocations, a warmed cell's frame {steady_allocs}"
        );
    }

    let _cell = Cell::new(990, streaming, cfg);
    let snap = registry()
        .snapshot()
        .filter_prefix("cell990.")
        .strip_prefix("cell990.");
    let names: BTreeSet<&str> = snap
        .counters
        .iter()
        .map(|(n, _)| n.as_str())
        .chain(snap.gauges.iter().map(|(n, _)| n.as_str()))
        .chain(snap.histograms.iter().map(|(n, _)| n.as_str()))
        .collect();
    let want = BTreeSet::from([
        "runtime.frame.ns",
        "runtime.frames",
        "runtime.frames.failed",
        "runtime.queue.intake.drops",
        "runtime.queue.intake.rejected",
    ]);
    assert_eq!(names, want, "the metrics a `Cell::new` cell registers");
}
