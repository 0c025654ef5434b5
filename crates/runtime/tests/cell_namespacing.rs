//! Per-cell metric namespacing regression test (ISSUE 6 satellite).
//!
//! Two cells running concurrently in one process must report *disjoint*
//! metric scopes — every pool gauge, intake gauge, and frame histogram a
//! cell touches lives under its own `cell<i>.` prefix — and each scope must
//! report that cell's numbers, not a sum mangled together in shared names.
//!
//! The cell ids here (31, 47) are deliberately unlike anything other tests
//! use: the registry is process-global and cumulative, so the prefixes must
//! be unique to this test binary for the exact-count assertions to hold.

use std::collections::BTreeSet;
use std::thread;

use biscatter_runtime::source::{streaming_system, WorkloadSpec};
use biscatter_runtime::{Cell, RuntimeConfig};

#[test]
fn concurrent_cells_report_disjoint_correct_gauges() {
    let sys = streaming_system();
    let cfg = RuntimeConfig {
        queue_capacity: 4,
        ..RuntimeConfig::default()
    };
    // Different frame counts so a cross-wired counter cannot pass by luck.
    let spec_a = WorkloadSpec {
        n_radars: 1,
        tags_per_radar: 2,
        n_frames: 5,
        base_seed: 7,
    };
    let spec_b = WorkloadSpec {
        n_radars: 1,
        tags_per_radar: 2,
        n_frames: 9,
        base_seed: 8,
    };

    let cell_a = Cell::new(31, sys.clone(), cfg);
    let cell_b = Cell::new(47, sys.clone(), cfg);
    let (report_a, report_b) = thread::scope(|s| {
        let a = s.spawn(|| cell_a.run_streaming(spec_a.jobs(&sys)));
        let b = s.spawn(|| cell_b.run_streaming(spec_b.jobs(&sys)));
        (a.join().unwrap(), b.join().unwrap())
    });
    assert_eq!(report_a.outcomes.len(), spec_a.n_frames);
    assert_eq!(report_b.outcomes.len(), spec_b.n_frames);

    let snap = biscatter_obs::registry().snapshot();
    let view_a = snap.filter_prefix("cell31.").strip_prefix("cell31.");
    let view_b = snap.filter_prefix("cell47.").strip_prefix("cell47.");

    // Each cell's scope carries that cell's numbers.
    assert_eq!(view_a.counter("runtime.frames"), Some(5));
    assert_eq!(view_b.counter("runtime.frames"), Some(9));
    for view in [&view_a, &view_b] {
        let depth = view.gauge("runtime.queue.intake.depth");
        assert_eq!(depth, Some(0.0), "intake drained at shutdown");
        let hiwat = view.gauge("runtime.queue.intake.high_water");
        assert!(hiwat.is_some_and(|v| v >= 1.0), "intake was never used");
        assert_eq!(view.counter("runtime.queue.intake.drops"), Some(0));
        assert_eq!(view.counter("runtime.frames.failed"), Some(0));
        assert!(
            view.counter("arena.isac.aligned.lease_hits").is_some(),
            "arena pools must live inside the cell scope"
        );
        assert!(
            view.histogram("runtime.frame.ns")
                .is_some_and(|h| h.count() > 0),
            "per-cell frame latency histogram missing"
        );
    }

    // And the scopes are disjoint views of the same schema: identical metric
    // names after stripping, no name leaking into the other cell's prefix.
    let names = |v: &biscatter_obs::metrics::RegistrySnapshot| -> BTreeSet<String> {
        v.counters
            .iter()
            .map(|(n, _)| n.clone())
            .chain(v.gauges.iter().map(|(n, _)| n.clone()))
            .chain(v.histograms.iter().map(|(n, _)| n.clone()))
            .collect()
    };
    assert_eq!(names(&view_a), names(&view_b));
    assert!(names(&view_a).iter().all(|n| !n.starts_with("cell")));

    // The legacy shared scope is untouched by prefixed cells: no bare
    // `runtime.frames` counted these cells' frames.
    if let Some(shared_frames) = snap.counter("runtime.frames") {
        let total: u64 = (5 + 9) as u64;
        assert!(
            shared_frames < total,
            "prefixed cells must not also bump the shared runtime.frames"
        );
    }
}
