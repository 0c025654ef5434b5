//! `FleetSnapshot::from_registry` classifies each metric name once, by its
//! `cell<i>.` prefix: on a 16-cell registry of 136 series it slices exactly
//! as the per-cell prefix scan it replaced (kept below as the oracle) did,
//! stray scopes such as `cell012.` and `cell16.` included, and makes fewer
//! allocations doing it. This runs in a process of its own: the audit
//! needs the counting allocator, and a single `#[test]` keeps other tests
//! off its thread.

use biscatter_fleet::FleetSnapshot;
use biscatter_obs::alloc::{counted, CountingAlloc};
use biscatter_obs::metrics::{Registry, RegistrySnapshot};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

const N_CELLS: usize = 16;

/// The slicing as it was: a name is shared when no `cell<i>.` prefix of
/// `i < n_cells`, formatted per name and cell, matches it.
fn prefix_scan(full: &RegistrySnapshot, n_cells: usize) -> FleetSnapshot {
    let per_cell: Vec<RegistrySnapshot> = (0..n_cells)
        .map(|i| {
            let p = format!("cell{i}.");
            full.filter_prefix(&p).strip_prefix(&p)
        })
        .collect();
    let aggregate = per_cell
        .iter()
        .fold(RegistrySnapshot::default(), |acc, c| acc.merge(c));
    let not_cell_scoped =
        |name: &str| (0..n_cells).all(|i| !name.starts_with(&format!("cell{i}.")));
    fn keep<V: Clone>(v: &[(String, V)], f: impl Fn(&str) -> bool) -> Vec<(String, V)> {
        v.iter().filter(|(k, _)| f(k)).cloned().collect()
    }
    let shared = RegistrySnapshot {
        counters: keep(&full.counters, not_cell_scoped),
        gauges: keep(&full.gauges, not_cell_scoped),
        histograms: keep(&full.histograms, not_cell_scoped),
    };
    FleetSnapshot {
        n_cells,
        per_cell,
        aggregate,
        shared,
        health: Vec::new(),
    }
}

/// Eight series per cell, four process-global ones and four stray scopes
/// that name no cell of a 16-cell fleet: 136 series.
fn registry() -> RegistrySnapshot {
    let r = Registry::default();
    for i in 0..N_CELLS {
        let c = |name: &str| format!("cell{i}.{name}");
        r.counter(&c("runtime.frames")).add(10 + i as u64);
        r.counter(&c("runtime.failed")).add(i as u64 % 3);
        r.counter(&c("fleet.intake.drops")).add(i as u64);
        r.counter(&c("fleet.intake.rejected")).add(1);
        r.gauge(&c("runtime.queue.detect.depth")).set(i as f64);
        r.gauge(&c("runtime.queue.decode.depth"))
            .set(0.5 * i as f64);
        r.histogram(&c("runtime.frame.ns"))
            .record_ns(1_000 * (i as u64 + 1));
        r.histogram(&c("runtime.wait.ns")).record_ns(500);
    }
    r.counter("dsp.plan_cache.hits").add(99);
    r.counter("fleet.admitted").add(160);
    r.gauge("compute.pool.threads").set(2.0);
    r.histogram("fleet.handoff.ns").record_ns(700);
    r.counter("cell012.runtime.frames").add(5);
    r.counter("cell16.runtime.frames").add(6);
    r.gauge("cell+1.runtime.queue.detect.depth").set(3.0);
    r.histogram("cellar.runtime.frame.ns").record_ns(900);
    r.snapshot()
}

#[test]
fn from_registry_slices_as_the_prefix_scan_with_fewer_allocations() {
    let full = registry();
    let series = full.counters.len() + full.gauges.len() + full.histograms.len();
    assert_eq!(series, 136);

    let (want, scan_allocs) = counted(|| prefix_scan(&full, N_CELLS));
    let (got, allocs) = counted(|| FleetSnapshot::from_registry(&full, N_CELLS));
    assert_eq!(format!("{got:?}"), format!("{want:?}"));
    for stray in ["cell012.runtime.frames", "cell16.runtime.frames"] {
        assert!(got.shared.counter(stray).is_some(), "{stray} is not shared");
    }
    let shared = &got.shared;
    let n_shared = shared.counters.len() + shared.gauges.len() + shared.histograms.len();
    assert_eq!(n_shared, 8, "4 process-global and 4 stray series");
    assert_eq!(
        got.frames_completed(),
        (0..N_CELLS as u64).map(|i| 10 + i).sum()
    );
    eprintln!("from_registry: {allocs} allocations, the prefix scan {scan_allocs}");
    assert!(
        allocs < scan_allocs,
        "from_registry made {allocs} allocations, the prefix scan {scan_allocs}"
    );
}
