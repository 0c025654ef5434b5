//! Which cells carry the fleet intake's shed counters.
//!
//! A fleet feeds each of its cells through an intake registered as
//! `cell<i>.fleet.intake`, and those cells' flight records count what it
//! sheds. A cell that no fleet feeds registers no `fleet.intake.*` name, so
//! a standalone process exports no always-zero family. This runs in a
//! process of its own: the registry and the flight recorders are
//! process-wide.

use biscatter_fleet::{AdmissionPolicy, Fleet, FleetConfig};
use biscatter_runtime::obs::recorder;
use biscatter_runtime::source::{streaming_system, MobilitySpec};
use biscatter_runtime::{Cell, RuntimeConfig};

fn fleet_intake_names() -> Vec<String> {
    let snapshot = biscatter_runtime::obs::registry().snapshot();
    snapshot
        .counters
        .into_iter()
        .map(|(name, _)| name)
        .filter(|name| name.contains("fleet.intake."))
        .collect()
}

#[test]
fn only_fleet_fed_cells_count_fleet_intake_sheds() {
    let sys = streaming_system();
    let _standalone = Cell::standalone(sys.clone(), RuntimeConfig::default());
    let _scoped = Cell::new(7, sys.clone(), RuntimeConfig::default());
    assert_eq!(
        fleet_intake_names(),
        Vec::<String>::new(),
        "cells no fleet feeds register no fleet intake counter"
    );

    // One cell, one shard, a one-frame intake under drop-oldest: the feeder
    // outruns the shard, so the intake evicts. The last frame pushed is
    // never evicted, so its record is written after every eviction.
    let spec = MobilitySpec {
        n_cells: 1,
        mobile_tags: 0,
        n_ticks: 12,
        dwell_ticks: 2,
        base_seed: 53,
    };
    let cfg = FleetConfig {
        n_cells: 1,
        shards: 1,
        intake_quota: 1,
        admission: AdmissionPolicy::DropOldest,
        ..FleetConfig::default()
    };
    let report = Fleet::new(sys.clone(), cfg).run(spec.jobs(&sys));
    assert!(
        report.admission_drops > 0,
        "a one-frame intake fed twelve frames at once sheds some"
    );
    assert_eq!(
        fleet_intake_names(),
        vec![
            "cell0.fleet.intake.drops".to_string(),
            "cell0.fleet.intake.rejected".to_string()
        ]
    );
    let records = recorder::for_cell(0).snapshot();
    let last = records.last().expect("the fleet cell recorded its frames");
    assert_eq!(
        last.queue_drops, report.admission_drops,
        "the fleet cell's flight record counts its intake's sheds"
    );
}
