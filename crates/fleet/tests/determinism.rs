//! Handoff determinism: a sharded fleet must decode exactly what a single
//! cell would (ISSUE 6 satellite).
//!
//! A seeded two-cell mobility workload runs under lossless admission on
//! shard counts 1, 2, and 4. For every shard count the roaming tag's
//! session bits must equal the single-cell oracle bit-for-bit, and every
//! cell's frame outcomes must equal the one-shot serial path. Under the two
//! lossy policies every offered frame is processed or shed, each shed frame
//! is counted once, in its cell's intake, and the sessions stay live and
//! ordered.

use std::sync::{mpsc, Mutex, PoisonError};
use std::thread;
use std::time::Duration;

use biscatter_core::isac::run_isac_frame;
use biscatter_fleet::{AdmissionPolicy, Fleet, FleetConfig, FleetReport, FleetSnapshot};
use biscatter_runtime::source::{streaming_system, CellJob, MobilitySpec};

/// The lossy tests read the process-wide `cell<i>.fleet.intake.*` counters
/// on either side of their runs; holding this keeps one lossy run's sheds
/// out of the other's difference (a `Block` fleet sheds nothing).
static LOSSY: Mutex<()> = Mutex::new(());

/// `(evicted, refused)` so far, summed over the cells' intake counters.
fn intake_sheds(n_cells: usize) -> (u64, u64) {
    let full = biscatter_runtime::obs::registry().snapshot();
    let agg = FleetSnapshot::from_registry(&full, n_cells).aggregate;
    let sum = |name| agg.counter(name).unwrap_or(0);
    (sum("fleet.intake.drops"), sum("fleet.intake.rejected"))
}

/// Runs `jobs` on a one-shard fleet whose cells each queue one frame under
/// `admission`, and checks the shed accounting: every offered frame is
/// completed, failed, evicted or refused, and the report's two shed counts
/// are what the cells' intakes counted during the run.
fn run_lossy(
    sys: &biscatter_core::system::BiScatterSystem,
    n_cells: usize,
    admission: AdmissionPolicy,
    jobs: Vec<CellJob>,
) -> FleetReport {
    let _lossy = LOSSY.lock().unwrap_or_else(PoisonError::into_inner);
    let cfg = FleetConfig {
        n_cells,
        shards: 1,
        intake_quota: 1,
        admission,
        ..FleetConfig::default()
    };
    let fleet = Fleet::new(sys.clone(), cfg);
    let offered = jobs.len() as u64;
    let before = intake_sheds(n_cells);
    let report = fleet.run(jobs);
    let after = intake_sheds(n_cells);
    assert_eq!(
        report.frames_completed()
            + report.frames_failed
            + report.admission_drops
            + report.admission_rejects,
        offered,
        "every frame is processed, failed, or counted as shed, once"
    );
    assert_eq!(
        (report.admission_drops, report.admission_rejects),
        (after.0 - before.0, after.1 - before.1),
        "the report's sheds are the cells' intake counters"
    );
    report
}

fn oracle_bits(
    sys: &biscatter_core::system::BiScatterSystem,
    spec: &MobilitySpec,
    tag: usize,
) -> Vec<bool> {
    spec.oracle_jobs(sys, tag)
        .iter()
        .flat_map(|j| {
            run_isac_frame(sys, &j.scenario, &j.payload, j.seed)
                .uplink_bits
                .unwrap_or_default()
        })
        .collect()
}

#[test]
fn sharded_fleet_matches_single_cell_oracle_bit_for_bit() {
    let sys = streaming_system();
    let spec = MobilitySpec::two_cell(6, 2, 41);
    let oracle = oracle_bits(&sys, &spec, 0);
    assert!(
        !oracle.is_empty(),
        "oracle decoded no bits — the workload is not exercising the uplink"
    );
    // The tag hands off every 2 ticks over 6 ticks: 2 ownership changes.
    let expected_handoffs = 2;

    // One-shot serial outcomes, computed once and compared under every
    // shard count.
    let jobs = spec.jobs(&sys);
    let one_shots: Vec<_> = jobs
        .iter()
        .map(|cj| run_isac_frame(&sys, &cj.job.scenario, &cj.job.payload, cj.job.seed))
        .collect();

    for shards in [1usize, 2, 4] {
        let cfg = FleetConfig {
            n_cells: spec.n_cells,
            shards,
            intake_quota: 4,
            admission: AdmissionPolicy::Block,
            ..FleetConfig::default()
        };
        let fleet = Fleet::new(sys.clone(), cfg);
        let report = fleet.run(spec.jobs(&sys));

        assert_eq!(
            report.frames_completed(),
            (spec.n_cells * spec.n_ticks) as u64,
            "lossless admission must process every frame (shards={shards})"
        );
        assert_eq!(report.admission_drops, 0);
        assert_eq!(report.admission_rejects, 0);

        // Session bits: bit-for-bit against the single-cell oracle.
        assert_eq!(report.sessions.len(), 1);
        let session = &report.sessions[0];
        assert_eq!(session.tag, 0);
        assert_eq!(
            session.bits, oracle,
            "session bits diverged from oracle at shards={shards}"
        );
        assert_eq!(session.handoffs, expected_handoffs);
        assert_eq!(report.handoffs, expected_handoffs);
        assert_eq!(session.next_seq, spec.n_ticks as u64);

        // Per-cell outcomes: bit-identical to the one-shot serial path.
        for (cj, one_shot) in jobs.iter().zip(&one_shots) {
            let got = report.outcomes[cj.cell]
                .iter()
                .find(|(id, _)| *id == cj.job.id)
                .map(|(_, o)| o)
                .unwrap_or_else(|| panic!("frame {} missing from cell {}", cj.job.id, cj.cell));
            assert_eq!(
                got, one_shot,
                "cell {} frame {} diverged at shards={shards}",
                cj.cell, cj.job.id
            );
        }
    }
}

#[test]
fn lossy_admission_keeps_sessions_live_and_ordered() {
    let sys = streaming_system();
    let spec = MobilitySpec::two_cell(6, 2, 43);
    let oracle = oracle_bits(&sys, &spec, 0);
    // Quota 1 with drop-oldest: evictions are likely, and every evicted
    // mobile window must be skipped so the session gate keeps advancing —
    // the run terminating at all is the liveness assertion.
    let report = run_lossy(
        &sys,
        spec.n_cells,
        AdmissionPolicy::DropOldest,
        spec.jobs(&sys),
    );

    assert_eq!(
        report.frames_completed() + report.admission_drops,
        (spec.n_cells * spec.n_ticks) as u64,
        "every frame is either processed or counted as dropped"
    );
    assert_eq!(report.admission_rejects, 0, "drop-oldest never refuses");
    let session = &report.sessions[0];
    // The gate ran the full workload: every window was appended or skipped.
    assert_eq!(session.next_seq, spec.n_ticks as u64);
    assert!(
        session.skipped.is_empty(),
        "no out-of-order skips left over"
    );
    // Decoded bits are a prefix-free subsequence of the session windows;
    // with zero drops they'd equal the oracle, with drops they are shorter.
    assert!(session.bits.len() <= oracle.len());
}

/// Reject refuses what a full intake cannot hold: a refused roaming window
/// is skipped like an evicted one, so the session gate still runs the
/// whole workload, and the session holds exactly the bits of the windows
/// that were processed, in sequence order.
#[test]
fn reject_admission_keeps_sessions_live_and_ordered() {
    let sys = streaming_system();
    let spec = MobilitySpec::two_cell(6, 2, 43);
    let jobs = spec.jobs(&sys);
    let report = run_lossy(&sys, spec.n_cells, AdmissionPolicy::Reject, jobs.clone());

    assert_eq!(
        report.frames_completed() + report.admission_rejects,
        (spec.n_cells * spec.n_ticks) as u64,
        "every frame is either processed or counted as refused"
    );
    assert_eq!(report.admission_drops, 0, "reject never evicts");
    let session = &report.sessions[0];
    assert_eq!(session.next_seq, spec.n_ticks as u64);
    assert!(
        session.skipped.is_empty(),
        "no out-of-order skips left over"
    );
    // The session is the processed windows' bits, in window order.
    let mut windows: Vec<_> = jobs.iter().filter(|cj| cj.hop.is_some()).collect();
    windows.sort_by_key(|cj| cj.hop.map(|h| h.seq));
    let processed: Vec<bool> = windows
        .iter()
        .filter_map(|cj| {
            report.outcomes[cj.cell]
                .iter()
                .find(|(id, _)| *id == cj.job.id)
        })
        .flat_map(|(_, o)| o.uplink_bits.clone().unwrap_or_default())
        .collect();
    assert_eq!(session.bits, processed);
}

/// A frame that panics (a NaN tag range) is contained by its shard: the
/// run returns, every other frame matches the one-shot path, and the
/// sessions stay intact — a failed roaming window is skipped, so its tag's
/// session holds every other window's bits in order.
#[test]
fn panicking_frames_are_contained_by_their_shard() {
    let sys = streaming_system();
    let spec = MobilitySpec {
        n_cells: 4,
        mobile_tags: 2,
        n_ticks: 4,
        dwell_ticks: 2,
        base_seed: 47,
    };
    let mut jobs = spec.jobs(&sys);
    let stationary = jobs.iter().position(|cj| cj.hop.is_none()).unwrap();
    let roaming = jobs.iter().rposition(|cj| cj.hop.is_some()).unwrap();
    for i in [stationary, roaming] {
        jobs[i].job.scenario.tag_range_m = f64::NAN;
    }
    let cfg = FleetConfig {
        n_cells: spec.n_cells,
        intake_quota: 2,
        ..FleetConfig::default()
    };
    let fleet = Fleet::new(sys.clone(), cfg);
    let (tx, rx) = mpsc::channel();
    let input = jobs.clone();
    thread::spawn(move || tx.send(fleet.run(input)).ok());
    let report = rx
        .recv_timeout(Duration::from_secs(600))
        .expect("fleet hung on a panicking frame");

    assert_eq!(report.frames_failed, 2);
    assert_eq!(report.frames_completed(), jobs.len() as u64 - 2);
    let mut session_bits = vec![Vec::new(); spec.mobile_tags];
    for (i, cj) in jobs.iter().enumerate() {
        let got = report.outcomes[cj.cell]
            .iter()
            .find(|(id, _)| *id == cj.job.id);
        if i == stationary || i == roaming {
            assert!(got.is_none(), "failed frame {} has an outcome", cj.job.id);
            continue;
        }
        let one_shot = run_isac_frame(&sys, &cj.job.scenario, &cj.job.payload, cj.job.seed);
        assert_eq!(got.map(|(_, o)| o), Some(&one_shot), "frame {}", cj.job.id);
        if let Some(hop) = cj.hop {
            session_bits[hop.tag].extend(one_shot.uplink_bits.unwrap_or_default());
        }
    }
    assert_eq!(report.sessions.len(), spec.mobile_tags);
    for s in &report.sessions {
        assert_eq!(s.next_seq, spec.n_ticks as u64, "tag {}", s.tag);
        assert_eq!(s.bits, session_bits[s.tag], "tag {} session bits", s.tag);
    }
}
