//! Prometheus exposition conformance and health-engine transition tests.
//!
//! The scrape surface is consumed by external tooling that is strict about
//! the text format, so these tests pin the contract rather than the
//! implementation: sanitized names must be legal identifiers, every family
//! gets exactly one `# HELP`/`# TYPE` pair, histogram buckets are monotone
//! cumulative and end at `le="+Inf"`, and non-finite gauges use the
//! canonical `+Inf`/`-Inf`/`NaN` spellings. The health section replays a
//! deterministic Healthy → Degraded → Critical → Healthy episode from
//! synthetic registry snapshots and checks the hysteresis.

use std::time::Duration;

use biscatter_obs::health::{HealthConfig, HealthEngine, HealthState};
use biscatter_obs::metrics::{LatencyHistogram, RegistrySnapshot};
use biscatter_obs::serve::{prometheus_text, sanitize_metric_name, PROMETHEUS_CONTENT_TYPE};

fn legal_metric_name(name: &str) -> bool {
    let mut bytes = name.bytes();
    match bytes.next() {
        Some(b) if b.is_ascii_alphabetic() || b == b'_' || b == b':' => {}
        _ => return false,
    }
    bytes.all(|b| b.is_ascii_alphanumeric() || b == b'_' || b == b':')
}

/// The metric identifier of one sample or comment line (up to the first
/// `{`, space, or end).
fn name_of(line: &str) -> &str {
    let line = line
        .strip_prefix("# HELP ")
        .or_else(|| line.strip_prefix("# TYPE "))
        .unwrap_or(line);
    line.split(['{', ' ']).next().unwrap_or("")
}

#[test]
fn dotted_cell_scoped_names_sanitize_to_legal_identifiers() {
    assert_eq!(
        sanitize_metric_name("fleet.intake.drops"),
        "fleet_intake_drops"
    );
    assert_eq!(sanitize_metric_name("9lives"), "_9lives");
    assert_eq!(sanitize_metric_name(""), "_");

    let snap = RegistrySnapshot {
        counters: vec![
            ("cell0.fleet.intake.drops".to_string(), 7),
            ("cell1.fleet.intake.drops".to_string(), 9),
            ("dsp.plan-cache.hits%weird".to_string(), 3),
        ],
        gauges: vec![("cell0.runtime.queue.detect.depth".to_string(), 2.0)],
        histograms: Vec::new(),
    };
    let text = prometheus_text(&snap);

    // The dotted `cell<i>.` scheme becomes a label, not part of the name.
    assert!(text.contains("biscatter_fleet_intake_drops_total{cell=\"0\"} 7\n"));
    assert!(text.contains("biscatter_fleet_intake_drops_total{cell=\"1\"} 9\n"));
    assert!(text.contains("biscatter_dsp_plan_cache_hits_weird_total 3\n"));
    assert!(text.contains("biscatter_runtime_queue_detect_depth{cell=\"0\"} 2\n"));

    for line in text.lines() {
        let name = name_of(line);
        assert!(
            legal_metric_name(name),
            "illegal metric identifier {name:?} in line {line:?}"
        );
    }
}

#[test]
fn every_family_has_exactly_one_help_and_type_line_before_its_samples() {
    let h = LatencyHistogram::default();
    h.record(Duration::from_micros(10));
    let snap = RegistrySnapshot {
        counters: vec![
            ("cell0.runtime.frames".to_string(), 5),
            ("cell1.runtime.frames".to_string(), 6),
        ],
        gauges: vec![("pool.threads".to_string(), 4.0)],
        histograms: vec![
            ("cell0.runtime.frame.ns".to_string(), h.snapshot()),
            ("cell1.runtime.frame.ns".to_string(), h.snapshot()),
        ],
    };
    let text = prometheus_text(&snap);

    for family in [
        "biscatter_runtime_frames_total",
        "biscatter_pool_threads",
        "biscatter_runtime_frame_ns",
    ] {
        let help = format!("# HELP {family} ");
        let typ = format!("# TYPE {family} ");
        assert_eq!(
            text.matches(&help).count(),
            1,
            "family {family} must carry exactly one HELP line"
        );
        assert_eq!(
            text.matches(&typ).count(),
            1,
            "family {family} must carry exactly one TYPE line"
        );
        // HELP and TYPE precede the first sample of the family.
        let first_sample = text
            .lines()
            .position(|l| !l.starts_with('#') && name_of(l).starts_with(family))
            .expect("family has samples");
        let help_line = text.lines().position(|l| l.starts_with(&help)).unwrap();
        let type_line = text.lines().position(|l| l.starts_with(&typ)).unwrap();
        assert!(help_line < first_sample && type_line < first_sample);
    }
    assert!(text.contains("# TYPE biscatter_runtime_frames_total counter\n"));
    assert!(text.contains("# TYPE biscatter_pool_threads gauge\n"));
    assert!(text.contains("# TYPE biscatter_runtime_frame_ns histogram\n"));
    // Both cells' histogram series live under the single family header.
    assert!(text.contains("biscatter_runtime_frame_ns_count{cell=\"0\"} 1\n"));
    assert!(text.contains("biscatter_runtime_frame_ns_count{cell=\"1\"} 1\n"));
}

#[test]
fn histogram_buckets_are_monotone_cumulative_and_end_at_inf() {
    let h = LatencyHistogram::default();
    // Samples spread across several log buckets, including duplicates.
    for ns in [100u64, 100, 900, 5_000, 70_000, 70_000, 1_000_000, 1 << 45] {
        h.record(Duration::from_nanos(ns));
    }
    let snap = RegistrySnapshot {
        counters: Vec::new(),
        gauges: Vec::new(),
        histograms: vec![("runtime.frame.ns".to_string(), h.snapshot())],
    };
    let text = prometheus_text(&snap);

    let mut prev_le = -1.0f64;
    let mut prev_cum = 0u64;
    let mut saw_inf = false;
    let mut buckets = 0usize;
    for line in text.lines() {
        let Some(rest) = line.strip_prefix("biscatter_runtime_frame_ns_bucket{le=\"") else {
            continue;
        };
        assert!(!saw_inf, "no bucket may follow le=\"+Inf\"");
        let (le_str, rest) = rest.split_once("\"}").expect("closing label brace");
        let cum: u64 = rest.trim().parse().expect("cumulative count");
        let le = if le_str == "+Inf" {
            saw_inf = true;
            f64::INFINITY
        } else {
            le_str.parse().expect("finite le bound")
        };
        assert!(le > prev_le, "le bounds must strictly increase");
        assert!(cum >= prev_cum, "cumulative counts must be monotone");
        prev_le = le;
        prev_cum = cum;
        buckets += 1;
    }
    assert!(buckets >= 3, "expected several distinct buckets");
    assert!(saw_inf, "bucket series must end at le=\"+Inf\"");
    assert_eq!(prev_cum, 8, "+Inf bucket must equal the total sample count");
    assert!(text.contains("biscatter_runtime_frame_ns_count 8\n"));
    let sum: u64 = [100u64, 100, 900, 5_000, 70_000, 70_000, 1_000_000, 1 << 45]
        .iter()
        .sum();
    assert!(text.contains(&format!("biscatter_runtime_frame_ns_sum {sum}\n")));
    // The advertised content type is the version this text conforms to.
    assert!(PROMETHEUS_CONTENT_TYPE.contains("version=0.0.4"));
}

#[test]
fn non_finite_gauges_use_canonical_prometheus_spellings() {
    let snap = RegistrySnapshot {
        counters: Vec::new(),
        gauges: vec![
            ("sig.pos_inf".to_string(), f64::INFINITY),
            ("sig.neg_inf".to_string(), f64::NEG_INFINITY),
            ("sig.nan".to_string(), f64::NAN),
            ("sig.plain".to_string(), 1.5),
        ],
        histograms: Vec::new(),
    };
    let text = prometheus_text(&snap);
    assert!(text.contains("biscatter_sig_pos_inf +Inf\n"));
    assert!(text.contains("biscatter_sig_neg_inf -Inf\n"));
    assert!(text.contains("biscatter_sig_nan NaN\n"));
    assert!(text.contains("biscatter_sig_plain 1.5\n"));
}

/// A synthetic registry snapshot for one cell with cumulative frame and
/// drop counters — the shape `observe_registry` consumes in production.
fn synthetic_snapshot(cell: u32, frames: u64, drops: u64) -> RegistrySnapshot {
    RegistrySnapshot {
        counters: vec![
            (format!("cell{cell}.runtime.frames"), frames),
            (format!("cell{cell}.fleet.intake.drops"), drops),
        ],
        gauges: Vec::new(),
        histograms: Vec::new(),
    }
}

#[test]
fn health_walks_healthy_degraded_critical_healthy_with_hysteresis() {
    // Cell id 73 keeps this test's global registry side effects (the
    // `cell<i>.health.*` metrics) away from other cells' series.
    const CELL: u32 = 73;
    let mut engine = HealthEngine::new(HealthConfig {
        recovery_ticks: 2,
        ..HealthConfig::default()
    });
    let observe = |engine: &mut HealthEngine, frames, drops| {
        let reports = engine.observe_registry(&synthetic_snapshot(CELL, frames, drops));
        let r = reports.iter().find(|r| r.cell_id == CELL).expect("cell 73");
        (r.state, r.transitions)
    };

    // Baseline window: 100 frames, no drops.
    assert_eq!(observe(&mut engine, 100, 0), (HealthState::Healthy, 0));
    // 5 drops over the next 100 frames → 4.8% drop rate → Degraded.
    assert_eq!(observe(&mut engine, 200, 5), (HealthState::Degraded, 1));
    // 50 drops over the next window → 33% → Critical, immediately.
    assert_eq!(observe(&mut engine, 300, 55), (HealthState::Critical, 2));
    // First clean window: hysteresis holds the Critical state.
    assert_eq!(observe(&mut engine, 400, 55), (HealthState::Critical, 2));
    // Second consecutive clean window: de-escalates to the observed state.
    assert_eq!(observe(&mut engine, 500, 55), (HealthState::Healthy, 3));
    // And it stays Healthy on further clean windows, with no new transitions.
    assert_eq!(observe(&mut engine, 600, 55), (HealthState::Healthy, 3));
}

#[test]
fn a_cell_whose_frames_all_fail_reaches_critical() {
    // A cell whose every frame panics: its failures grow while its
    // processed frames stay flat, and nothing is dropped or rejected.
    // Cell id 74 keeps this test's `cell<i>.health.*` metrics apart.
    const CELL: u32 = 74;
    let mut engine = HealthEngine::new(HealthConfig::default());
    let snapshot = |frames: u64, failed: u64| RegistrySnapshot {
        counters: vec![
            (format!("cell{CELL}.runtime.frames"), frames),
            (format!("cell{CELL}.runtime.frames.failed"), failed),
        ],
        gauges: Vec::new(),
        histograms: Vec::new(),
    };
    let observe = |engine: &mut HealthEngine, frames, failed| {
        let reports = engine.observe_registry(&snapshot(frames, failed));
        let r = reports.iter().find(|r| r.cell_id == CELL).expect("cell 74");
        (r.state, r.drop_rate)
    };

    assert_eq!(observe(&mut engine, 100, 0), (HealthState::Healthy, 0.0));
    assert_eq!(observe(&mut engine, 100, 10), (HealthState::Critical, 1.0));
    assert_eq!(observe(&mut engine, 100, 50), (HealthState::Critical, 1.0));
}
