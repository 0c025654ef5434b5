//! Per-cell health classification with thresholds and hysteresis.
//!
//! The registry exports cumulative counters and the recorder exports raw
//! frames; neither says whether a cell is *okay*. This module turns both
//! into a three-state verdict per cell — [`HealthState::Healthy`],
//! [`HealthState::Degraded`], [`HealthState::Critical`] — from three
//! windowed signals:
//!
//! 1. **Drop rate** — delta of cumulative lost frames (queue/admission
//!    drops and frames that failed) over delta of processed frames between
//!    successive observations (cumulative counters alone cannot
//!    distinguish an old incident from an ongoing one).
//! 2. **SNR sag** — an EWMA over the located-tag SNR reported in flight
//!    records, compared against explicit dB floors.
//! 3. **p99 latency** — the frame-latency p99 against a configurable SLO
//!    ([`HealthConfig::p99_slo_ns`]), with Critical at a multiple of it.
//!
//! Classification uses **hysteresis**: a cell escalates the moment any
//! signal crosses a threshold, but de-escalates only after
//! [`HealthConfig::recovery_ticks`] consecutive cleaner observations — a
//! cell flapping around a threshold reads as Degraded, not as a strobe.
//! Every transition increments `cell<i>.health.transitions` and the current
//! state is exported as the `cell<i>.health.state` gauge (0/1/2), so the
//! health engine is itself observable through `/metrics`.
//!
//! The engine is deliberately pull-driven: [`HealthEngine::observe_cell`]
//! takes one [`CellObservation`] (synthetic in tests, derived from a
//! [`RegistrySnapshot`] + recorder rings in production via
//! [`HealthEngine::observe_registry`]) and returns the new state. Nothing
//! here runs on the frame path.

use std::collections::BTreeMap;
use std::sync::{Mutex, OnceLock};

use crate::json::Value;
use crate::metrics::{registry, RegistrySnapshot};
use crate::{recorder, trace};

/// Health verdict for one cell, ordered by severity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum HealthState {
    /// All signals within thresholds.
    Healthy,
    /// At least one signal past its degraded threshold.
    Degraded,
    /// At least one signal past its critical threshold.
    Critical,
}

impl HealthState {
    /// Stable lowercase name (JSON payloads, metric labels).
    pub fn name(&self) -> &'static str {
        match self {
            HealthState::Healthy => "healthy",
            HealthState::Degraded => "degraded",
            HealthState::Critical => "critical",
        }
    }

    /// Numeric encoding for the `health.state` gauge: 0 / 1 / 2.
    pub fn as_gauge(&self) -> f64 {
        match self {
            HealthState::Healthy => 0.0,
            HealthState::Degraded => 1.0,
            HealthState::Critical => 2.0,
        }
    }
}

/// Thresholds and dynamics of the health classifier. All are explicit —
/// there is no adaptive magic — and every one can be overridden via
/// environment (see [`HealthConfig::from_env`]).
#[derive(Debug, Clone, Copy)]
pub struct HealthConfig {
    /// Windowed drop rate (drops / (frames + drops), where a failed frame
    /// counts as a drop) above which a cell is Degraded.
    pub drop_rate_degraded: f64,
    /// Windowed drop rate above which a cell is Critical.
    pub drop_rate_critical: f64,
    /// SNR EWMA below this (dB) marks the cell Degraded.
    pub snr_degraded_db: f64,
    /// SNR EWMA below this (dB) marks the cell Critical.
    pub snr_critical_db: f64,
    /// Frame-latency p99 SLO in nanoseconds; exceeding it is Degraded.
    pub p99_slo_ns: u64,
    /// p99 beyond `p99_slo_ns * critical_latency_factor` is Critical.
    pub critical_latency_factor: f64,
    /// EWMA smoothing factor for the SNR track, in (0, 1]; higher reacts
    /// faster.
    pub ewma_alpha: f64,
    /// Consecutive cleaner observations required before de-escalating
    /// (escalation is always immediate).
    pub recovery_ticks: u32,
}

impl Default for HealthConfig {
    fn default() -> Self {
        HealthConfig {
            drop_rate_degraded: 0.01,
            drop_rate_critical: 0.10,
            snr_degraded_db: 10.0,
            snr_critical_db: 3.0,
            p99_slo_ns: 50_000_000,
            critical_latency_factor: 4.0,
            ewma_alpha: 0.2,
            recovery_ticks: 3,
        }
    }
}

impl HealthConfig {
    /// Defaults overridden by environment variables:
    /// `BISCATTER_HEALTH_DROP_DEGRADED` / `_DROP_CRITICAL` (rates in
    /// \[0, 1\]), `BISCATTER_HEALTH_SNR_DEGRADED_DB` / `_SNR_CRITICAL_DB`,
    /// `BISCATTER_HEALTH_P99_SLO_MS` (milliseconds),
    /// `BISCATTER_HEALTH_RECOVERY_TICKS`, `BISCATTER_HEALTH_EWMA_ALPHA`.
    /// Unparsable values fall back silently to the default.
    pub fn from_env() -> Self {
        fn envf(name: &str) -> Option<f64> {
            std::env::var(name).ok().and_then(|v| v.parse().ok())
        }
        let mut c = HealthConfig::default();
        if let Some(v) = envf("BISCATTER_HEALTH_DROP_DEGRADED") {
            c.drop_rate_degraded = v;
        }
        if let Some(v) = envf("BISCATTER_HEALTH_DROP_CRITICAL") {
            c.drop_rate_critical = v;
        }
        if let Some(v) = envf("BISCATTER_HEALTH_SNR_DEGRADED_DB") {
            c.snr_degraded_db = v;
        }
        if let Some(v) = envf("BISCATTER_HEALTH_SNR_CRITICAL_DB") {
            c.snr_critical_db = v;
        }
        if let Some(v) = envf("BISCATTER_HEALTH_P99_SLO_MS") {
            c.p99_slo_ns = (v * 1e6).max(0.0) as u64;
        }
        if let Some(v) = envf("BISCATTER_HEALTH_EWMA_ALPHA") {
            if v > 0.0 && v <= 1.0 {
                c.ewma_alpha = v;
            }
        }
        if let Some(v) = envf("BISCATTER_HEALTH_RECOVERY_TICKS") {
            c.recovery_ticks = v.max(0.0) as u32;
        }
        c
    }
}

/// One observation of a cell, with **cumulative** frame/drop counts (the
/// engine differences successive observations itself) and instantaneous
/// quality signals.
#[derive(Debug, Clone, Copy, Default)]
pub struct CellObservation {
    /// Cumulative frames processed by the cell.
    pub frames: u64,
    /// Cumulative frames lost by the cell: queue + admission drops plus
    /// frames that failed.
    pub drops: u64,
    /// Mean located-tag SNR since the previous observation, dB; `None` when
    /// no tag was located in the window (the EWMA holds).
    pub snr_db: Option<f64>,
    /// Frame-latency p99 in nanoseconds; `None` when no frame completed yet.
    pub p99_ns: Option<u64>,
}

/// Public view of one cell's health track, served by `/health` and embedded
/// in the fleet snapshot.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CellHealthReport {
    /// Cell id.
    pub cell_id: u32,
    /// Current classified state.
    pub state: HealthState,
    /// Windowed drop rate from the most recent observation: frames lost
    /// (dropped, rejected or failed) over frames lost plus processed.
    pub drop_rate: f64,
    /// Current SNR EWMA, dB (`NaN` until a tag has been located).
    pub snr_ewma_db: f64,
    /// Most recent p99 frame latency, ns (0 until a frame completed).
    pub p99_ns: u64,
    /// State transitions since the engine first saw this cell.
    pub transitions: u64,
}

impl CellHealthReport {
    /// JSON object for the `/health` endpoint (non-finite SNR renders as
    /// `null` per the workspace JSON rules).
    pub fn to_json(&self) -> Value {
        let mut m = BTreeMap::new();
        m.insert("cell_id".to_string(), Value::Number(self.cell_id as f64));
        m.insert(
            "state".to_string(),
            Value::String(self.state.name().to_string()),
        );
        m.insert("drop_rate".to_string(), Value::Number(self.drop_rate));
        m.insert("snr_ewma_db".to_string(), Value::Number(self.snr_ewma_db));
        m.insert("p99_ns".to_string(), Value::Number(self.p99_ns as f64));
        m.insert(
            "transitions".to_string(),
            Value::Number(self.transitions as f64),
        );
        Value::Object(m)
    }
}

struct CellTrack {
    state: HealthState,
    transitions: u64,
    last_frames: u64,
    last_drops: u64,
    snr_ewma: f64,
    last_drop_rate: f64,
    last_p99_ns: u64,
    /// Consecutive observations classified strictly below `state`.
    cleaner_ticks: u32,
    /// Severity of the most recent raw observation (what we de-escalate to).
    last_observed: HealthState,
}

impl CellTrack {
    fn new() -> Self {
        CellTrack {
            state: HealthState::Healthy,
            transitions: 0,
            last_frames: 0,
            last_drops: 0,
            snr_ewma: f64::NAN,
            last_drop_rate: 0.0,
            last_p99_ns: 0,
            cleaner_ticks: 0,
            last_observed: HealthState::Healthy,
        }
    }
}

/// The per-cell health classifier. Feed it observations (synthetic or
/// registry-derived); read back [`CellHealthReport`]s.
pub struct HealthEngine {
    cfg: HealthConfig,
    cells: BTreeMap<u32, CellTrack>,
}

impl HealthEngine {
    /// An engine with explicit thresholds.
    pub fn new(cfg: HealthConfig) -> Self {
        HealthEngine {
            cfg,
            cells: BTreeMap::new(),
        }
    }

    /// The engine's configuration.
    pub fn config(&self) -> &HealthConfig {
        &self.cfg
    }

    /// Severity of one raw observation against the thresholds, before
    /// hysteresis. NaN signals never trip a threshold (comparisons with
    /// NaN are false), so a cell with no SNR history reads from its other
    /// signals.
    fn classify(&self, drop_rate: f64, snr_ewma: f64, p99_ns: u64) -> HealthState {
        let cfg = &self.cfg;
        let critical_p99 = (cfg.p99_slo_ns as f64 * cfg.critical_latency_factor) as u64;
        if drop_rate >= cfg.drop_rate_critical
            || snr_ewma < cfg.snr_critical_db
            || p99_ns > critical_p99
        {
            return HealthState::Critical;
        }
        if drop_rate >= cfg.drop_rate_degraded
            || snr_ewma < cfg.snr_degraded_db
            || p99_ns > cfg.p99_slo_ns
        {
            return HealthState::Degraded;
        }
        HealthState::Healthy
    }

    /// Folds one observation into the cell's track and returns the (post-
    /// hysteresis) state. Escalation applies immediately; de-escalation
    /// waits for [`HealthConfig::recovery_ticks`] consecutive cleaner
    /// observations, then settles on the most recent observed severity.
    pub fn observe_cell(&mut self, cell_id: u32, obs: CellObservation) -> HealthState {
        let _span = trace::span("health.observe");
        let cfg = self.cfg;
        let track = self.cells.entry(cell_id).or_insert_with(CellTrack::new);

        // Windowed deltas; counters are cumulative and may be re-read from
        // a registry snapshot taken earlier, so saturate rather than wrap.
        let d_frames = obs.frames.saturating_sub(track.last_frames);
        let d_drops = obs.drops.saturating_sub(track.last_drops);
        track.last_frames = obs.frames;
        track.last_drops = obs.drops;
        let denom = d_frames + d_drops;
        let drop_rate = if denom == 0 {
            0.0
        } else {
            d_drops as f64 / denom as f64
        };
        track.last_drop_rate = drop_rate;

        if let Some(snr) = obs.snr_db {
            if snr.is_finite() {
                track.snr_ewma = if track.snr_ewma.is_finite() {
                    cfg.ewma_alpha * snr + (1.0 - cfg.ewma_alpha) * track.snr_ewma
                } else {
                    snr
                };
            }
        }
        if let Some(p99) = obs.p99_ns {
            track.last_p99_ns = p99;
        }

        let snr_ewma = track.snr_ewma;
        let p99_ns = track.last_p99_ns;
        let observed = self.classify(drop_rate, snr_ewma, p99_ns);
        let track = self.cells.get_mut(&cell_id).unwrap();
        track.last_observed = observed;
        let new_state = if observed > track.state {
            // Escalate immediately.
            track.cleaner_ticks = 0;
            observed
        } else if observed < track.state {
            track.cleaner_ticks += 1;
            if track.cleaner_ticks >= cfg.recovery_ticks {
                track.cleaner_ticks = 0;
                observed
            } else {
                track.state
            }
        } else {
            track.cleaner_ticks = 0;
            track.state
        };

        if new_state != track.state {
            track.transitions += 1;
            track.state = new_state;
            registry()
                .counter(&format!("cell{cell_id}.health.transitions"))
                .inc();
        }
        registry()
            .gauge(&format!("cell{cell_id}.health.state"))
            .set(new_state.as_gauge());
        new_state
    }

    /// Derives one [`CellObservation`] per cell from a registry snapshot
    /// plus the flight-recorder rings, and folds each in. Cells are
    /// discovered from `cell<i>.`-prefixed metric names; a snapshot with no
    /// such scope but with runtime metrics reads as cell 0. Returns the
    /// refreshed reports.
    pub fn observe_registry(&mut self, snap: &RegistrySnapshot) -> Vec<CellHealthReport> {
        let mut ids: Vec<u32> = Vec::new();
        let names = snap
            .counters
            .iter()
            .map(|(k, _)| k.as_str())
            .chain(snap.histograms.iter().map(|(k, _)| k.as_str()));
        for name in names {
            if let Some(id) = parse_cell_scope(name) {
                if !ids.contains(&id) {
                    ids.push(id);
                }
            }
        }
        if ids.is_empty() && snap.counter("runtime.frames").is_some() {
            ids.push(0);
        }
        ids.sort_unstable();

        for id in ids {
            let prefix = format!("cell{id}.");
            let scoped = |name: &str| -> String {
                if snap.counter(&format!("{prefix}{name}")).is_some()
                    || snap.histogram(&format!("{prefix}{name}")).is_some()
                {
                    format!("{prefix}{name}")
                } else {
                    name.to_string()
                }
            };
            let frames = snap.counter(&scoped("runtime.frames")).unwrap_or(0);
            // A failed frame is not counted in `runtime.frames`, so it is
            // lost like a dropped one.
            let drops: u64 = snap
                .counters
                .iter()
                .filter(|(k, _)| {
                    (k.starts_with(&prefix) || (id == 0 && parse_cell_scope(k).is_none()))
                        && (k.ends_with(".drops")
                            || k.ends_with(".rejected")
                            || k.ends_with("runtime.frames.failed"))
                })
                .map(|&(_, v)| v)
                .sum();
            let p99_ns = snap
                .histogram(&scoped("runtime.frame.ns"))
                .filter(|h| h.count() > 0)
                .map(|h| h.percentile(0.99).as_nanos() as u64);
            let snr_db = mean_recent_snr(id);
            self.observe_cell(
                id,
                CellObservation {
                    frames,
                    drops,
                    snr_db,
                    p99_ns,
                },
            );
        }
        self.reports()
    }

    /// Current report for every cell the engine has observed.
    pub fn reports(&self) -> Vec<CellHealthReport> {
        self.cells
            .iter()
            .map(|(&cell_id, t)| CellHealthReport {
                cell_id,
                state: t.state,
                drop_rate: t.last_drop_rate,
                snr_ewma_db: t.snr_ewma,
                p99_ns: t.last_p99_ns,
                transitions: t.transitions,
            })
            .collect()
    }
}

/// `cell<digits>.` scope parser: `cell12.runtime.frames` → `Some(12)`.
fn parse_cell_scope(name: &str) -> Option<u32> {
    let rest = name.strip_prefix("cell")?;
    let digits: &str = &rest[..rest.find('.')?];
    if digits.is_empty() || !digits.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    digits.parse().ok()
}

/// Mean of the finite `snr_db` values over the most recent flight records
/// of `cell_id` (up to 64), or `None` when the ring is empty or nothing was
/// located.
fn mean_recent_snr(cell_id: u32) -> Option<f64> {
    let rec = recorder::for_cell(cell_id);
    let snap = rec.snapshot();
    let tail = &snap[snap.len().saturating_sub(64)..];
    let mut sum = 0.0;
    let mut n = 0u32;
    for r in tail {
        if r.snr_db.is_finite() {
            sum += r.snr_db;
            n += 1;
        }
    }
    (n > 0).then(|| sum / n as f64)
}

/// JSON document for the `/health` endpoint: overall worst state plus one
/// object per cell.
pub fn reports_json(reports: &[CellHealthReport]) -> Value {
    let worst = reports
        .iter()
        .map(|r| r.state)
        .max()
        .unwrap_or(HealthState::Healthy);
    let mut root = BTreeMap::new();
    root.insert(
        "status".to_string(),
        Value::String(worst.name().to_string()),
    );
    root.insert(
        "cells".to_string(),
        Value::Array(reports.iter().map(CellHealthReport::to_json).collect()),
    );
    Value::Object(root)
}

/// The process-wide health engine (configured from the environment on first
/// use). The fleet control loop feeds it; `/health` reads it.
pub fn global() -> &'static Mutex<HealthEngine> {
    static ENGINE: OnceLock<Mutex<HealthEngine>> = OnceLock::new();
    ENGINE.get_or_init(|| Mutex::new(HealthEngine::new(HealthConfig::from_env())))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cell_scope_parsing() {
        assert_eq!(parse_cell_scope("cell0.fleet.intake.drops"), Some(0));
        assert_eq!(parse_cell_scope("cell12.runtime.frames"), Some(12));
        assert_eq!(parse_cell_scope("cellar.runtime.frames"), None);
        assert_eq!(parse_cell_scope("runtime.frames"), None);
        assert_eq!(parse_cell_scope("cell.runtime"), None);
    }

    #[test]
    fn drop_rate_is_windowed_not_cumulative() {
        let mut eng = HealthEngine::new(HealthConfig::default());
        // A historic incident: 50% drops in the first window.
        eng.observe_cell(
            1,
            CellObservation {
                frames: 100,
                drops: 100,
                ..Default::default()
            },
        );
        // The next window is clean; the windowed rate must read 0.
        eng.observe_cell(
            1,
            CellObservation {
                frames: 300,
                drops: 100,
                ..Default::default()
            },
        );
        let r = &eng.reports()[0];
        assert_eq!(r.drop_rate, 0.0);
    }

    #[test]
    fn escalation_immediate_deescalation_hysteretic() {
        let cfg = HealthConfig {
            recovery_ticks: 2,
            ..HealthConfig::default()
        };
        let mut eng = HealthEngine::new(cfg);
        let clean = CellObservation {
            frames: 0,
            drops: 0,
            snr_db: Some(30.0),
            p99_ns: Some(1_000),
        };
        assert_eq!(eng.observe_cell(5, clean), HealthState::Healthy);

        // One bad window escalates immediately (50% drop rate).
        let bad = CellObservation {
            frames: 100,
            drops: 100,
            snr_db: Some(30.0),
            p99_ns: Some(1_000),
        };
        assert_eq!(eng.observe_cell(5, bad), HealthState::Critical);

        // Recovery needs `recovery_ticks` consecutive cleaner windows.
        let clean2 = CellObservation {
            frames: 200,
            drops: 100,
            snr_db: Some(30.0),
            p99_ns: Some(1_000),
        };
        assert_eq!(eng.observe_cell(5, clean2), HealthState::Critical);
        let clean3 = CellObservation {
            frames: 300,
            drops: 100,
            snr_db: Some(30.0),
            p99_ns: Some(1_000),
        };
        assert_eq!(eng.observe_cell(5, clean3), HealthState::Healthy);
        assert_eq!(eng.reports()[0].transitions, 2);
    }

    #[test]
    fn nan_snr_never_trips_thresholds() {
        let mut eng = HealthEngine::new(HealthConfig::default());
        let st = eng.observe_cell(
            9,
            CellObservation {
                frames: 10,
                drops: 0,
                snr_db: None,
                p99_ns: Some(1_000),
            },
        );
        assert_eq!(st, HealthState::Healthy);
        assert!(eng.reports()[0].snr_ewma_db.is_nan());
        // /health JSON renders the NaN EWMA as null.
        let doc = reports_json(&eng.reports()).to_compact();
        assert!(doc.contains("\"snr_ewma_db\":null"));
        assert!(doc.contains("\"status\":\"healthy\""));
    }
}
