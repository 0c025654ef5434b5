//! Fleet-wide observability: one snapshot covering every cell.
//!
//! Each cell's pipeline reports into the process-global registry under its
//! own `cell<i>.` scope (queues, stage histograms, frame counters).
//! [`FleetSnapshot::collect`] slices that registry three ways:
//!
//! * `per_cell[i]` — cell `i`'s private view, prefix stripped so the names
//!   read like a standalone run's;
//! * `aggregate` — the per-cell views folded with
//!   [`RegistrySnapshot::merge`]: counters sum across cells, queue-depth
//!   style gauges take the fleet-wide max, histograms combine bucket-exactly;
//! * `shared` — everything *outside* any cell scope (DSP plan cache,
//!   compute pool, the fleet's `fleet.admitted` and handoff counters),
//!   which is genuinely process-global and would double-count if merged per
//!   cell. What a cell's intake shed is in that cell's view
//!   (`fleet.intake.{drops,rejected}`), so `aggregate` sums it fleet-wide.

use biscatter_obs::health::{self, CellHealthReport};
use biscatter_obs::json::Value;
use biscatter_obs::metrics::RegistrySnapshot;

/// Aggregated metric picture of a whole fleet run.
#[derive(Debug, Clone)]
pub struct FleetSnapshot {
    /// Number of cells the snapshot covers.
    pub n_cells: usize,
    /// Cell `i`'s metrics with the `cell<i>.` prefix stripped.
    pub per_cell: Vec<RegistrySnapshot>,
    /// The per-cell views merged: sum/max/bucket-exact across cells.
    pub aggregate: RegistrySnapshot,
    /// Metrics outside every cell scope (process-global subsystems).
    pub shared: RegistrySnapshot,
    /// Per-cell health verdicts from the process-wide
    /// [`biscatter_obs::health`] engine. Populated by
    /// [`collect`](Self::collect) (which feeds the engine one observation);
    /// empty from the pure [`from_registry`](Self::from_registry), which
    /// must not mutate global health state.
    pub health: Vec<CellHealthReport>,
}

impl FleetSnapshot {
    /// Slices the global registry into per-cell, aggregate, and shared
    /// views for cells `0..n_cells`, and refreshes the health engine with
    /// the same snapshot so [`FleetSnapshot::health`] reflects this moment.
    pub fn collect(n_cells: usize) -> Self {
        let full = biscatter_obs::registry().snapshot();
        let mut snap = Self::from_registry(&full, n_cells);
        // The same engine and lock the `/health` route observes through
        // `obs::lock` (DESIGN §16.1): a panicked scrape leaves its state
        // valid, so the next snapshot still gets verdicts.
        snap.health = biscatter_obs::lock(health::global()).observe_registry(&full);
        snap.health.retain(|r| (r.cell_id as usize) < n_cells);
        snap
    }

    /// Same as [`collect`](Self::collect), from an already-taken snapshot.
    pub fn from_registry(full: &RegistrySnapshot, n_cells: usize) -> Self {
        let per_cell: Vec<RegistrySnapshot> = (0..n_cells)
            .map(|i| {
                let p = format!("cell{i}.");
                full.filter_prefix(&p).strip_prefix(&p)
            })
            .collect();
        let aggregate = per_cell
            .iter()
            .fold(RegistrySnapshot::default(), |acc, c| acc.merge(c));
        // Shared = names not under any `cell<digit…>.` scope. Filtering by
        // the known cell count (rather than a regex) keeps stray scopes
        // from older runs visible rather than silently classified.
        let not_cell_scoped =
            |name: &str| (0..n_cells).all(|i| !name.starts_with(&format!("cell{i}.")));
        let shared = RegistrySnapshot {
            counters: full
                .counters
                .iter()
                .filter(|(k, _)| not_cell_scoped(k))
                .cloned()
                .collect(),
            gauges: full
                .gauges
                .iter()
                .filter(|(k, _)| not_cell_scoped(k))
                .cloned()
                .collect(),
            histograms: full
                .histograms
                .iter()
                .filter(|(k, _)| not_cell_scoped(k))
                .cloned()
                .collect(),
        };
        FleetSnapshot {
            n_cells,
            per_cell,
            aggregate,
            shared,
            health: Vec::new(),
        }
    }

    /// Frames completed fleet-wide (sum of the per-cell frame counters).
    pub fn frames_completed(&self) -> u64 {
        self.aggregate.counter("runtime.frames").unwrap_or(0)
    }

    /// Renders the aggregate and shared sections as aligned text, with a
    /// one-line per-cell frame summary.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "fleet: {} cells, {} frames completed\n",
            self.n_cells,
            self.frames_completed()
        ));
        for (i, cell) in self.per_cell.iter().enumerate() {
            out.push_str(&format!(
                "  cell{i}: frames={} frame_p99={:.1}us\n",
                cell.counter("runtime.frames").unwrap_or(0),
                cell.histogram("runtime.frame.ns")
                    .map_or(0.0, |h| h.percentile(0.99).as_secs_f64() * 1e6),
            ));
        }
        if !self.health.is_empty() {
            out.push_str("health:\n");
            for r in &self.health {
                out.push_str(&format!(
                    "  cell{}: {} drop_rate={:.4} snr_ewma={:.1}dB p99={:.1}us transitions={}\n",
                    r.cell_id,
                    r.state.name(),
                    r.drop_rate,
                    r.snr_ewma_db,
                    r.p99_ns as f64 / 1e3,
                    r.transitions,
                ));
            }
        }
        out.push_str("aggregate (counters sum, gauges max, histograms bucket-merged):\n");
        out.push_str(&self.aggregate.to_text());
        if !self.shared.is_empty() {
            out.push_str("shared (process-global):\n");
            out.push_str(&self.shared.to_text());
        }
        out
    }

    /// Renders the snapshot as JSON: `n_cells`, `per_cell` (array of
    /// registry objects), `aggregate`, and `shared`.
    pub fn to_json(&self) -> Value {
        let mut root = std::collections::BTreeMap::new();
        root.insert("n_cells".to_string(), Value::Number(self.n_cells as f64));
        root.insert(
            "frames_completed".to_string(),
            Value::Number(self.frames_completed() as f64),
        );
        root.insert(
            "per_cell".to_string(),
            Value::Array(
                self.per_cell
                    .iter()
                    .map(RegistrySnapshot::to_json)
                    .collect(),
            ),
        );
        root.insert("aggregate".to_string(), self.aggregate.to_json());
        root.insert("shared".to_string(), self.shared.to_json());
        root.insert("health".to_string(), health::reports_json(&self.health));
        Value::Object(root)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slices_per_cell_aggregate_and_shared() {
        let full = RegistrySnapshot {
            counters: vec![
                ("cell0.runtime.frames".to_string(), 10),
                ("cell1.runtime.frames".to_string(), 20),
                ("dsp.plan_cache.hits".to_string(), 99),
                ("fleet.handoff.count".to_string(), 3),
            ],
            gauges: vec![
                ("cell0.runtime.queue.detect.depth".to_string(), 1.0),
                ("cell1.runtime.queue.detect.depth".to_string(), 5.0),
            ],
            histograms: Vec::new(),
        };
        let snap = FleetSnapshot::from_registry(&full, 2);
        assert_eq!(snap.per_cell[0].counter("runtime.frames"), Some(10));
        assert_eq!(snap.per_cell[1].counter("runtime.frames"), Some(20));
        assert_eq!(snap.frames_completed(), 30);
        assert_eq!(
            snap.aggregate.gauge("runtime.queue.detect.depth"),
            Some(5.0)
        );
        assert_eq!(snap.shared.counter("dsp.plan_cache.hits"), Some(99));
        assert_eq!(snap.shared.counter("fleet.handoff.count"), Some(3));
        assert!(snap.shared.counter("cell0.runtime.frames").is_none());
        let text = snap.to_text();
        assert!(text.contains("2 cells"));
        assert!(text.contains("cell1: frames=20"));
        let json = snap.to_json().to_compact();
        assert!(json.contains("\"aggregate\""));
    }
}
