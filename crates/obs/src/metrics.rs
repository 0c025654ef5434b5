//! Metric primitives and the process-wide registry.
//!
//! Two layers live here. The bottom layer is the concurrent log-bucketed
//! [`LatencyHistogram`] and its immutable [`LatencySnapshot`] (moved down
//! from `biscatter-runtime` so every crate can record latencies without a
//! dependency on the runtime; the runtime re-exports them unchanged). The
//! top layer is a global [`Registry`] of named counters, gauges, and
//! histograms: any crate calls [`registry()`], asks for a handle once, and
//! then updates it with relaxed atomic ops — no locks, no allocation on the
//! hot path. Handles are cheap `Arc` clones of the underlying cell, so the
//! same name always resolves to the same storage no matter which crate (or
//! thread) registered it first.
//!
//! Naming convention: dot-separated `subsystem.object.metric`, e.g.
//! `dsp.plan_cache.hits` or `arena.isac.maps.lease_misses`. The snapshot
//! exporters sort by name, so related metrics group together in the output.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Duration;

use crate::json::Value;

/// Number of power-of-two latency buckets. Bucket `i` counts samples with
/// `ns < 2^i` (and `>= 2^(i-1)` for `i > 0`); 48 buckets span ~78 hours.
pub const BUCKETS: usize = 48;

/// Concurrent log-bucketed histogram of durations.
pub struct LatencyHistogram {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum_ns: AtomicU64,
    max_ns: AtomicU64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum_ns: AtomicU64::new(0),
            max_ns: AtomicU64::new(0),
        }
    }
}

fn bucket_index(ns: u64) -> usize {
    ((u64::BITS - ns.leading_zeros()) as usize).min(BUCKETS - 1)
}

impl LatencyHistogram {
    /// Records one duration sample.
    pub fn record(&self, d: Duration) {
        self.record_ns(d.as_nanos().min(u64::MAX as u128) as u64);
    }

    /// Records one sample already expressed in nanoseconds.
    pub fn record_ns(&self, ns: u64) {
        self.buckets[bucket_index(ns)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum_ns.fetch_add(ns, Ordering::Relaxed);
        self.max_ns.fetch_max(ns, Ordering::Relaxed);
    }

    /// Copies the histogram into an immutable [`LatencySnapshot`].
    pub fn snapshot(&self) -> LatencySnapshot {
        LatencySnapshot {
            buckets: std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed)),
            count: self.count.load(Ordering::Relaxed),
            sum_ns: self.sum_ns.load(Ordering::Relaxed),
            max_ns: self.max_ns.load(Ordering::Relaxed),
        }
    }
}

/// Immutable copy of a [`LatencyHistogram`].
#[derive(Debug, Clone)]
pub struct LatencySnapshot {
    buckets: [u64; BUCKETS],
    count: u64,
    sum_ns: u64,
    max_ns: u64,
}

impl LatencySnapshot {
    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all recorded samples, nanoseconds (saturating).
    pub fn sum_ns(&self) -> u64 {
        self.sum_ns
    }

    /// Per-bucket sample counts, index `0..`[`BUCKETS`]. Bucket `i` holds
    /// samples with `ns <= `[`bucket_upper_ns`]`(i)`. The Prometheus
    /// exposition renderer turns these into cumulative `le` buckets.
    pub fn bucket_counts(&self) -> &[u64] {
        &self.buckets
    }
}

/// Inclusive upper edge of log bucket `i`, in nanoseconds: `0` for bucket 0,
/// `2^i - 1` for `0 < i < `[`BUCKETS`]` - 1`, and `u64::MAX` for the top
/// bucket (which absorbs everything from `2^(BUCKETS-2)` up).
pub fn bucket_upper_ns(i: usize) -> u64 {
    if i == 0 {
        0
    } else if i >= BUCKETS - 1 {
        u64::MAX
    } else {
        (1u64 << i) - 1
    }
}

impl LatencySnapshot {
    /// Mean latency over all samples.
    pub fn mean(&self) -> Duration {
        if self.count == 0 {
            return Duration::ZERO;
        }
        Duration::from_nanos(self.sum_ns / self.count)
    }

    /// Largest recorded sample (exact, not bucketed).
    pub fn max(&self) -> Duration {
        Duration::from_nanos(self.max_ns)
    }

    /// Estimated latency at quantile `q`, resolved to the upper edge of the
    /// log bucket containing that rank (≤ 2x overestimate). `q` outside
    /// `[0, 1]` clamps to the nearest endpoint — `percentile(-3.0)` is
    /// `percentile(0.0)` and `percentile(7.0)` is `percentile(1.0)` — and a
    /// `NaN` quantile resolves to the minimum rank, never an out-of-range
    /// index (`crates/obs/tests/percentile_props.rs` pins this).
    pub fn percentile(&self, q: f64) -> Duration {
        if self.count == 0 {
            return Duration::ZERO;
        }
        let q = if q.is_nan() { 0.0 } else { q.clamp(0.0, 1.0) };
        let rank = ((q * self.count as f64).ceil() as u64).max(1);
        let mut cumulative = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            cumulative += n;
            if cumulative >= rank {
                // i ≤ BUCKETS - 1 = 47, so the shift cannot overflow; the
                // top bucket's nominal 2^47 edge is clamped to the exact
                // max below, like every other bucket.
                let upper_ns = 1u64 << i;
                return Duration::from_nanos(upper_ns.min(self.max_ns));
            }
        }
        Duration::from_nanos(self.max_ns)
    }

    /// Bucket-exact aggregation of two snapshots, as if every sample behind
    /// both had been recorded into one histogram. `mean`/`percentile`/`max`
    /// of the result match that combined histogram exactly (saturating if
    /// the summed `sum_ns` overflows, same as the live histogram's counter
    /// wrap — irrelevant below ~584 years of accumulated latency).
    pub fn merge(&self, other: &LatencySnapshot) -> LatencySnapshot {
        LatencySnapshot {
            buckets: std::array::from_fn(|i| self.buckets[i] + other.buckets[i]),
            count: self.count + other.count,
            sum_ns: self.sum_ns.saturating_add(other.sum_ns),
            max_ns: self.max_ns.max(other.max_ns),
        }
    }

    /// The standard JSON fields (`count`, `mean_us`, `p50/p90/p99_us`,
    /// `max_us`) used wherever a histogram is exported.
    pub fn json_fields(&self) -> BTreeMap<String, Value> {
        let mut m = BTreeMap::new();
        m.insert("count".to_string(), Value::Number(self.count() as f64));
        m.insert(
            "mean_us".to_string(),
            Value::Number(self.mean().as_secs_f64() * 1e6),
        );
        for (key, q) in [("p50_us", 0.50), ("p90_us", 0.90), ("p99_us", 0.99)] {
            m.insert(
                key.to_string(),
                Value::Number(self.percentile(q).as_secs_f64() * 1e6),
            );
        }
        m.insert(
            "max_us".to_string(),
            Value::Number(self.max().as_secs_f64() * 1e6),
        );
        m
    }
}

/// Handle to a monotonically increasing named counter. Clones share the cell.
#[derive(Clone)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Handle to a named last-value gauge holding an `f64`. Clones share the cell.
#[derive(Clone)]
pub struct Gauge(Arc<AtomicU64>);

impl Gauge {
    /// Overwrites the value. `NaN` is stored as-is (a gauge is a last-value
    /// cell, and a producer computing `0.0 / 0.0` is a fact worth surfacing)
    /// — but it never poisons [`set_max`](Self::set_max), and the exporters
    /// render it explicitly (`NaN` in Prometheus exposition, `null` in
    /// JSON).
    #[inline]
    pub fn set(&self, v: f64) {
        self.0.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Raises the value to `v` if `v` is larger (high-water semantics).
    /// Lock-free CAS loop; concurrent raisers converge on the max.
    ///
    /// NaN-safe in both directions: a `NaN` argument is ignored (it compares
    /// false against everything, so it can never *be* a maximum), and a
    /// `NaN` already in the cell — stored via [`set`](Self::set) — is
    /// treated as "no value yet" and replaced, instead of wedging the
    /// high-water mark forever (`NaN < v` is false for every `v`).
    #[inline]
    pub fn set_max(&self, v: f64) {
        if v.is_nan() {
            return;
        }
        let mut cur = self.0.load(Ordering::Relaxed);
        loop {
            // A NaN in the cell compares false here, so it falls through to
            // the exchange and is replaced.
            let cur_f = f64::from_bits(cur);
            if cur_f >= v {
                return;
            }
            match self.0.compare_exchange_weak(
                cur,
                v.to_bits(),
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return,
                Err(seen) => cur = seen,
            }
        }
    }
}

/// Handle to a named histogram in the registry. Clones share the histogram.
#[derive(Clone)]
pub struct Histogram(Arc<LatencyHistogram>);

impl Histogram {
    /// Records one duration sample.
    #[inline]
    pub fn record(&self, d: Duration) {
        self.0.record(d);
    }

    /// Records one sample already expressed in nanoseconds.
    #[inline]
    pub fn record_ns(&self, ns: u64) {
        self.0.record_ns(ns);
    }
}

/// Process-wide table of named metrics. Obtain it via [`registry()`];
/// registration takes a lock, but the returned handles are pure atomics.
#[derive(Default)]
pub struct Registry {
    counters: Mutex<BTreeMap<String, Arc<AtomicU64>>>,
    gauges: Mutex<BTreeMap<String, Arc<AtomicU64>>>,
    histograms: Mutex<BTreeMap<String, Arc<LatencyHistogram>>>,
}

impl Registry {
    /// Returns the counter registered under `name`, creating it at zero on
    /// first use. Cache the handle — this takes the registry lock.
    pub fn counter(&self, name: &str) -> Counter {
        let mut map = crate::lock(&self.counters);
        if let Some(cell) = map.get(name) {
            return Counter(Arc::clone(cell));
        }
        let cell = Arc::new(AtomicU64::new(0));
        map.insert(name.to_string(), Arc::clone(&cell));
        Counter(cell)
    }

    /// Returns the gauge registered under `name`, creating it at `0.0` on
    /// first use. Cache the handle — this takes the registry lock.
    pub fn gauge(&self, name: &str) -> Gauge {
        let mut map = crate::lock(&self.gauges);
        if let Some(cell) = map.get(name) {
            return Gauge(Arc::clone(cell));
        }
        let cell = Arc::new(AtomicU64::new(0.0f64.to_bits()));
        map.insert(name.to_string(), Arc::clone(&cell));
        Gauge(cell)
    }

    /// Returns the histogram registered under `name`, creating it empty on
    /// first use. Cache the handle — this takes the registry lock.
    pub fn histogram(&self, name: &str) -> Histogram {
        let mut map = crate::lock(&self.histograms);
        if let Some(h) = map.get(name) {
            return Histogram(Arc::clone(h));
        }
        let h = Arc::new(LatencyHistogram::default());
        map.insert(name.to_string(), Arc::clone(&h));
        Histogram(h)
    }

    /// Copies every registered metric into an immutable snapshot.
    pub fn snapshot(&self) -> RegistrySnapshot {
        RegistrySnapshot {
            counters: crate::lock(&self.counters)
                .iter()
                .map(|(k, v)| (k.clone(), v.load(Ordering::Relaxed)))
                .collect(),
            gauges: crate::lock(&self.gauges)
                .iter()
                .map(|(k, v)| (k.clone(), f64::from_bits(v.load(Ordering::Relaxed))))
                .collect(),
            histograms: crate::lock(&self.histograms)
                .iter()
                .map(|(k, v)| (k.clone(), v.snapshot()))
                .collect(),
        }
    }
}

/// The process-wide [`Registry`].
pub fn registry() -> &'static Registry {
    static REGISTRY: OnceLock<Registry> = OnceLock::new();
    REGISTRY.get_or_init(Registry::default)
}

/// Immutable copy of every metric in a [`Registry`], sorted by name.
#[derive(Debug, Clone, Default)]
pub struct RegistrySnapshot {
    /// `(name, value)` pairs, ascending by name.
    pub counters: Vec<(String, u64)>,
    /// `(name, value)` pairs, ascending by name.
    pub gauges: Vec<(String, f64)>,
    /// `(name, snapshot)` pairs, ascending by name.
    pub histograms: Vec<(String, LatencySnapshot)>,
}

impl RegistrySnapshot {
    /// True when no metric of any kind was registered.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.histograms.is_empty()
    }

    /// Aggregates two snapshots into one, as if both had been recorded into
    /// a single registry: counters **sum** by name, gauges keep the **max**
    /// by name (every gauge in this codebase is a depth/high-water style
    /// level, where max is the meaningful cross-shard aggregate), and
    /// histograms combine bucket-exactly via [`LatencySnapshot::merge`].
    /// Names present in only one side pass through unchanged. The operation
    /// is associative and commutative (see `crates/obs/tests`), so a fleet
    /// can fold any number of per-cell snapshots in any order.
    pub fn merge(&self, other: &RegistrySnapshot) -> RegistrySnapshot {
        fn merge_by_name<V: Clone>(
            a: &[(String, V)],
            b: &[(String, V)],
            combine: impl Fn(&V, &V) -> V,
        ) -> Vec<(String, V)> {
            let mut out: BTreeMap<String, V> = a.iter().cloned().collect();
            for (k, v) in b {
                match out.get_mut(k) {
                    Some(cur) => *cur = combine(cur, v),
                    None => {
                        out.insert(k.clone(), v.clone());
                    }
                }
            }
            out.into_iter().collect()
        }
        RegistrySnapshot {
            counters: merge_by_name(&self.counters, &other.counters, |a, b| a + b),
            gauges: merge_by_name(&self.gauges, &other.gauges, |a, b| a.max(*b)),
            histograms: merge_by_name(&self.histograms, &other.histograms, |a, b| a.merge(b)),
        }
    }

    /// The subset of metrics whose name starts with `prefix` (names kept).
    /// With the per-cell `cell<id>.` naming convention this extracts one
    /// cell's private view out of the process-global registry.
    pub fn filter_prefix(&self, prefix: &str) -> RegistrySnapshot {
        fn keep<V: Clone>(v: &[(String, V)], prefix: &str) -> Vec<(String, V)> {
            v.iter()
                .filter(|(k, _)| k.starts_with(prefix))
                .cloned()
                .collect()
        }
        RegistrySnapshot {
            counters: keep(&self.counters, prefix),
            gauges: keep(&self.gauges, prefix),
            histograms: keep(&self.histograms, prefix),
        }
    }

    /// Removes `prefix` from every metric name that carries it (metrics
    /// without the prefix are kept as-is). Stripping the `cell<id>.` scope
    /// from per-cell views aligns their names, so a subsequent
    /// [`merge`](Self::merge) aggregates the *same* logical metric across
    /// cells: queue depths take the fleet-wide max, stage histograms sum
    /// their samples bucket-exactly.
    pub fn strip_prefix(&self, prefix: &str) -> RegistrySnapshot {
        fn strip<V: Clone>(v: &[(String, V)], prefix: &str) -> Vec<(String, V)> {
            let mut out: Vec<(String, V)> = v
                .iter()
                .map(|(k, val)| {
                    let name = k.strip_prefix(prefix).unwrap_or(k);
                    (name.to_string(), val.clone())
                })
                .collect();
            out.sort_by(|a, b| a.0.cmp(&b.0));
            out
        }
        RegistrySnapshot {
            counters: strip(&self.counters, prefix),
            gauges: strip(&self.gauges, prefix),
            histograms: strip(&self.histograms, prefix),
        }
    }

    /// Looks up a counter by exact name.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(k, _)| k == name)
            .map(|&(_, v)| v)
    }

    /// Looks up a gauge by exact name.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.iter().find(|(k, _)| k == name).map(|&(_, v)| v)
    }

    /// Looks up a histogram snapshot by exact name.
    pub fn histogram(&self, name: &str) -> Option<&LatencySnapshot> {
        self.histograms
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v)
    }

    /// Renders an aligned human-readable listing.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        if self.is_empty() {
            return out;
        }
        let width = self
            .counters
            .iter()
            .map(|(k, _)| k.len())
            .chain(self.gauges.iter().map(|(k, _)| k.len()))
            .chain(self.histograms.iter().map(|(k, _)| k.len()))
            .max()
            .unwrap_or(0);
        for (name, v) in &self.counters {
            out.push_str(&format!("{name:<width$}  {v}\n"));
        }
        for (name, v) in &self.gauges {
            out.push_str(&format!("{name:<width$}  {v:.3}\n"));
        }
        for (name, h) in &self.histograms {
            out.push_str(&format!(
                "{name:<width$}  n={} mean={:.1}us p99={:.1}us max={:.1}us\n",
                h.count(),
                h.mean().as_secs_f64() * 1e6,
                h.percentile(0.99).as_secs_f64() * 1e6,
                h.max().as_secs_f64() * 1e6,
            ));
        }
        out
    }

    /// Renders the snapshot as a JSON value with `counters` / `gauges` /
    /// `histograms` objects keyed by metric name.
    pub fn to_json(&self) -> Value {
        let mut root = BTreeMap::new();
        root.insert(
            "counters".to_string(),
            Value::Object(
                self.counters
                    .iter()
                    .map(|(k, v)| (k.clone(), Value::Number(*v as f64)))
                    .collect(),
            ),
        );
        root.insert(
            "gauges".to_string(),
            Value::Object(
                self.gauges
                    .iter()
                    .map(|(k, v)| (k.clone(), Value::Number(*v)))
                    .collect(),
            ),
        );
        root.insert(
            "histograms".to_string(),
            Value::Object(
                self.histograms
                    .iter()
                    .map(|(k, h)| (k.clone(), Value::Object(h.json_fields())))
                    .collect(),
            ),
        );
        Value::Object(root)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram_is_zero() {
        let h = LatencyHistogram::default();
        let s = h.snapshot();
        assert_eq!(s.count(), 0);
        assert_eq!(s.percentile(0.99), Duration::ZERO);
        assert_eq!(s.mean(), Duration::ZERO);
    }

    #[test]
    fn percentile_brackets_samples() {
        let h = LatencyHistogram::default();
        for us in [10u64, 20, 30, 40, 1000] {
            h.record(Duration::from_micros(us));
        }
        let s = h.snapshot();
        assert_eq!(s.count(), 5);
        // p50 falls in the bucket holding 20-40us samples; log buckets may
        // overestimate by up to 2x but never land above the max sample.
        let p50 = s.percentile(0.50);
        assert!(p50 >= Duration::from_micros(20) && p50 <= Duration::from_micros(128));
        assert_eq!(s.max(), Duration::from_micros(1000));
        assert!(s.percentile(1.0) <= s.max());
        assert_eq!(s.mean(), Duration::from_micros(220));
    }

    #[test]
    fn bucket_index_monotone() {
        let mut last = 0;
        for ns in [0u64, 1, 2, 3, 1000, 1_000_000, u64::MAX] {
            let b = bucket_index(ns);
            assert!(b >= last);
            assert!(b < BUCKETS);
            last = b;
        }
    }

    #[test]
    fn top_bucket_upper_edge_is_clamped_to_max() {
        // Everything from 2^46 ns (~20 hours) up lands in bucket 47; the
        // reported percentile for that bucket must be its nominal 2^47 edge
        // clamped to the exact recorded max, never an u64::MAX sentinel.
        let h = LatencyHistogram::default();
        h.record(Duration::from_nanos(u64::MAX));
        let s = h.snapshot();
        assert_eq!(bucket_index(u64::MAX), BUCKETS - 1);
        assert_eq!(s.percentile(0.5), Duration::from_nanos(1u64 << 47));
        assert_eq!(s.max(), Duration::from_nanos(u64::MAX));

        // A max *below* the top bucket's edge clamps the other way.
        let h = LatencyHistogram::default();
        let ns = (1u64 << 46) + 123;
        h.record(Duration::from_nanos(ns));
        let s = h.snapshot();
        assert_eq!(s.percentile(0.99), Duration::from_nanos(ns));
    }

    #[test]
    fn set_max_is_nan_safe() {
        let r = Registry::default();
        let g = r.gauge("x.hiwater");
        let get = || r.snapshot().gauge("x.hiwater").unwrap();
        g.set_max(3.0);
        g.set_max(f64::NAN); // NaN can never be a maximum: ignored
        assert_eq!(get(), 3.0);
        // A NaN stored via `set` must not wedge the high-water mark.
        g.set(f64::NAN);
        assert!(get().is_nan());
        g.set_max(1.5);
        assert_eq!(get(), 1.5);
        g.set_max(f64::NEG_INFINITY); // still smaller than 1.5: ignored
        assert_eq!(get(), 1.5);
        g.set_max(f64::INFINITY);
        assert_eq!(get(), f64::INFINITY);
    }

    #[test]
    fn percentile_clamps_out_of_range_quantiles() {
        let h = LatencyHistogram::default();
        for us in [10u64, 20, 40] {
            h.record(Duration::from_micros(us));
        }
        let s = h.snapshot();
        assert_eq!(s.percentile(-3.0), s.percentile(0.0));
        assert_eq!(s.percentile(7.0), s.percentile(1.0));
        assert_eq!(s.percentile(f64::NAN), s.percentile(0.0));
        assert_eq!(s.percentile(f64::INFINITY), s.percentile(1.0));
        assert!(s.percentile(f64::NEG_INFINITY) <= s.max());
    }

    #[test]
    fn bucket_accessors_expose_exposition_geometry() {
        let h = LatencyHistogram::default();
        h.record(Duration::from_nanos(0));
        h.record(Duration::from_nanos(5));
        let s = h.snapshot();
        assert_eq!(s.bucket_counts().len(), BUCKETS);
        assert_eq!(s.bucket_counts().iter().sum::<u64>(), 2);
        assert_eq!(s.sum_ns(), 5);
        assert_eq!(bucket_upper_ns(0), 0);
        assert_eq!(bucket_upper_ns(3), 7);
        assert_eq!(bucket_upper_ns(BUCKETS - 1), u64::MAX);
        // Sample `5` landed in the bucket whose upper edge covers it.
        let idx = bucket_index(5);
        assert!(bucket_upper_ns(idx) >= 5);
        assert!(s.bucket_counts()[idx] == 1);
    }

    #[test]
    fn registry_handles_share_cells_by_name() {
        let r = Registry::default();
        let a = r.counter("x.hits");
        let b = r.counter("x.hits");
        a.inc();
        b.add(2);
        assert_eq!(a.get(), 3);

        let g = r.gauge("x.depth");
        g.set(4.0);
        g.set_max(2.0); // lower: ignored
        r.gauge("x.depth").set_max(9.5); // a second handle, the same cell

        r.histogram("x.lat").record(Duration::from_micros(5));
        r.histogram("x.lat").record(Duration::from_micros(7));

        let snap = r.snapshot();
        assert_eq!(snap.counter("x.hits"), Some(3));
        assert_eq!(snap.gauge("x.depth"), Some(9.5));
        assert_eq!(snap.histogram("x.lat").map(LatencySnapshot::count), Some(2));
        assert!(snap.counter("missing").is_none());
        let text = snap.to_text();
        assert!(text.contains("x.hits"));
        let json = snap.to_json().to_compact();
        assert!(json.contains("\"x.depth\""));
    }

    #[test]
    fn poisoned_registry_keeps_registering_and_rendering() {
        let reg = registry();
        reg.counter("poison_test.frames").add(3);
        reg.gauge("poison_test.snr_db").set(21.5);
        reg.histogram("poison_test.frame_ns").record_ns(1_000);
        crate::poison(&reg.counters);
        crate::poison(&reg.gauges);
        crate::poison(&reg.histograms);
        reg.counter("poison_test.frames").inc();
        reg.counter("poison_test.drops").inc();
        reg.gauge("poison_test.snr_db").set(22.0);
        reg.histogram("poison_test.frame_ns").record_ns(2_000);
        let snap = reg.snapshot().filter_prefix("poison_test.");
        assert_eq!(snap.counter("poison_test.frames"), Some(4));
        assert_eq!(snap.counter("poison_test.drops"), Some(1));
        assert_eq!(snap.gauge("poison_test.snr_db"), Some(22.0));
        let h = snap.histogram("poison_test.frame_ns").map(|h| h.count());
        assert_eq!(h, Some(2));
        assert!(snap.to_text().contains("poison_test.drops"));
        assert!(snap.to_json().get("gauges").is_some());
        assert!(crate::serve::prometheus_text(&snap).contains("poison_test_frames"));
    }
}
