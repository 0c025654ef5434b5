//! biscatter-obs: dependency-free observability for the B-ISAC workspace.
//!
//! Sits at the very bottom of the crate stack (no biscatter dependencies)
//! so every layer — DSP planner, compute pool, arenas, radar receivers, the
//! streaming runtime — can emit telemetry through one mechanism:
//!
//! * [`trace`] — lightweight spans recorded into preallocated per-thread
//!   ring buffers behind a relaxed-atomic enable bit. Disabled cost is one
//!   load + branch; enabled steady state never allocates (the workspace's
//!   zero-alloc audits run with tracing on). [`trace::TraceCollector`]
//!   drains the rings into Chrome trace-event JSON for Perfetto.
//! * [`metrics`] — the [`metrics::LatencyHistogram`] (moved here from the
//!   runtime so any crate can use it) plus a process-wide [`metrics::registry`]
//!   of named counters / gauges / histograms with text + JSON export.
//! * [`json`] — the workspace's hand-rolled JSON tree (moved here from
//!   `biscatter-core`, which re-exports it), used by both exporters.
//!
//! The live observability plane builds on those primitives:
//!
//! * [`recorder`] — an always-on, zero-steady-state-allocation flight
//!   recorder: a fixed-capacity ring of structured per-frame records per
//!   cell, dumpable as JSONL.
//! * [`health`] — a per-cell health engine classifying
//!   Healthy/Degraded/Critical from windowed drop rates, SNR EWMAs, and
//!   p99 latency vs an SLO, with hysteresis on de-escalation.
//! * [`serve`] — a std-only HTTP/1.1 scrape server (`BISCATTER_METRICS_ADDR`)
//!   exposing `/metrics` (Prometheus text v0.0.4), `/health`, `/frames`,
//!   and `/trace`.
//!
//! [`alloc`] is the workspace's one counting allocator, which the
//! zero-allocation audits and the benches install in their own binaries.
//!
//! ## Unsafe policy
//!
//! The crate is `deny(unsafe_code)`; the single exemption is [`alloc`],
//! whose `GlobalAlloc` impl is `unsafe` by definition and forwards every
//! call to `System` unchanged.

#![deny(unsafe_code)]
#![warn(missing_docs)]

#[allow(unsafe_code)]
pub mod alloc;
pub mod health;
pub mod json;
pub mod metrics;
pub mod recorder;
pub mod serve;
pub mod trace;

pub use metrics::registry;

use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};

/// Locks `m`, recovering the guard when a thread panicked while holding it.
///
/// A panic in one frame or scrape must not take the observability plane
/// down with it, and it need not: every value these locks guard stays valid
/// wherever a holder can stop. A ring stores a record before it moves its
/// cursor, and metric maps are only ever inserted into, so the worst a
/// poisoned lock leaves behind is a count off by one.
///
/// The runtime's queues and the fleet's handoff ledger take their locks
/// here too. A lock belongs here only when the same holds for its value;
/// each caller says why next to the lock.
pub fn lock<T: ?Sized>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// [`Condvar::wait`] on a lock taken with [`lock`], recovering the guard
/// the same way when another holder panicked.
pub fn wait<'a, T>(cv: &Condvar, guard: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
    cv.wait(guard).unwrap_or_else(PoisonError::into_inner)
}

/// Poisons `m` the way a crashing frame would: a thread panics while it
/// holds the lock.
#[cfg(test)]
pub(crate) fn poison<T: ?Sized + Send>(m: &Mutex<T>) {
    let joined = std::thread::scope(|s| {
        s.spawn(|| {
            let _guard = m.lock();
            panic!("poisoning the lock on purpose");
        })
        .join()
    });
    assert!(joined.is_err() && m.is_poisoned());
}

/// Opens a [`trace::Span`] guard: `span!("isac.align")` tags it with the
/// thread's current frame id, `span!("isac.align", frame_id)` with an
/// explicit one. Bind the result (`let _span = span!(...)`) — the span
/// measures until the guard drops.
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        $crate::trace::span($name)
    };
    ($name:expr, $frame:expr) => {
        $crate::trace::span_frame($name, $frame)
    };
}
