//! # biscatter-runtime
//!
//! Streaming ISAC runtime for BiScatter: radar cells ([`Cell`]) that run
//! continuous frames from many simulated radar+tag deployments through the
//! integrated sensing/communication chain — the *same five stages* as the
//! one-shot [`biscatter_core::isac::run_isac_frame`], through
//! [`biscatter_core::isac::run_frame`] on the cell's arena and precision
//! tier — either inline or on frame workers behind one bounded intake with
//! configurable backpressure (see [`pipeline`]). Per-frame seeds make the
//! result independent of scheduling: under the lossless `Block` policy the
//! streamed outcomes on the `F64` tier are bit-identical to the serial path.
//!
//! Frames whose job carries a [`biscatter_core::isac::ColdStartSpec`] first
//! pass through the correlator-bank acquisition stage
//! ([`pipeline::Cell::process_cold_start`]): the cell recovers the tag's
//! timing offset and chirp slope from the raw dwell, then runs the aligned
//! frame only if acquisition succeeds. [`source::cold_start_jobs`] builds a
//! deterministic workload of such unsynchronized arrivals.
//!
//! ```no_run
//! use biscatter_runtime::pipeline::{run_streaming, RuntimeConfig};
//! use biscatter_runtime::source::{streaming_system, WorkloadSpec};
//!
//! let sys = streaming_system();
//! let jobs = WorkloadSpec::four_by_eight(200, 42).jobs(&sys);
//! let report = run_streaming(&sys, jobs, &RuntimeConfig::default());
//! println!("{}", report.metrics.to_text());
//! ```

pub mod metrics;
pub mod pipeline;
pub mod queue;
pub mod source;

/// The scoped parallel-compute layer the DSP stages fan out on
/// (re-exported so runtime users can size or share a [`compute::ComputePool`]).
pub use biscatter_compute as compute;

/// The observability layer (re-exported so runtime users can toggle
/// tracing, open spans, and read the metric registry without a direct
/// `biscatter-obs` dependency).
pub use biscatter_obs as obs;

pub use biscatter_core::isac::precision::PrecisionTier;
pub use metrics::{LatencyHistogram, LatencySnapshot, MetricsSnapshot, RegistrySnapshot};
pub use pipeline::{run_serial, run_streaming, Cell, RunReport, RuntimeConfig};
pub use queue::{Backpressure, BoundedQueue, Pushed, TryPop};
pub use source::{streaming_system, CellJob, FrameJob, MobilitySpec, SessionHop, WorkloadSpec};
