//! # biscatter-fleet
//!
//! Multi-cell fleet runtime: the deployment-scale layer over the streaming
//! pipeline. The paper's two-way backscatter ISAC story only matters when
//! many radars each cover their own cell of low-power tags; this crate
//! makes a radar cell a *value* ([`biscatter_runtime::pipeline::Cell`]) and
//! runs N of them across S worker shards with:
//!
//! * **admission control** ([`shard`]) — one bounded intake per cell, its
//!   quota, applying the fleet's [`AdmissionPolicy`] (block / drop-oldest /
//!   reject) and counting each shed frame once, in the registry as
//!   `cell<i>.fleet.intake.{drops,rejected}`;
//! * **cross-cell tag handoff** ([`handoff`]) — a roaming tag keeps its
//!   identity and uplink session (decoder framing, accumulated bits) as it
//!   migrates between cells, ordered by a sequence-gated [`HandoffBus`];
//! * **fleet-wide observability** ([`snapshot`]) — every cell's
//!   `cell<i>.`-scoped metrics sliced into per-cell views and folded into
//!   one aggregate via `RegistrySnapshot::merge`, plus `fleet.*` spans in
//!   the Perfetto trace.
//!
//! ```no_run
//! use biscatter_fleet::{Fleet, FleetConfig};
//! use biscatter_runtime::source::{streaming_system, MobilitySpec};
//!
//! let sys = streaming_system();
//! let fleet = Fleet::new(sys.clone(), FleetConfig::default());
//! let spec = MobilitySpec::two_cell(50, 5, 42);
//! let report = fleet.run(spec.jobs(&sys));
//! println!("{}", report.snapshot.to_text());
//! ```
//!
//! Determinism contract: under lossless admission, per-cell outcomes are
//! bit-identical to running each cell standalone, and each session's bit
//! stream is bit-identical to the single-cell oracle — for any shard count.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod handoff;
pub mod shard;
pub mod snapshot;

/// What a cell's intake does with a frame when the cell is at quota: the
/// intake queue's own overload policy (lossless `Block`, `DropOldest`,
/// `Reject`).
pub use biscatter_runtime::queue::Backpressure as AdmissionPolicy;
pub use handoff::{HandoffBus, UplinkSession};
pub use shard::{Fleet, FleetConfig, FleetReport};
pub use snapshot::FleetSnapshot;
