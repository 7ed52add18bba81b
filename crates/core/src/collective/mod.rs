//! # `scalesim::collective`
//!
//! Scale-out modeling for SCALE-Sim v3: what happens when the workload
//! runs on a **fleet** of accelerators instead of one chip, and
//! collective communication starts competing with compute for the
//! critical path.
//!
//! The module is deliberately engine-free — it models *interconnects and
//! algorithms*, in units (core cycles, bytes, [`GemmShape`] shards)
//! that compose with the per-chip systolic engine the rest of this
//! crate drives. The pieces:
//!
//! * [`Fabric`] — ring / 2D-mesh / fully-switched interconnects with
//!   per-link bandwidth (GB/s) and per-hop latency (cycles).
//! * [`collectives`] — analytical alpha-beta costs of all-reduce,
//!   reduce-scatter, all-gather and point-to-point transfers, per
//!   fabric kind.
//! * [`Strategy`] — data-, tensor- and pipeline-parallel execution:
//!   how each layer's GEMM shards across chips
//!   ([`shard_layer`]) and how pipeline stages partition and schedule
//!   ([`partition_stages`], [`pipeline_total_cycles`]).
//! * `OverlapTimeline` — the compute/communication overlap model
//!   splitting each layer's collective into hidden and exposed cycles.
//! * [`ScaleoutSpec`] — the parsed `[scaleout]` configuration section.
//!
//! ```
//! use scalesim::collective::{collectives, Fabric, FabricKind};
//!
//! let fabric = Fabric::new(FabricKind::Ring, 8, 100.0, 500, 1.0).unwrap();
//! let grad_bytes = 4 * 1024 * 1024;
//! let cost = collectives::all_reduce(&fabric, grad_bytes);
//! assert_eq!(cost.steps, 14); // 2 (p - 1) ring steps
//! assert!(cost.cycles > 0);
//! ```
//!
//! [`GemmShape`]: scalesim_systolic::GemmShape

pub mod collectives;
pub(crate) mod fabric;
pub(crate) mod spec;
pub(crate) mod strategy;
pub(crate) mod timeline;

pub use collectives::CollectiveCost;
pub use fabric::{Fabric, FabricKind};
pub use spec::{near_square_mesh, FabricTag, ScaleoutSpec};
pub use strategy::{partition_stages, pipeline_total_cycles, shard_layer, LayerPlan, Strategy};
pub(crate) use timeline::{OverlapSplit, OverlapTimeline};
