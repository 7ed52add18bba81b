//! # `scalesim::sweep`
//!
//! Design-space-exploration (DSE) engine for SCALE-Sim v3.
//!
//! Architects rarely run a simulator once: finding a good design point
//! means sweeping grids of array shapes, dataflows, SRAM sizes,
//! bandwidths and feature flags across a set of workloads (the
//! end-to-end *system analysis* the v3 paper is built for). This module
//! turns that workflow into a first-class, deterministic pipeline:
//!
//! 1. **Spec** ([`spec`]) — a small cfg-style grid file listing the
//!    values of each swept axis ([`SweepSpec::parse`]).
//! 2. **Grid expansion** ([`SweepSpec::expand`]) — the Cartesian product
//!    of all axes as [`SweepPoint`]s, in a stable odometer order.
//! 3. **Sharded execution** ([`exec`]) — every `(point, topology)` pair
//!    runs as a batch-class task of the shared scheduler
//!    ([`scalesim_systolic::parallel_map`]), partitioned into shards;
//!    results are reassembled in run order, so output is **byte-identical
//!    regardless of thread count and shard order**. The caller
//!    ([`run_sweep`](crate::run_sweep)) supplies the run closure, sharing
//!    one [`PlanCache`](scalesim_systolic::PlanCache) across the whole
//!    grid so repeated layer shapes are planned once — not once per grid
//!    point.
//! 4. **Aggregation & Pareto analysis** ([`report`], [`pareto`]) — one
//!    [`SweepReport`] holding every run's cycles/utilization/energy, the
//!    per-point roll-up, and the runtime-vs-energy Pareto frontier,
//!    emitted as `SWEEP_REPORT.csv` and `SWEEP_REPORT.json`.
//!
//! ## Example
//!
//! ```
//! use scalesim::sweep::SweepSpec;
//!
//! let spec = SweepSpec::parse(
//!     "[grid]\n\
//!      array     = 8x8, 16x16\n\
//!      dataflow  = os, ws\n\
//!      bandwidth = 10, 20\n",
//! )
//! .unwrap();
//! let grid = spec.expand();
//! assert_eq!(grid.len(), 8); // 2 arrays x 2 dataflows x 2 bandwidths
//! ```

pub mod exec;
pub mod pareto;
pub mod report;
pub mod spec;

pub(crate) use exec::run_sharded_with;
pub use report::{PointSummary, RunRecord, SweepReport};
pub use spec::{SweepPoint, SweepSpec};
