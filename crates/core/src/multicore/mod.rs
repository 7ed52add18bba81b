//! # `scalesim::multicore`
//!
//! Multi tensor-core modeling — SCALE-Sim v3's multi-core feature
//! (paper §III), as the engine runs it:
//!
//! 1. **Spatio-temporal partitioning** ([`partition`]) — Eqs. 1–3 of the
//!    paper: dividing the row-spatial (`Sr`), column-spatial (`Sc`) and
//!    temporal (`T`) mapping dimensions across a `Pr × Pc` core grid.
//! 2. **Hierarchical memory with a shared L2** ([`l2`]) — duplication
//!    accounting across cores in the same row/column and the L2 capacity
//!    needed for stall-free operation (Fig. 4).
//!
//! The [`sim`] module resolves one layer's grid wiring (per-core sub-GEMM,
//! L2 analysis, NoC words, per-core DRAM bandwidth) for the pipeline's
//! compute stage, which runs the representative core through the
//! cycle-accurate single-core planner. The paper's heterogeneous tensor
//! cores with a SIMD unit are not modelled: no request runs one. Its
//! Fig. 3 partition search and the §III-D non-uniform split over NoP
//! meshes are reached by no request either: they live beside the ledger
//! rows that run them, in `crates/repro` (`partition`, `nonuniform`,
//! `nop`).

pub mod l2;
pub mod partition;
pub mod sim;

pub use l2::{L2Config, L2Report};
pub use partition::{core_subgemm, MappingDims, PartitionGrid, PartitionScheme};
pub(crate) use sim::{partition_layer, PartitionedLayer};
