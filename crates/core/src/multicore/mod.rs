//! # `scalesim::multicore`
//!
//! Multi tensor-core modeling — SCALE-Sim v3's multi-core feature
//! (paper §III), covering three of its four components:
//!
//! 1. **Spatio-temporal partitioning** ([`partition`]) — Eqs. 1–3 of the
//!    paper: dividing the row-spatial (`Sr`), column-spatial (`Sc`) and
//!    temporal (`T`) mapping dimensions across a `Pr × Pc` core grid, with
//!    the compute-cycles vs memory-footprint trade-off search of Fig. 3.
//! 2. **Hierarchical memory with a shared L2** ([`l2`]) — duplication
//!    accounting across cores in the same row/column and the L2 capacity
//!    needed for stall-free operation (Fig. 4).
//! 3. **Non-uniform workload partitioning** ([`nonuniform`], [`nop`]) —
//!    NoP-hop latency profiles (Simba-style) and the makespan-minimizing
//!    work split across cores at different distances from memory, with a
//!    2D-mesh package topology model (XY routing, memory-port placement,
//!    link serialization) that derives those profiles.
//!
//! The [`sim`] module resolves one layer's grid wiring (per-core sub-GEMM,
//! L2 analysis, NoC words, per-core DRAM bandwidth) for the pipeline's
//! compute stage, which runs the representative core through the
//! cycle-accurate single-core planner. The paper's third component,
//! heterogeneous tensor cores with a SIMD unit, is not modelled: no
//! request runs one.

pub mod l2;
pub mod nonuniform;
pub mod nop;
pub mod partition;
pub mod sim;

pub use l2::{L2Config, L2Report};
pub use nonuniform::{non_uniform_split, uniform_split_makespan, NopProfile};
pub use nop::{MemoryPortPlacement, NopMesh};
pub use partition::{
    best_partition, core_subgemm, factor_pairs, memory_footprint_words, runtime_cycles,
    MappingDims, PartitionChoice, PartitionGrid, PartitionObjective, PartitionScheme,
};
pub(crate) use sim::{partition_layer, PartitionedLayer};
