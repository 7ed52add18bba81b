//! Per-layer multi-core wiring.
//!
//! Under uniform partitioning every core executes the same-shaped
//! sub-GEMM, so the pipeline's compute stage simulates one
//! representative core cycle-accurately and aggregates over the grid:
//! makespan = the representative core's total cycles, traffic and energy
//! activity scale by the core count, and the shared-L2 report quantifies
//! the deduplication and NoC fill traffic. `partition_layer` resolves
//! what that stage needs for one layer.

use crate::multicore::l2::{L2Config, L2Report};
use crate::multicore::partition::{core_subgemm, MappingDims, PartitionGrid, PartitionScheme};
use scalesim_systolic::GemmShape;

/// One layer's resolved multi-core partitioning: the sub-GEMM each core
/// executes, the shared-L2 analysis, the NoC fill traffic and the DRAM
/// bandwidth each core sees.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct PartitionedLayer {
    /// The sub-GEMM every (symmetric) core executes.
    pub(crate) sub_gemm: GemmShape,
    /// Cores in the grid.
    pub(crate) cores: usize,
    /// Shared-L2 analysis (present when an L2 is configured).
    pub(crate) l2: Option<L2Report>,
    /// Words moved L2→L1 over the on-chip network (0 without L2).
    pub(crate) noc_words: u64,
    /// DRAM bandwidth available to one core, in words/cycle.
    pub(crate) per_core_bandwidth: f64,
}

/// Resolves one layer's multi-core partitioning: splits the GEMM across
/// the grid under `scheme`, evaluates the shared L2 when configured, and
/// divides the shared DRAM interface bandwidth across cores (floored at
/// 1/8 word per cycle so a huge grid still makes progress).
pub(crate) fn partition_layer(
    dataflow: scalesim_systolic::Dataflow,
    scheme: PartitionScheme,
    gemm: GemmShape,
    grid: PartitionGrid,
    l2_config: Option<L2Config>,
    dram_bandwidth: f64,
) -> PartitionedLayer {
    let sub_gemm = core_subgemm(dataflow, scheme, gemm, grid);
    let l2 = l2_config.map(|_| L2Report::evaluate(scheme, MappingDims::new(dataflow, gemm), grid));
    let noc_words = l2.map_or(0, |r| r.l1_fill_words);
    PartitionedLayer {
        sub_gemm,
        cores: grid.cores(),
        l2,
        noc_words,
        per_core_bandwidth: (dram_bandwidth / grid.cores() as f64).max(0.125),
    }
}
