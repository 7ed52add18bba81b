//! Per-layer multi-core wiring.
//!
//! Under uniform partitioning every core executes the same-shaped
//! sub-GEMM, so the integration crate's compute stage simulates one
//! representative core cycle-accurately and aggregates over the grid:
//! makespan = the representative core's total cycles, traffic and energy
//! activity scale by the core count, and the shared-L2 report quantifies
//! the deduplication and NoC fill traffic. [`partition_layer`] resolves
//! what that stage needs for one layer.

use crate::l2::{L2Config, L2Report};
use crate::partition::{core_subgemm, MappingDims, PartitionGrid, PartitionScheme};
use scalesim_systolic::GemmShape;

/// One layer's resolved multi-core partitioning: the sub-GEMM each core
/// executes, the shared-L2 analysis, the NoC fill traffic and the DRAM
/// bandwidth each core sees.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PartitionedLayer {
    /// The sub-GEMM every (symmetric) core executes.
    pub sub_gemm: GemmShape,
    /// Cores in the grid.
    pub cores: usize,
    /// Shared-L2 analysis (present when an L2 is configured).
    pub l2: Option<L2Report>,
    /// Words moved L2→L1 over the on-chip network (0 without L2).
    pub noc_words: u64,
    /// DRAM bandwidth available to one core, in words/cycle.
    pub per_core_bandwidth: f64,
}

/// Resolves one layer's multi-core partitioning: splits the GEMM across
/// the grid under `scheme`, evaluates the shared L2 when configured, and
/// divides the shared DRAM interface bandwidth across cores (floored at
/// 1/8 word per cycle so a huge grid still makes progress).
pub fn partition_layer(
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

#[cfg(test)]
mod tests {
    use super::*;
    use scalesim_systolic::Dataflow;

    /// A spatially partitioned WS cube at 10 words/cycle of DRAM
    /// bandwidth, with or without a shared L2.
    fn part((pr, pc): (usize, usize), side: usize, l2: bool) -> PartitionedLayer {
        partition_layer(
            Dataflow::WeightStationary,
            PartitionScheme::Spatial,
            GemmShape::new(side, side, side),
            PartitionGrid::new(pr, pc),
            l2.then(L2Config::default),
            10.0,
        )
    }

    #[test]
    fn work_conservation_across_grid() {
        let gemm = GemmShape::new(200, 120, 96);
        let grid = PartitionGrid::new(2, 4);
        for scheme in PartitionScheme::ALL {
            let p = partition_layer(Dataflow::WeightStationary, scheme, gemm, grid, None, 10.0);
            assert_eq!(p.cores, 8);
            assert!(
                p.sub_gemm.macs() * 8 >= gemm.macs(),
                "{scheme}: ceil splits may over-provision, never lose work"
            );
        }
    }

    #[test]
    fn l2_report_present_and_noc_positive() {
        let shared = part((2, 2), 128, true);
        assert!(shared.l2.is_some());
        assert!(shared.noc_words > 0);
        let private = part((2, 2), 128, false);
        assert_eq!((private.l2, private.noc_words), (None, 0));
    }

    #[test]
    fn cores_share_the_dram_interface() {
        let four = part((2, 2), 64, true);
        assert_eq!(four.per_core_bandwidth, 2.5);
        let huge = part((16, 16), 64, true);
        assert_eq!(huge.per_core_bandwidth, 0.125, "floored at 1/8 word/cycle");
    }
}
