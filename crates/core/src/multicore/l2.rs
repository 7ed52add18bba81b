//! Shared-L2 hierarchical memory modeling (paper §III-B, Fig. 4).
//!
//! Under spatial partitioning, every core in a grid row consumes the same
//! input partition and every core in a grid column the same weight
//! partition. With private L1s only, those partitions are replicated; a
//! shared L2 stores each once and streams it to the L1s. The paper's
//! sizing rule: "to ensure no stalls, the size of L2 SRAM should be enough
//! to accommodate the input/weight partitions."

use crate::multicore::partition::{MappingDims, PartitionGrid, PartitionScheme};

/// Shared-L2 configuration.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct L2Config {
    /// L2 capacity in words (0 = size it automatically to the partitions).
    pub capacity_words: usize,
}

/// L2 analysis results for one layer and partitioning.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct L2Report {
    /// Words the L2 must hold for stall-free double buffering
    /// (input + weight partitions, ×2 for double buffering).
    pub required_words: u64,
    /// Words of L1 duplication eliminated by the shared L2.
    pub(crate) duplication_saved_words: u64,
    /// L2→L1 traffic in words (what the NoC must move).
    pub l1_fill_words: u64,
}

impl L2Report {
    /// Evaluates the shared L2 for a partitioned layer.
    pub fn evaluate(scheme: PartitionScheme, dims: MappingDims, grid: PartitionGrid) -> L2Report {
        let (sr, sc, t) = (dims.sr as u64, dims.sc as u64, dims.t as u64);
        let (pr, pc) = (grid.pr as u64, grid.pc as u64);
        // Operand partition sizes per core and their duplication factors.
        let (a_part, a_dup, b_part, b_dup) = match scheme {
            PartitionScheme::Spatial => {
                // A: (Sr/Pr)×T shared by the Pc cores of a row;
                // B: T×(Sc/Pc) shared by the Pr cores of a column.
                (sr.div_ceil(pr) * t, pc, t * sc.div_ceil(pc), pr)
            }
            PartitionScheme::SpatioTemporal1 => {
                // A split both ways (unique per core); B shared along rows.
                (sr.div_ceil(pr) * t.div_ceil(pc), 1, t.div_ceil(pc) * sc, pr)
            }
            PartitionScheme::SpatioTemporal2 => {
                (sr * t.div_ceil(pr), pc, t.div_ceil(pr) * sc.div_ceil(pc), 1)
            }
        };
        // L2 holds one copy of each distinct partition; double buffered.
        let distinct = a_part * pr + b_part * pc;
        let required_words = 2 * distinct;
        let duplication_saved_words = a_part * pr * (a_dup - 1) + b_part * pc * (b_dup - 1);
        // Every core still fills its L1 once per partition.
        let l1_fill_words = a_part * pr * a_dup + b_part * pc * b_dup;
        L2Report {
            required_words,
            duplication_saved_words,
            l1_fill_words,
        }
    }
}
