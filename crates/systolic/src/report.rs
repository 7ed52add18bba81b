//! Simulation reports: compute, memory and SRAM summaries per layer.

use crate::topology::GemmShape;

/// Compute-side results of one layer (stall-free array behaviour).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ComputeSummary {
    /// Cycles the array needs with ideal (never-stalling) memory.
    pub total_compute_cycles: u64,
    /// Number of folds the workload was tiled into.
    pub folds: u64,
    /// Total multiply-accumulate operations performed.
    pub macs: u64,
    /// Average PE utilization in `[0, 1]`: MACs / (PEs · cycles).
    pub utilization: f64,
    /// Mapping efficiency in `[0, 1]`: active PE area / full array area,
    /// averaged over fold-cycles.
    pub mapping_efficiency: f64,
}

/// Backing-store traffic of one operand interface.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct OperandMemoryStats {
    /// Array-edge SRAM reads (demand traffic).
    pub sram_reads: u64,
    /// Words written into the SRAM (fills from DRAM, or array outputs).
    pub sram_writes: u64,
    /// Words read from the backing store.
    pub dram_reads: u64,
    /// Words written to the backing store.
    pub dram_writes: u64,
    /// Distinct words transferred at least once.
    pub unique_words: u64,
    /// Words transferred again due to capacity misses.
    pub refetch_words: u64,
}

/// Memory-side results of one layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MemorySummary {
    /// Cycles before compute starts (initial scratchpad fill).
    pub ramp_up_cycles: u64,
    /// Stall cycles inserted while the array waited on data.
    pub stall_cycles: u64,
    /// Cycles after compute spent draining outputs.
    pub drain_tail_cycles: u64,
    /// Stall-free compute cycles (copied from the compute summary).
    pub compute_cycles: u64,
    /// End-to-end cycles: ramp-up + compute + stalls + drain tail.
    pub total_cycles: u64,
    /// Ifmap interface traffic.
    pub ifmap: OperandMemoryStats,
    /// Filter interface traffic.
    pub filter: OperandMemoryStats,
    /// Ofmap interface traffic.
    pub ofmap: OperandMemoryStats,
}

impl MemorySummary {
    /// Fraction of total cycles spent stalled.
    pub fn stall_fraction(&self) -> f64 {
        if self.total_cycles == 0 {
            0.0
        } else {
            self.stall_cycles as f64 / self.total_cycles as f64
        }
    }

    /// Total words moved from DRAM (all interfaces).
    pub fn total_dram_reads(&self) -> u64 {
        self.ifmap.dram_reads + self.filter.dram_reads + self.ofmap.dram_reads
    }

    /// Total words moved to DRAM.
    pub fn total_dram_writes(&self) -> u64 {
        self.ifmap.dram_writes + self.filter.dram_writes + self.ofmap.dram_writes
    }
}

/// SRAM access profile used by the energy model (paper §VII-D).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SramSummary {
    /// Ifmap SRAM reads.
    pub ifmap_reads: u64,
    /// Filter SRAM reads.
    pub filter_reads: u64,
    /// Ofmap SRAM reads (partial-sum accumulation).
    pub ofmap_reads: u64,
    /// Ofmap SRAM writes.
    pub ofmap_writes: u64,
    /// Ifmap reads that hit the same SRAM row as the previous access
    /// (cheap "repeated" access in Accelergy's taxonomy).
    pub ifmap_repeat_reads: u64,
    /// Filter repeated reads.
    pub filter_repeat_reads: u64,
    /// Ofmap repeated accesses.
    pub ofmap_repeat_accesses: u64,
}

/// Full per-layer report.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerReport {
    /// Layer name.
    pub name: String,
    /// The GEMM simulated.
    pub gemm: GemmShape,
    /// Compute-side summary.
    pub compute: ComputeSummary,
    /// Memory-side summary.
    pub memory: MemorySummary,
    /// SRAM access profile.
    pub sram: SramSummary,
}

impl LayerReport {
    /// End-to-end cycles including stalls, ramp-up and drain.
    pub fn total_cycles(&self) -> u64 {
        self.memory.total_cycles
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stall_fraction_and_bandwidths() {
        let mut m = MemorySummary {
            total_cycles: 100,
            stall_cycles: 25,
            ..Default::default()
        };
        m.ifmap.dram_reads = 50;
        m.ofmap.dram_writes = 10;
        assert!((m.stall_fraction() - 0.25).abs() < 1e-12);
        assert_eq!((m.total_dram_reads(), m.total_dram_writes()), (50, 10));
    }

    #[test]
    fn zero_cycles_degenerate() {
        let m = MemorySummary::default();
        assert_eq!(m.stall_fraction(), 0.0);
    }
}
