//! Per-cycle demand events produced by the dataflow generators.
//!
//! A *demand* is the set of scratchpad accesses occurring at the array edges
//! in one cycle: ifmap reads on the left edge, filter reads on the top edge,
//! and ofmap writes (plus read-modify-write reads when partial sums are
//! accumulated across folds) at the output edge.
//!
//! Demands are streamed through the [`DemandSink`] visitor so that multiple
//! consumers (stall model, energy counters, layout analyzer, trace writers)
//! can observe one pass without materializing the full demand matrix — the
//! key scalability improvement over the Python original.

use crate::operand::Addr;

/// The scratchpad accesses of a single cycle.
///
/// The vectors are reused across cycles by the generators; sinks must not
/// retain references between calls.
#[derive(Debug, Clone, Default)]
pub struct CycleDemand {
    /// Simulation cycle (compute time, i.e. without memory stalls).
    pub cycle: u64,
    /// Ifmap SRAM addresses read at the left edge this cycle.
    pub ifmap_reads: Vec<Addr>,
    /// Filter SRAM addresses read at the top edge this cycle.
    pub filter_reads: Vec<Addr>,
    /// Ofmap SRAM addresses read for partial-sum accumulation this cycle.
    pub ofmap_reads: Vec<Addr>,
    /// Ofmap SRAM addresses written this cycle.
    pub ofmap_writes: Vec<Addr>,
    /// Number of MAC operations performed in the array this cycle.
    pub active_macs: u64,
}

impl CycleDemand {
    /// Clears all per-cycle state (buffers keep their capacity).
    pub fn reset(&mut self, cycle: u64) {
        self.cycle = cycle;
        self.ifmap_reads.clear();
        self.filter_reads.clear();
        self.ofmap_reads.clear();
        self.ofmap_writes.clear();
        self.active_macs = 0;
    }

    /// True if no access and no compute happens this cycle.
    pub fn is_idle(&self) -> bool {
        self.active_macs == 0
            && self.ifmap_reads.is_empty()
            && self.filter_reads.is_empty()
            && self.ofmap_reads.is_empty()
            && self.ofmap_writes.is_empty()
    }
}

/// Visitor over the cycle-accurate demand stream.
pub trait DemandSink {
    /// Observes one cycle of demand. Called exactly once per simulated cycle
    /// in increasing cycle order.
    fn on_cycle(&mut self, demand: &CycleDemand);
}

/// Allows composing several sinks over a single generator pass.
impl<S: DemandSink + ?Sized> DemandSink for &mut S {
    fn on_cycle(&mut self, demand: &CycleDemand) {
        (**self).on_cycle(demand);
    }
}

/// Aggregate totals accumulated while streaming demands.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DemandSummary {
    /// Total simulated compute cycles.
    pub cycles: u64,
    /// Total ifmap SRAM reads.
    pub ifmap_reads: u64,
    /// Total filter SRAM reads.
    pub filter_reads: u64,
    /// Total ofmap SRAM reads (partial-sum accumulation).
    pub ofmap_reads: u64,
    /// Total ofmap SRAM writes.
    pub ofmap_writes: u64,
    /// Total MAC operations.
    pub macs: u64,
}

impl DemandSummary {
    /// Accumulates one cycle.
    pub fn absorb(&mut self, d: &CycleDemand) {
        self.cycles = self.cycles.max(d.cycle + 1);
        self.ifmap_reads += d.ifmap_reads.len() as u64;
        self.filter_reads += d.filter_reads.len() as u64;
        self.ofmap_reads += d.ofmap_reads.len() as u64;
        self.ofmap_writes += d.ofmap_writes.len() as u64;
        self.macs += d.active_macs;
    }
}

impl DemandSink for DemandSummary {
    fn on_cycle(&mut self, demand: &CycleDemand) {
        self.absorb(demand);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reset_clears_buffers() {
        let mut d = CycleDemand::default();
        d.ifmap_reads.push(1);
        d.ofmap_writes.push(2);
        d.active_macs = 7;
        d.reset(42);
        assert_eq!(d.cycle, 42);
        assert!(d.is_idle());
    }

    #[test]
    fn summary_accumulates() {
        let mut s = DemandSummary::default();
        let mut d = CycleDemand::default();
        d.reset(0);
        d.ifmap_reads.extend([1, 2, 3]);
        d.active_macs = 5;
        s.absorb(&d);
        d.reset(1);
        d.filter_reads.push(9);
        s.absorb(&d);
        assert_eq!(s.cycles, 2);
        assert_eq!(s.ifmap_reads, 3);
        assert_eq!(s.filter_reads, 1);
        assert_eq!(s.macs, 5);
    }
}
