//! Action counts and their derivation from simulation results.
//!
//! Implements the formulas of paper §VII-D and §VII-E:
//!
//! ```text
//! MAC_random      = #PEs · cycles · utilization
//! MAC_gated       = #PEs · cycles · (1 − utilization)     (clock gating on)
//! ifmap_spad:  write = #SRAM ifmap reads,  read = #MACs
//! weight_spad: write = #SRAM filter reads, read = #MACs
//! psum_spad:   read = write = #MACs
//! SRAM idle   = cycles · ports − accesses
//! SRAM random = accesses − repeated accesses
//! ```

/// What the energy model needs to know about one simulated layer — a plain
/// data bridge so this module stays independent of the simulator.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LayerActivity {
    /// Total cycles including stalls (idle energy accrues during stalls).
    pub total_cycles: u64,
    /// MAC operations performed.
    pub macs: u64,
    /// Average PE utilization over compute cycles, in `[0, 1]`.
    pub utilization: f64,
    /// Ifmap SRAM reads and how many of them hit an open row.
    pub ifmap_sram_reads: u64,
    /// Repeated (open-row) ifmap reads.
    pub ifmap_sram_repeats: u64,
    /// Filter SRAM reads.
    pub filter_sram_reads: u64,
    /// Repeated filter reads.
    pub filter_sram_repeats: u64,
    /// Ofmap SRAM accesses (reads + writes).
    pub ofmap_sram_accesses: u64,
    /// Repeated ofmap accesses.
    pub ofmap_sram_repeats: u64,
    /// Words read from DRAM.
    pub dram_reads: u64,
    /// Words written to DRAM.
    pub dram_writes: u64,
    /// Words moved over the on-chip network (multi-core L2↔L1 traffic).
    pub noc_words: u64,
}

/// Flat action-count summary — the input Accelergy consumes (Fig. 14).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ActionCounts {
    /// MACs with fresh operands.
    pub mac_random: u64,
    /// MACs with unchanged operands (clock gating disabled).
    pub mac_constant: u64,
    /// Clock-gated PE-cycles.
    pub mac_gated: u64,
    /// Ifmap scratchpad reads.
    pub ifmap_spad_reads: u64,
    /// Ifmap scratchpad writes.
    pub ifmap_spad_writes: u64,
    /// Weight scratchpad reads.
    pub weight_spad_reads: u64,
    /// Weight scratchpad writes.
    pub weight_spad_writes: u64,
    /// Psum scratchpad reads.
    pub psum_spad_reads: u64,
    /// Psum scratchpad writes.
    pub psum_spad_writes: u64,
    /// Random (row-opening) accesses per SRAM.
    pub ifmap_sram_random: u64,
    /// Repeated ifmap SRAM accesses.
    pub ifmap_sram_repeat: u64,
    /// Idle port-cycles of the ifmap SRAM.
    pub ifmap_sram_idle: u64,
    /// Random filter SRAM accesses.
    pub filter_sram_random: u64,
    /// Repeated filter SRAM accesses.
    pub filter_sram_repeat: u64,
    /// Idle port-cycles of the filter SRAM.
    pub filter_sram_idle: u64,
    /// Random ofmap SRAM accesses.
    pub ofmap_sram_random: u64,
    /// Repeated ofmap SRAM accesses.
    pub ofmap_sram_repeat: u64,
    /// Idle port-cycles of the ofmap SRAM.
    pub ofmap_sram_idle: u64,
    /// DRAM word reads.
    pub dram_reads: u64,
    /// DRAM word writes.
    pub dram_writes: u64,
    /// NoC words moved.
    pub noc_words: u64,
}

impl ActionCounts {
    /// Derives action counts from a layer's activity per §VII-D/E.
    ///
    /// `pes` is the PE count, `(ifmap_ports, filter_ports, ofmap_ports)`
    /// the SRAM port widths (typically the array edge sizes), and
    /// `clock_gating` selects whether unused PE-cycles are gated or burn
    /// constant-input energy.
    pub fn from_layer(
        activity: &LayerActivity,
        pes: u64,
        ports: (u64, u64, u64),
        clock_gating: bool,
    ) -> Self {
        let pe_cycles = pes * activity.total_cycles;
        let mac_random = activity.macs.min(pe_cycles);
        let unused = pe_cycles - mac_random;
        let (mac_constant, mac_gated) = if clock_gating {
            (0, unused)
        } else {
            (unused, 0)
        };
        let idle =
            |accesses: u64, port: u64| (activity.total_cycles * port).saturating_sub(accesses);
        Self {
            mac_random,
            mac_constant,
            mac_gated,
            // §VII-E: spad write counts follow the SRAM reads feeding them;
            // reads follow the MAC count.
            ifmap_spad_reads: activity.macs,
            ifmap_spad_writes: activity.ifmap_sram_reads,
            weight_spad_reads: activity.macs,
            weight_spad_writes: activity.filter_sram_reads,
            psum_spad_reads: activity.macs,
            psum_spad_writes: activity.macs,
            ifmap_sram_random: activity.ifmap_sram_reads - activity.ifmap_sram_repeats,
            ifmap_sram_repeat: activity.ifmap_sram_repeats,
            ifmap_sram_idle: idle(activity.ifmap_sram_reads, ports.0),
            filter_sram_random: activity.filter_sram_reads - activity.filter_sram_repeats,
            filter_sram_repeat: activity.filter_sram_repeats,
            filter_sram_idle: idle(activity.filter_sram_reads, ports.1),
            ofmap_sram_random: activity.ofmap_sram_accesses - activity.ofmap_sram_repeats,
            ofmap_sram_repeat: activity.ofmap_sram_repeats,
            ofmap_sram_idle: idle(activity.ofmap_sram_accesses, ports.2),
            dram_reads: activity.dram_reads,
            dram_writes: activity.dram_writes,
            noc_words: activity.noc_words,
        }
    }

    /// Element-wise sum (accumulate layers into a network total).
    pub(crate) fn merge(&mut self, other: &ActionCounts) {
        self.mac_random += other.mac_random;
        self.mac_constant += other.mac_constant;
        self.mac_gated += other.mac_gated;
        self.ifmap_spad_reads += other.ifmap_spad_reads;
        self.ifmap_spad_writes += other.ifmap_spad_writes;
        self.weight_spad_reads += other.weight_spad_reads;
        self.weight_spad_writes += other.weight_spad_writes;
        self.psum_spad_reads += other.psum_spad_reads;
        self.psum_spad_writes += other.psum_spad_writes;
        self.ifmap_sram_random += other.ifmap_sram_random;
        self.ifmap_sram_repeat += other.ifmap_sram_repeat;
        self.ifmap_sram_idle += other.ifmap_sram_idle;
        self.filter_sram_random += other.filter_sram_random;
        self.filter_sram_repeat += other.filter_sram_repeat;
        self.filter_sram_idle += other.filter_sram_idle;
        self.ofmap_sram_random += other.ofmap_sram_random;
        self.ofmap_sram_repeat += other.ofmap_sram_repeat;
        self.ofmap_sram_idle += other.ofmap_sram_idle;
        self.dram_reads += other.dram_reads;
        self.dram_writes += other.dram_writes;
        self.noc_words += other.noc_words;
    }
}
