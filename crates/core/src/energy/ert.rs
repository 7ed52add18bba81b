//! Energy reference tables and the architecture specification.
//!
//! Per-action energies are calibrated to the published 65 nm numbers the
//! Accelergy/Eyeriss line of work reports: pJ-scale MACs, register-file
//! accesses around 1 pJ, SRAM accesses growing with capacity, and DRAM
//! roughly two orders of magnitude above SRAM. Absolute joules differ from
//! any particular silicon, but the *ratios* — which drive every design
//! conclusion in the paper (Fig. 15, Tables V/VI) — are preserved.

/// High-level architecture parameters the energy model needs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ArchSpec {
    /// PE rows.
    pub rows: usize,
    /// PE columns.
    pub cols: usize,
    /// Ifmap SRAM bytes.
    pub(crate) ifmap_sram_bytes: usize,
    /// Filter SRAM bytes.
    pub(crate) filter_sram_bytes: usize,
    /// Ofmap SRAM bytes.
    pub(crate) ofmap_sram_bytes: usize,
    /// Word width in bits (default 16).
    pub(crate) word_bits: usize,
    /// Clock frequency in Hz (for power; default 1 GHz).
    pub(crate) clock_hz: f64,
}

impl ArchSpec {
    /// Creates a spec with 16-bit words and a 1 GHz clock.
    pub fn new(
        rows: usize,
        cols: usize,
        ifmap_sram_bytes: usize,
        filter_sram_bytes: usize,
        ofmap_sram_bytes: usize,
    ) -> Self {
        Self {
            rows,
            cols,
            ifmap_sram_bytes,
            filter_sram_bytes,
            ofmap_sram_bytes,
            word_bits: 16,
            clock_hz: 1.0e9,
        }
    }

    /// Number of PEs.
    pub(crate) fn num_pes(&self) -> usize {
        self.rows * self.cols
    }
}

/// Per-action energies in picojoules.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnergyTable {
    /// MAC with new operands.
    pub mac_random_pj: f64,
    /// MAC whose inputs did not change (wire switching mostly absent).
    pub(crate) mac_constant_pj: f64,
    /// Clock-gated MAC (static leakage + residual clock energy).
    pub mac_gated_pj: f64,
    /// Power-gated MAC (leakage only).
    pub(crate) mac_power_gated_pj: f64,
    /// PE scratchpad (register file) read.
    pub(crate) spad_read_pj: f64,
    /// PE scratchpad write.
    pub(crate) spad_write_pj: f64,
    /// Base SRAM access at the reference capacity.
    pub(crate) sram_access_base_pj: f64,
    /// Reference SRAM capacity for the base access energy (bytes).
    pub(crate) sram_reference_bytes: f64,
    /// Repeated-access discount factor (same open row, §VII-C: energy can
    /// "differ by more than double" — we use 0.4×).
    pub(crate) sram_repeat_factor: f64,
    /// SRAM idle (leakage) energy per port-cycle.
    pub(crate) sram_idle_pj: f64,
    /// DRAM access per word.
    pub(crate) dram_access_pj: f64,
    /// NoC transfer per word per hop.
    pub(crate) noc_word_pj: f64,
}

impl EnergyTable {
    /// The 65 nm calibration used throughout the paper reproduction.
    pub fn eyeriss_65nm() -> Self {
        Self {
            mac_random_pj: 2.2,
            mac_constant_pj: 1.1,
            mac_gated_pj: 0.08,
            mac_power_gated_pj: 0.06,
            spad_read_pj: 0.25,
            spad_write_pj: 0.35,
            sram_access_base_pj: 6.0,
            sram_reference_bytes: 100.0 * 1024.0,
            sram_repeat_factor: 0.4,
            sram_idle_pj: 0.004,
            dram_access_pj: 200.0,
            noc_word_pj: 0.8,
        }
    }

    /// SRAM random-access energy for a buffer of `bytes` capacity.
    /// Access energy scales with the square root of capacity (bitline and
    /// wordline length growth), the standard CACTI-style approximation.
    pub(crate) fn sram_access_pj(&self, bytes: usize) -> f64 {
        let ratio = (bytes.max(1) as f64 / self.sram_reference_bytes).sqrt();
        self.sram_access_base_pj * ratio.max(0.05)
    }

    /// SRAM repeated-access energy for a buffer of `bytes`.
    pub(crate) fn sram_repeat_pj(&self, bytes: usize) -> f64 {
        self.sram_access_pj(bytes) * self.sram_repeat_factor
    }

    /// SRAM leakage per cycle, proportional to capacity.
    pub(crate) fn sram_leak_pj_per_cycle(&self, bytes: usize) -> f64 {
        self.sram_idle_pj * (bytes as f64 / 1024.0)
    }
}

impl Default for EnergyTable {
    fn default() -> Self {
        Self::eyeriss_65nm()
    }
}

/// The complete energy model: a table bound to an architecture.
#[derive(Debug, Clone, PartialEq)]
pub struct EnergyModel {
    /// Architecture parameters.
    pub(crate) arch: ArchSpec,
    /// Per-action energies.
    pub(crate) table: EnergyTable,
}

impl EnergyModel {
    /// Creates a model with the 65 nm calibration.
    pub fn eyeriss_65nm(arch: ArchSpec) -> Self {
        Self {
            arch,
            table: EnergyTable::eyeriss_65nm(),
        }
    }
}
