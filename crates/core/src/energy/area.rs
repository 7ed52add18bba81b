//! Architecture-level silicon area estimation.
//!
//! Accelergy reports component area alongside energy, and the paper leans
//! on area arguments twice: Fig. 9's discussion notes that "each memory
//! channel also comes at an additional area cost for the memory
//! controller", and the §IX-B sparsity case study trades on-chip memory
//! capacity for area. This module supplies the area reference table (ART)
//! counterpart of the energy reference table in [`crate::energy::ert`]: a
//! 65 nm-calibrated per-component table and a composition rule over the
//! same [`ArchSpec`] the energy model consumes.
//!
//! Calibration anchors the published Eyeriss numbers (65 nm, 168 PEs +
//! 108 kB GLB on a 12.25 mm² die); as with the ERT, absolute mm² differ
//! from any particular silicon but the ratios driving design conclusions
//! (SRAM vs PE array vs memory controller) are preserved.
//!
//! ## Example
//!
//! ```
//! use scalesim::energy::{ArchSpec, AreaConfig, AreaTable};
//!
//! let arch = ArchSpec::new(32, 32, 256 << 10, 256 << 10, 128 << 10);
//! let area = AreaConfig::new(arch).with_dram_channels(2).estimate(&AreaTable::eyeriss_65nm());
//! assert!(area.total_mm2() > area.pe_array_mm2);
//! ```

use crate::energy::ert::ArchSpec;

/// Per-component area parameters in square micrometres (65 nm unless
/// rescaled).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AreaTable {
    /// One 16-bit integer MAC unit.
    pub(crate) mac_um2: f64,
    /// PE register file (scratchpad) area per byte.
    pub(crate) spad_um2_per_byte: f64,
    /// Per-PE control/pipeline overhead factor applied on top of
    /// MAC + scratchpads (≥ 1.0).
    pub(crate) pe_overhead: f64,
    /// SRAM macro area per byte (cell + distributed periphery).
    pub(crate) sram_um2_per_byte: f64,
    /// Fixed periphery (decoders, sense amplifiers) per SRAM bank.
    pub(crate) sram_bank_um2: f64,
    /// One NoC router (array-edge data distribution).
    pub(crate) noc_router_um2: f64,
    /// One DRAM channel's controller + PHY.
    pub(crate) dram_channel_um2: f64,
}

impl AreaTable {
    /// The 65 nm calibration used throughout the paper reproduction.
    pub fn eyeriss_65nm() -> Self {
        Self {
            mac_um2: 12_000.0,
            spad_um2_per_byte: 20.0,
            pe_overhead: 1.5,
            sram_um2_per_byte: 12.0,
            sram_bank_um2: 50_000.0,
            noc_router_um2: 15_000.0,
            dram_channel_um2: 6.0e6,
        }
    }
}

impl Default for AreaTable {
    fn default() -> Self {
        Self::eyeriss_65nm()
    }
}

/// Eyeriss-style per-PE scratchpad capacities in bytes
/// (ifmap 12×16 b, weights 224×16 b, psum 24×16 b).
pub(crate) const PE_SPAD_BYTES: usize = 24 + 448 + 48;

/// What to compose into an area estimate: the architecture plus the
/// structural knobs that do not affect energy but do affect silicon.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AreaConfig {
    /// Array and SRAM dimensions (shared with the energy model).
    pub(crate) arch: ArchSpec,
    /// Banks per on-chip SRAM (layout modeling, §VI).
    pub(crate) sram_banks: usize,
    /// DRAM channels (each pays a controller + PHY, Fig. 9).
    pub(crate) dram_channels: usize,
}

impl AreaConfig {
    /// A single-bank, single-channel configuration.
    pub fn new(arch: ArchSpec) -> Self {
        Self {
            arch,
            sram_banks: 1,
            dram_channels: 1,
        }
    }

    /// Sets the number of banks per on-chip SRAM.
    pub fn with_sram_banks(mut self, banks: usize) -> Self {
        self.sram_banks = banks.max(1);
        self
    }

    /// Sets the number of DRAM channels.
    pub fn with_dram_channels(mut self, channels: usize) -> Self {
        self.dram_channels = channels.max(1);
        self
    }

    /// Composes the estimate against an area table.
    pub fn estimate(&self, table: &AreaTable) -> AreaBreakdown {
        let pe =
            (table.mac_um2 + PE_SPAD_BYTES as f64 * table.spad_um2_per_byte) * table.pe_overhead;
        let pe_array = pe * self.arch.num_pes() as f64;

        let sram = |bytes: usize| -> f64 {
            bytes as f64 * table.sram_um2_per_byte + self.sram_banks as f64 * table.sram_bank_um2
        };
        let ifmap = sram(self.arch.ifmap_sram_bytes);
        let filter = sram(self.arch.filter_sram_bytes);
        let ofmap = sram(self.arch.ofmap_sram_bytes);

        // One router per array edge row and column (operand injection and
        // drain paths).
        let noc = (self.arch.rows + self.arch.cols) as f64 * table.noc_router_um2;
        let dram = self.dram_channels as f64 * table.dram_channel_um2;

        const UM2_PER_MM2: f64 = 1.0e6;
        AreaBreakdown {
            pe_array_mm2: pe_array / UM2_PER_MM2,
            ifmap_sram_mm2: ifmap / UM2_PER_MM2,
            filter_sram_mm2: filter / UM2_PER_MM2,
            ofmap_sram_mm2: ofmap / UM2_PER_MM2,
            noc_mm2: noc / UM2_PER_MM2,
            dram_ctrl_mm2: dram / UM2_PER_MM2,
        }
    }
}

/// Component-level area report in mm².
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct AreaBreakdown {
    /// Systolic PE array (MACs + per-PE scratchpads + control).
    pub pe_array_mm2: f64,
    /// Ifmap SRAM (cells + bank periphery).
    pub(crate) ifmap_sram_mm2: f64,
    /// Filter SRAM.
    pub(crate) filter_sram_mm2: f64,
    /// Ofmap SRAM.
    pub(crate) ofmap_sram_mm2: f64,
    /// Array-edge NoC routers.
    pub noc_mm2: f64,
    /// DRAM controllers and PHYs.
    pub dram_ctrl_mm2: f64,
}

impl AreaBreakdown {
    /// Total silicon area in mm².
    pub fn total_mm2(&self) -> f64 {
        self.pe_array_mm2
            + self.ifmap_sram_mm2
            + self.filter_sram_mm2
            + self.ofmap_sram_mm2
            + self.noc_mm2
            + self.dram_ctrl_mm2
    }

    /// Combined on-chip SRAM area in mm².
    pub fn sram_mm2(&self) -> f64 {
        self.ifmap_sram_mm2 + self.filter_sram_mm2 + self.ofmap_sram_mm2
    }

    /// On-chip (excluding DRAM controller) area in mm².
    pub fn core_mm2(&self) -> f64 {
        self.total_mm2() - self.dram_ctrl_mm2
    }

    /// One CSV row (matching [`csv_header`](Self::csv_header)).
    pub(crate) fn to_csv_row(self) -> String {
        format!(
            // No SIMD unit is modelled: `simd_mm2` stays in the schema as 0.
            "{:.3},{:.3},{:.3},{:.3},{:.3},0.000,{:.3},{:.3}",
            self.pe_array_mm2,
            self.ifmap_sram_mm2,
            self.filter_sram_mm2,
            self.ofmap_sram_mm2,
            self.noc_mm2,
            self.dram_ctrl_mm2,
            self.total_mm2()
        )
    }

    /// Header for [`to_csv_row`](Self::to_csv_row).
    pub(crate) fn csv_header() -> &'static str {
        "pe_array_mm2,ifmap_sram_mm2,filter_sram_mm2,ofmap_sram_mm2,noc_mm2,simd_mm2,dram_ctrl_mm2,total_mm2"
    }
}
