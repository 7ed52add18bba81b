//! Unified SCALE-Sim v3 configuration.

use crate::collective::ScaleoutSpec;
use crate::energy::ArchSpec;
use crate::layout::LayoutSpec;
use crate::llm::LlmRunSpec;
use crate::multicore::{L2Config, PartitionGrid, PartitionScheme};
use crate::sparse::{NmRatio, SparseFormat};
use scalesim_mem::{AddressMapping, DramSpec};
use scalesim_systolic::SimConfig;

/// DRAM integration parameters (§V).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DramIntegration {
    /// Device specification.
    pub spec: DramSpec,
    /// Channels.
    pub channels: usize,
    /// Address interleaving.
    pub mapping: AddressMapping,
    /// Read request-queue entries (paper default 128).
    pub read_queue: usize,
    /// Write request-queue entries.
    pub write_queue: usize,
    /// Memory-clock cycles per core-clock cycle (DDR4-2400 command clock
    /// at 1.2 GHz over a 1 GHz core → 1.2).
    pub mem_cycles_per_core_cycle: f64,
}

impl DramIntegration {
    /// Builds an integration for a device with the clock ratio derived
    /// from the device's command clock against a `core_clock_hz` core.
    pub fn for_spec(spec: DramSpec, channels: usize, core_clock_hz: f64) -> Self {
        let mem_clock_hz = 1.0e12 / spec.timing.tCK_ps as f64;
        Self {
            spec,
            channels,
            mem_cycles_per_core_cycle: mem_clock_hz / core_clock_hz,
            ..Default::default()
        }
    }
}

impl Default for DramIntegration {
    fn default() -> Self {
        Self {
            spec: DramSpec::DDR4_2400_4GB,
            channels: 1,
            mapping: AddressMapping::default(),
            read_queue: 128,
            write_queue: 128,
            mem_cycles_per_core_cycle: 1.2,
        }
    }
}

/// Data-layout integration parameters (§VI).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LayoutIntegration {
    /// Total on-chip bandwidth in elements per cycle.
    pub total_bandwidth: usize,
    /// Number of SRAM banks the bandwidth is split across.
    pub num_banks: usize,
    /// Read ports per bank.
    pub ports_per_bank: usize,
    /// Layout of the ifmap operand (matrix `M×K`).
    pub ifmap_layout: LayoutSpec,
    /// Layout of the filter operand (matrix `K×N`).
    pub filter_layout: LayoutSpec,
    /// Layout of the ofmap operand (matrix `M×N`).
    pub ofmap_layout: LayoutSpec,
    /// How long a fetched line stays in the array-edge line buffers, in
    /// cycles (0 = no reuse; each cycle re-fetches its lines).
    pub line_buffer_cycles: u64,
}

impl LayoutIntegration {
    /// Row-major layouts with the line width equal to the total bandwidth.
    pub(crate) fn row_major(total_bandwidth: usize, num_banks: usize) -> Self {
        Self {
            total_bandwidth,
            num_banks,
            ports_per_bank: 1,
            ifmap_layout: LayoutSpec::row_major(total_bandwidth),
            filter_layout: LayoutSpec::row_major(total_bandwidth),
            ofmap_layout: LayoutSpec::row_major(total_bandwidth),
            line_buffer_cycles: 64,
        }
    }

    /// Layouts matched to a dataflow's streaming direction — the
    /// bank-conflict-minimizing organization a layout-aware compiler
    /// would pick (the paper's FEATHER-style motivation):
    ///
    /// * OS streams `A` along `k` (row-major) and `B` along `k`
    ///   (column-major);
    /// * WS streams `A` along `m` (column-major);
    /// * IS streams `B` along `n` (row-major).
    pub fn matched(
        dataflow: scalesim_systolic::Dataflow,
        total_bandwidth: usize,
        num_banks: usize,
    ) -> Self {
        use scalesim_systolic::Dataflow::*;
        let mut cfg = Self::row_major(total_bandwidth, num_banks);
        match dataflow {
            OutputStationary => {
                cfg.filter_layout = LayoutSpec::column_major(total_bandwidth);
            }
            WeightStationary => {
                cfg.ifmap_layout = LayoutSpec::column_major(total_bandwidth);
            }
            InputStationary => {
                cfg.ifmap_layout = LayoutSpec::column_major(total_bandwidth);
                cfg.ofmap_layout = LayoutSpec::column_major(total_bandwidth);
            }
        }
        cfg
    }
}

impl Default for LayoutIntegration {
    fn default() -> Self {
        Self::row_major(64, 4)
    }
}

/// Sparsity configuration (§IV).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SparsityMode {
    /// One N:M ratio for the whole layer (`SparsitySupport` knob).
    LayerWise(NmRatio),
    /// Randomized N ≤ M/2 per block (`OptimizedMapping` + `BlockSize`).
    RowWise {
        /// Block size `M`.
        block: usize,
        /// RNG seed for the per-block N draw.
        seed: u64,
    },
}

/// Multi-core configuration subset used by the engine.
#[derive(Debug, Clone, PartialEq)]
pub struct MultiCoreIntegration {
    /// Core grid.
    pub grid: PartitionGrid,
    /// Partitioning scheme.
    pub scheme: PartitionScheme,
    /// Shared L2 (None = private L1s).
    pub l2: Option<L2Config>,
}

impl MultiCoreIntegration {
    /// What a bare core grid (`--cores 2x2`, the `cores` sweep axis)
    /// means: spatial partitioning behind a default shared L2 — and a
    /// 1×1 grid is the single core.
    pub(crate) fn for_grid(grid: PartitionGrid) -> Option<Self> {
        (grid.cores() > 1).then_some(Self {
            grid,
            scheme: PartitionScheme::Spatial,
            l2: Some(L2Config::default()),
        })
    }
}

/// The full v3 configuration: the v2 core plus the five feature toggles.
#[derive(Debug, Clone, PartialEq)]
pub struct ScaleSimConfig {
    /// Single-core parameters (array, dataflow, SRAM, bandwidth).
    pub core: SimConfig,
    /// Multi-core feature (§III); None = single core.
    pub multicore: Option<MultiCoreIntegration>,
    /// Sparsity feature (§IV); None = dense.
    pub sparsity: Option<SparsityMode>,
    /// Sparse representation used for storage accounting.
    pub sparse_format: SparseFormat,
    /// DRAM feature (§V); used when `enable_dram`.
    pub dram: DramIntegration,
    /// Whether the three-step DRAM flow runs.
    pub enable_dram: bool,
    /// Layout feature (§VI); used when `enable_layout`.
    pub layout: LayoutIntegration,
    /// Whether layout bank-conflict analysis runs.
    pub enable_layout: bool,
    /// Whether energy/power estimation runs (§VII).
    pub enable_energy: bool,
    /// Multi-chip scale-out configuration (`[scaleout]` cfg section);
    /// None = single chip. Only the `scalesim scaleout` flow and
    /// scale-out sweep points consult it.
    pub(crate) scaleout: Option<ScaleoutSpec>,
    /// LLM workload generation (`[llm]` cfg section); None = the
    /// topology comes from a CSV/registry. Consulted by the
    /// `scalesim llm` flow and the llm sweep axes.
    pub llm: Option<LlmRunSpec>,
}

impl Default for ScaleSimConfig {
    /// v2-parity defaults: compute + ideal-bandwidth memory only.
    fn default() -> Self {
        Self {
            core: SimConfig::default(),
            multicore: None,
            sparsity: None,
            sparse_format: SparseFormat::BlockedEllpack,
            dram: DramIntegration::default(),
            enable_dram: false,
            layout: LayoutIntegration::default(),
            enable_layout: false,
            enable_energy: false,
            scaleout: None,
            llm: None,
        }
    }
}

impl ScaleSimConfig {
    /// The dataflow layers actually run with: the paper fixes
    /// weight-stationary for all sparsity simulations.
    pub(crate) fn effective_dataflow(&self) -> scalesim_systolic::Dataflow {
        match self.sparsity {
            Some(_) => scalesim_systolic::Dataflow::WeightStationary,
            None => self.core.dataflow,
        }
    }

    /// The architecture the energy and area tables are evaluated for:
    /// the PE array plus the three scratchpads in bytes.
    pub(crate) fn arch_spec(&self) -> ArchSpec {
        let (array, mem) = (self.core.array, &self.core.memory);
        let bytes = |words: usize| words * mem.bytes_per_word;
        ArchSpec::new(
            array.rows(),
            array.cols(),
            bytes(mem.ifmap_words),
            bytes(mem.filter_words),
            bytes(mem.ofmap_words),
        )
    }

    /// A TPU-like configuration (§V-C1: "SCALE-Sim v3 is run with the
    /// Google TPU configuration"): 128×128 WS array, 24 MB of SRAM.
    pub fn tpu_like() -> Self {
        use scalesim_systolic::{ArrayShape, Dataflow, MemoryConfig};
        let mut cfg = Self::default();
        cfg.core = SimConfig::builder()
            .array(ArrayShape::new(128, 128))
            .dataflow(Dataflow::WeightStationary)
            .memory(MemoryConfig::from_kilobytes(8192, 8192, 2048, 2))
            .build();
        cfg
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_v2_parity() {
        let c = ScaleSimConfig::default();
        assert!(!c.enable_dram && !c.enable_layout && !c.enable_energy);
        assert!(c.multicore.is_none() && c.sparsity.is_none());
    }

    #[test]
    fn tpu_like_shape() {
        let c = ScaleSimConfig::tpu_like();
        assert_eq!(c.core.array.rows(), 128);
        assert_eq!(
            c.core.dataflow,
            scalesim_systolic::Dataflow::WeightStationary
        );
        assert!(c.core.validate().is_ok());
    }

    #[test]
    fn dram_defaults_match_paper() {
        let d = DramIntegration::default();
        assert_eq!(d.read_queue, 128);
        assert_eq!(d.write_queue, 128);
        assert_eq!(d.spec.org.capacity_bytes(), 512 * 1024 * 1024); // 4 Gb
    }
}
