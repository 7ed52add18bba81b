//! Unified per-layer and per-run results, and the row formats of the
//! CSV reports (SCALE-Sim's `COMPUTE_REPORT.csv` /
//! `BANDWIDTH_REPORT.csv` / `SPARSE_REPORT.csv` plus the v3 energy,
//! DRAM and layout reports).

use crate::dram::DramAnalysis;
use crate::layout_analysis::LayoutAnalysis;
use crate::sink::{MemoryReportSink, RunSummary};
use scalesim_energy::EnergyReport;
use scalesim_sparse::SparseReportRow;
use scalesim_systolic::{GemmShape, LayerReport};

/// Everything SCALE-Sim v3 produces for one layer.
#[derive(Debug, Clone)]
pub struct LayerResult {
    /// Layer name.
    pub name: String,
    /// The GEMM actually executed (compressed when sparsity is on).
    pub gemm: GemmShape,
    /// The dense GEMM before sparsity compression.
    pub dense_gemm: GemmShape,
    /// Cycle-accurate compute/memory report (ideal-bandwidth memory, or
    /// per representative core under multi-core).
    pub report: LayerReport,
    /// Three-step DRAM analysis (when enabled).
    pub dram: Option<DramAnalysis>,
    /// Layout bank-conflict analysis (when enabled).
    pub layout: Option<LayoutAnalysis>,
    /// Energy report (when enabled).
    pub energy: Option<EnergyReport>,
    /// Sparse storage report row (when sparsity is on).
    pub sparse: Option<SparseReportRow>,
    /// Cores used (1 = single core).
    pub cores: usize,
    /// L2→L1 NoC words (multi-core only).
    pub noc_words: u64,
}

impl LayerResult {
    /// The layer's end-to-end cycles: the DRAM-aware total when available,
    /// otherwise the ideal-memory total.
    pub fn total_cycles(&self) -> u64 {
        self.dram
            .as_ref()
            .map(|d| d.summary.total_cycles)
            .unwrap_or(self.report.memory.total_cycles)
    }

    /// Stall cycles under the selected memory model.
    pub fn stall_cycles(&self) -> u64 {
        self.dram
            .as_ref()
            .map(|d| d.summary.stall_cycles)
            .unwrap_or(self.report.memory.stall_cycles)
    }
}

/// Per-layer CSV row formatters: the one source of truth for every
/// report's row format, written out by [`MemoryReportSink`].
pub mod rows {
    use super::LayerResult;

    /// `COMPUTE_REPORT.csv` header.
    pub const COMPUTE_HEADER: &str =
        "LayerName, ComputeCycles, StallCycles, TotalCycles, Utilization, MappingEfficiency\n";

    /// One `COMPUTE_REPORT.csv` row.
    pub fn compute(l: &LayerResult) -> String {
        format!(
            "{}, {}, {}, {}, {:.4}, {:.4}\n",
            l.name,
            l.report.compute.total_compute_cycles,
            l.stall_cycles(),
            l.total_cycles(),
            l.report.compute.utilization,
            l.report.compute.mapping_efficiency,
        )
    }

    /// `BANDWIDTH_REPORT.csv` header.
    pub const BANDWIDTH_HEADER: &str =
        "LayerName, IfmapReadBW, FilterReadBW, OfmapWriteBW, DramThroughputMBps\n";

    /// One `BANDWIDTH_REPORT.csv` row (average words/cycle per interface
    /// over the layer).
    pub fn bandwidth(l: &LayerResult) -> String {
        let m = &l.report.memory;
        let cycles = l.total_cycles().max(1) as f64;
        format!(
            "{}, {:.4}, {:.4}, {:.4}, {:.1}\n",
            l.name,
            m.ifmap.dram_reads as f64 / cycles,
            m.filter.dram_reads as f64 / cycles,
            m.ofmap.dram_writes as f64 / cycles,
            l.dram.as_ref().map_or(0.0, |d| d.throughput_mbps),
        )
    }

    /// `SPARSE_REPORT.csv` header.
    pub const SPARSE_HEADER: &str =
        "Layer, Sparsity, Representation, OriginalFilterBytes, NewFilterBytes\n";

    /// One `SPARSE_REPORT.csv` row (None for dense layers).
    pub fn sparse(l: &LayerResult) -> Option<String> {
        let s = l.sparse.as_ref()?;
        Some(format!(
            "{}, {}, {}, {}, {}\n",
            s.layer,
            s.sparsity,
            s.representation,
            s.original_bytes,
            s.new_filter_bytes()
        ))
    }

    /// `DRAM_REPORT.csv` header.
    pub const DRAM_HEADER: &str =
        "LayerName, LineRequests, AvgLatency, ThroughputMBps, RowHitRate, \
         DramEnergyPj, DramPjPerBit, DramAvgPowerMw\n";

    /// One `DRAM_REPORT.csv` row (None when the DRAM flow was off).
    pub fn dram(l: &LayerResult) -> Option<String> {
        let d = l.dram.as_ref()?;
        Some(format!(
            "{}, {}, {:.2}, {:.1}, {:.4}, {:.1}, {:.3}, {:.2}\n",
            l.name,
            d.line_requests,
            d.avg_latency,
            d.throughput_mbps,
            d.stats.row_hit_rate(),
            d.energy.total_pj(),
            d.energy.pj_per_bit(),
            d.energy.avg_power_mw(),
        ))
    }

    /// `LAYOUT_REPORT.csv` header.
    pub const LAYOUT_HEADER: &str = "LayerName, ComputeCycles, LayoutCycles, BandwidthCycles\n";

    /// One `LAYOUT_REPORT.csv` row (None when the layout analysis was
    /// off).
    pub fn layout(l: &LayerResult) -> Option<String> {
        let a = l.layout.as_ref()?;
        Some(format!(
            "{}, {}, {}, {}\n",
            l.name, a.compute_cycles, a.layout_cycles, a.bandwidth_cycles
        ))
    }

    /// `ENERGY_REPORT.csv` header.
    pub const ENERGY_HEADER: &str = "LayerName, EnergyMj, AvgPowerW, EdpCyclesMj\n";

    /// One `ENERGY_REPORT.csv` row (None when energy was off).
    pub fn energy(l: &LayerResult) -> Option<String> {
        let e = l.energy.as_ref()?;
        Some(format!(
            "{}, {:.6}, {:.4}, {:.4}\n",
            l.name,
            e.total_mj(),
            e.avg_power_w(),
            e.edp_cycles_mj()
        ))
    }
}

/// A full-network run.
#[derive(Debug, Clone, Default)]
pub struct RunResult {
    /// Per-layer results in execution order.
    pub layers: Vec<LayerResult>,
}

impl RunResult {
    /// The run-level aggregates (compute and stall cycles, MACs,
    /// utilization, NoC words, …): every layer folded through the one
    /// [`RunSummary`] reduction, in order.
    pub fn summary(&self) -> RunSummary {
        let mut summary = RunSummary::new();
        self.layers.iter().for_each(|layer| summary.add(layer));
        summary
    }

    /// Sum of per-layer end-to-end cycles.
    pub fn total_cycles(&self) -> u64 {
        self.summary().total_cycles
    }

    /// Total energy in mJ (0.0 when energy is disabled — folded from
    /// `+0.0`, because `sum()` of no terms is `-0.0`). Sums per-layer
    /// totals, where [`RunSummary::energy_mj`] merges component-wise
    /// first: the two associations round differently and each is pinned
    /// (the ledger and examples here, serve and sweep goldens there).
    pub fn total_energy_mj(&self) -> f64 {
        let layers = self.layers.iter().filter_map(|l| l.energy.as_ref());
        layers.fold(0.0, |total, e| total + e.total_mj())
    }

    /// Energy-delay product in `cycles × mJ` (Table V's unit), computed
    /// over the whole run.
    pub fn edp_cycles_mj(&self) -> f64 {
        self.total_cycles() as f64 * self.total_energy_mj()
    }

    /// Total DRAM energy over the run in mJ (`+0.0` when DRAM is disabled).
    pub fn total_dram_energy_mj(&self) -> f64 {
        let layers = self.layers.iter().filter_map(|l| l.dram.as_ref());
        layers.fold(0.0, |total, d| total + d.energy.total_mj())
    }

    /// The run's `*_REPORT.csv` files as `(file name, content)` pairs:
    /// the layers fed through the same [`MemoryReportSink`] that
    /// produces the CLI's files and serve's responses.
    pub fn reports(&self) -> Vec<(&'static str, String)> {
        let mut sink = MemoryReportSink::new();
        self.layers.iter().for_each(|layer| sink.add(layer));
        sink.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scalesim_systolic::{ComputeSummary, MemorySummary, SramSummary};

    fn layer(name: &str, cycles: u64) -> LayerResult {
        let gemm = GemmShape::new(4, 4, 4);
        LayerResult {
            name: name.into(),
            gemm,
            dense_gemm: gemm,
            report: LayerReport {
                name: name.into(),
                gemm,
                compute: ComputeSummary {
                    total_compute_cycles: cycles,
                    folds: 1,
                    macs: 64,
                    utilization: 0.5,
                    mapping_efficiency: 0.5,
                },
                memory: MemorySummary {
                    total_cycles: cycles + 10,
                    stall_cycles: 10,
                    compute_cycles: cycles,
                    ..Default::default()
                },
                sram: SramSummary::default(),
            },
            dram: None,
            layout: None,
            energy: None,
            sparse: None,
            cores: 1,
            noc_words: 0,
        }
    }

    #[test]
    fn totals_sum_over_layers() {
        let run = RunResult {
            layers: vec![layer("a", 100), layer("b", 200)],
        };
        assert_eq!(run.total_cycles(), 100 + 10 + 200 + 10);
        let summary = run.summary();
        assert_eq!(summary.compute_cycles, 300);
        assert_eq!(summary.stall_cycles, 20);
        assert_eq!(summary.macs, 128);
        assert_eq!(summary.utilization(), 0.5);
        // A feature-off run totals to +0.0, not the -0.0 an empty `sum()`
        // yields (`-0.0 == 0.0`, so compare the sign bit).
        for off in [run.total_energy_mj(), run.total_dram_energy_mj()] {
            assert!(off == 0.0 && off.is_sign_positive(), "{off:?}");
        }
        assert!(run.edp_cycles_mj().is_sign_positive());
    }

    #[test]
    fn reports_have_rows_per_layer() {
        let run = RunResult {
            layers: vec![layer("a", 100), layer("b", 200)],
        };
        let reports = run.reports();
        let names: Vec<_> = reports.iter().map(|(name, _)| *name).collect();
        // The layers carry no sparse/energy/DRAM/layout data, so only
        // the always-on reports are emitted.
        assert_eq!(names, ["COMPUTE_REPORT.csv", "BANDWIDTH_REPORT.csv"]);
        for (name, content) in &reports {
            assert_eq!(content.lines().count(), 3, "{name}");
        }
    }
}
