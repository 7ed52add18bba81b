//! Streaming result consumption: the [`ResultSink`] trait and its
//! standard implementations.
//!
//! The engine pushes every finished [`LayerResult`] into a sink instead
//! of returning a grown vector, so long topologies (and whole sweep
//! grids) run with **bounded result memory**: only the in-flight block
//! of the worker pool is ever resident. The standard sinks:
//!
//! * [`CollectSink`] — in-memory collector producing a [`RunResult`]
//!   (the classic API; memory grows with layer count).
//! * [`RunSummary`] — O(1) accumulator of the run-level aggregates
//!   (cycles, utilization, energy, …); what the sweep executor uses.
//! * [`MemoryReportSink`] — incremental report writer building the
//!   standard `*_REPORT.csv` contents row by row; the one report writer
//!   behind serve responses, the files the CLI writes and
//!   [`RunResult::reports`].
//!
//! ## Writing a new sink
//!
//! Implement [`ResultSink::layer`]; it receives each layer **in
//! topology order** and owns the result. Any `FnMut(LayerResult)`
//! closure is a sink too, which is how sinks compose (see the service's
//! run path, which tees into a [`RunSummary`] and a
//! [`MemoryReportSink`]).

use crate::config::ScaleSimConfig;
use crate::result::{rows, LayerResult, RunResult};
use scalesim_energy::EnergyReport;

/// Consumes finished layers as they stream out of the engine.
pub trait ResultSink {
    /// Accepts the next layer, in topology order.
    fn layer(&mut self, result: LayerResult);
}

impl<F: FnMut(LayerResult)> ResultSink for F {
    fn layer(&mut self, result: LayerResult) {
        self(result)
    }
}

/// Collects every layer into a [`RunResult`] (the non-streaming API).
#[derive(Debug, Clone, Default)]
pub struct CollectSink {
    layers: Vec<LayerResult>,
}

impl CollectSink {
    /// An empty collector.
    pub fn new() -> Self {
        Self::default()
    }

    /// The collected run.
    pub fn into_run(self) -> RunResult {
        RunResult {
            layers: self.layers,
        }
    }
}

impl ResultSink for CollectSink {
    fn layer(&mut self, result: LayerResult) {
        self.layers.push(result);
    }
}

/// O(1)-memory accumulator of a run's aggregate metrics.
///
/// Mirrors the reductions [`RunResult`] computes over its layer vector,
/// but without retaining the layers — the sweep executor summarizes
/// thousands-of-layer runs through this sink with constant memory.
#[derive(Debug, Clone)]
pub struct RunSummary {
    /// Layers accumulated.
    pub layers: usize,
    /// Sum of per-layer end-to-end cycles (DRAM-aware when available).
    pub total_cycles: u64,
    /// Sum of stall-free compute cycles.
    pub compute_cycles: u64,
    /// Sum of stall cycles.
    pub stall_cycles: u64,
    /// MACs executed.
    pub macs: u64,
    /// Compute-cycle-weighted utilization numerator (see
    /// [`utilization`](Self::utilization)).
    pub util_weighted: f64,
    /// Component-wise merged energy report (empty when energy is off).
    pub energy: EnergyReport,
    /// L2→L1 NoC words.
    pub noc_words: u64,
}

impl Default for RunSummary {
    fn default() -> Self {
        Self {
            layers: 0,
            total_cycles: 0,
            compute_cycles: 0,
            stall_cycles: 0,
            macs: 0,
            util_weighted: 0.0,
            energy: EnergyReport::empty(),
            noc_words: 0,
        }
    }
}

impl RunSummary {
    /// An empty summary.
    pub fn new() -> Self {
        Self::default()
    }

    /// Folds one layer into the aggregates.
    pub fn add(&mut self, l: &LayerResult) {
        self.layers += 1;
        self.total_cycles += l.total_cycles();
        self.compute_cycles += l.report.compute.total_compute_cycles;
        self.stall_cycles += l.stall_cycles();
        self.macs += l.report.compute.macs;
        self.util_weighted +=
            l.report.compute.utilization * l.report.compute.total_compute_cycles as f64;
        if let Some(e) = &l.energy {
            self.energy.merge(e);
        }
        self.noc_words += l.noc_words;
    }

    /// Compute-cycle-weighted mean PE utilization in `[0, 1]`.
    pub fn utilization(&self) -> f64 {
        if self.compute_cycles == 0 {
            0.0
        } else {
            self.util_weighted / self.compute_cycles as f64
        }
    }

    /// Total energy in mJ (0.0 when energy estimation is off).
    pub fn energy_mj(&self) -> f64 {
        self.energy.total_mj()
    }

    /// Energy-delay product in `cycles × mJ`.
    pub fn edp_cycles_mj(&self) -> f64 {
        self.total_cycles as f64 * self.energy_mj()
    }
}

impl ResultSink for RunSummary {
    fn layer(&mut self, result: LayerResult) {
        self.add(&result);
    }
}

/// Which reports a [`MemoryReportSink`] emits; derived from the
/// configuration (a feature that is off contributes no report).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReportSections {
    /// `COMPUTE_REPORT.csv` (always on).
    pub compute: bool,
    /// `BANDWIDTH_REPORT.csv` (always on).
    pub bandwidth: bool,
    /// `SPARSE_REPORT.csv` (sparsity runs only).
    pub sparse: bool,
    /// `ENERGY_REPORT.csv` (energy estimation on).
    pub energy: bool,
    /// `DRAM_REPORT.csv` (cycle-accurate DRAM flow on).
    pub dram: bool,
}

impl ReportSections {
    /// The sections `config` produces rows for.
    pub fn for_config(config: &ScaleSimConfig) -> Self {
        Self {
            compute: true,
            bandwidth: true,
            sparse: config.sparsity.is_some(),
            energy: config.enable_energy,
            dram: config.enable_dram,
        }
    }
}

/// Streams the standard report CSVs into in-memory strings as layers
/// arrive. Reports travel inside a
/// [`SimResponse`](scalesim_api::SimResponse); the CLI writes those same
/// strings to disk, so files and serve responses cannot differ.
///
/// Rows come from the [`rows`] formatters. Feature-gated sections
/// appear lazily on their first row (a report with no rows is not
/// emitted), while the always-on compute/bandwidth reports are emitted
/// even for a zero-layer run (header only).
pub struct MemoryReportSink {
    /// `(file name, header, content)` per section, in the CLI's
    /// historical emission order; content stays empty until the first
    /// row.
    sections: [(&'static str, &'static str, String); 5],
    emit: ReportSections,
}

impl MemoryReportSink {
    /// A sink collecting the sections enabled by `sections`.
    pub fn new(sections: ReportSections) -> Self {
        Self {
            sections: [
                ("COMPUTE_REPORT.csv", rows::COMPUTE_HEADER, String::new()),
                (
                    "BANDWIDTH_REPORT.csv",
                    rows::BANDWIDTH_HEADER,
                    String::new(),
                ),
                ("SPARSE_REPORT.csv", rows::SPARSE_HEADER, String::new()),
                ("ENERGY_REPORT.csv", rows::ENERGY_HEADER, String::new()),
                ("DRAM_REPORT.csv", rows::DRAM_HEADER, String::new()),
            ],
            emit: sections,
        }
    }

    fn push_row(&mut self, index: usize, row: &str) {
        let (_, header, content) = &mut self.sections[index];
        if content.is_empty() {
            content.push_str(header);
        }
        content.push_str(row);
    }

    /// Appends one layer's row to every enabled section.
    pub(crate) fn add(&mut self, result: &LayerResult) {
        if self.emit.compute {
            self.push_row(0, &rows::compute(result));
        }
        if self.emit.bandwidth {
            self.push_row(1, &rows::bandwidth(result));
        }
        if self.emit.sparse {
            if let Some(row) = rows::sparse(result) {
                self.push_row(2, &row);
            }
        }
        if self.emit.energy {
            if let Some(row) = rows::energy(result) {
                self.push_row(3, &row);
            }
        }
        if self.emit.dram {
            if let Some(row) = rows::dram(result) {
                self.push_row(4, &row);
            }
        }
    }

    /// The collected reports as `(file name, content)` pairs, in
    /// emission order.
    pub fn finish(mut self) -> Vec<(&'static str, String)> {
        // The always-on sections exist even with zero rows.
        for (index, enabled) in [(0, self.emit.compute), (1, self.emit.bandwidth)] {
            if enabled {
                self.push_row(index, "");
            }
        }
        self.sections
            .into_iter()
            .filter(|(_, _, content)| !content.is_empty())
            .map(|(name, _, content)| (name, content))
            .collect()
    }
}

impl ResultSink for MemoryReportSink {
    fn layer(&mut self, result: LayerResult) {
        self.add(&result);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::ScaleSim;
    use scalesim_systolic::{ArrayShape, Layer, MemoryConfig, Topology};

    fn config() -> ScaleSimConfig {
        let mut config = ScaleSimConfig::default();
        config.core.array = ArrayShape::new(8, 8);
        config.core.memory = MemoryConfig::from_kilobytes(16, 16, 8, 2);
        config.enable_energy = true;
        config
    }

    fn topo() -> Topology {
        Topology::from_layers(
            "t",
            vec![
                Layer::gemm_layer("a", 16, 16, 16),
                Layer::gemm_layer("b", 24, 24, 24),
                Layer::gemm_layer("c", 32, 16, 8),
            ],
        )
    }

    #[test]
    fn summary_matches_run_result_reductions() {
        let sim = ScaleSim::new(config());
        let run = sim.run_topology(&topo());
        let mut summary = RunSummary::new();
        for l in &run.layers {
            summary.add(l);
        }
        assert_eq!(summary.layers, 3);
        assert_eq!(summary.total_cycles, run.total_cycles());
        assert_eq!(summary.compute_cycles, run.total_compute_cycles());
        assert_eq!(summary.stall_cycles, run.total_stall_cycles());
        assert_eq!(summary.macs, run.total_macs());
        assert!(summary.energy_mj() > 0.0);
    }

    #[test]
    fn memory_sink_emits_header_only_reports_for_zero_layers() {
        let reports = MemoryReportSink::new(ReportSections::for_config(&config())).finish();
        let want = [
            ("COMPUTE_REPORT.csv", rows::COMPUTE_HEADER.to_string()),
            ("BANDWIDTH_REPORT.csv", rows::BANDWIDTH_HEADER.to_string()),
        ];
        assert_eq!(reports, want, "energy is on but has no rows");
    }

    #[test]
    fn memory_sink_emits_the_sections_the_config_enables() {
        let sim = ScaleSim::new(config());
        let reports = sim.run_topology(&topo()).reports(sim.config());
        let names: Vec<_> = reports.iter().map(|(name, _)| *name).collect();
        // A dense run without the DRAM flow: no sparse or DRAM report.
        let want = [
            "COMPUTE_REPORT.csv",
            "BANDWIDTH_REPORT.csv",
            "ENERGY_REPORT.csv",
        ];
        assert_eq!(names, want);
        for (name, content) in &reports {
            assert_eq!(content.lines().count(), 1 + topo().len(), "{name}");
        }
    }
}
