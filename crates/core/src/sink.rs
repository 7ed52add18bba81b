//! Streaming result consumption: the [`ResultSink`] trait and its
//! standard implementations.
//!
//! The engine pushes every finished [`LayerResult`] into a sink instead
//! of returning a grown vector, so long topologies (and whole sweep
//! grids) run with **bounded result memory**: only the in-flight block
//! of the worker pool is ever resident. The standard sinks:
//!
//! * `Vec<LayerResult>` — the in-memory collector behind
//!   [`ScaleSim::run_topology`](crate::ScaleSim::run_topology) (the
//!   classic API; memory grows with layer count).
//! * [`RunSummary`] — O(1) accumulator of the run-level aggregates
//!   (cycles, utilization, energy, …); what the sweep executor uses.
//! * [`MemoryReportSink`] — incremental report writer building the
//!   standard `*_REPORT.csv` contents row by row; the one report writer
//!   behind serve responses, the files the CLI writes and
//!   [`RunResult::reports`](crate::RunResult::reports).
//!
//! ## Writing a new sink
//!
//! Implement [`ResultSink::layer`]; it receives each layer **in
//! topology order** and owns the result. Any `FnMut(LayerResult)`
//! closure is a sink too, which is how sinks compose (see the service's
//! run path, which tees into a [`RunSummary`] and a
//! [`MemoryReportSink`]).

use crate::result::{rows, LayerResult};
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

impl ResultSink for Vec<LayerResult> {
    fn layer(&mut self, result: LayerResult) {
        self.push(result);
    }
}

/// O(1)-memory accumulator of a run's aggregate metrics.
///
/// The one statement of the run-level reductions
/// ([`RunResult`](crate::RunResult)'s totals and the scale-out join fold
/// through it), computed without retaining the layers — the sweep
/// executor summarizes
/// thousands-of-layer runs through this sink with constant memory.
#[derive(Debug, Clone, Default, PartialEq)]
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

/// One report of a [`MemoryReportSink`]: file name, header, and the row
/// formatter (a formatter returning `None` says the layer has no such
/// section — the feature was off).
type Section = (
    &'static str,
    &'static str,
    fn(&LayerResult) -> Option<String>,
);

/// Every report of a run, in the CLI's historical emission order.
const SECTIONS: [Section; 6] = [
    ("COMPUTE_REPORT.csv", rows::COMPUTE_HEADER, |l| {
        Some(rows::compute(l))
    }),
    ("BANDWIDTH_REPORT.csv", rows::BANDWIDTH_HEADER, |l| {
        Some(rows::bandwidth(l))
    }),
    ("SPARSE_REPORT.csv", rows::SPARSE_HEADER, rows::sparse),
    ("ENERGY_REPORT.csv", rows::ENERGY_HEADER, rows::energy),
    ("DRAM_REPORT.csv", rows::DRAM_HEADER, rows::dram),
    ("LAYOUT_REPORT.csv", rows::LAYOUT_HEADER, rows::layout),
];

/// The sections emitted even for a zero-layer run (header only).
const ALWAYS_ON: usize = 2;

/// Streams the standard report CSVs into in-memory strings as layers
/// arrive. Reports travel inside a
/// [`SimResponse`](scalesim_api::SimResponse); the CLI writes those same
/// strings to disk, so files and serve responses cannot differ.
///
/// Rows come from the [`rows`] formatters. Feature-gated sections
/// appear lazily on their first row (a report with no rows is not
/// emitted), while the always-on compute/bandwidth reports are emitted
/// even for a zero-layer run (header only).
#[derive(Debug, Default)]
pub struct MemoryReportSink {
    /// Content per [`SECTIONS`] entry; empty until the first row.
    contents: [String; SECTIONS.len()],
}

impl MemoryReportSink {
    /// An empty sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends one layer's row to every section it carries data for.
    pub(crate) fn add(&mut self, result: &LayerResult) {
        for ((_, header, row), content) in SECTIONS.iter().zip(&mut self.contents) {
            if let Some(row) = row(result) {
                if content.is_empty() {
                    content.push_str(header);
                }
                content.push_str(&row);
            }
        }
    }

    /// The collected reports as `(file name, content)` pairs, in
    /// emission order.
    pub fn finish(mut self) -> Vec<(&'static str, String)> {
        for ((_, header, _), content) in SECTIONS.iter().zip(&mut self.contents).take(ALWAYS_ON) {
            if content.is_empty() {
                content.push_str(header);
            }
        }
        let named = SECTIONS.iter().zip(self.contents);
        named
            .filter(|(_, content)| !content.is_empty())
            .map(|((name, ..), content)| (*name, content))
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
    use crate::config::ScaleSimConfig;
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
        assert_eq!(summary, run.summary());
        let sum = |of: fn(&LayerResult) -> u64| run.layers.iter().map(of).sum::<u64>();
        assert_eq!(summary.layers, 3);
        assert_eq!(summary.total_cycles, sum(LayerResult::total_cycles));
        assert_eq!(
            summary.compute_cycles,
            sum(|l| l.report.compute.total_compute_cycles)
        );
        assert_eq!(summary.stall_cycles, sum(LayerResult::stall_cycles));
        assert_eq!(summary.macs, sum(|l| l.report.compute.macs));
        assert!(summary.energy_mj() > 0.0);
    }

    #[test]
    fn memory_sink_emits_header_only_reports_for_zero_layers() {
        let reports = MemoryReportSink::new().finish();
        let want = [
            ("COMPUTE_REPORT.csv", rows::COMPUTE_HEADER.to_string()),
            ("BANDWIDTH_REPORT.csv", rows::BANDWIDTH_HEADER.to_string()),
        ];
        assert_eq!(reports, want, "energy is on but has no rows");
    }

    #[test]
    fn memory_sink_emits_the_sections_the_config_enables() {
        let sim = ScaleSim::new(config());
        let reports = sim.run_topology(&topo()).reports();
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
