//! Sweep-level aggregation: per-run records, per-point roll-ups, the
//! Pareto frontier, and the `SWEEP_REPORT.{csv,json}` emitters.
//!
//! Emitters use fixed-precision formatting throughout and operate on
//! records sorted by run index, so for a given spec the report bytes are
//! identical regardless of how the runs were scheduled.

use crate::sweep::pareto::pareto_min;
use scalesim_api::json::escape;

/// Aggregated metrics for one `(grid point, topology)` run, with the
/// point's *resolved* configuration (base config + overrides) inlined so
/// the report is self-describing.
#[derive(Debug, Clone, PartialEq)]
pub struct RunRecord {
    /// Global run index (point-major).
    pub run: usize,
    /// Grid-point index.
    pub(crate) point: usize,
    /// Grid-point label (see `SweepPoint::label`).
    pub point_label: String,
    /// Topology name.
    pub topology: String,
    /// Resolved PE array rows.
    pub array_rows: usize,
    /// Resolved PE array columns.
    pub(crate) array_cols: usize,
    /// Resolved dataflow (`"os"`/`"ws"`/`"is"`).
    pub(crate) dataflow: String,
    /// Resolved (ifmap, filter, ofmap) SRAM kilobytes.
    pub sram_kb: (usize, usize, usize),
    /// Resolved DRAM bandwidth in words/cycle.
    pub(crate) bandwidth: f64,
    /// Resolved tensor-core count (1 = single core).
    pub(crate) cores: usize,
    /// Whether the cycle-accurate DRAM flow ran.
    pub(crate) dram_enabled: bool,
    /// Whether energy estimation ran.
    pub(crate) energy_enabled: bool,
    /// Whether layout analysis ran.
    pub(crate) layout_enabled: bool,
    /// Layers simulated.
    pub(crate) layers: usize,
    /// End-to-end cycles (DRAM-aware when the DRAM flow ran).
    pub total_cycles: u64,
    /// Stall-free compute cycles.
    pub compute_cycles: u64,
    /// Stall cycles under the selected memory model.
    pub(crate) stall_cycles: u64,
    /// Compute-cycle-weighted mean PE utilization in `[0, 1]`.
    pub(crate) utilization: f64,
    /// MACs executed.
    pub macs: u64,
    /// Total energy in mJ (0 when energy estimation is off).
    pub energy_mj: f64,
    /// Energy-delay product in cycles × mJ.
    pub(crate) edp_cycles_mj: f64,
    /// L2→L1 NoC words (0 for single-core points).
    pub(crate) noc_words: u64,
}

/// Per-grid-point roll-up across all topologies, with the Pareto verdict.
#[derive(Debug, Clone, PartialEq)]
pub struct PointSummary {
    /// Grid-point index.
    pub(crate) point: usize,
    /// Grid-point label.
    pub(crate) label: String,
    /// Cycles summed over the point's runs.
    pub(crate) total_cycles: u64,
    /// Energy summed over the point's runs, mJ.
    pub(crate) energy_mj: f64,
    /// Point-level EDP: `total_cycles × energy_mj`.
    pub(crate) edp_cycles_mj: f64,
    /// Whether the point is on the runtime-vs-energy Pareto frontier.
    pub(crate) pareto: bool,
}

/// The whole sweep's results: every run, the per-point roll-up and the
/// Pareto frontier over `(total cycles, energy)`.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepReport {
    name: String,
    records: Vec<RunRecord>,
    pub(crate) points: Vec<PointSummary>,
}

impl SweepReport {
    /// Builds the report from per-run records (any order; they are
    /// sorted by run index), rolling runs up to points and marking the
    /// Pareto frontier over `(cycles, energy)` minimization.
    pub(crate) fn new(name: impl Into<String>, mut records: Vec<RunRecord>) -> SweepReport {
        records.sort_by_key(|r| r.run);
        let mut points: Vec<PointSummary> = Vec::new();
        for r in &records {
            match points.iter_mut().find(|p| p.point == r.point) {
                Some(p) => {
                    p.total_cycles += r.total_cycles;
                    p.energy_mj += r.energy_mj;
                }
                None => points.push(PointSummary {
                    point: r.point,
                    label: r.point_label.clone(),
                    total_cycles: r.total_cycles,
                    energy_mj: r.energy_mj,
                    edp_cycles_mj: 0.0,
                    pareto: false,
                }),
            }
        }
        points.sort_by_key(|p| p.point);
        let objectives: Vec<(f64, f64)> = points
            .iter()
            .map(|p| (p.total_cycles as f64, p.energy_mj))
            .collect();
        for i in pareto_min(&objectives) {
            points[i].pareto = true;
        }
        for p in &mut points {
            p.edp_cycles_mj = p.total_cycles as f64 * p.energy_mj;
        }
        SweepReport {
            name: name.into(),
            records,
            points,
        }
    }

    /// Per-run records, sorted by run index.
    pub fn records(&self) -> &[RunRecord] {
        &self.records
    }

    /// Labels of the Pareto-frontier points, in point order.
    pub(crate) fn pareto_labels(&self) -> Vec<&str> {
        self.points
            .iter()
            .filter(|p| p.pareto)
            .map(|p| p.label.as_str())
            .collect()
    }

    /// The `SWEEP_REPORT.csv` body: one row per run plus the resolved
    /// configuration and the owning point's Pareto verdict.
    pub fn to_csv(&self) -> String {
        let mut out = String::from(
            "Run, Point, PointLabel, Topology, ArrayRows, ArrayCols, Dataflow, \
             IfmapKB, FilterKB, OfmapKB, Bandwidth, Cores, Dram, Energy, Layout, \
             Layers, TotalCycles, ComputeCycles, StallCycles, Utilization, MACs, \
             EnergyMj, EdpCyclesMj, NocWords, Pareto\n",
        );
        for r in &self.records {
            let pareto = self
                .points
                .iter()
                .find(|p| p.point == r.point)
                .is_some_and(|p| p.pareto);
            out.push_str(&format!(
                "{}, {}, {}, {}, {}, {}, {}, {}, {}, {}, {:.3}, {}, {}, {}, {}, \
                 {}, {}, {}, {}, {:.4}, {}, {:.6}, {:.4}, {}, {}\n",
                r.run,
                r.point,
                r.point_label,
                r.topology,
                r.array_rows,
                r.array_cols,
                r.dataflow,
                r.sram_kb.0,
                r.sram_kb.1,
                r.sram_kb.2,
                r.bandwidth,
                r.cores,
                u8::from(r.dram_enabled),
                u8::from(r.energy_enabled),
                u8::from(r.layout_enabled),
                r.layers,
                r.total_cycles,
                r.compute_cycles,
                r.stall_cycles,
                r.utilization,
                r.macs,
                r.energy_mj,
                r.edp_cycles_mj,
                r.noc_words,
                u8::from(pareto),
            ));
        }
        out
    }

    /// The `SWEEP_REPORT.json` body: sweep metadata (including the
    /// generator version), every run, every point roll-up and the
    /// Pareto frontier labels.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        out.push_str(&format!("  \"sweep\": \"{}\",\n", escape(&self.name)));
        // Stamp the generating tool + workspace version so archived
        // reports are traceable; deliberately no git hash or timestamp —
        // report bytes must stay deterministic for a given build.
        out.push_str(&format!(
            "  \"generator\": \"scalesim {}\",\n",
            env!("CARGO_PKG_VERSION")
        ));
        out.push_str(&format!("  \"grid_points\": {},\n", self.points.len()));
        out.push_str(&format!("  \"runs\": {},\n", self.records.len()));
        out.push_str("  \"run_results\": [\n");
        for (i, r) in self.records.iter().enumerate() {
            let comma = if i + 1 < self.records.len() { "," } else { "" };
            out.push_str(&format!(
                "    {{\"run\": {}, \"point\": {}, \"label\": \"{}\", \"topology\": \"{}\", \
                 \"array\": \"{}x{}\", \"dataflow\": \"{}\", \"sram_kb\": [{}, {}, {}], \
                 \"bandwidth\": {:.3}, \"cores\": {}, \"dram\": {}, \"energy\": {}, \
                 \"layout\": {}, \"layers\": {}, \"total_cycles\": {}, \
                 \"compute_cycles\": {}, \"stall_cycles\": {}, \"utilization\": {:.4}, \
                 \"macs\": {}, \"energy_mj\": {:.6}, \"edp_cycles_mj\": {:.4}, \
                 \"noc_words\": {}}}{comma}\n",
                r.run,
                r.point,
                escape(&r.point_label),
                escape(&r.topology),
                r.array_rows,
                r.array_cols,
                r.dataflow,
                r.sram_kb.0,
                r.sram_kb.1,
                r.sram_kb.2,
                r.bandwidth,
                r.cores,
                r.dram_enabled,
                r.energy_enabled,
                r.layout_enabled,
                r.layers,
                r.total_cycles,
                r.compute_cycles,
                r.stall_cycles,
                r.utilization,
                r.macs,
                r.energy_mj,
                r.edp_cycles_mj,
                r.noc_words,
            ));
        }
        out.push_str("  ],\n  \"points\": [\n");
        for (i, p) in self.points.iter().enumerate() {
            let comma = if i + 1 < self.points.len() { "," } else { "" };
            out.push_str(&format!(
                "    {{\"point\": {}, \"label\": \"{}\", \"total_cycles\": {}, \
                 \"energy_mj\": {:.6}, \"edp_cycles_mj\": {:.4}, \"pareto\": {}}}{comma}\n",
                p.point,
                escape(&p.label),
                p.total_cycles,
                p.energy_mj,
                p.edp_cycles_mj,
                p.pareto,
            ));
        }
        out.push_str("  ],\n");
        let front: Vec<String> = self
            .pareto_labels()
            .iter()
            .map(|l| format!("\"{}\"", escape(l)))
            .collect();
        out.push_str(&format!("  \"pareto_frontier\": [{}]\n", front.join(", ")));
        out.push_str("}\n");
        out
    }
}
