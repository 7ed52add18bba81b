//! Behavioral coverage for the [`ResultSink`] implementations beyond
//! the unit tests in `src/sink.rs`:
//!
//! * `MemoryReportSink` writes each section header exactly once, in
//!   emission order, and creates feature-gated sections lazily on their
//!   first row (zero-layer header-only compute/bandwidth is pinned in
//!   the unit tests).
//! * `Vec<LayerResult>`, `RunSummary` and closure sinks keep their
//!   O(1)/ordering invariants when teed together.

use scalesim::{
    LayerResult, MemoryReportSink, ResultSink, RunResult, RunSummary, ScaleSim, ScaleSimConfig,
};
use scalesim_systolic::{ArrayShape, Layer, MemoryConfig, Topology};

fn config() -> ScaleSimConfig {
    let mut config = ScaleSimConfig::default();
    config.core.array = ArrayShape::new(8, 8);
    config.core.memory = MemoryConfig::from_kilobytes(16, 16, 8, 2);
    config.enable_energy = true;
    config
}

fn layers(n: usize) -> Vec<LayerResult> {
    let sim = ScaleSim::new(config());
    let topo = Topology::from_layers(
        "t",
        (0..n)
            .map(|i| Layer::gemm_layer(format!("l{i}"), 16 + 8 * (i % 3), 16, 24))
            .collect(),
    );
    sim.run_topology(&topo).layers
}

fn report<'a>(reports: &'a [(&'static str, String)], name: &str) -> Option<&'a str> {
    reports
        .iter()
        .find(|(n, _)| *n == name)
        .map(|(_, content)| content.as_str())
}

#[test]
fn memory_sink_writes_each_header_exactly_once() {
    let mut sink = MemoryReportSink::new();
    for l in layers(7) {
        sink.layer(l);
    }
    let reports = sink.finish();
    let names: Vec<_> = reports.iter().map(|(name, _)| *name).collect();
    assert_eq!(
        names,
        [
            "COMPUTE_REPORT.csv",
            "BANDWIDTH_REPORT.csv",
            "ENERGY_REPORT.csv"
        ],
        "emission order"
    );
    for (file, text) in &reports {
        let header = text.lines().next().unwrap();
        assert_eq!(
            text.lines().filter(|l| *l == header).count(),
            1,
            "{file}: header must appear exactly once"
        );
        assert_eq!(text.lines().count(), 8, "{file}: 1 header + 7 rows");
    }
}

/// Feature-gated sections appear on their first row, not up front: a
/// section whose feature was off for every layer contributes no report
/// (what a row formatter returning `None` says).
#[test]
fn optional_sections_are_created_lazily() {
    // These layers ran with energy on and without the DRAM flow, the
    // layout analysis or sparsity: no row of those ever arrives.
    let mut sink = MemoryReportSink::new();
    for l in layers(2) {
        sink.layer(l);
    }
    let reports = sink.finish();
    assert!(report(&reports, "ENERGY_REPORT.csv").is_some());
    for off in ["DRAM_REPORT.csv", "LAYOUT_REPORT.csv", "SPARSE_REPORT.csv"] {
        assert_eq!(report(&reports, off), None, "{off}: no rows, no report");
    }
}

/// Sinks compose by forwarding from a closure sink: the collector sees
/// every layer in order and the O(1) summary matches the collected
/// reductions exactly, whatever else the tee feeds.
#[test]
fn teed_collect_and_summary_agree() {
    let mut csv = MemoryReportSink::new();
    let mut collect: Vec<LayerResult> = Vec::new();
    let mut summary = RunSummary::new();
    {
        let mut tee = |l: LayerResult| {
            summary.add(&l);
            collect.layer(l.clone());
            csv.layer(l);
        };
        let tee: &mut dyn ResultSink = &mut tee;
        for l in layers(6) {
            tee.layer(l);
        }
    }
    let run = RunResult { layers: collect };
    assert_eq!(run.layers.len(), 6, "collector kept every layer");
    let names: Vec<_> = run.layers.iter().map(|l| l.name.as_str()).collect();
    assert_eq!(names, ["l0", "l1", "l2", "l3", "l4", "l5"], "in order");
    assert_eq!(summary.layers, 6);
    assert_eq!(summary, run.summary());
    assert_eq!(summary.total_cycles, run.total_cycles());
    assert!((summary.energy_mj() - run.total_energy_mj()).abs() < 1e-12);
    // The teed report writer saw the same layers the collector kept.
    assert_eq!(csv.finish(), run.reports());
}
