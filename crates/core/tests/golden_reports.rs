//! Golden-file equivalence suite for every report the engine emits.
//!
//! Each test runs a small, fixed configuration (dense, sparse, layout,
//! DRAM, multi-core, energy, and a sweep grid) and compares the emitted
//! report **bytes** against a checked-in golden copy under
//! `tests/golden/`. The suite serves two purposes:
//!
//! * **Refactor equivalence** — the staged layer pipeline must reproduce
//!   the monolithic engine's output exactly; any drift fails here first.
//! * **Schema stability** — report columns are part of the public
//!   interface (downstream scripts parse them); a column can't be
//!   renamed, re-ordered or re-formatted silently.
//!
//! To regenerate after an *intentional* change:
//!
//! ```text
//! SCALESIM_BLESS=1 cargo test -p scalesim --test golden_reports
//! ```

use scalesim::config::MultiCoreIntegration;
use scalesim::multicore::{L2Config, PartitionGrid, PartitionScheme};
use scalesim::sparse::NmRatio;
use scalesim::sweep::SweepSpec;
use scalesim::systolic::{ArrayShape, Dataflow, Layer, MemoryConfig, PlanCache, Topology};
use scalesim::{run_sweep, RunResult, ScaleSim, ScaleSimConfig, SparsityMode};
use std::path::PathBuf;

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden")
}

/// Compares `content` against the golden file `name`, or rewrites the
/// golden when `SCALESIM_BLESS` is set.
fn check(name: &str, content: &str) {
    let path = golden_dir().join(name);
    if std::env::var_os("SCALESIM_BLESS").is_some() {
        std::fs::create_dir_all(golden_dir()).expect("create golden dir");
        std::fs::write(&path, content).unwrap_or_else(|e| panic!("bless {name}: {e}"));
        return;
    }
    let want = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!("missing golden {name} ({e}); regenerate with SCALESIM_BLESS=1")
    });
    assert!(
        content == want,
        "{name} drifted from the golden copy.\n\
         If the change is intentional, regenerate with SCALESIM_BLESS=1.\n\
         --- golden ---\n{want}\n--- got ---\n{content}"
    );
}

/// Runs the golden topology on `config` and compares the named reports
/// — as [`RunResult::reports`] emits them, i.e. through the report sink
/// the CLI and serve use — against the `<scenario>.<file>` goldens.
fn check_reports(scenario: &str, config: ScaleSimConfig, files: &[&str]) -> RunResult {
    let sim = ScaleSim::new(config);
    let run = sim.run_topology(&topology());
    let reports = run.reports();
    for file in files {
        let report = reports.iter().find(|(name, _)| name == file);
        let (_, content) = report.unwrap_or_else(|| panic!("{scenario}: no {file} emitted"));
        check(&format!("{scenario}.{file}"), content);
    }
    run
}

/// The fixed core every scenario runs on: 16x16 WS, 64/64/32 kB SRAM.
fn base_config() -> ScaleSimConfig {
    let mut config = ScaleSimConfig::default();
    config.core.array = ArrayShape::new(16, 16);
    config.core.dataflow = Dataflow::WeightStationary;
    config.core.memory = MemoryConfig::from_kilobytes(64, 64, 32, 2);
    config
}

/// The fixed workload: three GEMM layers of varied aspect ratio.
fn topology() -> Topology {
    Topology::from_layers(
        "golden",
        vec![
            Layer::gemm_layer("square", 32, 32, 32),
            Layer::gemm_layer("wide", 48, 64, 32),
            Layer::gemm_layer("deep", 40, 24, 96),
        ],
    )
}

#[test]
fn dense_reports_match_golden() {
    let files = ["COMPUTE_REPORT.csv", "BANDWIDTH_REPORT.csv"];
    check_reports("dense", base_config(), &files);
}

#[test]
fn sparse_reports_match_golden() {
    let mut config = base_config();
    config.sparsity = Some(SparsityMode::LayerWise(NmRatio::new(1, 4).unwrap()));
    let files = ["COMPUTE_REPORT.csv", "SPARSE_REPORT.csv"];
    check_reports("sparse", config, &files);
}

#[test]
fn dram_reports_match_golden() {
    let mut config = base_config();
    config.enable_dram = true;
    let files = [
        "COMPUTE_REPORT.csv",
        "BANDWIDTH_REPORT.csv",
        "DRAM_REPORT.csv",
    ];
    check_reports("dram", config, &files);
}

#[test]
fn layout_analysis_matches_golden() {
    let mut config = base_config();
    config.enable_layout = true;
    // The product's LAYOUT_REPORT.csv, held to the table this test pinned
    // by hand before the report had an emitter.
    let reports = ScaleSim::new(config).run_topology(&topology()).reports();
    let (_, layout) = reports
        .iter()
        .find(|(name, _)| *name == "LAYOUT_REPORT.csv")
        .expect("a layout run emits LAYOUT_REPORT.csv");
    check("layout.LAYOUT_ANALYSIS.csv", layout);
}

#[test]
fn multicore_reports_match_golden() {
    let mut config = base_config();
    config.multicore = Some(MultiCoreIntegration {
        grid: PartitionGrid::new(2, 2),
        scheme: PartitionScheme::Spatial,
        l2: Some(L2Config::default()),
    });
    config.enable_energy = true;
    let files = ["COMPUTE_REPORT.csv", "ENERGY_REPORT.csv"];
    let run = check_reports("multicore", config, &files);
    // Cores and NoC words aren't in the stock CSVs; pin them too.
    let mut out = String::from("LayerName, Cores, NocWords\n");
    for l in &run.layers {
        out.push_str(&format!("{}, {}, {}\n", l.name, l.cores, l.noc_words));
    }
    check("multicore.GRID.csv", &out);
}

#[test]
fn energy_reports_match_golden() {
    let mut config = base_config();
    config.enable_energy = true;
    check_reports("energy", config, &["ENERGY_REPORT.csv"]);
}

#[test]
fn full_pipeline_reports_match_golden() {
    // All features at once: sparsity + DRAM + layout + energy.
    let mut config = base_config();
    config.sparsity = Some(SparsityMode::LayerWise(NmRatio::new(2, 4).unwrap()));
    config.enable_dram = true;
    config.enable_layout = true;
    config.enable_energy = true;
    let files = [
        "COMPUTE_REPORT.csv",
        "BANDWIDTH_REPORT.csv",
        "SPARSE_REPORT.csv",
        "DRAM_REPORT.csv",
        "ENERGY_REPORT.csv",
    ];
    check_reports("full", config, &files);
}

/// Satellite: schema stability. Every report's column set is pinned by
/// name here (independently of the golden bytes), and every golden file
/// round-trips as well-formed CSV — a renamed, re-ordered or dropped
/// column fails even if someone blesses new golden bytes without
/// reading them.
#[test]
fn report_schemas_are_stable() {
    let expected: &[(&str, &str)] = &[
        (
            "dense.COMPUTE_REPORT.csv",
            "LayerName|ComputeCycles|StallCycles|TotalCycles|Utilization|MappingEfficiency",
        ),
        (
            "dense.BANDWIDTH_REPORT.csv",
            "LayerName|IfmapReadBW|FilterReadBW|OfmapWriteBW|DramThroughputMBps",
        ),
        (
            "sparse.SPARSE_REPORT.csv",
            "Layer|Sparsity|Representation|OriginalFilterBytes|NewFilterBytes",
        ),
        (
            "dram.DRAM_REPORT.csv",
            "LayerName|LineRequests|AvgLatency|ThroughputMBps|RowHitRate|DramEnergyPj|DramPjPerBit|DramAvgPowerMw",
        ),
        (
            "energy.ENERGY_REPORT.csv",
            "LayerName|EnergyMj|AvgPowerW|EdpCyclesMj",
        ),
        (
            "sweep.SWEEP_REPORT.csv",
            "Run|Point|PointLabel|Topology|ArrayRows|ArrayCols|Dataflow|IfmapKB|FilterKB|OfmapKB|Bandwidth|Cores|Dram|Energy|Layout|Layers|TotalCycles|ComputeCycles|StallCycles|Utilization|MACs|EnergyMj|EdpCyclesMj|NocWords|Pareto",
        ),
    ];
    for (file, columns) in expected {
        let text = std::fs::read_to_string(golden_dir().join(file))
            .unwrap_or_else(|e| panic!("missing golden {file} ({e})"));
        let mut lines = text.lines();
        let header: Vec<&str> = lines
            .next()
            .unwrap_or_else(|| panic!("{file} is empty"))
            .split(',')
            .map(str::trim)
            .collect();
        assert_eq!(
            header,
            columns.split('|').collect::<Vec<_>>(),
            "{file}: column schema drifted"
        );
        for (i, row) in lines.enumerate() {
            assert_eq!(
                row.split(',').count(),
                header.len(),
                "{file} row {i} column count"
            );
        }
        assert!(text.lines().count() > 1, "{file} has no data rows");
    }

    // The JSON report must stay parseable in shape: balanced braces and
    // the stable top-level keys (including the generator stamp).
    let json = std::fs::read_to_string(golden_dir().join("sweep.SWEEP_REPORT.json")).unwrap();
    assert_eq!(json.matches('{').count(), json.matches('}').count());
    for key in [
        "\"sweep\"",
        "\"generator\"",
        "\"grid_points\"",
        "\"runs\"",
        "\"run_results\"",
        "\"points\"",
        "\"pareto_frontier\"",
    ] {
        assert!(json.contains(key), "SWEEP_REPORT.json lost {key}");
    }
}

#[test]
fn sweep_reports_match_golden() {
    let spec = SweepSpec::parse(
        "[sweep]\nname = golden\n[grid]\n\
         array = 8x8, 16x16\nbandwidth = 4, 10\nenergy = true\n",
    )
    .unwrap();
    let topos = vec![
        topology(),
        Topology::from_layers("tiny", vec![Layer::gemm_layer("only", 16, 16, 16)]),
    ];
    let cache = std::sync::Arc::new(PlanCache::new());
    let (report, _) = run_sweep(&spec, &base_config(), &topos, 1, &cache, |_| {}).unwrap();
    check("sweep.SWEEP_REPORT.csv", &report.to_csv());
    check("sweep.SWEEP_REPORT.json", &report.to_json());
}
