//! Cross-crate integration tests: full pipelines through the public API.

use scale_sim::systolic::{ArrayShape, Dataflow, GemmShape, Layer, MemoryConfig};
use scale_sim::workloads;
use scale_sim::{DramIntegration, ScaleSim, ScaleSimConfig};

fn small_config() -> ScaleSimConfig {
    let mut config = ScaleSimConfig::default();
    config.core.array = ArrayShape::new(16, 16);
    config.core.dataflow = Dataflow::WeightStationary;
    config.core.memory = MemoryConfig::from_kilobytes(64, 64, 32, 2);
    config
}

/// Runs `layers` through the full pipeline (DRAM + energy + layout
/// enabled) and asserts every optional stage reported consistently.
fn assert_full_pipeline<'a>(layers: impl Iterator<Item = &'a Layer>) {
    let mut config = small_config();
    config.enable_dram = true;
    config.enable_energy = true;
    config.enable_layout = true;
    let sim = ScaleSim::new(config);
    let mut ran = 0;
    for layer in layers {
        let r = sim.run_gemm(layer.name(), layer.gemm());
        assert!(r.total_cycles() > 0, "{}", layer.name());
        let dram = r.dram.as_ref().unwrap();
        assert!(dram.stats.reads > 0);
        assert!(dram.stats.row_hit_rate() > 0.3, "streaming should hit rows");
        assert!(r.energy.as_ref().unwrap().total_mj() > 0.0);
        assert!(r.layout.as_ref().unwrap().compute_cycles > 0);
        // The DRAM-aware total can never beat the stall-free compute.
        assert!(r.total_cycles() >= r.report.compute.total_compute_cycles);
        ran += 1;
    }
    assert!(ran > 0, "workload slice must not be empty");
}

#[test]
fn cifar_cnn_layers_full_pipeline() {
    // ~10M-MAC conv layers exercise the same DRAM/energy/layout
    // integration as ResNet-18's 100M-MAC layers at a fraction of the
    // cost; the heavy ResNet-18 variant below covers those in CI.
    let net = workloads::cifar_cnn();
    assert_full_pipeline(net.iter().skip(3).take(3));
}

#[test]
#[ignore = "minutes-long in debug; CI runs it via `cargo test --release -- --ignored`"]
fn resnet18_first_layers_full_pipeline() {
    let net = workloads::resnet18();
    assert_full_pipeline(net.iter().take(3));
}

#[test]
fn dataflow_choice_changes_results_consistently() {
    // All three dataflows must process identical MACs and produce
    // comparable (same order of magnitude) runtimes on a square GEMM.
    let gemm = GemmShape::new(96, 96, 96);
    let mut cycles = Vec::new();
    for df in Dataflow::ALL {
        let mut config = small_config();
        config.core.dataflow = df;
        let r = ScaleSim::new(config).run_gemm("g", gemm);
        assert_eq!(r.report.compute.macs, gemm.macs());
        cycles.push(r.report.compute.total_compute_cycles);
    }
    let max = *cycles.iter().max().unwrap();
    let min = *cycles.iter().min().unwrap();
    assert!(max < min * 3, "dataflows diverge too much: {cycles:?}");
}

#[test]
fn conv_lowering_matches_direct_gemm() {
    // A conv layer and its explicit im2col GEMM must simulate identically.
    let net = workloads::alexnet();
    let conv = &net.layers()[1];
    let gemm = conv.gemm();
    let sim = ScaleSim::new(small_config());
    let via_conv = sim.run_gemm("conv", gemm);
    let via_gemm = sim.run_gemm("gemm", gemm);
    assert_eq!(
        via_conv.report.compute.total_compute_cycles,
        via_gemm.report.compute.total_compute_cycles
    );
    assert_eq!(via_conv.total_cycles(), via_gemm.total_cycles());
}

#[test]
fn analytical_vs_cycle_accurate_agreement() {
    use scale_sim::systolic::AnalyticalModel;
    // For evenly-dividing shapes the closed form equals the simulator.
    let gemm = GemmShape::new(64, 64, 64);
    for df in Dataflow::ALL {
        let model = AnalyticalModel::new(ArrayShape::new(16, 16), df, gemm);
        let mut config = small_config();
        config.core.dataflow = df;
        let r = ScaleSim::new(config).run_gemm("g", gemm);
        assert_eq!(
            model.exact_runtime_cycles(),
            r.report.compute.total_compute_cycles,
            "{df}"
        );
    }
}

#[test]
fn llm_decode_goldens_hold_the_closed_form_compute_cycles() {
    use scale_sim::systolic::AnalyticalModel;
    // The decode goldens are far too long to re-simulate in a debug test
    // (CI's llm-smoke job diffs the real runs); their compute columns,
    // though, must equal the closed form layer by layer.
    let core = ScaleSimConfig::default().core;
    for (workload, golden) in [
        (
            "llama-7b:decode",
            include_str!("golden/llm_llama7b_decode.COMPUTE_REPORT.csv"),
        ),
        (
            "llama-70b:decode",
            include_str!("golden/llm_llama70b_decode.COMPUTE_REPORT.csv"),
        ),
    ] {
        let topology = workloads::by_name(workload).unwrap();
        let rows: Vec<&str> = golden.lines().skip(1).collect();
        assert_eq!(rows.len(), topology.layers().len(), "{workload}: rows");
        for (row, layer) in rows.iter().zip(topology.layers()) {
            let mut cells = row.split(", ");
            assert_eq!(cells.next(), Some(layer.name()), "{workload}");
            let model = AnalyticalModel::new(core.array, core.dataflow, layer.gemm());
            assert_eq!(
                cells.next().unwrap().parse(),
                Ok(model.exact_runtime_cycles()),
                "{workload} {}: ComputeCycles",
                layer.name()
            );
        }
    }
}

#[test]
fn multicore_speedup_and_work_conservation() {
    use scale_sim::multicore::{L2Config, PartitionGrid, PartitionScheme};
    let gemm = GemmShape::new(256, 256, 128);
    let single = ScaleSim::new(small_config()).run_gemm("g", gemm);
    let mut config = small_config();
    config.multicore = Some(scalesim::config::MultiCoreIntegration {
        grid: PartitionGrid::new(2, 2),
        scheme: PartitionScheme::Spatial,
        l2: Some(L2Config::default()),
    });
    let multi = ScaleSim::new(config).run_gemm("g", gemm);
    assert!(multi.report.compute.total_compute_cycles < single.report.compute.total_compute_cycles);
    assert!(multi.report.compute.macs * 4 >= gemm.macs());
}

#[test]
fn sparsity_storage_and_cycles_consistent() {
    use scale_sim::sparse::NmRatio;
    use scale_sim::SparsityMode;
    let gemm = GemmShape::new(64, 128, 256);
    let mut config = small_config();
    config.sparsity = Some(SparsityMode::LayerWise(NmRatio::new(1, 4).unwrap()));
    let r = ScaleSim::new(config).run_gemm("g", gemm);
    assert_eq!(r.gemm.k, 64, "1:4 → K/4");
    assert_eq!(r.dense_gemm.k, 256);
    let row = r.sparse.as_ref().unwrap();
    // Blocked ELLPACK at 1:4 with 16-bit values: values are 1/4 of dense,
    // metadata adds 2 bits per value → ratio = 4 / (1 + 2/16) = 3.56.
    let ratio = row.original_bytes as f64 / row.new_filter_bytes() as f64;
    assert!((3.4..=3.7).contains(&ratio), "compression ratio {ratio}");
}

#[test]
fn dram_technology_ordering_hbm_beats_ddr3() {
    use scale_sim::mem::DramSpec;
    let gemm = GemmShape::new(128, 64, 256);
    let run = |spec| {
        let mut config = small_config();
        config.enable_dram = true;
        config.dram = DramIntegration::for_spec(spec, 1, 1.0e9);
        ScaleSim::new(config).run_gemm("g", gemm).total_cycles()
    };
    let hbm = run(DramSpec::hbm2());
    let ddr3 = run(DramSpec::ddr3_1600());
    assert!(
        hbm <= ddr3,
        "HBM2 ({hbm}) must not lose to DDR3-1600 ({ddr3})"
    );
}

#[test]
fn cfg_file_drives_the_engine() {
    let cfg_text = "\
[architecture_presets]
ArrayHeight : 16
ArrayWidth : 16
IfmapSramSzkB : 64
FilterSramSzkB : 64
OfmapSramSzkB : 32
Dataflow : os
Bandwidth : 16
";
    let config = scale_sim::scalesim::parse_cfg(cfg_text).unwrap();
    let r = ScaleSim::new(config).run_gemm("g", GemmShape::new(32, 32, 32));
    assert_eq!(r.report.compute.macs, 32 * 32 * 32);
}

#[test]
fn run_reports_are_well_formed_csv() {
    let sim = ScaleSim::new(small_config());
    let net = workloads::alexnet();
    let topo = scale_sim::systolic::Topology::from_layers("head", net.layers()[..2].to_vec());
    let reports = sim.run_topology(&topo).reports();
    let (name, csv) = &reports[0];
    assert_eq!(*name, "COMPUTE_REPORT.csv");
    let lines: Vec<&str> = csv.lines().collect();
    assert_eq!(lines.len(), 3);
    let header_cols = lines[0].split(',').count();
    for l in &lines[1..] {
        assert_eq!(l.split(',').count(), header_cols);
    }
}

#[test]
fn dram_power_flows_through_the_engine() {
    // The §V three-step flow now carries the IDD power model: every layer
    // simulated with DRAM enabled reports a consistent energy breakdown,
    // and the DRAM report CSV exposes it.
    let mut config = small_config();
    config.enable_dram = true;
    let sim = ScaleSim::new(config);
    let mut run = scale_sim::RunResult::default();
    for (name, gemm) in [
        ("square", GemmShape::new(128, 128, 128)),
        ("skinny", GemmShape::new(256, 64, 96)),
    ] {
        let r = sim.run_gemm(name, gemm);
        let d = r.dram.as_ref().unwrap();
        assert!(d.energy.read_pj > 0.0, "{name}");
        assert!(d.energy.total_pj() >= d.energy.dynamic_pj());
        assert!(d.energy.pj_per_bit() > 0.5 && d.energy.pj_per_bit() < 100.0);
        run.layers.push(r);
    }
    assert!(run.total_dram_energy_mj() > 0.0);
    let reports = run.reports();
    let (_, csv) = reports
        .iter()
        .find(|(name, _)| *name == "DRAM_REPORT.csv")
        .expect("the DRAM flow emits its report");
    let lines: Vec<&str> = csv.lines().collect();
    assert_eq!(lines.len(), 3, "header + one row per layer");
    let cols = lines[0].split(',').count();
    for l in &lines[1..] {
        assert_eq!(l.split(',').count(), cols);
    }
}

#[test]
fn mesh_partition_pipeline_composes_with_tensor_cores() {
    // §III end to end: a NoP mesh derives the latency profile, the
    // non-uniform split distributes a ViT feed-forward GEMM, each chiplet
    // is a TensorCore whose cycles come from the analytical model, and the
    // final makespan improves on the uniform split.
    use scale_sim::multicore::{
        non_uniform_split, uniform_split_makespan, MemoryPortPlacement, NopMesh, SimdUnit,
        TensorCore,
    };
    let core = TensorCore::new(ArrayShape::new(32, 32), SimdUnit::new(128));
    let gemm = GemmShape::new(197, 3072, 768); // ViT-Base FF1
    let probe = core.cycles_per_mac(Dataflow::WeightStationary, gemm);
    let mesh = NopMesh::new(4, 4, 2000, MemoryPortPlacement::WestEdge);
    let work = gemm.macs();
    let profile = mesh.profile(probe, (gemm.m * gemm.k * 2) as u64 / 16);
    let (shares, nonuniform) = non_uniform_split(&profile, work);
    assert_eq!(shares.iter().sum::<u64>(), work);
    let uniform = uniform_split_makespan(&profile, work);
    assert!(nonuniform <= uniform);
    // Column-0 chiplets sit closest to the west-edge ports.
    assert!(shares[0] >= shares[3], "{shares:?}");
}

#[test]
fn area_and_energy_share_one_arch_spec() {
    // The Accelergy-style ERT and ART consume the same architecture
    // description; bigger arrays must cost both more energy per cycle of
    // leakage and more silicon.
    use scale_sim::energy::{ArchSpec, AreaConfig, AreaTable, EnergyModel};
    let small = ArchSpec::new(16, 16, 64 << 10, 64 << 10, 32 << 10);
    let big = ArchSpec::new(64, 64, 64 << 10, 64 << 10, 32 << 10);
    let table = AreaTable::eyeriss_65nm();
    let a_small = AreaConfig::new(small).estimate(&table);
    let a_big = AreaConfig::new(big).estimate(&table);
    assert!(a_big.pe_array_mm2 > a_small.pe_array_mm2 * 10.0);
    let m_small = EnergyModel::eyeriss_65nm(small);
    let m_big = EnergyModel::eyeriss_65nm(big);
    let mut counts = scale_sim::energy::ActionCounts::default();
    counts.mac_gated = 1_000_000;
    let e_small = m_small.evaluate(&counts, 10_000).total_pj();
    let e_big = m_big.evaluate(&counts, 10_000).total_pj();
    assert!(e_big >= e_small, "bigger array cannot leak less");
}

#[test]
fn shipped_configs_and_topologies_are_usable() {
    // The repo ships ready-to-run .cfg presets and topology CSVs (like the
    // Python distribution); every combination must parse, and a small
    // layer must simulate under each preset.
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut configs = 0;
    let mut sweep_specs = 0;
    for entry in std::fs::read_dir(root.join("configs")).unwrap() {
        let path = entry.unwrap().path();
        let text = std::fs::read_to_string(&path).unwrap();
        if path.extension().is_some_and(|e| e == "toml") {
            // Sweep specs (`scalesim sweep -s`) ship alongside the .cfg
            // presets; the example must expand to a real grid over at
            // least two workloads.
            let spec = scale_sim::scalesim::sweep::SweepSpec::parse(&text)
                .unwrap_or_else(|e| panic!("{}: {e}", path.display()));
            assert!(
                spec.grid_size() >= 24,
                "{}: example sweep must cover >= 24 grid points",
                path.display()
            );
            assert!(
                spec.topologies.len() >= 2,
                "{}: example sweep must cover >= 2 topologies",
                path.display()
            );
            for topo in &spec.topologies {
                assert!(root.join(topo).exists(), "{topo} missing");
            }
            sweep_specs += 1;
            continue;
        }
        let config = scale_sim::scalesim::parse_cfg(&text)
            .unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        let r = ScaleSim::new(config).run_gemm("probe", GemmShape::new(64, 64, 64));
        assert!(r.total_cycles() > 0, "{}", path.display());
        configs += 1;
    }
    assert!(configs >= 3, "expected at least three shipped configs");
    assert!(sweep_specs >= 1, "expected the example sweep spec");

    let mut topologies = 0;
    for entry in std::fs::read_dir(root.join("topologies")).unwrap() {
        let path = entry.unwrap().path();
        let csv = std::fs::read_to_string(&path).unwrap();
        let stem = path.file_stem().unwrap().to_string_lossy().to_string();
        let topo = if stem.ends_with("_gemm") {
            scale_sim::systolic::Topology::parse_gemm_csv(&stem, &csv)
        } else {
            scale_sim::systolic::Topology::parse_conv_csv(&stem, &csv)
        }
        .unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        assert!(!topo.is_empty(), "{}", path.display());
        // Round-trip: re-emitting and re-parsing reproduces the layers.
        let reparsed = if stem.ends_with("_gemm") {
            scale_sim::systolic::Topology::parse_gemm_csv(&stem, &topo.to_csv())
        } else {
            scale_sim::systolic::Topology::parse_conv_csv(&stem, &topo.to_csv())
        }
        .unwrap();
        assert_eq!(topo, reparsed, "{} round-trip", path.display());
        topologies += 1;
    }
    assert!(topologies >= 7, "expected the seven shipped workloads");
}
