//! Sparse accelerator study (§IV): run ResNet-18 with layer-wise and
//! row-wise N:M sparsity, print the compute-cycle savings and the
//! SPARSE_REPORT storage breakdown (blocked-ELLPACK values + metadata).
//!
//! Run with: `cargo run --release --example sparse_accelerator`

use scale_sim::sparse::NmRatio;
use scale_sim::systolic::{ArrayShape, Dataflow, MemoryConfig};
use scale_sim::workloads::by_name;
use scale_sim::{ScaleSim, ScaleSimConfig, SparsityMode};

fn base_config() -> ScaleSimConfig {
    let mut config = ScaleSimConfig::default();
    config.core.array = ArrayShape::new(32, 32);
    config.core.dataflow = Dataflow::WeightStationary;
    config.core.memory = MemoryConfig::from_kilobytes(512, 512, 256, 2);
    config
}

fn main() {
    let net = by_name("resnet18").expect("a registry workload");
    let dense = ScaleSim::new(base_config()).run_topology(&net);
    println!("ResNet-18 on 32x32 WS array");
    println!("  dense total cycles  : {}", dense.total_cycles());

    println!("\n-- layer-wise N:M sparsity ----------------------------------");
    println!(
        "{:>8} {:>14} {:>9} {:>14} {:>14}",
        "ratio", "cycles", "speedup", "filter(dense)", "filter(sparse)"
    );
    for (n, m) in [(1usize, 4usize), (2, 4), (4, 4)] {
        let mut cfg = base_config();
        cfg.sparsity = Some(SparsityMode::LayerWise(NmRatio::new(n, m).unwrap()));
        let run = ScaleSim::new(cfg).run_topology(&net);
        let orig: u64 = run
            .layers
            .iter()
            .filter_map(|l| l.sparse.as_ref())
            .map(|s| s.original_bytes)
            .sum();
        let new: u64 = run
            .layers
            .iter()
            .filter_map(|l| l.sparse.as_ref())
            .map(|s| s.new_filter_bytes())
            .sum();
        println!(
            "{:>8} {:>14} {:>8.2}x {:>13}kB {:>13}kB",
            format!("{n}:{m}"),
            run.total_cycles(),
            dense.total_cycles() as f64 / run.total_cycles() as f64,
            orig / 1024,
            new / 1024
        );
    }

    println!("\n-- row-wise sparsity (random N <= M/2 per block) ------------");
    println!("{:>8} {:>14} {:>9}", "block", "cycles", "speedup");
    for block in [4usize, 8, 16, 32] {
        let mut cfg = base_config();
        cfg.sparsity = Some(SparsityMode::RowWise { block, seed: 42 });
        let run = ScaleSim::new(cfg).run_topology(&net);
        println!(
            "{:>8} {:>14} {:>8.2}x",
            format!("M={block}"),
            run.total_cycles(),
            dense.total_cycles() as f64 / run.total_cycles() as f64
        );
    }

    println!("\nSPARSE_REPORT.csv (first layers, 2:4):");
    let mut cfg = base_config();
    cfg.sparsity = Some(SparsityMode::LayerWise(NmRatio::new(2, 4).unwrap()));
    let sim = ScaleSim::new(cfg);
    let reports = sim.run_topology(&net).reports();
    let sparse = reports
        .iter()
        .find(|(name, _)| *name == "SPARSE_REPORT.csv");
    for line in sparse.map_or("", |(_, csv)| csv).lines().take(6) {
        println!("  {line}");
    }
}
