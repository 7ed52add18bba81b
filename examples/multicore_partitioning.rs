//! Multi tensor-core exploration (§III): spatial vs spatio-temporal
//! partitioning, the shared-L2 deduplication win, and non-uniform
//! NoP-aware workload splits for chiplet grids.
//!
//! Run with: `cargo run --release --example multicore_partitioning`

use scale_sim::multicore::{L2Config, L2Report, MappingDims, PartitionGrid, PartitionScheme};
use scale_sim::systolic::{ArrayShape, Dataflow, GemmShape};
use scalesim_repro::nonuniform::{non_uniform_split, uniform_split_makespan, NopProfile};
use scalesim_repro::partition::{best_partition, memory_footprint_words, PartitionObjective};

fn main() {
    let gemm = GemmShape::new(5000, 1000, 10000);
    let dims = MappingDims::new(Dataflow::OutputStationary, gemm);
    let array = ArrayShape::new(16, 16);
    let cores = 64;

    println!("GEMM {gemm} on {cores} cores of {array} PEs\n");
    println!("-- partition search (compute-optimized) ---------------------");
    println!(
        "{:>17} {:>8} {:>14} {:>18}",
        "scheme", "grid", "cycles", "footprint(words)"
    );
    for scheme in PartitionScheme::ALL {
        let best = best_partition(
            array,
            scheme,
            dims,
            cores,
            PartitionObjective::ComputeCycles,
            None,
        );
        println!(
            "{:>17} {:>8} {:>14} {:>18}",
            scheme.label(),
            format!("{}x{}", best.grid.pr, best.grid.pc),
            best.cycles,
            best.footprint_words
        );
    }

    println!("\n-- shared L2 deduplication (Fig. 4) --------------------------");
    let grid = PartitionGrid::new(8, 8);
    let l2 = L2Config::default();
    let with = memory_footprint_words(PartitionScheme::Spatial, dims, grid, Some(&l2));
    let without = memory_footprint_words(PartitionScheme::Spatial, dims, grid, None);
    let report = L2Report::evaluate(PartitionScheme::Spatial, dims, grid);
    println!("  L1-only footprint   : {without} words");
    println!(
        "  with shared L2      : {with} words  ({:.1}x smaller)",
        without as f64 / with as f64
    );
    println!("  required L2 (2x buf): {} words", report.required_words);
    println!("  L2->L1 NoC traffic  : {} words", report.l1_fill_words);

    println!("\n-- non-uniform NoP partitioning (Simba-style, §III-D) --------");
    let profile = NopProfile::grid_west_edge(4, 4, 2000, 1.0);
    let work = 1_000_000u64;
    let (shares, makespan) = non_uniform_split(&profile, work);
    let uniform = uniform_split_makespan(&profile, work);
    println!("  uniform split makespan     : {uniform} cycles");
    println!(
        "  non-uniform split makespan : {makespan} cycles ({:.1}% better)",
        (uniform - makespan) as f64 / uniform as f64 * 100.0
    );
    println!(
        "  per-column work shares     : {:?}",
        (0..4).map(|c| shares[c]).collect::<Vec<_>>()
    );
}
