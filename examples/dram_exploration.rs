//! Main-memory exploration (§V): run a memory-hungry layer against
//! different DRAM technologies, channel counts and request-queue sizes,
//! and show how much latency the v2 ideal-memory model hides.
//!
//! Run with: `cargo run --release --example dram_exploration`

use scale_sim::mem::DramSpec;
use scale_sim::systolic::{ArrayShape, Dataflow, GemmShape, MemoryConfig};
use scale_sim::{DramIntegration, ScaleSim, ScaleSimConfig};

fn config_with(dram: DramIntegration) -> ScaleSimConfig {
    let mut config = ScaleSimConfig::default();
    config.core.array = ArrayShape::new(32, 32);
    config.core.dataflow = Dataflow::OutputStationary;
    config.core.memory = MemoryConfig::from_kilobytes(64, 64, 32, 2);
    config.dram = dram;
    config.enable_dram = true;
    config
}

fn main() {
    // An early ResNet-18 conv: large ifmap, heavy streaming.
    let layer = GemmShape::new(56 * 56, 64, 64 * 9);

    println!("-- DRAM technology sweep (1 channel, queues 128) -------------");
    println!(
        "{:>14} {:>12} {:>12} {:>13} {:>11}",
        "device", "cycles", "stalls", "avg lat(mem)", "row hit %"
    );
    for spec in [
        DramSpec::DDR3_1600,
        DramSpec::DDR4_2400,
        DramSpec::LPDDR4_3200,
        DramSpec::GDDR5_6000,
        DramSpec::HBM2,
    ] {
        let cfg = config_with(DramIntegration::for_spec(spec, 1, 1.0e9));
        let r = ScaleSim::new(cfg).run_gemm("conv", layer);
        let d = r.dram.as_ref().unwrap();
        println!(
            "{:>14} {:>12} {:>12} {:>13.1} {:>11.1}",
            spec.name,
            r.total_cycles(),
            d.summary.stall_cycles,
            d.avg_latency,
            d.stats.row_hit_rate() * 100.0
        );
    }

    println!("\n-- channel scaling (DDR4-2400) -------------------------------");
    println!(
        "{:>9} {:>12} {:>12} {:>16}",
        "channels", "cycles", "stalls", "throughput MB/s"
    );
    for channels in [1usize, 2, 4, 8] {
        let cfg = config_with(DramIntegration {
            channels,
            ..Default::default()
        });
        let r = ScaleSim::new(cfg).run_gemm("conv", layer);
        let d = r.dram.as_ref().unwrap();
        println!(
            "{:>9} {:>12} {:>12} {:>16.0}",
            channels,
            r.total_cycles(),
            d.summary.stall_cycles,
            d.throughput_mbps
        );
    }

    println!("\n-- request queue sizing (Fig. 10's knob) ---------------------");
    println!(
        "{:>7} {:>12} {:>12} {:>9}",
        "queue", "cycles", "stalls", "stall %"
    );
    for q in [32usize, 128, 512] {
        let cfg = config_with(DramIntegration {
            read_queue: q,
            write_queue: q,
            ..Default::default()
        });
        let r = ScaleSim::new(cfg).run_gemm("conv", layer);
        let d = r.dram.as_ref().unwrap();
        println!(
            "{:>7} {:>12} {:>12} {:>8.1}%",
            q,
            r.total_cycles(),
            d.summary.stall_cycles,
            d.summary.stall_fraction() * 100.0
        );
    }

    println!("\nv2 would report only the ideal-memory latency; the rows above");
    println!("are what §V's integration adds to the picture.");
}
