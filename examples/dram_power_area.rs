//! DRAM technology and channel-count trade study: latency, power, area.
//!
//! The paper's Fig. 9 shows throughput scaling with channels and notes the
//! silicon costs. With the IDD power model (scalesim-mem) and the area
//! reference table (`scalesim::energy`), the full trade-off is visible: this
//! example streams the same workload through every DRAM technology preset
//! and then sweeps DDR4 channel counts.
//!
//! Run with: `cargo run --release --example dram_power_area`

use scale_sim::energy::{ArchSpec, AreaConfig, AreaTable};
use scale_sim::mem::power::DramEnergyBreakdown;
use scale_sim::mem::{AccessKind, DramConfig, DramSpec, DramSystem};

/// Streams `n` sequential reads and returns `(cycles, energy)`.
fn stream_reads(spec: DramSpec, channels: usize, n: u64) -> (u64, DramEnergyBreakdown) {
    let mut sys = DramSystem::new(DramConfig {
        spec,
        channels,
        read_queue: 128,
        write_queue: 128,
        ..Default::default()
    });
    let line = spec.org.burst_bytes() as u64;
    for i in 0..n {
        sys.enqueue(AccessKind::Read, i * line, 0, &mut |_| ());
    }
    sys.drain(&mut |_| ());
    let stats = sys.stats();
    let energy = DramEnergyBreakdown::from_stats(&spec, &stats, channels);
    (stats.end_cycle, energy)
}

fn main() {
    let n = 16_384u64;

    let models = DramSpec::preset_names();
    println!(
        "== 16k-burst read stream across the {} `[dram] model` presets ==",
        models.len()
    );
    println!(
        "{:<16} {:<12} {:>9} {:>10} {:>9} {:>10} {:>9}",
        "model", "device", "peak MB/s", "wall ns", "pJ/bit", "power mW", "GB/s/W"
    );
    for (model, spec) in models.into_iter().zip(DramSpec::presets()) {
        let (cycles, energy) = stream_reads(spec, 1, n);
        let wall_ns = cycles as f64 * spec.timing.tCK_ps as f64 * 1e-3;
        let mw = energy.avg_power_mw();
        let gbps = n as f64 * spec.org.burst_bytes() as f64 / wall_ns; // bytes/ns = GB/s
        println!(
            "{model:<16} {:<12} {:>9.0} {:>10.0} {:>9.2} {:>10.1} {:>9.1}",
            spec.name,
            spec.peak_mbps(),
            wall_ns,
            energy.pj_per_bit(),
            mw,
            gbps / (mw * 1e-3),
        );
    }

    println!("\n== DDR4-2400: channel-count sweep (same stream split across channels) ==");
    println!(
        "{:<9} {:>10} {:>9} {:>10} {:>11}",
        "channels", "wall ns", "pJ/bit", "power mW", "ctrl mm2"
    );
    let arch = ArchSpec::new(128, 128, 8192 << 10, 8192 << 10, 2048 << 10);
    let table = AreaTable::eyeriss_65nm();
    for channels in [1usize, 2, 4, 8] {
        let spec = DramSpec::DDR4_2400;
        let (cycles, energy) = stream_reads(spec, channels, n);
        let wall_ns = cycles as f64 * spec.timing.tCK_ps as f64 * 1e-3;
        let area = AreaConfig::new(arch)
            .with_dram_channels(channels)
            .estimate(&table);
        println!(
            "{:<9} {:>10.0} {:>9.2} {:>10.1} {:>11.1}",
            channels,
            wall_ns,
            energy.pj_per_bit(),
            energy.avg_power_mw(),
            area.dram_ctrl_mm2,
        );
    }
    let tpu_core = AreaConfig::new(arch).estimate(&table).core_mm2();
    let edge_arch = ArchSpec::new(32, 32, 256 << 10, 256 << 10, 128 << 10);
    let edge_core = AreaConfig::new(edge_arch).estimate(&table).core_mm2();
    println!(
        "\n(for scale: the 128x128 TPU-class core is {tpu_core:.0} mm2, a 32x32 \
         edge-class core {edge_core:.0} mm2 — at 8 channels the controllers \
         already exceed the entire edge core)"
    );
}
