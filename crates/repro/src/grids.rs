//! Experiments that are a configuration × workload grid over engine
//! results: each is a base [`ScaleSimConfig`], a sweep-spec grid string
//! and a topology list handed to [`Run::sweep`], whose `SWEEP_REPORT`
//! rows are the experiment's table. Knobs that are sweep axes are
//! spelled in the grid string; the two that are not (N:M sparsity, DRAM
//! queue depth) are set on the base.

use crate::{sweep_on, workload, Run};
use scalesim::sparse::NmRatio;
use scalesim::sweep::RunRecord;
use scalesim::systolic::{Layer, PlanCache, Topology};
use scalesim::{ScaleSimConfig, SparsityMode};
use std::ops::Range;
use std::sync::Arc;
use std::time::Instant;

/// The given layers of `t`, under its name.
fn part(t: Topology, layers: Range<usize>) -> Topology {
    Topology::from_layers(t.name(), t.layers()[layers].to_vec())
}

fn one_gemm(m: usize, n: usize, k: usize) -> [Topology; 1] {
    let name = format!("gemm-{m}x{n}x{k}");
    [Topology::from_layers(
        name,
        vec![Layer::gemm_layer("g", m, n, k)],
    )]
}

/// The default core at layer-wise `n:4` sparsity (dense at 4:4) with
/// `queue`-entry DRAM request queues (128 by default).
fn base(n: usize, queue: usize) -> ScaleSimConfig {
    let mut base = ScaleSimConfig::default();
    let ratio = NmRatio::new(n, 4).expect("0 < n <= 4");
    base.sparsity = (n < 4).then_some(SparsityMode::LayerWise(ratio));
    (base.dram.read_queue, base.dram.write_queue) = (queue, queue);
    base
}

fn ratio(a: u64, b: u64) -> f64 {
    a as f64 / b as f64
}

/// Table V reports stall-free compute cycles as latency, and their
/// product with energy as EdP.
fn edp(r: &RunRecord) -> f64 {
    r.compute_cycles as f64 * r.energy_mj
}

/// Tables V, VI and Fig. 15: 2 MB per scratchpad, energy model on.
const ENERGY_CORE: &str = "sram_kb = 2048/2048/2048\nenergy = true\n";

pub(crate) fn tab05_edp(run: &mut Run) {
    let workloads = [
        part(workload("resnet50"), 0..12),
        part(workload("rcnn"), 0..10),
        workload("vit-base"),
    ];
    let grid = format!("array = 32x32, 64x64, 128x128\ndataflow = ws\n{ENERGY_CORE}");
    let records = run.sweep(&base(4, 128), &grid, &workloads);
    // Per workload, its 32x32 / 64x64 / 128x128 records.
    let of = |w: usize| -> Vec<&RunRecord> { records.iter().skip(w).step_by(3).collect() };
    let cells = [of(0), of(1), of(2)];
    let tradeoff = cells.iter().all(|c| {
        let faster =
            c[2].compute_cycles < c[1].compute_cycles && c[1].compute_cycles < c[0].compute_cycles;
        faster && c[0].energy_mj < c[2].energy_mj
    });
    run.ordering("bigger_is_faster_smaller_is_frugal", tradeoff, "");
    let vit = &cells[2];
    let speedup = ratio(vit[0].compute_cycles, vit[2].compute_cycles);
    run.value("vit_speedup", speedup);
    run.value("vit_energy_ratio", vit[2].energy_mj / vit[0].energy_mj);
    let winners = cells.each_ref().map(|c| {
        let best = c.iter().min_by(|a, b| edp(a).total_cmp(&edp(b)));
        let best = best.expect("three arrays");
        format!("{} {n}x{n}", best.topology, n = best.array_rows)
    });
    let vit_winner = winners[2].ends_with("64x64");
    run.ordering("vit_edp_winner", vit_winner, &winners[2]);
    let diverges = winners.iter().any(|w| !w.ends_with("128x128"));
    run.ordering("edp_diverges", diverges, winners.join(", "));
}

pub(crate) fn tab06_multicore_isocompute(run: &mut Run) {
    let vit = [workload("vit-base")];
    let grid = format!("array = 128x128\ndataflow = ws, is\n{ENERGY_CORE}");
    let single = run.sweep(&base(4, 128), &grid, &vit);
    let grid = format!("array = 32x32\ncores = 4x4\ndataflow = ws, is\n{ENERGY_CORE}");
    let multi = run.sweep(&base(4, 128), &grid, &vit);
    // The paper's Table II maps WS to (K, M, N), pinning the M×K operand;
    // our labels follow physical stationarity, so WS and IS are swapped
    // relative to Table VI. The mechanism is label-independent: compare
    // the slower dataflow with the faster one.
    let gap = |r: &[RunRecord]| {
        let (a, b) = (r[0].compute_cycles, r[1].compute_cycles);
        ratio(a.max(b), a.min(b))
    };
    run.value("single_core_gap", gap(&single));
    run.value("multi_core_gap", gap(&multi));
    run.ordering("gap_closes", gap(&multi) < gap(&single), "");
    // EdP of the single-core latency loser against the winner, on 16 cores.
    let loser = usize::from(single[1].compute_cycles > single[0].compute_cycles);
    let advantage = edp(&multi[1 - loser]) / edp(&multi[loser]);
    run.value("loser_wins_multicore_edp", advantage);
}

pub(crate) fn fig15_energy_dataflow(run: &mut Run) {
    let (rcnn, resnet, vit) = (
        part(workload("rcnn"), 10..16),
        part(workload("resnet50"), 0..12),
        part(workload("vit-base"), 0..14),
    );
    let arrays = "array = 8x8, 16x16, 32x32, 64x64, 128x128";
    let grid = format!("{arrays}\ndataflow = os, ws, is\n{ENERGY_CORE}");
    let records = run.sweep(&base(4, 128), &grid, &[rcnn, resnet, vit]);
    // Energy of workload `w` under dataflow `d` (os, ws, is) on array `a`.
    let at = |w: usize, d: usize, a: usize| records[(a * 3 + d) * 3 + w].energy_mj;
    let grows = (0..9).all(|i| at(i / 3, i % 3, 4) > at(i / 3, i % 3, 2));
    run.ordering("energy_grows_32_to_128", grows, "");
    // Workloads where OS, summed over the arrays, is not within 5 % of
    // the cheapest dataflow.
    let mut dearer = Vec::new();
    for (w, of_workload) in records.iter().enumerate().take(3) {
        let [os, ws, is] = [0, 1, 2].map(|d| (0..5).map(|a| at(w, d, a)).sum::<f64>());
        if os > ws.min(is) * 1.05 {
            let name = &of_workload.topology;
            dearer.push(format!("{name}: os {os:.1}, ws {ws:.1}, is {is:.1} mJ"));
        }
    }
    run.ordering("os_is_cheapest", dearer.is_empty(), dearer.join("; "));
}

pub(crate) fn fig05_sparse_memory(run: &mut Run) {
    // 96 kB to 3 MB on chip, split 2:1:1 between ifmap, filter and ofmap.
    let grid = "array = 32x32\ndataflow = ws\nsram_kb = 48/24/24, 96/48/48, 192/96/96, \
                384/192/192, 768/384/384, 1536/768/768\n";
    // Per ratio (1:4, 2:4, 4:4), the (on-chip kB, total cycles) points.
    let series = [1, 2, 4].map(|n| {
        let records = run.sweep(&base(n, 128), grid, &[workload("resnet18")]);
        let point = |r: &RunRecord| (r.sram_kb.0 + r.sram_kb.1 + r.sram_kb.2, r.total_cycles);
        records.iter().map(point).collect::<Vec<_>>()
    });
    let mut slower = Vec::new();
    for (n, w) in [1, 2, 4]
        .iter()
        .zip(&series)
        .flat_map(|(n, s)| s.windows(2).map(move |w| (n, w)))
    {
        if w[1].1 > w[0].1 {
            slower.push(format!(
                "{n}:4 {}→{} kB: {}→{}",
                w[0].0, w[1].0, w[0].1, w[1].1
            ));
        }
    }
    run.ordering(
        "more_sram_never_slower",
        slower.is_empty(),
        slower.join("; "),
    );
    let ends = series.iter().all(|s| s[5].1 < s[0].1);
    let sparser =
        (0..6).all(|i| series[0][i].1 <= series[1][i].1 && series[1][i].1 <= series[2][i].1);
    run.ordering("sparser_and_largest_are_fastest", ends && sparser, "");
    // Iso-latency memory saving: the budget is the dense core's cycles
    // at the largest SRAM plus 10 %.
    let budget = series[2][5].1 * 11 / 10;
    let need = |s: &[(usize, u64)]| {
        let fits = s.iter().find(|point| point.1 <= budget);
        fits.expect("the largest SRAM meets its own budget").0 as f64
    };
    run.value("iso_latency_saving", need(&series[2]) / need(&series[1]));
}

pub(crate) fn fig10_queue_stalls(run: &mut Run) {
    let workloads = [
        part(workload("alexnet"), 0..5),
        part(workload("resnet18"), 0..6),
        part(workload("vit-small"), 0..7),
    ];
    // Memory-hungry: modest SRAM, one DDR4 channel.
    let grid = "array = 32x32\ndataflow = os\nsram_kb = 128/128/64\ndram = true\n";
    // Total cycles per queue depth, per workload.
    let totals = [32, 128, 512].map(|depth| {
        let records = run.sweep(&base(4, depth), grid, &workloads);
        records.iter().map(|r| r.total_cycles).collect::<Vec<_>>()
    });
    let totals = &totals;
    let gains = |from: usize| (0..3).map(move |w| ratio(totals[from][w], totals[from + 1][w]));
    run.value("gain_32_to_128", gains(0).sum::<f64>() / 3.0);
    run.value("gain_128_to_512", gains(1).sum::<f64>() / 3.0);
    // 0.5 % tolerance for latency-distribution noise across replays.
    let not_slower = gains(0).chain(gains(1)).all(|gain| gain >= 1.0 / 1.005);
    run.ordering("bigger_queue_not_slower", not_slower, "");
}

/// OS against WS, without and with the cycle-accurate DRAM in the loop
/// (`claim_dram_os_vs_ws`, and `dir_dram_flip` on a small input).
fn os_vs_ws(run: &mut Run, core: &str, topology: &[Topology]) {
    let grid = format!("{core}dataflow = os, ws\ndram = false, true\n");
    let records = run.sweep(&base(4, 32), &grid, topology);
    let (os_compute, os_total) = (records[0].compute_cycles, records[1].total_cycles);
    let (ws_compute, ws_total) = (records[2].compute_cycles, records[3].total_cycles);
    let percent_below = |a: u64, b: u64| (1.0 - ratio(a, b)) * 100.0;
    run.value(
        "ws_compute_advantage_pct",
        percent_below(ws_compute, os_compute),
    );
    run.value(
        "os_advantage_with_dram_pct",
        percent_below(os_total, ws_total),
    );
    let flips = ws_compute < os_compute && os_total < ws_total;
    run.ordering("ordering_flips", flips, "");
}

pub(crate) fn claim_dram_os_vs_ws(run: &mut Run) {
    // Six memory-intensive layers under memory pressure: small operand
    // SRAMs and a modest queue; the ofmap SRAM holds the partial tiles,
    // so the WS/OS difference comes from operand streaming.
    let six = [part(workload("resnet18"), 0..6)];
    os_vs_ws(run, "array = 32x32\nsram_kb = 128/128/512\n", &six);
}

pub(crate) fn dir_dram_flip(run: &mut Run) {
    // A first-layer-like convolution: 32x32 outputs, 3x3x3 windows, 16 filters.
    let conv = one_gemm(1024, 16, 27);
    os_vs_ws(run, "array = 8x8\nsram_kb = 8/8/32\n", &conv);
}

pub(crate) fn dir_array_scaling(run: &mut Run) {
    let grid = "array = 32x32, 128x128\ndataflow = ws\nenergy = true\n";
    let r = run.sweep(&base(4, 128), grid, &one_gemm(256, 256, 256));
    let holds = r[1].total_cycles < r[0].total_cycles && r[1].energy_mj > r[0].energy_mj;
    run.ordering("latency_falls_energy_rises", holds, "");
}

pub(crate) fn dir_sparse_demand(run: &mut Run) {
    let (grid, work) = ("array = 16x16\ndataflow = ws\n", one_gemm(96, 96, 96));
    let demand = [4, 2, 1].map(|n| {
        let r = &run.sweep(&base(n, 128), grid, &work)[0];
        (r.macs, r.compute_cycles)
    });
    let shrinks = demand
        .windows(2)
        .all(|d| d[1].0 < d[0].0 && d[1].1 < d[0].1);
    run.ordering("stream_shrinks", shrinks, "");
}

/// Table IV's feature points: name, the grid line that turns the
/// feature on, and the N of N:4 sparsity on the base.
const FEATURES: [(&str, &str, usize); 6] = [
    ("multicore", "cores = 2x2\n", 4),
    ("sparsity_2_4", "", 2),
    ("sparsity_1_4", "", 1),
    ("energy", "energy = true\n", 4),
    ("dram", "dram = true\n", 4),
    ("layout", "layout = true\n", 4),
];

pub(crate) fn tab04_overhead(run: &mut Run) {
    let workloads = [
        part(workload("alexnet"), 0..6),
        part(workload("resnet18"), 0..8),
        part(workload("vit-small"), 0..9),
    ];
    // TPU-v2-like: one big WS core, 128x128, 12 MB of SRAM. Every point
    // is timed cold, on an empty cache of its own: Table IV compares
    // whole simulations, and a feature point shares every compute plan
    // with its baseline. A baseline plans without walking the SRAM open
    // rows and takes ~1 ms or less, where one timing on a shared box is
    // off by half, so each point keeps its best of three.
    let cold = |feature: &str, n: usize, w: &Topology| {
        let grid = format!("array = 128x128\ndataflow = ws\nsram_kb = 4096/4096/4096\n{feature}");
        let once = || {
            let (cache, started) = (Arc::new(PlanCache::new()), Instant::now());
            let report = sweep_on(&cache, &base(n, 128), &grid, std::slice::from_ref(w));
            std::hint::black_box(report);
            started.elapsed().as_secs_f64()
        };
        (0..3).map(|_| once()).fold(f64::INFINITY, f64::min)
    };
    run.row("workload,feature,seconds,overhead_x");
    let mut means = [0.0; FEATURES.len()];
    for w in &workloads {
        let (name, baseline) = (w.name(), cold("", 4, w).max(1e-6));
        run.row(format!("{name},baseline,{baseline:.3},1.00"));
        for ((feature, line, n), mean) in FEATURES.iter().zip(&mut means) {
            let seconds = cold(line, *n, w);
            let overhead = seconds / baseline;
            run.row(format!("{name},{feature},{seconds:.3},{overhead:.2}"));
            *mean += overhead / workloads.len() as f64;
        }
    }
    for ((feature, ..), mean) in FEATURES.iter().zip(means) {
        run.value(&format!("{feature}_overhead"), mean);
    }
    let most = means[..5].iter().all(|&other| means[5] >= other);
    run.ordering("layout_most_expensive", most, "");
}
