//! Experiments that probe one library directly — a partition search, a
//! storage formula, a DRAM replay — rather than a grid of engine runs.

use crate::gemm::fig3_gemm_workloads;
use crate::nonuniform::{non_uniform_split, uniform_split_makespan};
use crate::nop::{MemoryPortPlacement, NopMesh};
use crate::partition::{best_partition, PartitionChoice, PartitionObjective};
use crate::validate::system_state_table;
use crate::{workload, Run};
use scalesim::energy::{ActionCounts, ArchSpec, AreaConfig, AreaTable, EnergyModel, LayerActivity};
use scalesim::mem::{RowPolicy, SchedulingPolicy};
use scalesim::multicore::{MappingDims, PartitionScheme};
use scalesim::sparse::{NmRatio, SparseFormat, SparsityPattern};
use scalesim::systolic::{
    parallel_map, timing, AnalyticalModel, ArrayShape, CoreSim, Dataflow, GemmShape,
    IdealBandwidthStore, Layer, MemoryConfig, RecordingStore, SimConfig, Topology,
};
use scalesim::{
    dram::replay, layout_slowdown_for_gemm, DramAnalysis, DramIntegration, LayoutIntegration,
    ScaleSim, ScaleSimConfig,
};

/// The GEMM of the layer named `layer` in `net`.
fn gemm_of(net: &Topology, layer: &str) -> GemmShape {
    let found = net.iter().find(|l| l.name() == layer);
    found
        .unwrap_or_else(|| panic!("{} has no layer {layer}", net.name()))
        .gemm()
}

fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len().max(1) as f64
}

/// Every `(a, b)` pair, `b` varying fastest.
fn cross<const N: usize>(a: [usize; N], b: [usize; N]) -> impl Iterator<Item = (usize, usize)> {
    a.into_iter().flat_map(move |a| b.map(|b| (a, b)))
}

pub(crate) fn fig03_partitioning(run: &mut Run) {
    use PartitionObjective::{ComputeCycles, MemoryFootprint};
    run.row("objective,gemm,array,cores,scheme,pr,pc,cycles,footprint");
    let tags = ["compute-optimized (Fig. 3a)", "memory-optimized (Fig. 3b)"];
    // Configurations where spatial partitioning is the best, per objective.
    let mut spatial = [0; 2];
    let objectives = [ComputeCycles, MemoryFootprint].into_iter().zip(tags);
    for ((objective, tag), wins) in objectives.zip(&mut spatial) {
        for gemm in fig3_gemm_workloads() {
            let dims = MappingDims::new(Dataflow::OutputStationary, gemm);
            for (a, cores) in cross([8, 16, 32], [16, 32, 64]) {
                let array = ArrayShape::square(a);
                let best = |s| best_partition(array, s, dims, cores, objective, None);
                let choices = PartitionScheme::ALL.map(best);
                for c in &choices {
                    let (scheme, pr, pc) = (c.scheme.label(), c.grid.pr, c.grid.pc);
                    let shape = format!("{tag},{gemm},{a}x{a},{cores},{scheme},{pr},{pc}");
                    run.row(format!("{shape},{},{}", c.cycles, c.footprint_words));
                }
                // Among the three connected points the paper judges the
                // best partition by the *other* metric: least footprint
                // in Fig. 3a, fewest cycles in Fig. 3b.
                let other = |c: &&PartitionChoice| match objective {
                    ComputeCycles => (c.footprint_words, c.cycles),
                    MemoryFootprint => (c.cycles, c.footprint_words),
                };
                let best = choices.iter().min_by_key(other).expect("three schemes");
                *wins += usize::from(best.scheme == PartitionScheme::Spatial);
            }
        }
    }
    let total = fig3_gemm_workloads().len() * 9;
    let seen = format!("{} of {total}", total - spatial[0]);
    run.ordering("st_wins_compute_cases", spatial[0] < total, seen);
    let seen = format!("{} of {total}", spatial[1]);
    run.ordering("spatial_wins_memory_cases", spatial[1] * 2 > total, seen);
}

pub(crate) fn fig07_sparse_storage(run: &mut Run) {
    let ratios = [1, 2, 3].map(|n| NmRatio::new(n, 4).expect("n <= 4"));
    run.row("layer,ratio,value_bytes,metadata_bytes");
    // Network totals in bytes: dense, then 1:4 / 2:4 / 3:4.
    let mut totals = [0u64; 4];
    for layer in workload("resnet18").iter() {
        let (name, g) = (layer.name(), layer.gemm());
        let dense = SparseFormat::dense_storage_bits(g.k, g.n, 16) / 8;
        totals[0] += dense;
        run.row(format!("{name},dense,{dense},0"));
        for (ratio, total) in ratios.iter().zip(&mut totals[1..]) {
            let pattern = SparsityPattern::layer_wise(g.k, *ratio);
            let bits = SparseFormat::BlockedEllpack.filter_storage_bits(&pattern, g.n, 16);
            let values = pattern.effective_k() as u64 * g.n as u64 * 16;
            *total += bits / 8;
            let (values, metadata) = (values / 8, (bits - values) / 8);
            run.row(format!("{name},{ratio},{values},{metadata}"));
        }
    }
    let grows = totals[1] < totals[2] && totals[2] < totals[3] && totals[3] < totals[0];
    run.ordering("storage_grows_with_density", grows, "");
}

pub(crate) fn fig08_block_size(run: &mut Run) {
    // ViT feed-forward compute cycles at N:M on an `array`-square core:
    // the compressed GEMM the engine would plan, costed by the closed
    // form its plans are proven equal to.
    let vit = workload("vit-base");
    let feed_forward = ["blk0_ff1", "blk0_ff2"].map(|name| gemm_of(&vit, name));
    let cycles = |array: usize, n: usize, m: usize| -> u64 {
        let (array, ws) = (ArrayShape::square(array), Dataflow::WeightStationary);
        let ratio = NmRatio::new(n, m).expect("n <= m");
        let layer = |g: &GemmShape| {
            let sparse = SparsityPattern::layer_wise(g.k, ratio).compress(*g);
            AnalyticalModel::new(array, ws, sparse).exact_runtime_cycles()
        };
        feed_forward.iter().map(layer).sum()
    };
    run.row("set,array,block,ratio,cycles");
    // Set 1: block size tied to the array dimension.
    for a in [4, 8, 16, 32] {
        for (n, c) in [1, a / 2, a].map(|n| (n, cycles(a, n, a))) {
            run.row(format!("array-tied,{a}x{a},{a},{n}:{a},{c}"));
        }
    }
    // Set 2: 32x32 array, block size M swept; series[M][N - 1].
    let series = [4, 8, 16, 32].map(|m| {
        let of_n = |n| {
            let c = cycles(32, n, m);
            run.row(format!("fixed-32,32x32,{m},{n}:{m},{c}"));
            c
        };
        (1..=m).map(of_n).collect::<Vec<u64>>()
    });
    let at_1_m = series.windows(2).all(|s| s[1][0] <= s[0][0]);
    let in_n = series.iter().all(|s| s.windows(2).all(|w| w[0] <= w[1]));
    run.ordering("sparser_and_bigger_blocks_win", at_1_m && in_n, "");
}

/// One ResNet-18 layer on the TPU-like core against `channels` DDR4
/// channels (Fig. 9's setup: 4 Gb per channel, 128-entry queues).
fn on_channels(layer: &Layer, channels: usize) -> DramAnalysis {
    let mut config = ScaleSimConfig::tpu_like();
    config.enable_dram = true;
    config.dram.channels = channels;
    let result = ScaleSim::new(config).run_gemm(layer.name(), layer.gemm());
    result.dram.expect("the DRAM flow is on")
}

pub(crate) fn fig09_dram_channels(run: &mut Run) {
    run.row("layer,channels,throughput_mbps,stall_cycles");
    // Throughput gain from 2 to 8 channels: does anything past 2 help?
    let (mut early, mut late) = (Vec::new(), Vec::new());
    // All early convolutions, then every second layer.
    let sampled = |(idx, _): &(usize, &Layer)| *idx <= 6 || idx % 2 == 0;
    for (idx, layer) in workload("resnet18").iter().enumerate().filter(sampled) {
        let name = layer.name();
        let mbps = [1, 2, 4, 8].map(|channels| {
            let d = on_channels(layer, channels);
            let (mbps, stalls) = (d.throughput_mbps, d.summary.stall_cycles);
            run.row(format!("{name},{channels},{mbps:.1},{stalls}"));
            mbps
        });
        // "The 1×1 filters and smaller ifmaps reduce the memory throughput
        // for later convolution and fully connected layers": conv5_x + fc.
        if name == "fc" || name.starts_with("conv5") {
            late.push(mbps[3] / mbps[1].max(1.0));
        } else if idx <= 10 {
            early.push(mbps[3] / mbps[1].max(1.0));
        }
    }
    let further = mean(&early) > mean(&late);
    run.ordering("early_layers_scale_further", further, "");
    run.value("late_gain_past_2_channels", mean(&late));
}

pub(crate) fn ext_dram_power(run: &mut Run) {
    let net = workload("resnet18");
    let arch = ArchSpec::new(128, 128, 8192 << 10, 8192 << 10, 2048 << 10);
    let controllers = |channels| {
        let area = AreaConfig::new(arch).with_dram_channels(channels);
        area.estimate(&AreaTable::eyeriss_65nm()).dram_ctrl_mm2
    };
    let metrics = "throughput_mbps,avg_power_mw,pj_per_bit,efficiency_mbps_per_mw";
    run.row(format!("layer,channels,{metrics},controller_mm2"));
    // Early conv, mid conv, final FC — the Fig. 9 contrast points; per
    // layer and channel count, (MB/s, mW).
    let layers = [0, net.len() / 2, net.len() - 1].map(|idx| {
        let layer = &net.layers()[idx];
        [1, 2, 4, 8].map(|channels| {
            let d = on_channels(layer, channels);
            let (mbps, mw) = (d.throughput_mbps, d.energy.avg_power_mw());
            let (pj, eff) = (d.energy.pj_per_bit(), mbps / mw.max(1e-9));
            let shape = format!("{},{channels},{mbps:.1},{mw:.2}", layer.name());
            run.row(format!(
                "{shape},{pj:.3},{eff:.3},{:.2}",
                controllers(channels)
            ));
            (mbps, mw)
        })
    });
    // Every added channel costs power, and never 2 % of the throughput.
    let mut steps = layers.iter().flat_map(|points| points.windows(2));
    let holds = steps.all(|p| p[1].1 > p[0].1 && p[1].0 >= p[0].0 * 0.98);
    run.ordering("channels_add_power_not_stalls", holds, "");
    // The final, saturated layer pays for channels it cannot use.
    let [one, .., eight] = layers[2].map(|(mbps, mw)| mbps / mw.max(1e-9));
    let seen = format!("{one:.2} → {eight:.2} MB/s per mW from 1 to 8 channels");
    run.ordering("saturated_layer_loses_efficiency", eight < one, seen);
    let linear = controllers(8) / controllers(1);
    run.value("controller_area_8ch_over_1ch", linear);
}

/// Figs. 12 and 13: slowdown of the banked layout model against the
/// pure bandwidth model on a 128×128 array, over dataflows, on-chip
/// bandwidths and bank counts.
fn layout_figure(run: &mut Run, layers: &[(&str, GemmShape)]) {
    let (bandwidths, banks) = ([64, 128, 256, 512, 1024], [1, 2, 4, 8, 16]);
    let mut points = Vec::new();
    for df in Dataflow::ALL {
        for (bw, nb) in cross(bandwidths, banks) {
            points.extend(layers.iter().map(|&(name, gemm)| (df, bw, nb, name, gemm)));
        }
    }
    let slowdowns = parallel_map(&points, |_, &(df, bw, nb, _, gemm)| {
        let layout = LayoutIntegration::matched(df, bw, nb);
        layout_slowdown_for_gemm(ArrayShape::new(128, 128), df, gemm, &layout).relative_slowdown()
    });
    run.row("dataflow,bandwidth,banks,layer,slowdown");
    for ((df, bw, nb, name, _), s) in points.iter().zip(&slowdowns) {
        run.row(format!("{},{bw},{nb},{name},{s:.4}", df.short_name()));
    }
    // Per dataflow (os, ws, is): whether the slowdown, averaged over
    // layers and bandwidths, never rises with the bank count — where
    // banking beats the flat model the advantage may shrink toward zero —
    // and the spread of the slowdown over the whole grid.
    let per_df: Vec<&[f64]> = slowdowns.chunks(slowdowns.len() / 3).collect();
    let banks_help = per_df.iter().all(|of_df| {
        let at_banks = |b: usize| {
            let cells = of_df.chunks(layers.len()).skip(b).step_by(banks.len());
            mean(&cells.flatten().copied().collect::<Vec<_>>())
        };
        let by_banks = [0, 1, 2, 3, 4].map(at_banks);
        by_banks.windows(2).all(|w| w[1] <= w[0].max(0.0) + 1e-9)
    });
    run.ordering("more_banks_never_add_slowdown", banks_help, "");
    let [os, ws, is] = [0, 1, 2].map(|d| {
        let lo = per_df[d].iter().copied().fold(f64::MAX, f64::min);
        per_df[d].iter().copied().fold(f64::MIN, f64::max) - lo
    });
    let seen = format!("spread os {os:.3}, ws {ws:.3}, is {is:.3}");
    run.ordering("ws_most_sensitive", ws >= os.max(is), seen);
}

pub(crate) fn fig12_layout_resnet(run: &mut Run) {
    let net = workload("resnet18");
    let layers = ["conv2_1", "conv3_1", "conv4_1"].map(|name| (name, gemm_of(&net, name)));
    layout_figure(run, &layers);
}

pub(crate) fn fig13_layout_vit(run: &mut Run) {
    let vit = workload("vit-base");
    let [qkv, ff1] = ["blk0_qkv", "blk0_ff1"].map(|name| gemm_of(&vit, name));
    layout_figure(run, &[("qkv", qkv), ("ff1", ff1)]);
}

pub(crate) fn tab03_energy_states(run: &mut Run) {
    let rows = system_state_table();
    run.row("state,pnr,model,error_pct");
    for r in &rows {
        let (state, pnr, model, error) = (r.state.name(), r.pnr, r.model, r.error_pct());
        run.row(format!("{state},{pnr:.2},{model:.2},{error:.2}"));
    }
    let ordered = rows[2].model < rows[0].model && rows[0].model < rows[1].model;
    run.ordering("state_ordering", ordered, "");
    let worst = rows.iter().map(|r| r.error_pct().abs()).fold(0.0, f64::max);
    run.value("worst_error_pct", worst);
}

/// An `array`-square core with `kb` kB ifmap and filter SRAMs and half
/// that for the ofmap.
fn core(array: usize, dataflow: Dataflow, kb: usize) -> SimConfig {
    let memory = MemoryConfig::from_kilobytes(kb, kb, kb / 2, 2);
    let mut builder = SimConfig::builder();
    builder
        .array(ArrayShape::square(array))
        .dataflow(dataflow)
        .memory(memory)
        .build()
}

pub(crate) fn ablation_energy_repeat(run: &mut Run) {
    // SRAM (reads, repeated reads) of one conv layer's operand streams.
    let profile = |row_words: usize, dataflow: Dataflow| {
        let mut cfg = core(16, dataflow, 512);
        (cfg.memory.sram_row_words, cfg.memory.sram_row_buffers) = (row_words, 64);
        let planned = CoreSim::new(cfg).plan_gemm(GemmShape::new(196, 256, 1152));
        let sram = planned.sram();
        let repeats = sram.ifmap_repeat_reads + sram.filter_repeat_reads;
        (sram.ifmap_reads + sram.filter_reads, repeats)
    };
    run.row("row_words,dataflow,reads,repeats");
    let by_row = [4, 16, 64].map(|words| (words, Dataflow::OutputStationary));
    for (words, df) in by_row.into_iter().chain(Dataflow::ALL.map(|df| (16, df))) {
        let (reads, repeats) = profile(words, df);
        run.row(format!("{words},{},{reads},{repeats}", df.short_name()));
    }
    // Ifmap SRAM energy of a repeat-friendly stream (OS, wide rows) with
    // and without the repeat discount.
    let (reads, repeats) = profile(64, Dataflow::OutputStationary);
    let arch = ArchSpec::new(16, 16, 512 * 1024, 512 * 1024, 256 * 1024);
    let model = EnergyModel::eyeriss_65nm(arch);
    let energy = |ifmap_sram_repeats: u64| {
        let mut activity = LayerActivity::default();
        activity.total_cycles = 1_000_000;
        (activity.ifmap_sram_reads, activity.ifmap_sram_repeats) = (reads, ifmap_sram_repeats);
        let counts = ActionCounts::from_layer(&activity, 256, (16, 16, 16), true);
        let report = model.evaluate(&counts, 1_000_000);
        report.component_pj("ifmap_sram")
    };
    run.value("inflation_without_lookup", energy(0) / energy(repeats));
}

pub(crate) fn ablation_mem_scheduling(run: &mut Run) {
    // The line requests of one streamed layer, ResNet-18 conv3_1.
    let planned = CoreSim::new(core(32, Dataflow::OutputStationary, 256))
        .plan_gemm(GemmShape::new(784, 128, 1152));
    let mut recorder = RecordingStore::new(IdealBandwidthStore::new(10.0));
    let _ = timing(&planned.inputs, &mut recorder);
    let trace = recorder.into_trace();
    run.row("controller,row_hit_pct,avg_latency,end_cycle");
    use {RowPolicy::*, SchedulingPolicy::*};
    let variants = [
        ("FR-FCFS + open page", FrFcfs, OpenPage),
        ("FCFS + open page", Fcfs, OpenPage),
        ("FR-FCFS + closed page", FrFcfs, ClosedPage),
        ("FCFS + closed page", Fcfs, ClosedPage),
    ];
    // (row-hit rate, mean latency, end cycle), the default first.
    let [default, ablated @ ..] = variants.map(|(name, scheduling, row_policy)| {
        let (_, r) = replay(
            &trace,
            &DramIntegration::default(),
            2,
            scheduling,
            row_policy,
        );
        let (hits, latency, end) = (r.stats.row_hit_rate(), r.avg_latency(), r.end_cycle);
        run.row(format!("{name},{:.2},{latency:.2},{end}", hits * 100.0));
        (hits, latency, end)
    });
    // Hit rates differ in the noise between open-page variants
    // (scheduling order shifts which access opens a row).
    let keeps_hits = ablated.iter().all(|r| default.0 >= r.0 - 0.005);
    let fastest = ablated.iter().all(|r| default.1 <= r.1 && default.2 <= r.2);
    run.ordering("default_dominates", keeps_hits && fastest, "");
}

pub(crate) fn ablation_nop(run: &mut Run) {
    use MemoryPortPlacement::{Corner, FourEdges, WestEdge};
    let names = ["four-edges", "west-edge", "corner"];
    let placements = [FourEdges, WestEdge, Corner];
    run.row("mesh,placement,avg_hops,uniform_makespan,nonuniform_makespan,gain");
    // Per mesh, per placement: (non-uniform makespan, gain over uniform).
    let meshes = [2, 4, 8].map(|side| {
        [0, 1, 2].map(|p| {
            let mesh = NopMesh::new(side, side, 400, placements[p]);
            let profile = mesh.profile(1.0, 4096);
            let uniform = uniform_split_makespan(&profile, 1_000_000);
            let (_, split) = non_uniform_split(&profile, 1_000_000);
            let (hops, gain) = (mesh.average_hops(), uniform as f64 / split as f64);
            let shape = format!("{side}x{side},{}", names[p]);
            run.row(format!("{shape},{hops:.2},{uniform},{split},{gain:.4}"));
            (split, gain)
        })
    });
    let never_loses = meshes.iter().flatten().all(|&(_, gain)| gain >= 1.0 - 1e-9);
    run.ordering("non_uniform_never_loses", never_loses, "");
    // Better placement, smaller makespan: four edges <= west edge <= corner.
    let ordered = meshes.iter().all(|m| m[0].0 <= m[1].0 && m[1].0 <= m[2].0);
    run.ordering("better_placement_is_faster", ordered, "");
    // More skew, more to exploit: across placements and across mesh sizes.
    let skew = meshes.iter().all(|m| m[2].1 >= m[0].1 - 1e-9) && meshes[2][2].1 > meshes[0][2].1;
    run.ordering("gain_grows_with_skew", skew, "");
}
