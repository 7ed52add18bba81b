//! The experiment table: every figure, table and quoted number of the
//! paper's evaluation this repository reproduces, the ablations and
//! extensions that ride along, and three small direction rows the tier-1
//! test can afford. A row has exactly one input size.
//!
//! ```text
//! id: "where in the paper", cost, run function,
//! "title, inputs included" {
//!     claim: "what is compared", paper's value, accepted band or ordering,
//!         deviates "why ours is out of band";
//! }
//! ```

use crate::Accept::{HostWithin, Ordering, Within};
use crate::{grids, probes, Claim, Cost, Experiment};

macro_rules! experiments {
    (@why) => { None };
    (@why $why:literal) => { Some($why) };
    ($( $id:ident: $paper_ref:literal, $cost:ident, $run:path, $title:literal {
        $( $claim:ident: $what:literal, $paper:expr, $accept:expr $(, deviates $why:literal)?; )+
    } )+) => {
        /// Every experiment, in the order the runner executes them
        /// (Fig. 15, Table V and Table VI are adjacent: they share plans).
        pub const EXPERIMENTS: &[Experiment] = &[$( Experiment {
            id: stringify!($id),
            paper_ref: $paper_ref,
            title: $title,
            cost: Cost::$cost,
            run: $run,
            claims: &[$( Claim {
                id: concat!(stringify!($id), ".", stringify!($claim)),
                what: $what,
                paper: $paper,
                accept: $accept,
                deviation: experiments!(@why $($why)?),
            }, )+],
        }, )+];
    };
}

const NO: Option<&str> = None;

experiments! {
    fig03_partitioning: "Fig. 3", Cheap, probes::fig03_partitioning,
    "spatial vs spatio-temporal partitioning: 27 GEMMs x {8,16,32}^2 arrays x {16,32,64} cores" {
        st_wins_compute_cases: "compute-optimized configurations where a spatio-temporal scheme is best", Some("several"), Ordering;
        spatial_wins_memory_cases: "memory-optimized configurations where spatial is best", Some("most"), Ordering;
    }
    fig05_sparse_memory: "Fig. 5", Full, grids::fig05_sparse_memory,
    "total cycles vs on-chip SRAM (96 kB - 3 MB), ResNet-18 at 1:4 / 2:4 / 4:4 on 32x32 WS" {
        more_sram_never_slower: "each SRAM doubling lowers (or keeps) total cycles, at every ratio", NO, Ordering,
            deviates "bigger half-buffers lengthen double buffering's ramp-up and drain tails; from 96 to 192 kB that outweighs the stalls saved, by 0.5 to 1.7 %";
        sparser_and_largest_are_fastest: "3 MB beats 96 kB at every ratio, and 1:4 <= 2:4 <= 4:4 total cycles at every SRAM size", NO, Ordering;
        iso_latency_saving: "SRAM dense needs over SRAM 2:4 needs to meet the dense 3 MB latency + 10 % (x)", Some("3.9x"), Within(3.0, 5.0),
            deviates "on our doubling ladder dense first fits the budget at 3072 kB and 2:4 at 384 kB; the paper reads 3 MB against 768 kB off a 250 k-cycle budget";
    }
    fig07_sparse_storage: "Fig. 7", Cheap, probes::fig07_sparse_storage,
    "ResNet-18 filter storage, dense vs 1:4 / 2:4 / 3:4 blocked ELLPACK" {
        storage_grows_with_density: "network filter bytes (values + metadata): 1:4 < 2:4 < 3:4 < dense", NO, Ordering;
    }
    fig08_block_size: "Fig. 8", Cheap, probes::fig08_block_size,
    "ViT feed-forward compute cycles vs array size, N:M ratio and block size" {
        sparser_and_bigger_blocks_win: "on 32x32, cycles never fall as N grows at fixed M, nor rise at 1:M over M = 4, 8, 16, 32", NO, Ordering;
    }
    fig09_dram_channels: "Fig. 9", Full, probes::fig09_dram_channels,
    "DRAM throughput vs DDR4 channel count (1-8), 14 ResNet-18 layers on the TPU-like core" {
        early_layers_scale_further: "mean 2 -> 8 channel throughput gain, early convolutions vs conv5_x + fc", NO, Ordering;
        late_gain_past_2_channels: "late layers' mean 2 -> 8 channel throughput gain (x)", Some("saturates at ~2 channels"), Within(0.9, 1.1);
    }
    fig10_queue_stalls: "Fig. 10", Full, grids::fig10_queue_stalls,
    "total cycles vs DRAM request-queue depth (32 / 128 / 512): AlexNet[..5], ResNet-18[..6], ViT-small[..7] on 32x32 OS" {
        gain_32_to_128: "mean total-cycle improvement, queue 32 -> 128 (x)", Some("3.76x"), Within(2.5, 5.0),
            deviates "our queue model bounds a transaction by lines x latency / depth (Little's law), which prefetch-sized transactions rarely reach: these stalls are bandwidth-bound";
        gain_128_to_512: "mean further improvement, queue 128 -> 512 (x)", Some("1.38x"), Within(1.15, 1.6),
            deviates "as gain_32_to_128: the queue bound is not the binding one at 128 either";
        bigger_queue_not_slower: "a deeper queue never costs more than 0.5 % total cycles", NO, Ordering;
    }
    fig12_layout_resnet: "Fig. 12", Full, probes::fig12_layout_resnet,
    "layout-model slowdown vs bandwidth model: ResNet-18 conv2_1 / conv3_1 / conv4_1 on 128x128" {
        more_banks_never_add_slowdown: "mean slowdown over bandwidths never rises with the bank count, per dataflow", NO, Ordering;
        ws_most_sensitive: "weight-stationary has the widest slowdown spread over the grid", NO, Ordering;
    }
    fig13_layout_vit: "Fig. 13", Full, probes::fig13_layout_vit,
    "layout-model slowdown vs bandwidth model: ViT-base qkv and ff1 GEMMs on 128x128" {
        more_banks_never_add_slowdown: "mean slowdown over bandwidths never rises with the bank count, per dataflow", NO, Ordering;
        ws_most_sensitive: "weight-stationary has the widest slowdown spread over the grid", NO, Ordering,
            deviates "input-stationary streams both ViT operands column-major and gains most from banking at 128 words/cycle; every spread in our model is a speed-up over the flat model, not a slowdown";
    }
    fig15_energy_dataflow: "Fig. 15", Full, grids::fig15_energy_dataflow,
    "energy vs dataflow x array (8x8 - 128x128): R-CNN[10..16], ResNet-50[..12], ViT-base[..14]; re-cut from R-CNN[..10], whose VGG layers need up to 30 M cycles and 2 GB of plan each on 8x8 (the row did not finish in 10 minutes)" {
        energy_grows_32_to_128: "energy at 128x128 exceeds energy at 32x32, every workload and dataflow", NO, Ordering;
        os_is_cheapest: "OS energy summed over arrays is within 5 % of the cheapest dataflow, every workload", Some("almost every case"), Ordering,
            deviates "the huge-K GEMMs of ViT and of R-CNN's conv5 / RPN tail reward the weight-reuse dataflows, whose pinned operand removes the dominant filter-SRAM traffic; OS does win ResNet-50";
    }
    tab05_edp: "Table V", Full, grids::tab05_edp,
    "latency / energy / EdP at 32x32, 64x64, 128x128 WS: ResNet-50[..12], R-CNN[..10], ViT-base" {
        bigger_is_faster_smaller_is_frugal: "on every workload compute cycles fall 32x32 > 64x64 > 128x128 and 32x32 uses less energy than 128x128", NO, Ordering;
        vit_speedup: "ViT-base latency, 32x32 over 128x128 (x)", Some("6.53x"), Within(4.0, 9.0);
        vit_energy_ratio: "ViT-base energy, 128x128 over 32x32 (x)", Some("2.86x"), Within(1.5, 4.0);
        vit_edp_winner: "the array with the lowest ViT-base EdP is 64x64", Some("64x64"), Ordering,
            deviates "our 128x128 core is 2.6x faster than 64x64 on ViT-base for 2.0x the energy, so it keeps the lower EdP; 64x64 does win ResNet-50 (edp_diverges)";
        edp_diverges: "some workload's EdP winner is not the latency winner, 128x128", NO, Ordering;
    }
    tab06_multicore_isocompute: "Table VI", Full, grids::tab06_multicore_isocompute,
    "iso-compute ViT-base: one 128x128 core vs 16 cores of 32x32, WS vs IS" {
        single_core_gap: "latency of the slower dataflow over the faster, one 128x128 core (x)", Some("1.87x"), Within(1.3, 2.4);
        multi_core_gap: "latency of the slower dataflow over the faster, 16 cores of 32x32 (x)", Some("1.14x"), Within(1.0, 1.25);
        gap_closes: "the multi-core gap is smaller than the single-core gap", NO, Ordering;
        loser_wins_multicore_edp: "16-core EdP advantage of the dataflow that loses single-core latency (x)", Some("1.31x"), Within(1.0, 2.0);
    }
    tab03_energy_states: "Table III", Cheap, probes::tab03_energy_states,
    "energy model vs post-PnR reference: idle (clock gated), active, power gated" {
        state_ordering: "model energy orders power gated < idle < active", NO, Ordering;
        worst_error_pct: "largest |model - PnR| / PnR over the three states (%)", Some("4.3 %"), Within(0.0, 5.0),
            deviates "the active state anchors our unit scale (0.0 %); composing gating and leakage from the same reference table leaves idle at -9.5 % and power gated at -5.2 %";
    }
    tab04_overhead: "Table IV", Full, grids::tab04_overhead,
    "simulation-time overhead per feature over the v2 baseline, 128x128 WS with 12 MB SRAM: AlexNet[..6], ResNet-18[..8], ViT-small[..9], every point timed cold three times and the fastest kept" {
        multicore_overhead: "mean host-time ratio, 2x2 cores over baseline", Some("2.29x"), HostWithin(1.5, 3.5),
            deviates "a multi-core run here partitions each layer and simulates one representative core's smaller sub-GEMM, so it costs less than the baseline, not 2.3x more";
        sparsity_2_4_overhead: "mean host-time ratio, 2:4 sparsity over baseline", Some("0.42x"), HostWithin(0.1, 0.95);
        sparsity_1_4_overhead: "mean host-time ratio, 1:4 sparsity over baseline", Some("0.29x"), HostWithin(0.05, 0.9);
        energy_overhead: "mean host-time ratio, energy model on over baseline", Some("1.19x"), HostWithin(0.7, 1.7);
        dram_overhead: "mean host-time ratio, cycle-accurate DRAM on over baseline", Some("2.13x"), HostWithin(1.05, 4.5),
            deviates "by speed, not by model: the O(folds) baseline got 1.5-7x faster once the SRAM open-row walk decided a stream from a few band periods (ROADMAP item 6(c)), while the DRAM replay still makes one controller decision per line request, so the ratio reads 8-12x (ROADMAP item 6(a))";
        layout_overhead: "mean host-time ratio, layout analysis on over baseline", Some("16.03x"), HostWithin(8.0, 32.0),
            deviates "the layout stage follows each lane of a fold's streams from one (line, bank) cell to the next and costs lanes that walk the same cells by the first and the last of them, where the paper's places every array-edge word: 4-7x over the O(folds) baseline here, not 16x (ROADMAP item 6(b))";
        layout_most_expensive: "layout has the largest mean overhead of the six features", NO, Ordering,
            deviates "with the layout stage at 4-7x the cycle-accurate DRAM replay (8-12x, one controller decision per line request) is now the most expensive feature; layout still comes second (ROADMAP item 6(a))";
    }
    claim_dram_os_vs_ws: "§IX-B", Full, grids::claim_dram_os_vs_ws,
    "OS vs WS on six ResNet-18 layers, 32x32, 128/128/512 kB SRAM, queue 32, without and with the cycle-accurate DRAM" {
        ws_compute_advantage_pct: "WS compute cycles below OS compute cycles (%)", Some("21 %"), Within(10.0, 30.0);
        os_advantage_with_dram_pct: "OS execution cycles below WS execution cycles, DRAM stalls counted (%)", Some("30.1 %"), Within(20.0, 45.0),
            deviates "the direction matches, the magnitude is 3x: WS re-streams the early layers' ifmaps through a 128 kB SRAM and stalls for 20 of its 21 M cycles";
        ordering_flips: "WS wins on compute cycles, OS wins once DRAM stalls are counted", NO, Ordering;
    }
    ext_dram_power: "Fig. 9 (extension)", Full, probes::ext_dram_power,
    "DRAM power and controller area vs channel count: ResNet-18 conv1, conv4_0, fc" {
        channels_add_power_not_stalls: "every added channel raises average DRAM power and never costs 2 % of the throughput", NO, Ordering;
        saturated_layer_loses_efficiency: "fc moves fewer MB/s per mW on 8 channels than on 1", NO, Ordering;
        controller_area_8ch_over_1ch: "controller area is linear in channels (x)", NO, Within(7.99, 8.01);
    }
    ablation_energy_repeat: "§VII-C (ablation)", Cheap, probes::ablation_energy_repeat,
    "SRAM repeated-access lookup on/off and row-size sensitivity, one conv GEMM on 16x16" {
        inflation_without_lookup: "ifmap SRAM energy with every access priced as random, over the lookup's (x)", Some(">2x"), Within(1.5, 4.0);
    }
    ablation_mem_scheduling: "§V (ablation)", Cheap, probes::ablation_mem_scheduling,
    "FR-FCFS / FCFS x open / closed page on ResNet-18 conv3_1's line-request trace" {
        default_dominates: "FR-FCFS + open page: row-hit rate within 0.5 points of the best, lowest mean latency, earliest end cycle", NO, Ordering;
    }
    ablation_nop: "§III-D (ablation)", Cheap, probes::ablation_nop,
    "uniform vs non-uniform work split over 2x2 / 4x4 / 8x8 NoP meshes and three port placements" {
        non_uniform_never_loses: "the non-uniform split's makespan never exceeds the uniform one's", NO, Ordering;
        better_placement_is_faster: "makespan orders four edges <= west edge <= corner on every mesh", NO, Ordering;
        gain_grows_with_skew: "corner gains at least what four edges gains, and more on 8x8 than on 2x2", NO, Ordering;
    }
    dir_dram_flip: "§IX-B (direction)", Cheap, grids::dir_dram_flip,
    "claim_dram_os_vs_ws on one first-layer-like 1024x16x27 GEMM, 8x8, 8/8/32 kB SRAM" {
        ws_compute_advantage_pct: "WS compute cycles below OS compute cycles (%)", NO, Within(0.0, 100.0);
        os_advantage_with_dram_pct: "OS execution cycles below WS execution cycles, DRAM stalls counted (%)", NO, Within(0.0, 100.0);
        ordering_flips: "WS wins on compute cycles, OS wins once DRAM stalls are counted", NO, Ordering;
    }
    dir_array_scaling: "Table V (direction)", Cheap, grids::dir_array_scaling,
    "one 256^3 GEMM on a 32x32 and a 128x128 WS core, energy model on" {
        latency_falls_energy_rises: "from 32x32 to 128x128 at fixed work, total cycles fall and energy rises", NO, Ordering;
    }
    dir_sparse_demand: "Table IV (direction)", Cheap, grids::dir_sparse_demand,
    "one 96^3 GEMM dense, 2:4 and 1:4 on a 16x16 WS core: why sparsity shortens simulation" {
        stream_shrinks: "simulated MACs and compute cycles both fall dense > 2:4 > 1:4", NO, Ordering;
    }
}
