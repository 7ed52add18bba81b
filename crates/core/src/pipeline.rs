//! What happens to one layer: `ScaleSim::run_layer`.
//!
//! SCALE-Sim v3's headline claim is *modularity*: sparsity, multi-core
//! partitioning, DRAM, layout and energy are independent features
//! switched on per run and composed per layer by one simulation flow.
//! Here that flow is one function — straight-line code over six private
//! stage functions, each returning its product, each guarded by the
//! configuration flag that enables it:
//!
//! ```text
//!           ┌──────────┐ ┌─────────────────┐ ┌──────┐ ┌────────┐ ┌────────┐ ┌────────┐
//! GemmShape │ sparsify │→│ compute         │→│ dram │→│ layout │→│ sparse │→│ energy │→ LayerResult
//!           │   (§IV)  │ │ partition+plan  │ │ (§V) │ │ (§VI)  │ │ store  │ │ (§VII) │
//!           └──────────┘ │ +timing (§II-III)│ └──────┘ └────────┘ └────────┘ └────────┘
//!                        └─────────────────┘
//! ```
//!
//! The order is fixed by data dependences (the DRAM replay needs the
//! compute stage's plan, energy needs the DRAM-aware cycle count), so
//! it is not pluggable. Every stage is entered through one helper that
//! checks the [`CancelToken`], opens the `pipeline`-category span named
//! after the stage and adds the elapsed time to the engine's always-on
//! totals row — what `scalesim --profile-stages` prints
//! ([`ScaleSim::stage_profile`]).
//!
//! ## Adding a stage
//!
//! Write a function that takes what it needs and returns its product,
//! give it a `Stage` variant and a `STAGES` row (name, enabling flag),
//! call it through the helper in `ScaleSim::run_layer` and store the
//! product in [`LayerResult`].

use crate::cancel::CancelToken;
use crate::config::{ScaleSimConfig, SparsityMode};
use crate::dram::{dram_analysis, DramAnalysis};
use crate::energy::{ActionCounts, EnergyModel, EnergyReport, LayerActivity};
use crate::engine::ScaleSim;
use crate::layout_analysis::layout_slowdown_for_gemm;
use crate::multicore::{partition_layer, PartitionedLayer};
use crate::result::LayerResult;
use crate::sparse::{SparseReportRow, SparsityPattern};
use scalesim_obs as obs;
use scalesim_systolic::{
    CoreSim, GemmShape, IdealBandwidthStore, LayerReport, PlanCache, PlannedLayer,
};
use std::sync::Arc;

/// The stages of a layer, in execution order; the discriminant indexes
/// [`STAGES`] and the engine's totals table.
#[derive(Debug, Clone, Copy)]
enum Stage {
    Sparsify,
    Compute,
    Dram,
    Layout,
    Sparse,
    Energy,
}

/// Whether layers run a stage under a configuration.
type Enabled = fn(&ScaleSimConfig) -> bool;

/// Per [`Stage`]: its short stable name (the span name and the
/// `--profile-stages` row) and the flag that enables it.
pub(crate) const STAGES: [(&str, Enabled); 6] = [
    ("sparsify", |config| config.sparsity.is_some()),
    ("compute", |_| true),
    ("dram", |config| config.enable_dram),
    ("layout", |config| config.enable_layout),
    ("sparse", |config| config.sparsity.is_some()),
    ("energy", |config| config.enable_energy),
];

/// One stage's aggregated timing, as reported by
/// [`ScaleSim::stage_profile`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StageTiming {
    /// Stage name.
    pub stage: &'static str,
    /// Invocations (one per layer the stage ran on).
    pub calls: u64,
    /// Cumulative wall-clock nanoseconds across all invocations.
    pub nanos: u64,
}

impl StageTiming {
    /// Cumulative time in milliseconds.
    pub fn millis(&self) -> f64 {
        self.nanos as f64 / 1.0e6
    }
}

impl ScaleSim {
    /// Runs one layer through every enabled stage, in order. Returns
    /// `None` if `cancel` expired — it is checked **before** each stage
    /// and the layer is abandoned whole, so a partially-staged result
    /// never surfaces. Under [`CancelToken::never`] the layer always
    /// completes.
    pub(crate) fn run_layer(
        &self,
        name: &str,
        dense_gemm: GemmShape,
        cancel: &CancelToken,
    ) -> Option<LayerResult> {
        let config = self.config();
        let pattern = match config.sparsity {
            Some(mode) => Some(self.stage(Stage::Sparsify, cancel, || {
                sparsify(mode, name, dense_gemm.k)
            })?),
            None => None,
        };
        let gemm = pattern
            .as_ref()
            .map_or(dense_gemm, |p| p.compress(dense_gemm));
        let computed = self.stage(Stage::Compute, cancel, || {
            compute(config, self.plan_cache(), name, gemm)
        })?;
        let dram = if config.enable_dram {
            Some(self.stage(Stage::Dram, cancel, || dram(config, &computed.planned))?)
        } else {
            None
        };
        let layout = if config.enable_layout {
            Some(self.stage(Stage::Layout, cancel, || {
                let dataflow = config.effective_dataflow();
                layout_slowdown_for_gemm(config.core.array, dataflow, gemm, &config.layout)
            })?)
        } else {
            None
        };
        let sparse = match &pattern {
            Some(pattern) => Some(self.stage(Stage::Sparse, cancel, || {
                sparse_storage(config, name, pattern, dense_gemm.n)
            })?),
            None => None,
        };
        let energy = if config.enable_energy {
            Some(self.stage(Stage::Energy, cancel, || {
                energy(config, &computed, dram.as_ref())
            })?)
        } else {
            None
        };
        Some(LayerResult {
            name: name.to_string(),
            gemm,
            dense_gemm,
            report: computed.report,
            dram,
            layout,
            energy,
            sparse,
            cores: computed.part.cores,
            noc_words: computed.part.noc_words,
        })
    }

    /// Enters `stage`: `None` once `cancel` has expired, otherwise
    /// `body`'s product, timed by a `pipeline` span that also feeds the
    /// stage's totals row.
    fn stage<T>(&self, stage: Stage, cancel: &CancelToken, body: impl FnOnce() -> T) -> Option<T> {
        let (name, enabled) = STAGES[stage as usize];
        debug_assert!(enabled(self.config()), "{name} is off");
        if cancel.expired() {
            return None;
        }
        let _span = obs::span_for(obs::Category::Pipeline, name, &self.totals, stage as usize);
        Some(body())
    }
}

/// §IV: draws the layer's sparsity pattern along `K` (the row-wise draw
/// is seeded per layer name). The engine runs the pattern's
/// [`compress`](SparsityPattern::compress)ed GEMM.
fn sparsify(mode: SparsityMode, name: &str, k: usize) -> SparsityPattern {
    match mode {
        SparsityMode::LayerWise(ratio) => SparsityPattern::layer_wise(k, ratio),
        SparsityMode::RowWise { block, seed } => {
            let seed_tag = name.bytes().map(u64::from).sum::<u64>();
            SparsityPattern::row_wise(k, block, seed ^ seed_tag)
        }
    }
}

/// What the compute stage leaves for the stages after it.
struct Computed {
    /// Cycle-accurate report of the representative core.
    report: LayerReport,
    /// That core's fetch plan; input to the DRAM replay.
    planned: Arc<PlannedLayer>,
    /// How the layer was split across cores (trivially, on one core).
    part: PartitionedLayer,
}

/// §II–III: partitions the GEMM across the core grid (when multi-core),
/// plans the representative core's fetch schedule through the shared
/// plan cache, and times it against ideal-bandwidth memory.
fn compute(
    config: &ScaleSimConfig,
    plan_cache: &Arc<PlanCache>,
    name: &str,
    gemm: GemmShape,
) -> Computed {
    let mut core_cfg = config.core.clone();
    core_cfg.dataflow = config.effective_dataflow();
    let bandwidth = core_cfg.memory.dram_bandwidth;
    let part = match &config.multicore {
        None => PartitionedLayer {
            sub_gemm: gemm,
            cores: 1,
            l2: None,
            noc_words: 0,
            per_core_bandwidth: bandwidth,
        },
        Some(mc) => partition_layer(
            core_cfg.dataflow,
            mc.scheme,
            gemm,
            mc.grid,
            mc.l2,
            bandwidth,
        ),
    };
    core_cfg.memory.dram_bandwidth = part.per_core_bandwidth;
    let sim = CoreSim::new(core_cfg).with_plan_cache(Arc::clone(plan_cache));
    let planned = sim.plan_gemm_shared(part.sub_gemm);
    let mut store = IdealBandwidthStore::new(part.per_core_bandwidth);
    Computed {
        report: planned.report(name, part.sub_gemm, &mut store),
        planned,
        part,
    }
}

/// §V: replays the representative core's demand trace through the
/// cycle-accurate DRAM model and re-times with the measured latencies.
fn dram(config: &ScaleSimConfig, planned: &PlannedLayer) -> DramAnalysis {
    let mem = &config.core.memory;
    dram_analysis(
        &planned.inputs,
        mem.dram_bandwidth,
        mem.bytes_per_word,
        &config.dram,
    )
}

/// §IV: storage accounting for the compressed filter operand.
fn sparse_storage(
    config: &ScaleSimConfig,
    name: &str,
    pattern: &SparsityPattern,
    n_cols: usize,
) -> SparseReportRow {
    let bits_per_value = config.core.memory.bytes_per_word * 8;
    SparseReportRow::new(name, pattern, n_cols, config.sparse_format, bits_per_value)
}

/// §VII: converts the activity counters of the preceding stages into an
/// Accelergy-style energy report.
fn energy(
    config: &ScaleSimConfig,
    computed: &Computed,
    dram: Option<&DramAnalysis>,
) -> EnergyReport {
    let (report, cores) = (&computed.report, computed.part.cores);
    let sram = computed.planned.sram();
    let total_cycles = dram.map_or(report.memory.total_cycles, |d| d.summary.total_cycles);
    // With a shared L2, duplicated operand partitions are fetched
    // from DRAM once and fanned out over the NoC; scale the
    // per-core DRAM reads down by the measured duplication factor.
    let dram_read_scale = match &computed.part.l2 {
        Some(l2) if cores > 1 => {
            let distinct = (l2.required_words / 2).max(1) as f64;
            (distinct / l2.l1_fill_words.max(1) as f64).min(1.0)
        }
        _ => 1.0,
    };
    let activity = LayerActivity {
        total_cycles,
        macs: report.compute.macs,
        utilization: report.compute.utilization,
        ifmap_sram_reads: sram.ifmap_reads,
        ifmap_sram_repeats: sram.ifmap_repeat_reads,
        filter_sram_reads: sram.filter_reads,
        filter_sram_repeats: sram.filter_repeat_reads,
        ofmap_sram_accesses: sram.ofmap_reads + sram.ofmap_writes,
        ofmap_sram_repeats: sram.ofmap_repeat_accesses,
        dram_reads: (report.memory.total_dram_reads() as f64 * dram_read_scale) as u64,
        dram_writes: report.memory.total_dram_writes(),
        // Per-core share: the counts are replicated across cores
        // below, which restores the grid total.
        noc_words: computed.part.noc_words / cores.max(1) as u64,
    };
    let arr = config.core.array;
    let arch = config.arch_spec();
    let model = EnergyModel::eyeriss_65nm(arch);
    let ports = (arr.rows() as u64, arr.cols() as u64, arr.cols() as u64);
    // Idle PEs hold their operands (constant-input switching) rather
    // than being clock-gated: the paper's Table V / Fig. 15 energies
    // grow with array size at fixed work, which requires a
    // significant per-idle-PE-cycle cost.
    let mut counts = ActionCounts::from_layer(&activity, arch.num_pes() as u64, ports, false);
    // Symmetric cores: scale all activity by the core count.
    let single = counts;
    for _ in 1..cores {
        counts.merge(&single);
    }
    model.evaluate(&counts, total_cycles)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sparse::NmRatio;
    use scalesim_systolic::{ArrayShape, Dataflow, MemoryConfig, SimConfig};

    fn small_config() -> ScaleSimConfig {
        let mut config = ScaleSimConfig::default();
        config.core = SimConfig::builder()
            .array(ArrayShape::new(8, 8))
            .dataflow(Dataflow::WeightStationary)
            .build();
        config.core.memory = MemoryConfig::from_kilobytes(16, 16, 8, 2);
        config
    }

    fn full_config() -> ScaleSimConfig {
        let mut full = small_config();
        full.sparsity = Some(SparsityMode::LayerWise(NmRatio::new(2, 4).unwrap()));
        full.enable_dram = true;
        full.enable_layout = true;
        full.enable_energy = true;
        full
    }

    fn stage_names(sim: &ScaleSim) -> Vec<&'static str> {
        sim.stage_profile().iter().map(|t| t.stage).collect()
    }

    #[test]
    fn builder_selects_stages_from_config() {
        assert_eq!(stage_names(&ScaleSim::new(small_config())), ["compute"]);
        assert_eq!(
            stage_names(&ScaleSim::new(full_config())),
            ["sparsify", "compute", "dram", "layout", "sparse", "energy"]
        );
        let mut dram_only = small_config();
        dram_only.enable_dram = true;
        assert_eq!(stage_names(&ScaleSim::new(dram_only)), ["compute", "dram"]);
    }

    #[test]
    fn run_layer_produces_a_complete_result() {
        let mut config = small_config();
        config.enable_energy = true;
        let r = ScaleSim::new(config)
            .run_layer("l", GemmShape::new(32, 32, 32), &CancelToken::never())
            .unwrap();
        assert!(r.total_cycles() > 0);
        assert!(r.energy.is_some() && r.dram.is_none() && r.layout.is_none());
        assert!(r.sparse.is_none() && r.gemm == r.dense_gemm);

        let r = ScaleSim::new(full_config())
            .run_layer("l", GemmShape::new(32, 32, 32), &CancelToken::never())
            .unwrap();
        assert!(r.energy.is_some() && r.dram.is_some() && r.layout.is_some());
        assert!(r.sparse.is_some() && r.gemm.k == 16);
    }

    #[test]
    fn profiler_counts_every_stage_once_per_layer() {
        // No opt-in: the totals are always on, and exactly the enabled
        // stages — the ones `stage_profile` lists — ever run.
        for config in [small_config(), full_config()] {
            let sim = ScaleSim::new(config);
            for i in 0..3 {
                sim.run_gemm(&format!("l{i}"), GemmShape::new(16, 16, 16));
            }
            let profile = sim.stage_profile();
            for t in &profile {
                assert_eq!(t.calls, 3, "{}", t.stage);
            }
            let ran = sim.totals.snapshot();
            assert_eq!(
                ran.iter().filter(|row| row.1 > 0).count(),
                profile.len(),
                "a disabled stage ran: {ran:?}"
            );
            // The compute stage does the heavy lifting; it cannot be free.
            assert!(profile.iter().any(|t| t.stage == "compute" && t.nanos > 0));
        }
    }

    #[test]
    fn a_clone_and_its_original_add_to_the_same_totals() {
        let sim = ScaleSim::new(small_config());
        let clone = sim.clone();
        sim.run_gemm("a", GemmShape::new(16, 16, 16));
        clone.run_gemm("b", GemmShape::new(16, 16, 16));
        assert_eq!(sim.stage_profile(), clone.stage_profile());
        assert_eq!(sim.stage_profile()[0].calls, 2);
        // A separately constructed engine starts its own table.
        assert_eq!(ScaleSim::new(small_config()).stage_profile()[0].calls, 0);
    }

    #[test]
    fn an_expired_token_abandons_the_layer_whole() {
        let sim = ScaleSim::new(full_config());
        let dead = CancelToken::after_ms(0);
        let gemm = GemmShape::new(16, 16, 16);
        assert!(sim.run_layer("l", gemm, &dead).is_none());
        assert!(sim.stage_profile().iter().all(|t| t.calls == 0));

        // The check sits in front of every stage, not only the first:
        // a token that dies mid-layer stops the next stage from starting
        // (its body never runs, its row never counts).
        let live = CancelToken::after_ms(600_000);
        assert_eq!(sim.stage(Stage::Compute, &live, || 7), Some(7));
        let entered = sim.stage(Stage::Dram, &dead, || unreachable!("dram ran"));
        assert_eq!(entered, None::<()>);
        let calls: Vec<_> = sim.stage_profile().iter().map(|t| t.calls).collect();
        assert_eq!(calls, [0, 1, 0, 0, 0, 0]);
    }
}
