//! The staged per-layer execution pipeline.
//!
//! SCALE-Sim v3's headline claim is *modularity*: sparsity, multi-core
//! partitioning, DRAM, layout and energy are independent features
//! composed per layer. This module makes that composition explicit. A
//! layer flows through an ordered list of [`LayerStage`]s, each reading
//! and extending one shared [`LayerCtx`]:
//!
//! ```text
//!           ┌──────────┐ ┌─────────────────┐ ┌──────┐ ┌────────┐ ┌────────┐ ┌────────┐
//! GemmShape │ sparsify │→│ compute         │→│ dram │→│ layout │→│ sparse │→│ energy │→ LayerResult
//!           │   (§IV)  │ │ partition+plan  │ │ (§V) │ │ (§VI)  │ │ store  │ │ (§VII) │
//!           └──────────┘ │ +timing (§II-III)│ └──────┘ └────────┘ └────────┘ └────────┘
//!                        └─────────────────┘
//! ```
//!
//! A [`PipelineBuilder`] assembles the stage list **once per
//! configuration** from a [`ScaleSimConfig`] — disabled features simply
//! contribute no stage — and every driver (single runs, whole
//! topologies, the design-space sweep executor) executes the same
//! [`LayerPipeline`] instead of hand-rolling its own feature wiring.
//!
//! ## Writing a new stage
//!
//! Implement [`LayerStage`]: read your inputs from the [`LayerCtx`]
//! (e.g. the planned layer left by the compute stage), write your
//! product back into it, and append the stage with
//! [`PipelineBuilder::with_stage`]. Stages run in list order on one
//! layer at a time; they must be `Send + Sync` because whole-topology
//! runs execute layers concurrently.
//!
//! ## Profiling
//!
//! Built with [`PipelineBuilder::profile_stages`], the pipeline keeps
//! per-stage call counts and cumulative wall-clock time (atomic, so the
//! parallel topology path aggregates for free); `scalesim
//! --profile-stages` prints the table.

use crate::cancel::CancelToken;
use crate::config::{ScaleSimConfig, SparsityMode};
use crate::dram::{dram_analysis, DramAnalysis};
use crate::layout_analysis::{layout_slowdown_for_gemm, LayoutAnalysis};
use crate::result::LayerResult;
use scalesim_energy::{ActionCounts, ArchSpec, EnergyModel, EnergyReport, LayerActivity};
use scalesim_multicore::{partition_layer, L2Report};
use scalesim_obs as obs;
use scalesim_sparse::{SparseReport, SparseReportRow, SparsityPattern};
use scalesim_systolic::{
    CoreSim, Dataflow, GemmShape, IdealBandwidthStore, LayerReport, PlanCache, PlannedLayer,
};
use std::sync::Arc;

/// Everything the stages of one layer's execution share.
///
/// Created empty (just the layer name and dense GEMM) by
/// [`LayerPipeline::run_layer`]; each stage fills in its slice. Optional
/// slots stay `None` when the owning feature is disabled.
#[derive(Debug, Clone)]
pub struct LayerCtx {
    /// Layer name.
    pub name: String,
    /// The dense GEMM before any sparsity compression.
    pub dense_gemm: GemmShape,
    /// The GEMM actually executed (rewritten by the sparsify stage).
    pub gemm: GemmShape,
    /// Sparsity pattern (sparsify stage; `None` when dense).
    pub pattern: Option<SparsityPattern>,
    /// Cycle-accurate per-core report (compute stage).
    pub report: Option<LayerReport>,
    /// The representative core's fetch plan (compute stage); input to
    /// the DRAM replay stage.
    pub planned: Option<Arc<PlannedLayer>>,
    /// Shared-L2 analysis (compute stage, multi-core with L2 only).
    pub l2: Option<L2Report>,
    /// Cores used (compute stage; 1 = single core).
    pub cores: usize,
    /// L2→L1 NoC words (compute stage; multi-core only).
    pub noc_words: u64,
    /// Three-step DRAM analysis (dram stage).
    pub dram: Option<DramAnalysis>,
    /// Bank-conflict analysis (layout stage).
    pub layout: Option<LayoutAnalysis>,
    /// Storage-format report row (sparse-storage stage).
    pub sparse: Option<SparseReportRow>,
    /// Energy report (energy stage).
    pub energy: Option<EnergyReport>,
}

impl LayerCtx {
    /// A fresh context for one layer; `gemm` starts equal to the dense
    /// GEMM until the sparsify stage rewrites it.
    pub fn new(name: impl Into<String>, dense_gemm: GemmShape) -> Self {
        Self {
            name: name.into(),
            dense_gemm,
            gemm: dense_gemm,
            pattern: None,
            report: None,
            planned: None,
            l2: None,
            cores: 1,
            noc_words: 0,
            dram: None,
            layout: None,
            sparse: None,
            energy: None,
        }
    }

    /// Collapses the context into the layer's final result.
    ///
    /// # Panics
    ///
    /// Panics if the compute stage has not run (no report).
    pub fn into_result(self) -> LayerResult {
        LayerResult {
            name: self.name,
            gemm: self.gemm,
            dense_gemm: self.dense_gemm,
            report: self
                .report
                .expect("pipeline must include the compute stage"),
            dram: self.dram,
            layout: self.layout,
            energy: self.energy,
            sparse: self.sparse,
            cores: self.cores,
            noc_words: self.noc_words,
        }
    }
}

/// The per-configuration environment stages execute against: the full
/// configuration plus the plan cache shared across layers (and sweeps).
#[derive(Debug, Clone)]
pub struct StageEnv {
    config: ScaleSimConfig,
    plan_cache: Arc<PlanCache>,
}

impl StageEnv {
    /// The configuration in use.
    pub fn config(&self) -> &ScaleSimConfig {
        &self.config
    }

    /// The shared plan cache.
    pub fn plan_cache(&self) -> &Arc<PlanCache> {
        &self.plan_cache
    }

    /// The dataflow layers actually run with: the paper fixes
    /// weight-stationary for all sparsity simulations.
    pub fn effective_dataflow(&self) -> Dataflow {
        if self.config.sparsity.is_some() {
            Dataflow::WeightStationary
        } else {
            self.config.core.dataflow
        }
    }
}

/// One stage of the per-layer pipeline.
///
/// Stages are stateless w.r.t. layers — all per-layer state lives in the
/// [`LayerCtx`] — and must be `Send + Sync` because topology runs
/// execute layers concurrently on the worker pool.
pub trait LayerStage: Send + Sync {
    /// Short stable name (shown by `--profile-stages`).
    fn name(&self) -> &'static str;
    /// Executes the stage on one layer.
    fn run(&self, env: &StageEnv, ctx: &mut LayerCtx);
}

/// §IV: rewrites the GEMM to its sparsity-compressed form and records
/// the pattern for the storage stage.
#[derive(Debug, Clone, Copy, Default)]
pub struct SparsifyStage;

impl LayerStage for SparsifyStage {
    fn name(&self) -> &'static str {
        "sparsify"
    }

    fn run(&self, env: &StageEnv, ctx: &mut LayerCtx) {
        let gemm = ctx.dense_gemm;
        let seed_tag = ctx.name.bytes().map(u64::from).sum::<u64>();
        let (gemm, pattern) = match env.config.sparsity {
            None => (gemm, None),
            Some(SparsityMode::LayerWise(ratio)) => {
                let pattern = SparsityPattern::layer_wise(gemm.k, ratio);
                let kp = pattern.effective_k().max(1);
                (GemmShape::new(gemm.m, gemm.n, kp), Some(pattern))
            }
            Some(SparsityMode::RowWise { block, seed }) => {
                let pattern = SparsityPattern::row_wise(gemm.k, block, seed ^ seed_tag);
                let kp = pattern.effective_k().max(1);
                (GemmShape::new(gemm.m, gemm.n, kp), Some(pattern))
            }
        };
        ctx.gemm = gemm;
        ctx.pattern = pattern;
    }
}

/// §II–III: partitions the GEMM across the core grid (when multi-core),
/// plans the representative core's fetch schedule through the shared
/// plan cache, and times it against ideal-bandwidth memory.
#[derive(Debug, Clone, Copy, Default)]
pub struct ComputeStage;

impl LayerStage for ComputeStage {
    fn name(&self) -> &'static str {
        "compute"
    }

    fn run(&self, env: &StageEnv, ctx: &mut LayerCtx) {
        let mut core_cfg = env.config.core.clone();
        core_cfg.dataflow = env.effective_dataflow();
        let (sub_gemm, cores, l2, noc_words, bandwidth) = match &env.config.multicore {
            None => (ctx.gemm, 1, None, 0, core_cfg.memory.dram_bandwidth),
            Some(mc) => {
                let part = partition_layer(
                    core_cfg.dataflow,
                    mc.scheme,
                    ctx.gemm,
                    mc.grid,
                    mc.l2,
                    core_cfg.memory.dram_bandwidth,
                );
                (
                    part.sub_gemm,
                    part.cores,
                    part.l2,
                    part.noc_words,
                    part.per_core_bandwidth,
                )
            }
        };
        core_cfg.memory.dram_bandwidth = bandwidth;
        let sim = CoreSim::new(core_cfg).with_plan_cache(Arc::clone(&env.plan_cache));
        let planned = sim.plan_gemm_shared(sub_gemm);
        let mut store = IdealBandwidthStore::new(bandwidth);
        ctx.report = Some(planned.report(&ctx.name, sub_gemm, &mut store));
        ctx.planned = Some(planned);
        ctx.l2 = l2;
        ctx.cores = cores;
        ctx.noc_words = noc_words;
    }
}

/// §V: replays the representative core's demand trace through the
/// cycle-accurate DRAM model and re-times with the measured latencies.
#[derive(Debug, Clone, Copy, Default)]
pub struct DramStage;

impl LayerStage for DramStage {
    fn name(&self) -> &'static str {
        "dram"
    }

    fn run(&self, env: &StageEnv, ctx: &mut LayerCtx) {
        let planned = ctx
            .planned
            .as_ref()
            .expect("the compute stage must precede the dram stage");
        ctx.dram = Some(dram_analysis(
            &planned.inputs,
            env.config.core.memory.dram_bandwidth,
            env.config.core.memory.bytes_per_word,
            &env.config.dram,
        ));
    }
}

/// §VI: costs the demand stream under the banked on-chip layout model.
#[derive(Debug, Clone, Copy, Default)]
pub struct LayoutStage;

impl LayerStage for LayoutStage {
    fn name(&self) -> &'static str {
        "layout"
    }

    fn run(&self, env: &StageEnv, ctx: &mut LayerCtx) {
        ctx.layout = Some(layout_slowdown_for_gemm(
            env.config.core.array,
            env.effective_dataflow(),
            ctx.gemm,
            &env.config.layout,
        ));
    }
}

/// §IV: storage accounting for the compressed filter operand.
#[derive(Debug, Clone, Copy, Default)]
pub struct SparseStorageStage;

impl LayerStage for SparseStorageStage {
    fn name(&self) -> &'static str {
        "sparse"
    }

    fn run(&self, env: &StageEnv, ctx: &mut LayerCtx) {
        if let Some(pattern) = &ctx.pattern {
            let mut rep = SparseReport::new();
            rep.add_layer(
                &ctx.name,
                pattern,
                ctx.dense_gemm.n,
                env.config.sparse_format,
                env.config.core.memory.bytes_per_word * 8,
            );
            ctx.sparse = Some(rep.rows()[0].clone());
        }
    }
}

/// §VII: converts the activity counters of the preceding stages into an
/// Accelergy-style energy report.
#[derive(Debug, Clone, Copy, Default)]
pub struct EnergyStage;

impl LayerStage for EnergyStage {
    fn name(&self) -> &'static str {
        "energy"
    }

    fn run(&self, env: &StageEnv, ctx: &mut LayerCtx) {
        let report = ctx
            .report
            .as_ref()
            .expect("the compute stage must precede the energy stage");
        let total_cycles = ctx
            .dram
            .as_ref()
            .map(|d| d.summary.total_cycles)
            .unwrap_or(report.memory.total_cycles);
        // With a shared L2, duplicated operand partitions are fetched
        // from DRAM once and fanned out over the NoC; scale the
        // per-core DRAM reads down by the measured duplication factor.
        let dram_read_scale = match &ctx.l2 {
            Some(l2) if ctx.cores > 1 => {
                let distinct = (l2.required_words / 2).max(1) as f64;
                (distinct / l2.l1_fill_words.max(1) as f64).min(1.0)
            }
            _ => 1.0,
        };
        let activity = LayerActivity {
            total_cycles,
            macs: report.compute.macs,
            utilization: report.compute.utilization,
            ifmap_sram_reads: report.sram.ifmap_reads,
            ifmap_sram_repeats: report.sram.ifmap_repeat_reads,
            filter_sram_reads: report.sram.filter_reads,
            filter_sram_repeats: report.sram.filter_repeat_reads,
            ofmap_sram_accesses: report.sram.ofmap_reads + report.sram.ofmap_writes,
            ofmap_sram_repeats: report.sram.ofmap_repeat_accesses,
            dram_reads: (report.memory.total_dram_reads() as f64 * dram_read_scale) as u64,
            dram_writes: report.memory.total_dram_writes(),
            // Per-core share: the counts are replicated across cores
            // below, which restores the grid total.
            noc_words: ctx.noc_words / ctx.cores.max(1) as u64,
        };
        let arr = env.config.core.array;
        let mem = &env.config.core.memory;
        let arch = ArchSpec::new(
            arr.rows(),
            arr.cols(),
            mem.ifmap_words * mem.bytes_per_word,
            mem.filter_words * mem.bytes_per_word,
            mem.ofmap_words * mem.bytes_per_word,
        );
        let model = EnergyModel::eyeriss_65nm(arch);
        let ports = (arr.rows() as u64, arr.cols() as u64, arr.cols() as u64);
        // Idle PEs hold their operands (constant-input switching) rather
        // than being clock-gated: the paper's Table V / Fig. 15 energies
        // grow with array size at fixed work, which requires a
        // significant per-idle-PE-cycle cost.
        let mut counts = ActionCounts::from_layer(&activity, arch.num_pes() as u64, ports, false);
        if ctx.cores > 1 {
            // Symmetric cores: scale all activity by the core count.
            let single = counts;
            for _ in 1..ctx.cores {
                counts.merge(&single);
            }
        }
        ctx.energy = Some(model.evaluate(&counts, total_cycles));
    }
}

/// One stage's aggregated timing, as reported by
/// [`LayerPipeline::profile`].
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

/// An immutable, shareable per-configuration pipeline: the stage list
/// plus the environment ([`StageEnv`]) they execute against.
pub struct LayerPipeline {
    env: StageEnv,
    stages: Vec<Box<dyn LayerStage>>,
    /// Per-stage call/time totals, fed by the same spans that emit
    /// trace events — one timing path for profiling and tracing.
    profiler: Option<obs::Totals>,
}

impl std::fmt::Debug for LayerPipeline {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LayerPipeline")
            .field("stages", &self.stage_names())
            .field("profiled", &self.profiler.is_some())
            .finish()
    }
}

impl LayerPipeline {
    /// The environment the stages run against.
    pub fn env(&self) -> &StageEnv {
        &self.env
    }

    /// The stage names, in execution order.
    pub fn stage_names(&self) -> Vec<&'static str> {
        self.stages.iter().map(|s| s.name()).collect()
    }

    /// Runs one layer through every stage, in order, checking `cancel`
    /// **before** each stage. Returns `None` if the token expired — the
    /// layer is abandoned whole (a partially-staged context is never
    /// surfaced, because downstream stages and [`LayerCtx::into_result`]
    /// assume the compute product exists). Under
    /// [`CancelToken::never`] the layer always completes.
    pub fn run_layer(
        &self,
        name: &str,
        dense_gemm: GemmShape,
        cancel: &CancelToken,
    ) -> Option<LayerResult> {
        let mut ctx = LayerCtx::new(name, dense_gemm);
        for (index, stage) in self.stages.iter().enumerate() {
            if cancel.expired() {
                return None;
            }
            let _span = match &self.profiler {
                None => obs::span(obs::Category::Pipeline, stage.name()),
                Some(totals) => obs::span_for(obs::Category::Pipeline, stage.name(), totals, index),
            };
            stage.run(&self.env, &mut ctx);
        }
        Some(ctx.into_result())
    }

    /// The per-stage timings accumulated so far (None unless built with
    /// [`PipelineBuilder::profile_stages`]).
    pub fn profile(&self) -> Option<Vec<StageTiming>> {
        let totals = self.profiler.as_ref()?;
        Some(
            totals
                .snapshot()
                .into_iter()
                .map(|(stage, calls, nanos)| StageTiming {
                    stage,
                    calls,
                    nanos,
                })
                .collect(),
        )
    }
}

/// Assembles a [`LayerPipeline`] from a configuration: enabled features
/// contribute their stage, disabled ones are simply absent.
pub struct PipelineBuilder {
    config: ScaleSimConfig,
    plan_cache: Option<Arc<PlanCache>>,
    profile: bool,
    extra: Vec<Box<dyn LayerStage>>,
}

impl PipelineBuilder {
    /// Starts a builder for `config`.
    pub fn new(config: ScaleSimConfig) -> Self {
        Self {
            config,
            plan_cache: None,
            profile: false,
            extra: Vec::new(),
        }
    }

    /// Shares an existing plan cache (e.g. one cache for a whole sweep
    /// grid) instead of creating a private one.
    pub fn plan_cache(mut self, cache: Arc<PlanCache>) -> Self {
        self.plan_cache = Some(cache);
        self
    }

    /// Enables per-stage call/time accounting (`--profile-stages`).
    pub fn profile_stages(mut self, on: bool) -> Self {
        self.profile = on;
        self
    }

    /// Appends a custom stage after the built-in ones.
    pub fn with_stage(mut self, stage: Box<dyn LayerStage>) -> Self {
        self.extra.push(stage);
        self
    }

    /// Builds the pipeline: `sparsify? → compute → dram? → layout? →
    /// sparse-storage? → energy?` plus any custom stages.
    pub fn build(self) -> LayerPipeline {
        let mut stages: Vec<Box<dyn LayerStage>> = Vec::new();
        if self.config.sparsity.is_some() {
            stages.push(Box::new(SparsifyStage));
        }
        stages.push(Box::new(ComputeStage));
        if self.config.enable_dram {
            stages.push(Box::new(DramStage));
        }
        if self.config.enable_layout {
            stages.push(Box::new(LayoutStage));
        }
        if self.config.sparsity.is_some() {
            stages.push(Box::new(SparseStorageStage));
        }
        if self.config.enable_energy {
            stages.push(Box::new(EnergyStage));
        }
        stages.extend(self.extra);
        let profiler = self.profile.then(|| {
            let names: Vec<&'static str> = stages.iter().map(|s| s.name()).collect();
            obs::Totals::new(&names)
        });
        LayerPipeline {
            env: StageEnv {
                config: self.config,
                plan_cache: self
                    .plan_cache
                    .unwrap_or_else(|| Arc::new(PlanCache::new())),
            },
            stages,
            profiler,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scalesim_sparse::NmRatio;
    use scalesim_systolic::{ArrayShape, MemoryConfig, SimConfig};

    fn small_config() -> ScaleSimConfig {
        let mut config = ScaleSimConfig::default();
        config.core = SimConfig::builder()
            .array(ArrayShape::new(8, 8))
            .dataflow(Dataflow::WeightStationary)
            .build();
        config.core.memory = MemoryConfig::from_kilobytes(16, 16, 8, 2);
        config
    }

    #[test]
    fn builder_selects_stages_from_config() {
        let dense = PipelineBuilder::new(small_config()).build();
        assert_eq!(dense.stage_names(), ["compute"]);

        let mut full = small_config();
        full.sparsity = Some(SparsityMode::LayerWise(NmRatio::new(2, 4).unwrap()));
        full.enable_dram = true;
        full.enable_layout = true;
        full.enable_energy = true;
        let pipeline = PipelineBuilder::new(full).build();
        assert_eq!(
            pipeline.stage_names(),
            ["sparsify", "compute", "dram", "layout", "sparse", "energy"]
        );
    }

    #[test]
    fn run_layer_produces_a_complete_result() {
        let mut config = small_config();
        config.enable_energy = true;
        let pipeline = PipelineBuilder::new(config).build();
        let r = pipeline
            .run_layer("l", GemmShape::new(32, 32, 32), &CancelToken::never())
            .unwrap();
        assert!(r.total_cycles() > 0);
        assert!(r.energy.is_some() && r.dram.is_none() && r.layout.is_none());
    }

    #[test]
    fn profiler_counts_every_stage_once_per_layer() {
        let mut config = small_config();
        config.enable_dram = true;
        let pipeline = PipelineBuilder::new(config).profile_stages(true).build();
        for i in 0..3 {
            pipeline.run_layer(
                &format!("l{i}"),
                GemmShape::new(16, 16, 16),
                &CancelToken::never(),
            );
        }
        let profile = pipeline.profile().expect("profiling enabled");
        assert_eq!(profile.len(), 2);
        for t in &profile {
            assert_eq!(t.calls, 3, "{}", t.stage);
        }
        // The compute stage does the heavy lifting; it cannot be free.
        assert!(profile[0].nanos > 0);
    }

    #[test]
    fn custom_stage_sees_the_compute_product() {
        struct AssertStage;
        impl LayerStage for AssertStage {
            fn name(&self) -> &'static str {
                "assert"
            }
            fn run(&self, _env: &StageEnv, ctx: &mut LayerCtx) {
                assert!(ctx.report.is_some(), "compute ran first");
            }
        }
        let pipeline = PipelineBuilder::new(small_config())
            .with_stage(Box::new(AssertStage))
            .build();
        assert_eq!(pipeline.stage_names(), ["compute", "assert"]);
        pipeline.run_layer("l", GemmShape::new(8, 8, 8), &CancelToken::never());
    }
}
