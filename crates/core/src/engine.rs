//! The SCALE-Sim v3 engine: one configuration, run layer by layer.
//!
//! [`ScaleSim`] is one concrete, cloneable type: a configuration, the
//! (possibly shared) [`PlanCache`], and an always-on per-stage totals
//! table behind an [`Arc`], so clones aggregate into one profile. What
//! happens to a layer is `run_layer` (see
//! [`crate::pipeline`]); this module drives it: single layers through
//! [`run_gemm`](ScaleSim::run_gemm), whole topologies streamed through a
//! [`ResultSink`] with bounded result memory
//! (`run_topology_with`) or collected
//! into a [`RunResult`] ([`run_topology`](ScaleSim::run_topology)).

use crate::cancel::CancelToken;
use crate::config::ScaleSimConfig;
use crate::energy::{AreaBreakdown, AreaConfig, AreaTable};
use crate::pipeline::{StageTiming, STAGES};
use crate::result::{LayerResult, RunResult};
use crate::sink::ResultSink;
use scalesim_obs::Totals;
use scalesim_systolic::{parallel_map_streamed, GemmShape, PlanCache, Topology};
use std::sync::Arc;

/// Block size of the streaming topology runner: at most this many layer
/// results are buffered at once, regardless of topology length.
pub(crate) const STREAM_BLOCK: usize = 64;

/// Statistics of a streaming topology run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct StreamStats {
    /// Layers executed.
    pub(crate) layers: usize,
    /// Peak number of simultaneously buffered layer results — bounded by
    /// [`STREAM_BLOCK`], independent of the layer count.
    pub(crate) peak_buffered: usize,
}

/// The integrated simulator.
#[derive(Debug, Clone)]
pub struct ScaleSim {
    config: ScaleSimConfig,
    plan_cache: Arc<PlanCache>,
    /// Per-stage call/time totals (one row per [`STAGES`] entry), fed by
    /// [`run_layer`](Self::run_layer)'s spans — the same ones that emit
    /// trace events; shared by clones.
    pub(crate) totals: Arc<Totals>,
}

impl ScaleSim {
    /// Creates the simulator with a plan cache of its own.
    ///
    /// # Panics
    ///
    /// Panics if the core configuration is invalid; the non-panicking
    /// form is `with_cache` (what the
    /// request/response facade uses).
    pub fn new(config: ScaleSimConfig) -> Self {
        Self::with_cache(config, Arc::new(PlanCache::new()))
            .unwrap_or_else(|e| panic!("invalid configuration: {e}"))
    }

    /// Creates the simulator on a shared plan cache, so *several*
    /// simulators — every request of a server, every configuration of a
    /// design-space sweep — plan each distinct `(array, dataflow, GEMM,
    /// scratchpad)` shape once between them. Safe across arbitrary
    /// configurations: the cache key carries everything a plan depends
    /// on.
    ///
    /// # Errors
    ///
    /// Returns the validation failure of `config.core`.
    pub(crate) fn with_cache(
        config: ScaleSimConfig,
        plan_cache: Arc<PlanCache>,
    ) -> Result<Self, scalesim_systolic::SimError> {
        config.core.validate()?;
        Ok(Self {
            config,
            plan_cache,
            totals: Arc::new(Totals::new(&STAGES.map(|(name, _)| name))),
        })
    }

    /// The plan cache shared by this simulator's runs.
    pub(crate) fn plan_cache(&self) -> &Arc<PlanCache> {
        &self.plan_cache
    }

    /// The configuration in use.
    pub fn config(&self) -> &ScaleSimConfig {
        &self.config
    }

    /// The calls and wall-clock time each stage has accumulated so far
    /// across this simulator and its clones — always on, one row per
    /// stage the configuration enables, in execution order (the
    /// `--profile-stages` flag of the CLI prints it).
    pub fn stage_profile(&self) -> Vec<StageTiming> {
        let rows = self.totals.snapshot().into_iter().zip(STAGES);
        let enabled = rows.filter(|(_, (_, enabled))| enabled(&self.config));
        let timing = |((stage, calls, nanos), _)| StageTiming {
            stage,
            calls,
            nanos,
        };
        enabled.map(timing).collect()
    }

    /// Estimates the configured accelerator's silicon area (Accelergy's
    /// area reporting): PE array + SRAMs from the core configuration, bank
    /// count from the layout feature when enabled, DRAM controllers from
    /// the DRAM feature when enabled.
    pub(crate) fn area_report(&self) -> AreaBreakdown {
        let config = self.config();
        let mut cfg = AreaConfig::new(config.arch_spec());
        if config.enable_layout {
            cfg = cfg.with_sram_banks(config.layout.num_banks);
        }
        // Even the v2 ideal-bandwidth model implies one memory interface;
        // the DRAM feature's channel count applies when enabled.
        if config.enable_dram {
            cfg = cfg.with_dram_channels(config.dram.channels);
        }
        cfg.estimate(&AreaTable::eyeriss_65nm())
    }

    /// Runs one GEMM layer through the enabled stages.
    pub fn run_gemm(&self, name: &str, dense_gemm: GemmShape) -> LayerResult {
        self.run_layer(name, dense_gemm, &CancelToken::never())
            .expect("a never-token cannot expire")
    }

    /// Streams a whole topology through `sink` with **bounded result
    /// memory**: layers execute concurrently on the shared scheduler
    /// (control the size with `SCALESIM_THREADS`) in blocks of
    /// [`STREAM_BLOCK`], and each block is pushed into the sink in layer
    /// order before the next begins. The sink observes exactly the
    /// sequence a serial run would produce.
    ///
    /// The run is abandoned with the typed `deadline` error once
    /// `cancel` expires (callers without a deadline pass
    /// [`CancelToken::never`]). Cancellation is checked at two levels:
    /// the scheduler polls the token before *claiming* each layer (an
    /// expired request stops taking work off the shared pool
    /// immediately), and [`run_layer`](Self::run_layer) checks it before
    /// every stage of a layer already in flight. Layers already finished
    /// when the deadline passes may still reach the sink (the caller
    /// discards partial output on error), and in-flight workers complete
    /// their current stage before stopping.
    ///
    /// # Errors
    ///
    /// `Deadline` when the token expired mid-run.
    pub(crate) fn run_topology_with(
        &self,
        topology: &Topology,
        sink: &mut dyn ResultSink,
        cancel: &CancelToken,
    ) -> Result<StreamStats, scalesim_api::SimError> {
        let peak = parallel_map_streamed(
            topology.layers(),
            STREAM_BLOCK,
            &|| cancel.expired(),
            |_, layer| self.run_layer(layer.name(), layer.gemm(), cancel),
            |_, result| {
                if let Some(result) = result {
                    sink.layer(result);
                }
            },
        );
        cancel.check()?;
        Ok(StreamStats {
            layers: topology.len(),
            peak_buffered: peak,
        })
    }

    /// Runs a whole topology, collecting every layer.
    ///
    /// Layers execute concurrently on the shared scheduler (control the
    /// size with `SCALESIM_THREADS`) sharing this simulator's plan cache;
    /// results come back in layer order, identical to serial execution.
    pub fn run_topology(&self, topology: &Topology) -> RunResult {
        let mut layers = Vec::with_capacity(topology.len());
        self.run_topology_with(topology, &mut layers, &CancelToken::never())
            .expect("a never-token cannot expire");
        RunResult { layers }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{DramIntegration, MultiCoreIntegration, SparsityMode};
    use crate::multicore::{L2Config, PartitionGrid, PartitionScheme};
    use crate::sink::RunSummary;
    use crate::sparse::NmRatio;
    use scalesim_systolic::{ArrayShape, Dataflow, MemoryConfig, SimConfig};

    fn small_core() -> SimConfig {
        let mut cfg = SimConfig::builder()
            .array(ArrayShape::new(8, 8))
            .dataflow(Dataflow::WeightStationary)
            .build();
        cfg.memory = MemoryConfig::from_kilobytes(16, 16, 8, 2);
        cfg
    }

    #[test]
    fn v2_parity_run() {
        let mut config = ScaleSimConfig::default();
        config.core = small_core();
        let sim = ScaleSim::new(config);
        let r = sim.run_gemm("g", GemmShape::new(32, 32, 32));
        assert!(r.dram.is_none() && r.layout.is_none() && r.energy.is_none());
        assert_eq!(r.total_cycles(), r.report.memory.total_cycles);
    }

    #[test]
    fn full_pipeline_produces_all_reports() {
        let mut config = ScaleSimConfig {
            enable_dram: true,
            enable_layout: true,
            enable_energy: true,
            ..ScaleSimConfig::default()
        };
        config.core = small_core();
        config.dram = DramIntegration {
            channels: 2,
            ..Default::default()
        };
        let sim = ScaleSim::new(config);
        let r = sim.run_gemm("g", GemmShape::new(48, 48, 48));
        assert!(r.dram.is_some());
        assert!(r.layout.is_some());
        assert!(r.energy.is_some());
        let d = r.dram.as_ref().unwrap();
        assert!(d.stats.reads > 0);
        assert!(r.energy.as_ref().unwrap().total_pj() > 0.0);
    }

    #[test]
    fn sparsity_compresses_and_speeds_up() {
        let mut dense_cfg = ScaleSimConfig::default();
        dense_cfg.core = small_core();
        let dense = ScaleSim::new(dense_cfg.clone()).run_gemm("g", GemmShape::new(64, 64, 128));
        let mut sparse_cfg = dense_cfg;
        sparse_cfg.sparsity = Some(SparsityMode::LayerWise(NmRatio::new(1, 4).unwrap()));
        let sparse = ScaleSim::new(sparse_cfg).run_gemm("g", GemmShape::new(64, 64, 128));
        assert_eq!(sparse.gemm.k, 32, "1:4 compresses K to a quarter");
        assert!(sparse.total_cycles() < dense.total_cycles());
        let row = sparse.sparse.as_ref().unwrap();
        assert!(row.new_filter_bytes() < row.original_bytes);
    }

    #[test]
    fn multicore_reduces_latency_and_reports_noc() {
        let mut single = ScaleSimConfig::default();
        single.core = small_core();
        let r1 = ScaleSim::new(single.clone()).run_gemm("g", GemmShape::new(128, 128, 128));
        let mut multi = single;
        multi.multicore = Some(MultiCoreIntegration {
            grid: PartitionGrid::new(2, 2),
            scheme: PartitionScheme::Spatial,
            l2: Some(L2Config::default()),
        });
        let r4 = ScaleSim::new(multi).run_gemm("g", GemmShape::new(128, 128, 128));
        assert!(r4.report.compute.total_compute_cycles < r1.report.compute.total_compute_cycles);
        assert_eq!(r4.cores, 4);
        assert!(r4.noc_words > 0);
    }

    #[test]
    fn topology_run_sums_layers() {
        let mut config = ScaleSimConfig::default();
        config.core = small_core();
        let topo = Topology::from_layers(
            "t",
            vec![
                scalesim_systolic::Layer::gemm_layer("a", 16, 16, 16),
                scalesim_systolic::Layer::gemm_layer("b", 24, 24, 24),
            ],
        );
        let sim = ScaleSim::new(config);
        let run = sim.run_topology(&topo);
        assert_eq!(run.layers.len(), 2);
        assert_eq!(
            run.total_cycles(),
            run.layers.iter().map(|l| l.total_cycles()).sum::<u64>()
        );
        let (name, compute) = &run.reports()[0];
        assert_eq!(*name, "COMPUTE_REPORT.csv");
        assert!(compute.contains("a,"));
    }

    #[test]
    fn energy_with_dram_uses_stall_aware_cycles() {
        let mut config = ScaleSimConfig::default();
        config.core = small_core();
        config.enable_energy = true;
        let no_dram = ScaleSim::new(config.clone()).run_gemm("g", GemmShape::new(64, 64, 64));
        config.enable_dram = true;
        let with_dram = ScaleSim::new(config).run_gemm("g", GemmShape::new(64, 64, 64));
        // DRAM stalls extend runtime → more leakage → at least as much energy.
        assert!(
            with_dram.energy.as_ref().unwrap().total_pj()
                >= no_dram.energy.as_ref().unwrap().total_pj()
        );
    }

    #[test]
    fn streaming_matches_collect_and_bounds_buffering() {
        let mut config = ScaleSimConfig::default();
        config.core = small_core();
        config.enable_energy = true;
        let layers: Vec<_> = (0..150)
            .map(|i| {
                scalesim_systolic::Layer::gemm_layer(
                    format!("l{i}"),
                    16 + (i % 3) * 8,
                    16,
                    16 + (i % 2) * 16,
                )
            })
            .collect();
        let topo = Topology::from_layers("t", layers);
        let sim = ScaleSim::new(config);
        let collected = sim.run_topology(&topo);
        let mut summary = RunSummary::new();
        let stats = sim
            .run_topology_with(&topo, &mut summary, &CancelToken::never())
            .unwrap();
        assert_eq!(stats.layers, 150);
        assert!(
            stats.peak_buffered <= STREAM_BLOCK,
            "peak {} exceeds the block bound",
            stats.peak_buffered
        );
        assert_eq!(summary.total_cycles, collected.total_cycles());
        assert_eq!(summary, collected.summary());
    }

    #[test]
    fn cancelled_topology_run_reports_deadline_and_a_live_token_matches_plain() {
        let mut config = ScaleSimConfig::default();
        config.core = small_core();
        let topo = Topology::from_layers(
            "t",
            vec![
                scalesim_systolic::Layer::gemm_layer("a", 16, 16, 16),
                scalesim_systolic::Layer::gemm_layer("b", 24, 24, 24),
            ],
        );
        let sim = ScaleSim::new(config);

        // An already-expired token abandons the run before any stage.
        let mut layers: Vec<LayerResult> = Vec::new();
        let err = sim
            .run_topology_with(&topo, &mut layers, &CancelToken::after_ms(0))
            .unwrap_err();
        assert_eq!((err.kind(), err.exit_code()), ("deadline", 124));
        assert!(layers.is_empty(), "no layer completes");
        assert_eq!(sim.stage_profile()[0].calls, 0, "nor any stage runs");

        // A generous token changes nothing: identical results to the
        // never-token runner (the byte-determinism invariant for deadline'd
        // requests that finish in time).
        let mut layers = Vec::new();
        let stats = sim
            .run_topology_with(&topo, &mut layers, &CancelToken::after_ms(600_000))
            .unwrap();
        assert_eq!(stats.layers, 2);
        let with_deadline = RunResult { layers };
        let plain = sim.run_topology(&topo);
        let digest = |run: &RunResult| {
            run.layers
                .iter()
                .map(|l| (l.name.clone(), l.total_cycles()))
                .collect::<Vec<_>>()
        };
        assert_eq!(digest(&with_deadline), digest(&plain));
    }
}
