//! Multi-chip scale-out execution: runs a topology across a fleet of
//! accelerators under a parallelization strategy, merging per-chip
//! compute (the existing [`ScaleSim`] engine) with collective
//! communication (the [`crate::collective`] models) on an overlap
//! timeline.
//!
//! The key property the implementation leans on: the strategies are
//! **symmetric** — every chip of a data- or tensor-parallel system runs
//! the *same* GEMM shard — so one per-layer simulation covers the whole
//! fleet, and repeated shapes hit the shared [`PlanCache`] exactly like
//! single-chip runs do (`scalesim serve` keeps plans warm across
//! scale-out requests too). Pipeline parallelism runs every full layer
//! once and schedules the stages analytically.
//!
//! Execution streams: shard compute runs through
//! `ScaleSim::run_topology_with` — nested layer tasks of the shared
//! scheduler, not a second pool (deterministic for any
//! `SCALESIM_THREADS`) — each finished layer is joined with its
//! collective cost in the `OverlapTimeline` (one-layer lookahead, so
//! O(1) buffered state), and every resolved row is handed to the
//! caller's closure — the service renders `SCALEOUT_REPORT.csv` from it,
//! the sweep executor ignores it.
//!
//! [`PlanCache`]: scalesim_systolic::PlanCache

use crate::cancel::CancelToken;
use crate::collective::{
    collectives, partition_stages, pipeline_total_cycles, shard_layer, CollectiveCost, Fabric,
    LayerPlan, OverlapTimeline, ScaleoutSpec, Strategy,
};
use crate::engine::ScaleSim;
use crate::result::LayerResult;
use crate::sink::{ResultSink, RunSummary};
use scalesim_systolic::{GemmShape, Layer, Topology};

/// One layer of a scale-out run: the shard every chip executed, its
/// compute cost, and the overlap-split collective that closed it.
#[derive(Debug, Clone, PartialEq)]
pub struct ScaleoutLayerRecord {
    /// Layer name.
    pub name: String,
    /// Pipeline stage (0 for data/tensor parallelism).
    pub(crate) stage: usize,
    /// The GEMM each chip ran.
    pub(crate) shard: GemmShape,
    /// Collective kind tag (`allreduce` / `allgather` / `reducescatter`
    /// / `p2p` / `none`).
    pub(crate) comm_kind: &'static str,
    /// Per-chip compute cycles of the shard (memory-aware total).
    pub(crate) compute_cycles: u64,
    /// Collective cost of the layer, cycles.
    pub(crate) comm_cycles: u64,
    /// Communication hidden under the next layer's compute.
    pub(crate) overlapped_cycles: u64,
    /// Communication left on the critical path.
    pub(crate) exposed_cycles: u64,
    /// PE utilization of the shard's compute in `[0, 1]`.
    pub(crate) utilization: f64,
}

impl ScaleoutLayerRecord {
    /// The layer's critical-path contribution: compute plus exposed
    /// communication.
    pub(crate) fn total_cycles(&self) -> u64 {
        self.compute_cycles + self.exposed_cycles
    }
}

/// Per-layer CSV row formatting of `SCALEOUT_REPORT.csv` — one source
/// of truth shared by the report and the CLI's `-v` progress lines.
pub mod scaleout_rows {
    use super::ScaleoutLayerRecord;

    /// `SCALEOUT_REPORT.csv` header.
    pub(crate) const SCALEOUT_HEADER: &str = "LayerName, Stage, ShardM, ShardN, ShardK, \
         ComputeCycles, CommKind, CommCycles, OverlappedCycles, ExposedCycles, \
         TotalCycles, Utilization\n";

    /// One `SCALEOUT_REPORT.csv` row.
    pub fn scaleout(r: &ScaleoutLayerRecord) -> String {
        format!(
            "{}, {}, {}, {}, {}, {}, {}, {}, {}, {}, {}, {:.4}\n",
            r.name,
            r.stage,
            r.shard.m,
            r.shard.n,
            r.shard.k,
            r.compute_cycles,
            r.comm_kind,
            r.comm_cycles,
            r.overlapped_cycles,
            r.exposed_cycles,
            r.total_cycles(),
            r.utilization,
        )
    }
}

/// Run-level aggregates of a scale-out execution.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct ScaleoutSummary {
    /// Chips in the system.
    pub(crate) chips: usize,
    /// The strategy that ran.
    pub(crate) strategy: Strategy,
    /// Human-readable fabric description.
    pub(crate) fabric: String,
    /// Layers executed.
    pub(crate) layers: usize,
    /// Pipeline stages used (1 for data/tensor parallelism).
    pub(crate) stages: usize,
    /// MACs of the simulated shards (one shard per layer): per-chip
    /// work under data/tensor parallelism (every chip runs the same
    /// shard), the **whole pass** under pipeline parallelism (each
    /// chip runs only its stage's layers).
    pub(crate) simulated_macs: u64,
    /// Per-chip compute cycles (sum of shard totals).
    pub(crate) compute_cycles: u64,
    /// Collective cycles obligated across all layers.
    pub(crate) comm_cycles: u64,
    /// Communication hidden under compute.
    pub(crate) overlapped_cycles: u64,
    /// Communication on the critical path.
    pub(crate) exposed_cycles: u64,
    /// Pipeline fill/drain overhead versus perfect parallelism
    /// (0 for data/tensor parallelism).
    pub(crate) bubble_cycles: u64,
    /// End-to-end critical-path cycles.
    pub(crate) total_cycles: u64,
    /// Energy of the simulated shards in mJ (0.0 when energy
    /// estimation is off): per-chip under data/tensor parallelism,
    /// whole-pass under pipeline parallelism (see
    /// [`fleet_energy_mj`](Self::fleet_energy_mj)).
    pub(crate) simulated_energy_mj: f64,
    /// L2→L1 NoC words of the per-chip runs (multi-core chips only).
    pub(crate) noc_words: u64,
    /// Compute-cycle-weighted mean PE utilization of the shards.
    pub(crate) utilization: f64,
}

impl ScaleoutSummary {
    /// Total energy the fleet burns for one pass, in mJ: under
    /// data/tensor parallelism every chip executes the simulated
    /// shard, so the per-chip energy scales by the chip count; under
    /// pipeline parallelism the simulated layers *are* the whole
    /// fleet's work (each chip runs only its stage).
    pub(crate) fn fleet_energy_mj(&self) -> f64 {
        match self.strategy {
            Strategy::PipelineParallel => self.simulated_energy_mj,
            _ => self.simulated_energy_mj * self.chips as f64,
        }
    }
}

/// Every layer's static plan — the shard each chip runs and the
/// collective it obligates — with its pipeline stage (0 unless
/// pipeline-parallel).
fn plan_layers(
    topology: &Topology,
    spec: &ScaleoutSpec,
    fabric: &Fabric,
    bytes_per_word: usize,
) -> Vec<(usize, LayerPlan)> {
    match spec.strategy {
        Strategy::DataParallel | Strategy::TensorParallel => topology
            .layers()
            .iter()
            .enumerate()
            .map(|(i, layer)| {
                let plan = shard_layer(spec.strategy, fabric, i, layer.gemm(), bytes_per_word);
                (0, plan)
            })
            .collect(),
        Strategy::PipelineParallel => {
            let weights: Vec<u64> = topology.layers().iter().map(|l| l.gemm().macs()).collect();
            let stages = partition_stages(&weights, fabric.chips());
            topology
                .layers()
                .iter()
                .enumerate()
                .map(|(i, layer)| {
                    let shard = layer.gemm();
                    // A stage's last layer ships its activations to the
                    // next chip (the final stage keeps its outputs).
                    let boundary = stages.get(i + 1).is_some_and(|&next| next != stages[i]);
                    let (comm, comm_kind) = if boundary && fabric.chips() > 1 {
                        let bytes = (shard.m * shard.n) as u64 * bytes_per_word as u64;
                        (collectives::point_to_point(fabric, bytes), "p2p")
                    } else {
                        (CollectiveCost::FREE, "none")
                    };
                    let plan = LayerPlan {
                        shard,
                        comm,
                        comm_kind,
                    };
                    (stages[i], plan)
                })
                .collect()
        }
    }
}

/// Joins streamed per-shard compute results with the planned collective
/// costs on the overlap timeline, emitting resolved records downstream.
struct JoinSink<'a> {
    plans: &'a [(usize, LayerPlan)],
    timeline: OverlapTimeline,
    pending: Option<ScaleoutLayerRecord>,
    next: usize,
    out: &'a mut dyn FnMut(ScaleoutLayerRecord),
    stage_cycles: Vec<u64>,
    /// MACs, NoC words and utilization of the shards.
    summary: RunSummary,
    /// Per-layer energy totals summed in layer order — not
    /// `summary.energy_mj()`, which merges component-wise first and
    /// rounds differently from the sweep goldens' fleet energy.
    energy_mj: f64,
}

impl JoinSink<'_> {
    fn resolve(&mut self, split: crate::collective::OverlapSplit) {
        let mut record = self.pending.take().expect("a pending layer to resolve");
        record.overlapped_cycles = split.overlapped;
        record.exposed_cycles = split.exposed;
        scalesim_obs::instant(
            scalesim_obs::Category::Collective,
            "overlap-window",
            &[
                ("overlapped_cycles", split.overlapped),
                ("exposed_cycles", split.exposed),
            ],
        );
        if let Some(slot) = self.stage_cycles.get_mut(record.stage) {
            *slot += record.total_cycles();
        }
        (self.out)(record);
    }
}

impl ResultSink for JoinSink<'_> {
    fn layer(&mut self, result: LayerResult) {
        let (stage, plan) = self.plans[self.next];
        self.next += 1;
        let compute = result.total_cycles();
        self.summary.add(&result);
        if let Some(e) = &result.energy {
            self.energy_mj += e.total_mj();
        }
        if let Some(split) = self.timeline.push(compute, plan.comm.cycles) {
            self.resolve(split);
        }
        self.pending = Some(ScaleoutLayerRecord {
            name: result.name,
            stage,
            shard: plan.shard,
            comm_kind: plan.comm_kind,
            compute_cycles: compute,
            comm_cycles: plan.comm.cycles,
            overlapped_cycles: 0,
            exposed_cycles: 0,
            utilization: result.report.compute.utilization,
        });
    }
}

/// Executes `topology` across the multi-chip system `spec` describes,
/// handing each resolved per-layer record to `sink` in layer order and
/// returning the run-level summary.
///
/// Per-shard compute runs through `sim` — and therefore through its
/// (possibly shared) plan cache — with the usual determinism guarantee:
/// records and report bytes are identical for any `SCALESIM_THREADS`.
///
/// # Errors
///
/// Returns a message naming the problem when the spec's fabric is
/// inconsistent (see [`ScaleoutSpec::fabric`]).
pub(crate) fn run_scaleout(
    sim: &ScaleSim,
    topology: &Topology,
    spec: &ScaleoutSpec,
    sink: &mut dyn FnMut(ScaleoutLayerRecord),
) -> Result<ScaleoutSummary, String> {
    let fabric = spec.fabric()?;
    let bytes_per_word = sim.config().core.memory.bytes_per_word;
    let plans = plan_layers(topology, spec, &fabric, bytes_per_word);
    let stages = plans.last().map_or(1, |(stage, _)| stage + 1);

    let shard_topology = Topology::from_layers(
        topology.name(),
        topology
            .layers()
            .iter()
            .zip(&plans)
            .map(|(layer, (_, plan))| {
                Layer::gemm_layer(layer.name(), plan.shard.m, plan.shard.n, plan.shard.k)
            })
            .collect(),
    );

    let mut join = JoinSink {
        plans: &plans,
        timeline: OverlapTimeline::new(),
        pending: None,
        next: 0,
        out: sink,
        stage_cycles: vec![0; stages],
        summary: RunSummary::new(),
        energy_mj: 0.0,
    };
    sim.run_topology_with(&shard_topology, &mut join, &CancelToken::never())
        .expect("a never-token cannot expire");
    if let Some(split) = join.timeline.finish() {
        join.resolve(split);
    }

    let (total_cycles, bubble_cycles) = match spec.strategy {
        Strategy::PipelineParallel => {
            let total = pipeline_total_cycles(&join.stage_cycles, spec.microbatches);
            let work: u64 = join.stage_cycles.iter().sum();
            let ideal = work.div_ceil(fabric.chips() as u64);
            (total, total.saturating_sub(ideal))
        }
        _ => (join.timeline.total_cycles(), 0),
    };

    Ok(ScaleoutSummary {
        chips: fabric.chips(),
        strategy: spec.strategy,
        fabric: fabric.to_string(),
        layers: topology.len(),
        stages,
        simulated_macs: join.summary.macs,
        compute_cycles: join.timeline.compute_total(),
        comm_cycles: join.timeline.comm_total(),
        overlapped_cycles: join.timeline.overlapped_total(),
        exposed_cycles: join.timeline.exposed_total(),
        bubble_cycles,
        total_cycles,
        simulated_energy_mj: join.energy_mj,
        noc_words: join.summary.noc_words,
        utilization: join.summary.utilization(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collective::FabricTag;
    use crate::config::ScaleSimConfig;
    use scalesim_systolic::{ArrayShape, MemoryConfig};

    fn sim() -> ScaleSim {
        let mut config = ScaleSimConfig::default();
        config.core.array = ArrayShape::new(8, 8);
        config.core.memory = MemoryConfig::from_kilobytes(16, 16, 8, 2);
        ScaleSim::new(config)
    }

    fn topo() -> Topology {
        Topology::from_layers(
            "t",
            vec![
                Layer::gemm_layer("a", 64, 48, 32),
                Layer::gemm_layer("b", 64, 64, 48),
                Layer::gemm_layer("c", 32, 96, 64),
                Layer::gemm_layer("d", 96, 32, 32),
            ],
        )
    }

    /// Runs `topo()` on `sim` under `spec`, collecting every record.
    fn collect(sim: &ScaleSim, spec: &ScaleoutSpec) -> (ScaleoutSummary, Vec<ScaleoutLayerRecord>) {
        let mut records = Vec::new();
        let summary = run_scaleout(sim, &topo(), spec, &mut |r| records.push(r)).unwrap();
        (summary, records)
    }

    fn spec(strategy: Strategy, chips: usize) -> ScaleoutSpec {
        ScaleoutSpec {
            chips,
            strategy,
            ..Default::default()
        }
    }

    #[test]
    fn data_parallel_shards_m_and_exposes_the_last_allreduce() {
        let (summary, records) = collect(&sim(), &spec(Strategy::DataParallel, 8));
        assert_eq!(summary.chips, 8);
        assert_eq!(summary.layers, 4);
        assert_eq!(records.len(), 4);
        for r in &records {
            assert_eq!(r.comm_kind, "allreduce");
            assert!(r.comm_cycles > 0);
        }
        // M shards to ceil(M / 8); N and K stay whole.
        assert_eq!(records[0].shard, GemmShape::new(8, 48, 32));
        // The final layer has no window to hide its all-reduce.
        let last = records.last().unwrap();
        assert_eq!(last.overlapped_cycles, 0);
        assert_eq!(last.exposed_cycles, last.comm_cycles);
        assert_eq!(
            summary.total_cycles,
            summary.compute_cycles + summary.exposed_cycles
        );
        assert_eq!(
            summary.overlapped_cycles + summary.exposed_cycles,
            summary.comm_cycles
        );
    }

    #[test]
    fn tensor_parallel_alternates_collectives() {
        let (_, records) = collect(&sim(), &spec(Strategy::TensorParallel, 4));
        let kinds: Vec<_> = records.iter().map(|r| r.comm_kind).collect();
        assert_eq!(
            kinds,
            ["allgather", "reducescatter", "allgather", "reducescatter"]
        );
        assert_eq!(records[0].shard, GemmShape::new(64, 12, 32));
        assert_eq!(records[1].shard, GemmShape::new(64, 64, 12));
    }

    #[test]
    fn pipeline_parallel_partitions_stages_and_adds_a_bubble() {
        let (summary, records) = collect(&sim(), &spec(Strategy::PipelineParallel, 4));
        assert_eq!(summary.stages, 4);
        let stages: Vec<_> = records.iter().map(|r| r.stage).collect();
        assert_eq!(stages, [0, 1, 2, 3]);
        // Every boundary layer ships activations; the final stage keeps
        // its outputs.
        let kinds: Vec<_> = records.iter().map(|r| r.comm_kind).collect();
        assert_eq!(kinds, ["p2p", "p2p", "p2p", "none"]);
        assert!(summary.bubble_cycles > 0);
        // Full layers run unsharded.
        assert_eq!(records[0].shard, GemmShape::new(64, 48, 32));
    }

    #[test]
    fn single_chip_degenerates_to_a_plain_run() {
        let s = sim();
        let (summary, _) = collect(&s, &spec(Strategy::DataParallel, 1));
        assert_eq!(summary.comm_cycles, 0);
        assert_eq!(summary.exposed_cycles, 0);
        let plain = s.run_topology(&topo());
        assert_eq!(summary.total_cycles, plain.total_cycles());
        assert_eq!(summary.simulated_macs, plain.summary().macs);
    }

    #[test]
    fn more_chips_shrink_compute_but_grow_comm() {
        let s = sim();
        let (two, _) = collect(&s, &spec(Strategy::DataParallel, 2));
        let (sixteen, _) = collect(&s, &spec(Strategy::DataParallel, 16));
        assert!(sixteen.compute_cycles < two.compute_cycles);
        assert!(sixteen.comm_cycles > two.comm_cycles);
    }

    #[test]
    fn mesh_fabric_runs_and_labels_itself() {
        let mut sp = spec(Strategy::TensorParallel, 8);
        sp.fabric = FabricTag::Mesh;
        let (summary, _) = collect(&sim(), &sp);
        assert!(summary.fabric.starts_with("mesh2x4"), "{}", summary.fabric);
    }

    #[test]
    fn bad_fabric_is_a_named_error() {
        let mut sp = spec(Strategy::DataParallel, 6);
        sp.fabric = FabricTag::Switch;
        let err = run_scaleout(&sim(), &topo(), &sp, &mut |_| {}).unwrap_err();
        assert!(err.contains("power-of-two"), "{err}");
    }
}
