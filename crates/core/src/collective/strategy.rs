//! Multi-chip parallelism strategies: how a layer's GEMM is sharded
//! across chips and which collective its execution obligates.
//!
//! Three strategies cover the standard axes of distributed training:
//!
//! * **Data parallel** — every chip runs the full layer on `1 / p` of
//!   the batch (the GEMM's `M` dimension); the weight gradients
//!   (`K x N`) are all-reduced after every layer.
//! * **Tensor parallel** — Megatron-style alternation: even layers
//!   shard the output dimension `N` (column parallel) and all-gather
//!   the activations; odd layers shard the contraction `K` (row
//!   parallel) and reduce-scatter the partial sums. Both collectives
//!   move the `M x N` activation payload.
//! * **Pipeline parallel** — layers are partitioned into `p` contiguous
//!   stages balanced by MAC count; each stage boundary sends the
//!   `M x N` activation point-to-point to the next chip. The schedule
//!   cost (fill/drain bubble over microbatches) is modeled by
//!   [`pipeline_total_cycles`].

use crate::collective::collectives::{self, CollectiveCost};
use crate::collective::fabric::Fabric;
use scalesim_systolic::GemmShape;

/// A multi-chip parallelization strategy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Strategy {
    /// Shard the batch (`M`); all-reduce weight gradients per layer.
    #[default]
    DataParallel,
    /// Shard `N`/`K` alternately; all-gather / reduce-scatter the
    /// `M x N` activations per layer.
    TensorParallel,
    /// Partition layers into stages; point-to-point activations between
    /// stages, with a fill/drain bubble over microbatches.
    PipelineParallel,
}

impl Strategy {
    /// The stable short tag used in configs, labels and reports
    /// (`dp` / `tp` / `pp`).
    pub(crate) fn tag(&self) -> &'static str {
        match self {
            Strategy::DataParallel => "dp",
            Strategy::TensorParallel => "tp",
            Strategy::PipelineParallel => "pp",
        }
    }

    /// The long name accepted in configs (`data` / `tensor` /
    /// `pipeline`).
    pub fn name(&self) -> &'static str {
        match self {
            Strategy::DataParallel => "data",
            Strategy::TensorParallel => "tensor",
            Strategy::PipelineParallel => "pipeline",
        }
    }

    /// Parses a strategy tag (long or short form, case-insensitive).
    ///
    /// # Errors
    ///
    /// Returns a message naming the unknown value and the accepted set.
    pub(crate) fn parse(value: &str) -> Result<Strategy, String> {
        match value.to_ascii_lowercase().as_str() {
            "data" | "dp" => Ok(Strategy::DataParallel),
            "tensor" | "tp" => Ok(Strategy::TensorParallel),
            "pipeline" | "pp" => Ok(Strategy::PipelineParallel),
            other => Err(format!(
                "unknown strategy '{other}' (expected data/tensor/pipeline)"
            )),
        }
    }
}

/// How one layer executes under a strategy: the per-chip GEMM shard and
/// the communication it obligates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LayerPlan {
    /// The GEMM each chip actually runs.
    pub(crate) shard: GemmShape,
    /// The collective the layer triggers (FREE on a single chip, and
    /// for non-boundary pipeline layers).
    pub(crate) comm: CollectiveCost,
    /// Stable tag of the collective kind (`allreduce` / `allgather` /
    /// `reducescatter` / `p2p` / `none`).
    pub(crate) comm_kind: &'static str,
}

fn shard_dim(dim: usize, parts: usize) -> usize {
    dim.div_ceil(parts).max(1)
}

/// Plans one data- or tensor-parallel layer: the shard every chip runs
/// and the collective closing the layer. (`layer_index` drives the
/// tensor-parallel column/row alternation; pipeline parallelism plans
/// at the run level via [`partition_stages`] instead.)
pub fn shard_layer(
    strategy: Strategy,
    fabric: &Fabric,
    layer_index: usize,
    gemm: GemmShape,
    bytes_per_word: usize,
) -> LayerPlan {
    let p = fabric.chips();
    if p <= 1 {
        return LayerPlan {
            shard: gemm,
            comm: CollectiveCost::FREE,
            comm_kind: "none",
        };
    }
    let bpw = bytes_per_word as u64;
    match strategy {
        Strategy::DataParallel => LayerPlan {
            shard: GemmShape::new(shard_dim(gemm.m, p), gemm.n, gemm.k),
            comm: collectives::all_reduce(fabric, (gemm.k * gemm.n) as u64 * bpw),
            comm_kind: "allreduce",
        },
        Strategy::TensorParallel => {
            let activation = (gemm.m * gemm.n) as u64 * bpw;
            if layer_index.is_multiple_of(2) {
                LayerPlan {
                    shard: GemmShape::new(gemm.m, shard_dim(gemm.n, p), gemm.k),
                    comm: collectives::all_gather(fabric, activation),
                    comm_kind: "allgather",
                }
            } else {
                LayerPlan {
                    shard: GemmShape::new(gemm.m, gemm.n, shard_dim(gemm.k, p)),
                    comm: collectives::reduce_scatter(fabric, activation),
                    comm_kind: "reducescatter",
                }
            }
        }
        Strategy::PipelineParallel => LayerPlan {
            shard: gemm,
            comm: CollectiveCost::FREE,
            comm_kind: "none",
        },
    }
}

/// Partitions `weights.len()` layers into at most `stages` contiguous
/// stages balanced by weight (MAC count), returning the stage index of
/// every layer. Deterministic greedy fill: a stage closes once it holds
/// its fair share of the remaining weight, while always leaving at
/// least one layer per remaining stage. With fewer layers than stages,
/// each layer is its own stage.
pub fn partition_stages(weights: &[u64], stages: usize) -> Vec<usize> {
    let stages = stages.max(1).min(weights.len().max(1));
    let mut assignment = vec![0usize; weights.len()];
    let mut remaining_weight: u64 = weights.iter().sum();
    let mut stage = 0usize;
    let mut in_stage: u64 = 0;
    for (i, &w) in weights.iter().enumerate() {
        let stages_left = stages - stage;
        let layers_left = weights.len() - i;
        // Close the current stage when it reached its fair share of
        // what is left — unless that would starve a later stage.
        let target = remaining_weight.div_ceil(stages_left as u64);
        if stages_left > 1
            && in_stage > 0
            && in_stage + w / 2 >= target
            && layers_left >= stages_left
        {
            stage += 1;
            in_stage = 0;
        }
        assignment[i] = stage;
        in_stage += w;
        remaining_weight -= w;
        // Force a boundary when exactly one layer per remaining stage
        // is left.
        if layers_left - 1 == stages - 1 - stage && layers_left > 1 {
            stage += 1;
            in_stage = 0;
        }
    }
    assignment
}

/// Wall-clock cycles of a pipeline of `stage_cycles` (per-stage cost of
/// the **whole** batch) split into `microbatches`: the first microbatch
/// fills the pipe stage by stage, then the slowest stage paces the
/// remaining `microbatches - 1`.
pub fn pipeline_total_cycles(stage_cycles: &[u64], microbatches: usize) -> u64 {
    let m = microbatches.max(1) as u64;
    let per_micro: Vec<u64> = stage_cycles.iter().map(|&c| c.div_ceil(m)).collect();
    let fill: u64 = per_micro.iter().sum();
    let pace = per_micro.iter().copied().max().unwrap_or(0);
    fill + (m - 1) * pace
}
