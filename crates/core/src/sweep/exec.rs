//! Sharded, deterministic execution of a sweep grid.
//!
//! A sweep is embarrassingly parallel: every `(grid point, topology)`
//! pair simulates independently. The executor flattens the grid
//! point-major (`run_index = point * topologies + topology`), partitions
//! the run list round-robin into shards, and drives each shard through
//! [`parallel_map`] — scoped batches of the same persistent
//! scheduler (and `SCALESIM_THREADS` override) single runs use for
//! per-layer parallelism, submitted at [`Priority::Batch`] so an
//! interactive serve request's layers always outrank sweep points on a
//! shared pool. A run's own nested layer tasks ride the same pool (a
//! worker simulating a point fans its layers to idle siblings), so
//! shards never stack a second pool on top of the first. Results are
//! reassembled in `run_index` order, so the output is identical for any
//! shard count, shard order, thread count and priority mix.
//!
//! Sharding exists to bound per-batch memory and to give large grids a
//! natural unit of distribution; for small grids `shards = 1` is fine.

use scalesim_sched::{with_priority, Priority};
use scalesim_systolic::parallel_map;

/// Streams `run(run_index, point, topology)` over the full cross
/// product of `points` × `topologies`, emitting each result through
/// `emit(run_index, result)` as its shard completes.
///
/// Execution is shard-by-shard (round-robin partition of the run list),
/// each shard on the worker pool; within a shard, results are emitted in
/// ascending `run_index`. Only one shard's results are ever buffered, so
/// peak memory is `O(total / shards)` instead of `O(total)`. The
/// emission order is deterministic for a given shard count but is *not*
/// globally `run_index`-sorted — order-sensitive consumers (the report
/// builder sorts by run index anyway) must reorder.
///
/// `shards` ≤ 1 means a single shard. The run closure is shared across
/// worker threads — hand it an `Arc<PlanCache>`-sharing simulator
/// factory and repeated layer shapes are planned once for the whole
/// grid.
pub(crate) fn run_sharded_with<P, T, R, F, E>(
    points: &[P],
    topologies: &[T],
    shards: usize,
    run: F,
    mut emit: E,
) where
    P: Sync,
    T: Sync,
    R: Send + Sync,
    F: Fn(usize, &P, &T) -> R + Sync,
    E: FnMut(usize, R),
{
    let total = points.len() * topologies.len();
    let shards = shards.clamp(1, total.max(1));
    for shard in 0..shards {
        let work: Vec<usize> = (0..total).filter(|i| i % shards == shard).collect();
        // Batch class: sweep points (and the layer tasks they spawn)
        // yield the injector to interactive serve traffic.
        let results = with_priority(Priority::Batch, || {
            parallel_map(&work, |_, &run_index| {
                let (p, t) = (run_index / topologies.len(), run_index % topologies.len());
                let _span = scalesim_obs::span(scalesim_obs::Category::Sweep, "point")
                    .arg("run", run_index as u64);
                run(run_index, &points[p], &topologies[t])
            })
        });
        for (&run_index, r) in work.iter().zip(results) {
            emit(run_index, r);
        }
    }
}
