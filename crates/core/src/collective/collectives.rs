//! Analytical cost models of the collective operations distributed
//! training spends its communication time in: all-reduce,
//! reduce-scatter, all-gather, and the point-to-point
//! transfer pipeline parallelism uses between stages.
//!
//! Every model is the textbook alpha-beta cost of the algorithm the
//! fabric kind would run (Thakur et al.'s analysis), expressed in core
//! cycles via `Fabric::transfer_cycles`:
//!
//! * **Ring** — chunked ring algorithms: reduce-scatter and all-gather
//!   each take `p - 1` neighbour steps of `ceil(B / p)` bytes;
//!   all-reduce is their composition (`2 (p - 1)` steps, the
//!   bandwidth-optimal `2 (p-1)/p · B` wire bytes per chip).
//! * **Mesh2D** — dimension-ordered: the row rings run the collective
//!   over `cols` chips on the full payload, then the column rings over
//!   `rows` chips on the `1 / cols` shard each row step left behind.
//! * **Switch** — recursive halving (reduce-scatter) and doubling
//!   (all-gather): `log2 p` steps with geometrically shrinking
//!   payloads, each one hop.
//!
//! All costs assume the links of a step run concurrently (every chip
//! sends and receives simultaneously), which is what makes the step
//! count — not the chip count — multiply the latency term.

use crate::collective::fabric::{Fabric, FabricKind};

/// The cycle cost of one collective: total cycles, synchronization
/// steps, and the bytes the busiest chip pushed onto the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CollectiveCost {
    /// End-to-end core cycles on the critical path.
    pub cycles: u64,
    /// Synchronization steps (each pays one hop latency).
    pub steps: u32,
    /// Bytes the busiest chip serialized onto its links.
    pub(crate) wire_bytes: u64,
}

impl CollectiveCost {
    /// The zero cost (single chip, or an empty payload on one chip).
    pub(crate) const FREE: CollectiveCost = CollectiveCost {
        cycles: 0,
        steps: 0,
        wire_bytes: 0,
    };

    pub(crate) fn add(self, other: CollectiveCost) -> CollectiveCost {
        CollectiveCost {
            cycles: self.cycles + other.cycles,
            steps: self.steps + other.steps,
            wire_bytes: self.wire_bytes + other.wire_bytes,
        }
    }
}

fn ceil_div(bytes: u64, parts: usize) -> u64 {
    bytes.div_ceil(parts.max(1) as u64)
}

/// `steps` equal transfers of `chunk` bytes each.
fn uniform_steps(fabric: &Fabric, steps: usize, chunk: u64) -> CollectiveCost {
    CollectiveCost {
        cycles: fabric.transfer_cycles(chunk) * steps as u64,
        steps: steps as u32,
        wire_bytes: chunk * steps as u64,
    }
}

/// Recursive halving over `p` chips: `log2 p` steps with the payload
/// halving from `B / 2` down to `B / p` (`doubling` reverses the order;
/// the total is identical either way).
fn halving_steps(fabric: &Fabric, chips: usize, bytes: u64) -> CollectiveCost {
    let mut cost = CollectiveCost::FREE;
    let mut denominator = 2u64;
    while denominator <= chips as u64 {
        let chunk = bytes.div_ceil(denominator);
        cost = cost.add(CollectiveCost {
            cycles: fabric.transfer_cycles(chunk),
            steps: 1,
            wire_bytes: chunk,
        });
        denominator *= 2;
    }
    cost
}

/// A ring collective over `p` chips embedded in the fabric's links:
/// `p - 1` steps of `ceil(B / p)` bytes (the reduce-scatter and
/// all-gather phases cost the same; all-reduce composes both).
fn ring_phase(fabric: &Fabric, chips: usize, bytes: u64) -> CollectiveCost {
    if chips <= 1 {
        return CollectiveCost::FREE;
    }
    uniform_steps(fabric, chips - 1, ceil_div(bytes, chips))
}

/// Reduce-scatter: every chip starts with `bytes` and ends owning the
/// reduced `bytes / p` shard.
pub(crate) fn reduce_scatter(fabric: &Fabric, bytes: u64) -> CollectiveCost {
    let p = fabric.chips();
    if p <= 1 {
        return CollectiveCost::FREE;
    }
    match fabric.kind() {
        FabricKind::Ring => ring_phase(fabric, p, bytes),
        FabricKind::Mesh2D { rows, cols } => {
            // Rows first on the full payload, then columns on the
            // 1/cols shard each chip kept.
            ring_phase(fabric, cols, bytes).add(ring_phase(fabric, rows, ceil_div(bytes, cols)))
        }
        FabricKind::Switch => halving_steps(fabric, p, bytes),
    }
}

/// All-gather: every chip starts with its `bytes / p` shard and ends
/// with the full `bytes`.
pub(crate) fn all_gather(fabric: &Fabric, bytes: u64) -> CollectiveCost {
    let p = fabric.chips();
    if p <= 1 {
        return CollectiveCost::FREE;
    }
    match fabric.kind() {
        FabricKind::Ring => ring_phase(fabric, p, bytes),
        FabricKind::Mesh2D { rows, cols } => {
            // The mirror of reduce-scatter: columns first on the small
            // shard, then rows on the full payload.
            ring_phase(fabric, rows, ceil_div(bytes, cols)).add(ring_phase(fabric, cols, bytes))
        }
        FabricKind::Switch => halving_steps(fabric, p, bytes),
    }
}

/// All-reduce: every chip starts with `bytes` and ends with the
/// element-wise reduction — modeled as reduce-scatter followed by
/// all-gather, the bandwidth-optimal decomposition on every fabric.
pub fn all_reduce(fabric: &Fabric, bytes: u64) -> CollectiveCost {
    reduce_scatter(fabric, bytes).add(all_gather(fabric, bytes))
}

/// Point-to-point transfer of `bytes` between adjacent chips (pipeline
/// stages map to neighbouring chips on every fabric kind): one hop.
pub(crate) fn point_to_point(fabric: &Fabric, bytes: u64) -> CollectiveCost {
    if fabric.chips() <= 1 {
        return CollectiveCost::FREE;
    }
    CollectiveCost {
        cycles: fabric.transfer_cycles(bytes),
        steps: 1,
        wire_bytes: bytes,
    }
}
