//! The compute/communication overlap timeline.
//!
//! Layers execute in order; the collective a layer obligates starts
//! when its compute finishes and can hide under the **next** layer's
//! compute (the standard one-layer-lookahead overlap a runtime achieves
//! by issuing the collective asynchronously). Whatever does not fit is
//! **exposed** and extends the critical path:
//!
//! ```text
//! overlapped(i) = min(comm(i), compute(i + 1))      (0 for the last layer)
//! exposed(i)    = comm(i) - overlapped(i)
//! total         = Σ compute(i) + Σ exposed(i)
//! ```
//!
//! The model deliberately has no cross-layer carry: layer `i`'s
//! leftover communication is charged to layer `i` rather than rolled
//! into the next window, so each report row is independently
//! attributable.

/// The per-layer outcome of the overlap timeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct OverlapSplit {
    /// Cycles of the layer's communication hidden under the next
    /// layer's compute.
    pub(crate) overlapped: u64,
    /// Cycles left on the critical path.
    pub(crate) exposed: u64,
}

/// Accumulates `(compute, comm)` pairs in layer order and splits each
/// layer's communication into overlapped and exposed cycles with
/// one-layer lookahead; the caller receives each split once the *next*
/// layer's compute is known (streaming, O(1) state).
#[derive(Debug, Clone, Default)]
pub(crate) struct OverlapTimeline {
    pending: Option<u64>,
    compute_total: u64,
    comm_total: u64,
    overlapped_total: u64,
    exposed_total: u64,
}

impl OverlapTimeline {
    /// Pushes the next layer; returns the **previous** layer's split
    /// (its overlap window — this layer's compute — is now known), or
    /// `None` for the first layer.
    pub(crate) fn push(&mut self, compute: u64, comm: u64) -> Option<OverlapSplit> {
        self.compute_total += compute;
        self.comm_total += comm;
        let resolved = self.pending.take().map(|prev_comm| {
            let overlapped = prev_comm.min(compute);
            self.overlapped_total += overlapped;
            self.exposed_total += prev_comm - overlapped;
            OverlapSplit {
                overlapped,
                exposed: prev_comm - overlapped,
            }
        });
        self.pending = Some(comm);
        resolved
    }

    /// Resolves the final layer (no further compute to hide under: its
    /// communication is fully exposed). Returns `None` when nothing was
    /// pushed.
    pub(crate) fn finish(&mut self) -> Option<OverlapSplit> {
        self.pending.take().map(|comm| {
            self.exposed_total += comm;
            OverlapSplit {
                overlapped: 0,
                exposed: comm,
            }
        })
    }

    /// Total compute cycles pushed so far.
    pub(crate) fn compute_total(&self) -> u64 {
        self.compute_total
    }

    /// Total communication cycles pushed so far.
    pub(crate) fn comm_total(&self) -> u64 {
        self.comm_total
    }

    /// Communication cycles hidden under compute (resolved layers only).
    pub(crate) fn overlapped_total(&self) -> u64 {
        self.overlapped_total
    }

    /// Communication cycles on the critical path (resolved layers only).
    pub(crate) fn exposed_total(&self) -> u64 {
        self.exposed_total
    }

    /// The end-to-end critical path: all compute plus all exposed
    /// communication. Call after [`finish`](Self::finish).
    pub(crate) fn total_cycles(&self) -> u64 {
        self.compute_total + self.exposed_total
    }
}
