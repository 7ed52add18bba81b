//! Spatial and spatio-temporal workload partitioning (paper §III-A).
//!
//! A GEMM maps to `(Sr, Sc, T)` per the dataflow (Table II). With
//! `Pr × Pc` cores the three schemes divide:
//!
//! * **Spatial** (Eq. 1): `Sr/Pr` on rows, `Sc/Pc` on columns —
//!   `cycles = (2R + C + T − 2) · ⌈(Sr/Pr)/R⌉ · ⌈(Sc/Pc)/C⌉`
//! * **Spatio-temporal 1** (Eq. 2): `Sr/Pr` and `T/Pc` —
//!   `cycles = (2R + C + ⌈T/Pc⌉ − 2) · ⌈(Sr/Pr)/R⌉ · ⌈Sc/C⌉`
//! * **Spatio-temporal 2** (Eq. 3): `T/Pr` and `Sc/Pc` —
//!   `cycles = (2R + C + ⌈T/Pr⌉ − 2) · ⌈Sr/R⌉ · ⌈(Sc/Pc)/C⌉`
//!
//! Memory footprint counts the per-core operand partitions *with
//! duplication* (Fig. 4): cores in the same grid row share the input
//! partition, cores in the same column share the weight partition, and
//! temporal partitioning of `T` replicates partial outputs instead.

use crate::multicore::l2::L2Config;
use scalesim_systolic::{ArrayShape, Dataflow, FoldGeometry, GemmShape};
use std::fmt;

/// The `(Sr, Sc, T)` mapping dimensions of a GEMM under a dataflow.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MappingDims {
    /// Row-spatial extent.
    pub sr: usize,
    /// Column-spatial extent.
    pub sc: usize,
    /// Temporal extent.
    pub t: usize,
}

impl MappingDims {
    /// Maps a GEMM through a dataflow (Table II, self-consistent form).
    pub fn new(dataflow: Dataflow, gemm: GemmShape) -> Self {
        let g = FoldGeometry::new(ArrayShape::new(1, 1), dataflow, gemm);
        Self {
            sr: g.sr,
            sc: g.sc,
            t: g.t,
        }
    }

    /// Inverts the mapping back to a (sub-)GEMM.
    pub(crate) fn to_gemm(self, dataflow: Dataflow) -> GemmShape {
        let (m, n, k) = match dataflow {
            Dataflow::OutputStationary => (self.sr, self.sc, self.t),
            Dataflow::WeightStationary => (self.t, self.sc, self.sr),
            Dataflow::InputStationary => (self.sc, self.t, self.sr),
        };
        GemmShape::new(m.max(1), n.max(1), k.max(1))
    }
}

/// Partitioning schemes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PartitionScheme {
    /// Eq. 1: partition both spatial dimensions.
    Spatial,
    /// Eq. 2: partition `Sr` and the temporal dimension.
    SpatioTemporal1,
    /// Eq. 3: partition the temporal dimension and `Sc`.
    SpatioTemporal2,
}

impl PartitionScheme {
    /// All schemes.
    pub const ALL: [PartitionScheme; 3] = [
        PartitionScheme::Spatial,
        PartitionScheme::SpatioTemporal1,
        PartitionScheme::SpatioTemporal2,
    ];

    /// Figure-3 label.
    pub fn label(&self) -> &'static str {
        match self {
            PartitionScheme::Spatial => "spatial",
            PartitionScheme::SpatioTemporal1 => "spatiotemporal1",
            PartitionScheme::SpatioTemporal2 => "spatiotemporal2",
        }
    }
}

impl fmt::Display for PartitionScheme {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// A `Pr × Pc` core grid.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PartitionGrid {
    /// Row partitions.
    pub pr: usize,
    /// Column partitions.
    pub pc: usize,
}

impl PartitionGrid {
    /// Creates a grid.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn new(pr: usize, pc: usize) -> Self {
        assert!(pr > 0 && pc > 0, "partition grid must be non-empty");
        Self { pr, pc }
    }

    /// Total cores.
    pub fn cores(&self) -> usize {
        self.pr * self.pc
    }

    /// Parses a `PRxPC` grid string (e.g. `"2x2"`, `"1x4"`); both
    /// dimensions must be positive integers.
    pub(crate) fn parse(text: &str) -> Option<Self> {
        let (pr, pc) = scalesim_systolic::dialect::rxc("cores", text.trim()).ok()?;
        Some(Self { pr, pc })
    }
}

fn ceil(a: usize, b: usize) -> usize {
    a.div_ceil(b)
}

/// Per-core runtime in cycles under a scheme (Eqs. 1–3).
pub fn runtime_cycles(
    array: ArrayShape,
    scheme: PartitionScheme,
    dims: MappingDims,
    grid: PartitionGrid,
) -> u64 {
    let r = array.rows();
    let c = array.cols();
    let (temporal, sr_part, sc_part) = match scheme {
        PartitionScheme::Spatial => (dims.t, ceil(dims.sr, grid.pr), ceil(dims.sc, grid.pc)),
        PartitionScheme::SpatioTemporal1 => {
            (ceil(dims.t, grid.pc), ceil(dims.sr, grid.pr), dims.sc)
        }
        PartitionScheme::SpatioTemporal2 => {
            (ceil(dims.t, grid.pr), dims.sr, ceil(dims.sc, grid.pc))
        }
    };
    (2 * r + c + temporal - 2) as u64 * ceil(sr_part, r) as u64 * ceil(sc_part, c) as u64
}

/// The sub-GEMM one core executes under a scheme.
pub fn core_subgemm(
    dataflow: Dataflow,
    scheme: PartitionScheme,
    gemm: GemmShape,
    grid: PartitionGrid,
) -> GemmShape {
    let dims = MappingDims::new(dataflow, gemm);
    let sub = match scheme {
        PartitionScheme::Spatial => MappingDims {
            sr: ceil(dims.sr, grid.pr),
            sc: ceil(dims.sc, grid.pc),
            t: dims.t,
        },
        PartitionScheme::SpatioTemporal1 => MappingDims {
            sr: ceil(dims.sr, grid.pr),
            sc: dims.sc,
            t: ceil(dims.t, grid.pc),
        },
        PartitionScheme::SpatioTemporal2 => MappingDims {
            sr: dims.sr,
            sc: ceil(dims.sc, grid.pc),
            t: ceil(dims.t, grid.pr),
        },
    };
    sub.to_gemm(dataflow)
}

/// Total on-chip memory footprint in words across all cores, including
/// inter-core duplication (Fig. 4). With a shared L2, duplicated operand
/// partitions are stored once.
pub fn memory_footprint_words(
    scheme: PartitionScheme,
    dims: MappingDims,
    grid: PartitionGrid,
    l2: Option<&L2Config>,
) -> u64 {
    let (sr, sc, t) = (dims.sr as u64, dims.sc as u64, dims.t as u64);
    let (pr, pc) = (grid.pr as u64, grid.pc as u64);
    let dedup = l2.map(|cfg| cfg.dedup_duplicates).unwrap_or(false);
    match scheme {
        PartitionScheme::Spatial => {
            // Input partitions duplicated along grid columns, weight
            // partitions along grid rows; outputs disjoint.
            let a = if dedup { sr * t } else { pc * sr * t };
            let b = if dedup { sc * t } else { pr * sc * t };
            a + b + sr * sc
        }
        PartitionScheme::SpatioTemporal1 => {
            // A split both ways (no duplication); B duplicated along rows;
            // partial outputs replicated across the Pc temporal slices.
            let b = if dedup { sc * t } else { pr * sc * t };
            sr * t + b + pc * sr * sc
        }
        PartitionScheme::SpatioTemporal2 => {
            let a = if dedup { sr * t } else { pc * sr * t };
            a + sc * t + pr * sr * sc
        }
    }
}

/// What to optimize in a partition search.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PartitionObjective {
    /// Minimize per-core runtime (Fig. 3a).
    ComputeCycles,
    /// Minimize total on-chip footprint (Fig. 3b).
    MemoryFootprint,
}

/// A evaluated `(scheme, grid)` candidate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PartitionChoice {
    /// Scheme used.
    pub scheme: PartitionScheme,
    /// Grid used.
    pub grid: PartitionGrid,
    /// Per-core runtime (Eqs. 1–3).
    pub cycles: u64,
    /// Total footprint with duplication.
    pub footprint_words: u64,
}

/// All `(pr, pc)` factorizations of `cores`.
pub fn factor_pairs(cores: usize) -> Vec<PartitionGrid> {
    let mut v = Vec::new();
    for pr in 1..=cores {
        if cores.is_multiple_of(pr) {
            v.push(PartitionGrid::new(pr, cores / pr));
        }
    }
    v
}

/// Finds the best grid for a scheme by the given objective (ties broken
/// by the other metric).
pub fn best_partition(
    array: ArrayShape,
    scheme: PartitionScheme,
    dims: MappingDims,
    cores: usize,
    objective: PartitionObjective,
    l2: Option<&L2Config>,
) -> PartitionChoice {
    factor_pairs(cores)
        .into_iter()
        .map(|grid| PartitionChoice {
            scheme,
            grid,
            cycles: runtime_cycles(array, scheme, dims, grid),
            footprint_words: memory_footprint_words(scheme, dims, grid, l2),
        })
        .min_by_key(|c| match objective {
            PartitionObjective::ComputeCycles => (c.cycles, c.footprint_words),
            PartitionObjective::MemoryFootprint => (c.footprint_words, c.cycles),
        })
        .expect("cores ≥ 1 always yields at least one grid")
}
