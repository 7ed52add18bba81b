//! Spatial and spatio-temporal workload partitioning (paper §III-A).
//!
//! A GEMM maps to `(Sr, Sc, T)` per the dataflow (Table II). With
//! `Pr × Pc` cores the three schemes divide:
//!
//! * **Spatial** (Eq. 1): `Sr/Pr` on rows, `Sc/Pc` on columns;
//! * **Spatio-temporal 1** (Eq. 2): `Sr/Pr` and `T/Pc`;
//! * **Spatio-temporal 2** (Eq. 3): `T/Pr` and `Sc/Pc`.
//!
//! [`core_subgemm`] is the GEMM one core of the grid executes; the
//! engine plans it for the representative core (`sim.rs`).

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
            sr: dims.sr.div_ceil(grid.pr),
            sc: dims.sc.div_ceil(grid.pc),
            t: dims.t,
        },
        PartitionScheme::SpatioTemporal1 => MappingDims {
            sr: dims.sr.div_ceil(grid.pr),
            sc: dims.sc,
            t: dims.t.div_ceil(grid.pc),
        },
        PartitionScheme::SpatioTemporal2 => MappingDims {
            sr: dims.sr,
            sc: dims.sc.div_ceil(grid.pc),
            t: dims.t.div_ceil(grid.pr),
        },
    };
    sub.to_gemm(dataflow)
}
