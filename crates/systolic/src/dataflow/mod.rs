//! Cycle-accurate demand generation for the three classic dataflows.
//!
//! Each dataflow maps the GEMM dimensions `(M, N, K)` onto array rows `Sr`,
//! array columns `Sc` and time `T` (see [`Dataflow`]), tiles `(Sr, Sc)` into
//! *folds* of the physical array size, and serializes folds onto one
//! timeline. A full fold of an `R×C` array with temporal extent `T` takes
//! `2R + C + T − 2` cycles (Eq. 1 of the paper); edge folds use the clipped
//! `R'`, `C'` instead, which is where the cycle-accurate result differs from
//! the closed-form estimate.
//!
//! The per-dataflow modules only *describe* a fold — which tile each edge
//! stream walks, with what strides and skew, from which cycle
//! ([`FoldDemand`]); every consumer (planning, the DRAM and layout
//! stages) reads those descriptors as they are.

mod is;
mod os;
mod ws;

use crate::config::{ArrayShape, Dataflow};
use crate::demand::{DemandSummary, FoldDemand};
use crate::operand::OperandMap;
use crate::topology::GemmShape;
use crate::util::ceil_div;

/// Geometry of one fold: the clipped array extent it occupies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fold {
    /// Fold index along the row-mapped dimension.
    pub(crate) fr: usize,
    /// Fold index along the column-mapped dimension.
    pub(crate) fc: usize,
    /// Active rows in this fold (`R' ≤ R`).
    pub rows: usize,
    /// Active columns in this fold (`C' ≤ C`).
    pub cols: usize,
    /// Cycles this fold occupies.
    pub(crate) cycles: u64,
}

/// Shared fold-tiling arithmetic for a dataflow mapping.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FoldGeometry {
    /// Physical array rows.
    pub(crate) array_rows: usize,
    /// Physical array columns.
    pub(crate) array_cols: usize,
    /// Row-mapped spatial dimension `Sr`.
    pub sr: usize,
    /// Column-mapped spatial dimension `Sc`.
    pub sc: usize,
    /// Temporal dimension `T`.
    pub t: usize,
}

impl FoldGeometry {
    /// Builds the fold geometry for `gemm` on `array` under `dataflow`.
    pub fn new(array: ArrayShape, dataflow: Dataflow, gemm: GemmShape) -> Self {
        let (sr, sc, t) = match dataflow {
            Dataflow::OutputStationary => (gemm.m, gemm.n, gemm.k),
            Dataflow::WeightStationary => (gemm.k, gemm.n, gemm.m),
            Dataflow::InputStationary => (gemm.k, gemm.m, gemm.n),
        };
        Self {
            array_rows: array.rows(),
            array_cols: array.cols(),
            sr,
            sc,
            t,
        }
    }

    /// Number of folds along the row-mapped dimension.
    pub(crate) fn row_folds(&self) -> usize {
        ceil_div(self.sr, self.array_rows)
    }

    /// Number of folds along the column-mapped dimension.
    pub(crate) fn col_folds(&self) -> usize {
        ceil_div(self.sc, self.array_cols)
    }

    /// Total number of folds.
    pub(crate) fn num_folds(&self) -> usize {
        self.row_folds() * self.col_folds()
    }

    /// Active rows of fold `fr`.
    pub(crate) fn fold_rows(&self, fr: usize) -> usize {
        (self.sr - fr * self.array_rows).min(self.array_rows)
    }

    /// Active columns of fold `fc`.
    pub(crate) fn fold_cols(&self, fc: usize) -> usize {
        (self.sc - fc * self.array_cols).min(self.array_cols)
    }

    /// Cycle-accurate length of one fold: `2R' + C' + T − 2`.
    pub(crate) fn fold_cycles(&self, fr: usize, fc: usize) -> u64 {
        (2 * self.fold_rows(fr) + self.fold_cols(fc) + self.t - 2) as u64
    }

    /// Exact total cycles over all folds (sum of clipped fold lengths).
    pub(crate) fn total_cycles(&self) -> u64 {
        let mut total = 0;
        for fr in 0..self.row_folds() {
            for fc in 0..self.col_folds() {
                total += self.fold_cycles(fr, fc);
            }
        }
        total
    }

    /// Iterates all folds in row-major order with their geometry.
    pub fn folds(&self) -> impl Iterator<Item = Fold> + '_ {
        let cols = self.col_folds();
        (0..self.num_folds()).map(move |i| {
            let fr = i / cols;
            let fc = i % cols;
            Fold {
                fr,
                fc,
                rows: self.fold_rows(fr),
                cols: self.fold_cols(fc),
                cycles: self.fold_cycles(fr, fc),
            }
        })
    }

    /// Sum over folds of active PE area, used for mapping efficiency.
    pub(crate) fn total_active_pe_cycles(&self) -> u64 {
        self.folds()
            .map(|f| (f.rows * f.cols) as u64 * f.cycles)
            .sum()
    }
}

/// A dataflow-dispatched demand generator.
#[derive(Debug, Clone)]
pub struct DemandGenerator {
    dataflow: Dataflow,
    geom: FoldGeometry,
    map: OperandMap,
}

impl DemandGenerator {
    /// Creates a generator for `gemm` on `array` under `dataflow`.
    pub fn new(array: ArrayShape, dataflow: Dataflow, gemm: GemmShape) -> Self {
        Self {
            dataflow,
            geom: FoldGeometry::new(array, dataflow, gemm),
            map: OperandMap::new(gemm),
        }
    }

    /// The fold geometry backing this generator.
    pub fn geometry(&self) -> &FoldGeometry {
        &self.geom
    }

    /// The demand of every fold, in execution order, in closed form.
    pub fn folds(&self) -> impl Iterator<Item = FoldDemand> + '_ {
        let describe = match self.dataflow {
            Dataflow::OutputStationary => os::fold_demand,
            Dataflow::WeightStationary => ws::fold_demand,
            Dataflow::InputStationary => is::fold_demand,
        };
        self.geom.folds().scan(0, move |start, fold| {
            let demand = describe(&self.geom, &self.map, &fold, *start);
            *start += fold.cycles;
            Some(demand)
        })
    }

    /// Aggregate demand totals in closed form, without streaming.
    ///
    /// Every per-fold total is derivable from the fold geometry (each fold
    /// contributes `R'·T` reads on the streamed-operand edge, `R'·C'` loads
    /// of the stationary operand, `T·C'` output events, and `R'·C'·T`
    /// MACs), so the whole-stream summary costs O(1) instead of a full
    /// cycle-accurate traversal. `tests/invariants.rs` checks it against
    /// the per-cycle expansion of [`folds`](Self::folds).
    pub fn summary(&self) -> DemandSummary {
        let g = self.geometry();
        let (sr, sc, t) = (g.sr as u64, g.sc as u64, g.t as u64);
        let (rf, cf) = (g.row_folds() as u64, g.col_folds() as u64);
        let cycles = g.total_cycles();
        let macs = sr * sc * t;
        match self.dataflow {
            // OS: each fold reads R'·K ifmap and C'·K filter words and
            // drains its R'·C' outputs exactly once.
            Dataflow::OutputStationary => DemandSummary {
                cycles,
                ifmap_reads: sr * cf * t,
                filter_reads: sc * rf * t,
                ofmap_reads: 0,
                ofmap_writes: sr * sc,
                macs,
            },
            // WS: each fold pins R'·C' weights, streams R'·M inputs and
            // emits M·C' outputs; folds past the first K-tile re-read them.
            Dataflow::WeightStationary => DemandSummary {
                cycles,
                ifmap_reads: sr * cf * t,
                filter_reads: sr * sc,
                ofmap_reads: t * sc * (rf - 1),
                ofmap_writes: t * sc * rf,
                macs,
            },
            // IS: the WS mirror image with inputs pinned, weights streamed.
            Dataflow::InputStationary => DemandSummary {
                cycles,
                ifmap_reads: sr * sc,
                filter_reads: sr * cf * t,
                ofmap_reads: t * sc * (rf - 1),
                ofmap_writes: t * sc * rf,
                macs,
            },
        }
    }
}

/// What the dataflow tests read off the fold descriptors.
#[cfg(test)]
pub(crate) mod testing {
    use super::DemandGenerator;
    use crate::demand::{DemandSummary, EdgeStream, FoldDemand};
    use crate::operand::Addr;

    /// The layer's totals, added up fold by fold and stream by stream.
    pub(crate) fn tally(gen: &DemandGenerator) -> DemandSummary {
        let mut s = DemandSummary::default();
        let geometry = gen.geometry();
        for (fold, extent) in gen.folds().zip(geometry.folds()) {
            assert_eq!(fold.start, s.cycles, "folds must be contiguous");
            s.cycles += fold.cycles;
            for edge in [&fold.ifmap, &fold.filter, &fold.ofmap] {
                let end = edge.start + edge.stream.steps();
                assert!(end <= fold.cycles, "a stream outlives its fold");
            }
            s.ifmap_reads += fold.ifmap.stream.words();
            s.filter_reads += fold.filter.stream.words();
            s.ofmap_writes += fold.ofmap.stream.words();
            s.ofmap_reads += fold.ofmap.stream.words() * u64::from(fold.accumulate);
            s.macs += (extent.rows * extent.cols * geometry.t) as u64;
        }
        s
    }

    /// Every address one edge of the layer touches, in order.
    pub(crate) fn addrs(gen: &DemandGenerator, edge: fn(&FoldDemand) -> &EdgeStream) -> Vec<Addr> {
        let mut out = Vec::new();
        for fold in gen.folds() {
            let stream = edge(&fold).stream;
            (0..stream.steps()).for_each(|step| out.extend(stream.step_addrs(step)));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check(df: Dataflow, r: usize, c: usize, m: usize, n: usize, k: usize) {
        let gemm = GemmShape::new(m, n, k);
        let gen = DemandGenerator::new(ArrayShape::new(r, c), df, gemm);
        let s = testing::tally(&gen);
        assert_eq!(s.macs, gemm.macs(), "{df}: MAC conservation");
        assert_eq!(s.cycles, gen.geometry().total_cycles(), "{df}: cycle count");
        assert_eq!(s, gen.summary(), "{df}: closed-form totals");
        // Every output element is written at least once, and the final
        // writes cover exactly M×N addresses.
        assert!(s.ofmap_writes >= (m * n) as u64, "{df}: output coverage");
        let mut written = testing::addrs(&gen, |f| &f.ofmap);
        written.sort_unstable();
        written.dedup();
        assert_eq!(written.len(), m * n, "{df}: output coverage");
    }

    #[test]
    fn conservation_all_dataflows_various_shapes() {
        for df in Dataflow::ALL {
            check(df, 4, 4, 8, 8, 8);
            check(df, 4, 4, 5, 7, 9); // ragged folds
            check(df, 8, 2, 3, 3, 3); // array bigger than workload
            check(df, 2, 8, 16, 4, 4);
            check(df, 3, 5, 10, 11, 12);
        }
    }

    #[test]
    fn fold_geometry_equals_eq1_for_exact_tiles() {
        // When Sr, Sc divide R, C exactly, the cycle-accurate total matches
        // Eq. 1: (2R + C + T − 2) · (Sr/R) · (Sc/C).
        let geom = FoldGeometry::new(
            ArrayShape::new(8, 8),
            Dataflow::OutputStationary,
            GemmShape::new(16, 24, 10),
        );
        let eq1 = (2 * 8 + 8 + 10 - 2) as u64 * 2 * 3;
        assert_eq!(geom.total_cycles(), eq1);
    }

    #[test]
    fn fold_geometry_clipped_edges() {
        let geom = FoldGeometry::new(
            ArrayShape::new(8, 8),
            Dataflow::OutputStationary,
            GemmShape::new(9, 8, 4),
        );
        assert_eq!(geom.row_folds(), 2);
        assert_eq!(geom.fold_rows(0), 8);
        assert_eq!(geom.fold_rows(1), 1);
        // fold 0: 2*8+8+4-2 = 26, fold 1: 2*1+8+4-2 = 12
        assert_eq!(geom.total_cycles(), 26 + 12);
    }

    #[test]
    fn dataflow_dimension_mapping() {
        let gemm = GemmShape::new(3, 5, 7);
        let arr = ArrayShape::new(2, 2);
        let os = FoldGeometry::new(arr, Dataflow::OutputStationary, gemm);
        assert_eq!((os.sr, os.sc, os.t), (3, 5, 7));
        let ws = FoldGeometry::new(arr, Dataflow::WeightStationary, gemm);
        assert_eq!((ws.sr, ws.sc, ws.t), (7, 5, 3));
        let is = FoldGeometry::new(arr, Dataflow::InputStationary, gemm);
        assert_eq!((is.sr, is.sc, is.t), (7, 3, 5));
    }

    #[test]
    fn single_pe_array() {
        // A 1×1 array must still compute everything, one MAC per cycle.
        for df in Dataflow::ALL {
            let gemm = GemmShape::new(3, 2, 4);
            let gen = DemandGenerator::new(ArrayShape::new(1, 1), df, gemm);
            let s = gen.summary();
            assert_eq!(s.macs, gemm.macs());
        }
    }
}
