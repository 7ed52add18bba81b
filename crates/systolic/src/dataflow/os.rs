//! Output-stationary demand generation.
//!
//! Mapping: `Sr = M` on rows, `Sc = N` on columns, `T = K` streamed.
//! Each PE `(r, c)` of a fold accumulates one output element. Inputs enter
//! the left edge skewed by row, weights enter the top edge skewed by column,
//! and after `K` elements have streamed through, the `R'×C'` outputs drain
//! through the bottom edge over `R'` cycles.
//!
//! Per-fold timeline (fold extent `R'×C'`):
//!
//! ```text
//! cycle t ∈ [0, K+R'−2]   : row r reads A[fr·R+r][t−r]      (0 ≤ t−r < K)
//! cycle t ∈ [0, K+C'−2]   : col c reads B[t−c][fc·C+c]      (0 ≤ t−c < K)
//! MACs at t               : #{(r,c) : 0 ≤ t−r−c < K}
//! drain t ∈ [R'+C'+K−2, 2R'+C'+K−3]: writes C' outputs per cycle
//! fold length             : 2R' + C' + K − 2
//! ```

use super::{Fold, FoldGeometry};
use crate::demand::{EdgeStream, FoldDemand, Stream};
use crate::operand::OperandMap;

/// The closed-form demand of one output-stationary fold starting at
/// cycle `start`.
pub(super) fn fold_demand(
    g: &FoldGeometry,
    map: &OperandMap,
    fold: &Fold,
    start: u64,
) -> FoldDemand {
    let (rp, cp, k) = (fold.rows, fold.cols, g.t);
    let (m0, n0) = (fold.fr * g.array_rows, fold.fc * g.array_cols);
    let n = map.gemm().n as u64;
    FoldDemand {
        start,
        cycles: fold.cycles,
        // Row r streams A[m0+r][·], one element per cycle, r cycles late.
        ifmap: EdgeStream {
            tile: fold.fr,
            start: 0,
            stream: Stream {
                base: map.ifmap(m0, 0),
                lanes: rp,
                len: k,
                lane_stride: k as u64,
                step_stride: 1,
                skewed: true,
            },
        },
        // Column c streams B[·][n0+c] the same way.
        filter: EdgeStream {
            tile: fold.fc,
            start: 0,
            stream: Stream {
                base: map.filter(0, n0),
                lanes: cp,
                len: k,
                lane_stride: 1,
                step_stride: n,
                skewed: true,
            },
        },
        // The R'×C' outputs drain one row per cycle, bottom row first;
        // no other fold touches them.
        ofmap: EdgeStream {
            tile: fold.fr * g.col_folds() + fold.fc,
            start: (rp + cp + k - 2) as u64,
            stream: Stream {
                base: map.ofmap(m0 + rp - 1, n0),
                lanes: cp,
                len: rp,
                lane_stride: 1,
                step_stride: n.wrapping_neg(),
                skewed: false,
            },
        },
        accumulate: false,
    }
}

#[cfg(test)]
mod tests {
    use crate::config::{ArrayShape, Dataflow};
    use crate::dataflow::testing::{addrs, tally};
    use crate::dataflow::DemandGenerator;
    use crate::operand::OperandKind;
    use crate::topology::GemmShape;
    use std::collections::HashSet;

    fn make(r: usize, c: usize, m: usize, n: usize, k: usize) -> DemandGenerator {
        let gemm = GemmShape::new(m, n, k);
        DemandGenerator::new(ArrayShape::new(r, c), Dataflow::OutputStationary, gemm)
    }

    #[test]
    fn read_counts_match_closed_form() {
        let s = tally(&make(4, 4, 8, 8, 6));
        // Per fold: ifmap R'·K, filter C'·K; 4 full folds of 4×4.
        assert_eq!(s.ifmap_reads, 4 * (4 * 6) as u64);
        assert_eq!(s.filter_reads, 4 * (4 * 6) as u64);
        assert_eq!(s.ofmap_writes, 64);
        assert_eq!(s.ofmap_reads, 0, "OS never re-reads outputs");
        assert_eq!(s.macs, 8 * 8 * 6);
    }

    #[test]
    fn every_output_written_exactly_once() {
        let writes = addrs(&make(3, 3, 7, 5, 4), |f| &f.ofmap);
        let mut seen = HashSet::new();
        for &a in &writes {
            assert_eq!(OperandKind::of_addr(a), OperandKind::Ofmap);
            assert!(seen.insert(a), "output {a} written twice");
        }
        assert_eq!(seen.len(), 7 * 5);
        assert_eq!(writes.len(), 7 * 5);
    }

    #[test]
    fn ifmap_reads_cover_full_operand_per_column_fold() {
        // With one column fold, each A element is read exactly once.
        let reads = addrs(&make(4, 8, 4, 8, 5), |f| &f.ifmap);
        let distinct: HashSet<u64> = reads.iter().copied().collect();
        assert_eq!(distinct.len(), 4 * 5);
        assert_eq!(reads.len(), 4 * 5, "single column fold implies no re-reads");
    }

    #[test]
    fn fold_length_minimal_case() {
        // R'=C'=K=1 → fold of 2 cycles: mac, then drain.
        let s = tally(&make(1, 1, 1, 1, 1));
        assert_eq!(s.cycles, 2);
        assert_eq!(s.macs, 1);
        assert_eq!(s.ofmap_writes, 1);
    }
}
