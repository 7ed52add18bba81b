//! Input-stationary demand generation.
//!
//! Mapping: `Sr = K` on rows, `Sc = M` on columns, `T = N` streamed.
//! The mirror image of weight-stationary: each fold pins an `R'×C'` tile of
//! the *input* matrix (`A` transposed: rows hold `k`, columns hold `m`),
//! weights stream through the left edge, and outputs for each pinned `m`
//! exit at the bottom of its column. Later `K` folds accumulate.
//!
//! Per-fold timeline (fold extent `R'×C'`, stream time `t' = t − R'`):
//!
//! ```text
//! prefetch t ∈ [0, R'−1]  : col c reads A[fc·C+c][fr·R + (R'−1−t)]
//! stream  t' ∈ [0, N+R'−2]: row r reads B[fr·R+r][t'−r]   (0 ≤ t'−r < N)
//! MACs at t'              : #{(r,c) : 0 ≤ t'−r−c < N}
//! output  (fc·C+c, n) at t' = n + R'−1 + c  (RMW read when fr > 0)
//! fold length             : 2R' + C' + N − 2
//! ```

use super::{Fold, FoldGeometry};
use crate::demand::{EdgeStream, FoldDemand, Stream};
use crate::operand::OperandMap;

/// The closed-form demand of one input-stationary fold starting at
/// cycle `start`.
pub(super) fn fold_demand(
    g: &FoldGeometry,
    map: &OperandMap,
    fold: &Fold,
    start: u64,
) -> FoldDemand {
    let (rp, cp, n) = (fold.rows, fold.cols, g.t);
    let (k0, m0) = (fold.fr * g.array_rows, fold.fc * g.array_cols);
    let k = map.gemm().k as u64;
    FoldDemand {
        start,
        cycles: fold.cycles,
        // Input prefetch: one k-row of the R'×C' tile of Aᵀ per cycle,
        // bottom row first; each input is loaded by exactly one fold.
        ifmap: EdgeStream {
            tile: fold.fr * g.col_folds() + fold.fc,
            start: 0,
            stream: Stream {
                base: map.ifmap(m0, k0 + rp - 1),
                lanes: cp,
                len: rp,
                lane_stride: k,
                step_stride: 1u64.wrapping_neg(),
                skewed: false,
            },
        },
        // Row r streams B[k0+r][·] once the inputs are pinned.
        filter: EdgeStream {
            tile: fold.fr,
            start: rp as u64,
            stream: Stream {
                base: map.filter(k0, 0),
                lanes: rp,
                len: n,
                lane_stride: n as u64,
                step_stride: 1,
                skewed: true,
            },
        },
        // Column c delivers C[m0+c][·] from stream time R'−1+c on.
        ofmap: EdgeStream {
            tile: fold.fc,
            start: (2 * rp - 1) as u64,
            stream: Stream {
                base: map.ofmap(m0, 0),
                lanes: cp,
                len: n,
                lane_stride: n as u64,
                step_stride: 1,
                skewed: true,
            },
        },
        accumulate: fold.fr > 0,
    }
}

#[cfg(test)]
mod tests {
    use crate::config::{ArrayShape, Dataflow};
    use crate::dataflow::testing::{addrs, tally};
    use crate::dataflow::DemandGenerator;
    use crate::topology::GemmShape;
    use std::collections::HashMap;

    fn make(r: usize, c: usize, m: usize, n: usize, k: usize) -> DemandGenerator {
        let gemm = GemmShape::new(m, n, k);
        DemandGenerator::new(ArrayShape::new(r, c), Dataflow::InputStationary, gemm)
    }

    #[test]
    fn counts_match_closed_form_single_fold() {
        // 4×4 array, K=4, M=4 (one fold each), N=6 streamed.
        let s = tally(&make(4, 4, 4, 6, 4));
        assert_eq!(s.ifmap_reads, 16, "prefetch loads each pinned input once");
        assert_eq!(s.filter_reads, (4 * 6) as u64, "R'·N weight reads");
        assert_eq!(s.ofmap_writes, (6 * 4) as u64);
        assert_eq!(s.ofmap_reads, 0);
        assert_eq!(s.macs, 4 * 6 * 4);
        assert_eq!(s.cycles, (2 * 4 + 4 + 6 - 2) as u64);
    }

    #[test]
    fn mirror_symmetry_with_ws() {
        // IS on (M, N, K) should take exactly as many cycles as WS on
        // (N, M, K): the two dataflows are transposes of each other.
        let gemm_is = GemmShape::new(5, 9, 7);
        let gemm_ws = GemmShape::new(9, 5, 7);
        let arr = ArrayShape::new(3, 4);
        let si = tally(&DemandGenerator::new(
            arr,
            Dataflow::InputStationary,
            gemm_is,
        ));
        let sw = tally(&DemandGenerator::new(
            arr,
            Dataflow::WeightStationary,
            gemm_ws,
        ));
        assert_eq!(si.cycles, sw.cycles);
        assert_eq!(si.macs, sw.macs);
        assert_eq!(si.ifmap_reads, sw.filter_reads);
        assert_eq!(si.filter_reads, sw.ifmap_reads);
    }

    #[test]
    fn outputs_accumulate_k_folds_times() {
        let gen = make(2, 2, 3, 4, 5); // K=5 over R=2 → 3 folds
        let mut writes = HashMap::new();
        for a in addrs(&gen, |f| &f.ofmap) {
            *writes.entry(a).or_insert(0) += 1;
        }
        assert_eq!(writes.len(), 3 * 4);
        assert!(writes.values().all(|&v| v == 3));
    }
}
