//! Weight-stationary demand generation.
//!
//! Mapping: `Sr = K` on rows, `Sc = N` on columns, `T = M` streamed.
//! Each fold pins an `R'×C'` tile of the weight matrix into the array
//! (`R'` prefetch cycles, one weight row per cycle), then streams `M` input
//! rows through; partial sums flow down the columns and exit at the bottom
//! edge. When `K` is tiled over several row folds, later folds re-read the
//! partial outputs (read-modify-write accumulation in the ofmap SRAM).
//!
//! Per-fold timeline (fold extent `R'×C'`, stream time `t' = t − R'`):
//!
//! ```text
//! prefetch t ∈ [0, R'−1]  : col c reads B[fr·R + (R'−1−t)][fc·C+c]
//! stream  t' ∈ [0, M+R'−2]: row r reads A[t'−r][fr·R+r]   (0 ≤ t'−r < M)
//! MACs at t'              : #{(r,c) : 0 ≤ t'−r−c < M}
//! output  (m, fc·C+c) at t' = m + R'−1 + c  (RMW read when fr > 0)
//! fold length             : R' + (M + R' + C' − 2) = 2R' + C' + M − 2
//! ```

use super::{Fold, FoldGeometry};
use crate::demand::{EdgeStream, FoldDemand, Stream};
use crate::operand::OperandMap;

/// The closed-form demand of one weight-stationary fold starting at
/// cycle `start`.
pub(super) fn fold_demand(
    g: &FoldGeometry,
    map: &OperandMap,
    fold: &Fold,
    start: u64,
) -> FoldDemand {
    let (rp, cp, m) = (fold.rows, fold.cols, g.t);
    let (k0, n0) = (fold.fr * g.array_rows, fold.fc * g.array_cols);
    let (k, n) = (map.gemm().k as u64, map.gemm().n as u64);
    FoldDemand {
        start,
        cycles: fold.cycles,
        // Row r streams A[·][k0+r] once the weights are pinned.
        ifmap: EdgeStream {
            tile: fold.fr,
            start: rp as u64,
            stream: Stream {
                base: map.ifmap(0, k0),
                lanes: rp,
                len: m,
                lane_stride: 1,
                step_stride: k,
                skewed: true,
            },
        },
        // Weight prefetch: one row of the R'×C' tile per cycle, bottom
        // row first; each weight is loaded by exactly one fold.
        filter: EdgeStream {
            tile: fold.fr * g.col_folds() + fold.fc,
            start: 0,
            stream: Stream {
                base: map.filter(k0 + rp - 1, n0),
                lanes: cp,
                len: rp,
                lane_stride: 1,
                step_stride: n.wrapping_neg(),
                skewed: false,
            },
        },
        // Column c delivers C[·][n0+c] from stream time R'−1+c on.
        ofmap: EdgeStream {
            tile: fold.fc,
            start: (2 * rp - 1) as u64,
            stream: Stream {
                base: map.ofmap(0, n0),
                lanes: cp,
                len: m,
                lane_stride: 1,
                step_stride: n,
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
        DemandGenerator::new(ArrayShape::new(r, c), Dataflow::WeightStationary, gemm)
    }

    /// How often each address occurs.
    fn counts(addrs: Vec<u64>) -> HashMap<u64, u32> {
        let mut counts = HashMap::new();
        for a in addrs {
            *counts.entry(a).or_insert(0) += 1;
        }
        counts
    }

    #[test]
    fn counts_match_closed_form_single_fold() {
        // 4×4 array, K=4, N=4 (one fold), M=6 streamed.
        let s = tally(&make(4, 4, 6, 4, 4));
        assert_eq!(s.filter_reads, 16, "prefetch loads each pinned weight once");
        assert_eq!(s.ifmap_reads, (4 * 6) as u64, "R'·M input reads");
        assert_eq!(s.ofmap_writes, (6 * 4) as u64, "M·C' outputs");
        assert_eq!(s.ofmap_reads, 0, "single K fold: no accumulation reads");
        assert_eq!(s.macs, 6 * 4 * 4);
        // Fold length: 2·4 + 4 + 6 − 2 = 16.
        assert_eq!(s.cycles, 16);
    }

    #[test]
    fn accumulation_reads_on_later_k_folds() {
        // K=8 over R=4 → two row folds; second fold re-reads outputs.
        let s = tally(&make(4, 4, 5, 4, 8));
        assert_eq!(s.ofmap_writes, 2 * (5 * 4) as u64);
        assert_eq!(s.ofmap_reads, (5 * 4) as u64);
        assert_eq!(s.macs, 5 * 4 * 8);
    }

    #[test]
    fn outputs_accumulate_k_folds_times() {
        let gen = make(2, 3, 4, 3, 6); // 3 K-folds
        let writes = counts(addrs(&gen, |f| &f.ofmap));
        assert_eq!(writes.len(), 4 * 3);
        assert!(
            writes.values().all(|&v| v == 3),
            "each output written once per K fold"
        );
    }

    #[test]
    fn every_weight_prefetched_once() {
        let loads = counts(addrs(&make(3, 2, 2, 5, 7), |f| &f.filter));
        assert_eq!(loads.len(), 7 * 5, "all weights touched");
        assert!(
            loads.values().all(|&v| v == 1),
            "weights loaded exactly once"
        );
    }
}
