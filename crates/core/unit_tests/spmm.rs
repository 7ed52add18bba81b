//! Unit tests of `sparse`: the paper's sparse-compute facts (Figs. 5/8,
//! §VIII) on the product's rule, `SparsityPattern::compress`, costed by
//! the closed form the planner is proven equal to (`tests/invariants.rs`).

mod tests {
    use crate::sparse::{NmRatio, SparseFormat, SparsityPattern};
    use scalesim_systolic::{AnalyticalModel, ArrayShape, Dataflow, GemmShape};

    fn model(gemm: GemmShape) -> AnalyticalModel {
        AnalyticalModel::new(ArrayShape::new(8, 8), Dataflow::WeightStationary, gemm)
    }

    fn cycles(gemm: GemmShape) -> u64 {
        model(gemm).exact_runtime_cycles()
    }

    fn layer_wise(k: usize, n: usize, m: usize) -> SparsityPattern {
        SparsityPattern::layer_wise(k, NmRatio::new(n, m).unwrap())
    }

    #[test]
    fn two_four_halves_k() {
        let gemm = GemmShape::new(64, 64, 128);
        let sparse = layer_wise(128, 2, 4).compress(gemm);
        assert_eq!(sparse, GemmShape::new(64, 64, 64));
        assert_eq!(sparse.macs(), 64 * 64 * 64);
        let speedup = cycles(gemm) as f64 / cycles(sparse) as f64;
        assert!(speedup > 1.5 && speedup < 2.5, "2:4 speedup {speedup}");
    }

    #[test]
    fn dense_ratio_is_never_faster() {
        // 4:4 "sparsity" runs the dense GEMM and pays metadata on top.
        let gemm = GemmShape::new(32, 32, 64);
        let p = layer_wise(64, 4, 4);
        assert_eq!(p.compress(gemm), gemm);
        assert!(
            SparseFormat::BlockedEllpack.filter_storage_bits(&p, 32, 16)
                > SparseFormat::dense_storage_bits(64, 32, 16)
        );
    }

    #[test]
    fn sparser_is_faster_and_smaller() {
        let gemm = GemmShape::new(96, 64, 256);
        let (p14, p24) = (layer_wise(256, 1, 4), layer_wise(256, 2, 4));
        assert!(cycles(p14.compress(gemm)) < cycles(p24.compress(gemm)));
        let bits = |p| SparseFormat::BlockedEllpack.filter_storage_bits(p, 64, 16);
        assert!(bits(&p14) < bits(&p24));
    }

    #[test]
    fn structured_2_4_compute_matches_ideal_half() {
        // §VIII validation: fixed 2:4 compute is deterministic — K'
        // is exactly K/2, the Ampere sparse-tensor-core accounting.
        let gemm = GemmShape::new(128, 128, 512);
        let sparse = layer_wise(512, 2, 4).compress(gemm);
        assert_eq!(sparse.k, 256);
        assert_eq!(sparse.macs() * 2, gemm.macs());
    }

    #[test]
    fn row_wise_effective_k_bounded_by_half() {
        let gemm = GemmShape::new(64, 64, 256);
        let sparse = SparsityPattern::row_wise(256, 8, 1).compress(gemm);
        assert!(sparse.k <= 128, "row-wise N ≤ M/2 must bound K' ≤ K/2");
        let speedup = cycles(gemm) as f64 / cycles(sparse) as f64;
        assert!(speedup >= 1.9, "speedup {speedup}");
    }

    #[test]
    fn analytical_close_to_fold_exact() {
        // Eq. 1 on the compressed GEMM tracks the fold-exact count.
        let sparse = model(layer_wise(128, 2, 4).compress(GemmShape::new(64, 64, 128)));
        let (eq1, exact) = (sparse.runtime_cycles(), sparse.exact_runtime_cycles());
        let rel = (eq1 as f64 - exact as f64).abs() / exact as f64;
        assert!(rel < 0.1, "Eq. 1 {eq1} vs exact {exact}");
    }

    #[test]
    #[should_panic(expected = "pattern must cover")]
    fn mismatched_pattern_panics() {
        let _ = layer_wise(64, 2, 4).compress(GemmShape::new(8, 8, 32));
    }
}
