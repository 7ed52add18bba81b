//! Unit tests of `sparse`: the distribution view of sparsity
//! (Sparseloop's, §X: expected `K' = ⌈density · K⌉`) checked against the
//! patterns the product draws.

mod tests {
    use crate::sparse::{NmRatio, SparseFormat, SparsityPattern};
    use scalesim_systolic::{AnalyticalModel, ArrayShape, Dataflow, GemmShape};

    fn cycles(gemm: GemmShape) -> u64 {
        AnalyticalModel::new(ArrayShape::new(16, 16), Dataflow::WeightStationary, gemm)
            .exact_runtime_cycles()
    }

    fn density(p: &SparsityPattern) -> f64 {
        p.effective_k() as f64 / p.k() as f64
    }

    fn expected_k(k: usize, density: f64) -> usize {
        ((k as f64 * density).ceil() as usize).max(1)
    }

    #[test]
    fn density_one_is_dense() {
        let gemm = GemmShape::new(64, 64, 256);
        let dense = SparsityPattern::layer_wise(256, NmRatio::new(4, 4).unwrap());
        assert_eq!(density(&dense), 1.0);
        assert_eq!(dense.compress(gemm), gemm);
    }

    #[test]
    fn matches_layer_wise_pattern_exactly() {
        // Layer-wise N:M is deterministic: the expected K' at the
        // pattern's density is the K' the pattern compresses to.
        let gemm = GemmShape::new(128, 96, 512);
        for (n, m) in [(1, 4), (2, 4), (2, 8), (4, 8)] {
            let pattern = SparsityPattern::layer_wise(512, NmRatio::new(n, m).unwrap());
            let expected = expected_k(512, density(&pattern));
            assert_eq!(pattern.compress(gemm).k, expected, "{n}:{m}");
        }
    }

    #[test]
    fn converges_to_row_wise_ensemble_mean() {
        // For *compute* cycles the distribution view is accurate in
        // expectation over random row-wise patterns.
        let gemm = GemmShape::new(96, 96, 512);
        let patterns: Vec<_> = (0..24)
            .map(|seed| SparsityPattern::row_wise(512, 8, seed))
            .collect();
        let mean = |of: &dyn Fn(&SparsityPattern) -> f64| {
            patterns.iter().map(of).sum::<f64>() / patterns.len() as f64
        };
        let mean_exact = mean(&|p| cycles(p.compress(gemm)) as f64);
        let mean_density = mean(&density);
        let est = cycles(GemmShape::new(96, 96, expected_k(512, mean_density))) as f64;
        let rel = (est - mean_exact).abs() / mean_exact;
        assert!(
            rel < 0.08,
            "ensemble mean {mean_exact} vs expected-K' {est}"
        );
    }

    #[test]
    fn storage_expectation_matches_exact_accounting() {
        // nnz = density·K·N entries, each a value plus its index;
        // CSR/CSC add one 32-bit pointer per row/column (+1).
        let (k, n) = (256u64, 64u64);
        let p = SparsityPattern::layer_wise(256, NmRatio::new(2, 4).unwrap());
        let nnz = (density(&p) * (k * n) as f64) as u64;
        for (format, index_bits, pointers) in [
            (SparseFormat::BlockedEllpack, 2, 0),
            (SparseFormat::Csr, 6, k + 1),
            (SparseFormat::Csc, 8, n + 1),
        ] {
            let want = nnz * (16 + index_bits) + pointers * 32;
            assert_eq!(format.filter_storage_bits(&p, 64, 16), want, "{format:?}");
        }
    }

    #[test]
    fn speedup_monotone_in_sparsity() {
        let gemm = GemmShape::new(64, 64, 512);
        let speedup = |n| {
            let p = SparsityPattern::layer_wise(512, NmRatio::new(n, 4).unwrap());
            cycles(gemm) as f64 / cycles(p.compress(gemm)) as f64
        };
        assert!(speedup(1) > speedup(2));
        assert!(speedup(2) > speedup(3));
        assert!(speedup(3) >= 1.0);
    }
}
