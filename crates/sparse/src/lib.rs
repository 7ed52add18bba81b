//! # scalesim-sparse
//!
//! Sparse matrix-multiplication support for systolic accelerators — the
//! SCALE-Sim v3 sparsity feature (paper §IV).
//!
//! Provides:
//!
//! * **N:M structured sparsity patterns** ([`pattern`]) — layer-wise (one
//!   ratio for the whole layer) and row-wise (randomized per group with
//!   `N ≤ M/2`, the paper's VEGETA-style mode), generated with a seeded
//!   RNG — and the one compression rule,
//!   [`SparsityPattern::compress`]: an N:M-sparse GEMM runs as the dense
//!   GEMM with `K` compressed to the non-zero filter rows (Figs. 5, 8).
//! * **Storage accounting** ([`SparseFormat::filter_storage_bits`]) —
//!   CSR, CSC and Blocked ELLPACK value/metadata bits (`log2(M)` bits
//!   per metadata entry, Fig. 6). The real matrix formats the formulas
//!   are checked against are a reference, kept with the oracle (the
//!   root package's `src/matrix.rs`, used by `tests/invariants.rs`).
//! * **Reports** ([`report`]) — the `SPARSE_REPORT.csv` equivalent:
//!   original vs compressed filter storage including metadata.
//!
//! There is no separate sparse cycle model: the integrated engine (the
//! `scalesim` crate) draws a pattern per layer when a `[sparsity]`
//! section is configured, compresses the GEMM and plans it like any
//! other — always on a weight-stationary array, as the paper fixes for
//! §IV — and reports storage through `SPARSE_REPORT.csv`; the crate map
//! lives in `docs/ARCHITECTURE.md`.
//!
//! ```
//! use scalesim_sparse::{NmRatio, SparsityPattern, SparseFormat};
//!
//! let ratio = NmRatio::new(2, 4).unwrap();
//! let pattern = SparsityPattern::layer_wise(128, ratio);
//! assert_eq!(pattern.effective_k(), 64);
//! let storage = SparseFormat::BlockedEllpack.filter_storage_bits(&pattern, 64, 16);
//! assert!(storage < SparseFormat::dense_storage_bits(128, 64, 16));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod pattern;
pub mod report;

pub use pattern::{NmRatio, SparsityPattern};
pub use report::{SparseReport, SparseReportRow};

/// Compressed representations supported by the simulator (§IV-C).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum SparseFormat {
    /// Compressed sparse row.
    Csr,
    /// Compressed sparse column.
    Csc,
    /// Blocked ELLPACK — the format all paper experiments use.
    #[default]
    BlockedEllpack,
}

impl SparseFormat {
    /// Dense filter storage in bits for a `k × n` matrix.
    pub fn dense_storage_bits(k: usize, n: usize, bits_per_value: usize) -> u64 {
        (k * n * bits_per_value) as u64
    }

    /// Compressed filter storage in bits for a `pattern`-sparse `k × n`
    /// filter (pattern runs along `k`), including metadata.
    ///
    /// * CSR/CSC: indices of `log2(dim)` rounded up to whole bits plus
    ///   32-bit pointers per row/column.
    /// * Blocked ELLPACK: `nnz · bits_per_value` values plus
    ///   `nnz · log2(block)` metadata bits (Fig. 6b).
    pub fn filter_storage_bits(
        &self,
        pattern: &pattern::SparsityPattern,
        n: usize,
        bits_per_value: usize,
    ) -> u64 {
        let k = pattern.k();
        let nnz_rows = pattern.effective_k() as u64;
        let nnz = nnz_rows * n as u64; // whole rows are non-zero
        match self {
            SparseFormat::Csr => {
                let col_bits = usize::BITS - (n.max(2) - 1).leading_zeros();
                nnz * (bits_per_value as u64 + col_bits as u64) + ((k as u64) + 1) * 32
            }
            SparseFormat::Csc => {
                let row_bits = usize::BITS - (k.max(2) - 1).leading_zeros();
                nnz * (bits_per_value as u64 + row_bits as u64) + ((n as u64) + 1) * 32
            }
            SparseFormat::BlockedEllpack => {
                let meta_bits = pattern.block_size().trailing_zeros() as u64;
                nnz * (bits_per_value as u64 + meta_bits)
            }
        }
    }

    /// Short name used in reports.
    pub fn name(&self) -> &'static str {
        match self {
            SparseFormat::Csr => "csr",
            SparseFormat::Csc => "csc",
            SparseFormat::BlockedEllpack => "ellpack_block",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ellpack_storage_matches_fig6_arithmetic() {
        // 2:4 over K=128, N=64, 16-bit values: nnz rows = 64,
        // values = 64·64·16 bits, metadata = 64·64·2 bits.
        let p = SparsityPattern::layer_wise(128, NmRatio::new(2, 4).unwrap());
        let bits = SparseFormat::BlockedEllpack.filter_storage_bits(&p, 64, 16);
        assert_eq!(bits, 64 * 64 * 16 + 64 * 64 * 2);
    }

    #[test]
    fn formats_all_beat_dense_at_high_sparsity() {
        let p = SparsityPattern::layer_wise(256, NmRatio::new(1, 4).unwrap());
        let dense = SparseFormat::dense_storage_bits(256, 128, 16);
        for f in [
            SparseFormat::Csr,
            SparseFormat::Csc,
            SparseFormat::BlockedEllpack,
        ] {
            let s = f.filter_storage_bits(&p, 128, 16);
            assert!(s < dense, "{} not smaller than dense", f.name());
        }
    }

    #[test]
    fn dense_ratio_ellpack_overhead_is_metadata_only() {
        // 4:4 (“dense”) blocked ELLPACK still pays the metadata bits.
        let p = SparsityPattern::layer_wise(64, NmRatio::new(4, 4).unwrap());
        let dense = SparseFormat::dense_storage_bits(64, 32, 16);
        let ell = SparseFormat::BlockedEllpack.filter_storage_bits(&p, 32, 16);
        assert_eq!(ell, dense + 64 * 32 * 2);
    }
}

/// The paper's sparse-compute facts (Figs. 5/8, §VIII) on the product's
/// rule: [`SparsityPattern::compress`], costed by the closed form the
/// planner is proven equal to (`tests/invariants.rs`). The module path
/// is the one the test floor knows these tests by.
#[cfg(test)]
mod spmm {
    mod tests {
        use crate::{NmRatio, SparseFormat, SparsityPattern};
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
}

/// The distribution view of sparsity (Sparseloop's, §X: expected
/// `K' = ⌈density · K⌉`) checked against the patterns the product
/// draws. The module path is the one the test floor knows these tests
/// by.
#[cfg(test)]
mod analytical {
    mod tests {
        use crate::{NmRatio, SparseFormat, SparsityPattern};
        use scalesim_systolic::{AnalyticalModel, ArrayShape, Dataflow, GemmShape};

        fn cycles(gemm: GemmShape) -> u64 {
            AnalyticalModel::new(ArrayShape::new(16, 16), Dataflow::WeightStationary, gemm)
                .exact_runtime_cycles()
        }

        fn expected_k(k: usize, density: f64) -> usize {
            ((k as f64 * density).ceil() as usize).max(1)
        }

        #[test]
        fn density_one_is_dense() {
            let gemm = GemmShape::new(64, 64, 256);
            let dense = SparsityPattern::dense(256, 4);
            assert_eq!(dense.density(), 1.0);
            assert_eq!(dense.compress(gemm), gemm);
        }

        #[test]
        fn matches_layer_wise_pattern_exactly() {
            // Layer-wise N:M is deterministic: the expected K' at the
            // pattern's density is the K' the pattern compresses to.
            let gemm = GemmShape::new(128, 96, 512);
            for (n, m) in [(1, 4), (2, 4), (2, 8), (4, 8)] {
                let pattern = SparsityPattern::layer_wise(512, NmRatio::new(n, m).unwrap());
                let expected = expected_k(512, pattern.density());
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
            let mean_density = mean(&|p| p.density());
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
            let nnz = (p.density() * (k * n) as f64) as u64;
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
}
