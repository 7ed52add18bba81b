//! # `scalesim::sparse`
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
//! There is no separate sparse cycle model: the integrated engine's
//! pipeline draws a pattern per layer when a `[sparsity]` section is
//! configured, compresses the GEMM and plans it like any other — always
//! on a weight-stationary array, as the paper fixes for §IV — and
//! reports storage through `SPARSE_REPORT.csv`; the module map lives in
//! `docs/ARCHITECTURE.md`.
//!
//! ```
//! use scalesim::sparse::{NmRatio, SparsityPattern, SparseFormat};
//!
//! let ratio = NmRatio::new(2, 4).unwrap();
//! let pattern = SparsityPattern::layer_wise(128, ratio);
//! assert_eq!(pattern.effective_k(), 64);
//! let storage = SparseFormat::BlockedEllpack.filter_storage_bits(&pattern, 64, 16);
//! assert!(storage < SparseFormat::dense_storage_bits(128, 64, 16));
//! ```

pub mod pattern;
pub mod report;

pub use pattern::{NmRatio, SparsityPattern};
pub(crate) use report::SparseReportRow;

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
    pub(crate) fn name(&self) -> &'static str {
        match self {
            SparseFormat::Csr => "csr",
            SparseFormat::Csc => "csc",
            SparseFormat::BlockedEllpack => "ellpack_block",
        }
    }
}
