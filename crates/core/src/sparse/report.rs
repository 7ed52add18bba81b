//! `SPARSE_REPORT.csv` — the paper's §IV-B step-3 output: per layer, the
//! representation used, original filter storage, and compressed storage
//! split into values and metadata.

use crate::sparse::pattern::SparsityPattern;
use crate::sparse::SparseFormat;

/// One row of the sparse report.
#[derive(Debug, Clone, PartialEq)]
pub struct SparseReportRow {
    /// Layer name.
    pub layer: String,
    /// Sparsity descriptor (e.g. `"2:4"` or `"rowwise/8"`).
    pub(crate) sparsity: String,
    /// Representation name.
    pub(crate) representation: &'static str,
    /// Dense filter storage in bytes.
    pub original_bytes: u64,
    /// Compressed value storage in bytes.
    pub(crate) value_bytes: u64,
    /// Metadata storage in bytes.
    pub(crate) metadata_bytes: u64,
}

impl SparseReportRow {
    /// The row of one layer, computed from its pattern and filter width.
    pub(crate) fn new(
        layer: impl Into<String>,
        pattern: &SparsityPattern,
        n_cols: usize,
        format: SparseFormat,
        bits_per_value: usize,
    ) -> Self {
        let dense_bits = SparseFormat::dense_storage_bits(pattern.k(), n_cols, bits_per_value);
        let nnz = pattern.effective_k() as u64 * n_cols as u64;
        let value_bits = nnz * bits_per_value as u64;
        let total_bits = format.filter_storage_bits(pattern, n_cols, bits_per_value);
        let metadata_bits = total_bits.saturating_sub(value_bits);
        Self {
            layer: layer.into(),
            sparsity: format!("K'={}/{}", pattern.effective_k(), pattern.k()),
            representation: format.name(),
            original_bytes: dense_bits / 8,
            value_bytes: value_bits / 8,
            metadata_bytes: metadata_bits / 8,
        }
    }

    /// Total compressed storage (values + metadata) in bytes.
    pub fn new_filter_bytes(&self) -> u64 {
        self.value_bytes + self.metadata_bytes
    }
}
