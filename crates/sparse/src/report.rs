//! `SPARSE_REPORT.csv` — the paper's §IV-B step-3 output: per layer, the
//! representation used, original filter storage, and compressed storage
//! split into values and metadata.

use crate::pattern::SparsityPattern;
use crate::SparseFormat;

/// One row of the sparse report.
#[derive(Debug, Clone, PartialEq)]
pub struct SparseReportRow {
    /// Layer name.
    pub layer: String,
    /// Sparsity descriptor (e.g. `"2:4"` or `"rowwise/8"`).
    pub sparsity: String,
    /// Representation name.
    pub representation: &'static str,
    /// Dense filter storage in bytes.
    pub original_bytes: u64,
    /// Compressed value storage in bytes.
    pub value_bytes: u64,
    /// Metadata storage in bytes.
    pub metadata_bytes: u64,
}

impl SparseReportRow {
    /// The row of one layer, computed from its pattern and filter width.
    pub fn new(
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

    /// Compression ratio dense/compressed.
    pub fn compression(&self) -> f64 {
        let nb = self.new_filter_bytes();
        if nb == 0 {
            0.0
        } else {
            self.original_bytes as f64 / nb as f64
        }
    }
}

/// The full report.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SparseReport {
    rows: Vec<SparseReportRow>,
}

impl SparseReport {
    /// Creates an empty report.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a layer entry computed from its pattern and filter width.
    pub fn add_layer(
        &mut self,
        layer: impl Into<String>,
        pattern: &SparsityPattern,
        n_cols: usize,
        format: SparseFormat,
        bits_per_value: usize,
    ) {
        let row = SparseReportRow::new(layer, pattern, n_cols, format, bits_per_value);
        self.rows.push(row);
    }

    /// Report rows.
    pub fn rows(&self) -> &[SparseReportRow] {
        &self.rows
    }

    /// Renders the CSV (header + rows).
    pub fn to_csv(&self) -> String {
        let mut out = String::from(
            "Layer, Sparsity, Representation, OriginalFilterBytes, ValueBytes, MetadataBytes, NewFilterBytes, Compression\n",
        );
        for r in &self.rows {
            out.push_str(&format!(
                "{}, {}, {}, {}, {}, {}, {}, {:.3}\n",
                r.layer,
                r.sparsity,
                r.representation,
                r.original_bytes,
                r.value_bytes,
                r.metadata_bytes,
                r.new_filter_bytes(),
                r.compression()
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pattern::NmRatio;

    #[test]
    fn report_rows_and_totals() {
        let mut rep = SparseReport::new();
        let p = SparsityPattern::layer_wise(128, NmRatio::new(1, 4).unwrap());
        rep.add_layer("conv1", &p, 64, SparseFormat::BlockedEllpack, 16);
        let row = &rep.rows()[0];
        // Dense: 128·64·2 B = 16384 B. Values: 32·64·2 B = 4096 B.
        assert_eq!(row.original_bytes, 16384);
        assert_eq!(row.value_bytes, 4096);
        // Metadata: 32·64 entries × 2 bits = 512 B.
        assert_eq!(row.metadata_bytes, 512);
        assert!(row.compression() > 3.0);
        assert_eq!(row.new_filter_bytes(), 4608);
    }

    #[test]
    fn csv_shape() {
        let mut rep = SparseReport::new();
        let p = SparsityPattern::layer_wise(16, NmRatio::new(2, 4).unwrap());
        rep.add_layer("l0", &p, 8, SparseFormat::Csr, 16);
        let csv = rep.to_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].starts_with("Layer,"));
        assert!(lines[1].starts_with("l0,"));
        assert_eq!(lines[0].split(',').count(), lines[1].split(',').count());
    }

    #[test]
    fn denser_ratios_store_more() {
        let mut rep = SparseReport::new();
        for (name, n) in [("s1", 1), ("s2", 2), ("s3", 3)] {
            let p = SparsityPattern::layer_wise(64, NmRatio::new(n, 4).unwrap());
            rep.add_layer(name, &p, 32, SparseFormat::BlockedEllpack, 16);
        }
        let sizes: Vec<u64> = rep.rows().iter().map(|r| r.new_filter_bytes()).collect();
        assert!(sizes[0] < sizes[1] && sizes[1] < sizes[2]);
    }
}
