//! Concrete sparse matrix representations with storage accounting — a
//! **reference for the oracle**, not product code: `crates/sparse` ships
//! only the storage *formulas* `SPARSE_REPORT.csv` prints, and
//! `tests/invariants.rs` holds each formula to what these real data
//! structures (construct, convert, multiply; round-trip-tested below)
//! measure on a filter built from the same pattern. The blocked ELLPACK
//! layout follows Fig. 6 of the paper: non-zero values packed per block
//! plus one `log2(block)`-bit position metadata entry per value.

use std::fmt;

/// A dense row-major matrix (the reference representation).
#[derive(Debug, Clone, PartialEq)]
pub struct DenseMatrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl DenseMatrix {
    /// Creates a matrix from row-major data.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(data.len(), rows * cols, "dimension mismatch");
        Self { rows, cols, data }
    }

    /// Zero-filled matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Element accessor.
    pub fn get(&self, r: usize, c: usize) -> f32 {
        self.data[r * self.cols + c]
    }

    /// Mutable element accessor.
    pub fn set(&mut self, r: usize, c: usize, v: f32) {
        self.data[r * self.cols + c] = v;
    }

    /// Number of non-zero elements.
    pub fn nnz(&self) -> usize {
        self.data.iter().filter(|&&v| v != 0.0).count()
    }

    /// Dense storage in bits.
    pub fn storage_bits(&self, bits_per_value: usize) -> u64 {
        (self.rows * self.cols * bits_per_value) as u64
    }

    /// Dense × dense reference multiply (for correctness tests).
    pub fn matmul(&self, rhs: &DenseMatrix) -> DenseMatrix {
        assert_eq!(self.cols, rhs.rows, "inner dimensions must agree");
        let mut out = DenseMatrix::zeros(self.rows, rhs.cols);
        for i in 0..self.rows {
            for k in 0..self.cols {
                let a = self.get(i, k);
                if a == 0.0 {
                    continue;
                }
                for j in 0..rhs.cols {
                    let v = out.get(i, j) + a * rhs.get(k, j);
                    out.set(i, j, v);
                }
            }
        }
        out
    }
}

impl fmt::Display for DenseMatrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "DenseMatrix({}x{}, nnz={})",
            self.rows,
            self.cols,
            self.nnz()
        )
    }
}

/// Compressed sparse row.
#[derive(Debug, Clone, PartialEq)]
pub struct Csr {
    rows: usize,
    cols: usize,
    /// Row pointer array of length `rows + 1`.
    pub row_ptr: Vec<usize>,
    /// Column index per non-zero.
    pub col_idx: Vec<usize>,
    /// Non-zero values.
    pub values: Vec<f32>,
}

impl Csr {
    /// Compresses a dense matrix.
    pub fn from_dense(d: &DenseMatrix) -> Self {
        let mut row_ptr = Vec::with_capacity(d.rows() + 1);
        let mut col_idx = Vec::new();
        let mut values = Vec::new();
        row_ptr.push(0);
        for r in 0..d.rows() {
            for c in 0..d.cols() {
                let v = d.get(r, c);
                if v != 0.0 {
                    col_idx.push(c);
                    values.push(v);
                }
            }
            row_ptr.push(values.len());
        }
        Self {
            rows: d.rows(),
            cols: d.cols(),
            row_ptr,
            col_idx,
            values,
        }
    }

    /// Expands back to dense.
    pub fn to_dense(&self) -> DenseMatrix {
        let mut d = DenseMatrix::zeros(self.rows, self.cols);
        for r in 0..self.rows {
            for i in self.row_ptr[r]..self.row_ptr[r + 1] {
                d.set(r, self.col_idx[i], self.values[i]);
            }
        }
        d
    }

    /// Non-zeros stored.
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// Storage in bits: values + column indices + row pointers.
    pub fn storage_bits(&self, bits_per_value: usize) -> u64 {
        let col_bits = usize::BITS - (self.cols.max(2) - 1).leading_zeros();
        self.nnz() as u64 * (bits_per_value as u64 + col_bits as u64) + (self.rows as u64 + 1) * 32
    }

    /// CSR × dense multiply.
    pub fn matmul_dense(&self, rhs: &DenseMatrix) -> DenseMatrix {
        assert_eq!(self.cols, rhs.rows());
        let mut out = DenseMatrix::zeros(self.rows, rhs.cols());
        for r in 0..self.rows {
            for i in self.row_ptr[r]..self.row_ptr[r + 1] {
                let k = self.col_idx[i];
                let a = self.values[i];
                for j in 0..rhs.cols() {
                    let v = out.get(r, j) + a * rhs.get(k, j);
                    out.set(r, j, v);
                }
            }
        }
        out
    }
}

/// Compressed sparse column.
#[derive(Debug, Clone, PartialEq)]
pub struct Csc {
    rows: usize,
    cols: usize,
    /// Column pointer array of length `cols + 1`.
    pub col_ptr: Vec<usize>,
    /// Row index per non-zero.
    pub row_idx: Vec<usize>,
    /// Non-zero values.
    pub values: Vec<f32>,
}

impl Csc {
    /// Compresses a dense matrix.
    pub fn from_dense(d: &DenseMatrix) -> Self {
        let mut col_ptr = Vec::with_capacity(d.cols() + 1);
        let mut row_idx = Vec::new();
        let mut values = Vec::new();
        col_ptr.push(0);
        for c in 0..d.cols() {
            for r in 0..d.rows() {
                let v = d.get(r, c);
                if v != 0.0 {
                    row_idx.push(r);
                    values.push(v);
                }
            }
            col_ptr.push(values.len());
        }
        Self {
            rows: d.rows(),
            cols: d.cols(),
            col_ptr,
            row_idx,
            values,
        }
    }

    /// Expands back to dense.
    pub fn to_dense(&self) -> DenseMatrix {
        let mut d = DenseMatrix::zeros(self.rows, self.cols);
        for c in 0..self.cols {
            for i in self.col_ptr[c]..self.col_ptr[c + 1] {
                d.set(self.row_idx[i], c, self.values[i]);
            }
        }
        d
    }

    /// Non-zeros stored.
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// Storage in bits: values + row indices + column pointers.
    pub fn storage_bits(&self, bits_per_value: usize) -> u64 {
        let row_bits = usize::BITS - (self.rows.max(2) - 1).leading_zeros();
        self.nnz() as u64 * (bits_per_value as u64 + row_bits as u64) + (self.cols as u64 + 1) * 32
    }
}

/// Blocked ELLPACK (Fig. 6): the matrix is split into blocks of `block`
/// rows; each block stores its non-zero values column by column together
/// with a `log2(block)`-bit intra-block row position per value.
#[derive(Debug, Clone, PartialEq)]
pub struct BlockedEllpack {
    rows: usize,
    cols: usize,
    block: usize,
    /// Per block: per column, `(intra_block_row, value)` pairs.
    pub blocks: Vec<Vec<Vec<(u8, f32)>>>,
}

impl BlockedEllpack {
    /// Compresses a dense matrix with the given block size (power of two,
    /// at most 256 so metadata fits a byte).
    ///
    /// # Panics
    ///
    /// Panics if `block` is not a power of two in `2..=256`.
    pub fn from_dense(d: &DenseMatrix, block: usize) -> Self {
        assert!(
            block.is_power_of_two() && (2..=256).contains(&block),
            "block size must be a power of two in 2..=256"
        );
        let nblocks = d.rows().div_ceil(block);
        let mut blocks = Vec::with_capacity(nblocks);
        for b in 0..nblocks {
            let base = b * block;
            let height = (d.rows() - base).min(block);
            let mut cols = Vec::with_capacity(d.cols());
            for c in 0..d.cols() {
                let mut entries = Vec::new();
                for dr in 0..height {
                    let v = d.get(base + dr, c);
                    if v != 0.0 {
                        entries.push((dr as u8, v));
                    }
                }
                cols.push(entries);
            }
            blocks.push(cols);
        }
        Self {
            rows: d.rows(),
            cols: d.cols(),
            block,
            blocks,
        }
    }

    /// Expands back to dense.
    pub fn to_dense(&self) -> DenseMatrix {
        let mut d = DenseMatrix::zeros(self.rows, self.cols);
        for (b, cols) in self.blocks.iter().enumerate() {
            for (c, entries) in cols.iter().enumerate() {
                for &(dr, v) in entries {
                    d.set(b * self.block + dr as usize, c, v);
                }
            }
        }
        d
    }

    /// Total stored values.
    pub fn nnz(&self) -> usize {
        self.blocks
            .iter()
            .flat_map(|cols| cols.iter())
            .map(|e| e.len())
            .sum()
    }

    /// Metadata bits per entry: `log2(block)` (Fig. 6).
    pub fn metadata_bits_per_entry(&self) -> u32 {
        self.block.trailing_zeros()
    }

    /// Value storage in bits.
    pub fn value_storage_bits(&self, bits_per_value: usize) -> u64 {
        self.nnz() as u64 * bits_per_value as u64
    }

    /// Metadata storage in bits.
    pub fn metadata_storage_bits(&self) -> u64 {
        self.nnz() as u64 * self.metadata_bits_per_entry() as u64
    }

    /// Total storage in bits (values + metadata).
    pub fn storage_bits(&self, bits_per_value: usize) -> u64 {
        self.value_storage_bits(bits_per_value) + self.metadata_storage_bits()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> DenseMatrix {
        // Fig. 6a-like 8×4 matrix with scattered non-zeros.
        let mut d = DenseMatrix::zeros(8, 4);
        d.set(0, 0, 1.0);
        d.set(1, 2, 2.0);
        d.set(2, 1, 3.0);
        d.set(3, 3, 4.0);
        d.set(5, 0, 5.0);
        d.set(6, 2, 6.0);
        d.set(7, 3, 7.0);
        d
    }

    #[test]
    fn csr_roundtrip() {
        let d = sample();
        let csr = Csr::from_dense(&d);
        assert_eq!(csr.nnz(), d.nnz());
        assert_eq!(csr.to_dense(), d);
    }

    #[test]
    fn csc_roundtrip() {
        let d = sample();
        let csc = Csc::from_dense(&d);
        assert_eq!(csc.nnz(), d.nnz());
        assert_eq!(csc.to_dense(), d);
    }

    #[test]
    fn ellpack_roundtrip_various_blocks() {
        let d = sample();
        for block in [2usize, 4, 8] {
            let e = BlockedEllpack::from_dense(&d, block);
            assert_eq!(e.to_dense(), d, "block={block}");
            assert_eq!(e.nnz(), d.nnz());
            assert_eq!(e.metadata_bits_per_entry(), block.trailing_zeros());
        }
    }

    #[test]
    fn ellpack_storage_formula() {
        let d = sample();
        let e = BlockedEllpack::from_dense(&d, 4);
        // 7 nnz × 16-bit values + 7 × 2-bit metadata.
        assert_eq!(e.storage_bits(16), 7 * 16 + 7 * 2);
    }

    #[test]
    fn csr_matmul_matches_dense() {
        let a = sample();
        let b = DenseMatrix::from_vec(
            4,
            3,
            vec![
                1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0, 11.0, 12.0,
            ],
        );
        let reference = a.matmul(&b);
        let via_csr = Csr::from_dense(&a).matmul_dense(&b);
        assert_eq!(via_csr, reference);
    }

    #[test]
    fn sparse_beats_dense_storage_on_sparse_data() {
        let d = sample(); // 7 / 32 non-zero
        let dense_bits = d.storage_bits(16);
        assert!(Csr::from_dense(&d).storage_bits(16) < dense_bits);
        assert!(BlockedEllpack::from_dense(&d, 4).storage_bits(16) < dense_bits);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn ellpack_rejects_bad_block() {
        let _ = BlockedEllpack::from_dense(&sample(), 3);
    }
}
