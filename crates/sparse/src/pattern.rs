//! N:M structured sparsity patterns.
//!
//! Sparsity is expressed as `N:M` — in every block of `M` filter rows along
//! the contraction (`K`) dimension, exactly `N` rows hold non-zero values
//! (paper §IV). Layer-wise sparsity fixes one ratio per layer; row-wise
//! sparsity randomizes `N` per block with the paper's constraint `N ≤ M/2`.

use scalesim_systolic::GemmShape;
use std::fmt;

/// A validated `N:M` sparsity ratio.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct NmRatio {
    n: usize,
    m: usize,
}

impl NmRatio {
    /// Creates a ratio. `M` must be a power of two (metadata is
    /// `log2(M)` bits per entry) and `0 < N ≤ M`.
    pub fn new(n: usize, m: usize) -> Option<Self> {
        if m == 0 || !m.is_power_of_two() || n == 0 || n > m {
            None
        } else {
            Some(Self { n, m })
        }
    }

    /// Non-zero elements per block.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Block size.
    pub fn m(&self) -> usize {
        self.m
    }

    /// Density as a fraction.
    pub fn density(&self) -> f64 {
        self.n as f64 / self.m as f64
    }

    /// Parses `"2:4"`-style strings (the topology `SparsitySupport` column).
    pub fn parse(s: &str) -> Option<Self> {
        let (n, m) = s.trim().split_once(':')?;
        Self::new(n.trim().parse().ok()?, m.trim().parse().ok()?)
    }
}

impl fmt::Display for NmRatio {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.n, self.m)
    }
}

/// The structural sparsity of one filter along its `K` dimension.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SparsityPattern {
    k: usize,
    block: usize,
    /// Non-zero row count per block (last block may be partial).
    group_nnz: Vec<usize>,
}

impl SparsityPattern {
    /// Layer-wise pattern: every block keeps exactly `ratio.n()` rows
    /// (clipped in a final partial block).
    pub fn layer_wise(k: usize, ratio: NmRatio) -> Self {
        let block = ratio.m();
        let group_nnz = (0..k.div_ceil(block))
            .map(|g| {
                let rows = (k - g * block).min(block);
                ratio.n().min(rows)
            })
            .collect();
        Self {
            k,
            block,
            group_nnz,
        }
    }

    /// Row-wise pattern: every block draws `N` uniformly from `1..=M/2`
    /// (paper §IV-B: "the number of non-zero elements (N) is randomized for
    /// different rows and is kept ≤ M/2"), deterministically from `seed`.
    pub fn row_wise(k: usize, block: usize, seed: u64) -> Self {
        assert!(
            block.is_power_of_two() && block >= 2,
            "block must be 2^i ≥ 2"
        );
        let mut state = seed;
        let group_nnz = (0..k.div_ceil(block))
            .map(|g| {
                let rows = (k - g * block).min(block);
                (1 + below(&mut state, block / 2)).min(rows)
            })
            .collect();
        Self {
            k,
            block,
            group_nnz,
        }
    }

    /// Fully dense pattern (every row non-zero) with the given block size.
    pub fn dense(k: usize, block: usize) -> Self {
        assert!(block.is_power_of_two());
        let group_nnz = (0..k.div_ceil(block))
            .map(|g| (k - g * block).min(block))
            .collect();
        Self {
            k,
            block,
            group_nnz,
        }
    }

    /// Original contraction dimension `K`.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Block size `M`.
    pub fn block_size(&self) -> usize {
        self.block
    }

    /// Per-block non-zero row counts.
    pub fn group_nnz(&self) -> &[usize] {
        &self.group_nnz
    }

    /// The compressed contraction dimension `K' = Σ nnz_g`: the number of
    /// filter rows actually streamed through the array.
    pub fn effective_k(&self) -> usize {
        self.group_nnz.iter().sum()
    }

    /// The GEMM a weight-stationary array executes for `gemm` once this
    /// pattern's zero filter rows are skipped: `K` compressed to `K'`
    /// (at least 1 — a layer never vanishes). The one statement of the
    /// §IV compression rule; the engine plans the result like any dense
    /// GEMM.
    ///
    /// # Panics
    ///
    /// Panics if the pattern does not cover `gemm.k`.
    pub fn compress(&self, gemm: GemmShape) -> GemmShape {
        assert_eq!(self.k, gemm.k, "pattern must cover the GEMM K dim");
        GemmShape::new(gemm.m, gemm.n, self.effective_k().max(1))
    }

    /// Overall density of the pattern.
    pub fn density(&self) -> f64 {
        if self.k == 0 {
            0.0
        } else {
            self.effective_k() as f64 / self.k as f64
        }
    }

    /// The non-zero row indices (within `0..k`), first-N-per-block order —
    /// the paper's simplifying assumption ("the first N rows have non-zero
    /// elements").
    pub fn nonzero_rows(&self) -> Vec<usize> {
        let mut rows = Vec::with_capacity(self.effective_k());
        for (g, &nnz) in self.group_nnz.iter().enumerate() {
            let base = g * self.block;
            rows.extend(base..base + nnz);
        }
        rows
    }
}

/// The next draw from a SplitMix64 stream, mapped uniformly onto
/// `0..span` by multiply-shift (unbiased enough for block-sized spans
/// without a rejection loop). Deterministic per seed; the row-wise
/// patterns — and the goldens computed from them — depend on this
/// exact stream.
fn below(state: &mut u64, span: usize) -> usize {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    ((z as u128 * span as u128) >> 64) as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ratio_validation() {
        assert!(NmRatio::new(2, 4).is_some());
        assert!(NmRatio::new(0, 4).is_none());
        assert!(NmRatio::new(5, 4).is_none());
        assert!(NmRatio::new(2, 3).is_none(), "M must be a power of two");
        assert!(NmRatio::new(2, 0).is_none());
    }

    #[test]
    fn ratio_parse_and_display() {
        let r = NmRatio::parse("2:4").unwrap();
        assert_eq!(r.to_string(), "2:4");
        assert!(NmRatio::parse("junk").is_none());
    }

    #[test]
    fn layer_wise_effective_k() {
        let p = SparsityPattern::layer_wise(16, NmRatio::new(1, 4).unwrap());
        assert_eq!(p.effective_k(), 4);
        assert_eq!(p.group_nnz(), &[1, 1, 1, 1]);
        assert!((p.density() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn layer_wise_partial_tail_block() {
        // K=10, 2:4 → blocks of 4,4,2; tail keeps min(2, 2) = 2.
        let p = SparsityPattern::layer_wise(10, NmRatio::new(2, 4).unwrap());
        assert_eq!(p.group_nnz(), &[2, 2, 2]);
        assert_eq!(p.effective_k(), 6);
    }

    #[test]
    fn row_wise_respects_half_bound_and_is_deterministic() {
        let a = SparsityPattern::row_wise(256, 8, 42);
        let b = SparsityPattern::row_wise(256, 8, 42);
        assert_eq!(a, b, "same seed, same pattern");
        for &nnz in a.group_nnz() {
            assert!((1..=4).contains(&nnz), "nnz {nnz} violates 1..=M/2");
        }
        let c = SparsityPattern::row_wise(256, 8, 43);
        assert_ne!(a, c, "different seed should differ");
    }

    #[test]
    fn dense_pattern_has_full_k() {
        let p = SparsityPattern::dense(100, 16);
        assert_eq!(p.effective_k(), 100);
        assert!((p.density() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn nonzero_rows_are_sorted_unique_in_range() {
        let p = SparsityPattern::row_wise(64, 4, 7);
        let rows = p.nonzero_rows();
        assert_eq!(rows.len(), p.effective_k());
        assert!(rows.windows(2).all(|w| w[0] < w[1]));
        assert!(rows.iter().all(|&r| r < 64));
    }
}
