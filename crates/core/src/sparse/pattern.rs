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
    pub(crate) fn n(&self) -> usize {
        self.n
    }

    /// Block size.
    pub(crate) fn m(&self) -> usize {
        self.m
    }

    /// Parses `"2:4"`-style strings (the topology `SparsitySupport` column).
    pub(crate) fn parse(s: &str) -> Option<Self> {
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
    pub(crate) group_nnz: Vec<usize>,
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

    /// Original contraction dimension `K`.
    pub(crate) fn k(&self) -> usize {
        self.k
    }

    /// Block size `M`.
    pub(crate) fn block_size(&self) -> usize {
        self.block
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
