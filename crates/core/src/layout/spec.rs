//! Layout specification: nested-loop dimension orders and the
//! line/column/bank index equations of paper §VI-B.

/// Dimensions of a `C × H × W` tensor stored in the on-chip memory.
///
/// Matrices are handled as `C = 1` tensors (`H` = rows, `W` = cols) or any
/// other convenient assignment — the equations are agnostic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TensorDims {
    /// Channel extent.
    pub c: usize,
    /// Height extent.
    pub h: usize,
    /// Width extent.
    pub w: usize,
}

impl TensorDims {
    /// Creates tensor dimensions.
    ///
    /// # Panics
    ///
    /// Panics if any extent is zero.
    pub fn new(c: usize, h: usize, w: usize) -> Self {
        assert!(c > 0 && h > 0 && w > 0, "tensor extents must be non-zero");
        Self { c, h, w }
    }

    /// For a matrix: rows map to `h`, columns to `w`.
    pub fn matrix(rows: usize, cols: usize) -> Self {
        Self::new(1, rows, cols)
    }
}

/// Where one element lives in the 2D multi-bank abstraction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Placement {
    /// Line (row of the 2D array; same index across all banks).
    pub line: usize,
    /// Column within the aggregated line.
    pub(crate) col: usize,
    /// Bank serving that column.
    pub bank: usize,
}

/// A data layout: the inter-line dimension steps (how many consecutive
/// elements of each dimension share a line) — Fig. 11's
/// `C64 H8 W8 _ W2 H4 C16` notation keeps `w1_step = 2`, `h1_step = 4`,
/// `c1_step = 16` elements of each dimension per line.
///
/// Intra-line order is fixed to `w → h → c` (outer to inner), matching the
/// figure; the *steps* are what change behaviour.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LayoutSpec {
    /// Channels per line tile (`c1_step`).
    pub(crate) c1_step: usize,
    /// Rows per line tile (`h1_step`).
    pub(crate) h1_step: usize,
    /// Columns per line tile (`w1_step`).
    pub(crate) w1_step: usize,
}

impl LayoutSpec {
    /// Creates a layout from the three inter-line steps.
    ///
    /// # Panics
    ///
    /// Panics if any step is zero.
    pub fn new(c1_step: usize, h1_step: usize, w1_step: usize) -> Self {
        assert!(
            c1_step > 0 && h1_step > 0 && w1_step > 0,
            "layout steps must be non-zero"
        );
        Self {
            c1_step,
            h1_step,
            w1_step,
        }
    }

    /// The worked example of Fig. 11: `C64 H8 W8 _ W2 H4 C16`.
    pub fn fig11() -> Self {
        Self::new(16, 4, 2)
    }

    /// Row-major matrix layout: `line_elems` consecutive columns per line.
    pub fn row_major(line_elems: usize) -> Self {
        Self::new(1, 1, line_elems.max(1))
    }

    /// Column-major matrix layout: `line_elems` consecutive rows per line.
    pub fn column_major(line_elems: usize) -> Self {
        Self::new(1, line_elems.max(1), 1)
    }

    /// Elements per line (across all banks).
    pub fn line_elems(&self) -> usize {
        self.c1_step * self.h1_step * self.w1_step
    }

    /// The `(line, col)` of element `(c, h, w)` per the paper's equations:
    ///
    /// ```text
    /// line = ⌊c/c1⌋·⌈H/h1⌉·⌈W/w1⌉ + ⌊h/h1⌋·⌈W/w1⌉ + ⌊w/w1⌋
    /// col  = (w mod w1)·h1·c1 + (h mod h1)·c1 + (c mod c1)
    /// ```
    #[inline]
    pub fn place(&self, dims: TensorDims, c: usize, h: usize, w: usize) -> (usize, usize) {
        debug_assert!(
            c < dims.c && h < dims.h && w < dims.w,
            "coords out of range"
        );
        let h_tiles = dims.h.div_ceil(self.h1_step);
        let w_tiles = dims.w.div_ceil(self.w1_step);
        let line = (c / self.c1_step) * h_tiles * w_tiles
            + (h / self.h1_step) * w_tiles
            + (w / self.w1_step);
        let col = (w % self.w1_step) * self.h1_step * self.c1_step
            + (h % self.h1_step) * self.c1_step
            + (c % self.c1_step);
        (line, col)
    }

    /// Full placement including the bank, given the per-bank line width:
    /// `bank = ⌊col / bandwidth_per_bank⌋`.
    #[inline]
    pub fn place_banked(
        &self,
        dims: TensorDims,
        c: usize,
        h: usize,
        w: usize,
        bandwidth_per_bank: usize,
        num_banks: usize,
    ) -> Placement {
        let (line, col) = self.place(dims, c, h, w);
        Placement {
            line,
            col,
            bank: (col / bandwidth_per_bank.max(1)) % num_banks.max(1),
        }
    }

    /// Number of lines the tensor occupies.
    pub fn lines_needed(&self, dims: TensorDims) -> usize {
        dims.c.div_ceil(self.c1_step)
            * dims.h.div_ceil(self.h1_step)
            * dims.w.div_ceil(self.w1_step)
    }
}
