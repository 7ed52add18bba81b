//! Walking a banked matrix without visiting every element.
//!
//! A systolic array's edge lanes each walk a matrix along a row or down a
//! column, one element per cycle. The `(line, bank)` an element lives in
//! ([`LayoutSpec::place_banked`]) changes only when the walk leaves a line
//! tile or a bank's slice of it, so a lane is a `Cursor` that knows its
//! current `(line, bank)` *cell* and how many more elements lie in it,
//! and moves cell to cell by additions. `BankedMatrix` holds the placement
//! constants and, per cell, the cycle it was last fetched in: the
//! array-edge line buffers keep a fetched cell for a window of cycles, and
//! a cell still buffered costs its bank no port (paper §VI-B).

use crate::layout::conflict::BankModel;
use crate::layout::spec::{LayoutSpec, TensorDims};

/// The direction a `Cursor` moves in, one element per step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Heading {
    /// Along a matrix row, towards higher columns.
    Right,
    /// Along a matrix row, towards lower columns.
    Left,
    /// Down a matrix column, towards higher rows.
    Down,
    /// Up a matrix column, towards lower rows.
    Up,
}

/// What a fetch of a cell costs, given when the cell was last fetched.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Touch {
    /// Already fetched this very cycle: the same access, seen again.
    Duplicate,
    /// Fetched within the line-buffer window: served from the buffer.
    Buffered,
    /// Not buffered: occupies a port of its bank this cycle.
    Fetched,
}

/// A `rows × cols` matrix stored under a layout in banked on-chip memory,
/// with the line-buffer recency of each `(line, bank)` cell.
#[derive(Debug, Clone)]
pub(crate) struct BankedMatrix {
    layout: LayoutSpec,
    cols: usize,
    /// Line tiles per tile row (`⌈cols / w1⌉`).
    w_tiles: usize,
    banks: usize,
    /// Bank of each column of a line.
    bank_of: Vec<u32>,
    /// Elements of a line in one bank's slice.
    slice: usize,
    /// Per cell (`line · banks + bank`), the cycle it was last fetched in;
    /// zero for never (cycles count from one).
    fetched: Vec<u64>,
}

/// One lane's place in a `BankedMatrix` and its way through it.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Cursor {
    /// Index of the line tile along the heading, and the element's place
    /// in it (`w / w1, w % w1` moving along a row; `h / h1, h % h1` down a
    /// column).
    tile: usize,
    within: usize,
    /// Line of tile 0 and in-line column of place 0, from the coordinate
    /// the walk keeps fixed.
    line_base: usize,
    column_base: usize,
    /// Tile length along the heading, and what one tile and one place
    /// add to the line and the in-line column.
    tile_len: usize,
    line_step: usize,
    column_step: usize,
    forward: bool,
    /// The current cell and its bank.
    cell: usize,
    bank: usize,
    /// Elements of the walk certainly left in this cell, the current one
    /// included (the cell may go on: a stride of whole bank rounds lands
    /// in the same bank again).
    left: usize,
}

impl BankedMatrix {
    /// Places a `rows × cols` matrix under `layout` in `model`'s banks,
    /// nothing fetched yet.
    pub(crate) fn new(model: &BankModel, layout: LayoutSpec, rows: usize, cols: usize) -> Self {
        let dims = TensorDims::matrix(rows, cols);
        let (banks, slice) = (model.num_banks(), model.bandwidth_per_bank());
        Self {
            layout,
            cols,
            w_tiles: cols.div_ceil(layout.w1_step),
            banks,
            bank_of: (0..layout.line_elems())
                .map(|column| ((column / slice) % banks) as u32)
                .collect(),
            slice,
            fetched: vec![0; layout.lines_needed(dims) * banks],
        }
    }

    /// Matrix columns.
    pub(crate) fn cols(&self) -> usize {
        self.cols
    }

    /// A cursor on element `(row, col)` about to walk `heading`.
    pub(crate) fn cursor(&self, row: usize, col: usize, heading: Heading) -> Cursor {
        let l = &self.layout;
        let along_row = matches!(heading, Heading::Right | Heading::Left);
        let (moving, fixed_line, fixed_column) = if along_row {
            (
                col,
                (row / l.h1_step) * self.w_tiles,
                (row % l.h1_step) * l.c1_step,
            )
        } else {
            (
                row,
                col / l.w1_step,
                (col % l.w1_step) * l.h1_step * l.c1_step,
            )
        };
        let (tile_len, line_step, column_step) = if along_row {
            (l.w1_step, 1, l.h1_step * l.c1_step)
        } else {
            (l.h1_step, self.w_tiles, l.c1_step)
        };
        let mut cursor = Cursor {
            tile: moving / tile_len,
            within: moving % tile_len,
            line_base: fixed_line,
            column_base: fixed_column,
            tile_len,
            line_step,
            column_step,
            forward: matches!(heading, Heading::Right | Heading::Down),
            cell: 0,
            bank: 0,
            left: 0,
        };
        cursor.settle(self);
        cursor
    }

    /// Fetches `cell` at `cycle` (counted from one) and says what that
    /// costs with a line buffer that keeps a cell for `window` cycles.
    pub(crate) fn touch(&mut self, cell: usize, cycle: u64, window: u64) -> Touch {
        let last = std::mem::replace(&mut self.fetched[cell], cycle);
        if last == cycle {
            Touch::Duplicate
        } else if last != 0 && cycle - last <= window {
            Touch::Buffered
        } else {
            Touch::Fetched
        }
    }

    /// Records that `cell` was fetched at `cycle`, at no cost: how a walk
    /// that stayed in a cell over cycles it did not report catches up.
    pub(crate) fn mark(&mut self, cell: usize, cycle: u64) {
        self.fetched[cell] = cycle;
    }
}

impl Cursor {
    /// The `(line, bank)` cell the cursor is in.
    pub(crate) fn cell(&self) -> usize {
        self.cell
    }

    /// The bank of that cell.
    pub(crate) fn bank(&self) -> usize {
        self.bank
    }

    /// Elements of the walk left in this cell for certain, the current
    /// one included; the walk is in the cell at least this long.
    pub(crate) fn left(&self) -> usize {
        self.left
    }

    /// What one element of the walk adds to the cell index (wrapping: a
    /// walk towards lower rows or columns adds a negative), when every
    /// element lies in a cell of its own — the tile is one element long
    /// along the heading, as down a column of a row-major matrix. None
    /// when cells hold runs of elements.
    pub(crate) fn cell_step(&self, matrix: &BankedMatrix) -> Option<usize> {
        let step = self.line_step * matrix.banks;
        (self.tile_len == 1).then_some(if self.forward {
            step
        } else {
            step.wrapping_neg()
        })
    }

    /// Moves [`left`](Self::left) elements on along the heading, which is
    /// where the next cell may begin. (Past the matrix's edge the cursor
    /// is off the matrix and must not be read.)
    pub(crate) fn next_cell(&mut self, matrix: &BankedMatrix) {
        if self.forward {
            self.within += self.left;
            if self.within == self.tile_len {
                (self.tile, self.within) = (self.tile + 1, 0);
            }
        } else if self.left > self.within {
            (self.tile, self.within) = (self.tile.wrapping_sub(1), self.tile_len - 1);
        } else {
            self.within -= self.left;
        }
        self.settle(matrix);
    }

    /// Works out the cell, its bank and the elements left in it.
    fn settle(&mut self, matrix: &BankedMatrix) {
        let column = self.column_base + self.within * self.column_step;
        self.bank = matrix.bank_of[column] as usize;
        let line = self
            .line_base
            .wrapping_add(self.tile.wrapping_mul(self.line_step));
        self.cell = line.wrapping_mul(matrix.banks).wrapping_add(self.bank);
        let in_tile = if self.forward {
            self.tile_len - self.within
        } else {
            self.within + 1
        };
        self.left = if in_tile == 1 || matrix.banks == 1 {
            in_tile
        } else {
            // Places until the in-line column leaves this bank's slice.
            let into_slice = column % matrix.slice;
            let in_slice = if self.forward {
                (matrix.slice - into_slice).div_ceil(self.column_step)
            } else {
                into_slice / self.column_step + 1
            };
            in_tile.min(in_slice)
        };
    }
}
