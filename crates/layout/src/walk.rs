//! Walking a banked matrix without visiting every element.
//!
//! A systolic array's edge lanes each walk a matrix along a row or down a
//! column, one element per cycle. The `(line, bank)` an element lives in
//! ([`LayoutSpec::place_banked`]) changes only when the walk leaves a line
//! tile or a bank's slice of it, so a lane is a [`Cursor`] that knows its
//! current `(line, bank)` *cell* and how many more elements lie in it,
//! and moves cell to cell by additions. [`BankedMatrix`] holds the placement
//! constants and, per cell, the cycle it was last fetched in: the
//! array-edge line buffers keep a fetched cell for a window of cycles, and
//! a cell still buffered costs its bank no port (paper §VI-B).

use crate::conflict::BankModel;
use crate::spec::{LayoutSpec, TensorDims};

/// The direction a [`Cursor`] moves in, one element per step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Heading {
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
pub enum Touch {
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
pub struct BankedMatrix {
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

/// One lane's place in a [`BankedMatrix`] and its way through it.
#[derive(Debug, Clone, Copy)]
pub struct Cursor {
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
    pub fn new(model: &BankModel, layout: LayoutSpec, rows: usize, cols: usize) -> Self {
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
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// A cursor on element `(row, col)` about to walk `heading`.
    pub fn cursor(&self, row: usize, col: usize, heading: Heading) -> Cursor {
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
    pub fn touch(&mut self, cell: usize, cycle: u64, window: u64) -> Touch {
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
    pub fn mark(&mut self, cell: usize, cycle: u64) {
        self.fetched[cell] = cycle;
    }
}

impl Cursor {
    /// The `(line, bank)` cell the cursor is in.
    pub fn cell(&self) -> usize {
        self.cell
    }

    /// The bank of that cell.
    pub fn bank(&self) -> usize {
        self.bank
    }

    /// Elements of the walk left in this cell for certain, the current
    /// one included; the walk is in the cell at least this long.
    pub fn left(&self) -> usize {
        self.left
    }

    /// What one element of the walk adds to the cell index (wrapping: a
    /// walk towards lower rows or columns adds a negative), when every
    /// element lies in a cell of its own — the tile is one element long
    /// along the heading, as down a column of a row-major matrix. None
    /// when cells hold runs of elements.
    pub fn cell_step(&self, matrix: &BankedMatrix) -> Option<usize> {
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
    pub fn next_cell(&mut self, matrix: &BankedMatrix) {
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

#[cfg(test)]
mod tests {
    use super::*;

    /// Every heading from every element of a matrix, against
    /// `place_banked` element by element.
    #[test]
    fn cursors_follow_place_banked() {
        let layouts = [
            LayoutSpec::row_major(8),
            LayoutSpec::column_major(4),
            LayoutSpec::fig11(),
            LayoutSpec::new(1, 3, 5),
            LayoutSpec::new(2, 1, 1),
        ];
        let (rows, cols) = (7, 11);
        let dims = TensorDims::matrix(rows, cols);
        for layout in layouts {
            for (banks, slice) in [(1, 4), (4, 2), (3, 5), (8, 1), (2, 64)] {
                let model = BankModel::new(banks, 1, slice);
                let matrix = BankedMatrix::new(&model, layout, rows, cols);
                let cell_of = |row: usize, col: usize| {
                    let p = layout.place_banked(dims, 0, row, col, slice, banks);
                    (p.line * banks + p.bank, p.bank)
                };
                for (row, col) in (0..rows).flat_map(|r| (0..cols).map(move |c| (r, c))) {
                    for heading in [Heading::Right, Heading::Left, Heading::Down, Heading::Up] {
                        let what = format!("{layout:?} {banks}x{slice} ({row},{col}) {heading:?}");
                        let mut cursor = matrix.cursor(row, col, heading);
                        let (origin, cell_step) = (cursor.cell(), cursor.cell_step(&matrix));
                        let mut element = 0usize;
                        let (mut r, mut c) = (row as isize, col as isize);
                        let inside = |r: isize, c: isize| {
                            (0..rows as isize).contains(&r) && (0..cols as isize).contains(&c)
                        };
                        while inside(r, c) {
                            // The cell holds at least `left` elements more.
                            for _ in 0..cursor.left() {
                                if !inside(r, c) {
                                    break;
                                }
                                let want = cell_of(r as usize, c as usize);
                                assert_eq!((cursor.cell(), cursor.bank()), want, "{what}");
                                if let Some(step) = cell_step {
                                    let affine = origin.wrapping_add(element.wrapping_mul(step));
                                    assert_eq!(affine, want.0, "{what}: element {element}");
                                }
                                element += 1;
                                match heading {
                                    Heading::Right => c += 1,
                                    Heading::Left => c -= 1,
                                    Heading::Down => r += 1,
                                    Heading::Up => r -= 1,
                                }
                            }
                            cursor.next_cell(&matrix);
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn a_row_walk_stays_a_bank_slice_long_in_a_cell() {
        let model = BankModel::new(4, 1, 4);
        let matrix = BankedMatrix::new(&model, LayoutSpec::row_major(16), 4, 64);
        let mut cursor = matrix.cursor(1, 2, Heading::Right);
        let cell = cursor.cell();
        assert_eq!(cursor.left(), 2, "columns 2 and 3 of bank 0's slice");
        cursor.next_cell(&matrix);
        assert_eq!((cursor.cell(), cursor.left()), (cell + 1, 4));
        // Down a column every row is another line.
        assert_eq!(matrix.cursor(1, 2, Heading::Down).left(), 1);
    }

    #[test]
    fn touches_follow_the_line_buffer_window() {
        let model = BankModel::new(2, 1, 4);
        let mut matrix = BankedMatrix::new(&model, LayoutSpec::row_major(8), 2, 8);
        assert_eq!(matrix.touch(0, 1, 2), Touch::Fetched);
        assert_eq!(matrix.touch(0, 1, 2), Touch::Duplicate);
        assert_eq!(matrix.touch(0, 3, 2), Touch::Buffered);
        assert_eq!(matrix.touch(0, 6, 2), Touch::Fetched, "3 cycles > window");
        assert_eq!(matrix.touch(0, 7, 0), Touch::Fetched, "no buffer at all");
        matrix.mark(1, 9);
        assert_eq!(matrix.touch(1, 10, 1), Touch::Buffered);
    }
}
