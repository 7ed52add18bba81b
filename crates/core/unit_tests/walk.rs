//! Unit tests of `layout::walk`.

mod tests {
    use crate::layout::conflict::BankModel;
    use crate::layout::spec::{LayoutSpec, TensorDims};
    use crate::layout::walk::*;

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
