//! Unit tests of `sparse::pattern`.

mod tests {
    use crate::sparse::pattern::*;

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
        assert_eq!(p.group_nnz, [1, 1, 1, 1]);
    }

    #[test]
    fn layer_wise_partial_tail_block() {
        // K=10, 2:4 → blocks of 4,4,2; tail keeps min(2, 2) = 2.
        let p = SparsityPattern::layer_wise(10, NmRatio::new(2, 4).unwrap());
        assert_eq!(p.group_nnz, [2, 2, 2]);
        assert_eq!(p.effective_k(), 6);
    }

    #[test]
    fn row_wise_respects_half_bound_and_is_deterministic() {
        let a = SparsityPattern::row_wise(256, 8, 42);
        let b = SparsityPattern::row_wise(256, 8, 42);
        assert_eq!(a, b, "same seed, same pattern");
        for &nnz in &a.group_nnz {
            assert!((1..=4).contains(&nnz), "nnz {nnz} violates 1..=M/2");
        }
        let c = SparsityPattern::row_wise(256, 8, 43);
        assert_ne!(a, c, "different seed should differ");
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
