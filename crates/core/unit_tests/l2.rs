//! Unit tests of `multicore::l2`.

mod tests {
    use crate::multicore::l2::*;
    use crate::multicore::partition::{MappingDims, PartitionGrid, PartitionScheme};

    fn dims() -> MappingDims {
        MappingDims {
            sr: 128,
            sc: 64,
            t: 256,
        }
    }

    #[test]
    #[allow(clippy::identity_op)] // spelled-out factors mirror the worked example
    fn spatial_duplication_savings() {
        let grid = PartitionGrid::new(4, 2);
        let r = L2Report::evaluate(PartitionScheme::Spatial, dims(), grid);
        // A: (128/4)·256 = 8192 per row-partition, 4 partitions, dup ×2.
        // B: 256·(64/2) = 8192 per col-partition, 2 partitions, dup ×4.
        assert_eq!(r.duplication_saved_words, 8192 * 4 * 1 + 8192 * 2 * 3);
        assert_eq!(r.required_words, 2 * (8192 * 4 + 8192 * 2));
        assert_eq!(r.l1_fill_words, 8192 * 4 * 2 + 8192 * 2 * 4);
    }

    #[test]
    fn st1_has_no_input_duplication() {
        let grid = PartitionGrid::new(2, 4);
        let r = L2Report::evaluate(PartitionScheme::SpatioTemporal1, dims(), grid);
        let spatial = L2Report::evaluate(PartitionScheme::Spatial, dims(), grid);
        assert!(r.duplication_saved_words < spatial.duplication_saved_words);
    }

    #[test]
    fn single_core_saves_nothing() {
        let r = L2Report::evaluate(PartitionScheme::Spatial, dims(), PartitionGrid::new(1, 1));
        assert_eq!(r.duplication_saved_words, 0);
    }
}
