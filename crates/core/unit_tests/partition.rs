//! Unit tests of `multicore::partition`.

mod tests {
    use crate::multicore::partition::*;
    use scalesim_systolic::{Dataflow, GemmShape};

    #[test]
    fn grid_parse_round_trip() {
        assert_eq!(PartitionGrid::parse("2x2"), Some(PartitionGrid::new(2, 2)));
        assert_eq!(
            PartitionGrid::parse(" 1X4 "),
            Some(PartitionGrid::new(1, 4))
        );
        for bad in ["0x2", "2x0", "2", "x", "axb", ""] {
            assert_eq!(PartitionGrid::parse(bad), None, "{bad:?}");
        }
    }

    #[test]
    fn subgemm_roundtrip_preserves_work_bound() {
        let gemm = GemmShape::new(100, 60, 80);
        for df in Dataflow::ALL {
            for scheme in PartitionScheme::ALL {
                let grid = PartitionGrid::new(2, 2);
                let sub = core_subgemm(df, scheme, gemm, grid);
                let total: u64 = sub.macs() * grid.cores() as u64;
                assert!(
                    total >= gemm.macs(),
                    "{df}/{scheme}: cores do not cover the work"
                );
                // No more than ~2× over-provisioning from ceil splits.
                assert!(total <= gemm.macs() * 3);
            }
        }
    }

    #[test]
    fn mapping_roundtrip() {
        let gemm = GemmShape::new(7, 11, 13);
        for df in Dataflow::ALL {
            let dims = MappingDims::new(df, gemm);
            assert_eq!(dims.to_gemm(df), gemm, "{df}");
        }
    }
}
