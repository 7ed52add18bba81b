//! Unit tests of `multicore::sim`.

mod tests {
    use crate::multicore::l2::L2Config;
    use crate::multicore::partition::{PartitionGrid, PartitionScheme};
    use crate::multicore::sim::*;
    use scalesim_systolic::Dataflow;
    use scalesim_systolic::GemmShape;

    /// A spatially partitioned WS cube at 10 words/cycle of DRAM
    /// bandwidth, with or without a shared L2.
    fn part((pr, pc): (usize, usize), side: usize, l2: bool) -> PartitionedLayer {
        partition_layer(
            Dataflow::WeightStationary,
            PartitionScheme::Spatial,
            GemmShape::new(side, side, side),
            PartitionGrid::new(pr, pc),
            l2.then(L2Config::default),
            10.0,
        )
    }

    #[test]
    fn work_conservation_across_grid() {
        let gemm = GemmShape::new(200, 120, 96);
        let grid = PartitionGrid::new(2, 4);
        for scheme in PartitionScheme::ALL {
            let p = partition_layer(Dataflow::WeightStationary, scheme, gemm, grid, None, 10.0);
            assert_eq!(p.cores, 8);
            assert!(
                p.sub_gemm.macs() * 8 >= gemm.macs(),
                "{scheme}: ceil splits may over-provision, never lose work"
            );
        }
    }

    #[test]
    fn l2_report_present_and_noc_positive() {
        let shared = part((2, 2), 128, true);
        assert!(shared.l2.is_some());
        assert!(shared.noc_words > 0);
        let private = part((2, 2), 128, false);
        assert_eq!((private.l2, private.noc_words), (None, 0));
    }

    #[test]
    fn cores_share_the_dram_interface() {
        let four = part((2, 2), 64, true);
        assert_eq!(four.per_core_bandwidth, 2.5);
        let huge = part((16, 16), 64, true);
        assert_eq!(huge.per_core_bandwidth, 0.125, "floored at 1/8 word/cycle");
    }
}
