//! Unit tests of `collective::strategy`.

mod tests {
    use crate::collective::collectives::{self, CollectiveCost};
    use crate::collective::fabric::{Fabric, FabricKind};
    use crate::collective::strategy::*;
    use scalesim_systolic::GemmShape;

    fn ring(p: usize) -> Fabric {
        Fabric::new(FabricKind::Ring, p, 64.0, 100, 1.0).unwrap()
    }

    #[test]
    fn strategy_tags_round_trip() {
        for s in [
            Strategy::DataParallel,
            Strategy::TensorParallel,
            Strategy::PipelineParallel,
        ] {
            assert_eq!(Strategy::parse(s.tag()).unwrap(), s);
            assert_eq!(Strategy::parse(s.name()).unwrap(), s);
        }
        assert!(Strategy::parse("zz").unwrap_err().contains("'zz'"));
    }

    #[test]
    fn data_parallel_shards_m_and_allreduces_weights() {
        let plan = shard_layer(
            Strategy::DataParallel,
            &ring(8),
            0,
            GemmShape::new(256, 64, 32),
            2,
        );
        assert_eq!(plan.shard, GemmShape::new(32, 64, 32));
        assert_eq!(plan.comm_kind, "allreduce");
        // Weight payload K·N·bpw = 32·64·2 bytes.
        assert_eq!(plan.comm, collectives::all_reduce(&ring(8), 32 * 64 * 2));
    }

    #[test]
    fn tensor_parallel_alternates_column_and_row_sharding() {
        let gemm = GemmShape::new(64, 96, 48);
        let even = shard_layer(Strategy::TensorParallel, &ring(4), 0, gemm, 2);
        assert_eq!(even.shard, GemmShape::new(64, 24, 48));
        assert_eq!(even.comm_kind, "allgather");
        let odd = shard_layer(Strategy::TensorParallel, &ring(4), 1, gemm, 2);
        assert_eq!(odd.shard, GemmShape::new(64, 96, 12));
        assert_eq!(odd.comm_kind, "reducescatter");
    }

    #[test]
    fn sharding_never_hits_zero_and_single_chip_is_free() {
        let plan = shard_layer(
            Strategy::DataParallel,
            &ring(64),
            0,
            GemmShape::new(3, 5, 7),
            2,
        );
        assert_eq!(plan.shard.m, 1);
        let single = shard_layer(
            Strategy::TensorParallel,
            &ring(1),
            0,
            GemmShape::new(3, 5, 7),
            2,
        );
        assert_eq!(single.shard, GemmShape::new(3, 5, 7));
        assert_eq!(single.comm, CollectiveCost::FREE);
    }

    #[test]
    fn stage_partition_is_contiguous_balanced_and_total() {
        let weights = [10, 10, 10, 10, 40, 10, 10, 10];
        let stages = partition_stages(&weights, 4);
        assert_eq!(stages.len(), weights.len());
        // Contiguous and non-decreasing, covering all 4 stages.
        assert!(stages.windows(2).all(|w| w[1] == w[0] || w[1] == w[0] + 1));
        assert_eq!(*stages.first().unwrap(), 0);
        assert_eq!(*stages.last().unwrap(), 3);
        // The heavy layer does not drag everything into one stage.
        let heavy_stage = stages[4];
        let heavy_total: u64 = weights
            .iter()
            .zip(&stages)
            .filter(|(_, &s)| s == heavy_stage)
            .map(|(&w, _)| w)
            .sum();
        assert!(heavy_total <= 60);
    }

    #[test]
    fn stage_partition_degenerate_cases() {
        assert_eq!(partition_stages(&[5, 5], 8), vec![0, 1]);
        assert_eq!(partition_stages(&[5, 5, 5], 1), vec![0, 0, 0]);
        assert_eq!(partition_stages(&[], 4), Vec::<usize>::new());
    }

    #[test]
    fn pipeline_total_has_fill_plus_steady_state() {
        // Three balanced stages of 300 cycles, 3 microbatches: fill
        // 3·100 then 2 more microbatches paced at 100.
        assert_eq!(pipeline_total_cycles(&[300, 300, 300], 3), 500);
        // One microbatch degenerates to the serial sum.
        assert_eq!(pipeline_total_cycles(&[300, 300, 300], 1), 900);
        // The slowest stage paces the steady state: fill 25+100+25,
        // then 3 more microbatches at 100 each.
        assert_eq!(pipeline_total_cycles(&[100, 400, 100], 4), 450);
    }
}
