//! Unit tests of `multicore::partition`.

mod tests {
    use crate::multicore::l2::L2Config;
    use crate::multicore::partition::*;
    use scalesim_systolic::{ArrayShape, Dataflow, GemmShape};

    fn arr() -> ArrayShape {
        ArrayShape::new(8, 8)
    }

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
    fn eq1_spatial_literal() {
        // (2·8+8+100−2) · ⌈(64/2)/8⌉ · ⌈(64/2)/8⌉ = 122·4·4.
        let dims = MappingDims {
            sr: 64,
            sc: 64,
            t: 100,
        };
        let grid = PartitionGrid::new(2, 2);
        assert_eq!(
            runtime_cycles(arr(), PartitionScheme::Spatial, dims, grid),
            122 * 16
        );
    }

    #[test]
    fn eq2_eq3_divide_temporal() {
        let dims = MappingDims {
            sr: 64,
            sc: 64,
            t: 100,
        };
        let grid = PartitionGrid::new(2, 2);
        // Eq 2: (22 + ⌈100/2⌉ − 2)·⌈32/8⌉·⌈64/8⌉ = 72·4·8? No:
        // 2R+C = 24; (24 + 50 − 2) = 72; ⌈(64/2)/8⌉ = 4; ⌈64/8⌉ = 8.
        assert_eq!(
            runtime_cycles(arr(), PartitionScheme::SpatioTemporal1, dims, grid),
            72 * 4 * 8
        );
        // Eq 3 symmetric.
        assert_eq!(
            runtime_cycles(arr(), PartitionScheme::SpatioTemporal2, dims, grid),
            72 * 8 * 4
        );
    }

    #[test]
    fn single_core_schemes_agree() {
        let dims = MappingDims {
            sr: 40,
            sc: 24,
            t: 60,
        };
        let grid = PartitionGrid::new(1, 1);
        let vals: Vec<u64> = PartitionScheme::ALL
            .iter()
            .map(|&s| runtime_cycles(arr(), s, dims, grid))
            .collect();
        assert!(vals.windows(2).all(|w| w[0] == w[1]));
    }

    #[test]
    fn more_cores_never_slower() {
        let dims = MappingDims {
            sr: 512,
            sc: 512,
            t: 512,
        };
        for scheme in PartitionScheme::ALL {
            let c1 = runtime_cycles(arr(), scheme, dims, PartitionGrid::new(1, 1));
            let c4 = runtime_cycles(arr(), scheme, dims, PartitionGrid::new(2, 2));
            let c16 = runtime_cycles(arr(), scheme, dims, PartitionGrid::new(4, 4));
            assert!(c4 <= c1 && c16 <= c4, "{scheme}");
        }
    }

    #[test]
    fn footprint_duplication_matches_fig4() {
        let dims = MappingDims {
            sr: 100,
            sc: 60,
            t: 80,
        };
        let grid = PartitionGrid::new(4, 2);
        // Spatial, L1-only: Pc·Sr·T + Pr·Sc·T + Sr·Sc.
        let f = memory_footprint_words(PartitionScheme::Spatial, dims, grid, None);
        assert_eq!(f, 2 * 100 * 80 + 4 * 60 * 80 + 100 * 60);
        // Shared L2 removes the duplication.
        let l2 = L2Config::default();
        let f2 = memory_footprint_words(PartitionScheme::Spatial, dims, grid, Some(&l2));
        assert_eq!(f2, 100 * 80 + 60 * 80 + 100 * 60);
        assert!(f2 < f);
    }

    #[test]
    fn spatiotemporal_trades_input_dup_for_output_dup() {
        let dims = MappingDims {
            sr: 1000,
            sc: 1000,
            t: 1000,
        };
        let grid = PartitionGrid::new(4, 4);
        let sp = memory_footprint_words(PartitionScheme::Spatial, dims, grid, None);
        let st1 = memory_footprint_words(PartitionScheme::SpatioTemporal1, dims, grid, None);
        // Spatial: 4M + 4M + 1M = 9M. ST1: 1M + 4M + 4M = 9M (same here),
        // but with asymmetric dims they diverge.
        assert_eq!(sp, st1);
        let skewed = MappingDims {
            sr: 100,
            sc: 100,
            t: 10000,
        };
        let sp = memory_footprint_words(PartitionScheme::Spatial, skewed, grid, None);
        let st1 = memory_footprint_words(PartitionScheme::SpatioTemporal1, skewed, grid, None);
        assert!(
            st1 < sp,
            "T-heavy workloads should favor temporal partitioning's footprint ({st1} vs {sp})"
        );
    }

    #[test]
    fn factor_pairs_cover_all() {
        let pairs = factor_pairs(16);
        assert_eq!(pairs.len(), 5); // 1x16, 2x8, 4x4, 8x2, 16x1
        assert!(pairs.iter().all(|g| g.cores() == 16));
    }

    #[test]
    fn best_partition_objectives_differ() {
        let dims = MappingDims {
            sr: 5000,
            sc: 1000,
            t: 10000,
        };
        let by_cycles = best_partition(
            arr(),
            PartitionScheme::Spatial,
            dims,
            16,
            PartitionObjective::ComputeCycles,
            None,
        );
        let by_mem = best_partition(
            arr(),
            PartitionScheme::Spatial,
            dims,
            16,
            PartitionObjective::MemoryFootprint,
            None,
        );
        assert!(by_cycles.cycles <= by_mem.cycles);
        assert!(by_mem.footprint_words <= by_cycles.footprint_words);
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
