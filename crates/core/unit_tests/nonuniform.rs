//! Unit tests of `multicore::nonuniform`.

mod tests {
    use crate::multicore::nonuniform::*;

    #[test]
    fn far_cores_get_less_work() {
        let p = NopProfile::grid_west_edge(2, 4, 500, 1.0);
        let (shares, _) = non_uniform_split(&p, 100_000);
        // Column 0 cores (indices 0 and 4) vs column 3 cores (3 and 7).
        assert!(shares[0] > shares[3], "near core must get more work");
        assert!(shares[4] > shares[7]);
        assert_eq!(shares.iter().sum::<u64>(), 100_000);
    }

    #[test]
    fn non_uniform_beats_uniform() {
        let p = NopProfile::grid_west_edge(1, 8, 2000, 1.0);
        let work = 50_000;
        let (_, nu) = non_uniform_split(&p, work);
        let u = uniform_split_makespan(&p, work);
        assert!(nu <= u, "non-uniform {nu} must not exceed uniform {u}");
        assert!(nu < u, "with strong NoP skew it should strictly win");
    }

    #[test]
    fn equal_profile_splits_evenly() {
        let p = NopProfile {
            nop_latency: vec![10; 4],
            cycles_per_unit: vec![1.0; 4],
        };
        let (shares, makespan) = non_uniform_split(&p, 4000);
        assert!(shares.iter().all(|&s| s == 1000));
        assert_eq!(makespan, 10 + 1000);
    }

    #[test]
    fn heterogeneous_rates_shift_work_to_fast_cores() {
        let p = NopProfile {
            nop_latency: vec![0, 0],
            cycles_per_unit: vec![1.0, 4.0],
        };
        let (shares, _) = non_uniform_split(&p, 1000);
        // Fast core should get ~4× the slow core's share.
        assert!(shares[0] > 3 * shares[1], "{shares:?}");
    }

    #[test]
    fn tiny_work_still_conserved() {
        let p = NopProfile::grid_west_edge(2, 2, 100, 2.0);
        let (shares, _) = non_uniform_split(&p, 3);
        assert_eq!(shares.iter().sum::<u64>(), 3);
    }
}
