//! Unit tests of `sweep::exec`.

mod tests {
    use crate::sweep::exec::*;

    /// Every run's result, in `run_index` order.
    fn collect<P, T>(points: &[P], topologies: &[T], shards: usize) -> Vec<String>
    where
        P: Sync + std::fmt::Display,
        T: Sync + std::fmt::Display,
    {
        let mut slots = vec![None; points.len() * topologies.len()];
        run_sharded_with(
            points,
            topologies,
            shards,
            |i, p, t| format!("{i}:{p}:{t}"),
            |i, r| slots[i] = Some(r),
        );
        slots
            .into_iter()
            .map(|s| s.expect("run left unprocessed"))
            .collect()
    }

    #[test]
    fn order_is_point_major_and_shard_invariant() {
        let points = ["a", "b", "c"];
        let topos = [10u64, 20];
        let expect: Vec<String> = vec![
            "0:a:10".into(),
            "1:a:20".into(),
            "2:b:10".into(),
            "3:b:20".into(),
            "4:c:10".into(),
            "5:c:20".into(),
        ];
        for shards in [0, 1, 2, 3, 5, 6, 99] {
            let got = collect(&points, &topos, shards);
            assert_eq!(got, expect, "shards={shards}");
        }
    }

    #[test]
    fn empty_inputs_yield_no_runs() {
        let none: Vec<u8> = Vec::new();
        assert!(collect(&none, &[1, 2], 4).is_empty());
        assert!(collect(&[1, 2], &none, 4).is_empty());
    }

    #[test]
    fn streamed_emission_is_shard_ordered_and_complete() {
        let points = [0u8, 1, 2];
        let topos = [0u8, 1];
        let mut seen = Vec::new();
        run_sharded_with(
            &points,
            &topos,
            2,
            |i, _, _| i * 10,
            |i, r| seen.push((i, r)),
        );
        // Two round-robin shards: evens first (in order), then odds.
        assert_eq!(seen, [(0, 0), (2, 20), (4, 40), (1, 10), (3, 30), (5, 50)]);
        let mut indices: Vec<usize> = seen.iter().map(|&(i, _)| i).collect();
        indices.sort_unstable();
        assert_eq!(indices, [0, 1, 2, 3, 4, 5]);
    }
}
