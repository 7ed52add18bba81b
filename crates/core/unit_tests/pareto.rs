//! Unit tests of `sweep::pareto`.

mod tests {
    use crate::sweep::pareto::*;

    #[test]
    fn empty_and_singleton() {
        assert!(pareto_min(&[]).is_empty());
        assert_eq!(pareto_min(&[(1.0, 1.0)]), vec![0]);
    }

    #[test]
    fn dominated_point_dropped_and_trade_offs_kept() {
        // (total cycles, energy in mJ) per design point:
        let points = [
            (100.0, 9.0),  // fast but hot          -> frontier
            (80.0, 12.0),  // fastest               -> frontier
            (120.0, 20.0), // dominated by both     -> dropped
            (150.0, 5.0),  // slow but cool         -> frontier
        ];
        assert_eq!(pareto_min(&points), vec![0, 1, 3]);
    }

    #[test]
    fn duplicates_are_all_kept() {
        assert_eq!(pareto_min(&[(1.0, 2.0), (1.0, 2.0)]), vec![0, 1]);
    }

    #[test]
    fn strictly_dominated_point_dropped() {
        assert_eq!(pareto_min(&[(1.0, 1.0), (2.0, 2.0)]), vec![0]);
    }

    #[test]
    fn equal_second_objective_degenerates_to_min_first() {
        let pts = [(3.0, 0.0), (1.0, 0.0), (2.0, 0.0), (1.0, 0.0)];
        assert_eq!(pareto_min(&pts), vec![1, 3]);
    }

    #[test]
    fn frontier_is_antichain() {
        // No frontier member may dominate another.
        let pts: Vec<(f64, f64)> = (0..40)
            .map(|i| {
                let x = (i * 37 % 17) as f64;
                let y = (i * 23 % 13) as f64;
                (x, y)
            })
            .collect();
        let front = pareto_min(&pts);
        for &i in &front {
            for &j in &front {
                if i != j {
                    let (a, b) = (pts[i], pts[j]);
                    assert!(
                        !(a.0 <= b.0 && a.1 <= b.1 && (a.0 < b.0 || a.1 < b.1)),
                        "frontier member {i} dominates {j}"
                    );
                }
            }
        }
        // And every non-member must be dominated by some member.
        for k in 0..pts.len() {
            if !front.contains(&k) {
                assert!(front.iter().any(|&i| {
                    let (a, b) = (pts[i], pts[k]);
                    a.0 <= b.0 && a.1 <= b.1 && (a.0 < b.0 || a.1 < b.1)
                }));
            }
        }
    }
}
