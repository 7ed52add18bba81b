//! Unit tests of `collective::timeline`.

mod tests {
    use crate::collective::timeline::*;

    #[test]
    fn comm_hides_under_the_next_layers_compute() {
        let mut t = OverlapTimeline::default();
        assert_eq!(t.push(100, 40), None);
        // Layer 0's 40 comm cycles fit entirely under layer 1's 100.
        let s0 = t.push(100, 250).unwrap();
        assert_eq!(
            s0,
            OverlapSplit {
                overlapped: 40,
                exposed: 0
            }
        );
        // Layer 1's 250 only partially fit under layer 2's 60.
        let s1 = t.push(60, 0).unwrap();
        assert_eq!(
            s1,
            OverlapSplit {
                overlapped: 60,
                exposed: 190
            }
        );
        // The last layer has no window.
        let s2 = t.finish().unwrap();
        assert_eq!(
            s2,
            OverlapSplit {
                overlapped: 0,
                exposed: 0
            }
        );
        assert_eq!(t.compute_total(), 260);
        assert_eq!(t.comm_total(), 290);
        assert_eq!(t.overlapped_total(), 100);
        assert_eq!(t.exposed_total(), 190);
        assert_eq!(t.total_cycles(), 260 + 190);
    }

    #[test]
    fn last_layer_comm_is_fully_exposed() {
        let mut t = OverlapTimeline::default();
        t.push(500, 123);
        let last = t.finish().unwrap();
        assert_eq!(last.exposed, 123);
        assert_eq!(t.total_cycles(), 623);
    }

    #[test]
    fn empty_timeline_is_zero() {
        let mut t = OverlapTimeline::default();
        assert_eq!(t.finish(), None);
        assert_eq!(t.total_cycles(), 0);
    }

    #[test]
    fn totals_are_invariant_splits() {
        let mut t = OverlapTimeline::default();
        let layers = [(100u64, 300u64), (50, 10), (200, 80), (30, 500)];
        for &(c, q) in &layers {
            t.push(c, q);
        }
        t.finish();
        assert_eq!(t.overlapped_total() + t.exposed_total(), t.comm_total());
        assert_eq!(t.comm_total(), 300 + 10 + 80 + 500);
    }
}
