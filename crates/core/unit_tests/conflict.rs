//! Unit tests of `layout::conflict`.

mod tests {
    use crate::layout::conflict::*;
    use crate::layout::spec::{LayoutSpec, TensorDims};

    #[test]
    fn no_conflict_when_line_shared() {
        // 16 channels of one pixel share a single line in fig11.
        let model = BankModel::new(16, 1, 8);
        let dims = TensorDims::new(64, 8, 8);
        let l = LayoutSpec::fig11();
        let elems: Vec<_> = (0..16).map(|c| (c, 0, 0)).collect();
        assert_eq!(model.cycle_slowdown(&l, dims, elems), 1);
    }

    #[test]
    fn conflict_when_same_bank_many_lines() {
        // Channel-major layout, 4 banks × 4 elems: elements (0, h, 0) for
        // 8 different h values map to 8 different lines, all in bank 0.
        let model = BankModel::new(4, 1, 4);
        let dims = TensorDims::new(16, 8, 8);
        let l = LayoutSpec::new(16, 1, 1);
        let elems: Vec<_> = (0..8).map(|h| (0, h, 0)).collect();
        assert_eq!(model.cycle_slowdown(&l, dims, elems), 8);
    }

    #[test]
    fn more_ports_reduce_slowdown() {
        let dims = TensorDims::new(16, 8, 8);
        let l = LayoutSpec::new(16, 1, 1);
        let elems: Vec<_> = (0..8).map(|h| (0, h, 0)).collect();
        let one = BankModel::new(4, 1, 4).cycle_slowdown(&l, dims, elems.clone());
        let two = BankModel::new(4, 2, 4).cycle_slowdown(&l, dims, elems);
        assert_eq!(one, 8);
        assert_eq!(two, 4);
    }

    #[test]
    fn banked_model_can_beat_bandwidth_model() {
        // 16 banks × 1 elem/bank: total bandwidth 16 elems/cycle. A cycle
        // requesting 32 elements spread over 32 lines in 16 banks costs 2
        // under both. But requesting 16 elements in 16 distinct banks costs
        // 1 under layout while the bandwidth model also says 1 — instead,
        // use a *narrow* total bandwidth: 4 banks × 1 elem = 4/cycle flat,
        // but 4 requests land in 4 different banks → 1 cycle layout vs
        // 1 cycle bw. To show negative slowdown we need bw < banks·ports:
        let model = BankModel::new(8, 1, 1); // total bandwidth 8
        let dims = TensorDims::new(1, 64, 8);
        let l = LayoutSpec::row_major(8); // one 8-wide row per line
        let mut eval = StreamEvaluator::new(model, l, dims);
        // Each cycle asks for 16 elements: two full lines → 2 lines spread
        // across all 8 banks → layout: each bank has 2 lines → 2 cycles;
        // bandwidth: 16/8 = 2 cycles. Equal. Now 8 elements from 8
        // different rows, all column 0 → all in bank 0: layout 8, bw 1.
        for h in 0..4 {
            eval.observe((0..8).map(move |w| (0usize, h, w)));
        }
        let equal = eval.report();
        assert_eq!(equal.layout_cycles, equal.bandwidth_cycles);
        let mut bad = StreamEvaluator::new(model, l, dims);
        for _ in 0..4 {
            bad.observe((0..8).map(|h| (0usize, h, 0usize)));
        }
        let worse = bad.report();
        assert!(worse.relative_slowdown() > 0.0);
    }

    #[test]
    fn relative_slowdown_negative_with_port_advantage() {
        // 2 banks × 2 ports × 1 elem/bank line: flat bandwidth is 2/cycle,
        // but the banked memory can serve 4 lines per cycle (2 per bank).
        let model = BankModel::new(2, 2, 1);
        let dims = TensorDims::matrix(16, 2);
        let l = LayoutSpec::row_major(2);
        let mut eval = StreamEvaluator::new(model, l, dims);
        for h in 0..4 {
            // 4 elements from 2 rows: 2 lines × 2 banks, each bank 2 lines,
            // 2 ports → 1 cycle. Bandwidth model: 4/2 = 2 cycles.
            eval.observe([
                (0, 2 * h, 0),
                (0, 2 * h, 1),
                (0, 2 * h + 1, 0),
                (0, 2 * h + 1, 1),
            ]);
        }
        let r = eval.report();
        assert!(
            r.relative_slowdown() < 0.0,
            "expected banked win, got {}",
            r.relative_slowdown()
        );
    }

    #[test]
    fn empty_cycles_still_tick() {
        let model = BankModel::new(2, 1, 2);
        let mut eval =
            StreamEvaluator::new(model, LayoutSpec::row_major(4), TensorDims::matrix(4, 4));
        eval.observe(std::iter::empty());
        eval.observe([(0, 0, 0)]);
        let r = eval.report();
        assert_eq!(r.compute_cycles, 2);
        assert_eq!(r.layout_cycles, 2);
        assert_eq!(r.bandwidth_cycles, 2);
    }

    #[test]
    fn from_total_bandwidth_splits_evenly() {
        let m = BankModel::from_total_bandwidth(64, 16, 1);
        assert_eq!(m.bandwidth_per_bank(), 4);
        assert_eq!(m.total_bandwidth(), 64);
    }
}
