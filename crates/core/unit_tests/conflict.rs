//! Unit tests of `layout::conflict`, through the layout stage that prices
//! a layer's demand with it.

mod tests {
    use crate::config::LayoutIntegration;
    use crate::layout::conflict::*;
    use crate::layout::spec::LayoutSpec;
    use crate::layout_analysis::{layout_slowdown_for_gemm, LayoutAnalysis};
    use scalesim_systolic::{ArrayShape, Dataflow, GemmShape};

    /// A 16³ GEMM on an 8×8 array (152 compute cycles) with every operand
    /// row-major and lines as wide as the bandwidth.
    fn analyse(
        dataflow: Dataflow,
        (bandwidth, banks, ports): (usize, usize, usize),
        line_buffer_cycles: u64,
    ) -> LayoutAnalysis {
        let layout = LayoutSpec::row_major(bandwidth);
        let cfg = LayoutIntegration {
            total_bandwidth: bandwidth,
            num_banks: banks,
            ports_per_bank: ports,
            ifmap_layout: layout,
            filter_layout: layout,
            ofmap_layout: layout,
            line_buffer_cycles,
        };
        let (array, gemm) = (ArrayShape::new(8, 8), GemmShape::new(16, 16, 16));
        layout_slowdown_for_gemm(array, dataflow, gemm, &cfg)
    }

    #[test]
    fn no_conflict_when_line_shared() {
        // Output stationary walks the ifmap along its rows and the filter
        // down its columns; a row-major line of 8 over 8 banks gives each
        // lane's next elements a bank of their own.
        let a = analyse(Dataflow::OutputStationary, (8, 8, 1), 64);
        assert_eq!(a.layout_cycles, a.compute_cycles);
        assert_eq!(a.relative_slowdown(), 0.0);
    }

    #[test]
    fn conflict_when_same_bank_many_lines() {
        // One bank: the wavefront's lanes read different lines of it.
        let a = analyse(Dataflow::OutputStationary, (8, 1, 1), 0);
        assert!(a.layout_cycles > 3 * a.compute_cycles, "{a:?}");
        assert!(a.relative_slowdown() > 1.0, "{a:?}");
    }

    #[test]
    fn more_ports_reduce_slowdown() {
        let one = analyse(Dataflow::OutputStationary, (8, 1, 1), 0).layout_cycles;
        let two = analyse(Dataflow::OutputStationary, (8, 1, 2), 0).layout_cycles;
        // A second port at most halves a cycle's conflicts.
        assert!(two < one && one <= 2 * two, "{one} vs {two}");
    }

    #[test]
    fn banked_model_can_beat_bandwidth_model() {
        // Four banks of one element each: the flat model serves four
        // elements a cycle, the line buffers serve the lanes that re-read
        // a buffered line for free.
        let ws = analyse(Dataflow::WeightStationary, (4, 4, 1), 64);
        assert!(ws.relative_slowdown() < 0.0, "{ws:?}");
        let os = analyse(Dataflow::OutputStationary, (4, 4, 1), 64);
        assert_eq!(os.layout_cycles, os.bandwidth_cycles);
    }

    #[test]
    fn relative_slowdown_negative_with_port_advantage() {
        // Two banks × one element: the flat bandwidth is two a cycle, but
        // two ports per bank serve four lines.
        let one = analyse(Dataflow::OutputStationary, (2, 2, 1), 64);
        let two = analyse(Dataflow::OutputStationary, (2, 2, 2), 64);
        assert_eq!(one.relative_slowdown(), 0.0);
        assert!(two.relative_slowdown() < 0.0, "{two:?}");
    }

    #[test]
    fn empty_cycles_still_tick() {
        // Eight MACs fill and drain an 8×8 array over 16 cycles, most of
        // them requesting one element or none: each still advances both
        // models by exactly one.
        let (array, gemm) = (ArrayShape::new(8, 8), GemmShape::new(8, 1, 1));
        let cfg = LayoutIntegration::default();
        let a = layout_slowdown_for_gemm(array, Dataflow::OutputStationary, gemm, &cfg);
        assert_eq!(a.compute_cycles, 16);
        assert_eq!(a.layout_cycles, a.compute_cycles);
        assert_eq!(a.bandwidth_cycles, a.compute_cycles);
    }

    #[test]
    fn from_total_bandwidth_splits_evenly() {
        let m = BankModel::from_total_bandwidth(64, 16, 1);
        assert_eq!(m.bandwidth_per_bank(), 4);
        assert_eq!(m.total_bandwidth(), 64);
    }
}
