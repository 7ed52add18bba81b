//! Unit tests of `energy::report`, `sweep::report`, `sparse::report`.

mod tests {
    // energy::report
    use crate::energy::actions::{ActionCounts, LayerActivity};
    use crate::energy::ert::{ArchSpec, EnergyModel};
    use crate::energy::report::*;

    fn model() -> EnergyModel {
        EnergyModel::eyeriss_65nm(ArchSpec::new(8, 8, 128 * 1024, 128 * 1024, 32 * 1024))
    }

    fn counts() -> ActionCounts {
        let a = LayerActivity {
            total_cycles: 10_000,
            macs: 500_000,
            utilization: 0.78,
            ifmap_sram_reads: 60_000,
            ifmap_sram_repeats: 30_000,
            filter_sram_reads: 40_000,
            filter_sram_repeats: 10_000,
            ofmap_sram_accesses: 30_000,
            ofmap_sram_repeats: 5_000,
            dram_reads: 50_000,
            dram_writes: 8_000,
            noc_words: 0,
        };
        ActionCounts::from_layer(&a, 64, (8, 8, 8), true)
    }

    #[test]
    fn totals_are_positive_and_components_sum() {
        let r = model().evaluate(&counts(), 10_000);
        let sum: f64 = r.components().iter().map(|c| c.energy_pj).sum();
        assert!((sum - r.total_pj()).abs() < 1e-6);
        assert!(r.total_pj() > 0.0);
        assert!(r.avg_power_w() > 0.0);
        assert!(r.edp_cycles_mj() > 0.0);
    }

    #[test]
    fn merge_sums_components_and_cycles() {
        let a = model().evaluate(&counts(), 10_000);
        let b = model().evaluate(&counts(), 4_000);
        let mut merged = EnergyReport::default();
        merged.merge(&a);
        merged.merge(&b);
        assert_eq!(merged.cycles, 14_000);
        assert!((merged.total_pj() - (a.total_pj() + b.total_pj())).abs() < 1e-6);
        assert_eq!(merged.components().len(), a.components().len());
        for c in a.components() {
            let got = merged.component_pj(c.name);
            let want = c.energy_pj + b.component_pj(c.name);
            assert!((got - want).abs() < 1e-6, "{}: {got} vs {want}", c.name);
        }
        // Clock carried over -> power/EDP stay well-defined.
        assert!(merged.avg_power_w() > 0.0);
    }

    #[test]
    fn empty_is_merge_identity() {
        let a = model().evaluate(&counts(), 10_000);
        let mut merged = a.clone();
        merged.merge(&EnergyReport::default());
        assert_eq!(merged, a);
        let empty = EnergyReport::default().total_pj();
        assert!(empty == 0.0 && empty.is_sign_positive(), "{empty:?}");
    }

    #[test]
    fn dram_dominates_sram_per_access() {
        let r = model().evaluate(&counts(), 10_000);
        // 58k DRAM words at 200 pJ ≈ 11.6 µJ must dwarf SRAM energy here.
        assert!(r.component_pj("dram") > r.component_pj("ifmap_sram"));
    }

    #[test]
    fn data_movement_dominates_compute() {
        // The paper's motivation for energy modeling: data movement is a
        // significant fraction of total energy.
        let r = model().evaluate(&counts(), 10_000);
        assert!(
            r.data_movement_fraction() > 0.5,
            "data movement fraction {}",
            r.data_movement_fraction()
        );
    }

    #[test]
    fn more_stall_cycles_cost_leakage() {
        let m = model();
        let c = counts();
        let short = m.evaluate(&c, 10_000);
        let long = m.evaluate(&c, 100_000);
        assert!(long.total_pj() > short.total_pj());
        assert_eq!(long.component_pj("dram"), short.component_pj("dram"));
    }

    #[test]
    fn power_and_runtime_consistency() {
        let r = model().evaluate(&counts(), 10_000);
        // P = E / t.
        let p = r.total_pj() * 1e-12 / r.runtime_s();
        assert!((p - r.avg_power_w()).abs() / p < 1e-9);
    }

    #[test]
    fn display_contains_breakdown() {
        let s = model().evaluate(&counts(), 10_000).to_string();
        assert!(s.contains("mac_array"));
        assert!(s.contains("dram"));
    }

    // sweep::report
    use crate::sweep::report::*;

    fn record(run: usize, point: usize, cycles: u64, energy: f64) -> RunRecord {
        RunRecord {
            run,
            point,
            point_label: format!("p{point}"),
            topology: "t".into(),
            array_rows: 8,
            array_cols: 8,
            dataflow: "ws".into(),
            sram_kb: (256, 256, 128),
            bandwidth: 10.0,
            cores: 1,
            dram_enabled: false,
            energy_enabled: energy > 0.0,
            layout_enabled: false,
            layers: 2,
            total_cycles: cycles,
            compute_cycles: cycles / 2,
            stall_cycles: cycles / 2,
            utilization: 0.5,
            macs: 1000,
            energy_mj: energy,
            edp_cycles_mj: cycles as f64 * energy,
            noc_words: 0,
        }
    }

    #[test]
    fn rolls_runs_up_to_points_and_marks_pareto() {
        // Point 0: 100 cycles / 2 mJ; point 1: 80 / 3; point 2: 120 / 4
        // (dominated by point 0).
        let records = vec![
            record(0, 0, 60, 1.0),
            record(1, 0, 40, 1.0),
            record(2, 1, 50, 1.5),
            record(3, 1, 30, 1.5),
            record(4, 2, 70, 2.0),
            record(5, 2, 50, 2.0),
        ];
        let rep = SweepReport::new("s", records);
        assert_eq!(rep.points.len(), 3);
        assert_eq!(rep.points[0].total_cycles, 100);
        assert_eq!(rep.points[0].energy_mj, 2.0);
        assert_eq!(rep.pareto_labels(), ["p0", "p1"]);
        assert!(!rep.points[2].pareto);
    }

    #[test]
    fn report_bytes_independent_of_record_order() {
        let fwd = vec![record(0, 0, 10, 1.0), record(1, 1, 20, 2.0)];
        let rev = vec![record(1, 1, 20, 2.0), record(0, 0, 10, 1.0)];
        let (a, b) = (SweepReport::new("s", fwd), SweepReport::new("s", rev));
        assert_eq!(a.to_csv(), b.to_csv());
        assert_eq!(a.to_json(), b.to_json());
    }

    #[test]
    fn csv_has_header_plus_row_per_run() {
        let rep = SweepReport::new("s", vec![record(0, 0, 10, 0.0)]);
        let csv = rep.to_csv();
        assert_eq!(csv.lines().count(), 2);
        assert!(csv.starts_with("Run, Point, PointLabel"));
        assert!(csv.lines().nth(1).unwrap().ends_with(", 1")); // sole point is the frontier
    }

    #[test]
    fn json_header_stamps_the_generator_version() {
        let rep = SweepReport::new("s", vec![record(0, 0, 10, 1.0)]);
        let json = rep.to_json();
        assert!(
            json.contains(&format!(
                "\"generator\": \"scalesim {}\"",
                env!("CARGO_PKG_VERSION")
            )),
            "{json}"
        );
    }

    #[test]
    fn json_is_balanced_and_names_the_frontier() {
        let rep = SweepReport::new("s", vec![record(0, 0, 10, 1.0)]);
        let json = rep.to_json();
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "unbalanced braces:\n{json}"
        );
        assert!(json.contains("\"pareto_frontier\": [\"p0\"]"));
    }

    // sparse::report
    use crate::sparse::pattern::{NmRatio, SparsityPattern};
    use crate::sparse::report::*;
    use crate::sparse::SparseFormat;

    #[test]
    fn report_rows_and_totals() {
        let p = SparsityPattern::layer_wise(128, NmRatio::new(1, 4).unwrap());
        let row = SparseReportRow::new("conv1", &p, 64, SparseFormat::BlockedEllpack, 16);
        // Dense: 128·64·2 B = 16384 B. Values: 32·64·2 B = 4096 B.
        assert_eq!(row.original_bytes, 16384);
        assert_eq!(row.value_bytes, 4096);
        // Metadata: 32·64 entries × 2 bits = 512 B.
        assert_eq!(row.metadata_bytes, 512);
        assert_eq!(row.new_filter_bytes(), 4608);
    }

    #[test]
    fn denser_ratios_store_more() {
        let sizes: Vec<u64> = (1..=3)
            .map(|n| {
                let p = SparsityPattern::layer_wise(64, NmRatio::new(n, 4).unwrap());
                SparseReportRow::new("s", &p, 32, SparseFormat::BlockedEllpack, 16)
                    .new_filter_bytes()
            })
            .collect();
        assert!(sizes[0] < sizes[1] && sizes[1] < sizes[2]);
    }
}
