//! Unit tests of `energy::area`.

mod tests {
    use crate::energy::area::*;
    use crate::energy::ert::ArchSpec;

    fn eyeriss_arch() -> ArchSpec {
        // 12×14 PEs, 108 kB GLB split across the three buffers.
        ArchSpec::new(12, 14, 50 << 10, 50 << 10, 8 << 10)
    }

    #[test]
    fn eyeriss_scale_core_area() {
        // The 65 nm Eyeriss die is 12.25 mm²; the modeled core (PE array +
        // GLB + NoC, no DRAM controller on that die) must land in the same
        // size class.
        let area = AreaConfig::new(eyeriss_arch()).estimate(&AreaTable::eyeriss_65nm());
        let core = area.core_mm2();
        assert!(
            (6.0..16.0).contains(&core),
            "Eyeriss-class core {core} mm² outside the plausible band"
        );
        // The PE array dominates the GLB, as on the real chip.
        assert!(area.pe_array_mm2 > area.sram_mm2());
    }

    #[test]
    fn area_grows_quadratically_with_array_size() {
        let table = AreaTable::eyeriss_65nm();
        let a32 =
            AreaConfig::new(ArchSpec::new(32, 32, 1 << 20, 1 << 20, 1 << 19)).estimate(&table);
        let a128 =
            AreaConfig::new(ArchSpec::new(128, 128, 1 << 20, 1 << 20, 1 << 19)).estimate(&table);
        let ratio = a128.pe_array_mm2 / a32.pe_array_mm2;
        assert!((ratio - 16.0).abs() < 1e-9, "PE array must scale with #PEs");
        // NoC scales with the perimeter, not the area.
        assert!((a128.noc_mm2 / a32.noc_mm2 - 4.0).abs() < 1e-9);
    }

    #[test]
    fn each_dram_channel_costs_fixed_area() {
        // Fig. 9's claim: more channels, more controller silicon.
        let table = AreaTable::eyeriss_65nm();
        let base = AreaConfig::new(eyeriss_arch());
        let one = base.with_dram_channels(1).estimate(&table);
        let eight = base.with_dram_channels(8).estimate(&table);
        assert!((eight.dram_ctrl_mm2 - 8.0 * one.dram_ctrl_mm2).abs() < 1e-9);
        assert!((one.core_mm2() - eight.core_mm2()).abs() < 1e-9);
        // For a small core the controllers dominate quickly.
        assert!(eight.dram_ctrl_mm2 > one.core_mm2());
    }

    #[test]
    fn banking_adds_periphery_area() {
        let table = AreaTable::eyeriss_65nm();
        let arch = ArchSpec::new(32, 32, 1 << 20, 1 << 20, 1 << 19);
        let one = AreaConfig::new(arch).with_sram_banks(1).estimate(&table);
        let sixteen = AreaConfig::new(arch).with_sram_banks(16).estimate(&table);
        assert!(sixteen.sram_mm2() > one.sram_mm2());
        let extra = sixteen.sram_mm2() - one.sram_mm2();
        // 15 extra banks × 3 SRAMs × 0.05 mm².
        assert!((extra - 15.0 * 3.0 * 0.05).abs() < 1e-9);
    }

    #[test]
    fn breakdown_sums_to_total() {
        let a = AreaConfig::new(eyeriss_arch())
            .with_dram_channels(3)
            .with_sram_banks(4)
            .estimate(&AreaTable::eyeriss_65nm());
        let sum = a.pe_array_mm2
            + a.ifmap_sram_mm2
            + a.filter_sram_mm2
            + a.ofmap_sram_mm2
            + a.noc_mm2
            + a.dram_ctrl_mm2;
        assert!((a.total_mm2() - sum).abs() < 1e-12);
        assert_eq!(
            a.to_csv_row().split(',').count(),
            AreaBreakdown::csv_header().split(',').count()
        );
    }
}
