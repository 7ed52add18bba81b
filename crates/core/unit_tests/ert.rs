//! Unit tests of `energy::ert`.

mod tests {
    use crate::energy::ert::*;

    #[test]
    fn energy_ordering_matches_literature() {
        let t = EnergyTable::eyeriss_65nm();
        // RF < MAC < SRAM(100kB) < DRAM, each separated by meaningful gaps.
        assert!(t.spad_read_pj < t.mac_random_pj);
        assert!(t.mac_random_pj < t.sram_access_pj(100 * 1024));
        assert!(t.sram_access_pj(1024 * 1024) < t.dram_access_pj);
        assert!(t.dram_access_pj / t.sram_access_pj(100 * 1024) > 10.0);
    }

    #[test]
    fn sram_energy_grows_with_capacity() {
        let t = EnergyTable::eyeriss_65nm();
        let small = t.sram_access_pj(8 * 1024);
        let large = t.sram_access_pj(512 * 1024);
        assert!(large > small * 2.0);
        // √ scaling: 64× capacity → 8× energy.
        let x = t.sram_access_pj(16 * 1024);
        let y = t.sram_access_pj(64 * 16 * 1024);
        assert!((y / x - 8.0).abs() < 0.1);
    }

    #[test]
    fn repeat_access_is_cheaper_by_more_than_half() {
        let t = EnergyTable::eyeriss_65nm();
        // §VII-C: repeated vs random "differ by more than double".
        assert!(t.sram_access_pj(65536) / t.sram_repeat_pj(65536) > 2.0);
    }

    #[test]
    fn gating_hierarchy() {
        let t = EnergyTable::eyeriss_65nm();
        assert!(t.mac_power_gated_pj < t.mac_gated_pj);
        assert!(t.mac_gated_pj < t.mac_constant_pj);
        assert!(t.mac_constant_pj < t.mac_random_pj);
    }

    #[test]
    fn scaling_factor_applies_to_dynamic_only() {
        // A technology or voltage study scales every dynamic per-action
        // energy by one factor; the report scales the dynamic energy by
        // it and leaves the gated and leakage energy alone.
        let base = EnergyTable::eyeriss_65nm();
        let factor = 0.5;
        let table = EnergyTable {
            mac_random_pj: base.mac_random_pj * factor,
            mac_constant_pj: base.mac_constant_pj * factor,
            spad_read_pj: base.spad_read_pj * factor,
            spad_write_pj: base.spad_write_pj * factor,
            sram_access_base_pj: base.sram_access_base_pj * factor,
            dram_access_pj: base.dram_access_pj * factor,
            noc_word_pj: base.noc_word_pj * factor,
            ..base
        };
        let arch = ArchSpec::new(16, 16, 64 << 10, 64 << 10, 32 << 10);
        let (model, scaled) = (EnergyModel::eyeriss_65nm(arch), EnergyModel { arch, table });
        let dynamic = crate::energy::ActionCounts {
            mac_random: 1000,
            ifmap_spad_reads: 300,
            psum_spad_writes: 200,
            ifmap_sram_random: 50,
            dram_reads: 7,
            noc_words: 11,
            ..Default::default()
        };
        let (e1, e2) = (model.evaluate(&dynamic, 0), scaled.evaluate(&dynamic, 0));
        assert!((e2.total_pj() / e1.total_pj() - factor).abs() < 1e-9);
        let gated = crate::energy::ActionCounts {
            mac_gated: 1000,
            ..Default::default()
        };
        let at = |m: &EnergyModel| m.evaluate(&gated, 100).total_pj();
        assert_eq!(at(&scaled), at(&model));
    }

    #[test]
    fn arch_spec_basics() {
        let a = ArchSpec::new(16, 8, 1024, 2048, 512);
        assert_eq!(a.num_pes(), 128);
        assert_eq!(a.word_bits, 16);
    }
}
