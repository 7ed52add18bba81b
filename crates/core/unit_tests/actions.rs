//! Unit tests of `energy::actions`.

mod tests {
    use crate::energy::actions::*;

    fn activity() -> LayerActivity {
        LayerActivity {
            total_cycles: 1000,
            macs: 48_000,
            utilization: 0.75,
            ifmap_sram_reads: 4000,
            ifmap_sram_repeats: 1000,
            filter_sram_reads: 2000,
            filter_sram_repeats: 500,
            ofmap_sram_accesses: 3000,
            ofmap_sram_repeats: 600,
            dram_reads: 9000,
            dram_writes: 1500,
            noc_words: 0,
        }
    }

    #[test]
    fn mac_partition_is_exact() {
        // 64 PEs × 1000 cycles = 64k PE-cycles; 48k MACs → 16k unused.
        let c = ActionCounts::from_layer(&activity(), 64, (8, 8, 8), true);
        assert_eq!(c.mac_random, 48_000);
        assert_eq!(c.mac_gated, 16_000);
        assert_eq!(c.mac_constant, 0);
        assert_eq!(c.mac_random + c.mac_gated, 64 * 1000);
    }

    #[test]
    fn no_clock_gating_burns_constant() {
        let c = ActionCounts::from_layer(&activity(), 64, (8, 8, 8), false);
        assert_eq!(c.mac_constant, 16_000);
        assert_eq!(c.mac_gated, 0);
    }

    #[test]
    fn spad_formulas_follow_paper() {
        let a = activity();
        let c = ActionCounts::from_layer(&a, 64, (8, 8, 8), true);
        assert_eq!(c.ifmap_spad_writes, a.ifmap_sram_reads);
        assert_eq!(c.weight_spad_writes, a.filter_sram_reads);
        assert_eq!(c.ifmap_spad_reads, a.macs);
        assert_eq!(c.psum_spad_reads, a.macs);
        assert_eq!(c.psum_spad_writes, a.macs);
    }

    #[test]
    fn sram_idle_formula() {
        // idle = cycles × ports − accesses = 1000·8 − 4000.
        let c = ActionCounts::from_layer(&activity(), 64, (8, 8, 8), true);
        assert_eq!(c.ifmap_sram_idle, 4000);
        assert_eq!(c.ifmap_sram_random + c.ifmap_sram_repeat, 4000);
        assert_eq!(c.ifmap_sram_random, 3000);
    }

    #[test]
    fn merge_accumulates() {
        let c1 = ActionCounts::from_layer(&activity(), 64, (8, 8, 8), true);
        let mut total = c1;
        total.merge(&c1);
        assert_eq!(total.mac_random, 2 * c1.mac_random);
        assert_eq!(total.dram_reads, 2 * c1.dram_reads);
    }
}
