//! DRAM device specifications: organization and timing.
//!
//! Timings are expressed in memory-clock cycles (`nCK`) of the device's
//! command clock. The presets are representative datasheet values for the
//! speed grades the paper mentions (§II-C lists DDR3, DDR4, LPDDR4, GDDR5,
//! WIO1, WIO2 and HBM; presets exist for all seven). Each spec also carries
//! the IDD current set its [`power`](DramSpec::power) model consumes.
//!
//! Each preset is one `DramSpec` constant, named once, under its
//! `[dram] model` name, in the `PRESETS` table that
//! [`by_name`](DramSpec::by_name), [`preset_names`](DramSpec::preset_names)
//! and [`presets`](DramSpec::presets) read.

use crate::power::DramPowerParams;

/// Device organization of one channel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DramOrg {
    /// Ranks per channel.
    pub ranks: usize,
    /// Bank groups per rank (1 for devices without bank groups).
    pub(crate) bank_groups: usize,
    /// Banks per bank group.
    pub(crate) banks_per_group: usize,
    /// Rows per bank.
    pub(crate) rows: usize,
    /// Columns per row.
    pub columns: usize,
    /// Data-bus width of the channel in bits.
    pub(crate) bus_bits: usize,
    /// Burst length in beats (data transfers per column command).
    pub burst_length: usize,
}

impl DramOrg {
    /// Banks per rank.
    pub fn banks(&self) -> usize {
        self.bank_groups * self.banks_per_group
    }

    /// Bytes transferred by one column command (burst).
    pub fn burst_bytes(&self) -> usize {
        self.bus_bits / 8 * self.burst_length
    }

    /// Channel capacity in bytes.
    pub fn capacity_bytes(&self) -> u64 {
        self.ranks as u64
            * self.banks() as u64
            * self.rows as u64
            * self.columns as u64
            * (self.bus_bits as u64 / 8)
    }

    /// Data-bus cycles one burst occupies (DDR: BL/2 command cycles).
    pub fn burst_cycles(&self) -> u64 {
        (self.burst_length as u64 / 2).max(1)
    }
}

/// Core timing parameters in memory-clock cycles.
#[allow(non_snake_case)]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DramTiming {
    /// Clock period in picoseconds.
    pub tCK_ps: u64,
    /// CAS (read) latency.
    pub CL: u64,
    /// CAS write latency.
    pub CWL: u64,
    /// ACT to CAS delay.
    pub tRCD: u64,
    /// Precharge period.
    pub tRP: u64,
    /// ACT to PRE minimum.
    pub(crate) tRAS: u64,
    /// ACT to ACT same bank.
    pub(crate) tRC: u64,
    /// CAS to CAS, different bank group (or flat for non-grouped devices).
    pub tCCD_S: u64,
    /// CAS to CAS, same bank group.
    pub tCCD_L: u64,
    /// ACT to ACT, different bank group.
    pub tRRD_S: u64,
    /// ACT to ACT, same bank group.
    pub tRRD_L: u64,
    /// Four-activate window.
    pub tFAW: u64,
    /// Write recovery (end of write data to PRE).
    pub(crate) tWR: u64,
    /// Read to PRE.
    pub(crate) tRTP: u64,
    /// Write to read turnaround (same rank).
    pub(crate) tWTR: u64,
    /// Average refresh interval.
    pub tREFI: u64,
    /// Refresh cycle time.
    pub(crate) tRFC: u64,
}

/// A complete device specification.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DramSpec {
    /// Human-readable name, e.g. `"DDR4-2400"`.
    pub name: &'static str,
    /// Channel organization.
    pub org: DramOrg,
    /// Timing parameters.
    pub timing: DramTiming,
    /// Rank-aggregate IDD currents for the energy model
    /// (see [`crate::power`]).
    pub(crate) power: DramPowerParams,
}

impl DramSpec {
    /// DDR3-1600 (11-11-11), 8 banks, x64 channel, 2 GiB/rank-channel scale.
    pub const DDR3_1600: DramSpec = DramSpec {
        name: "DDR3-1600",
        org: DramOrg {
            ranks: 1,
            bank_groups: 1,
            banks_per_group: 8,
            rows: 32768,
            columns: 1024,
            bus_bits: 64,
            burst_length: 8,
        },
        timing: DramTiming {
            tCK_ps: 1250,
            CL: 11,
            CWL: 8,
            tRCD: 11,
            tRP: 11,
            tRAS: 28,
            tRC: 39,
            tCCD_S: 4,
            tCCD_L: 4,
            tRRD_S: 6,
            tRRD_L: 6,
            tFAW: 32,
            tWR: 12,
            tRTP: 6,
            tWTR: 6,
            tREFI: 6240,
            tRFC: 280,
        },
        // 8 × x8 4 Gb devices per x64 rank at 1.5 V.
        power: DramPowerParams {
            vdd_mv: 1500,
            idd0_ma: 520,
            idd2n_ma: 256,
            idd3n_ma: 304,
            idd4r_ma: 1440,
            idd4w_ma: 1480,
            idd5b_ma: 1920,
        },
    };

    /// DDR4-2400 (17-17-17), 4 bank groups × 4 banks, x64 channel.
    ///
    /// This is the configuration the paper's §V-C evaluation uses
    /// ("DDR4 memory with 4 Gb capacity for each channel at 2400 MHz");
    /// see [`DDR4_2400_4GB`](Self::DDR4_2400_4GB) for the row count matching
    /// that capacity.
    pub const DDR4_2400: DramSpec = DramSpec {
        name: "DDR4-2400",
        org: DramOrg {
            ranks: 1,
            bank_groups: 4,
            banks_per_group: 4,
            rows: 32768,
            columns: 1024,
            bus_bits: 64,
            burst_length: 8,
        },
        timing: DramTiming {
            tCK_ps: 833,
            CL: 17,
            CWL: 12,
            tRCD: 17,
            tRP: 17,
            tRAS: 39,
            tRC: 56,
            tCCD_S: 4,
            tCCD_L: 6,
            tRRD_S: 4,
            tRRD_L: 6,
            tFAW: 26,
            tWR: 18,
            tRTP: 9,
            tWTR: 9,
            tREFI: 9360,
            tRFC: 420,
        },
        // 8 × x8 8 Gb devices per x64 rank at 1.2 V.
        power: DramPowerParams {
            vdd_mv: 1200,
            idd0_ma: 384,
            idd2n_ma: 272,
            idd3n_ma: 304,
            idd4r_ma: 1200,
            idd4w_ma: 1120,
            idd5b_ma: 2000,
        },
    };

    /// DDR4-2400 scaled to 4 Gb (512 MiB) per channel, as in paper §V-C1:
    /// 16 banks × 4096 rows × 1024 columns × 8 B.
    pub const DDR4_2400_4GB: DramSpec = DramSpec {
        org: DramOrg {
            rows: 4096,
            ..Self::DDR4_2400.org
        },
        ..Self::DDR4_2400
    };

    /// Dual-rank DDR4-2400: twice the banks behind one channel, and two
    /// independent `tFAW`/`tRRD` activation domains. Standby currents
    /// double (two device sets share the bus).
    pub(crate) const DDR4_2400_2RANK: DramSpec = DramSpec {
        name: "DDR4-2400-2R",
        org: DramOrg {
            ranks: 2,
            ..Self::DDR4_2400.org
        },
        power: DramPowerParams {
            idd0_ma: 2 * Self::DDR4_2400.power.idd0_ma,
            idd2n_ma: 2 * Self::DDR4_2400.power.idd2n_ma,
            idd3n_ma: 2 * Self::DDR4_2400.power.idd3n_ma,
            idd5b_ma: 2 * Self::DDR4_2400.power.idd5b_ma,
            ..Self::DDR4_2400.power
        },
        ..Self::DDR4_2400
    };

    /// LPDDR4-3200, 8 banks, x32 channel, BL16.
    pub const LPDDR4_3200: DramSpec = DramSpec {
        name: "LPDDR4-3200",
        org: DramOrg {
            ranks: 1,
            bank_groups: 1,
            banks_per_group: 8,
            rows: 32768,
            columns: 1024,
            bus_bits: 32,
            burst_length: 16,
        },
        timing: DramTiming {
            tCK_ps: 625,
            CL: 28,
            CWL: 14,
            tRCD: 29,
            tRP: 21,
            tRAS: 67,
            tRC: 88,
            tCCD_S: 8,
            tCCD_L: 8,
            tRRD_S: 10,
            tRRD_L: 10,
            tFAW: 64,
            tWR: 29,
            tRTP: 12,
            tWTR: 16,
            tREFI: 6240,
            tRFC: 448,
        },
        // Single-die x32 channel at 1.1 V (core rail).
        power: DramPowerParams {
            vdd_mv: 1100,
            idd0_ma: 60,
            idd2n_ma: 24,
            idd3n_ma: 40,
            idd4r_ma: 350,
            idd4w_ma: 350,
            idd5b_ma: 130,
        },
    };

    /// GDDR5-6000 class graphics memory, 16 banks, x32 channel.
    pub const GDDR5_6000: DramSpec = DramSpec {
        name: "GDDR5-6000",
        org: DramOrg {
            ranks: 1,
            bank_groups: 4,
            banks_per_group: 4,
            rows: 16384,
            columns: 1024,
            bus_bits: 32,
            burst_length: 8,
        },
        timing: DramTiming {
            tCK_ps: 667, // 1.5 GHz command clock (QDR data)
            CL: 15,
            CWL: 11,
            tRCD: 14,
            tRP: 14,
            tRAS: 32,
            tRC: 46,
            tCCD_S: 2,
            tCCD_L: 3,
            tRRD_S: 6,
            tRRD_L: 6,
            tFAW: 23,
            tWR: 16,
            tRTP: 7,
            tWTR: 8,
            tREFI: 2850,
            tRFC: 170,
        },
        // x32 graphics device at 1.5 V; bandwidth-first, energy-last.
        power: DramPowerParams {
            vdd_mv: 1500,
            idd0_ma: 240,
            idd2n_ma: 120,
            idd3n_ma: 160,
            idd4r_ma: 1100,
            idd4w_ma: 1100,
            idd5b_ma: 800,
        },
    };

    /// HBM2-2000 pseudo-channel, 4 bank groups × 4 banks, x128, BL4.
    pub const HBM2: DramSpec = DramSpec {
        name: "HBM2-2000",
        org: DramOrg {
            ranks: 1,
            bank_groups: 4,
            banks_per_group: 4,
            rows: 16384,
            columns: 64,
            bus_bits: 128,
            burst_length: 4,
        },
        timing: DramTiming {
            tCK_ps: 1000,
            CL: 14,
            CWL: 4,
            tRCD: 14,
            tRP: 14,
            tRAS: 34,
            tRC: 48,
            tCCD_S: 2,
            tCCD_L: 4,
            tRRD_S: 4,
            tRRD_L: 6,
            tFAW: 16,
            tWR: 16,
            tRTP: 5,
            tWTR: 8,
            tREFI: 3900,
            tRFC: 260,
        },
        // One pseudo-channel of a stacked die at 1.2 V; short TSV wires
        // give the low per-bit energy HBM is built for.
        power: DramPowerParams {
            vdd_mv: 1200,
            idd0_ma: 300,
            idd2n_ma: 150,
            idd3n_ma: 250,
            idd4r_ma: 1000,
            idd4w_ma: 950,
            idd5b_ma: 1200,
        },
    };

    /// Wide I/O (first generation): one x128 channel clocked at an
    /// effective 133 MHz.
    ///
    /// JEDEC WIO1 is a single-data-rate interface; the simulator's bus
    /// model is DDR-centric, so the preset uses a DDR-equivalent clock at
    /// half the SDR rate — peak bandwidth (≈4.3 GB/s per channel) and all
    /// latencies in nanoseconds match the SDR part.
    pub(crate) const WIO1: DramSpec = DramSpec {
        name: "WIO1-266",
        org: DramOrg {
            ranks: 1,
            bank_groups: 1,
            banks_per_group: 4,
            rows: 16384,
            columns: 256,
            bus_bits: 128,
            burst_length: 4,
        },
        timing: DramTiming {
            tCK_ps: 7500,
            CL: 3,
            CWL: 2,
            tRCD: 3,
            tRP: 3,
            tRAS: 6,
            tRC: 9,
            tCCD_S: 2,
            tCCD_L: 2,
            tRRD_S: 2,
            tRRD_L: 2,
            tFAW: 8,
            tWR: 2,
            tRTP: 2,
            tWTR: 2,
            tREFI: 520,
            tRFC: 18,
        },
        // Stacked-on-logic mobile part at 1.2 V; the 3D wire lengths
        // make it the lowest-energy technology in the set.
        power: DramPowerParams {
            vdd_mv: 1200,
            idd0_ma: 12,
            idd2n_ma: 4,
            idd3n_ma: 8,
            idd4r_ma: 60,
            idd4w_ma: 60,
            idd5b_ma: 40,
        },
    };

    /// Wide I/O 2: one x64 channel at 800 MT/s (eight such channels form
    /// the JEDEC 51.2 GB/s stack).
    pub(crate) const WIO2: DramSpec = DramSpec {
        name: "WIO2-800",
        org: DramOrg {
            ranks: 1,
            bank_groups: 1,
            banks_per_group: 8,
            rows: 16384,
            columns: 512,
            bus_bits: 64,
            burst_length: 4,
        },
        timing: DramTiming {
            tCK_ps: 2500,
            CL: 8,
            CWL: 4,
            tRCD: 8,
            tRP: 8,
            tRAS: 17,
            tRC: 24,
            tCCD_S: 2,
            tCCD_L: 2,
            tRRD_S: 4,
            tRRD_L: 4,
            tFAW: 12,
            tWR: 6,
            tRTP: 3,
            tWTR: 4,
            tREFI: 1560,
            tRFC: 72,
        },
        power: DramPowerParams {
            vdd_mv: 1100,
            idd0_ma: 15,
            idd2n_ma: 5,
            idd3n_ma: 10,
            idd4r_ma: 80,
            idd4w_ma: 80,
            idd5b_ma: 50,
        },
    };
}

/// Every preset under its `[dram] model` name, in the order error
/// messages and sweep vocabularies list them.
const PRESETS: [(&str, DramSpec); 9] = [
    ("ddr3_1600", DramSpec::DDR3_1600),
    ("ddr4_2400", DramSpec::DDR4_2400),
    ("ddr4_2400_4gb", DramSpec::DDR4_2400_4GB),
    ("ddr4_2400_2rank", DramSpec::DDR4_2400_2RANK),
    ("lpddr4_3200", DramSpec::LPDDR4_3200),
    ("gddr5_6000", DramSpec::GDDR5_6000),
    ("hbm2", DramSpec::HBM2),
    ("wio1", DramSpec::WIO1),
    ("wio2", DramSpec::WIO2),
];

impl DramSpec {
    /// Every preset name accepted by [`by_name`](Self::by_name).
    pub fn preset_names() -> [&'static str; 9] {
        PRESETS.map(|(name, _)| name)
    }

    /// Looks up a preset by its `[dram] model` name; `None` for unknown
    /// names — callers own the error message so they can name the full
    /// vocabulary from [`preset_names`](Self::preset_names).
    pub fn by_name(name: &str) -> Option<DramSpec> {
        let row = PRESETS.iter().find(|(preset, _)| *preset == name);
        row.map(|&(_, spec)| spec)
    }

    /// All presets, in [`preset_names`](Self::preset_names) order.
    pub fn presets() -> [DramSpec; 9] {
        PRESETS.map(|(_, spec)| spec)
    }

    /// Peak channel bandwidth in MB/s.
    pub fn peak_mbps(&self) -> f64 {
        // DDR transfers two beats of the bus per clock.
        let bytes_per_cycle = (self.org.bus_bits as f64 / 8.0) * 2.0;
        bytes_per_cycle * (1.0e12 / self.timing.tCK_ps as f64) / 1.0e6
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Internal consistency checks on the timing parameters.
    fn is_consistent(spec: &DramSpec) -> bool {
        let t = &spec.timing;
        t.tRC >= t.tRAS + t.tRP - 1 // some sheets round; allow one cycle slack
            && t.tRAS >= t.tRCD
            && t.tCCD_L >= t.tCCD_S
            && t.tRRD_L >= t.tRRD_S
            && t.tFAW >= t.tRRD_S
            && t.tREFI > t.tRFC
    }

    #[test]
    fn by_name_resolves_every_listed_preset_and_rejects_unknown() {
        for name in DramSpec::preset_names() {
            let spec = DramSpec::by_name(name)
                .unwrap_or_else(|| panic!("preset_names lists unresolvable name {name}"));
            assert!(is_consistent(&spec), "{name} timing inconsistent");
        }
        assert!(DramSpec::by_name("ddr9").is_none());
        assert!(DramSpec::by_name("").is_none());
    }

    #[test]
    fn presets_are_consistent() {
        for spec in DramSpec::presets() {
            assert!(is_consistent(&spec), "{} timing inconsistent", spec.name);
            // WIO1 has 4 banks per channel; everything else at least 8.
            assert!(spec.org.banks() >= 4, "{}", spec.name);
            assert!(spec.org.burst_bytes() >= 32, "{}", spec.name);
        }
    }

    #[test]
    fn dual_rank_doubles_capacity_and_domains() {
        let one = DramSpec::DDR4_2400;
        let two = DramSpec::DDR4_2400_2RANK;
        assert!(is_consistent(&two));
        assert_eq!(two.org.capacity_bytes(), 2 * one.org.capacity_bytes());
        assert_eq!(two.org.ranks, 2);
        // Same bus, same peak bandwidth; more standby current.
        assert_eq!(two.peak_mbps(), one.peak_mbps());
        assert_eq!(two.power.idd2n_ma, 2 * one.power.idd2n_ma);
        assert!(crate::power::tests::is_consistent(&two.power));
    }

    #[test]
    fn wio_presets_match_jedec_scale_bandwidth() {
        // WIO1: x128 at an effective 266 MT/s ⇒ ~4.26 GB/s per channel.
        let w1 = DramSpec::WIO1;
        assert!(
            (w1.peak_mbps() - 4266.0).abs() / 4266.0 < 0.01,
            "{}",
            w1.peak_mbps()
        );
        // WIO2: x64 at 800 MT/s ⇒ 6.4 GB/s per channel.
        let w2 = DramSpec::WIO2;
        assert!(
            (w2.peak_mbps() - 6400.0).abs() / 6400.0 < 0.01,
            "{}",
            w2.peak_mbps()
        );
    }

    #[test]
    fn wio_latency_in_nanoseconds_is_conventional() {
        // Slow clocks must not mean slow rows: tRCD+CL in ns should stay in
        // the DRAM-typical 20–60 ns window.
        for spec in [DramSpec::WIO1, DramSpec::WIO2] {
            let ns = (spec.timing.tRCD + spec.timing.CL) as f64 * spec.timing.tCK_ps as f64 * 1e-3;
            assert!((20.0..60.0).contains(&ns), "{}: {ns} ns", spec.name);
        }
    }

    #[test]
    fn ddr4_capacity_preset() {
        let spec = DramSpec::DDR4_2400_4GB;
        assert_eq!(spec.org.capacity_bytes(), 512 * 1024 * 1024);
    }

    #[test]
    fn ddr4_peak_bandwidth() {
        // DDR4-2400 x64: 2400 MT/s × 8 B = 19200 MB/s.
        let spec = DramSpec::DDR4_2400;
        let mbps = spec.peak_mbps();
        assert!(
            (mbps - 19200.0).abs() / 19200.0 < 0.01,
            "peak {mbps} MB/s not ~19200"
        );
    }

    #[test]
    fn burst_bytes_ddr4_is_cacheline() {
        assert_eq!(DramSpec::DDR4_2400.org.burst_bytes(), 64);
        assert_eq!(DramSpec::HBM2.org.burst_bytes(), 64);
        assert_eq!(DramSpec::LPDDR4_3200.org.burst_bytes(), 64);
    }

    #[test]
    fn hbm_is_faster_per_burst_than_ddr4() {
        let h = DramSpec::HBM2;
        let d = DramSpec::DDR4_2400;
        assert!(h.org.burst_cycles() < d.org.burst_cycles());
    }
}
