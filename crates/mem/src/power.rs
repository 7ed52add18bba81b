//! IDD-based DRAM energy and power estimation.
//!
//! Ramulator (and DRAMSim3) report "power consumption estimates" alongside
//! timing statistics (paper §II-C); Fig. 9's discussion also notes that
//! "each memory channel comes at … a power cost for parallel data loads".
//! This module reproduces that capability with the standard Micron
//! system-power-calculator methodology: datasheet IDD currents are combined
//! with the command counts and active-standby time the controller already
//! tracks in [`MemStats`].
//!
//! The model distinguishes five energy components:
//!
//! * **Activate/precharge** — one row cycle per ACT, energy
//!   `VDD · (IDD0·tRC − IDD3N·tRAS − IDD2N·(tRC−tRAS)) · tCK`.
//! * **Read bursts** — `VDD · (IDD4R − IDD3N) · burst_cycles · tCK` per CAS.
//! * **Write bursts** — same with `IDD4W`.
//! * **Refresh** — `VDD · (IDD5B − IDD2N) · tRFC · tCK` per REF.
//! * **Background** — active standby (`IDD3N`) while any bank holds an open
//!   row, precharge standby (`IDD2N`) otherwise, using the exact
//!   [`MemStats::row_open_cycles`] union the controller records.
//!
//! Currents are *per-rank aggregates* (datasheet per-device values scaled by
//! the devices forming one rank of the channel), so a whole channel is one
//! current budget. Calibration targets the well-known energy-per-bit
//! ordering of the technologies (WIO < HBM2 < LPDDR4 < DDR4 < GDDR5 for
//! streaming traffic) rather than any particular vendor part.
//!
//! ## Example
//!
//! ```
//! use scalesim_mem::{AccessKind, DramConfig, DramSystem};
//! use scalesim_mem::power::DramEnergyBreakdown;
//!
//! let config = DramConfig::default();
//! let mut dram = DramSystem::new(config);
//! for i in 0..64 {
//!     dram.enqueue(AccessKind::Read, i * 64, 0, &mut |_| ());
//! }
//! dram.drain(&mut |_| ());
//! let energy = DramEnergyBreakdown::from_stats(&config.spec, &dram.stats(), config.channels);
//! assert!(energy.total_pj() > 0.0);
//! assert!(energy.pj_per_bit() > 0.0);
//! ```

use crate::spec::DramSpec;
use crate::stats::MemStats;

/// Datasheet current parameters for one rank of a channel, in milliamps at
/// `vdd_mv` millivolts.
///
/// Stored as integers (mA / mV) so [`DramSpec`] keeps its `Eq` and `Hash`
/// friendliness; sub-milliamp resolution is far below datasheet tolerance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DramPowerParams {
    /// Supply voltage in millivolts.
    pub(crate) vdd_mv: u32,
    /// One-bank active-precharge current (mA): the row-cycle current.
    pub(crate) idd0_ma: u32,
    /// Precharge-standby current (mA): all banks closed, CKE high.
    pub(crate) idd2n_ma: u32,
    /// Active-standby current (mA): at least one bank open, no CAS.
    pub(crate) idd3n_ma: u32,
    /// Burst-read current (mA).
    pub(crate) idd4r_ma: u32,
    /// Burst-write current (mA).
    pub(crate) idd4w_ma: u32,
    /// Burst (all-bank) refresh current (mA).
    pub(crate) idd5b_ma: u32,
}

impl DramPowerParams {
    /// Supply voltage in volts.
    pub(crate) fn vdd(&self) -> f64 {
        self.vdd_mv as f64 * 1e-3
    }
}

/// Energy consumed by a DRAM run, broken down by source. All values in
/// picojoules.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct DramEnergyBreakdown {
    /// Row activate + precharge energy.
    pub activate_pj: f64,
    /// Read burst energy above active standby.
    pub read_pj: f64,
    /// Write burst energy above active standby.
    pub write_pj: f64,
    /// Refresh energy above precharge standby.
    pub refresh_pj: f64,
    /// Standby (background) energy: active standby while any row is open,
    /// precharge standby otherwise, over every channel's full runtime.
    pub background_pj: f64,
    /// Bits transferred, kept for the [`pj_per_bit`](Self::pj_per_bit)
    /// figure of merit.
    bits: f64,
    /// Wall-clock duration of the run in nanoseconds (max over channels).
    duration_ns: f64,
}

impl DramEnergyBreakdown {
    /// Estimates energy from aggregated statistics.
    ///
    /// `stats` may be the merge over all channels (as returned by
    /// [`DramSystem::stats`](crate::DramSystem::stats)); `channels` scales
    /// the background term, since every channel pays standby power for the
    /// whole run regardless of how traffic was distributed.
    pub fn from_stats(spec: &DramSpec, stats: &MemStats, channels: usize) -> Self {
        let t = &spec.timing;
        let p = &spec.power;
        let vdd = p.vdd();
        let tck_ns = t.tCK_ps as f64 * 1e-3;
        // V(volts) · I(mA) · t(ns) = pJ  (1e-3 A · 1e-9 s · 1e12 pJ/J = 1).
        let pj = |ma: f64, cycles: f64| vdd * ma * cycles * tck_ns;

        let row_cycle_ma = p.idd0_ma as f64 * t.tRC as f64
            - p.idd3n_ma as f64 * t.tRAS as f64
            - p.idd2n_ma as f64 * (t.tRC - t.tRAS) as f64;
        let activate_pj = stats.activates as f64 * pj(row_cycle_ma.max(0.0), 1.0);

        let burst = spec.org.burst_cycles() as f64;
        let read_pj = stats.reads as f64 * pj((p.idd4r_ma - p.idd3n_ma) as f64, burst);
        let write_pj = stats.writes as f64 * pj((p.idd4w_ma - p.idd3n_ma) as f64, burst);
        let refresh_pj =
            stats.refreshes as f64 * pj((p.idd5b_ma - p.idd2n_ma) as f64, t.tRFC as f64);

        // Background: each channel idles (precharge standby) or holds rows
        // open (active standby) for the full run.
        let total_cycles = stats.end_cycle as f64 * channels as f64;
        let open = (stats.row_open_cycles as f64).min(total_cycles);
        let background_pj =
            pj(p.idd3n_ma as f64, open) + pj(p.idd2n_ma as f64, total_cycles - open);

        DramEnergyBreakdown {
            activate_pj,
            read_pj,
            write_pj,
            refresh_pj,
            background_pj,
            bits: stats.bytes_transferred as f64 * 8.0,
            duration_ns: stats.end_cycle as f64 * tck_ns,
        }
    }

    /// Total energy in picojoules.
    pub fn total_pj(&self) -> f64 {
        self.activate_pj + self.read_pj + self.write_pj + self.refresh_pj + self.background_pj
    }

    /// Total energy in millijoules.
    pub fn total_mj(&self) -> f64 {
        self.total_pj() * 1e-9
    }

    /// Dynamic (non-background) energy in picojoules.
    pub fn dynamic_pj(&self) -> f64 {
        self.total_pj() - self.background_pj
    }

    /// Energy per transferred bit (pJ/bit); `0.0` when nothing moved.
    pub fn pj_per_bit(&self) -> f64 {
        if self.bits == 0.0 {
            0.0
        } else {
            self.total_pj() / self.bits
        }
    }

    /// Average power over the run in milliwatts; `0.0` for an empty run.
    pub fn avg_power_mw(&self) -> f64 {
        if self.duration_ns == 0.0 {
            0.0
        } else {
            // pJ / ns = mW.
            self.total_pj() / self.duration_ns
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// Consistency requirements among the currents: standby < active
    /// standby < row-cycle < burst, refresh above standby.
    pub(crate) fn is_consistent(p: &DramPowerParams) -> bool {
        p.idd2n_ma <= p.idd3n_ma
            && p.idd3n_ma <= p.idd0_ma
            && p.idd0_ma <= p.idd4r_ma
            && p.idd0_ma <= p.idd4w_ma
            && p.idd5b_ma > p.idd2n_ma
            && p.vdd_mv > 0
    }
    use crate::spec::DramSpec;
    use crate::system::{AccessKind, DramConfig, DramSystem};

    /// Runs `n` sequential reads through a system and returns its energy.
    fn streaming_energy(spec: DramSpec, n: u64) -> (DramEnergyBreakdown, MemStats) {
        let mut sys = DramSystem::new(DramConfig {
            spec,
            channels: 1,
            read_queue: 64,
            write_queue: 64,
            ..Default::default()
        });
        let line = spec.org.burst_bytes() as u64;
        for i in 0..n {
            sys.enqueue(AccessKind::Read, i * line, 0, &mut |_| ());
        }
        sys.drain(&mut |_| ());
        let stats = sys.stats();
        (DramEnergyBreakdown::from_stats(&spec, &stats, 1), stats)
    }

    #[test]
    fn single_read_energy_by_hand() {
        let spec = DramSpec::ddr4_2400();
        let stats = MemStats {
            reads: 1,
            activates: 1,
            bytes_transferred: 64,
            end_cycle: 100,
            row_open_cycles: 60,
            ..Default::default()
        };
        let e = DramEnergyBreakdown::from_stats(&spec, &stats, 1);
        let t = spec.timing;
        let p = spec.power;
        let tck_ns = t.tCK_ps as f64 * 1e-3;
        let vdd = p.vdd_mv as f64 * 1e-3;
        let exp_act = vdd
            * (p.idd0_ma as f64 * t.tRC as f64
                - p.idd3n_ma as f64 * t.tRAS as f64
                - p.idd2n_ma as f64 * (t.tRC - t.tRAS) as f64)
            * tck_ns;
        assert!((e.activate_pj - exp_act).abs() < 1e-9, "{e:?}");
        let exp_rd = vdd * (p.idd4r_ma - p.idd3n_ma) as f64 * 4.0 * tck_ns;
        assert!((e.read_pj - exp_rd).abs() < 1e-9);
        let exp_bg = vdd * (p.idd3n_ma as f64 * 60.0 + p.idd2n_ma as f64 * 40.0) * tck_ns;
        assert!((e.background_pj - exp_bg).abs() < 1e-9);
        assert!(e.write_pj == 0.0 && e.refresh_pj == 0.0);
        assert!((e.total_pj() - (exp_act + exp_rd + exp_bg)).abs() < 1e-9);
    }

    #[test]
    fn idle_run_is_background_only() {
        let spec = DramSpec::ddr4_2400();
        let stats = MemStats {
            end_cycle: 1000,
            ..Default::default()
        };
        let e = DramEnergyBreakdown::from_stats(&spec, &stats, 2);
        assert_eq!(e.dynamic_pj(), 0.0);
        assert!(e.background_pj > 0.0);
        // Two channels idle at IDD2N.
        let exp = spec.power.vdd()
            * spec.power.idd2n_ma as f64
            * 2000.0
            * (spec.timing.tCK_ps as f64 * 1e-3);
        assert!((e.background_pj - exp).abs() < 1e-6);
    }

    #[test]
    fn more_traffic_more_energy() {
        let spec = DramSpec::ddr4_2400();
        let (small, _) = streaming_energy(spec, 64);
        let (large, _) = streaming_energy(spec, 512);
        assert!(large.total_pj() > small.total_pj());
        assert!(large.read_pj > small.read_pj);
    }

    #[test]
    fn row_open_cycles_recorded_by_controller() {
        let (_, stats) = streaming_energy(DramSpec::ddr4_2400(), 256);
        assert!(stats.row_open_cycles > 0, "open-page rows must accrue time");
        assert!(
            stats.row_open_cycles <= stats.end_cycle,
            "single channel: union of open intervals cannot exceed runtime"
        );
    }

    #[test]
    fn streaming_pj_per_bit_in_plausible_band() {
        for spec in DramSpec::presets() {
            let (e, stats) = streaming_energy(spec, 512);
            assert!(stats.reads == 512, "{}", spec.name);
            let ppb = e.pj_per_bit();
            assert!(
                (0.5..40.0).contains(&ppb),
                "{}: {ppb} pJ/bit outside plausible DRAM band",
                spec.name
            );
        }
    }

    #[test]
    fn technology_energy_ordering() {
        // The headline reason HBM/WIO exist: fewer pJ per bit than DDR;
        // GDDR trades energy for bandwidth.
        let ppb = |spec: DramSpec| streaming_energy(spec, 512).0.pj_per_bit();
        let hbm = ppb(DramSpec::hbm2());
        let ddr4 = ppb(DramSpec::ddr4_2400());
        let gddr5 = ppb(DramSpec::gddr5_6000());
        let wio2 = ppb(DramSpec::wio2());
        assert!(wio2 < hbm, "WIO2 ({wio2}) should be below HBM2 ({hbm})");
        assert!(hbm < ddr4, "HBM2 ({hbm}) should be below DDR4 ({ddr4})");
        assert!(
            ddr4 < gddr5,
            "DDR4 ({ddr4}) should be below GDDR5 ({gddr5})"
        );
    }

    #[test]
    fn background_scales_with_channels() {
        // Fig. 9's caveat: every extra channel pays standby power.
        let spec = DramSpec::ddr4_2400();
        let stats = MemStats {
            end_cycle: 10_000,
            ..Default::default()
        };
        let one = DramEnergyBreakdown::from_stats(&spec, &stats, 1);
        let four = DramEnergyBreakdown::from_stats(&spec, &stats, 4);
        assert!((four.background_pj / one.background_pj - 4.0).abs() < 1e-9);
    }

    #[test]
    fn power_params_consistent_for_all_presets() {
        for spec in DramSpec::presets() {
            assert!(
                is_consistent(&spec.power),
                "{} power parameters inconsistent",
                spec.name
            );
        }
    }
}
