//! Energy evaluation: action counts × reference table → per-component
//! energy, average power and energy-delay product.

use crate::actions::ActionCounts;
use crate::ert::EnergyModel;
use std::fmt;

/// Energy of one architectural component in picojoules.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ComponentEnergy {
    /// Component name.
    pub name: &'static str,
    /// Dynamic + static energy attributed to the component, pJ.
    pub energy_pj: f64,
}

/// Full energy/power report for a run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct EnergyReport {
    components: Vec<ComponentEnergy>,
    cycles: u64,
    clock_hz: f64,
}

impl EnergyReport {
    /// Per-component breakdown.
    pub fn components(&self) -> &[ComponentEnergy] {
        &self.components
    }

    /// Total energy in picojoules. Folds from `+0.0` (an empty `f64`
    /// `sum()` is `-0.0`) so a report with no components prints `0.000000`.
    pub fn total_pj(&self) -> f64 {
        self.components.iter().fold(0.0, |pj, c| pj + c.energy_pj)
    }

    /// Total energy in millijoules (the unit of the paper's Fig. 15).
    pub fn total_mj(&self) -> f64 {
        self.total_pj() * 1e-9
    }

    /// Run length in cycles.
    pub fn cycles(&self) -> u64 {
        self.cycles
    }

    /// Execution time in seconds.
    pub fn runtime_s(&self) -> f64 {
        self.cycles as f64 / self.clock_hz
    }

    /// Average power in watts.
    pub fn avg_power_w(&self) -> f64 {
        let t = self.runtime_s();
        if t == 0.0 {
            0.0
        } else {
            self.total_pj() * 1e-12 / t
        }
    }

    /// Energy-delay product in `cycles × mJ` — Table V's unit.
    pub fn edp_cycles_mj(&self) -> f64 {
        self.cycles as f64 * self.total_mj()
    }

    /// Energy of a named component (0 if absent).
    pub fn component_pj(&self, name: &str) -> f64 {
        self.components
            .iter()
            .find(|c| c.name == name)
            .map_or(0.0, |c| c.energy_pj)
    }

    /// Accumulates another report into this one — the aggregation hook
    /// whole-run and design-space-sweep reports use to roll per-layer
    /// energies up to a run total. Components are matched by name (a
    /// component present only in `other` is appended), cycles add, and
    /// the clock is taken from whichever report has one.
    ///
    /// # Panics
    ///
    /// Panics if the two reports were evaluated at different non-zero
    /// clock frequencies — average power would be meaningless.
    pub fn merge(&mut self, other: &EnergyReport) {
        assert!(
            self.clock_hz == 0.0 || other.clock_hz == 0.0 || self.clock_hz == other.clock_hz,
            "cannot merge energy reports with different clocks ({} Hz vs {} Hz)",
            self.clock_hz,
            other.clock_hz
        );
        if self.clock_hz == 0.0 {
            self.clock_hz = other.clock_hz;
        }
        self.cycles += other.cycles;
        for c in &other.components {
            match self.components.iter_mut().find(|m| m.name == c.name) {
                Some(mine) => mine.energy_pj += c.energy_pj,
                None => self.components.push(*c),
            }
        }
    }

    /// An empty report (no components, zero cycles) — the identity for
    /// [`EnergyReport::merge`], useful as a fold seed.
    pub fn empty() -> EnergyReport {
        EnergyReport::default()
    }

    /// Fraction of total energy attributable to data movement (spads,
    /// SRAMs, DRAM, NoC) rather than compute.
    pub fn data_movement_fraction(&self) -> f64 {
        let total = self.total_pj();
        if total == 0.0 {
            return 0.0;
        }
        let compute = self.component_pj("mac_array");
        (total - compute) / total
    }
}

impl fmt::Display for EnergyReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "energy {:.3} mJ over {} cycles ({:.3} W avg)",
            self.total_mj(),
            self.cycles,
            self.avg_power_w()
        )?;
        for c in &self.components {
            writeln!(f, "  {:<14} {:>14.1} pJ", c.name, c.energy_pj)?;
        }
        Ok(())
    }
}

impl EnergyModel {
    /// Evaluates action counts over `total_cycles` into an energy report.
    pub fn evaluate(&self, counts: &ActionCounts, total_cycles: u64) -> EnergyReport {
        let t = &self.table;
        let mac = counts.mac_random as f64 * t.mac_random_pj
            + counts.mac_constant as f64 * t.mac_constant_pj
            + counts.mac_gated as f64 * t.mac_gated_pj;
        let spads = (counts.ifmap_spad_reads + counts.weight_spad_reads + counts.psum_spad_reads)
            as f64
            * t.spad_read_pj
            + (counts.ifmap_spad_writes + counts.weight_spad_writes + counts.psum_spad_writes)
                as f64
                * t.spad_write_pj;
        let sram_of = |random: u64, repeat: u64, idle: u64, bytes: usize| {
            random as f64 * t.sram_access_pj(bytes)
                + repeat as f64 * t.sram_repeat_pj(bytes)
                + idle as f64 * t.sram_leak_pj_per_cycle(bytes) / 8.0
        };
        let ifmap_sram = sram_of(
            counts.ifmap_sram_random,
            counts.ifmap_sram_repeat,
            counts.ifmap_sram_idle,
            self.arch.ifmap_sram_bytes,
        );
        let filter_sram = sram_of(
            counts.filter_sram_random,
            counts.filter_sram_repeat,
            counts.filter_sram_idle,
            self.arch.filter_sram_bytes,
        );
        let ofmap_sram = sram_of(
            counts.ofmap_sram_random,
            counts.ofmap_sram_repeat,
            counts.ofmap_sram_idle,
            self.arch.ofmap_sram_bytes,
        );
        let dram = (counts.dram_reads + counts.dram_writes) as f64 * t.dram_access_pj;
        let noc = counts.noc_words as f64 * t.noc_word_pj;
        // Array-level leakage over the whole runtime (all PEs, always on —
        // this is the residual a power-gated design still pays).
        let leakage = self.arch.num_pes() as f64 * total_cycles as f64 * t.mac_power_gated_pj;
        EnergyReport {
            components: vec![
                ComponentEnergy {
                    name: "mac_array",
                    energy_pj: mac,
                },
                ComponentEnergy {
                    name: "pe_spads",
                    energy_pj: spads,
                },
                ComponentEnergy {
                    name: "ifmap_sram",
                    energy_pj: ifmap_sram,
                },
                ComponentEnergy {
                    name: "filter_sram",
                    energy_pj: filter_sram,
                },
                ComponentEnergy {
                    name: "ofmap_sram",
                    energy_pj: ofmap_sram,
                },
                ComponentEnergy {
                    name: "dram",
                    energy_pj: dram,
                },
                ComponentEnergy {
                    name: "noc",
                    energy_pj: noc,
                },
                ComponentEnergy {
                    name: "leakage",
                    energy_pj: leakage,
                },
            ],
            cycles: total_cycles,
            clock_hz: self.arch.clock_hz,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::actions::LayerActivity;
    use crate::ert::ArchSpec;

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
        let mut merged = EnergyReport::empty();
        merged.merge(&a);
        merged.merge(&b);
        assert_eq!(merged.cycles(), 14_000);
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
        merged.merge(&EnergyReport::empty());
        assert_eq!(merged, a);
        let empty = EnergyReport::empty().total_pj();
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
}
