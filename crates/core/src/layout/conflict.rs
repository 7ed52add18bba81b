//! The banked on-chip memory of the bank-conflict model (paper §VI-B).
//!
//! For every compute cycle, the set of elements the array requests maps to
//! a set of `(line, bank)` pairs. Each bank can deliver `ports` distinct
//! lines per cycle, so the cycle's cost under the layout model is
//! `max_i ⌈lines_i / ports⌉`. The idealized SCALE-Sim v2 model charges
//! `⌈elements / total_bandwidth⌉` instead; the *relative slowdown* between
//! the two is what Figs. 12 and 13 plot (negative values mean the banked
//! memory outperforms the flat-bandwidth abstraction). The pipeline's
//! layout stage (`layout_analysis.rs`) prices a layer's demand under both.

/// The multi-bank on-chip memory: bank count, ports per bank and per-bank
/// line width (elements of one line stored in one bank).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BankModel {
    num_banks: usize,
    ports_per_bank: usize,
    bandwidth_per_bank: usize,
}

impl BankModel {
    /// Creates a bank model.
    ///
    /// # Panics
    ///
    /// Panics if any parameter is zero.
    pub fn new(num_banks: usize, ports_per_bank: usize, bandwidth_per_bank: usize) -> Self {
        assert!(
            num_banks > 0 && ports_per_bank > 0 && bandwidth_per_bank > 0,
            "bank model parameters must be non-zero"
        );
        Self {
            num_banks,
            ports_per_bank,
            bandwidth_per_bank,
        }
    }

    /// Builds the model from a total on-chip bandwidth (elements/cycle)
    /// split evenly across `num_banks` banks, as §VI-A describes.
    pub fn from_total_bandwidth(total_bandwidth: usize, num_banks: usize, ports: usize) -> Self {
        Self::new(num_banks, ports, (total_bandwidth / num_banks).max(1))
    }

    /// Number of banks.
    pub fn num_banks(&self) -> usize {
        self.num_banks
    }

    /// Ports per bank.
    pub fn ports_per_bank(&self) -> usize {
        self.ports_per_bank
    }

    /// Elements of one line held by one bank.
    pub fn bandwidth_per_bank(&self) -> usize {
        self.bandwidth_per_bank
    }

    /// Total on-chip bandwidth (elements per cycle).
    pub(crate) fn total_bandwidth(&self) -> usize {
        self.num_banks * self.bandwidth_per_bank
    }

    /// The flat-bandwidth cost of `num_elements` requested in one cycle.
    pub fn bandwidth_model_cycles(&self, num_elements: usize) -> u64 {
        (num_elements as u64)
            .div_ceil(self.total_bandwidth() as u64)
            .max(if num_elements > 0 { 1 } else { 0 })
    }
}
