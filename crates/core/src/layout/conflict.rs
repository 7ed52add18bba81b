//! Bank-conflict evaluation (paper §VI-B).
//!
//! For every compute cycle, the set of elements the array requests maps to
//! a set of `(line, bank)` pairs. Each bank can deliver `ports` distinct
//! lines per cycle, so the cycle's cost under the layout model is
//! `max_i ⌈lines_i / ports⌉`. The idealized SCALE-Sim v2 model charges
//! `⌈elements / total_bandwidth⌉` instead; the *relative slowdown* between
//! the two is what Figs. 12 and 13 plot (negative values mean the banked
//! memory outperforms the flat-bandwidth abstraction).

use crate::layout::spec::{LayoutSpec, TensorDims};

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

    /// Cycles required to serve one cycle's element set under the banked
    /// layout model: `max_i ⌈lines_i / ports⌉` (≥ 1 for a non-empty set).
    pub fn cycle_slowdown(
        &self,
        layout: &LayoutSpec,
        dims: TensorDims,
        elements: impl IntoIterator<Item = (usize, usize, usize)>,
    ) -> u64 {
        let mut scratch = Vec::new();
        self.cycle_slowdown_with(&mut scratch, layout, dims, elements)
    }

    /// [`cycle_slowdown`](Self::cycle_slowdown) with a caller-provided
    /// scratch buffer — the allocation-free form used on the hot path
    /// (one call per simulated cycle).
    pub(crate) fn cycle_slowdown_with(
        &self,
        scratch: &mut Vec<u64>,
        layout: &LayoutSpec,
        dims: TensorDims,
        elements: impl IntoIterator<Item = (usize, usize, usize)>,
    ) -> u64 {
        scratch.clear();
        for (c, h, w) in elements {
            let p = layout.place_banked(dims, c, h, w, self.bandwidth_per_bank, self.num_banks);
            scratch.push(((p.bank as u64) << 40) | p.line as u64);
        }
        if scratch.is_empty() {
            return 0;
        }
        scratch.sort_unstable();
        scratch.dedup();
        // Count the longest same-bank run (scratch is bank-major sorted).
        let mut worst: u64 = 0;
        let mut run: u64 = 0;
        let mut current_bank = u64::MAX;
        for &key in scratch.iter() {
            let bank = key >> 40;
            if bank == current_bank {
                run += 1;
            } else {
                worst = worst.max(run);
                current_bank = bank;
                run = 1;
            }
        }
        worst = worst.max(run);
        worst.div_ceil(self.ports_per_bank as u64).max(1)
    }

    /// The flat-bandwidth cost of the same element set.
    pub fn bandwidth_model_cycles(&self, num_elements: usize) -> u64 {
        (num_elements as u64)
            .div_ceil(self.total_bandwidth() as u64)
            .max(if num_elements > 0 { 1 } else { 0 })
    }
}

/// Accumulates layout-model vs bandwidth-model cycles over a stream.
#[derive(Debug, Clone)]
pub struct StreamEvaluator {
    model: BankModel,
    layout: LayoutSpec,
    dims: TensorDims,
    layout_cycles: u64,
    bandwidth_cycles: u64,
    compute_cycles: u64,
    peak_cycle_cost: u64,
    /// Scratch buffer reused across cycles.
    scratch: Vec<(usize, usize, usize)>,
}

impl StreamEvaluator {
    /// Creates an evaluator for one tensor under one layout.
    pub fn new(model: BankModel, layout: LayoutSpec, dims: TensorDims) -> Self {
        Self {
            model,
            layout,
            dims,
            layout_cycles: 0,
            bandwidth_cycles: 0,
            compute_cycles: 0,
            peak_cycle_cost: 0,
            scratch: Vec::new(),
        }
    }

    /// Observes one compute cycle's requested elements.
    pub fn observe<I: IntoIterator<Item = (usize, usize, usize)>>(&mut self, elements: I) {
        self.scratch.clear();
        self.scratch.extend(elements);
        self.compute_cycles += 1;
        let lc = self
            .model
            .cycle_slowdown(&self.layout, self.dims, self.scratch.iter().copied());
        let bc = self.model.bandwidth_model_cycles(self.scratch.len());
        // Even an idle cycle advances time by one in both models.
        self.layout_cycles += lc.max(1);
        self.bandwidth_cycles += bc.max(1);
        self.peak_cycle_cost = self.peak_cycle_cost.max(lc);
    }

    /// Final report.
    pub fn report(&self) -> SlowdownReport {
        SlowdownReport {
            compute_cycles: self.compute_cycles,
            layout_cycles: self.layout_cycles,
            bandwidth_cycles: self.bandwidth_cycles,
            peak_cycle_cost: self.peak_cycle_cost,
        }
    }
}

/// Comparison of the banked layout model against the flat-bandwidth model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SlowdownReport {
    /// Demand-stream length in compute cycles.
    pub compute_cycles: u64,
    /// Total cycles under the banked layout model.
    pub layout_cycles: u64,
    /// Total cycles under the flat-bandwidth model.
    pub bandwidth_cycles: u64,
    /// Worst single-cycle cost under the layout model.
    pub(crate) peak_cycle_cost: u64,
}

impl SlowdownReport {
    /// Relative slowdown vs the bandwidth model (Figs. 12–13's y-axis):
    /// `layout/bandwidth − 1`; negative when banking wins.
    pub fn relative_slowdown(&self) -> f64 {
        if self.bandwidth_cycles == 0 {
            0.0
        } else {
            self.layout_cycles as f64 / self.bandwidth_cycles as f64 - 1.0
        }
    }
}
