//! Closed-form runtime and footprint models (Eq. 1 of the paper).
//!
//! The analytical model reproduces SCALE-Sim v2's runtime equation
//!
//! ```text
//! cycles = (2R + C + T − 2) · ⌈Sr / R⌉ · ⌈Sc / C⌉
//! ```
//!
//! which over-approximates the cycle-accurate simulator on ragged edge folds
//! (the simulator clips `R'`, `C'` per fold) and matches it exactly when
//! `R | Sr` and `C | Sc`. It is used by the partition-search experiments
//! (Fig. 3) where the 10⁹-MAC GEMM sweeps make full demand streaming
//! unnecessary.

use crate::config::{ArrayShape, Dataflow};
use crate::dataflow::FoldGeometry;
use crate::topology::GemmShape;
use crate::util::ceil_div;

/// Eq. 1: runtime in cycles for `(sr, sc, t)` mapped on an `R×C` array.
pub fn analytical_runtime(array: ArrayShape, sr: usize, sc: usize, t: usize) -> u64 {
    let r = array.rows();
    let c = array.cols();
    let per_fold = (2 * r + c + t - 2) as u64;
    per_fold * ceil_div(sr, r) as u64 * ceil_div(sc, c) as u64
}

/// Analytical single-core model for a GEMM under a dataflow.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AnalyticalModel {
    array: ArrayShape,
    dataflow: Dataflow,
    gemm: GemmShape,
}

impl AnalyticalModel {
    /// Creates the model.
    pub fn new(array: ArrayShape, dataflow: Dataflow, gemm: GemmShape) -> Self {
        Self {
            array,
            dataflow,
            gemm,
        }
    }

    /// The `(Sr, Sc, T)` mapping for this dataflow.
    pub fn mapping(&self) -> (usize, usize, usize) {
        let g = FoldGeometry::new(self.array, self.dataflow, self.gemm);
        (g.sr, g.sc, g.t)
    }

    /// Eq. 1 runtime (upper bound; exact when dimensions divide evenly).
    pub fn runtime_cycles(&self) -> u64 {
        let (sr, sc, t) = self.mapping();
        analytical_runtime(self.array, sr, sc, t)
    }

    /// Exact cycle count matching the cycle-accurate generator (clipped
    /// edge folds), still in closed form.
    pub fn exact_runtime_cycles(&self) -> u64 {
        FoldGeometry::new(self.array, self.dataflow, self.gemm).total_cycles()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataflow::DemandGenerator;

    #[test]
    fn eq1_literal_values() {
        // (2·8 + 8 + 10 − 2) · ⌈16/8⌉ · ⌈24/8⌉ = 32 · 2 · 3 = 192
        assert_eq!(analytical_runtime(ArrayShape::new(8, 8), 16, 24, 10), 192);
    }

    #[test]
    fn matches_cycle_accurate_on_even_tiles() {
        let gemm = GemmShape::new(16, 24, 10);
        for df in Dataflow::ALL {
            let model = AnalyticalModel::new(ArrayShape::new(8, 8), df, gemm);
            let gen = DemandGenerator::new(ArrayShape::new(8, 8), df, gemm);
            // OS maps (M=16, N=24) on (8, 8): even. WS maps (K=10, N=24):
            // K=10 is ragged on R=8, so only compare the exact form.
            assert_eq!(
                model.exact_runtime_cycles(),
                gen.geometry().total_cycles(),
                "{df}"
            );
            assert!(model.runtime_cycles() >= model.exact_runtime_cycles());
        }
    }

    #[test]
    fn upper_bounds_cycle_accurate_on_ragged_tiles() {
        let gemm = GemmShape::new(9, 7, 5);
        for df in Dataflow::ALL {
            let model = AnalyticalModel::new(ArrayShape::new(4, 4), df, gemm);
            let gen = DemandGenerator::new(ArrayShape::new(4, 4), df, gemm);
            assert!(
                model.runtime_cycles() >= gen.geometry().total_cycles(),
                "{df}: analytical must upper-bound cycle-accurate"
            );
            assert_eq!(model.exact_runtime_cycles(), gen.geometry().total_cycles());
        }
    }
}
