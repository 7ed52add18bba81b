//! Tensor cores (paper §III-C).
//!
//! A tensor core follows the TPU naming convention: one matrix-multiply
//! unit (the systolic array) plus a vector/SIMD unit; cores may differ in
//! array dimensions and SIMD length.

use crate::simd::{SimdOp, SimdUnit};
use scalesim_systolic::{analytical_runtime, ArrayShape, Dataflow, FoldGeometry, GemmShape};

/// One tensor core: systolic array + SIMD unit.
#[derive(Debug, Clone, PartialEq)]
pub struct TensorCore {
    /// Matrix unit dimensions.
    pub array: ArrayShape,
    /// Vector unit.
    pub simd: SimdUnit,
}

impl TensorCore {
    /// Creates a core.
    pub fn new(array: ArrayShape, simd: SimdUnit) -> Self {
        Self { array, simd }
    }

    /// Peak MACs per cycle.
    pub fn peak_macs_per_cycle(&self) -> u64 {
        self.array.num_pes() as u64
    }

    /// Analytical cycles for a GEMM on this core.
    pub fn gemm_cycles(&self, dataflow: Dataflow, gemm: GemmShape) -> u64 {
        let g = FoldGeometry::new(self.array, dataflow, gemm);
        analytical_runtime(self.array, g.sr, g.sc, g.t)
    }

    /// Cycles for a vector epilogue over `elements` values.
    pub fn simd_cycles(&self, op: SimdOp, elements: u64) -> u64 {
        self.simd.op_cycles(op, elements)
    }

    /// Effective cycles per unit work (MAC), for load balancing.
    pub fn cycles_per_mac(&self, dataflow: Dataflow, probe: GemmShape) -> f64 {
        self.gemm_cycles(dataflow, probe) as f64 / probe.macs() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn big() -> TensorCore {
        TensorCore::new(ArrayShape::new(32, 32), SimdUnit::new(256))
    }

    fn small() -> TensorCore {
        TensorCore::new(ArrayShape::new(8, 8), SimdUnit::new(64))
    }

    #[test]
    fn bigger_core_is_faster_on_big_gemms() {
        let g = GemmShape::new(512, 512, 512);
        assert!(
            big().gemm_cycles(Dataflow::WeightStationary, g)
                < small().gemm_cycles(Dataflow::WeightStationary, g)
        );
    }

    #[test]
    fn simd_epilogue_scales_with_lanes() {
        let b = big();
        let s = small();
        assert!(b.simd_cycles(SimdOp::Softmax, 100_000) < s.simd_cycles(SimdOp::Softmax, 100_000));
    }
}
