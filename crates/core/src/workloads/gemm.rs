//! The GEMM sets of the paper's figures.

use scalesim_systolic::GemmShape;

/// The Fig. 3 workload set: `M, N, K ∈ {1000, 5000, 10000}` — 27 GEMMs.
pub fn fig3_gemm_workloads() -> Vec<GemmShape> {
    let dims = [1000usize, 5000, 10000];
    let mut v = Vec::with_capacity(27);
    for &m in &dims {
        for &n in &dims {
            for &k in &dims {
                v.push(GemmShape::new(m, n, k));
            }
        }
    }
    v
}
