//! Synthetic GEMM workload generators for design-space sweeps.

use scalesim_systolic::{GemmShape, Layer, Topology};

/// Builds a topology with one GEMM layer per `(m, n, k)` combination of
/// the cartesian product of the given dimension lists.
pub fn gemm_sweep(ms: &[usize], ns: &[usize], ks: &[usize]) -> Topology {
    let mut t = Topology::new("gemm-sweep");
    for &m in ms {
        for &n in ns {
            for &k in ks {
                t.push(Layer::gemm_layer(format!("gemm_m{m}_n{n}_k{k}"), m, n, k));
            }
        }
    }
    t
}

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
