//! The GEMM set of the paper's Fig. 3 partition study.

use scalesim::systolic::GemmShape;

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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig3_has_27_workloads() {
        let w = fig3_gemm_workloads();
        assert_eq!(w.len(), 27);
        assert!(w.contains(&GemmShape::new(1000, 5000, 10000)));
        // Largest: 10000³ = 1e12 MACs.
        assert_eq!(w.iter().map(|g| g.macs()).max().unwrap(), 1_000_000_000_000);
    }
}
