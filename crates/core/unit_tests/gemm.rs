//! Unit tests of `workloads::gemm`.

mod tests {
    use crate::workloads::gemm::*;
    use scalesim_systolic::GemmShape;

    #[test]
    fn sweep_covers_cartesian_product() {
        let t = gemm_sweep(&[2, 4], &[8], &[16, 32, 64]);
        assert_eq!(t.len(), 6);
        assert!(t.iter().any(|l| l.gemm() == GemmShape::new(4, 8, 64)));
    }

    #[test]
    fn fig3_has_27_workloads() {
        let w = fig3_gemm_workloads();
        assert_eq!(w.len(), 27);
        assert!(w.contains(&GemmShape::new(1000, 5000, 10000)));
        // Largest: 10000³ = 1e12 MACs.
        assert_eq!(w.iter().map(|g| g.macs()).max().unwrap(), 1_000_000_000_000);
    }
}
