//! Unit tests of `workloads::gemm`.

mod tests {
    use crate::workloads::gemm::*;
    use scalesim_systolic::GemmShape;

    #[test]
    fn fig3_has_27_workloads() {
        let w = fig3_gemm_workloads();
        assert_eq!(w.len(), 27);
        assert!(w.contains(&GemmShape::new(1000, 5000, 10000)));
        // Largest: 10000³ = 1e12 MACs.
        assert_eq!(w.iter().map(|g| g.macs()).max().unwrap(), 1_000_000_000_000);
    }
}
