//! Unit tests of `workloads::vit`.

mod tests {
    use crate::workloads::vit::*;
    use scalesim_systolic::GemmShape;

    #[test]
    fn configs_have_consistent_head_dims() {
        for c in [ViTConfig::small(), ViTConfig::base(), ViTConfig::large()] {
            assert_eq!(c.hidden % c.heads, 0, "{}", c.name);
            assert_eq!(c.head_dim() * c.heads, c.hidden);
        }
    }

    #[test]
    fn vit_base_block_count_and_layers() {
        let t = vit_base();
        // patch_embed + 12 blocks × 6 GEMMs + head.
        assert_eq!(t.len(), 1 + 12 * 6 + 1);
        // ViT-Base is ≈ 17.5 GMACs at 224².
        let gmacs = t.total_macs() as f64 / 1e9;
        assert!((15.0..=20.0).contains(&gmacs), "vit-base {gmacs} GMACs");
    }

    #[test]
    fn model_size_ordering() {
        let s = vit_small().total_macs();
        let b = vit_base().total_macs();
        let l = vit_large().total_macs();
        assert!(s < b && b < l);
        // Large ≈ 3.5× base.
        let ratio = l as f64 / b as f64;
        assert!((2.5..=4.5).contains(&ratio), "L/B ratio {ratio}");
    }

    #[test]
    fn ff_layers_match_paper_shapes() {
        let ff = vit_feed_forward_layers();
        assert_eq!(ff[0], GemmShape::new(197, 3072, 768));
        assert_eq!(ff[1], GemmShape::new(197, 768, 3072));
    }

    #[test]
    fn attention_gemms_preserve_total_macs() {
        // QKᵀ batched over heads: M=seq·heads, N=seq, K=head_dim must equal
        // heads × (seq × seq × head_dim).
        let c = ViTConfig::base();
        let t = c.topology();
        let qk = t
            .iter()
            .find(|l| l.name() == "blk0_qk")
            .unwrap()
            .gemm()
            .macs();
        assert_eq!(qk, (c.heads * c.seq * c.seq * c.head_dim()) as u64);
    }
}
