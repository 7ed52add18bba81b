//! Structure tests of the ViT networks in the `workloads` registry (the
//! shipped `topologies/vit_*_gemm.csv`).

mod tests {
    use crate::workloads::by_name;
    use scalesim_systolic::{GemmShape, Topology};

    /// Sequence length at 224×224: 196 patches and the class token.
    const SEQ: usize = 197;

    /// `(name, blocks, hidden, heads, mlp)` of ViT-S/B/L/16.
    const VITS: [(&str, usize, usize, usize, usize); 3] = [
        ("vit-small", 12, 384, 6, 1536),
        ("vit-base", 12, 768, 12, 3072),
        ("vit-large", 24, 1024, 16, 4096),
    ];

    fn net(name: &str) -> Topology {
        by_name(name).expect("a registry workload")
    }

    fn gemm(t: &Topology, layer: &str) -> GemmShape {
        let layer = t.iter().find(|l| l.name() == layer);
        layer.expect("a ViT layer").gemm()
    }

    #[test]
    fn configs_have_consistent_head_dims() {
        // Every block is QKV, QKᵀ and AV with the heads batched along M,
        // the output projection and the two feed-forward GEMMs.
        for (name, blocks, hidden, heads, mlp) in VITS {
            assert_eq!(hidden % heads, 0, "{name}");
            let (t, d) = (net(name), hidden / heads);
            assert_eq!(t.len(), 1 + blocks * 6 + 1, "{name}");
            let patches = GemmShape::new(SEQ - 1, hidden, 16 * 16 * 3);
            assert_eq!(gemm(&t, "patch_embed"), patches, "{name}");
            assert_eq!(gemm(&t, "head"), GemmShape::new(1, 1000, hidden), "{name}");
            for b in 0..blocks {
                let g = |layer: &str| gemm(&t, &format!("blk{b}_{layer}"));
                assert_eq!(g("qkv"), GemmShape::new(SEQ, 3 * hidden, hidden), "{name}");
                assert_eq!(g("qk"), GemmShape::new(SEQ * heads, SEQ, d), "{name}");
                assert_eq!(g("av"), GemmShape::new(SEQ * heads, d, SEQ), "{name}");
                assert_eq!(g("proj"), GemmShape::new(SEQ, hidden, hidden), "{name}");
                assert_eq!(g("ff1"), GemmShape::new(SEQ, mlp, hidden), "{name}");
                assert_eq!(g("ff2"), GemmShape::new(SEQ, hidden, mlp), "{name}");
            }
        }
    }

    #[test]
    fn vit_base_block_count_and_layers() {
        let t = net("vit-base");
        // patch_embed + 12 blocks × 6 GEMMs + head.
        assert_eq!(t.len(), 1 + 12 * 6 + 1);
        // ViT-Base is ≈ 17.5 GMACs at 224².
        let gmacs = t.total_macs() as f64 / 1e9;
        assert!((15.0..=20.0).contains(&gmacs), "vit-base {gmacs} GMACs");
    }

    #[test]
    fn model_size_ordering() {
        let s = net("vit-small").total_macs();
        let b = net("vit-base").total_macs();
        let l = net("vit-large").total_macs();
        assert!(s < b && b < l);
        // Large ≈ 3.5× base.
        let ratio = l as f64 / b as f64;
        assert!((2.5..=4.5).contains(&ratio), "L/B ratio {ratio}");
    }

    #[test]
    fn ff_layers_match_paper_shapes() {
        // Fig. 8's workload: the feed-forward layers of ViT-Base.
        let t = net("vit-base");
        assert_eq!(gemm(&t, "blk0_ff1"), GemmShape::new(197, 3072, 768));
        assert_eq!(gemm(&t, "blk0_ff2"), GemmShape::new(197, 768, 3072));
    }

    #[test]
    fn attention_gemms_preserve_total_macs() {
        // QKᵀ batched over heads: M=seq·heads, N=seq, K=head_dim must equal
        // heads × (seq × seq × head_dim).
        let (heads, head_dim) = (12, 64);
        let qk = gemm(&net("vit-base"), "blk0_qk").macs();
        assert_eq!(qk, (heads * SEQ * SEQ * head_dim) as u64);
    }
}
