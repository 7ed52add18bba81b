//! Vision Transformer workloads as GEMM sequences.
//!
//! Each encoder block contributes five GEMMs (QKV projection, QKᵀ,
//! attention×V, output projection, and the two feed-forward layers).
//! Attention heads are batched along `M` (block-diagonal equivalence:
//! same MAC count and mapping behaviour on a systolic array).

use scalesim_systolic::{GemmShape, Layer, Topology};

/// Transformer architectural parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ViTConfig {
    /// Model name.
    pub(crate) name: &'static str,
    /// Encoder blocks.
    pub(crate) layers: usize,
    /// Hidden dimension.
    pub hidden: usize,
    /// Attention heads.
    pub(crate) heads: usize,
    /// MLP (feed-forward) dimension.
    pub mlp: usize,
    /// Sequence length (patches + class token).
    pub seq: usize,
}

impl ViTConfig {
    /// ViT-Small/16 at 224×224.
    pub(crate) fn small() -> Self {
        Self {
            name: "vit-small",
            layers: 12,
            hidden: 384,
            heads: 6,
            mlp: 1536,
            seq: 197,
        }
    }

    /// ViT-Base/16 at 224×224.
    pub fn base() -> Self {
        Self {
            name: "vit-base",
            layers: 12,
            hidden: 768,
            heads: 12,
            mlp: 3072,
            seq: 197,
        }
    }

    /// ViT-Large/16 at 224×224.
    pub(crate) fn large() -> Self {
        Self {
            name: "vit-large",
            layers: 24,
            hidden: 1024,
            heads: 16,
            mlp: 4096,
            seq: 197,
        }
    }

    /// Head dimension.
    pub(crate) fn head_dim(&self) -> usize {
        self.hidden / self.heads
    }

    /// Builds the full topology.
    pub(crate) fn topology(&self) -> Topology {
        let mut t = Topology::new(self.name);
        // Patch embedding: 196 patches × (16·16·3) → hidden.
        t.push(Layer::gemm_layer(
            "patch_embed",
            self.seq - 1,
            self.hidden,
            768,
        ));
        for l in 0..self.layers {
            let d = self.head_dim();
            t.push(Layer::gemm_layer(
                format!("blk{l}_qkv"),
                self.seq,
                3 * self.hidden,
                self.hidden,
            ));
            // QKᵀ and AV, heads batched along M.
            t.push(Layer::gemm_layer(
                format!("blk{l}_qk"),
                self.seq * self.heads,
                self.seq,
                d,
            ));
            t.push(Layer::gemm_layer(
                format!("blk{l}_av"),
                self.seq * self.heads,
                d,
                self.seq,
            ));
            t.push(Layer::gemm_layer(
                format!("blk{l}_proj"),
                self.seq,
                self.hidden,
                self.hidden,
            ));
            t.push(Layer::gemm_layer(
                format!("blk{l}_ff1"),
                self.seq,
                self.mlp,
                self.hidden,
            ));
            t.push(Layer::gemm_layer(
                format!("blk{l}_ff2"),
                self.seq,
                self.hidden,
                self.mlp,
            ));
        }
        t.push(Layer::gemm_layer("head", 1, 1000, self.hidden));
        t
    }

    /// Only the feed-forward GEMMs (the Fig. 8 workload: "Feed Forward
    /// layers of ViTs").
    pub(crate) fn feed_forward_layers(&self) -> Vec<GemmShape> {
        vec![
            GemmShape::new(self.seq, self.mlp, self.hidden),
            GemmShape::new(self.seq, self.hidden, self.mlp),
        ]
    }
}

/// ViT-Small topology.
pub fn vit_small() -> Topology {
    ViTConfig::small().topology()
}

/// ViT-Base topology.
pub fn vit_base() -> Topology {
    ViTConfig::base().topology()
}

/// ViT-Large topology.
pub fn vit_large() -> Topology {
    ViTConfig::large().topology()
}

/// Feed-forward layers of ViT-Base (Fig. 8's workload).
pub fn vit_feed_forward_layers() -> Vec<GemmShape> {
    ViTConfig::base().feed_forward_layers()
}
