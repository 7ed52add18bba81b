//! # `scalesim::workloads`
//!
//! The workload topologies used by the SCALE-Sim v3 paper's evaluation:
//! ResNet-18, ResNet-50, AlexNet, ViT (small/base/large), an R-CNN-style
//! detector backbone, and synthetic GEMM sweeps.
//!
//! Convolutional topologies follow SCALE-Sim's CSV conventions (ifmap
//! sizes include padding so output sizes match the canonical networks);
//! transformer workloads are expressed as GEMM sequences with attention
//! heads batched along `M`.
//!
//! ```
//! use scalesim::workloads::{resnet18, by_name};
//!
//! let net = resnet18();
//! assert_eq!(net.name(), "resnet18");
//! assert!(net.len() > 15);
//! assert!(by_name("vit-base").is_some());
//! ```

pub mod cnn;
pub mod gemm;
pub mod vit;

pub use cnn::{alexnet, cifar_cnn, rcnn, resnet18, resnet50};
pub use gemm::{fig3_gemm_workloads, gemm_sweep};
pub use vit::{vit_base, vit_feed_forward_layers, vit_large, vit_small, ViTConfig};

use crate::llm::LlmSpec;
use scalesim_systolic::Topology;

/// The canonical CNN/ViT workload names, in documentation order.
pub(crate) const WORKLOAD_NAMES: [&str; 8] = [
    "resnet18",
    "resnet50",
    "alexnet",
    "cifar-cnn",
    "rcnn",
    "vit-small",
    "vit-base",
    "vit-large",
];

/// Looks a workload up by its canonical name
/// (`resnet18`, `resnet50`, `alexnet`, `cifar-cnn`, `rcnn`, `vit-small`,
/// `vit-base`, `vit-large`), or an LLM preset name (`gpt2-xl`,
/// `llama-7b`, `llama-70b`, `mixtral-8x7b`), optionally suffixed with
/// `:prefill` or `:decode` (bare preset names mean prefill).
pub fn by_name(name: &str) -> Option<Topology> {
    match name.to_ascii_lowercase().as_str() {
        "resnet18" | "resnet-18" => Some(resnet18()),
        "resnet50" | "resnet-50" => Some(resnet50()),
        "alexnet" => Some(alexnet()),
        "cifar-cnn" | "cifar_cnn" | "cifarcnn" => Some(cifar_cnn()),
        "rcnn" | "r-cnn" => Some(rcnn()),
        "vit-small" | "vit_s" | "vit-s" => Some(vit_small()),
        "vit-base" | "vit_b" | "vit-b" => Some(vit_base()),
        "vit-large" | "vit_l" | "vit-l" => Some(vit_large()),
        other => crate::llm::preset_topology(other),
    }
}

/// Like [`by_name`], but an unknown name is an error that spells out
/// the full supported vocabulary (the same style as the `[scaleout]`
/// unknown-key diagnostics).
pub(crate) fn by_name_or_err(name: &str) -> Result<Topology, String> {
    by_name(name).ok_or_else(|| {
        format!(
            "unknown workload '{name}' (known workloads: {}; llm presets: {}, \
             each accepting a ':prefill' or ':decode' suffix)",
            WORKLOAD_NAMES.join(", "),
            LlmSpec::preset_names().join(", "),
        )
    })
}

/// All named workloads with their canonical names.
pub fn all_workloads() -> Vec<Topology> {
    vec![
        resnet18(),
        resnet50(),
        alexnet(),
        cifar_cnn(),
        rcnn(),
        vit_small(),
        vit_base(),
        vit_large(),
    ]
}
