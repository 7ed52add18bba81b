//! # `scalesim::workloads`
//!
//! The workload topologies used by the SCALE-Sim v3 paper's evaluation:
//! ResNet-18, ResNet-50, AlexNet, ViT (small/base/large), an R-CNN-style
//! detector backbone and a CIFAR-scale CNN.
//!
//! Each network is declared once, as the SCALE-Sim topology CSV shipped
//! in `topologies/` (the same files `-t` reads); this module embeds
//! those files and names them. Convolutional networks are conv rows
//! whose ifmap sizes include padding, so output sizes match the
//! canonical networks, and their FC layers are `M×1` ifmaps under 1×1
//! filters (SCALE-Sim's own convention; the im2col lowering recovers
//! `M, N, K` exactly). Transformers are GEMM rows with attention heads
//! batched along `M`.
//!
//! ```
//! use scalesim::workloads::by_name;
//!
//! let net = by_name("resnet18").unwrap();
//! assert_eq!(net.name(), "resnet18");
//! assert!(net.len() > 15);
//! assert!(by_name("vit-base").is_some());
//! ```

use crate::llm::LlmSpec;
use scalesim_systolic::Topology;

/// The shipped networks, in documentation order: canonical name, the
/// other accepted spellings, and the `topologies/` file declaring it.
pub(crate) const REGISTRY: [(&str, &[&str], &str); 8] = [
    (
        "resnet18",
        &["resnet-18"],
        include_str!("../../../../topologies/resnet18.csv"),
    ),
    (
        "resnet50",
        &["resnet-50"],
        include_str!("../../../../topologies/resnet50.csv"),
    ),
    (
        "alexnet",
        &[],
        include_str!("../../../../topologies/alexnet.csv"),
    ),
    (
        "cifar-cnn",
        &["cifar_cnn", "cifarcnn"],
        include_str!("../../../../topologies/cifar_cnn.csv"),
    ),
    (
        "rcnn",
        &["r-cnn"],
        include_str!("../../../../topologies/rcnn.csv"),
    ),
    (
        "vit-small",
        &["vit_s", "vit-s"],
        include_str!("../../../../topologies/vit_small_gemm.csv"),
    ),
    (
        "vit-base",
        &["vit_b", "vit-b"],
        include_str!("../../../../topologies/vit_base_gemm.csv"),
    ),
    (
        "vit-large",
        &["vit_l", "vit-l"],
        include_str!("../../../../topologies/vit_large_gemm.csv"),
    ),
];

/// A registry row's network under its canonical name.
fn shipped(name: &str, csv: &str) -> Topology {
    Topology::parse_csv_auto(name, csv).unwrap_or_else(|e| panic!("shipped {name}: {e}"))
}

/// Looks a workload up by its canonical name
/// (`resnet18`, `resnet50`, `alexnet`, `cifar-cnn`, `rcnn`, `vit-small`,
/// `vit-base`, `vit-large`), or an LLM preset name (`gpt2-xl`,
/// `llama-7b`, `llama-70b`, `mixtral-8x7b`), optionally suffixed with
/// `:prefill` or `:decode` (bare preset names mean prefill).
pub fn by_name(name: &str) -> Option<Topology> {
    let name = name.to_ascii_lowercase();
    let row = REGISTRY
        .iter()
        .find(|(canonical, aliases, _)| *canonical == name || aliases.contains(&name.as_str()));
    match row {
        Some((canonical, _, csv)) => Some(shipped(canonical, csv)),
        None => crate::llm::preset_topology(&name),
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
            REGISTRY.map(|(canonical, ..)| canonical).join(", "),
            LlmSpec::preset_names().join(", "),
        )
    })
}
