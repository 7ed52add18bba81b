//! Unit tests of `workloads`, `llm`, `sparse`.

// workloads
use crate::workloads::*;
use scalesim_systolic::Topology;

#[test]
fn registry_resolves_all_names() {
    let topologies = concat!(env!("CARGO_MANIFEST_DIR"), "/../../topologies");
    for (name, _, csv) in REGISTRY {
        let net = by_name(name).unwrap_or_else(|| panic!("{name} not resolvable"));
        assert_eq!(net.name(), name);
        // The row embeds the `topologies/` file of its name.
        let stem = name.replace('-', "_");
        let file = [format!("{stem}.csv"), format!("{stem}_gemm.csv")]
            .map(|file| std::fs::read_to_string(format!("{topologies}/{file}")));
        assert!(file.iter().flatten().any(|text| text == csv), "{name}");
    }
    assert!(by_name("nonexistent").is_none());
    // Every spelling of a network, in any case, is the same network.
    for (name, aliases, _) in REGISTRY {
        let net = by_name(name);
        for alias in aliases.iter().copied().chain([&*name.to_ascii_uppercase()]) {
            assert_eq!(by_name(alias), net, "{alias}");
        }
    }
}

#[test]
fn registry_resolves_llm_presets_with_optional_phase() {
    for preset in LlmSpec::preset_names() {
        assert!(by_name(preset).is_some(), "{preset} not resolvable");
        let name = format!("{preset}:decode");
        let topo = by_name(&name).expect("decode suffix resolves");
        assert_eq!(topo.name(), format!("{preset}-decode"));
    }
}

#[test]
fn unknown_workload_error_names_the_full_vocabulary() {
    let err = by_name_or_err("resnet1800").unwrap_err();
    assert!(err.contains("resnet1800"), "{err}");
    for (known, ..) in REGISTRY {
        assert!(err.contains(known), "{err} missing {known}");
    }
    for preset in LlmSpec::preset_names() {
        assert!(err.contains(preset), "{err} missing {preset}");
    }
    assert!(by_name_or_err("vit-base").is_ok());
    assert!(by_name_or_err("mixtral-8x7b:decode").is_ok());
}

#[test]
fn every_workload_is_nonempty_and_valid() {
    for (name, ..) in REGISTRY {
        let t = by_name(name).expect("a registry row");
        assert!(!t.is_empty(), "{} empty", t.name());
        assert!(
            t.total_macs() > 1_000_000,
            "{} suspiciously small",
            t.name()
        );
        for layer in t.iter() {
            let g = layer.gemm();
            assert!(
                g.m > 0 && g.n > 0 && g.k > 0,
                "{}::{}",
                t.name(),
                layer.name()
            );
        }
    }
}

// llm
use crate::llm::*;

/// Published parameter counts the closed form must reproduce
/// within 1 %.
const PUBLISHED: [(&str, u64); 4] = [
    ("gpt2-xl", 1_557_000_000),
    ("llama-7b", 6_738_000_000),
    ("llama-70b", 68_976_000_000),
    ("mixtral-8x7b", 46_700_000_000),
];

#[test]
fn preset_parameter_counts_match_published_within_1_percent() {
    for (name, published) in PUBLISHED {
        let spec = LlmSpec::preset(name).expect("preset exists");
        let got = spec.param_count().unwrap() as f64;
        let want = published as f64;
        let rel = (got - want).abs() / want;
        assert!(
            rel < 0.01,
            "{name}: param_count {got} vs published {want} ({:.2} % off)",
            rel * 100.0
        );
    }
}

#[test]
fn every_preset_validates_and_generates_both_phases() {
    for name in LlmSpec::preset_names() {
        let spec = LlmSpec::preset(name).expect("preset exists");
        spec.validate().expect("preset is valid");
        for phase in [Phase::Prefill, Phase::Decode] {
            let topo = spec.topology(phase, spec.seq).unwrap();
            assert!(topo.total_macs() > 0, "{name} {phase} has work");
            assert_eq!(topo.name(), format!("{name}-{}", phase.tag()));
        }
    }
}

#[test]
fn decode_projection_gemms_are_skinny_m_equals_batch() {
    let mut spec = LlmSpec::llama_7b();
    spec.batch = 4;
    let topo = spec.topology(Phase::Decode, 512).unwrap();
    for layer in topo.layers() {
        let g = layer.gemm();
        let name = layer.name();
        if name.ends_with("_score") || name.ends_with("_attnv") {
            // Attention batches heads along M.
            assert_eq!(g.m, spec.batch * spec.heads, "{name}");
        } else {
            // qkv / out / ffn / lm_head rows: one token per
            // sequence.
            assert_eq!(g.m, spec.batch, "{name}");
        }
    }
}

#[test]
fn prefill_projection_gemms_cover_the_whole_prompt() {
    let mut spec = LlmSpec::gpt2_xl();
    spec.batch = 2;
    spec.seq = 256;
    let topo = spec.topology(Phase::Prefill, spec.seq).unwrap();
    let tokens = spec.batch * spec.seq;
    for layer in topo.layers() {
        let g = layer.gemm();
        let name = layer.name();
        if name.ends_with("_score") || name.ends_with("_attnv") {
            assert_eq!(g.m, tokens * spec.heads, "{name}");
        } else if name == "lm_head" {
            assert_eq!(g.m, spec.batch, "{name}: only new logits");
        } else {
            assert_eq!(g.m, tokens, "{name}");
        }
    }
}

#[test]
fn attention_k_grows_with_context_under_decode() {
    let spec = LlmSpec::llama_7b();
    let short = spec.topology(Phase::Decode, 128).unwrap();
    let long = spec.topology(Phase::Decode, 1024).unwrap();
    let dims = |topo: &Topology| {
        let mut score_n = 0;
        let mut attnv_k = 0;
        for layer in topo.layers() {
            let g = layer.gemm();
            if layer.name() == "blk0_score" {
                score_n = g.n;
            }
            if layer.name() == "blk0_attnv" {
                attnv_k = g.k;
            }
        }
        (score_n, attnv_k)
    };
    let (sn, ak) = dims(&short);
    let (ln, lk) = dims(&long);
    assert_eq!((sn, ak), (128, 128));
    assert_eq!((ln, lk), (1024, 1024));
    assert!(
        long.total_macs() > short.total_macs(),
        "longer context reads a bigger KV cache"
    );
}

#[test]
fn moe_fan_out_conserves_routed_tokens() {
    let mut spec = LlmSpec::mixtral_8x7b();
    spec.batch = 3;
    spec.seq = 100;
    let moe = spec.moe.unwrap();
    let tokens = spec.batch * spec.seq;
    let topo = spec.topology(Phase::Prefill, spec.seq).unwrap();
    // Sum expert-GEMM M over one block: must equal tokens × top_k.
    let routed: usize = topo
        .layers()
        .iter()
        .filter(|l| l.name().starts_with("blk0_e") && l.name().ends_with("_up"))
        .map(|l| l.gemm().m)
        .sum();
    assert_eq!(routed, tokens * moe.top_k);
    // And no expert GEMM has zero tokens (zero-dim GEMMs panic).
    for layer in topo.layers() {
        let g = layer.gemm();
        assert!(g.m > 0 && g.n > 0 && g.k > 0, "{}", layer.name());
    }
}

#[test]
fn attention_gemms_preserve_per_head_mac_counts() {
    let spec = LlmSpec::llama_70b();
    let ctx = 512;
    let topo = spec.topology(Phase::Decode, ctx).unwrap();
    let score = topo
        .layers()
        .iter()
        .find(|l| l.name() == "blk0_score")
        .unwrap()
        .gemm();
    // Per-head score GEMM is (batch × ctx × head_dim); batching
    // heads along M multiplies by heads exactly.
    assert_eq!(
        score.macs(),
        (spec.batch * spec.heads) as u64 * ctx as u64 * spec.head_dim() as u64
    );
}

#[test]
fn gqa_shrinks_kv_projection_and_cache() {
    let mha = LlmSpec::llama_7b(); // kv_heads == heads
    let mut gqa = LlmSpec::llama_7b();
    gqa.kv_heads = 8;
    assert_eq!(gqa.kv_dim(), gqa.d_model / 4);
    assert!(gqa.param_count().unwrap() < mha.param_count().unwrap());
    assert_eq!(
        gqa.kv_cache_bytes(100).unwrap(),
        mha.kv_cache_bytes(100).unwrap() / 4
    );
}

#[test]
fn sizes_that_overflow_u64_are_rejected_not_wrapped() {
    let run = |spec: LlmSpec, phase, context| LlmRunSpec {
        spec,
        phase,
        context: Some(context),
    };
    // The score GEMM of llama-7b decode at context 2^52 has
    // 32·2^52·128 = 2^64 MACs.
    let llama = LlmSpec::llama_7b;
    assert!(run(llama(), Phase::Decode, 1 << 52).topology().is_err());
    // llama-70b decode at context 2^44: every GEMM and the KV cache
    // (327,680 bytes per token) fit, but the attention MACs summed
    // over 80 blocks (1,310,720 per token) do not.
    let gqa = LlmSpec::llama_70b;
    assert!(gqa().kv_cache_bytes(1 << 44).is_some());
    assert!(gqa().topology(Phase::Decode, 1 << 44).is_none());
    assert!(run(gqa(), Phase::Decode, 1 << 44).topology().is_err());
    assert!(run(llama(), Phase::Decode, 1 << 20).topology().is_ok());
    let err = run(llama(), Phase::Decode, usize::MAX)
        .topology()
        .unwrap_err();
    assert!(
        err.contains("llama-7b decode") && err.contains("overflows u64"),
        "{err}"
    );
    for (seq, batch) in [(usize::MAX, 1), (1, usize::MAX), (1 << 40, 1 << 30)] {
        let mut spec = llama();
        (spec.seq, spec.batch) = (seq, batch);
        assert!(
            run(spec, Phase::Prefill, 1).topology().is_err(),
            "{seq} x {batch}"
        );
    }
    assert_eq!(llama().kv_cache_bytes(usize::MAX), None);
    // The KV cache and the parameter count can overflow while the
    // MACs fit: at 4-byte elements llama-7b caches 2^20 bytes per
    // token against 2^18 MACs, and untied embeddings count the
    // vocabulary twice where lm_head multiplies by it once.
    let mut fp32 = llama();
    fp32.dtype_bytes = 4;
    assert!(fp32.topology(Phase::Decode, 1 << 45).is_some());
    assert_eq!(fp32.kv_cache_bytes(1 << 45), None);
    assert!(run(fp32, Phase::Decode, 1 << 45).topology().is_err());
    let mut vocab = llama();
    vocab.vocab = 1 << 51;
    assert!(vocab.topology(Phase::Decode, 1).is_some());
    assert_eq!(vocab.param_count(), None);
    assert!(run(vocab, Phase::Decode, 1).topology().is_err());
    let mut wide = llama();
    wide.d_model = usize::MAX - usize::MAX % 32;
    assert_eq!(wide.param_count(), None);
    assert!(run(wide, Phase::Decode, 1).topology().is_err());
}

#[test]
fn phase_parsing_round_trips_and_rejects_junk() {
    assert_eq!(Phase::parse("prefill").unwrap(), Phase::Prefill);
    assert_eq!(Phase::parse("Decode").unwrap(), Phase::Decode);
    let err = Phase::parse("training").unwrap_err();
    assert!(err.contains("training") && err.contains("prefill"));
}

#[test]
fn preset_topology_resolves_names_with_phase_suffix() {
    assert!(preset_topology("llama-7b").is_some());
    let dec = preset_topology("llama-7b:decode").expect("suffix parses");
    assert_eq!(dec.name(), "llama-7b-decode");
    assert!(preset_topology("llama-7b:training").is_none());
    assert!(preset_topology("not-a-model").is_none());
}

#[test]
fn validate_rejects_inconsistent_specs() {
    let mut spec = LlmSpec::llama_7b();
    spec.heads = 33; // 4096 % 33 != 0
    assert!(spec.validate().is_err());
    let mut spec = LlmSpec::llama_70b();
    spec.kv_heads = 128;
    assert!(spec.validate().is_err());
    let mut spec = LlmSpec::mixtral_8x7b();
    spec.moe = Some(MoeSpec {
        num_experts: 4,
        top_k: 8,
    });
    assert!(spec.validate().is_err());
}

// sparse
use crate::sparse::*;

#[test]
fn ellpack_storage_matches_fig6_arithmetic() {
    // 2:4 over K=128, N=64, 16-bit values: nnz rows = 64,
    // values = 64·64·16 bits, metadata = 64·64·2 bits.
    let p = SparsityPattern::layer_wise(128, NmRatio::new(2, 4).unwrap());
    let bits = SparseFormat::BlockedEllpack.filter_storage_bits(&p, 64, 16);
    assert_eq!(bits, 64 * 64 * 16 + 64 * 64 * 2);
}

#[test]
fn formats_all_beat_dense_at_high_sparsity() {
    let p = SparsityPattern::layer_wise(256, NmRatio::new(1, 4).unwrap());
    let dense = SparseFormat::dense_storage_bits(256, 128, 16);
    for f in [
        SparseFormat::Csr,
        SparseFormat::Csc,
        SparseFormat::BlockedEllpack,
    ] {
        let s = f.filter_storage_bits(&p, 128, 16);
        assert!(s < dense, "{} not smaller than dense", f.name());
    }
}

#[test]
fn dense_ratio_ellpack_overhead_is_metadata_only() {
    // 4:4 (“dense”) blocked ELLPACK still pays the metadata bits.
    let p = SparsityPattern::layer_wise(64, NmRatio::new(4, 4).unwrap());
    let dense = SparseFormat::dense_storage_bits(64, 32, 16);
    let ell = SparseFormat::BlockedEllpack.filter_storage_bits(&p, 32, 16);
    assert_eq!(ell, dense + 64 * 32 * 2);
}
