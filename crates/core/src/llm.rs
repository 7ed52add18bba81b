//! LLM workload generation: decoder-transformer model specs expanded
//! into exact GEMM topologies.
//!
//! An [`LlmSpec`] describes a GPT/Llama-class decoder (layers, model
//! width, attention heads with optional grouped-query KV heads, FFN
//! width, vocabulary, sequence/batch, optional mixture-of-experts
//! block). `LlmSpec::topology` expands it into the per-block GEMM
//! sequence the systolic engine simulates, in one of two phases:
//!
//! * **Prefill** — the whole prompt is processed at once, so every
//!   projection GEMM has `M = batch × seq`. These are large,
//!   compute-bound GEMMs.
//! * **Decode** — one token per sequence per step, so projection GEMMs
//!   shrink to `M = batch` (skinny, bandwidth-bound), while the
//!   attention score/value GEMMs read the **KV cache**: their `N`
//!   (score) and `K` (attn·V) dimensions equal the context length, so
//!   KV-cache reads flow through the engine as regular layer operand
//!   traffic and the DRAM/bandwidth paths see them.
//!
//! Attention heads are batched along `M` (block-diagonal equivalence,
//! same convention as the ViT workloads): MAC counts are exact; the
//! per-layer B-operand footprint of the attention GEMMs understates the
//! true per-sequence KV cache by the `batch × kv_heads` multiplicity
//! (see `docs/LLM.md` for the accounting).
//!
//! Mixture-of-experts FFNs fan out into per-expert GEMMs: each token
//! is routed to `top_k` experts, and the `tokens × top_k` routed token
//! count is split across experts in a balanced, deterministic way
//! (experts that receive zero tokens emit no GEMM).

use scalesim_systolic::{Layer, Topology};
use std::fmt;

/// Mixture-of-experts configuration for the FFN sub-block.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct MoeSpec {
    /// Number of experts per layer.
    pub(crate) num_experts: usize,
    /// Experts activated per token.
    pub(crate) top_k: usize,
}

/// Which serving phase a topology models.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Phase {
    /// Prompt processing: `M = batch × seq` compute-bound GEMMs.
    #[default]
    Prefill,
    /// Token generation: `M = batch` skinny GEMMs, attention reads the
    /// KV cache of `context` previous tokens.
    Decode,
}

impl Phase {
    /// Parses a phase name (`prefill` or `decode`).
    pub(crate) fn parse(s: &str) -> Result<Self, String> {
        match s.to_ascii_lowercase().as_str() {
            "prefill" => Ok(Phase::Prefill),
            "decode" => Ok(Phase::Decode),
            other => Err(format!(
                "unknown phase '{other}' (supported: prefill, decode)"
            )),
        }
    }

    /// The canonical lowercase name.
    pub(crate) fn tag(&self) -> &'static str {
        match self {
            Phase::Prefill => "prefill",
            Phase::Decode => "decode",
        }
    }

    /// A compact tag for sweep-point labels (`pf` / `dec`).
    pub(crate) fn label(&self) -> &'static str {
        match self {
            Phase::Prefill => "pf",
            Phase::Decode => "dec",
        }
    }
}

impl fmt::Display for Phase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.tag())
    }
}

/// A decoder-transformer model specification.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LlmSpec {
    /// Model name (used in topology names and reports).
    pub name: String,
    /// Decoder blocks.
    pub(crate) layers: usize,
    /// Model (embedding) dimension.
    pub(crate) d_model: usize,
    /// Query attention heads.
    pub(crate) heads: usize,
    /// Key/value heads (grouped-query attention when `< heads`;
    /// multi-head attention when equal).
    pub(crate) kv_heads: usize,
    /// Feed-forward inner dimension.
    pub(crate) d_ff: usize,
    /// Vocabulary size.
    pub(crate) vocab: usize,
    /// Prompt sequence length.
    pub(crate) seq: usize,
    /// Batch size (concurrent sequences).
    pub batch: usize,
    /// Bytes per parameter/activation element (2 = fp16/bf16).
    pub(crate) dtype_bytes: usize,
    /// Gated FFN (SwiGLU: gate+up+down, three matrices) vs the GPT-2
    /// style two-matrix FFN.
    pub(crate) gated_ffn: bool,
    /// Whether the LM head shares the embedding matrix.
    pub(crate) tied_embeddings: bool,
    /// Mixture-of-experts FFN fan-out (dense FFN when `None`).
    pub(crate) moe: Option<MoeSpec>,
}

impl Default for LlmSpec {
    fn default() -> Self {
        Self::llama_7b()
    }
}

impl LlmSpec {
    /// GPT-2 XL: 48 layers, d=1600, 25 heads, tied embeddings,
    /// two-matrix FFN. ~1.56 B parameters.
    pub(crate) fn gpt2_xl() -> Self {
        LlmSpec {
            name: "gpt2-xl".into(),
            layers: 48,
            d_model: 1600,
            heads: 25,
            kv_heads: 25,
            d_ff: 6400,
            vocab: 50257,
            seq: 1024,
            batch: 1,
            dtype_bytes: 2,
            gated_ffn: false,
            tied_embeddings: true,
            moe: None,
        }
    }

    /// Llama-2 7B: 32 layers, d=4096, 32 heads, SwiGLU FFN, untied
    /// LM head. ~6.7 B parameters.
    pub(crate) fn llama_7b() -> Self {
        LlmSpec {
            name: "llama-7b".into(),
            layers: 32,
            d_model: 4096,
            heads: 32,
            kv_heads: 32,
            d_ff: 11008,
            vocab: 32000,
            seq: 2048,
            batch: 1,
            dtype_bytes: 2,
            gated_ffn: true,
            tied_embeddings: false,
            moe: None,
        }
    }

    /// Llama-2 70B: 80 layers, d=8192, 64 query heads over 8 KV heads
    /// (grouped-query attention). ~69 B parameters.
    pub(crate) fn llama_70b() -> Self {
        LlmSpec {
            name: "llama-70b".into(),
            layers: 80,
            d_model: 8192,
            heads: 64,
            kv_heads: 8,
            d_ff: 28672,
            vocab: 32000,
            seq: 4096,
            batch: 1,
            dtype_bytes: 2,
            gated_ffn: true,
            tied_embeddings: false,
            moe: None,
        }
    }

    /// Mixtral 8x7B: 32 layers, d=4096, 8 experts with top-2 routing,
    /// grouped-query attention. ~46.7 B total parameters.
    pub(crate) fn mixtral_8x7b() -> Self {
        LlmSpec {
            name: "mixtral-8x7b".into(),
            layers: 32,
            d_model: 4096,
            heads: 32,
            kv_heads: 8,
            d_ff: 14336,
            vocab: 32000,
            seq: 4096,
            batch: 1,
            dtype_bytes: 2,
            gated_ffn: true,
            tied_embeddings: false,
            moe: Some(MoeSpec {
                num_experts: 8,
                top_k: 2,
            }),
        }
    }

    /// The named presets, in documentation order.
    pub(crate) fn preset_names() -> [&'static str; 4] {
        ["gpt2-xl", "llama-7b", "llama-70b", "mixtral-8x7b"]
    }

    /// Looks up a preset by name.
    pub(crate) fn preset(name: &str) -> Option<LlmSpec> {
        match name.to_ascii_lowercase().as_str() {
            "gpt2-xl" | "gpt2xl" => Some(Self::gpt2_xl()),
            "llama-7b" | "llama7b" => Some(Self::llama_7b()),
            "llama-70b" | "llama70b" => Some(Self::llama_70b()),
            "mixtral-8x7b" | "mixtral" => Some(Self::mixtral_8x7b()),
            _ => None,
        }
    }

    /// Per-head dimension (`d_model / heads`).
    pub(crate) fn head_dim(&self) -> usize {
        self.d_model / self.heads
    }

    /// Total key/value projection width (`kv_heads × head_dim`).
    pub(crate) fn kv_dim(&self) -> usize {
        self.kv_heads * self.head_dim()
    }

    /// FFN weight matrices per expert (3 gated, 2 otherwise).
    fn ffn_mats(&self) -> u64 {
        if self.gated_ffn {
            3
        } else {
            2
        }
    }

    /// Closed-form parameter count (weights only, biases and norm
    /// scales excluded — they are < 0.1 % of any preset); `None` when
    /// it overflows `u64`.
    ///
    /// `embed + layers · (attention + ffn [+ router])` where attention
    /// is `2·d² + 2·d·kv_dim` (Q/O full-width, K/V at KV width) and
    /// the FFN term is multiplied by the expert count under MoE.
    pub fn param_count(&self) -> Option<u64> {
        let d = self.d_model as u64;
        let embed_mats = if self.tied_embeddings { 1 } else { 2 };
        let embed = product(&[embed_mats, self.vocab as u64, d])?;
        let attn = product(&[2, d, d])?.checked_add(product(&[2, d, self.kv_dim() as u64])?)?;
        let experts = self.moe.map_or(1, |m| m.num_experts as u64);
        let router = self.moe.map_or(0, |m| m.num_experts as u64);
        let ffn = product(&[self.ffn_mats(), d, self.d_ff as u64, experts])?
            .checked_add(product(&[d, router])?)?;
        embed.checked_add(product(&[self.layers as u64, attn.checked_add(ffn)?])?)
    }

    /// KV-cache footprint in bytes for `context` cached tokens across
    /// the whole batch: `layers · 2 (K and V) · kv_dim · context ·
    /// batch · dtype_bytes`; `None` when it overflows `u64`.
    pub fn kv_cache_bytes(&self, context: usize) -> Option<u64> {
        let factors = [
            self.layers,
            self.kv_dim(),
            context,
            self.batch,
            self.dtype_bytes,
        ];
        product(&factors.map(|f| f as u64))?.checked_mul(2)
    }

    /// Validates the dimensional constraints the generator relies on.
    pub(crate) fn validate(&self) -> Result<(), String> {
        let positive = [
            ("layers", self.layers),
            ("d_model", self.d_model),
            ("heads", self.heads),
            ("kv_heads", self.kv_heads),
            ("d_ff", self.d_ff),
            ("vocab", self.vocab),
            ("seq", self.seq),
            ("batch", self.batch),
            ("dtype_bytes", self.dtype_bytes),
        ];
        for (field, value) in positive {
            if value == 0 {
                return Err(format!("llm: {field} must be positive"));
            }
        }
        if !self.d_model.is_multiple_of(self.heads) {
            return Err(format!(
                "llm: d_model ({}) must be divisible by heads ({})",
                self.d_model, self.heads
            ));
        }
        if self.kv_heads > self.heads {
            return Err(format!(
                "llm: kv_heads ({}) must not exceed heads ({})",
                self.kv_heads, self.heads
            ));
        }
        if !self.heads.is_multiple_of(self.kv_heads) {
            return Err(format!(
                "llm: heads ({}) must be divisible by kv_heads ({})",
                self.heads, self.kv_heads
            ));
        }
        if let Some(moe) = &self.moe {
            if moe.num_experts == 0 || moe.top_k == 0 {
                return Err("llm: moe experts and top_k must be positive".into());
            }
            if moe.top_k > moe.num_experts {
                return Err(format!(
                    "llm: moe top_k ({}) must not exceed num_experts ({})",
                    moe.top_k, moe.num_experts
                ));
            }
        }
        Ok(())
    }

    /// Expands the spec into the GEMM topology of one forward step in
    /// `phase`, attending over `context` cached tokens; `None` when a
    /// GEMM dimension or the topology's MAC count overflows.
    ///
    /// For prefill, `context` is the prompt length being processed
    /// (normally `seq`, causal attention modeled at full width). For
    /// decode, `context` is the number of tokens already in the KV
    /// cache.
    pub(crate) fn topology(&self, phase: Phase, context: usize) -> Option<Topology> {
        let tokens = match phase {
            Phase::Prefill => self.batch.checked_mul(self.seq)?,
            Phase::Decode => self.batch,
        };
        let head_rows = tokens.checked_mul(self.heads)?;
        let qkv_width = self.d_model.checked_add(self.kv_dim().checked_mul(2)?)?;
        let ctx = context.max(1);
        let head_dim = self.head_dim();
        let mut topo = Topology::new(format!("{}-{}", self.name, phase.tag()));
        for l in 0..self.layers {
            // Fused Q/K/V projection: Q at full width, K/V at KV width.
            topo.push(Layer::gemm_layer(
                format!("blk{l}_qkv"),
                tokens,
                qkv_width,
                self.d_model,
            ));
            // Attention score (Q·Kᵀ): heads batched along M; the
            // B operand is the K cache, so K-dim = head_dim and
            // N = context (grows with cache length under decode).
            topo.push(Layer::gemm_layer(
                format!("blk{l}_score"),
                head_rows,
                ctx,
                head_dim,
            ));
            // Attention-weighted value (softmax(S)·V): the B operand
            // is the V cache, so K-dim = context.
            topo.push(Layer::gemm_layer(
                format!("blk{l}_attnv"),
                head_rows,
                head_dim,
                ctx,
            ));
            // Output projection.
            topo.push(Layer::gemm_layer(
                format!("blk{l}_out"),
                tokens,
                self.d_model,
                self.d_model,
            ));
            self.push_ffn(&mut topo, l, tokens)?;
        }
        // LM head: only the newest position per sequence needs logits.
        topo.push(Layer::gemm_layer(
            "lm_head",
            self.batch,
            self.vocab,
            self.d_model,
        ));
        let macs = topo.layers().iter().try_fold(0u64, |sum, layer| {
            let g = layer.gemm();
            sum.checked_add(product(&[g.m as u64, g.n as u64, g.k as u64])?)
        });
        macs.map(|_| topo)
    }

    /// The FFN sub-block: dense (2 or 3 projections) or MoE fan-out;
    /// `None` when the routed token count overflows.
    fn push_ffn(&self, topo: &mut Topology, l: usize, tokens: usize) -> Option<()> {
        match &self.moe {
            None => self.push_expert(topo, &format!("blk{l}"), tokens),
            Some(moe) => {
                // Router: score every token against every expert.
                topo.push(Layer::gemm_layer(
                    format!("blk{l}_router"),
                    tokens,
                    moe.num_experts,
                    self.d_model,
                ));
                // Balanced deterministic split of the routed tokens
                // (tokens × top_k) across experts; zero-token experts
                // emit no GEMM.
                let routed = tokens.checked_mul(moe.top_k)?;
                let base = routed / moe.num_experts;
                let rem = routed % moe.num_experts;
                for e in 0..moe.num_experts {
                    let t = base + usize::from(e < rem);
                    if t > 0 {
                        self.push_expert(topo, &format!("blk{l}_e{e}"), t);
                    }
                }
            }
        }
        Some(())
    }

    /// One expert's FFN projections over `tokens` tokens.
    fn push_expert(&self, topo: &mut Topology, prefix: &str, tokens: usize) {
        if self.gated_ffn {
            topo.push(Layer::gemm_layer(
                format!("{prefix}_gate"),
                tokens,
                self.d_ff,
                self.d_model,
            ));
        }
        topo.push(Layer::gemm_layer(
            format!("{prefix}_up"),
            tokens,
            self.d_ff,
            self.d_model,
        ));
        topo.push(Layer::gemm_layer(
            format!("{prefix}_down"),
            tokens,
            self.d_model,
            self.d_ff,
        ));
    }
}

/// An [`LlmSpec`] plus the run-time phase selection: what one
/// `scalesim llm` invocation (or `[llm]` cfg section) simulates.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LlmRunSpec {
    /// The model.
    pub spec: LlmSpec,
    /// Prefill or decode.
    pub phase: Phase,
    /// Cached context length for decode / processed prompt length for
    /// prefill. Defaults to `spec.seq` when `None`.
    pub context: Option<usize>,
}

impl Default for LlmRunSpec {
    fn default() -> Self {
        LlmRunSpec {
            spec: LlmSpec::llama_7b(),
            phase: Phase::Prefill,
            context: None,
        }
    }
}

impl LlmRunSpec {
    /// The effective context length (`context` or `spec.seq`).
    pub fn effective_context(&self) -> usize {
        self.context.unwrap_or(self.spec.seq)
    }

    /// Validates the spec together with its context — the dimensional
    /// constraints, and that the parameter count, the KV-cache bytes,
    /// every GEMM dimension and the MAC count fit in `u64` — and
    /// generates its topology.
    pub fn topology(&self) -> Result<Topology, String> {
        self.spec.validate()?;
        let context = self.effective_context();
        self.spec
            .param_count()
            .and(self.spec.kv_cache_bytes(context))
            .and_then(|_| self.spec.topology(self.phase, context))
            .ok_or_else(|| {
                format!(
                    "llm: {} {} at context {context} overflows u64 (GEMM dimensions, \
                     MAC count, KV-cache bytes or parameter count)",
                    self.spec.name, self.phase
                )
            })
    }
}

/// The product of `factors`, or `None` when it overflows.
fn product(factors: &[u64]) -> Option<u64> {
    factors.iter().try_fold(1u64, |p, &f| p.checked_mul(f))
}

/// Resolves a workload name of the form `preset[:phase]` — e.g.
/// `llama-7b`, `mixtral-8x7b:decode` — into its GEMM topology at the
/// preset's default sequence length. Bare preset names mean prefill.
pub(crate) fn preset_topology(name: &str) -> Option<Topology> {
    let (model, phase) = match name.split_once(':') {
        Some((model, phase)) => (model, Phase::parse(phase).ok()?),
        None => (name, Phase::Prefill),
    };
    let spec = LlmSpec::preset(model)?;
    spec.topology(phase, spec.seq)
}
