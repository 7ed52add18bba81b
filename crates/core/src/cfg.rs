//! SCALE-Sim configuration-file parsing.
//!
//! v2/v3 configure runs through INI-style `.cfg` files:
//!
//! ```text
//! [general]
//! run_name = my_run
//!
//! [architecture_presets]
//! ArrayHeight : 32
//! ArrayWidth  : 32
//! IfmapSramSzkB : 512
//! FilterSramSzkB : 512
//! OfmapSramSzkB : 256
//! Dataflow : ws
//! Bandwidth : 10
//!
//! [sparsity]
//! SparsitySupport : true
//! SparseRep : ellpack_block
//! OptimizedMapping : false
//! BlockSize : 4
//! ```
//!
//! The text is lexed by [`scalesim_systolic::dialect`] (shared with
//! sweep specs: `:` or `=`, `#`/`;` comments, case-insensitive keys)
//! and every accepted key is one row of the `KEYS` table below. The
//! `[sparsity]` section implements the v3 knobs of §IV-B. The
//! `[scaleout]` section configures multi-chip execution (chip count,
//! fabric, link bandwidth/latency, parallelization strategy — see
//! `docs/SCALEOUT.md`):
//!
//! ```text
//! [scaleout]
//! Chips : 8
//! Fabric : ring
//! LinkGbps : 100
//! LinkLatency : 500
//! Strategy : data
//! Microbatches : 4
//! ```

use crate::config::{DramIntegration, ScaleSimConfig, SparsityMode};
use scalesim_collective::{FabricTag, ScaleoutSpec, Strategy};
use scalesim_llm::{LlmRunSpec, LlmSpec, MoeSpec, Phase};
use scalesim_mem::DramSpec;
use scalesim_sparse::{NmRatio, SparseFormat};
use scalesim_systolic::dialect;
use scalesim_systolic::{ArrayShape, Dataflow, MemoryConfig, SimError};

/// The configuration being assembled, plus the knobs that only resolve
/// into it once every line has been read.
struct Draft {
    config: ScaleSimConfig,
    array: (usize, usize),
    sram_kb: (usize, usize, usize),
    // Sparsity knobs (§IV-B step 1).
    sparsity_support: bool,
    optimized_mapping: bool,
    block_size: usize,
    sparse_ratio: NmRatio,
}

impl Draft {
    /// Any `[scaleout]` key materializes the section with its defaults,
    /// then overrides the named field.
    fn scaleout(&mut self) -> &mut ScaleoutSpec {
        self.config.scaleout.get_or_insert_with(Default::default)
    }

    /// Any `[llm]` key materializes the section (the llama-7b prefill
    /// defaults), then overrides the named field. `Preset` replaces the
    /// whole model spec, so it should come first.
    fn llm(&mut self) -> &mut LlmRunSpec {
        self.config.llm.get_or_insert_with(Default::default)
    }
}

/// How a key's value is parsed and where it is stored.
enum Slot {
    /// A non-negative integer.
    Int(fn(&mut Draft) -> &mut usize),
    /// An integer of at least 1.
    Count(fn(&mut Draft) -> &mut usize),
    /// `true/false`, `1/0`, `on/off`, `yes/no`.
    Bool(fn(&mut Draft) -> &mut bool),
    /// A positive finite number of the named unit.
    Positive(fn(&mut Draft) -> &mut f64, &'static str),
    /// Anything else: `(draft, key as typed (lowercased), value)`.
    Custom(fn(&mut Draft, &str, &str) -> Result<(), String>),
    /// An upstream SCALE-Sim knob this reproduction does not model:
    /// accepted (so stock Python-tool .cfg files keep working) but
    /// ignored. Everything else is a hard error — the point is catching
    /// *misspellings* of supported keys.
    Ignored,
}
use Slot::{Bool, Count, Custom, Ignored, Int, Positive};

fn set<T>(slot: &mut T, value: Result<T, String>) -> Result<(), String> {
    *slot = value?;
    Ok(())
}

fn num(key: &str, v: &str) -> Result<usize, String> {
    v.parse()
        .map_err(|_| format!("'{key}' is not an integer: {v}"))
}

fn positive(key: &str, v: &str, unit: &str) -> Result<f64, String> {
    dialect::positive(key, v).map_err(|_| format!("'{key}' must be a positive {unit}: {v}"))
}

/// Every key `parse_cfg` accepts: `(section, spelling, slot)`. An empty
/// section means "in any section" (stock SCALE-Sim files spread the
/// architecture keys over `[general]`, `[architecture_presets]` and
/// `[run_presets]`). Keys match case-insensitively; the unknown-key
/// error lists this table, so a new key is one row here.
const KEYS: &[(&str, &str, Slot)] = &[
    ("", "ArrayHeight", Count(|d| &mut d.array.0)),
    ("", "ArrayWidth", Count(|d| &mut d.array.1)),
    ("", "IfmapSramSzkB", Int(|d| &mut d.sram_kb.0)),
    ("", "FilterSramSzkB", Int(|d| &mut d.sram_kb.1)),
    ("", "OfmapSramSzkB", Int(|d| &mut d.sram_kb.2)),
    (
        "",
        "Dataflow",
        Custom(|d, _, v| set(&mut d.config.core.dataflow, Dataflow::parse(v))),
    ),
    ("", "Bandwidth", Custom(bandwidth)),
    ("", "InterfaceBandwidth", Custom(bandwidth)),
    ("", "run_name", Ignored),
    ("", "IfmapOffset", Ignored),
    ("", "FilterOffset", Ignored),
    ("", "OfmapOffset", Ignored),
    ("", "MemoryBanks", Ignored),
    (
        "sparsity",
        "SparsitySupport",
        Bool(|d| &mut d.sparsity_support),
    ),
    ("sparsity", "SparseRep", Custom(sparse_rep)),
    (
        "sparsity",
        "OptimizedMapping",
        Bool(|d| &mut d.optimized_mapping),
    ),
    ("sparsity", "BlockSize", Int(|d| &mut d.block_size)),
    ("sparsity", "SparseRatio", Custom(sparse_ratio)),
    ("scaleout", "Chips", Count(|d| &mut d.scaleout().chips)),
    (
        "scaleout",
        "Fabric",
        Custom(|d, _, v| set(&mut d.scaleout().fabric, FabricTag::parse(v))),
    ),
    (
        "scaleout",
        "Mesh",
        Custom(|d, _, v| set(&mut d.scaleout().mesh, dialect::rxc("Mesh", v).map(Some))),
    ),
    (
        "scaleout",
        "LinkGbps",
        Positive(|d| &mut d.scaleout().link_gbps, "number of GB/s"),
    ),
    (
        "scaleout",
        "LinkLatency",
        Custom(|d, k, v| set(&mut d.scaleout().link_latency, num(k, v).map(|n| n as u64))),
    ),
    (
        "scaleout",
        "Strategy",
        Custom(|d, _, v| set(&mut d.scaleout().strategy, Strategy::parse(v))),
    ),
    (
        "scaleout",
        "Microbatches",
        Count(|d| &mut d.scaleout().microbatches),
    ),
    (
        "scaleout",
        "ClockGhz",
        Positive(|d| &mut d.scaleout().clock_ghz, "clock in GHz"),
    ),
    ("dram", "Model", Custom(dram_model)),
    ("llm", "Preset", Custom(llm_preset)),
    (
        "llm",
        "Phase",
        Custom(|d, _, v| set(&mut d.llm().phase, Phase::parse(v))),
    ),
    ("llm", "Context", Int(|d| d.llm().context.get_or_insert(0))),
    ("llm", "Layers", Int(|d| &mut d.llm().spec.layers)),
    ("llm", "DModel", Int(|d| &mut d.llm().spec.d_model)),
    ("llm", "Heads", Int(|d| &mut d.llm().spec.heads)),
    ("llm", "KvHeads", Int(|d| &mut d.llm().spec.kv_heads)),
    ("llm", "DFf", Int(|d| &mut d.llm().spec.d_ff)),
    ("llm", "Vocab", Int(|d| &mut d.llm().spec.vocab)),
    ("llm", "Seq", Int(|d| &mut d.llm().spec.seq)),
    ("llm", "Batch", Int(|d| &mut d.llm().spec.batch)),
    ("llm", "DtypeBytes", Int(|d| &mut d.llm().spec.dtype_bytes)),
    ("llm", "GatedFfn", Bool(|d| &mut d.llm().spec.gated_ffn)),
    (
        "llm",
        "TiedEmbeddings",
        Bool(|d| &mut d.llm().spec.tied_embeddings),
    ),
    ("llm", "Experts", Custom(experts)),
    ("llm", "TopK", Custom(top_k)),
];

fn bandwidth(d: &mut Draft, key: &str, v: &str) -> Result<(), String> {
    // Upstream SCALE-Sim writes `InterfaceBandwidth : CALC` in USER
    // mode ("derive it"); keep the default then.
    if v.eq_ignore_ascii_case("calc") {
        return Ok(());
    }
    let bw = positive(key, v, "number of words/cycle (or CALC)");
    set(&mut d.config.core.memory.dram_bandwidth, bw)
}

fn sparse_rep(d: &mut Draft, _: &str, v: &str) -> Result<(), String> {
    d.config.sparse_format = match v.to_ascii_lowercase().as_str() {
        "csr" => SparseFormat::Csr,
        "csc" => SparseFormat::Csc,
        "ellpack_block" | "blocked_ellpack" | "ellpack" => SparseFormat::BlockedEllpack,
        other => return Err(format!("unknown SparseRep '{other}'")),
    };
    Ok(())
}

fn sparse_ratio(d: &mut Draft, _: &str, v: &str) -> Result<(), String> {
    let expected = "expected N:M with power-of-two M";
    let ratio = NmRatio::parse(v).ok_or_else(|| format!("bad SparseRatio '{v}' ({expected})"));
    set(&mut d.sparse_ratio, ratio)
}

fn dram_model(d: &mut Draft, _: &str, v: &str) -> Result<(), String> {
    let spec = DramSpec::by_name(&v.to_ascii_lowercase()).ok_or_else(|| {
        let names = DramSpec::preset_names().join(", ");
        format!("unknown dram Model '{v}' (supported: {names})")
    })?;
    // Keep the default channel count and the paper's 1 GHz core clock;
    // the preset only swaps the device timing.
    d.config.dram = DramIntegration::for_spec(spec, d.config.dram.channels, 1.0e9);
    Ok(())
}

fn llm_preset(d: &mut Draft, _: &str, v: &str) -> Result<(), String> {
    let spec = LlmSpec::preset(v).ok_or_else(|| {
        let names = LlmSpec::preset_names().join(", ");
        format!("unknown llm Preset '{v}' (supported: {names})")
    });
    set(&mut d.llm().spec, spec)
}

fn experts(d: &mut Draft, key: &str, v: &str) -> Result<(), String> {
    let num_experts = num(key, v)?;
    let moe = &mut d.llm().spec.moe;
    // 0 turns MoE off; the first non-zero count defaults to top-2 routing.
    let top_k = moe.map_or(2.min(num_experts), |moe| moe.top_k);
    *moe = (num_experts > 0).then_some(MoeSpec { num_experts, top_k });
    Ok(())
}

fn top_k(d: &mut Draft, key: &str, v: &str) -> Result<(), String> {
    let moe = d.llm().spec.moe.as_mut();
    let moe = moe.ok_or("TopK requires Experts to be set first")?;
    set(&mut moe.top_k, num(key, v))
}

/// The unknown-key error: names the key and its section, then lists
/// every accepted key by reading [`KEYS`].
fn unknown_key(section: &str, key: &str) -> String {
    let place = match section {
        "" => "at top level".to_string(),
        _ => format!("in section [{section}]"),
    };
    let mut known = String::new();
    for (i, (section, name, _)) in KEYS.iter().enumerate() {
        match i.checked_sub(1).map(|prev| KEYS[prev].0) {
            None => {}
            Some(prev) if prev == *section => known += ", ",
            Some(_) => known += &format!("; [{section}]: "),
        }
        known += name;
    }
    format!("unknown key '{key}' {place} (known keys: {known})")
}

/// Parses a SCALE-Sim `.cfg` string into a [`ScaleSimConfig`].
///
/// Unknown or misspelled keys are **rejected** with an error naming the
/// key and its section — a typo like `ArrayHieght` silently inheriting
/// the default would invalidate a whole study (the sweep-spec parser
/// applies the same policy). Malformed values are errors too, booleans
/// included.
///
/// # Errors
///
/// Returns [`SimError::InvalidConfig`] naming the offending key.
pub fn parse_cfg(text: &str) -> Result<ScaleSimConfig, SimError> {
    parse(text).map_err(SimError::InvalidConfig)
}

fn parse(text: &str) -> Result<ScaleSimConfig, String> {
    let config = ScaleSimConfig::default();
    let mut d = Draft {
        array: (config.core.array.rows(), config.core.array.cols()),
        sram_kb: (1024, 1024, 256),
        sparsity_support: false,
        optimized_mapping: false,
        block_size: 4,
        sparse_ratio: NmRatio::new(2, 4).expect("2:4 is valid"),
        config,
    };
    for entry in dialect::entries(text) {
        let e = entry?;
        let row = KEYS.iter().find(|(section, name, _)| {
            (section.is_empty() || *section == e.section) && name.eq_ignore_ascii_case(&e.key)
        });
        let Some((_, name, slot)) = row else {
            return Err(unknown_key(&e.section, &e.key));
        };
        match slot {
            Int(at) => *at(&mut d) = num(&e.key, e.value)?,
            Count(at) => *at(&mut d) = dialect::count(name, e.value)?,
            Bool(at) => *at(&mut d) = dialect::boolean(name, e.value)?,
            Positive(at, unit) => *at(&mut d) = positive(&e.key, e.value, unit)?,
            Custom(store) => store(&mut d, &e.key, e.value)?,
            Ignored => {}
        }
    }

    let mut config = d.config;
    config.core.array = ArrayShape::new(d.array.0, d.array.1);
    let (ifmap_kb, filter_kb, ofmap_kb) = d.sram_kb;
    config.core.memory = MemoryConfig {
        dram_bandwidth: config.core.memory.dram_bandwidth,
        ..MemoryConfig::from_kilobytes(ifmap_kb, filter_kb, ofmap_kb, 2)
    };
    if d.sparsity_support {
        // §IV-B: layer-wise uses SparsitySupport=true + OptimizedMapping=
        // false; row-wise sets OptimizedMapping=true with BlockSize = M.
        config.sparsity = Some(if d.optimized_mapping {
            SparsityMode::RowWise {
                block: d.block_size,
                seed: 0xC0FFEE,
            }
        } else {
            SparsityMode::LayerWise(d.sparse_ratio)
        });
    }
    if let Some(spec) = &config.scaleout {
        // Fabric consistency (mesh dims vs chips, power-of-two switch)
        // is a parse-time failure: a bad [scaleout] section should fail
        // before any simulation, like every other config error.
        spec.fabric()?;
    }
    if let Some(run) = &config.llm {
        // Dimensional consistency (divisibility, MoE bounds) fails at
        // parse time too, mirroring the [scaleout] policy.
        run.spec.validate()?;
    }
    Ok(config)
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = r#"
[general]
run_name = tpu_like

[architecture_presets]
ArrayHeight : 128
ArrayWidth : 128
IfmapSramSzkB : 8192
FilterSramSzkB : 8192
OfmapSramSzkB : 2048
Dataflow : ws
Bandwidth : 20

[sparsity]
SparsitySupport : true
SparseRep : ellpack_block
OptimizedMapping : false
SparseRatio : 2:4
"#;

    #[test]
    fn parses_architecture_section() {
        let c = parse_cfg(SAMPLE).unwrap();
        assert_eq!(c.core.array, ArrayShape::new(128, 128));
        assert_eq!(c.core.dataflow, Dataflow::WeightStationary);
        assert_eq!(c.core.memory.ifmap_words, 8192 * 1024 / 2);
        assert_eq!(c.core.memory.dram_bandwidth, 20.0);
    }

    #[test]
    fn parses_layer_wise_sparsity() {
        let c = parse_cfg(SAMPLE).unwrap();
        match c.sparsity {
            Some(SparsityMode::LayerWise(r)) => assert_eq!(r.to_string(), "2:4"),
            other => panic!("expected layer-wise sparsity, got {other:?}"),
        }
        assert_eq!(c.sparse_format, SparseFormat::BlockedEllpack);
    }

    #[test]
    fn row_wise_via_optimized_mapping() {
        let text = "[sparsity]\nSparsitySupport = true\nOptimizedMapping = true\nBlockSize = 8\n";
        let c = parse_cfg(text).unwrap();
        match c.sparsity {
            Some(SparsityMode::RowWise { block, .. }) => assert_eq!(block, 8),
            other => panic!("expected row-wise, got {other:?}"),
        }
    }

    #[test]
    fn equals_separator_and_comments() {
        let text = "# comment\nArrayHeight = 16\n; another\nArrayWidth = 8\nDataflow = os\n";
        let c = parse_cfg(text).unwrap();
        assert_eq!(c.core.array, ArrayShape::new(16, 8));
        assert_eq!(c.core.dataflow, Dataflow::OutputStationary);
    }

    #[test]
    fn bad_dataflow_is_an_error() {
        assert!(parse_cfg("Dataflow : xyz\n").is_err());
    }

    #[test]
    fn bad_number_is_an_error() {
        assert!(parse_cfg("ArrayHeight : lots\n").is_err());
    }

    #[test]
    fn bad_bandwidth_is_an_error() {
        for bad in ["ten", "-1", "0", "inf", "NaN"] {
            let err = parse_cfg(&format!("Bandwidth : {bad}\n"))
                .unwrap_err()
                .to_string();
            assert!(err.contains("bandwidth"), "'{bad}' -> {err}");
        }
        assert_eq!(
            parse_cfg("Bandwidth : 2.5\n")
                .unwrap()
                .core
                .memory
                .dram_bandwidth,
            2.5
        );
    }

    #[test]
    fn unknown_keys_are_rejected_by_name() {
        let err = parse_cfg("SomeFutureKnob : 42\n").unwrap_err().to_string();
        assert!(err.contains("unknown key 'somefutureknob'"), "{err}");
        assert!(err.contains("at top level"), "{err}");
        assert!(err.contains("[dram]: Model"), "{err}");
    }

    #[test]
    fn dram_model_selects_the_named_preset() {
        let c = parse_cfg("[dram]\nModel : hbm2\n").unwrap();
        assert_eq!(c.dram.spec.name, DramSpec::hbm2().name);
        // The HBM2 command clock retimes the core:memory clock ratio.
        let mem_clock_hz = 1.0e12 / c.dram.spec.timing.tCK_ps as f64;
        assert!((c.dram.mem_cycles_per_core_cycle - mem_clock_hz / 1.0e9).abs() < 1e-9);
        // Case-insensitive like every other cfg value.
        let c = parse_cfg("[dram]\nModel : HBM2\n").unwrap();
        assert_eq!(c.dram.spec.name, DramSpec::hbm2().name);
    }

    #[test]
    fn unknown_dram_model_error_names_the_full_vocabulary() {
        let err = parse_cfg("[dram]\nModel : ddr9\n").unwrap_err().to_string();
        assert!(err.contains("unknown dram Model 'ddr9'"), "{err}");
        for name in DramSpec::preset_names() {
            assert!(err.contains(name), "vocabulary misses {name}: {err}");
        }
    }

    #[test]
    fn misspelled_key_error_names_the_section() {
        let err = parse_cfg("[architecture_presets]\nArrayHieght : 32\n")
            .unwrap_err()
            .to_string();
        assert!(err.contains("unknown key 'arrayhieght'"), "{err}");
        assert!(err.contains("[architecture_presets]"), "{err}");
        // The error lists the accepted spellings so the fix is obvious.
        assert!(err.contains("ArrayHeight"), "{err}");
    }

    #[test]
    fn sparsity_knob_outside_its_section_is_rejected() {
        let err = parse_cfg("SparsitySupport : true\n")
            .unwrap_err()
            .to_string();
        assert!(err.contains("unknown key 'sparsitysupport'"), "{err}");
    }

    #[test]
    fn run_name_is_accepted_metadata() {
        let c =
            parse_cfg("[general]\nrun_name = my_run\nArrayHeight : 16\nArrayWidth : 16\n").unwrap();
        assert_eq!(c.core.array, ArrayShape::new(16, 16));
    }

    #[test]
    fn stock_upstream_cfg_keys_still_parse() {
        // The unmodified Python-tool presets carry operand offsets, a
        // bank count and `InterfaceBandwidth : CALC`; they must keep
        // working under the strict parser.
        let c = parse_cfg(
            "[general]\nrun_name = scale_example_run\n\
             [architecture_presets]\nArrayHeight : 32\nArrayWidth : 32\n\
             IfmapSramSzkB : 64\nFilterSramSzkB : 64\nOfmapSramSzkB : 64\n\
             IfmapOffset : 0\nFilterOffset : 10000000\nOfmapOffset : 20000000\n\
             Dataflow : os\nBandwidth : 10\nMemoryBanks : 1\n\
             [run_presets]\nInterfaceBandwidth : CALC\n",
        )
        .unwrap();
        assert_eq!(c.core.array, ArrayShape::new(32, 32));
        assert_eq!(c.core.memory.dram_bandwidth, 10.0, "CALC keeps Bandwidth");
    }

    #[test]
    fn scaleout_section_parses_all_knobs() {
        let c = parse_cfg(
            "[scaleout]\nChips : 16\nFabric : mesh\nMesh : 4x4\nLinkGbps : 200\n\
             LinkLatency : 250\nStrategy : tensor\nMicrobatches : 8\nClockGhz : 1.5\n",
        )
        .unwrap();
        let so = c.scaleout.unwrap();
        assert_eq!(so.chips, 16);
        assert_eq!(so.fabric, FabricTag::Mesh);
        assert_eq!(so.mesh, Some((4, 4)));
        assert_eq!(so.link_gbps, 200.0);
        assert_eq!(so.link_latency, 250);
        assert_eq!(so.strategy, Strategy::TensorParallel);
        assert_eq!(so.microbatches, 8);
        assert_eq!(so.clock_ghz, 1.5);
    }

    #[test]
    fn scaleout_defaults_fill_unset_knobs() {
        let c = parse_cfg("[scaleout]\nChips : 4\n").unwrap();
        let so = c.scaleout.unwrap();
        assert_eq!(so.chips, 4);
        assert_eq!(so.strategy, Strategy::DataParallel);
        assert_eq!(so.link_gbps, 100.0);
        // No [scaleout] section at all leaves the config single-chip.
        assert!(parse_cfg("ArrayHeight : 8\n").unwrap().scaleout.is_none());
    }

    #[test]
    fn scaleout_errors_name_the_problem() {
        for (text, needle) in [
            ("[scaleout]\nChips : 0\n", "Chips"),
            ("[scaleout]\nFabric : torus\n", "'torus'"),
            ("[scaleout]\nMesh : 4\n", "bad Mesh"),
            ("[scaleout]\nLinkGbps : -5\n", "GB/s"),
            ("[scaleout]\nStrategy : zz\n", "'zz'"),
            ("[scaleout]\nMicrobatches : 0\n", "Microbatches"),
            ("[scaleout]\nClockGhz : 0\n", "GHz"),
            // Fabric consistency fails at parse time too.
            (
                "[scaleout]\nChips : 8\nFabric : mesh\nMesh : 3x3\n",
                "mesh 3x3",
            ),
            ("[scaleout]\nChips : 6\nFabric : switch\n", "power-of-two"),
        ] {
            let err = parse_cfg(text).unwrap_err().to_string();
            assert!(err.contains(needle), "'{text}' -> {err}");
        }
    }

    #[test]
    fn scaleout_keys_outside_their_section_are_rejected() {
        let err = parse_cfg("Chips : 8\n").unwrap_err().to_string();
        assert!(err.contains("unknown key 'chips'"), "{err}");
        // The unknown-key error now lists the [scaleout] vocabulary.
        assert!(err.contains("[scaleout]"), "{err}");
    }

    #[test]
    fn llm_section_parses_presets_and_overrides() {
        let c = parse_cfg(
            "[llm]\nPreset : llama-7b\nPhase : decode\nContext : 512\n\
             Seq : 1024\nBatch : 4\nKvHeads : 8\n",
        )
        .unwrap();
        let llm = c.llm.unwrap();
        assert_eq!(llm.spec.name, "llama-7b");
        assert_eq!(llm.phase, Phase::Decode);
        assert_eq!(llm.context, Some(512));
        assert_eq!(llm.spec.seq, 1024);
        assert_eq!(llm.spec.batch, 4);
        assert_eq!(llm.spec.kv_heads, 8);
        // No [llm] section leaves the config topology-driven.
        assert!(parse_cfg("ArrayHeight : 8\n").unwrap().llm.is_none());
    }

    #[test]
    fn llm_section_builds_custom_moe_models() {
        let c = parse_cfg(
            "[llm]\nLayers : 4\nDModel : 256\nHeads : 8\nKvHeads : 8\nDFf : 512\n\
             Vocab : 1000\nSeq : 64\nExperts : 4\nTopK : 2\nGatedFfn : true\n",
        )
        .unwrap();
        let llm = c.llm.unwrap();
        assert_eq!(llm.spec.layers, 4);
        assert_eq!(
            llm.spec.moe,
            Some(MoeSpec {
                num_experts: 4,
                top_k: 2
            })
        );
        assert_eq!(llm.phase, Phase::Prefill);
    }

    #[test]
    fn llm_errors_name_the_problem() {
        for (text, needle) in [
            ("[llm]\nPreset : gpt5\n", "unknown llm Preset 'gpt5'"),
            ("[llm]\nPhase : training\n", "unknown phase 'training'"),
            ("[llm]\nTopK : 2\n", "Experts"),
            // Validation runs at parse time: 4096 % 33 != 0.
            ("[llm]\nPreset : llama-7b\nHeads : 33\n", "divisible"),
            ("[llm]\nPreset : mixtral-8x7b\nTopK : 16\n", "top_k"),
        ] {
            let err = parse_cfg(text).unwrap_err().to_string();
            assert!(err.contains(needle), "'{text}' -> {err}");
        }
    }

    #[test]
    fn llm_keys_outside_their_section_are_rejected() {
        let err = parse_cfg("DModel : 4096\n").unwrap_err().to_string();
        assert!(err.contains("unknown key 'dmodel'"), "{err}");
        // The unknown-key error lists the [llm] vocabulary too.
        assert!(err.contains("[llm]"), "{err}");
        assert!(err.contains("KvHeads"), "{err}");
    }

    #[test]
    fn garbage_booleans_are_errors_not_false() {
        // `SparsitySupport : yes` used to read as false and run dense.
        for yes in ["true", "1", "yes", "On"] {
            let c = parse_cfg(&format!("[sparsity]\nSparsitySupport : {yes}\n")).unwrap();
            assert!(c.sparsity.is_some(), "'{yes}' must enable sparsity");
        }
        for no in ["false", "0", "no", "OFF"] {
            let c = parse_cfg(&format!("[sparsity]\nSparsitySupport : {no}\n")).unwrap();
            assert!(c.sparsity.is_none(), "'{no}' must leave the run dense");
        }
        for (section, key) in [
            ("sparsity", "SparsitySupport"),
            ("sparsity", "OptimizedMapping"),
            ("llm", "GatedFfn"),
            ("llm", "TiedEmbeddings"),
        ] {
            let err = parse_cfg(&format!("[{section}]\n{key} : ture\n")).unwrap_err();
            assert!(matches!(err, SimError::InvalidConfig(_)), "{err:?}");
            let err = err.to_string();
            assert!(err.contains(key) && err.contains("'ture'"), "{err}");
        }
    }

    #[test]
    fn cfg_and_sweep_spec_share_one_dialect() {
        // Both front ends lex through `dialect::entries`, so the same
        // commented text — whole-line and trailing `#`/`;` comments,
        // both separators, any key case — parses in both.
        let text = "# whole-line comment\n\
                    [scaleout]        ; a header with a trailing comment\n\
                    Dataflow : ws     # trailing comment\n\
                    bandwidth = 20    ; the other comment character\n\
                    CHIPS : 8  # chips\n\
                    Strategy = tensor\n";
        let c = parse_cfg(text).unwrap();
        assert_eq!(c.core.dataflow, Dataflow::WeightStationary);
        assert_eq!(c.core.memory.dram_bandwidth, 20.0);
        let so = c.scaleout.unwrap();
        assert_eq!((so.chips, so.strategy), (8, Strategy::TensorParallel));

        use scalesim_sweep::spec::AxisValue;
        let spec = scalesim_sweep::SweepSpec::parse(text).unwrap();
        let swept: Vec<AxisValue> = spec.expand()[0].values().collect();
        let want = [
            AxisValue::Dataflow(Dataflow::WeightStationary),
            AxisValue::Bandwidth(20.0),
            AxisValue::Chips(8),
            AxisValue::Strategy(Strategy::TensorParallel),
        ];
        assert_eq!(swept, want);

        // The case from the bug report: a trailing comment on a number.
        let c = parse_cfg("ArrayHeight : 8  # rows\n").unwrap();
        assert_eq!(c.core.array.rows(), 8);
    }

    #[test]
    fn every_key_is_documented_in_the_cli_reference() {
        let doc = concat!(env!("CARGO_MANIFEST_DIR"), "/../../docs/CLI.md");
        let doc = std::fs::read_to_string(doc).unwrap();
        for (section, name, _) in KEYS {
            assert!(doc.contains(&format!("`{name}`")), "[{section}] {name}");
        }
    }

    #[test]
    fn unknown_key_error_lists_the_whole_table() {
        let err = parse_cfg("[llm]\nWat : 1\n").unwrap_err().to_string();
        assert!(err.contains("unknown key 'wat' in section [llm]"), "{err}");
        assert!(
            err.contains("(known keys: ArrayHeight, ArrayWidth, "),
            "{err}"
        );
        assert!(
            err.contains("MemoryBanks; [sparsity]: SparsitySupport, "),
            "{err}"
        );
        assert!(err.ends_with("Experts, TopK)"), "{err}");
        for (_, name, _) in KEYS {
            assert!(err.contains(name), "{name} missing from: {err}");
        }
    }

    #[test]
    fn malformed_line_is_rejected() {
        let err = parse_cfg("just some words\n").unwrap_err().to_string();
        assert!(err.contains("malformed line"), "{err}");
    }
}
