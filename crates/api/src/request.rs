//! The typed request surface: the per-command specs a
//! [`SimRequest`](crate::SimRequest) carries.
//!
//! Requests are plain data — no file is read and nothing is validated
//! beyond the JSON shape until a service executes them. Inputs
//! (architecture `.cfg`, topology CSV, sweep spec) can travel **inline**
//! in the request or as **paths** resolved by the serving process, so
//! the same request type drives both an embedded library call and a
//! remote `scalesim serve` instance.
//!
//! Every body is declared once — Rust field, wire key, kind — and the
//! struct, its encoder and its strict decoder all derive from that list
//! (see `codec.rs`): a key the declaration does not name, or a value of
//! the wrong type, is a `config` error, never a silently ignored
//! override. See `docs/API.md` for the full JSON schema.

use crate::codec::{
    quote, wire, Codec, Elide, Flag, List, Member, Nested, ObjectWriter, Opt, Positive, Side,
    COUNT, TEXT, UINT,
};
use crate::error::SimError;
use crate::json::Json;

/// Where an architecture `.cfg` (or sweep spec) comes from.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub enum ConfigSource {
    /// The built-in default core (32×32 OS, 1 MB/1 MB/256 kB SRAM).
    #[default]
    Default,
    /// Read the file at this path (resolved by the serving process).
    Path(String),
    /// The `.cfg` text itself, carried in the request.
    Inline(String),
}

/// The wire spelling of [`ConfigSource::Default`] and the keys of the
/// one-member objects the other two sources travel as.
const DEFAULT: &str = "default";
const PATH: &str = "path";
const INLINE: &str = "inline";

/// A config source: `"default"`, `{"path": …}` or `{"inline": …}`.
/// [`GRID`] is the sweep spec, where `"default"` is not an answer.
struct Config {
    grid: bool,
}
const CONFIG: Elide<Config, ConfigSource> = Elide(Config { grid: false }, ConfigSource::Default);
const GRID: Config = Config { grid: true };

impl Codec<ConfigSource> for Config {
    fn write(&self, value: &ConfigSource, out: &mut String) {
        let (key, text) = match value {
            ConfigSource::Default => return quote(DEFAULT, out),
            ConfigSource::Path(path) => (PATH, path),
            ConfigSource::Inline(text) => (INLINE, text),
        };
        let mut object = ObjectWriter::open(out);
        object.member(key, text, &TEXT);
        object.close();
    }

    fn read(&self, member: Member) -> Result<ConfigSource, SimError> {
        let side = member.cx.side;
        let what = if self.grid { "sweep spec" } else { member.key };
        let shape = || {
            side.err(format!(
                "{what}: expected \"{DEFAULT}\", {{\"{PATH}\": …}} or {{\"{INLINE}\": …}}"
            ))
        };
        match member.required()? {
            Json::Str(s) if s == DEFAULT && self.grid => {
                Err(side.err(format!("{what}: \"{DEFAULT}\" is not a grid")))
            }
            Json::Str(s) if s == DEFAULT => Ok(ConfigSource::Default),
            Json::Obj(fields) => match fields.as_slice() {
                [(k, Json::Str(path))] if k == PATH => Ok(ConfigSource::Path(path.clone())),
                [(k, Json::Str(text))] if k == INLINE => Ok(ConfigSource::Inline(text.clone())),
                _ => Err(shape()),
            },
            _ => Err(shape()),
        }
    }
}

/// How topology CSV rows should be interpreted.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TopologyFormat {
    /// Detect conv vs GEMM from the first data row (≥ 8 columns → conv).
    #[default]
    Auto,
    /// Convolution rows (`name, ifh, ifw, fh, fw, c, n, stride`).
    Conv,
    /// GEMM rows (`name, M, K, N`).
    Gemm,
}

const FORMATS: [(&str, TopologyFormat); 3] = [
    ("auto", TopologyFormat::Auto),
    ("conv", TopologyFormat::Conv),
    ("gemm", TopologyFormat::Gemm),
];

/// A [`TopologyFormat`] tag; `auto` is the elided default.
struct Format;
const FORMAT: Elide<Format, TopologyFormat> = Elide(Format, TopologyFormat::Auto);

impl Codec<TopologyFormat> for Format {
    fn write(&self, value: &TopologyFormat, out: &mut String) {
        let tag = FORMATS.iter().find(|(_, format)| format == value);
        quote(tag.expect("every format has a tag").0, out);
    }

    fn read(&self, member: Member) -> Result<TopologyFormat, SimError> {
        let Member { cx, key, found } = member;
        let label = cx.label;
        let tag = found
            .and_then(Json::as_str)
            .ok_or_else(|| cx.side.err(format!("{label} {key} must be a string")))?;
        match FORMATS.iter().find(|(name, _)| *name == tag) {
            Some((_, format)) => Ok(*format),
            None => {
                let expected = FORMATS.map(|(name, _)| name).join("/");
                Err(cx
                    .side
                    .err(format!("{label} {key} '{tag}' (expected {expected})")))
            }
        }
    }
}

/// Optional [`Features`]; all-off is the elided default.
fn features() -> Elide<Nested, Features> {
    Elide(Nested, Features::default())
}

/// A [`TopologySource`] names exactly one source.
fn one_source(topology: &TopologySource) -> Result<(), SimError> {
    let sources = [&topology.path, &topology.inline, &topology.workload];
    match sources.iter().filter(|source| source.is_some()).count() {
        1 => Ok(()),
        _ => Err(Side::Request
            .err("topology: exactly one of \"path\", \"inline\" and \"workload\" is required")),
    }
}

wire! {
    /// A workload topology: CSV rows plus how to parse and name them, or a
    /// named workload from the built-in registry.
    #[derive(Debug, Clone, PartialEq, Eq)]
    Request "topology" check one_source => pub struct TopologySource {
        /// Name used in reports (defaults to the path's file stem, or
        /// `workload` for inline CSV with no name).
        pub name: Option<String> = "name": Opt(TEXT),
        /// CSV from a path (resolved by the serving process)…
        pub path: Option<String> = "path": Opt(TEXT),
        /// …or carried inline…
        pub inline: Option<String> = "inline": Opt(TEXT),
        /// …or a built-in registry workload (`resnet18`, `vit-base`, an
        /// llm preset like `llama-7b[:decode]`, …). Exactly one of
        /// `path`/`inline`/`workload` is set.
        pub workload: Option<String> = "workload": Opt(TEXT),
        /// Row interpretation (ignored for registry workloads).
        pub format: TopologyFormat = "format": FORMAT,
    }

    /// The per-run feature toggles (the CLI's `--dram`/`--energy`/`--layout`
    /// flags plus the multi-core grid).
    #[derive(Debug, Clone, PartialEq, Eq, Default)]
    Request "features" => pub struct Features {
        /// Run the cycle-accurate DRAM flow (§V).
        pub dram: bool = "dram": Elide(Flag, false),
        /// Run energy/power estimation (§VII).
        pub energy: bool = "energy": Elide(Flag, false),
        /// Run bank-conflict layout analysis (§VI).
        pub layout: bool = "layout": Elide(Flag, false),
        /// Partition across a tensor-core grid, `"RxC"` (§III); None or
        /// `"1x1"` = single core.
        pub cores: Option<String> = "cores": Opt(TEXT),
    }

    /// One simulation of one topology (the CLI's default command).
    #[derive(Debug, Clone, PartialEq, Eq)]
    Request "run" => pub struct RunSpec {
        /// Architecture configuration.
        pub config: ConfigSource = "config": CONFIG,
        /// The workload.
        pub topology: TopologySource = "topology": Nested,
        /// Feature toggles.
        pub features: Features = "features": features(),
    }

    /// A design-space sweep (the CLI's `sweep` subcommand).
    #[derive(Debug, Clone, PartialEq, Eq)]
    Request "sweep" => pub struct SweepRequest {
        /// The sweep grid spec (`[grid]`/`[workloads]` cfg text); Default is
        /// rejected — a sweep needs a grid.
        pub spec: ConfigSource = "spec": GRID,
        /// Base architecture the grid overrides.
        pub base_config: ConfigSource = "base_config": CONFIG,
        /// Topologies appended to the spec's `[workloads]` list.
        pub topologies: Vec<TopologySource> = "topologies": Elide(List(Nested), Vec::new()),
        /// Executor shard count (≥ 1; reports are byte-identical for any
        /// value).
        pub shards: usize = "shards": Elide(COUNT, 1),
    }

    /// A multi-chip scale-out simulation (the CLI's `scaleout`
    /// subcommand).
    ///
    /// The scale-out parameters (chip count, fabric, link characteristics,
    /// strategy) come from the configuration's `[scaleout]` section; every
    /// field here is an **override** applied on top of it (or on top of
    /// the built-in defaults when the section is absent). Fabric and
    /// strategy travel as strings and are validated by the serving process
    /// with a typed `config` error.
    #[derive(Debug, Clone, PartialEq)]
    Request "scaleout" => pub struct ScaleoutRequest {
        /// Architecture configuration (its `[scaleout]` section seeds the
        /// scale-out parameters).
        pub config: ConfigSource = "config": CONFIG,
        /// The workload.
        pub topology: TopologySource = "topology": Nested,
        /// Feature toggles for the per-chip simulations.
        pub features: Features = "features": features(),
        /// Chip-count override.
        pub chips: Option<usize> = "chips": Opt(COUNT),
        /// Fabric override (`ring` / `mesh` / `switch`).
        pub fabric: Option<String> = "fabric": Opt(TEXT),
        /// Per-link bandwidth override, GB/s.
        pub link_gbps: Option<f64> = "link_gbps": Opt(Positive),
        /// Per-hop latency override, core cycles.
        pub link_latency: Option<u64> = "link_latency": Opt(UINT),
        /// Strategy override (`data` / `tensor` / `pipeline`).
        pub strategy: Option<String> = "strategy": Opt(TEXT),
        /// Pipeline microbatch override.
        pub microbatches: Option<usize> = "microbatches": Opt(COUNT),
    }

    /// An LLM workload simulation (the CLI's `llm` subcommand).
    ///
    /// The model comes from the configuration's `[llm]` section and/or the
    /// `workload` preset name; every other field is an **override** applied
    /// on top. At least one of the two must name a model — a request with
    /// neither is rejected by the serving process with a typed `config`
    /// error.
    #[derive(Debug, Clone, PartialEq, Eq, Default)]
    Request "llm" => pub struct LlmRequest {
        /// Architecture configuration (its `[llm]` section seeds the model
        /// spec).
        pub config: ConfigSource = "config": CONFIG,
        /// Preset name override (`gpt2-xl`, `llama-7b`, `llama-70b`,
        /// `mixtral-8x7b`).
        pub workload: Option<String> = "workload": Opt(TEXT),
        /// Phase override (`prefill` / `decode`), validated by the serving
        /// process.
        pub phase: Option<String> = "phase": Opt(TEXT),
        /// Prompt sequence-length override.
        pub seq: Option<usize> = "seq": Opt(COUNT),
        /// Batch-size override.
        pub batch: Option<usize> = "batch": Opt(COUNT),
        /// KV-cache context-length override (defaults to the sequence
        /// length).
        pub context: Option<usize> = "context": Opt(COUNT),
        /// Feature toggles.
        pub features: Features = "features": features(),
    }

    /// A silicon-area estimate for a configured core.
    #[derive(Debug, Clone, PartialEq, Eq, Default)]
    Request "area" => pub struct AreaSpec {
        /// Architecture configuration.
        pub config: ConfigSource = "config": CONFIG,
        /// Feature toggles (layout banks and DRAM channels contribute area).
        pub features: Features = "features": features(),
    }
}

/// A topology with no source yet: what the constructors fill in.
const NO_SOURCE: TopologySource = TopologySource {
    name: None,
    path: None,
    inline: None,
    workload: None,
    format: TopologyFormat::Auto,
};

impl TopologySource {
    /// A topology read from a file path.
    pub fn from_path(path: impl Into<String>) -> Self {
        Self {
            path: Some(path.into()),
            ..NO_SOURCE
        }
    }

    /// A topology carried inline, with the name reports will use.
    pub fn inline(name: impl Into<String>, csv: impl Into<String>) -> Self {
        Self {
            name: Some(name.into()),
            inline: Some(csv.into()),
            ..NO_SOURCE
        }
    }

    /// A named workload resolved from the serving process's registry.
    pub fn from_workload(workload: impl Into<String>) -> Self {
        Self {
            workload: Some(workload.into()),
            ..NO_SOURCE
        }
    }

    /// Sets the row format (builder style).
    pub fn with_format(mut self, format: TopologyFormat) -> Self {
        self.format = format;
        self
    }
}

impl ScaleoutRequest {
    /// A request for `topology` with no overrides: the configuration's
    /// `[scaleout]` section (or the built-in defaults) rules.
    pub fn for_topology(topology: TopologySource) -> Self {
        Self {
            config: ConfigSource::Default,
            topology,
            features: Features::default(),
            chips: None,
            fabric: None,
            link_gbps: None,
            link_latency: None,
            strategy: None,
            microbatches: None,
        }
    }
}

impl LlmRequest {
    /// A request for a named preset with no other overrides.
    pub fn for_workload(workload: impl Into<String>) -> Self {
        Self {
            workload: Some(workload.into()),
            ..Self::default()
        }
    }
}
#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::{self, SimRequest};

    /// Decodes `body` as the body of a `tag` request, through the wire.
    fn decode(tag: &str, body: &str) -> Result<SimRequest, SimError> {
        wire::decode_request(&format!("{{\"api\": 1, \"{tag}\": {body}}}")).1
    }

    fn round_trip(req: SimRequest) {
        let line = wire::encode_request(None, &req);
        assert_eq!(wire::decode_request(&line).1.unwrap(), req, "{line}");
    }

    #[test]
    fn run_request_round_trips() {
        round_trip(SimRequest::Run(RunSpec {
            config: ConfigSource::Inline("ArrayHeight : 8\nArrayWidth : 8\n".into()),
            topology: TopologySource::inline("t", "a, 8, 8, 8,\n")
                .with_format(TopologyFormat::Gemm),
            features: Features {
                dram: true,
                energy: true,
                layout: false,
                cores: Some("2x2".into()),
            },
        }));
        round_trip(SimRequest::Run(RunSpec {
            config: ConfigSource::Path("configs/tpu.cfg".into()),
            topology: TopologySource::from_path("topologies/resnet18.csv"),
            features: Features::default(),
        }));
    }

    #[test]
    fn scaleout_request_round_trips() {
        round_trip(SimRequest::Scaleout(ScaleoutRequest {
            config: ConfigSource::Path("configs/example_scaleout.cfg".into()),
            topology: TopologySource::from_path("topologies/resnet18.csv"),
            features: Features::default(),
            chips: Some(64),
            fabric: Some("mesh".into()),
            link_gbps: Some(37.5),
            link_latency: Some(250),
            strategy: Some("tensor".into()),
            microbatches: Some(8),
        }));
        // All overrides optional: the cfg's [scaleout] section rules.
        round_trip(SimRequest::Scaleout(ScaleoutRequest::for_topology(
            TopologySource::inline("t", "a, 8, 8, 8,\n"),
        )));
    }

    #[test]
    fn scaleout_rejects_bad_overrides() {
        for body in [
            r#"{"topology": {"inline": "a, 8, 8, 8,\n"}, "chips": 0}"#,
            r#"{"topology": {"inline": "a, 8, 8, 8,\n"}, "link_gbps": -1}"#,
            r#"{"topology": {"inline": "a, 8, 8, 8,\n"}, "microbatches": 0}"#,
            // Mistyped overrides must error, never be silently dropped.
            r#"{"topology": {"inline": "a, 8, 8, 8,\n"}, "strategy": 5}"#,
            r#"{"topology": {"inline": "a, 8, 8, 8,\n"}, "fabric": ["mesh"]}"#,
        ] {
            assert!(decode("scaleout", body).is_err(), "{body}");
        }
        let err = decode("scaleout", "{}").unwrap_err();
        assert!(err.message().contains("topology"), "{err}");
    }

    #[test]
    fn llm_request_round_trips() {
        round_trip(SimRequest::Llm(LlmRequest {
            config: ConfigSource::Inline("[llm]\nPreset : llama-7b\n".into()),
            workload: Some("llama-7b".into()),
            phase: Some("decode".into()),
            seq: Some(1024),
            batch: Some(4),
            context: Some(2048),
            features: Features {
                dram: true,
                ..Features::default()
            },
        }));
        // Everything optional on the wire: the cfg's [llm] section
        // (or the preset alone) rules.
        round_trip(SimRequest::Llm(LlmRequest::for_workload("mixtral-8x7b")));
    }

    #[test]
    fn llm_rejects_mistyped_overrides() {
        for body in [
            r#"{"workload": 7}"#,
            r#"{"workload": "llama-7b", "phase": 0}"#,
            r#"{"workload": "llama-7b", "seq": 0}"#,
            r#"{"workload": "llama-7b", "batch": -1}"#,
            r#"{"workload": "llama-7b", "context": "long"}"#,
        ] {
            assert!(decode("llm", body).is_err(), "{body}");
        }
        let err = decode("llm", r#"{"workload": "llama-7b", "seq": 0}"#).unwrap_err();
        assert_eq!(
            err.message(),
            "request: llm: \"seq\" must be a positive integer"
        );
    }

    /// The silent-drop bug: a key the body does not declare used to be
    /// ignored (a misspelled override ran with the default and answered
    /// plausible numbers). Every object now names the key and lists the
    /// accepted ones.
    #[test]
    fn unknown_keys_are_config_errors_naming_the_key_and_the_accepted_set() {
        let err = decode("llm", r#"{"workload": "llama-7b", "bacth": 8}"#).unwrap_err();
        assert_eq!(err.kind(), "config");
        assert_eq!(
            err.message(),
            "request: llm: unknown key \"bacth\" (accepted: config, workload, phase, seq, \
             batch, context, features)"
        );
        for (tag, body, needle) in [
            (
                "run",
                r#"{"topology": {"path": "a"}, "feature": {}}"#,
                "run: unknown key \"feature\" (accepted: config, topology, features)",
            ),
            (
                "run",
                r#"{"topology": {"path": "a", "fromat": "gemm"}}"#,
                "topology: unknown key \"fromat\" (accepted: name, path, inline, workload, format)",
            ),
            (
                "run",
                r#"{"topology": {"path": "a"}, "features": {"drma": true}}"#,
                "features: unknown key \"drma\" (accepted: dram, energy, layout, cores)",
            ),
            (
                "sweep",
                r#"{"spec": {"inline": "array = 8x8\n"}, "shard": 2}"#,
                "sweep: unknown key \"shard\"",
            ),
            (
                "scaleout",
                r#"{"topology": {"path": "a"}, "chip": 2}"#,
                "scaleout: unknown key \"chip\"",
            ),
            (
                "area",
                r#"{"topology": {"path": "a"}}"#,
                "area: unknown key \"topology\" (accepted: config, features)",
            ),
            (
                "stats",
                r#"{"verbose": true}"#,
                "stats: unknown key \"verbose\" (accepted: none)",
            ),
            // A config source is exactly one of its three shapes.
            (
                "run",
                r#"{"config": {"path": "a", "inline": "b"}, "topology": {"path": "a"}}"#,
                "config: expected \"default\"",
            ),
            // A body that is not an object is not an empty body.
            ("llm", "5", "llm: expected an object"),
            ("version", "null", "version: expected an object"),
        ] {
            let err = decode(tag, body).unwrap_err();
            assert_eq!(err.kind(), "config", "{body}");
            assert!(err.message().contains(needle), "{body}: {err}");
        }
    }

    /// The other half of the bug: `features.cores` and the topology's
    /// text members were dropped when present with the wrong type
    /// (`"cores": 4` ran single-core).
    #[test]
    fn mistyped_cores_and_topology_members_are_config_errors() {
        for (body, needle) in [
            (
                r#"{"topology": {"path": "a"}, "features": {"cores": 4}}"#,
                "features: \"cores\" must be a string",
            ),
            (
                r#"{"topology": {"path": "a"}, "features": {"dram": "yes"}}"#,
                "features.dram must be a boolean",
            ),
            (
                r#"{"topology": {"path": "a", "name": 7}}"#,
                "topology: \"name\" must be a string",
            ),
            (
                r#"{"topology": {"path": ["a"]}}"#,
                "topology: \"path\" must be a string",
            ),
            (
                r#"{"topology": {"inline": null}}"#,
                "topology: \"inline\" must be a string",
            ),
            (
                r#"{"topology": {"workload": 18}}"#,
                "topology: \"workload\" must be a string",
            ),
            (
                r#"{"topology": {"path": "a", "format": 3}}"#,
                "topology format must be a string",
            ),
            (
                r#"{"topology": {"path": "a", "format": "csv"}}"#,
                "topology format 'csv' (expected auto/conv/gemm)",
            ),
        ] {
            let err = decode("run", body).unwrap_err();
            assert_eq!(err.kind(), "config", "{body}");
            assert!(err.message().contains(needle), "{body}: {err}");
        }
    }

    #[test]
    fn sweep_and_area_round_trip() {
        round_trip(SimRequest::Sweep(SweepRequest {
            spec: ConfigSource::Inline("array = 8x8\n".into()),
            base_config: ConfigSource::Default,
            topologies: vec![TopologySource::inline("t", "a, 8, 8, 8,\n")],
            shards: 3,
        }));
        round_trip(SimRequest::AreaReport(AreaSpec::default()));
        round_trip(SimRequest::Version);
        round_trip(SimRequest::Stats);
        round_trip(SimRequest::Trace);
    }

    #[test]
    fn missing_topology_is_a_config_error() {
        let err = decode("run", "{}").unwrap_err();
        assert_eq!(err.kind(), "config");
        assert_eq!(err.message(), "request: run: missing required \"topology\"");
    }

    #[test]
    fn topology_requires_exactly_one_source() {
        for topology in [
            r#"{"path": "a", "inline": "b"}"#,
            r#"{"name": "x"}"#,
            r#"{"path": "a", "workload": "resnet18"}"#,
        ] {
            let err = decode("run", &format!("{{\"topology\": {topology}}}")).unwrap_err();
            assert!(
                err.message().contains("exactly one of"),
                "{topology}: {err}"
            );
        }
    }

    #[test]
    fn workload_topology_round_trips() {
        round_trip(SimRequest::Run(RunSpec {
            config: ConfigSource::Default,
            topology: TopologySource::from_workload("llama-7b:decode"),
            features: Features::default(),
        }));
        round_trip(SimRequest::Scaleout(ScaleoutRequest::for_topology(
            TopologySource::from_workload("resnet18"),
        )));
    }

    #[test]
    fn sweep_rejects_default_spec_and_zero_shards() {
        let err = decode("sweep", r#"{"spec": "default"}"#).unwrap_err();
        assert_eq!(
            err.message(),
            "request: sweep spec: \"default\" is not a grid"
        );
        let err = decode(
            "sweep",
            r#"{"spec": {"inline": "array = 8x8\n"}, "shards": 0}"#,
        )
        .unwrap_err();
        assert_eq!(
            err.message(),
            "request: sweep: \"shards\" must be a positive integer"
        );
        let err = decode("sweep", "{}").unwrap_err();
        assert_eq!(err.message(), "request: sweep: missing required \"spec\"");
    }
}
