//! Command-line parsing for the `scalesim` binary.
//!
//! Lives in the library (rather than the binary) so argument handling is
//! unit-testable: in particular, *any* unknown flag or subcommand must
//! produce an error (never be silently ignored), which the binary turns
//! into the usage string and a non-zero exit. See [`parse_cli`].
//!
//! Five commands, one parser: each subcommand is a row of
//! `SUBCOMMANDS` — its usage string, its flag table (names and value
//! kind) and the function turning the parsed flags into a [`Command`].
//! The four simulation commands parse straight into the
//! [`SimRequest`] the service executes plus the CLI-only [`Output`]
//! options, so the binary and `scalesim serve` run the same request the
//! same way:
//!
//! * `scalesim …` — one simulation of one topology.
//! * `scalesim llm …` — simulate an LLM preset or `[llm]` model spec,
//!   expanded to its per-block GEMMs; model reference in `docs/LLM.md`.
//! * `scalesim sweep …` — a design-space sweep over a spec-file grid;
//!   full formats in `docs/CLI.md`.
//! * `scalesim scaleout …` — a multi-chip scale-out simulation; model
//!   reference in `docs/SCALEOUT.md`.
//! * `scalesim serve …` — a persistent JSON-lines batch service over
//!   stdio or a TCP socket ([`ServeArgs`]); protocol in `docs/API.md`.

use scalesim_api::{
    ConfigSource, Features, LlmRequest, RunSpec, ScaleoutRequest, SimRequest, SweepRequest,
    TopologyFormat, TopologySource,
};
use std::path::PathBuf;

/// Usage string for the single-run command (also the `-h` output).
pub const USAGE: &str = "usage: scalesim {-t <topology.csv> | -w <workload>} [-c <config.cfg>]
                [-p <outdir>] [--gemm] [--dram] [--energy] [--layout]
                [--area] [--profile-stages] [--trace <file>] [-v]
       scalesim llm [-w <preset>] [-c <config.cfg>] [options]
       scalesim sweep -s <spec> [-c <config.cfg>] [-t <topology.csv>]...
                [-p <outdir>] [--shards <n>] [-v]
       scalesim scaleout {-t <topology.csv> | -w <workload>}
                [-c <config.cfg>] [options]
       scalesim serve [--stdio | --listen <addr>] [--metrics-addr <addr>]
       scalesim --version

  -t <file>   topology CSV (conv rows: name,ifh,ifw,fh,fw,c,n,stride;
              with --gemm: name,M,K,N)
  -w <name>   built-in workload instead of -t: a CNN/ViT registry name
              or an llm preset, optionally ':prefill'/':decode'-suffixed
              (e.g. llama-7b:decode); unknown names list the vocabulary
  -c <file>   SCALE-Sim .cfg architecture file (default: 32x32 OS core)
  -p <dir>    output directory for report CSVs (default: .)
  --gemm      parse the topology as GEMM rows
  --dram      enable the cycle-accurate DRAM flow (paper SecV)
  --energy    enable energy/power estimation (paper SecVII)
  --layout    enable bank-conflict layout analysis (paper SecVI)
  --area      emit the silicon-area report for the configured core
  --profile-stages  print per-stage cycle/time accounting after the run
              and write STAGE_PROFILE.json to the output directory
  --trace <file>  record a Chrome trace-event timeline of the run and
              write it to <file> (open in Perfetto / chrome://tracing;
              docs/OBSERVABILITY.md); accepted by every subcommand
  -v          print per-layer results while running
  --version   print the scalesim version and build hash

  llm         simulate an LLM model spec expanded to its per-block GEMMs
              (prefill/decode phases, KV-cache, MoE); see
              'scalesim llm -h' and docs/LLM.md
  sweep       run a design-space-exploration grid; see 'scalesim sweep -h'
              and docs/CLI.md for the spec format
  scaleout    simulate multi-chip parallel execution (data/tensor/pipeline
              parallelism over a ring/mesh/switch fabric); see
              'scalesim scaleout -h' and docs/SCALEOUT.md
  serve       answer JSON-lines simulation requests forever; see
              'scalesim serve -h' and docs/API.md for the protocol";

/// Usage string for the `llm` subcommand.
pub const LLM_USAGE: &str = "usage: scalesim llm [-w <preset>] [-c <config.cfg>] [-p <outdir>]
                [--phase prefill|decode] [--seq <n>] [--batch <n>]
                [--context <n>] [--dram] [--energy] [--layout] [-v]

  -w <preset>      model preset: gpt2-xl | llama-7b | llama-70b |
                   mixtral-8x7b (overrides the cfg's [llm] model; one of
                   -w or an [llm] cfg section is required)
  -c <file>        architecture .cfg; its [llm] section sets the model
                   defaults the flags below override (docs/LLM.md)
  -p <dir>         output directory for report CSVs (default: .)
  --phase <p>      prefill (M = batch x seq, compute-bound) or decode
                   (M = batch skinny GEMMs against the KV cache)
  --seq <n>        prompt/sequence length override
  --batch <n>      batch size override
  --context <n>    decode context length (default: seq)
  --dram / --energy / --layout   feature flags, as for a plain run
  --trace <file>   write a Chrome trace-event timeline to <file>
  -v               print per-layer results while running

The generated topology is deterministic: reports are byte-identical
for any SCALESIM_THREADS and identical to an 'llm' request over
'scalesim serve'.";

/// Usage string for the `scaleout` subcommand.
pub const SCALEOUT_USAGE: &str = "usage: scalesim scaleout {-t <topology.csv> | -w <workload>}
                [-c <config.cfg>] [-p <outdir>] [--gemm] [--chips <n>]
                [--strategy data|tensor|pipeline]
                [--fabric ring|mesh|switch] [--link-gbps <GB/s>] [-v]

  -t <file>        topology CSV (format auto-detected, conv or GEMM;
                   --gemm forces GEMM rows)
  -w <name>        built-in workload instead of -t: a CNN/ViT registry
                   name or an llm preset with optional ':prefill'/
                   ':decode' suffix (e.g. llama-7b:decode)
  -c <file>        architecture .cfg; its [scaleout] section sets the
                   defaults the flags below override (docs/SCALEOUT.md)
  -p <dir>         output directory for SCALEOUT_REPORT.csv (default: .)
  --chips <n>      number of chips (default: cfg [scaleout] or 8)
  --strategy <s>   data | tensor | pipeline parallelism
  --fabric <f>     ring | mesh | switch interconnect
  --link-gbps <g>  per-link bandwidth in GB/s
  --trace <file>   write a Chrome trace-event timeline to <file>
  -v               print per-layer results while running

The report is deterministic: byte-identical for any SCALESIM_THREADS,
and identical to the report a 'scaleout' request over 'scalesim serve'
returns for the same inputs.";

/// Usage string for the `sweep` subcommand.
pub const SWEEP_USAGE: &str = "usage: scalesim sweep -s <spec> [-c <config.cfg>]
                [-t <topology.csv>]... [-p <outdir>] [--shards <n>] [-v]

  -s <file>      sweep spec: a cfg-style grid of array/dataflow/sram_kb/
                 bandwidth/cores/dram/energy/layout values plus workload
                 topologies (see docs/CLI.md)
  -c <file>      base architecture .cfg the grid overrides (default:
                 32x32 OS core)
  -t <file>      additional topology CSV (repeatable; format
                 auto-detected, conv or GEMM); appended to the spec's
                 [workloads] list
  -p <dir>       output directory for SWEEP_REPORT.{csv,json} (default: .)
  --shards <n>   split the grid into n round-robin shards (default 1);
                 output is byte-identical for any shard count
  --trace <file> write a Chrome trace-event timeline to <file>
  -v             print per-run results while sweeping

Reports are deterministic: byte-identical for any SCALESIM_THREADS and
any --shards value.";

/// Usage string for the `serve` subcommand.
pub const SERVE_USAGE: &str = "usage: scalesim serve [--stdio | --listen <addr>]
                [--metrics-addr <addr>] [--trace <file>]

  --stdio          answer one JSON request per stdin line with one JSON
                   response per stdout line until EOF (the default)
  --listen <addr>  accept TCP connections on <addr> (e.g. 127.0.0.1:7878
                   or 127.0.0.1:0 for an ephemeral port), each speaking
                   the same JSON-lines protocol; concurrent connections
                   are capped at SCALESIM_SERVE_SESSIONS
  --metrics-addr <addr>  expose Prometheus text metrics over HTTP at
                   <addr> (GET any path; docs/OBSERVABILITY.md)
  --trace <file>   enable span recording and write a Chrome trace-event
                   timeline to <file> on shutdown; a 'trace' request
                   returns the same timeline live (docs/API.md)

One process keeps one plan cache: repeated workloads across requests
and connections skip re-planning. Responses are byte-identical to the
one-shot CLI's report files. Protocol reference: docs/API.md.";

/// The CLI-only options of the four simulation commands: where the
/// response's reports go and what stderr shows meanwhile. None of them
/// can change a report byte.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Output {
    /// Report output directory (`-p`, default `.`).
    pub out_dir: PathBuf,
    /// Per-layer / per-run progress on stderr (`-v`).
    pub verbose: bool,
    /// Also emit the area report (`--area`, plain runs only).
    pub area: bool,
    /// Print per-stage call/time accounting after the run and write
    /// `STAGE_PROFILE.json` (`--profile-stages`, plain runs only).
    pub profile_stages: bool,
    /// Chrome trace-event output path (`None` = tracing disabled).
    pub trace: Option<PathBuf>,
}

/// Arguments of the `serve` subcommand.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ServeArgs {
    /// TCP listen address (`None` = stdio mode).
    pub listen: Option<String>,
    /// Prometheus metrics HTTP address (`None` = no exposition).
    pub metrics_addr: Option<String>,
    /// Chrome trace-event output path written on shutdown (`None` =
    /// tracing disabled; a `trace` request can still read empty rings).
    pub trace: Option<PathBuf>,
}

/// A parsed command line (one per process, so variant size is moot).
#[derive(Debug, Clone, PartialEq)]
#[allow(clippy::large_enum_variant)]
pub enum Command {
    /// Execute one `run` / `llm` / `sweep` / `scaleout` request through
    /// the service and write its reports per the output options.
    Simulate(SimRequest, Output),
    /// Serve JSON-lines simulation requests persistently.
    Serve(ServeArgs),
    /// Print the version and exit (`--version` / `-V`).
    Version,
}

/// The version line `scalesim --version` prints: the workspace version
/// plus the git hash when the build stamped one (`SCALESIM_GIT_HASH` at
/// compile time; release/CI builds set it, ad-hoc builds report
/// `unknown`).
pub fn version_string() -> String {
    format!(
        "scalesim {} (git {})",
        env!("CARGO_PKG_VERSION"),
        option_env!("SCALESIM_GIT_HASH").unwrap_or("unknown"),
    )
}

/// A parse failure: the message to print (empty for a plain `-h`) and
/// the usage text to follow it with.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CliError {
    /// Error message; empty when the user asked for help.
    pub message: String,
    /// The relevant usage string ([`USAGE`] or [`SWEEP_USAGE`]).
    pub usage: &'static str,
}

/// What follows a flag on the command line.
#[derive(Clone, Copy)]
enum Value {
    /// Nothing: the flag is a switch.
    Switch,
    /// Free text; the payload completes "`<flag>` requires …".
    Text(&'static str),
    /// A positive integer.
    Count,
    /// A positive, finite GB/s figure.
    Gbps,
}

impl Value {
    /// What the flag needs after it, completing "`<flag>` requires …";
    /// `None` for a switch.
    fn noun(self) -> Option<&'static str> {
        match self {
            Value::Switch => None,
            Value::Text(noun) => Some(noun),
            Value::Count => Some("a count"),
            Value::Gbps => Some("a value"),
        }
    }

    /// What a well-formed value would have been, when `value` is not one.
    fn rejects(self, value: &str) -> Option<&'static str> {
        match self {
            Value::Count if !value.parse().is_ok_and(|n: usize| n >= 1) => Some("positive integer"),
            Value::Gbps if !value.parse().is_ok_and(|g: f64| g.is_finite() && g > 0.0) => {
                Some("positive GB/s")
            }
            _ => None,
        }
    }
}

/// One row of a subcommand's flag table: every spelling (the first is
/// the canonical one error messages and lookups use) and the value kind.
struct Flag(&'static [&'static str], Value);

const CONFIG: Flag = Flag(&["-c", "--config"], Value::Text("a file argument"));
const TOPOLOGY: Flag = Flag(&["-t", "--topology"], Value::Text("a file argument"));
const WORKLOAD: Flag = Flag(&["-w", "--workload"], Value::Text("a workload name"));
const OUT_DIR: Flag = Flag(&["-p", "--path"], Value::Text("a directory"));
const TRACE: Flag = Flag(&["--trace"], Value::Text("a file argument"));
const VERBOSE: Flag = Flag(&["-v", "--verbose"], Value::Switch);
const GEMM: Flag = Flag(&["--gemm"], Value::Switch);
const DRAM: Flag = Flag(&["--dram"], Value::Switch);
const ENERGY: Flag = Flag(&["--energy"], Value::Switch);
const LAYOUT: Flag = Flag(&["--layout"], Value::Switch);

/// One subcommand: its name on the command line (`""` for the plain
/// run), usage string, flag table, and the builder from parsed flags.
struct Subcommand {
    name: &'static str,
    usage: &'static str,
    flags: &'static [Flag],
    build: fn(&Args) -> Result<Command, CliError>,
}

const SUBCOMMANDS: [Subcommand; 5] = [
    Subcommand {
        name: "",
        usage: USAGE,
        flags: &[
            CONFIG,
            TOPOLOGY,
            WORKLOAD,
            OUT_DIR,
            GEMM,
            DRAM,
            ENERGY,
            LAYOUT,
            Flag(&["--area"], Value::Switch),
            Flag(&["--profile-stages"], Value::Switch),
            TRACE,
            VERBOSE,
        ],
        build: |a| {
            let format = if a.has("--gemm") {
                TopologyFormat::Gemm
            } else {
                TopologyFormat::Conv
            };
            Ok(a.simulate(SimRequest::Run(RunSpec {
                config: a.config(),
                topology: a.workload(format)?,
                features: a.features(),
            })))
        },
    },
    Subcommand {
        name: "llm",
        usage: LLM_USAGE,
        flags: &[
            CONFIG,
            Flag(&["-w", "--workload"], Value::Text("a preset name")),
            Flag(&["--phase"], Value::Text("a value")),
            Flag(&["--seq"], Value::Count),
            Flag(&["--batch"], Value::Count),
            Flag(&["--context"], Value::Count),
            OUT_DIR,
            DRAM,
            ENERGY,
            LAYOUT,
            TRACE,
            VERBOSE,
        ],
        // Model resolution is deferred to the service, so a cfg [llm]
        // section alone (no -w) also works.
        build: |a| {
            Ok(a.simulate(SimRequest::Llm(LlmRequest {
                config: a.config(),
                workload: a.get("-w"),
                phase: a.get("--phase"),
                seq: a.get("--seq"),
                batch: a.get("--batch"),
                context: a.get("--context"),
                features: a.features(),
            })))
        },
    },
    Subcommand {
        name: "sweep",
        usage: SWEEP_USAGE,
        flags: &[
            Flag(&["-s", "--spec"], Value::Text("a file argument")),
            CONFIG,
            TOPOLOGY,
            OUT_DIR,
            Flag(&["--shards"], Value::Count),
            TRACE,
            VERBOSE,
        ],
        build: |a| {
            let spec = a
                .get("-s")
                .ok_or_else(|| a.error("missing required -s <spec>"))?;
            Ok(a.simulate(SimRequest::Sweep(SweepRequest {
                spec: ConfigSource::Path(spec),
                base_config: a.config(),
                topologies: a.all("-t").map(TopologySource::from_path).collect(),
                shards: a.get("--shards").unwrap_or(1),
            })))
        },
    },
    Subcommand {
        name: "scaleout",
        usage: SCALEOUT_USAGE,
        flags: &[
            CONFIG,
            TOPOLOGY,
            WORKLOAD,
            OUT_DIR,
            GEMM,
            Flag(&["--chips"], Value::Count),
            Flag(&["--strategy"], Value::Text("a value")),
            Flag(&["--fabric"], Value::Text("a value")),
            Flag(&["--link-gbps"], Value::Gbps),
            TRACE,
            VERBOSE,
        ],
        // Strategy and fabric names are validated by the service.
        build: |a| {
            let format = if a.has("--gemm") {
                TopologyFormat::Gemm
            } else {
                TopologyFormat::Auto
            };
            let mut request = ScaleoutRequest::for_topology(a.workload(format)?);
            request.config = a.config();
            request.chips = a.get("--chips");
            request.strategy = a.get("--strategy");
            request.fabric = a.get("--fabric");
            request.link_gbps = a.get("--link-gbps");
            Ok(a.simulate(SimRequest::Scaleout(request)))
        },
    },
    Subcommand {
        name: "serve",
        usage: SERVE_USAGE,
        flags: &[
            Flag(&["--stdio"], Value::Switch),
            Flag(&["--listen"], Value::Text("an address")),
            Flag(&["--metrics-addr"], Value::Text("an address")),
            TRACE,
        ],
        build: |a| {
            if a.has("--stdio") && a.has("--listen") {
                return Err(a.error("--stdio and --listen are mutually exclusive"));
            }
            Ok(Command::Serve(ServeArgs {
                listen: a.get("--listen"),
                metrics_addr: a.get("--metrics-addr"),
                trace: a.get("--trace"),
            }))
        },
    },
];

/// The flags one command line set, keyed by canonical flag name in
/// argv order (switches carry an empty value), plus the usage string
/// its errors print.
struct Args {
    usage: &'static str,
    values: Vec<(&'static str, String)>,
}

impl Args {
    fn error(&self, message: impl Into<String>) -> CliError {
        CliError {
            message: message.into(),
            usage: self.usage,
        }
    }

    fn has(&self, name: &str) -> bool {
        self.all(name).next().is_some()
    }

    /// Every value given for `name`, in argv order.
    fn all<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a String> + 'a {
        self.values
            .iter()
            .filter(move |(n, _)| *n == name)
            .map(|(_, v)| v)
    }

    /// The last value given for `name` (a repeated flag overrides).
    /// Numeric values were validated against the flag table already.
    fn get<T: std::str::FromStr>(&self, name: &str) -> Option<T> {
        self.all(name).last().and_then(|v| v.parse().ok())
    }

    fn config(&self) -> ConfigSource {
        self.get("-c")
            .map_or(ConfigSource::Default, ConfigSource::Path)
    }

    fn features(&self) -> Features {
        Features {
            dram: self.has("--dram"),
            energy: self.has("--energy"),
            layout: self.has("--layout"),
            cores: None,
        }
    }

    /// The workload of a run or scale-out: exactly one of `-t` and `-w`.
    fn workload(&self, format: TopologyFormat) -> Result<TopologySource, CliError> {
        match (self.get::<String>("-t"), self.get::<String>("-w")) {
            (None, None) => Err(self.error("missing required -t <topology.csv> or -w <workload>")),
            (Some(_), Some(_)) => {
                Err(self.error("-t and -w are mutually exclusive (one workload per run)"))
            }
            (Some(path), None) => Ok(TopologySource::from_path(path).with_format(format)),
            (None, Some(workload)) => Ok(TopologySource::from_workload(workload)),
        }
    }

    fn simulate(&self, request: SimRequest) -> Command {
        Command::Simulate(
            request,
            Output {
                out_dir: self.get("-p").unwrap_or_else(|| PathBuf::from(".")),
                verbose: self.has("-v"),
                area: self.has("--area"),
                profile_stages: self.has("--profile-stages"),
                trace: self.get("--trace"),
            },
        )
    }
}

/// Parses a full argument vector (including `argv[0]`).
///
/// Every unknown flag, unknown subcommand, or flag missing its value is
/// an error carrying the appropriate usage string — the binary prints it
/// and exits non-zero.
///
/// # Errors
///
/// Returns a [`CliError`]; an empty `message` means help was requested
/// explicitly (`-h`/`--help`).
pub fn parse_cli<I>(argv: I) -> Result<Command, CliError>
where
    I: IntoIterator<Item = String>,
{
    let argv: Vec<String> = argv.into_iter().skip(1).collect();
    // Like -h, --version anywhere aborts normal parsing and wins.
    if argv.iter().any(|a| a == "--version" || a == "-V") {
        return Ok(Command::Version);
    }
    // A first argument naming a subcommand selects it; anything else is
    // a flag of the plain run (row 0).
    let named = SUBCOMMANDS[1..]
        .iter()
        .find(|sub| argv.first().is_some_and(|a| a == sub.name));
    let sub = named.unwrap_or(&SUBCOMMANDS[0]);
    let mut args = Args {
        usage: sub.usage,
        values: Vec::new(),
    };
    let mut argv = argv.into_iter().skip(named.is_some() as usize);
    while let Some(arg) = argv.next() {
        if arg == "-h" || arg == "--help" {
            return Err(args.error(""));
        }
        let Some(Flag(names, kind)) = sub.flags.iter().find(|f| f.0.contains(&arg.as_str())) else {
            return Err(args.error(format!("unknown argument '{arg}'")));
        };
        let (name, mut value) = (names[0], String::new());
        if let Some(noun) = kind.noun() {
            value = argv
                .next()
                .ok_or_else(|| args.error(format!("{name} requires {noun}")))?;
            if let Some(expected) = kind.rejects(&value) {
                return Err(args.error(format!("bad {name} '{value}' ({expected})")));
            }
        }
        args.values.push((name, value));
    }
    (sub.build)(&args)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(args: &[&str]) -> Vec<String> {
        std::iter::once("scalesim".to_string())
            .chain(args.iter().map(|s| s.to_string()))
            .collect()
    }

    fn simulate(args: &[&str]) -> (SimRequest, Output) {
        match parse_cli(argv(args)).unwrap() {
            Command::Simulate(request, output) => (request, output),
            other => panic!("expected a simulation command, got {other:?}"),
        }
    }

    #[test]
    fn run_command_round_trip() {
        let (request, output) = simulate(&["-t", "net.csv", "--gemm", "--energy", "-p", "out"]);
        let SimRequest::Run(spec) = request else {
            panic!("expected run request")
        };
        assert_eq!(
            spec.topology,
            TopologySource::from_path("net.csv").with_format(TopologyFormat::Gemm)
        );
        assert_eq!(spec.config, ConfigSource::Default);
        assert!(spec.features.energy && !spec.features.dram && !spec.features.layout);
        assert_eq!(output.out_dir, PathBuf::from("out"));
        assert!(!output.verbose && !output.area);
        // Without --gemm the topology parses as conv rows; long spellings
        // and a cfg path work too.
        let (request, output) = simulate(&["--topology", "n.csv", "--config", "a.cfg", "-v"]);
        let SimRequest::Run(spec) = request else {
            panic!("expected run request")
        };
        assert_eq!(spec.topology.format, TopologyFormat::Conv);
        assert_eq!(spec.config, ConfigSource::Path("a.cfg".into()));
        assert_eq!(output.out_dir, PathBuf::from("."));
        assert!(output.verbose);
    }

    #[test]
    fn workload_flag_round_trips_and_excludes_topology() {
        let (request, _) = simulate(&["-w", "llama-7b:decode"]);
        let SimRequest::Run(spec) = request else {
            panic!("expected run request")
        };
        assert_eq!(
            spec.topology,
            TopologySource::from_workload("llama-7b:decode")
        );
        let err = parse_cli(argv(&["-t", "net.csv", "-w", "resnet18"])).unwrap_err();
        assert!(
            err.message.contains("mutually exclusive"),
            "{}",
            err.message
        );
        let (request, _) = simulate(&["scaleout", "-w", "llama-7b:decode"]);
        let SimRequest::Scaleout(request) = request else {
            panic!("expected scaleout request")
        };
        assert_eq!(
            request.topology.workload.as_deref(),
            Some("llama-7b:decode")
        );
    }

    #[test]
    fn llm_command_round_trips() {
        let (request, output) = simulate(&[
            "llm",
            "-w",
            "llama-7b",
            "--phase",
            "decode",
            "--seq",
            "128",
            "--batch",
            "4",
            "--context",
            "2048",
            "-p",
            "out",
            "--energy",
            "-v",
        ]);
        let SimRequest::Llm(request) = request else {
            panic!("expected llm request")
        };
        assert_eq!(request.workload.as_deref(), Some("llama-7b"));
        assert_eq!(request.phase.as_deref(), Some("decode"));
        assert_eq!(request.seq, Some(128));
        assert_eq!(request.batch, Some(4));
        assert_eq!(request.context, Some(2048));
        assert!(request.features.energy && !request.features.dram);
        assert_eq!(output.out_dir, PathBuf::from("out"));
        assert!(output.verbose);
        // Minimal form: model resolution is deferred to the service so a
        // cfg [llm] section alone also works.
        let (request, _) = simulate(&["llm"]);
        assert_eq!(request, SimRequest::Llm(LlmRequest::default()));
    }

    #[test]
    fn llm_rejects_bad_flags_with_its_usage() {
        let err = parse_cli(argv(&["llm", "--wat"])).unwrap_err();
        assert!(err.message.contains("unknown argument '--wat'"));
        assert_eq!(err.usage, LLM_USAGE);
        for bad in [["--seq", "0"], ["--batch", "none"], ["--context", "-1"]] {
            let err = parse_cli(argv(&["llm", bad[0], bad[1]])).unwrap_err();
            assert_eq!(
                err.message,
                format!("bad {} '{}' (positive integer)", bad[0], bad[1])
            );
        }
        let err = parse_cli(argv(&["llm", "-w"])).unwrap_err();
        assert_eq!(err.message, "-w requires a preset name");
        let err = parse_cli(argv(&["llm", "-h"])).unwrap_err();
        assert!(err.message.is_empty());
        assert_eq!(err.usage, LLM_USAGE);
    }

    #[test]
    fn sweep_command_round_trip() {
        let (request, _) = simulate(&[
            "sweep", "-s", "grid.cfg", "-t", "a.csv", "-t", "b.csv", "--shards", "4",
        ]);
        let SimRequest::Sweep(request) = request else {
            panic!("expected sweep request")
        };
        assert_eq!(request.spec, ConfigSource::Path("grid.cfg".into()));
        assert_eq!(
            request.topologies,
            [
                TopologySource::from_path("a.csv"),
                TopologySource::from_path("b.csv")
            ],
            "repeatable, format auto-detected"
        );
        assert_eq!(request.shards, 4);
        let (request, _) = simulate(&["sweep", "-s", "grid.cfg"]);
        let SimRequest::Sweep(request) = request else {
            panic!("expected sweep request")
        };
        assert_eq!(request.shards, 1);
        assert!(request.topologies.is_empty());
    }

    #[test]
    fn unknown_flag_is_an_error_with_usage() {
        let err = parse_cli(argv(&["-t", "net.csv", "--frobnicate"])).unwrap_err();
        assert!(err.message.contains("unknown argument '--frobnicate'"));
        assert_eq!(err.usage, USAGE);
        // One subcommand's flags are unknown to another.
        let err = parse_cli(argv(&["llm", "--gemm"])).unwrap_err();
        assert_eq!(err.message, "unknown argument '--gemm'");
        let err = parse_cli(argv(&["-t", "net.csv", ""])).unwrap_err();
        assert_eq!(err.message, "unknown argument ''");
    }

    #[test]
    fn unknown_positional_is_an_error() {
        // A mistyped subcommand must not fall through to the run parser
        // silently succeeding.
        let err = parse_cli(argv(&["swep", "-s", "grid.cfg"])).unwrap_err();
        assert!(err.message.contains("unknown argument 'swep'"));
        // A subcommand name is only a subcommand in first position.
        let err = parse_cli(argv(&["-v", "sweep"])).unwrap_err();
        assert!(err.message.contains("unknown argument 'sweep'"));
        assert_eq!(err.usage, USAGE);
    }

    #[test]
    fn unknown_sweep_flag_uses_sweep_usage() {
        let err = parse_cli(argv(&["sweep", "-s", "g.cfg", "--wat"])).unwrap_err();
        assert!(err.message.contains("unknown argument '--wat'"));
        assert_eq!(err.usage, SWEEP_USAGE);
    }

    #[test]
    fn missing_value_and_missing_required() {
        assert_eq!(
            parse_cli(argv(&["-t"])).unwrap_err().message,
            "-t requires a file argument"
        );
        // The canonical spelling names the flag whichever was typed.
        assert_eq!(
            parse_cli(argv(&["--path"])).unwrap_err().message,
            "-p requires a directory"
        );
        assert!(parse_cli(argv(&[]))
            .unwrap_err()
            .message
            .contains("missing required -t"));
        assert!(parse_cli(argv(&["sweep"]))
            .unwrap_err()
            .message
            .contains("missing required -s"));
    }

    #[test]
    fn bad_shards_is_an_error() {
        for bad in ["0", "-1", "many"] {
            let err = parse_cli(argv(&["sweep", "-s", "g", "--shards", bad])).unwrap_err();
            assert!(err.message.contains("--shards"), "{bad}: {}", err.message);
        }
        let err = parse_cli(argv(&["sweep", "-s", "g", "--shards"])).unwrap_err();
        assert_eq!(err.message, "--shards requires a count");
    }

    #[test]
    fn version_flag_parses_anywhere() {
        assert_eq!(parse_cli(argv(&["--version"])).unwrap(), Command::Version);
        assert_eq!(parse_cli(argv(&["-V"])).unwrap(), Command::Version);
        // Like -h, it wins from any position in either command.
        assert_eq!(
            parse_cli(argv(&["-t", "net.csv", "--version"])).unwrap(),
            Command::Version
        );
        assert_eq!(
            parse_cli(argv(&["sweep", "-s", "g.toml", "-V"])).unwrap(),
            Command::Version
        );
    }

    #[test]
    fn version_string_names_tool_and_workspace_version() {
        let v = version_string();
        assert!(v.starts_with("scalesim "), "{v}");
        assert!(v.contains(env!("CARGO_PKG_VERSION")), "{v}");
        assert!(v.contains("git "), "{v}");
    }

    #[test]
    fn run_only_output_flags_round_trip() {
        let (_, output) = simulate(&["-t", "net.csv", "--profile-stages", "--area"]);
        assert!(output.profile_stages && output.area);
        let (_, output) = simulate(&["-t", "net.csv"]);
        assert!(!output.profile_stages && !output.area);
        let err = parse_cli(argv(&["llm", "--profile-stages"])).unwrap_err();
        assert!(err.message.contains("unknown argument"), "{}", err.message);
    }

    #[test]
    fn help_has_empty_message() {
        let err = parse_cli(argv(&["-h"])).unwrap_err();
        assert!(err.message.is_empty());
        assert_eq!(err.usage, USAGE);
        let err = parse_cli(argv(&["sweep", "-h"])).unwrap_err();
        assert!(err.message.is_empty());
        assert_eq!(err.usage, SWEEP_USAGE);
        let err = parse_cli(argv(&["serve", "-h"])).unwrap_err();
        assert!(err.message.is_empty());
        assert_eq!(err.usage, SERVE_USAGE);
        // Arguments are read in order: an earlier error beats a later -h.
        let err = parse_cli(argv(&["--wat", "-h"])).unwrap_err();
        assert!(err.message.contains("--wat"), "{}", err.message);
    }

    #[test]
    fn scaleout_command_round_trips() {
        let (request, output) = simulate(&[
            "scaleout",
            "-t",
            "net.csv",
            "--chips",
            "64",
            "--strategy",
            "tensor",
            "--fabric",
            "mesh",
            "--link-gbps",
            "37.5",
            "-p",
            "out",
        ]);
        let SimRequest::Scaleout(request) = request else {
            panic!("expected scaleout request")
        };
        assert_eq!(request.topology, TopologySource::from_path("net.csv"));
        assert_eq!(output.out_dir, PathBuf::from("out"));
        assert_eq!(request.chips, Some(64));
        assert_eq!(request.strategy.as_deref(), Some("tensor"));
        assert_eq!(request.fabric.as_deref(), Some("mesh"));
        assert_eq!(request.link_gbps, Some(37.5));
        // Minimal form: everything from the cfg.
        let (minimal, _) = simulate(&["scaleout", "-t", "net.csv", "--gemm"]);
        assert_eq!(
            minimal,
            SimRequest::Scaleout(ScaleoutRequest::for_topology(
                TopologySource::from_path("net.csv").with_format(TopologyFormat::Gemm)
            ))
        );
    }

    #[test]
    fn scaleout_rejects_bad_flags_with_its_usage() {
        let err = parse_cli(argv(&["scaleout", "-t", "n.csv", "--wat"])).unwrap_err();
        assert!(err.message.contains("unknown argument '--wat'"));
        assert_eq!(err.usage, SCALEOUT_USAGE);
        let err = parse_cli(argv(&["scaleout", "-t", "n.csv", "--chips", "0"])).unwrap_err();
        assert_eq!(err.message, "bad --chips '0' (positive integer)");
        for bad in ["-2", "inf", "fast"] {
            let err =
                parse_cli(argv(&["scaleout", "-t", "n.csv", "--link-gbps", bad])).unwrap_err();
            assert_eq!(
                err.message,
                format!("bad --link-gbps '{bad}' (positive GB/s)")
            );
        }
        let err = parse_cli(argv(&["scaleout", "--link-gbps"])).unwrap_err();
        assert_eq!(err.message, "--link-gbps requires a value");
        let err = parse_cli(argv(&["scaleout"])).unwrap_err();
        assert!(
            err.message.contains("missing required -t"),
            "{}",
            err.message
        );
        let err = parse_cli(argv(&["scaleout", "-h"])).unwrap_err();
        assert!(err.message.is_empty());
        assert_eq!(err.usage, SCALEOUT_USAGE);
    }

    #[test]
    fn serve_command_parses_modes() {
        assert_eq!(
            parse_cli(argv(&["serve"])).unwrap(),
            Command::Serve(ServeArgs::default())
        );
        assert_eq!(
            parse_cli(argv(&["serve", "--stdio"])).unwrap(),
            Command::Serve(ServeArgs::default())
        );
        assert_eq!(
            parse_cli(argv(&["serve", "--listen", "127.0.0.1:7878"])).unwrap(),
            Command::Serve(ServeArgs {
                listen: Some("127.0.0.1:7878".into()),
                ..ServeArgs::default()
            })
        );
        assert_eq!(
            parse_cli(argv(&[
                "serve",
                "--metrics-addr",
                "127.0.0.1:9090",
                "--trace",
                "t.json"
            ]))
            .unwrap(),
            Command::Serve(ServeArgs {
                listen: None,
                metrics_addr: Some("127.0.0.1:9090".into()),
                trace: Some(PathBuf::from("t.json")),
            })
        );
    }

    #[test]
    fn trace_flag_round_trips_on_every_subcommand() {
        for (cmdline, file) in [
            (vec!["-t", "net.csv", "--trace", "run.json"], "run.json"),
            (vec!["llm", "-w", "llama-7b", "--trace", "l.json"], "l.json"),
            (vec!["sweep", "-s", "g.cfg", "--trace", "s.json"], "s.json"),
            (
                vec!["scaleout", "-t", "n.csv", "--trace", "o.json"],
                "o.json",
            ),
        ] {
            let (_, output) = simulate(&cmdline);
            assert_eq!(output.trace, Some(PathBuf::from(file)));
        }
        // A dangling --trace is an error on every parser.
        for cmdline in [
            vec!["-t", "n.csv", "--trace"],
            vec!["llm", "--trace"],
            vec!["sweep", "-s", "g", "--trace"],
            vec!["scaleout", "-t", "n.csv", "--trace"],
            vec!["serve", "--trace"],
        ] {
            let err = parse_cli(argv(&cmdline)).unwrap_err();
            assert!(err.message.contains("--trace requires"), "{}", err.message);
        }
    }

    #[test]
    fn serve_rejects_conflicting_and_unknown_flags() {
        let err = parse_cli(argv(&["serve", "--stdio", "--listen", "x"])).unwrap_err();
        assert!(
            err.message.contains("mutually exclusive"),
            "{}",
            err.message
        );
        let err = parse_cli(argv(&["serve", "--wat"])).unwrap_err();
        assert!(err.message.contains("unknown argument '--wat'"));
        assert_eq!(err.usage, SERVE_USAGE);
        let err = parse_cli(argv(&["serve", "--listen"])).unwrap_err();
        assert!(err.message.contains("--listen requires"), "{}", err.message);
    }
}
