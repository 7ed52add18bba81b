//! `scalesim-bench`: the repository's one benchmark. It builds and
//! drives the real `scalesim` binary — CLI invocations and a spawned
//! `serve --listen` over TCP — for the end-to-end metrics, and runs a
//! separate traced pass plus in-process layer probes for the per-layer
//! ones. `README.md` beside this package says what is measured and why;
//! `BENCHMARK.json` at the repository root is the machine-readable form.
//!
//! ```text
//! scalesim-bench [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]
//!                [--quick] [--out FILE]
//! scalesim-bench --compare A.json B.json
//! ```
//!
//! Run from the repository root. Without `--workload` every workload
//! runs; without `--trace` both modes run; `--seconds` defaults to the
//! `run_seconds` of `BENCHMARK.json`, 15. The last line of standard
//! output is the result of the last run as one JSON object.

mod child;
mod cli;
mod compare;
mod measure;
mod metrics;
mod probes;
mod serve;
mod stats;
mod trace;
mod workloads;

use metrics::RunResult;
use scalesim::api::json::Json;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

const USAGE: &str = "usage: scalesim-bench [--workload NAME] [--seed N] [--seconds S] \
[--trace 0|1] [--quick] [--out FILE]\n       scalesim-bench --compare A.json B.json\n\
workloads: cold_plan, llm_decode, full_stages, sweep_grid, serve_mix (default: all)";

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    /// `None`: both the end-to-end and the per-layer run.
    trace: Option<bool>,
    /// One timed pass, one set-up, a 3 s budget, probes at one rep.
    quick: bool,
    /// Append the runs to this JSON file (the input of `--compare`).
    out: Option<PathBuf>,
    compare: Option<(PathBuf, PathBuf)>,
}

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: 15.0,
        trace: None,
        quick: false,
        out: None,
        compare: None,
    };
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                if !workloads::NAMES.contains(&name.as_str()) {
                    return Err(format!("unknown workload {name}"));
                }
                args.workload = Some(name);
            }
            "--seed" => args.seed = value()?.parse().map_err(|_| "--seed: not a whole number")?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|_| "--seconds: not a number")?;
                if !(args.seconds > 0.0 && args.seconds <= 60.0) {
                    return Err("--seconds must be within (0, 60]".into());
                }
            }
            "--trace" => {
                args.trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                })
            }
            "--quick" => args.quick = true,
            "--out" => args.out = Some(PathBuf::from(value()?)),
            "--compare" => args.compare = Some((value()?.into(), value()?.into())),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

/// Builds the `scalesim` binary from the repository's own workspace
/// (a no-op when it is fresh) and returns the target directory.
fn build_scalesim(root: &Path) -> Result<PathBuf, String> {
    if !root.join("crates/core/Cargo.toml").is_file() {
        return Err("run from the repository root (no crates/core/Cargo.toml here)".into());
    }
    let status = Command::new("cargo")
        .args([
            "build",
            "--release",
            "--offline",
            "-p",
            "scalesim",
            "--bin",
            "scalesim",
        ])
        .current_dir(root)
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("cargo: {e}"))?;
    if !status.success() {
        return Err("building the scalesim binary failed".into());
    }
    // Cargo resolves a relative CARGO_TARGET_DIR against its working
    // directory, which was `root`.
    let target = std::env::var_os("CARGO_TARGET_DIR").map_or("target".into(), PathBuf::from);
    Ok(root.join(target))
}

/// Scratch space inside the target directory, removed on drop.
struct WorkDir(PathBuf);

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Appends `results` to the runs already in `path` (a new file starts
/// an empty set), so that repeated invocations build one set of runs.
fn append_runs(path: &Path, results: &[RunResult], env: &cli::Env) -> Result<(), String> {
    let mut runs = match std::fs::read_to_string(path) {
        Ok(text) => Json::parse(&text)
            .ok()
            .and_then(|doc| doc.get("runs")?.as_array().map(<[Json]>::to_vec))
            .ok_or(format!(
                "{}: not a scalesim-bench result file",
                path.display()
            ))?,
        Err(_) => Vec::new(),
    };
    for result in results {
        let Json::Obj(mut fields) = result.to_json() else {
            unreachable!("a result is an object")
        };
        let head = [
            ("workload", Json::Str(result.workload.clone())),
            ("seed", Json::Num(result.seed as f64)),
            ("trace", Json::Num(f64::from(u8::from(result.traced)))),
            ("threads", Json::Num(env.threads as f64)),
        ];
        fields.splice(0..0, head.map(|(k, v)| (k.to_string(), v)));
        runs.push(Json::Obj(fields));
    }
    let doc = Json::Obj(vec![("runs".into(), Json::Arr(runs))]);
    std::fs::write(path, format!("{doc}\n")).map_err(|e| format!("{}: {e}", path.display()))
}

fn real_main() -> Result<ExitCode, String> {
    let args = parse_args(std::env::args().skip(1)).map_err(|e| format!("{e}\n{USAGE}"))?;
    let root = std::env::current_dir().map_err(|e| e.to_string())?;
    if let Some((a, b)) = &args.compare {
        let all_ok = compare::compare(&root.join("BENCHMARK.json"), a, b)?;
        return Ok(if all_ok {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        });
    }

    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    let threads = nproc.min(4);
    // The layer probes run in this process on the same scheduler size.
    std::env::set_var("SCALESIM_THREADS", threads.to_string());
    let target = build_scalesim(&root)?;
    let env = cli::Env {
        bin: target.join("release/scalesim"),
        threads,
    };
    let plan = measure::Plan {
        seed: args.seed,
        seconds: if args.quick {
            args.seconds.min(3.0)
        } else {
            args.seconds
        },
        min_passes: if args.quick { 1 } else { 5 },
        setups: if args.quick { 1 } else { 3 },
        probe_reps: if args.quick { 1 } else { 5 },
        startup_spawns: if args.quick { 3 } else { 20 },
        clients: nproc,
    };
    println!(
        "scalesim-bench: seed {}, {} s per run, SCALESIM_THREADS={threads}, {nproc} cores, {} serve clients",
        plan.seed, plan.seconds, plan.clients
    );

    let names: Vec<&str> = match &args.workload {
        Some(name) => vec![name.as_str()],
        None => workloads::NAMES.to_vec(),
    };
    let modes: Vec<bool> = args.trace.map_or(vec![false, true], |t| vec![t]);
    let mut results = Vec::new();
    for name in names {
        for &traced in &modes {
            let work =
                WorkDir(target.join(format!("scalesim-bench-work/{}-{name}", std::process::id())));
            std::fs::create_dir_all(&work.0).map_err(|e| e.to_string())?;
            let result = measure::run(&env, &plan, name, traced, &work.0)
                .map_err(|e| format!("{name}: {e}"))?;
            result.print();
            results.push(result);
        }
    }
    if let Some(path) = &args.out {
        append_runs(path, &results, &env)?;
    }
    let last = results.last().expect("at least one run");
    println!("{}", last.to_json());
    Ok(ExitCode::SUCCESS)
}

fn main() -> ExitCode {
    real_main().unwrap_or_else(|e| {
        eprintln!("scalesim-bench: {e}");
        ExitCode::from(2)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Args, String> {
        parse_args(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn the_drivers_arguments_parse() {
        let args = parse(&[
            "--workload",
            "serve_mix",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(args.workload.as_deref(), Some("serve_mix"));
        assert_eq!((args.seed, args.seconds, args.trace), (7, 10.0, Some(true)));
        let defaults = parse(&[]).unwrap();
        assert_eq!(
            (defaults.seed, defaults.seconds, defaults.trace),
            (1, 15.0, None)
        );
        assert!(defaults.workload.is_none() && !defaults.quick);
    }

    #[test]
    fn bad_arguments_are_refused() {
        assert!(parse(&["--workload", "nope"]).is_err());
        assert!(parse(&["--trace", "2"]).is_err());
        assert!(parse(&["--seconds", "0"]).is_err());
        assert!(parse(&["--seconds", "61"]).is_err());
        assert!(parse(&["--seed"]).is_err());
        assert!(parse(&["--compare", "a.json"]).is_err());
        assert!(parse(&["--frobnicate"]).is_err());
    }
}
