//! `scalesim` — command-line front end mirroring the Python tool's
//! interface: a `.cfg` architecture file plus a topology CSV in, report
//! CSVs out. The `sweep` subcommand runs a whole design-space grid; the
//! `scaleout` subcommand simulates multi-chip parallel execution; the
//! `serve` subcommand answers JSON-lines requests persistently.
//!
//! ```text
//! scalesim -c configs/tpu.cfg -t topologies/resnet18.csv -p ./results \
//!          [--gemm] [--dram] [--energy] [--layout]
//! scalesim sweep -s configs/example_sweep.toml -p ./results
//! scalesim scaleout -c configs/example_scaleout.cfg -t topologies/resnet18.csv
//! scalesim serve --listen 127.0.0.1:7878
//! ```
//!
//! Every command is a thin client of the same typed facade
//! ([`scalesim::service::SimService`]): argument vectors parse straight
//! into [`SimRequest`]s ([`scalesim::cli`], unit-tested there), the
//! simulation commands execute them through the entry point `serve`
//! uses and write the response's reports to disk, and failures are
//! categorized [`SimError`]s mapped to stable exit codes (config=2,
//! topology=3, io=4, internal=70; CLI usage errors stay 1). The full
//! reference is `docs/CLI.md`, the request protocol is `docs/API.md`.

use scalesim::api::{AreaSpec, Report, SimError, SimRequest, SimResponse};
use scalesim::cli::{parse_cli, version_string, Command, Output, ServeArgs};
use scalesim::scaleout::scaleout_rows;
use scalesim::serve::{ServeOptions, Server};
use scalesim::service::{Progress, SimService};
use scalesim::{CancelToken, ScaleSim};
use scalesim_obs as obs;
use std::path::Path;
use std::process::ExitCode;

/// Writes the recorded span rings as Chrome trace-event JSON. Runs
/// after the command finishes (even a failed run's partial timeline is
/// worth keeping); tracing itself never changes report bytes.
fn write_trace(path: &Path) {
    let write = || -> std::io::Result<()> {
        let mut file = std::io::BufWriter::new(std::fs::File::create(path)?);
        obs::write_chrome_trace(&mut file)?;
        use std::io::Write;
        file.flush()
    };
    match write() {
        Ok(()) => eprintln!("wrote {}", path.display()),
        Err(e) => eprintln!("error: cannot write trace {}: {e}", path.display()),
    }
}

/// Renders one progress event of the service as the stderr header or
/// `-v` line of the four simulation commands. Under `--profile-stages`
/// a clone of the run's engine is left in `profiled` to read the stage
/// totals back from (clones share them).
fn print_progress(event: Progress<'_>, output: &Output, profiled: &mut Option<ScaleSim>) {
    match event {
        Progress::Run {
            sim,
            topology,
            llm: None,
        } => {
            if output.profile_stages {
                *profiled = Some(sim.clone());
            }
            let config = sim.config();
            eprintln!(
                "scalesim: {} layers of '{}' on a {} {} core{}",
                topology.len(),
                topology.name(),
                config.core.array,
                config.core.dataflow,
                if config.sparsity.is_some() {
                    " (sparse)"
                } else {
                    ""
                },
            );
        }
        Progress::Run {
            sim,
            topology,
            llm: Some(llm),
        } => {
            let context = llm.effective_context();
            eprintln!(
                "scalesim llm: {} {} ({} GEMMs, {:.2}B params, {:.1} MiB KV cache @ ctx {}) \
                 on a {} {} core",
                llm.spec.name,
                llm.phase,
                topology.len(),
                llm.spec
                    .param_count()
                    .expect("sizes checked by LlmRunSpec::topology") as f64
                    / 1e9,
                llm.spec
                    .kv_cache_bytes(context)
                    .expect("sizes checked by LlmRunSpec::topology") as f64
                    / (1024.0 * 1024.0),
                context,
                sim.config().core.array,
                sim.config().core.dataflow,
            );
        }
        Progress::Layer(r) if output.verbose => eprintln!(
            "  {:<16} {:>12} cycles ({:>3.0}% util, {} stalls)",
            r.name,
            r.total_cycles(),
            r.report.compute.utilization * 100.0,
            r.stall_cycles()
        ),
        Progress::Sweep {
            spec,
            topologies,
            shards,
        } => {
            let grid_size = spec.grid_size();
            eprintln!(
                "scalesim sweep '{}': {} grid points x {} topologies = {} runs ({} shards)",
                spec.name,
                grid_size,
                topologies,
                grid_size * topologies,
                shards,
            );
            if output.verbose {
                for point in spec.expand() {
                    eprintln!("  point {:>3}: {}", point.index, point.label());
                }
            }
        }
        // Per-run records arrive as shards complete (the report itself
        // stays deterministic: it sorts by run index).
        Progress::SweepRun(r) if output.verbose => eprintln!(
            "  run {:>3} {:<28} {:<12} {:>12} cycles {:>10.4} mJ",
            r.run, r.point_label, r.topology, r.total_cycles, r.energy_mj,
        ),
        Progress::Scaleout { topology, spec } => eprintln!(
            "scalesim scaleout: {} layers of '{}' on {} chips ({} parallel, {} fabric)",
            topology.len(),
            topology.name(),
            spec.chips,
            spec.strategy.name(),
            spec.fabric.tag(),
        ),
        Progress::ScaleoutLayer(r) if output.verbose => {
            eprint!("  {}", scaleout_rows::scaleout(r))
        }
        _ => {}
    }
}

/// `, <energy> mJ` when the request enabled energy estimation.
fn energy_suffix(enabled: bool, energy_mj: f64) -> String {
    if enabled {
        format!(", {energy_mj:.3} mJ")
    } else {
        String::new()
    }
}

/// Prints the `--profile-stages` table and returns its machine-readable
/// twin (`STAGE_PROFILE.json`), both from the same span measurements.
fn stage_profile(sim: &ScaleSim) -> Report {
    let profile = sim.stage_profile();
    let total_ms: f64 = profile.iter().map(|t| t.millis()).sum();
    eprintln!("stage profile ({total_ms:.1} ms total):");
    let mut rows = Vec::new();
    for t in &profile {
        eprintln!(
            "  {:<10} {:>6} calls {:>10.3} ms ({:>5.1}%)",
            t.stage,
            t.calls,
            t.millis(),
            if total_ms > 0.0 {
                t.millis() / total_ms * 100.0
            } else {
                0.0
            },
        );
        rows.push(format!(
            "{{\"stage\":\"{}\",\"calls\":{},\"nanos\":{}}}",
            t.stage, t.calls, t.nanos
        ));
    }
    Report {
        name: "STAGE_PROFILE.json".into(),
        content: format!("{{\"stages\":[{}]}}\n", rows.join(",")),
    }
}

/// Runs one simulation command: executes `request` exactly as `serve`
/// would (same service entry point, never-expiring token), renders its
/// progress on stderr, then writes the response's reports into `-p`.
fn simulate(service: &SimService, request: &SimRequest, output: &Output) -> Result<(), SimError> {
    let started = std::time::Instant::now();
    let mut profiled = None;
    let mut cache = None;
    let response = service.execute(request, &CancelToken::never(), &mut |event| match event {
        Progress::SweepCache(stats) => cache = Some((stats, started.elapsed())),
        event => print_progress(event, output, &mut profiled),
    })?;

    // Summary lines first, then the files; a sweep closes with its
    // timing line instead.
    let mut closing = None;
    let reports = match (request, response) {
        (SimRequest::Run(spec), SimResponse::Run(body)) => {
            let mut reports = body.reports;
            if output.area {
                let area = service.handle(&SimRequest::AreaReport(AreaSpec {
                    config: spec.config.clone(),
                    features: spec.features.clone(),
                }))?;
                let SimResponse::Area(area) = area else {
                    unreachable!("an area request answers with an area body")
                };
                eprintln!(
                    "area: {:.1} mm2 total ({:.1} PE array, {:.1} SRAM, {:.1} NoC, \
                     {:.1} DRAM ctrl)",
                    area.total_mm2,
                    area.pe_array_mm2,
                    area.sram_mm2,
                    area.noc_mm2,
                    area.dram_ctrl_mm2,
                );
                reports.extend(area.reports);
            }
            let s = &body.summary;
            eprintln!(
                "total: {} cycles ({} compute + {} stalls){}",
                s.total_cycles,
                s.compute_cycles,
                s.stall_cycles,
                energy_suffix(spec.features.energy, s.energy_mj),
            );
            reports.extend(profiled.as_ref().map(stage_profile));
            reports
        }
        (SimRequest::Llm(spec), SimResponse::Llm(body)) => {
            let s = &body.summary;
            eprintln!(
                "total: {} cycles ({} compute + {} stalls), utilization {:.1}%{}",
                s.total_cycles,
                s.compute_cycles,
                s.stall_cycles,
                s.utilization * 100.0,
                energy_suffix(spec.features.energy, s.energy_mj),
            );
            body.reports
        }
        (_, SimResponse::Sweep(body)) => {
            let (stats, elapsed) = cache.expect("a finished sweep reports its cache");
            closing = Some(format!(
                "sweep done in {:.2}s: plan cache {} — pareto frontier: {}",
                elapsed.as_secs_f64(),
                stats,
                body.pareto_frontier.join(", "),
            ));
            body.reports
        }
        (_, SimResponse::Scaleout(body)) => {
            eprintln!(
                "total: {} cycles on {} ({} compute + {} exposed comm{}); \
                 {} of {} comm cycles hidden, utilization {:.1}%",
                body.total_cycles,
                body.fabric,
                body.compute_cycles,
                body.exposed_cycles,
                if body.bubble_cycles > 0 {
                    format!(" + {} pipeline bubble", body.bubble_cycles)
                } else {
                    String::new()
                },
                body.overlapped_cycles,
                body.comm_cycles,
                body.utilization * 100.0,
            );
            body.reports
        }
        (request, _) => unreachable!("{request:?} is not a simulation command"),
    };

    std::fs::create_dir_all(&output.out_dir)
        .map_err(|e| SimError::Io(format!("cannot create {}: {e}", output.out_dir.display())))?;
    for report in reports {
        let path = output.out_dir.join(&report.name);
        std::fs::write(&path, &report.content)
            .map_err(|e| SimError::Io(format!("write {}: {e}", path.display())))?;
        eprintln!("wrote {}", path.display());
    }
    if let Some(line) = closing {
        eprintln!("{line}");
    }
    Ok(())
}

/// Serves Prometheus text exposition over minimal HTTP: every request
/// (any method, any path) gets a 200 with the current metrics body.
/// Scrape failures never disturb serving — the thread just moves to the
/// next connection.
fn serve_metrics(service: SimService, listener: std::net::TcpListener) {
    use std::io::{BufRead, Write};
    for stream in listener.incoming() {
        let Ok(stream) = stream else { continue };
        let mut reader = std::io::BufReader::new(stream);
        // Drain the request head (request line + headers) so the peer
        // sees a well-formed exchange.
        let mut line = String::new();
        while reader.read_line(&mut line).is_ok() && line.trim_end() != "" {
            line.clear();
        }
        // One write for the whole response: `write!` on the bare
        // stream would send a segment per format piece.
        let body = service.render_prometheus();
        let response = format!(
            "HTTP/1.1 200 OK\r\nContent-Type: text/plain; version=0.0.4\r\n\
             Content-Length: {}\r\nConnection: close\r\n\r\n{body}",
            body.len()
        );
        let _ = reader.into_inner().write_all(response.as_bytes());
    }
}

fn serve(service: &SimService, args: ServeArgs) -> Result<(), SimError> {
    let options = ServeOptions::from_env();
    let server = Server::new(service.clone(), options);
    if let Some(addr) = &args.metrics_addr {
        let listener = std::net::TcpListener::bind(addr)
            .map_err(|e| SimError::Io(format!("cannot listen on {addr} for metrics: {e}")))?;
        let bound = listener
            .local_addr()
            .map_err(|e| SimError::Io(format!("metrics local_addr: {e}")))?;
        eprintln!("scalesim serve: metrics on http://{bound}/metrics");
        let metrics_service = service.clone();
        std::thread::Builder::new()
            .name("metrics".into())
            .spawn(move || serve_metrics(metrics_service, listener))
            .map_err(|e| SimError::Internal(format!("metrics thread: {e}")))?;
    }
    match args.listen {
        None => {
            eprintln!("scalesim serve: reading JSON-lines requests from stdin");
            let stdin = std::io::stdin();
            let stdout = std::io::stdout();
            server
                .serve_session(stdin.lock(), stdout.lock())
                .map_err(|e| SimError::Io(format!("stdio session: {e}")))
        }
        Some(addr) => {
            let listener = std::net::TcpListener::bind(&addr)
                .map_err(|e| SimError::Io(format!("cannot listen on {addr}: {e}")))?;
            let bound = listener
                .local_addr()
                .map_err(|e| SimError::Io(format!("local_addr: {e}")))?;
            eprintln!(
                "scalesim serve: listening on {bound} ({} sessions)",
                options.max_sessions
            );
            server
                .serve_listener(listener)
                .map_err(|e| SimError::Io(format!("accept: {e}")))
        }
    }
}

fn main() -> ExitCode {
    obs::label_thread("main");
    let service = SimService::new();
    let command = match parse_cli(std::env::args()) {
        Ok(command) => command,
        Err(e) => {
            if !e.message.is_empty() {
                eprintln!("error: {}\n", e.message);
            }
            eprintln!("{}", e.usage);
            return ExitCode::FAILURE;
        }
    };
    let (trace, name) = match &command {
        Command::Simulate(_, output) => (output.trace.clone(), "simulate"),
        Command::Serve(args) => (args.trace.clone(), "serve"),
        Command::Version => (None, "version"),
    };
    if trace.is_some() {
        obs::set_tracing(true);
    }
    // The command's own span gives the main thread a track of its own,
    // even when the pool's workers claim every layer before it does.
    let command_span = obs::span(obs::Category::Pipeline, name);
    let result = match command {
        Command::Version => {
            println!("{}", version_string());
            return ExitCode::SUCCESS;
        }
        Command::Simulate(request, output) => simulate(&service, &request, &output),
        Command::Serve(args) => serve(&service, args),
    };
    drop(command_span);
    if let Some(path) = &trace {
        write_trace(path);
    }
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            // The SimError taxonomy pins the exit code: config=2,
            // topology=3, io=4, internal=70 (docs/API.md).
            ExitCode::from(e.exit_code())
        }
    }
}
