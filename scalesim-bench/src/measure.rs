//! One run of one workload: the end-to-end measurement (tracing off)
//! or the per-layer one (a separate traced pass, then the layer probes).

use crate::child;
use crate::cli::{self, ratio, Env, Pass, SimTotals, TraceData};
use crate::metrics::RunResult;
use crate::probes;
use crate::serve::{self, Deck, Sample, ServerStats, Session};
use crate::stats::{median, percentile, tail};
use crate::trace::{self, Event, SpanTotals};
use crate::workloads;
use scalesim::systolic::Topology;
use scalesim::ScaleSimConfig;
use std::io;
use std::path::Path;
use std::time::{Duration, Instant};

/// How much of everything one run does.
pub struct Plan {
    pub seed: u64,
    /// Seconds of timed measurement.
    pub seconds: f64,
    /// Timed passes a CLI workload runs at least, however short `seconds`.
    pub min_passes: usize,
    /// Times set-up is repeated; `setup_s` is their median.
    pub setups: usize,
    /// Timed calls per layer probe.
    pub probe_reps: usize,
    /// `scalesim --version` spawns behind `host.startup_ms`.
    pub startup_spawns: usize,
    /// Closed-loop clients of `serve_mix`: the machine's parallelism.
    pub clients: usize,
}

pub fn run(
    env: &Env,
    plan: &Plan,
    workload: &str,
    traced: bool,
    work: &Path,
) -> io::Result<RunResult> {
    let mut result = RunResult::new(workload, plan.seed, traced);
    match (workload == workloads::SERVE_MIX, traced) {
        (false, false) => cli_end_to_end(env, plan, workload, work, &mut result)?,
        (false, true) => cli_per_layer(env, plan, workload, work, &mut result)?,
        (true, false) => serve_end_to_end(env, plan, work, &mut result)?,
        (true, true) => serve_per_layer(env, plan, work, &mut result)?,
    }
    Ok(result)
}

/// Counts a pass's operations into `result`, checking each command's
/// cycle columns against the first pass that ran it.
fn tally(result: &mut RunResult, pass: &Pass, reference: &mut Vec<Option<String>>) {
    reference.resize(pass.checks.len(), None);
    for (check, reference) in pass.checks.iter().zip(reference) {
        result.attempted += 1;
        match check {
            Err(why) => result.fail(1, why.clone()),
            Ok((_, signature)) => match reference {
                Some(first) if first != signature => {
                    result.fail(1, "cycle columns differ from an earlier pass".into())
                }
                Some(_) => {}
                None => *reference = Some(signature.clone()),
            },
        }
    }
}

fn cli_end_to_end(
    env: &Env,
    plan: &Plan,
    workload: &str,
    work: &Path,
    result: &mut RunResult,
) -> io::Result<()> {
    let cmds = workloads::commands(workload);
    let mut reference = Vec::new();
    let inputs = work.join("inputs");

    // Set-up: generate the inputs, then one discarded warm-up pass.
    let mut setup_s = Vec::new();
    for i in 0..plan.setups {
        let start = Instant::now();
        workloads::generate_inputs(&inputs, plan.seed)?;
        let warm_up = cli::run_pass(env, &cmds, &inputs, &work.join(format!("warm{i}")), None)?;
        setup_s.push(start.elapsed().as_secs_f64());
        tally(result, &warm_up, &mut reference);
    }

    let mut passes: Vec<Pass> = Vec::new();
    let start = Instant::now();
    while passes.len() < plan.min_passes || start.elapsed().as_secs_f64() < plan.seconds {
        let out = work.join(format!("pass{}", passes.len()));
        let pass = cli::run_pass(env, &cmds, &inputs, &out, None)?;
        tally(result, &pass, &mut reference);
        std::fs::remove_dir_all(&out)?;
        passes.push(pass);
    }

    let walls: Vec<f64> = passes.iter().map(|p| p.wall_s).collect();
    let wall = median(&walls);
    let runs: usize = cmds.iter().map(|c| c.runs).sum();
    let rss: Vec<f64> = passes.iter().filter_map(Pass::peak_rss_mb).collect();
    result.set("setup_s", median(&setup_s));
    result.set("latency_p50_ms", wall * 1e3);
    result.set("runs_per_s", runs as f64 / wall);
    result.set(
        "sim_mcycles_per_host_s",
        passes[0].sim().total_cycles as f64 / 1e6 / wall,
    );
    result.set_opt("peak_rss_mb", (!rss.is_empty()).then(|| median(&rss)));
    result.notes.push(format!(
        "latency_p50_ms is the median wall of {} passes of {} commands: min {:.1} ms, max {:.1} ms",
        passes.len(),
        cmds.len(),
        percentile(&walls, 0.0) * 1e3,
        percentile(&walls, 100.0) * 1e3,
    ));
    Ok(())
}

/// Sets the metrics read from spans: the same names whether the spans
/// came from CLI trace files or from a server's `trace` reply.
fn set_span_metrics(result: &mut RunResult, spans: &SpanTotals) {
    let hits = spans.count("cache", "hit");
    let misses = spans.count("cache", "plan");
    result.set("systolic.plancache.hits", hits);
    result.set("systolic.plancache.misses", misses);
    result.set("systolic.plancache.hit_ratio", ratio(hits, hits + misses));
    result.set(
        "systolic.plancache.plan_span_s",
        spans.secs("cache", "plan"),
    );
    result.set("mem.retime_s", spans.secs("dram", "re-time"));
    result.set(
        "mem.retime_entries",
        spans.arg_sum("dram", "re-time", "entries"),
    );
    result.set(
        "sched.run_s",
        spans.secs("sched", "run-scope") + spans.secs("sched", "run-detached"),
    );
    result.set("sched.park_s", spans.secs("sched", "park"));
    result.set("sched.steals", spans.count("sched", "steal"));
    result.set(
        "sched.spawns",
        spans.count("sched", "run-scope") + spans.count("sched", "run-detached"),
    );
    result.set("sweep.point_s", spans.secs("sweep", "point"));
    result.set("sweep.points", spans.count("sweep", "point"));
    result.set(
        "collective.overlap_events",
        spans.count("collective", "overlap-window"),
    );
    result.set("obs.trace_events", spans.events);
}

fn set_stage_metrics(result: &mut RunResult, trace: &TraceData) {
    let secs = |stage: &str| trace.stages.get(stage).map_or(0.0, |(_, s)| *s);
    result.set("core.pipeline.sparsify_s", secs("sparsify"));
    result.set("core.pipeline.compute_s", secs("compute"));
    result.set("core.pipeline.dram_s", secs("dram"));
    result.set("core.pipeline.layout_s", secs("layout"));
    result.set("core.pipeline.sparse_s", secs("sparse"));
    result.set("core.pipeline.energy_s", secs("energy"));
    let calls: f64 = trace.stages.values().map(|(calls, _)| calls).sum();
    result.set("core.pipeline.stage_calls", calls);
}

fn set_sim_metrics(result: &mut RunResult, sim: &SimTotals) {
    result.set("sim.total_cycles", sim.total_cycles as f64);
    result.set("sim.compute_cycles", sim.compute_cycles as f64);
    result.set("sim.stall_cycles", sim.stall_cycles as f64);
    result.set("sim.macs", sim.macs as f64);
    result.set("sim.utilization", sim.utilization());
    result.set("sim.energy_mj", sim.energy_mj);
    result.set("sim.dram_requests", sim.dram_requests as f64);
    result.set("sim.dram_row_hit_rate", sim.dram_row_hit_rate());
    result.set("sim.layers", sim.layers as f64);
}

/// `host.startup_ms`: the floor under every CLI operation.
fn set_startup(env: &Env, plan: &Plan, result: &mut RunResult) -> io::Result<()> {
    let mut ms = Vec::new();
    for _ in 0..plan.startup_spawns {
        let usage = child::run(env.scalesim().arg("--version"), cli::COMMAND_TIMEOUT)?;
        result.attempted += 1;
        if !usage.ok {
            result.fail(1, "`scalesim --version` failed".into());
        }
        ms.push(usage.wall_s * 1e3);
    }
    result.set("host.startup_ms", median(&ms));
    Ok(())
}

fn set_probes(plan: &Plan, sims: &[(ScaleSimConfig, Topology)], result: &mut RunResult) {
    for (name, value) in probes::run(sims, plan.probe_reps) {
        result.set(name, value);
    }
}

fn cli_per_layer(
    env: &Env,
    plan: &Plan,
    workload: &str,
    work: &Path,
    result: &mut RunResult,
) -> io::Result<()> {
    let cmds = workloads::commands(workload);
    let mut reference = Vec::new();
    let inputs = work.join("inputs");
    workloads::generate_inputs(&inputs, plan.seed)?;
    let warm_up = cli::run_pass(env, &cmds, &inputs, &work.join("warm"), None)?;
    tally(result, &warm_up, &mut reference);

    // Untraced and traced passes alternate for half the time; the
    // probes get the other half.
    let (mut plain, mut traced): (Vec<Pass>, Vec<Pass>) = (Vec::new(), Vec::new());
    let mut all = TraceData::default();
    let start = Instant::now();
    while traced.is_empty() || start.elapsed().as_secs_f64() < plan.seconds / 2.0 {
        for with_trace in [false, true] {
            let out = work.join(format!("pass{}", plain.len() + traced.len()));
            let pass = cli::run_pass(env, &cmds, &inputs, &out, with_trace.then_some(&mut all))?;
            tally(result, &pass, &mut reference);
            std::fs::remove_dir_all(&out)?;
            if with_trace { &mut traced } else { &mut plain }.push(pass);
        }
    }
    all.per_pass(traced.len());
    set_span_metrics(result, &all.spans);
    set_stage_metrics(result, &all);
    let planned = all.spans.arg_sum("cache", "plan", "bytes");
    let evicted = all.spans.arg_sum("cache", "evict", "bytes");
    result.set("systolic.plancache.resident_mb", (planned - evicted) / 1e6);

    let wall = |passes: &[Pass]| median(&passes.iter().map(|p| p.wall_s).collect::<Vec<_>>());
    result.set(
        "obs.trace_overhead_ratio",
        ratio(wall(&traced), wall(&plain)),
    );
    let cpu = |pick: fn(&child::Usage) -> Option<f64>| -> Option<f64> {
        let per_pass: Option<Vec<f64>> = plain
            .iter()
            .map(|p| p.usage.iter().map(pick).sum::<Option<f64>>())
            .collect();
        per_pass.map(|v| median(&v))
    };
    result.set_opt("host.cpu_user_s", cpu(|u| u.cpu_user_s));
    result.set_opt("host.cpu_sys_s", cpu(|u| u.cpu_sys_s));
    result.set("host.threads", env.threads as f64);
    set_sim_metrics(result, &plain[0].sim());
    set_startup(env, plan, result)?;
    let sims: Vec<_> = cmds.iter().flat_map(|c| c.sims.iter().cloned()).collect();
    set_probes(plan, &sims, result);
    result.set("host.fail_ratio", result.fail_ratio());
    result.notes.push(format!(
        "span metrics are means over {} traced passes; obs.trace_overhead_ratio compares them with {} untraced ones",
        traced.len(),
        plain.len()
    ));
    Ok(())
}

/// Counts a session's requests into `result`.
fn tally_session(result: &mut RunResult, session: &Session) {
    result.attempted += session.samples.len() as u64;
    let refused = session.samples.iter().filter(|s| s.sim.is_none()).count();
    if refused > 0 {
        result.fail(refused, format!("{refused} requests got no ok reply"));
    }
    let inconsistent = serve::inconsistent_replies(&session.samples);
    if inconsistent > 0 {
        let why = format!("{inconsistent} replies changed a slot's total_cycles");
        result.fail(inconsistent, why);
    }
}

fn timed(samples: &[Sample]) -> impl Iterator<Item = &Sample> {
    samples.iter().filter(|s| s.timed)
}

fn latencies(samples: &[Sample]) -> Vec<f64> {
    timed(samples).map(|s| s.latency_ms).collect()
}

/// One pooled topology through the CLI must match the wire.
fn cross_check_cli(
    env: &Env,
    session: &Session,
    seed: u64,
    work: &Path,
    result: &mut RunResult,
) -> io::Result<()> {
    let inputs = work.join("inputs");
    workloads::generate_inputs(&inputs, seed)?;
    let csv = serve::slot_topology(0);
    std::fs::write(inputs.join("mix0.csv"), &csv)?;
    let cmd = workloads::serve_slot0_cmd(&csv);
    let pass = cli::run_pass(env, &[cmd], &inputs, &work.join("cross"), None)?;
    tally(result, &pass, &mut Vec::new());
    let cli_cycles = pass.sim().total_cycles;
    let wire_cycles = session
        .samples
        .iter()
        .find(|s| s.slot == 0)
        .and_then(|s| s.sim.as_ref())
        .map(|sim| sim.total_cycles);
    if wire_cycles != Some(cli_cycles) {
        let why = format!(
            "slot 0 over the wire gave {wire_cycles:?} cycles, through the CLI {cli_cycles}"
        );
        result.fail(1, why);
    }
    Ok(())
}

fn serve_end_to_end(env: &Env, plan: &Plan, work: &Path, result: &mut RunResult) -> io::Result<()> {
    let deck = Deck::new();
    let window = Duration::from_secs_f64(plan.seconds);
    // Set-up: spawn to `listening`, then one warm-up deck per client.
    // Only the last server lives on into the timed window.
    let mut setup_s = Vec::new();
    for _ in 1..plan.setups {
        let warm_up = serve::session(env, &deck, plan.seed, plan.clients, None, None)?;
        setup_s.push(warm_up.setup_s);
        tally_session(result, &warm_up);
    }
    let session = serve::session(env, &deck, plan.seed, plan.clients, Some(window), None)?;
    setup_s.push(session.setup_s);
    tally_session(result, &session);
    cross_check_cli(env, &session, plan.seed, work, result)?;

    let ms = latencies(&session.samples);
    let ok: Vec<&SimTotals> = timed(&session.samples)
        .filter_map(|s| s.sim.as_ref())
        .collect();
    let cycles: u64 = ok.iter().map(|sim| sim.total_cycles).sum();
    // Rates run to the last reply inside the window, not to the
    // window's nominal end, which the last reply misses by up to one
    // latency.
    let elapsed = timed(&session.samples)
        .map(|s| s.done.duration_since(session.opened).as_secs_f64())
        .fold(0.0, f64::max);
    result.set("setup_s", median(&setup_s));
    result.set("latency_p50_ms", median(&ms));
    result.set("runs_per_s", ratio(ok.len() as f64, elapsed));
    result.set(
        "sim_mcycles_per_host_s",
        ratio(cycles as f64 / 1e6, elapsed),
    );
    result.set_opt("peak_rss_mb", session.peak_rss_mb);
    let (pct, tail_ms) = tail(&ms);
    result.notes.push(format!(
        "{} clients, closed loop, {} s window: {} replies, p{pct} {tail_ms:.2} ms, max {:.2} ms",
        plan.clients,
        plan.seconds,
        ms.len(),
        percentile(&ms, 100.0)
    ));
    Ok(())
}

/// Server-side view of the requests numbered above `after_req`: the
/// `decode`→`respond` time of each (the server's own latency), plus
/// the events that began once the first of them was decoded.
fn window_events(events: &[Event], after_req: f64) -> (Vec<f64>, Vec<Event>) {
    // (request number, timestamp) of the window's `name` instants.
    let instants = |name: &str| -> Vec<(u64, f64)> {
        let mut at: Vec<(u64, f64)> = events
            .iter()
            .filter(|e| e.cat == "serve" && e.name == name)
            .filter_map(|e| Some((e.arg("req")?, e.ts_us)))
            .filter(|(req, _)| *req > after_req)
            .map(|(req, ts)| (req as u64, ts))
            .collect();
        at.sort_by_key(|(req, _)| *req);
        at
    };
    let (decoded, responded) = (instants("decode"), instants("respond"));
    let mut server_ms = Vec::new();
    let mut responded = responded.iter().peekable();
    for (req, start) in &decoded {
        while responded.next_if(|(r, _)| r < req).is_some() {}
        if let Some((_, end)) = responded.next_if(|(r, _)| r == req) {
            server_ms.push((end - start) / 1e3);
        }
    }
    let opens = decoded
        .iter()
        .map(|(_, ts)| *ts)
        .fold(f64::INFINITY, f64::min);
    let later = events
        .iter()
        .filter(|e| e.ts_us >= opens)
        .cloned()
        .collect();
    (server_ms, later)
}

fn serve_per_layer(env: &Env, plan: &Plan, work: &Path, result: &mut RunResult) -> io::Result<()> {
    let deck = Deck::new();
    // An untraced and a traced server get a third of the time each;
    // the probes take about as long again.
    let window = Duration::from_secs_f64(plan.seconds / 3.0);
    let plain = serve::session(env, &deck, plan.seed, plan.clients, Some(window), None)?;
    tally_session(result, &plain);
    let trace_file = work.join("serve_trace.json");
    let traced = serve::session(
        env,
        &deck,
        plan.seed,
        plan.clients,
        Some(window),
        Some(&trace_file),
    )?;
    tally_session(result, &traced);

    let (before, after) = traced.stats.unwrap_or_else(|| {
        result.fail(1, "a `stats` request failed".into());
        (ServerStats::default(), ServerStats::default())
    });
    let events = match traced.trace.as_deref().map(trace::parse_trace) {
        Some(Ok(events)) => events,
        other => {
            let why = format!("no usable `trace` reply: {:?}", other.map(|r| r.err()));
            result.fail(1, why);
            Vec::new()
        }
    };
    // `before` answered request number `requests_total`; the window's
    // requests are the ones after it.
    let (server_ms, later) = window_events(&events, before.requests_total);
    let mut data = TraceData::default();
    data.add(&later, None);
    let spans = &data.spans;
    set_span_metrics(result, spans);
    set_stage_metrics(result, &data);
    // The cache counters come from `stats`, which also sees the hits of
    // requests that ended before a span could be recorded.
    let hits = after.cache_hits - before.cache_hits;
    let misses = after.cache_misses - before.cache_misses;
    result.set("systolic.plancache.hits", hits);
    result.set("systolic.plancache.misses", misses);
    result.set("systolic.plancache.hit_ratio", ratio(hits, hits + misses));
    result.set(
        "systolic.plancache.resident_mb",
        after.cache_resident_bytes / 1e6,
    );
    result.set("serve.shed", after.shed - before.shed);
    result.set(
        "serve.deadline_expired",
        after.deadline_expired - before.deadline_expired,
    );
    let mean_ms = |name: &str| ratio(spans.secs("serve", name) * 1e3, spans.count("serve", name));
    result.set("serve.queue_ms_mean", mean_ms("queue"));
    result.set("serve.execute_ms_mean", mean_ms("execute"));
    let server_p50 = median(&server_ms);
    result.set("serve.server_p50_ms", server_p50);
    result.set("serve.server_p99_ms", percentile(&server_ms, 99.0));
    let traced_p50 = median(&latencies(&traced.samples));
    result.set("serve.wire_gap_ms", traced_p50 - server_p50);

    let plain_ms = latencies(&plain.samples);
    let (pct, tail_ms) = tail(&plain_ms);
    result.set("serve.client_tail_ms", tail_ms);
    result.set("serve.client_tail_pct", pct);
    result.set("serve.client_samples", plain_ms.len() as f64);
    result.set(
        "obs.trace_overhead_ratio",
        ratio(traced_p50, median(&plain_ms)),
    );
    result.set_opt("host.cpu_user_s", plain.cpu_s.map(|(user, _)| user));
    result.set_opt("host.cpu_sys_s", plain.cpu_s.map(|(_, sys)| sys));
    result.set("host.threads", env.threads as f64);
    set_sim_metrics(result, &serve::deck_totals(&plain.samples));
    set_startup(env, plan, result)?;
    set_probes(plan, &workloads::serve_sims(), result);
    result.set("host.fail_ratio", result.fail_ratio());
    result.notes.push(format!(
        "serve.client_tail_ms is p{pct} of {} client samples; sim.* are one deck's totals",
        plain_ms.len()
    ));
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn serve_event(name: &str, req: f64, ts_us: f64) -> Event {
        Event {
            cat: "serve".into(),
            name: name.into(),
            ts_us,
            dur_us: 0.0,
            args: vec![("req".into(), req)],
        }
    }

    #[test]
    fn window_keeps_requests_after_the_marker_and_pairs_them() {
        let mut events = vec![
            serve_event("decode", 1.0, 100.0),
            serve_event("respond", 1.0, 900.0),
            serve_event("decode", 2.0, 1_000.0),
            serve_event("decode", 3.0, 1_500.0),
            serve_event("respond", 3.0, 2_000.0),
            serve_event("respond", 2.0, 4_000.0),
            serve_event("decode", 4.0, 5_000.0), // never answered
        ];
        events.push(Event {
            cat: "cache".into(),
            name: "plan".into(),
            ts_us: 50.0,
            dur_us: 10.0,
            args: vec![],
        });
        let (server_ms, later) = window_events(&events, 1.0);
        assert_eq!(server_ms, vec![3.0, 0.5]);
        assert_eq!(later.len(), 5);
        assert!(later.iter().all(|e| e.ts_us >= 1_000.0));
        let (none, _) = window_events(&events, 9.0);
        assert!(none.is_empty());
    }
}
