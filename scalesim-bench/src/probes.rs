//! Layer probes: host time of each crate's public entry points, called
//! in this process over the distinct GEMM shapes of a workload. Each
//! figure is the median of `reps` timed calls after one warm-up call.
//! Only functions the roadmap keeps are called (no `*_cancellable`
//! twin, no `Prepared*` type, no legacy planner).

use crate::serve::{Deck, Kind};
use crate::stats;
use crate::workloads;
use scalesim::api::{wire, SimRequest, SimResponse};
use scalesim::collective::{shard_layer, Fabric, FabricKind, Strategy};
use scalesim::service::SimService;
use scalesim::sweep::SweepSpec;
use scalesim::systolic::{
    parallel_map, timing, AnalyticalModel, CoreSim, GemmShape, IdealBandwidthStore, PlanCache,
    Topology,
};
use scalesim::{dram_analysis, layout_slowdown_for_gemm, ScaleSim, ScaleSimConfig};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// The probed shapes of a workload are its distinct shapes in order of
/// first appearance, leaving out any that would push the running total
/// past this many simulated cycles (closed form, known before any
/// planning). Planning, DRAM replay and layout analysis all cost host
/// time per simulated cycle (0.2–2.5 µs each), so one round of every
/// probe stays near a second and six rounds fit beside the traced passes.
const CYCLE_BUDGET: u64 = 200_000;

/// Cache hits are ~100 ns each; time this many per call.
const WARM_LOOKUPS: usize = 1000;

/// Median seconds of `reps` calls of `f`, after one discarded call.
fn median_secs(reps: usize, mut f: impl FnMut()) -> f64 {
    f();
    let secs: Vec<f64> = (0..reps.max(1))
        .map(|_| {
            let start = Instant::now();
            f();
            start.elapsed().as_secs_f64()
        })
        .collect();
    stats::median(&secs)
}

/// The `(configuration, shape)` pairs the shape probes run over.
fn probe_shapes(sims: &[(ScaleSimConfig, Topology)]) -> Vec<(&ScaleSimConfig, GemmShape)> {
    let mut shapes: Vec<(&ScaleSimConfig, GemmShape)> = Vec::new();
    let mut cycles = 0;
    for (config, topology) in sims {
        for layer in topology.iter() {
            let gemm = layer.gemm();
            let seen = shapes
                .iter()
                .any(|(c, g)| std::ptr::eq(*c, config) && *g == gemm);
            let core = &config.core;
            let cost = AnalyticalModel::new(core.array, core.dataflow, gemm).exact_runtime_cycles();
            if !seen && cycles + cost <= CYCLE_BUDGET {
                cycles += cost;
                shapes.push((config, gemm));
            }
        }
    }
    shapes
}

/// Runs every probe; `(metric name, value)` pairs.
pub fn run(sims: &[(ScaleSimConfig, Topology)], reps: usize) -> Vec<(&'static str, f64)> {
    let mut out = Vec::new();
    let shapes = probe_shapes(sims);

    // crates/systolic: planning without a cache, a cache hit, timing.
    let mut plans = Vec::new();
    let plan_cold_s = median_secs(reps, || {
        plans = shapes
            .iter()
            .map(|(config, gemm)| CoreSim::new(config.core.clone()).plan_gemm(*gemm))
            .collect();
    });
    let sim_cycles: u64 = plans.iter().map(|p| p.compute.total_compute_cycles).sum();
    let plan_bytes: usize = plans.iter().map(|p| p.resident_bytes()).sum();
    out.push(("systolic.plan_cold_s", plan_cold_s));
    out.push(("systolic.plan_bytes", plan_bytes as f64));
    out.push((
        "systolic.plan_ns_per_sim_cycle",
        plan_cold_s * 1e9 / sim_cycles.max(1) as f64,
    ));
    let cache = Arc::new(PlanCache::new());
    let cached: Vec<(CoreSim, GemmShape)> = shapes
        .iter()
        .map(|(config, gemm)| {
            let sim = CoreSim::new(config.core.clone()).with_plan_cache(Arc::clone(&cache));
            (sim, *gemm)
        })
        .collect();
    let warm_s = median_secs(reps, || {
        for _ in 0..WARM_LOOKUPS {
            for (sim, gemm) in &cached {
                black_box(sim.plan_gemm_shared(black_box(*gemm)));
            }
        }
    });
    out.push((
        "systolic.plan_warm_us",
        warm_s * 1e6 / (WARM_LOOKUPS * cached.len().max(1)) as f64,
    ));
    let timing_s = median_secs(reps, || {
        for ((config, _), plan) in shapes.iter().zip(&plans) {
            let mut store = IdealBandwidthStore::new(config.core.memory.dram_bandwidth);
            black_box(timing(&plan.inputs, &mut store));
        }
    });
    out.push(("systolic.timing_s", timing_s));

    // crates/mem through its integration, crates/layout through its.
    let mut requests = 0;
    let dram_s = median_secs(reps, || {
        requests = 0;
        for ((config, _), plan) in shapes.iter().zip(&plans) {
            let memory = &config.core.memory;
            let analysis = dram_analysis(
                &plan.inputs,
                memory.dram_bandwidth,
                memory.bytes_per_word,
                &config.dram,
            );
            requests += analysis.line_requests;
        }
    });
    out.push(("mem.dram_analysis_s", dram_s));
    out.push(("mem.ns_per_request", dram_s * 1e9 / requests.max(1) as f64));
    let layout_s = median_secs(reps, || {
        for (config, gemm) in &shapes {
            let core = &config.core;
            black_box(layout_slowdown_for_gemm(
                core.array,
                core.dataflow,
                *gemm,
                &config.layout,
            ));
        }
    });
    out.push(("layout.slowdown_s", layout_s));

    // crates/core engine: the workload's own stages over a warm cache.
    let engines: Vec<(ScaleSim, GemmShape)> = shapes
        .iter()
        .map(|(config, gemm)| (ScaleSim::new((*config).clone()), *gemm))
        .collect();
    let run_gemm_s = median_secs(reps, || {
        for (engine, gemm) in &engines {
            black_box(engine.run_gemm("probe", *gemm));
        }
    });
    out.push(("core.engine.run_gemm_s", run_gemm_s));

    service_and_codec_probes(reps, &mut out);

    // crates/llm, crates/sweep, crates/collective, crates/sched.
    let model = scalesim::parse_cfg(workloads::file("llm_decode.cfg"))
        .ok()
        .and_then(|c| c.llm)
        .expect("llm_decode.cfg has an [llm] section");
    let llm_s = median_secs(reps, || {
        black_box(model.topology().expect("bench-owned model is valid"));
    });
    out.push(("llm.topology_us", llm_s * 1e6));
    let spec_text = workloads::file("sweep_grid.toml");
    let expand_s = median_secs(reps, || {
        let spec = SweepSpec::parse(black_box(spec_text)).expect("bench-owned spec is valid");
        black_box(spec.expand());
    });
    out.push(("sweep.expand_us", expand_s * 1e6));
    let fabric = Fabric::new(FabricKind::Ring, 8, 100.0, 500, 1.0).expect("valid ring");
    let shard_s = median_secs(reps, || {
        for (_, topology) in sims {
            for (i, layer) in topology.iter().enumerate() {
                black_box(shard_layer(
                    Strategy::DataParallel,
                    &fabric,
                    i,
                    layer.gemm(),
                    2,
                ));
            }
        }
    });
    out.push(("collective.shard_us", shard_s * 1e6));
    let items: Vec<u64> = (0..4096).collect();
    let map_s = median_secs(reps, || {
        black_box(parallel_map(&items, |_, x| *x));
    });
    out.push(("sched.map_ns_per_item", map_s * 1e9 / items.len() as f64));
    out
}

/// `SimService::handle` per request kind over a warm cache, and the
/// wire codec over the exact lines `serve_mix` sends and receives.
fn service_and_codec_probes(reps: usize, out: &mut Vec<(&'static str, f64)>) {
    let deck = Deck::new();
    let lines: Vec<&str> = deck.slots.iter().map(|(_, line)| line.as_str()).collect();
    let mut decoded = Vec::new();
    let decode_s = median_secs(reps, || {
        decoded = lines.iter().map(|l| wire::decode_request(l)).collect();
    });
    let requests: Vec<(Kind, Option<String>, SimRequest)> = deck
        .slots
        .iter()
        .zip(decoded)
        .map(|((kind, _), (id, request))| (*kind, id, request.expect("deck lines decode")))
        .collect();

    let service = SimService::new();
    let mut responses: Vec<(Option<String>, Result<SimResponse, scalesim::api::SimError>)> =
        Vec::new();
    for kind in [Kind::Run, Kind::Scaleout, Kind::Llm] {
        let of_kind: Vec<_> = requests.iter().filter(|(k, ..)| *k == kind).collect();
        let secs = median_secs(reps, || {
            for (_, _, request) in &of_kind {
                black_box(service.handle(request)).ok();
            }
        });
        let name = match kind {
            Kind::Run => "core.service.run_warm_us",
            Kind::Scaleout => "core.service.scaleout_warm_us",
            _ => "core.service.llm_warm_us",
        };
        out.push((name, secs * 1e6 / of_kind.len() as f64));
    }
    for (_, id, request) in &requests {
        responses.push((id.clone(), service.handle(request)));
    }
    let mut encoded = Vec::new();
    let encode_s = median_secs(reps, || {
        encoded = responses
            .iter()
            .map(|(id, response)| wire::encode_response(id.as_deref(), response))
            .collect();
    });
    let per_line = |total: f64| total / lines.len() as f64;
    out.push(("api.decode_us", per_line(decode_s * 1e6)));
    out.push(("api.encode_us", per_line(encode_s * 1e6)));
    let request_bytes: usize = lines.iter().map(|l| l.len() + 1).sum();
    let response_bytes: usize = encoded.iter().map(|l: &String| l.len() + 1).sum();
    out.push(("api.request_bytes", per_line(request_bytes as f64)));
    out.push(("api.response_bytes", per_line(response_bytes as f64)));
}
