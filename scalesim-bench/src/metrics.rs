//! The metric registry — every name `BENCHMARK.json` lists, with its
//! unit — and the result of one run.
//!
//! Host time unless a name starts with `sim.` (simulated). A per-layer
//! metric that does not apply to a workload (the `serve.*` family on a
//! CLI workload, say) reads 0 there.

use scalesim::api::json::Json;

/// End-to-end metrics: measured with tracing off, on every workload.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("latency_p50_ms", "ms"),
    ("runs_per_s", "1/s"),
    ("sim_mcycles_per_host_s", "Mcycle/s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics: the separate traced pass and the layer probes.
pub const PER_LAYER: &[(&str, &str)] = &[
    // Traced pass: pipeline stages (STAGE_PROFILE.json / pipeline spans).
    ("core.pipeline.sparsify_s", "s"),
    ("core.pipeline.compute_s", "s"),
    ("core.pipeline.dram_s", "s"),
    ("core.pipeline.layout_s", "s"),
    ("core.pipeline.sparse_s", "s"),
    ("core.pipeline.energy_s", "s"),
    ("core.pipeline.stage_calls", "count"),
    // Traced pass: plan cache (cache spans; serve: `stats` difference).
    ("systolic.plancache.hits", "count"),
    ("systolic.plancache.misses", "count"),
    ("systolic.plancache.hit_ratio", "ratio"),
    ("systolic.plancache.resident_mb", "MB"),
    ("systolic.plancache.plan_span_s", "s"),
    ("mem.retime_s", "s"),
    ("mem.retime_entries", "count"),
    ("sched.run_s", "s"),
    ("sched.park_s", "s"),
    ("sched.steals", "count"),
    ("sched.spawns", "count"),
    ("sweep.point_s", "s"),
    ("sweep.points", "count"),
    ("collective.overlap_events", "count"),
    ("serve.queue_ms_mean", "ms"),
    ("serve.execute_ms_mean", "ms"),
    ("serve.server_p50_ms", "ms"),
    ("serve.server_p99_ms", "ms"),
    ("serve.shed", "count"),
    ("serve.deadline_expired", "count"),
    ("serve.wire_gap_ms", "ms"),
    ("serve.client_tail_ms", "ms"),
    ("serve.client_tail_pct", "%"),
    ("serve.client_samples", "count"),
    ("obs.trace_events", "count"),
    ("obs.trace_overhead_ratio", "ratio"),
    ("host.cpu_user_s", "s"),
    ("host.cpu_sys_s", "s"),
    ("host.threads", "count"),
    ("host.startup_ms", "ms"),
    ("host.fail_ratio", "ratio"),
    // Simulated statistics: exact and repeatable, so two commits can be
    // compared digit for digit.
    ("sim.total_cycles", "cycles"),
    ("sim.compute_cycles", "cycles"),
    ("sim.stall_cycles", "cycles"),
    ("sim.macs", "count"),
    ("sim.utilization", "ratio"),
    ("sim.energy_mj", "mJ"),
    ("sim.dram_requests", "count"),
    ("sim.dram_row_hit_rate", "ratio"),
    ("sim.layers", "count"),
    // Layer probes.
    ("systolic.plan_cold_s", "s"),
    ("systolic.plan_bytes", "bytes"),
    ("systolic.plan_ns_per_sim_cycle", "ns"),
    ("systolic.plan_warm_us", "us"),
    ("systolic.timing_s", "s"),
    ("mem.dram_analysis_s", "s"),
    ("mem.ns_per_request", "ns"),
    ("layout.slowdown_s", "s"),
    ("core.engine.run_gemm_s", "s"),
    ("core.service.run_warm_us", "us"),
    ("core.service.scaleout_warm_us", "us"),
    ("core.service.llm_warm_us", "us"),
    ("api.decode_us", "us"),
    ("api.encode_us", "us"),
    ("api.request_bytes", "bytes"),
    ("api.response_bytes", "bytes"),
    ("llm.topology_us", "us"),
    ("sweep.expand_us", "us"),
    ("collective.shard_us", "us"),
    ("sched.map_ns_per_item", "ns"),
];

/// One run of one workload in one mode.
pub struct RunResult {
    pub workload: String,
    pub seed: u64,
    /// Per-layer run (traced pass + probes) rather than end-to-end.
    pub traced: bool,
    /// Operations attempted and failed: a CLI invocation or a request;
    /// failed = non-zero exit, error/busy reply, timeout, or a
    /// correctness check that did not hold.
    pub attempted: u64,
    pub failed: u64,
    /// Measured values by name; what a mode's registry lists and this
    /// holds not reads 0.
    values: Vec<(&'static str, f64)>,
    /// Lines for the human reader: min/max beside a median, which
    /// percentile the tail is, why an operation failed.
    pub notes: Vec<String>,
}

impl RunResult {
    pub fn new(workload: &str, seed: u64, traced: bool) -> RunResult {
        RunResult {
            workload: workload.to_string(),
            seed,
            traced,
            attempted: 0,
            failed: 0,
            values: Vec::new(),
            notes: Vec::new(),
        }
    }

    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|(n, _)| *n == name),
            "{name} is not in the registry"
        );
        self.values.push((name, value));
    }

    /// A figure `/proc` may not have given: NaN prints as `null`.
    pub fn set_opt(&mut self, name: &'static str, value: Option<f64>) {
        self.set(name, value.unwrap_or(f64::NAN));
    }

    /// `count` operations failed; `why` goes to the notes.
    pub fn fail(&mut self, count: usize, why: String) {
        self.failed += count as u64;
        self.notes.push(format!("FAILED: {why}"));
    }

    pub fn fail_ratio(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// `(name, unit, value)` for every metric of this run's mode.
    pub fn metrics(&self) -> Vec<(&'static str, &'static str, f64)> {
        let registry = if self.traced { PER_LAYER } else { END_TO_END };
        registry
            .iter()
            .map(|(name, unit)| {
                let value = self.values.iter().rev().find(|(n, _)| n == name);
                (*name, *unit, value.map_or(0.0, |(_, v)| *v))
            })
            .collect()
    }

    /// The result object the contract asks for as the last stdout line.
    pub fn to_json(&self) -> Json {
        let metrics = self
            .metrics()
            .into_iter()
            .map(|(name, unit, value)| {
                let value = if value.is_finite() {
                    Json::Num(value)
                } else {
                    Json::Null
                };
                let fields = vec![
                    ("value".to_string(), value),
                    ("unit".to_string(), Json::Str(unit.to_string())),
                ];
                (name.to_string(), Json::Obj(fields))
            })
            .collect();
        Json::Obj(vec![
            ("correct".into(), Json::Bool(self.failed == 0)),
            ("attempted".into(), Json::Num(self.attempted as f64)),
            ("failed".into(), Json::Num(self.failed as f64)),
            ("metrics".into(), Json::Obj(metrics)),
        ])
    }

    /// Every metric by name with its unit, then the notes.
    pub fn print(&self) {
        let mode = if self.traced {
            "per-layer"
        } else {
            "end-to-end"
        };
        println!(
            "== {} [{mode}, seed {}]: {} ops attempted, {} failed",
            self.workload, self.seed, self.attempted, self.failed
        );
        for (name, unit, value) in self.metrics() {
            if value.is_finite() {
                println!("  {name:<34} {value:>16.6} {unit}");
            } else {
                println!("  {name:<34} {:>16} {unit}", "null");
            }
        }
        for note in &self.notes {
            println!("  # {note}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_and_units_fit_the_benchmark_contract() {
        let mut seen = std::collections::BTreeSet::new();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(seen.insert(*name), "{name} listed twice");
            assert!(name.len() <= 64 && name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(!unit.is_empty() && unit.len() <= 16);
            assert!(unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        assert!(END_TO_END.len() <= 16 && PER_LAYER.len() <= 128);
        assert!(END_TO_END.contains(&("setup_s", "s")));
    }

    #[test]
    fn result_json_has_exactly_the_contract_keys() {
        let mut result = RunResult::new("cold_plan", 1, false);
        result.attempted = 24;
        result.set("setup_s", 1.5);
        result.set_opt("peak_rss_mb", None);
        let json = result.to_json();
        let keys: Vec<&str> = json
            .as_object()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(json.get("correct"), Some(&Json::Bool(true)));
        let metrics = json.get("metrics").unwrap().as_object().unwrap();
        assert_eq!(metrics.len(), END_TO_END.len());
        let setup = json.get("metrics").unwrap().get("setup_s").unwrap();
        assert_eq!(setup.get("value").unwrap().as_f64(), Some(1.5));
        assert_eq!(setup.get("unit").unwrap().as_str(), Some("s"));
        let rss = json.get("metrics").unwrap().get("peak_rss_mb").unwrap();
        assert_eq!(rss.get("value"), Some(&Json::Null));
        result.fail(1, "x".into());
        assert_eq!(result.to_json().get("correct"), Some(&Json::Bool(false)));
    }
}
