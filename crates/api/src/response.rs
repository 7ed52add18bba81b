//! The typed response surface: the per-command bodies a
//! [`SimResponse`](crate::SimResponse) carries.
//!
//! Report **contents** travel as strings (the exact bytes the one-shot
//! CLI writes to `*_REPORT.csv` files), so a response is verifiable
//! byte-for-byte against the golden suite and a remote client can
//! persist reports identical to a local run. Scalar summaries use
//! fixed-precision formatting, making response lines deterministic for
//! a given build.
//!
//! Every body is declared once — Rust field, wire key, kind — and the
//! struct, its encoder and its decoder all derive from that list (see
//! `codec.rs`); members are written in declaration order. Decoding (the
//! client half) ignores keys it does not know: response fields are
//! additive within an API version.

use crate::codec::{
    wire, Codec, Fixed, Flag, List, Member, Nested, ObjectWriter, PAYLOAD, TEXT, UINT,
};
use crate::error::SimError;
use crate::json::Json;

/// The `reports` member every simulation body ends with.
const REPORTS: List<Nested> = List(Nested);

/// The Pareto-frontier point labels of a sweep.
struct Labels;

impl Codec<Vec<String>> for Labels {
    fn write(&self, value: &Vec<String>, out: &mut String) {
        List(TEXT).write(value, out);
    }

    fn read(&self, member: Member) -> Result<Vec<String>, SimError> {
        let labels = member.found.and_then(Json::as_array);
        labels
            .ok_or_else(|| member.bad("an array", None))?
            .iter()
            .map(|label| label.as_str().map(str::to_string))
            .collect::<Option<_>>()
            .ok_or_else(|| member.cx.side.err("pareto labels must be strings"))
    }
}

/// The span-category names `StatsBody::span_totals` is indexed by, in
/// wire order (mirrors `scalesim-obs`'s `Category::ALL`).
pub const SPAN_CATEGORIES: [&str; 7] = [
    "sched",
    "pipeline",
    "cache",
    "dram",
    "collective",
    "serve",
    "sweep",
];

/// The per-category event totals: an object keyed by
/// [`SPAN_CATEGORIES`], in that order.
struct Spans;

impl Codec<[u64; 7]> for Spans {
    fn write(&self, value: &[u64; 7], out: &mut String) {
        let mut object = ObjectWriter::open(out);
        for (category, total) in SPAN_CATEGORIES.iter().zip(value) {
            object.member(category, total, &UINT);
        }
        object.close();
    }

    fn read(&self, member: Member) -> Result<[u64; 7], SimError> {
        let spans = member.required()?;
        let mut totals = [0; 7];
        for (total, category) in totals.iter_mut().zip(SPAN_CATEGORIES) {
            *total = UINT.read(member.cx.member(spans, category))?;
        }
        Ok(totals)
    }
}

wire! {
    /// One emitted report: the file name the CLI would write and its exact
    /// contents.
    #[derive(Debug, Clone, PartialEq, Eq)]
    Response "report missing" => pub struct Report {
        /// Standard file name (`COMPUTE_REPORT.csv`, `SWEEP_REPORT.json`, …).
        pub name: String = "name": PAYLOAD,
        /// The full file contents, byte-identical to the CLI's output.
        pub content: String = "content": PAYLOAD,
    }

    /// Aggregate metrics of one run (the O(1) reduction every layer streams
    /// through).
    #[derive(Debug, Clone, PartialEq, Default)]
    Response "run summary: missing" => pub struct RunSummaryBody {
        /// Layers simulated.
        pub layers: usize = "layers": UINT,
        /// End-to-end cycles (DRAM-aware when the DRAM flow ran).
        pub total_cycles: u64 = "total_cycles": UINT,
        /// Stall-free compute cycles.
        pub compute_cycles: u64 = "compute_cycles": UINT,
        /// Stall cycles.
        pub stall_cycles: u64 = "stall_cycles": UINT,
        /// MACs executed.
        pub macs: u64 = "macs": UINT,
        /// Compute-cycle-weighted mean PE utilization in `[0, 1]`.
        pub utilization: f64 = "utilization": Fixed(4),
        /// Total energy in mJ (0.0 when energy estimation is off).
        pub energy_mj: f64 = "energy_mj": Fixed(6),
        /// L2→L1 NoC words (0 for single-core runs).
        pub noc_words: u64 = "noc_words": UINT,
    }

    /// Response body of a `run` request.
    #[derive(Debug, Clone, PartialEq, Default)]
    Response "run response: missing" => pub struct RunBody {
        /// Run-level aggregates.
        pub summary: RunSummaryBody = "summary": Nested,
        /// Every report the configuration produces, in the CLI's emission
        /// order.
        pub reports: Vec<Report> = "reports": REPORTS,
    }

    /// Response body of a `sweep` request.
    #[derive(Debug, Clone, PartialEq, Default)]
    Response "sweep response: missing" => pub struct SweepBody {
        /// Grid points expanded from the spec.
        pub grid_points: usize = "grid_points": UINT,
        /// Total `(point, topology)` runs executed.
        pub runs: usize = "runs": UINT,
        /// Labels of the runtime-vs-energy Pareto frontier, in point order.
        pub pareto_frontier: Vec<String> = "pareto_frontier": Labels,
        /// `SWEEP_REPORT.csv` and `SWEEP_REPORT.json`.
        pub reports: Vec<Report> = "reports": REPORTS,
    }

    /// Response body of a `scaleout` request: the multi-chip run's
    /// aggregate timeline plus `SCALEOUT_REPORT.csv`.
    #[derive(Debug, Clone, PartialEq, Default)]
    Response "scaleout response: missing" => pub struct ScaleoutBody {
        in "summary" {
            /// Chips simulated.
            pub chips: u64 = "chips": UINT,
            /// Strategy tag that ran (`dp` / `tp` / `pp`).
            pub strategy: String = "strategy": TEXT,
            /// Human-readable fabric description.
            pub fabric: String = "fabric": TEXT,
            /// Layers executed.
            pub layers: usize = "layers": UINT,
            /// End-to-end critical-path cycles.
            pub total_cycles: u64 = "total_cycles": UINT,
            /// Per-chip compute cycles.
            pub compute_cycles: u64 = "compute_cycles": UINT,
            /// Collective cycles obligated.
            pub comm_cycles: u64 = "comm_cycles": UINT,
            /// Communication hidden under compute.
            pub overlapped_cycles: u64 = "overlapped_cycles": UINT,
            /// Communication on the critical path.
            pub exposed_cycles: u64 = "exposed_cycles": UINT,
            /// Pipeline fill/drain overhead (0 for data/tensor parallelism).
            pub bubble_cycles: u64 = "bubble_cycles": UINT,
            /// Compute-cycle-weighted mean PE utilization in `[0, 1]`.
            pub utilization: f64 = "utilization": Fixed(4),
        }
        /// `SCALEOUT_REPORT.csv`.
        pub reports: Vec<Report> = "reports": REPORTS,
    }

    /// Response body of an `llm` request: the generated workload's
    /// identity plus the same aggregates and reports a `run` produces.
    #[derive(Debug, Clone, PartialEq, Default)]
    Response "llm response: missing" => pub struct LlmBody {
        /// Model name (preset or custom `[llm]` spec name).
        pub workload: String = "workload": TEXT,
        /// Phase simulated (`prefill` / `decode`).
        pub phase: String = "phase": TEXT,
        /// Context length attended over (KV-cache depth for decode).
        pub context: u64 = "context": UINT,
        /// Closed-form parameter count of the model.
        pub params: u64 = "params": UINT,
        /// KV-cache footprint in bytes at this context length.
        pub kv_cache_bytes: u64 = "kv_cache_bytes": UINT,
        /// Run-level aggregates.
        pub summary: RunSummaryBody = "summary": Nested,
        /// Every report the configuration produces, in the CLI's emission
        /// order.
        pub reports: Vec<Report> = "reports": REPORTS,
    }

    /// Response body of an `area` request (Accelergy-style silicon area).
    #[derive(Debug, Clone, PartialEq, Default)]
    Response "area response: missing" => pub struct AreaBody {
        /// Total die area, mm².
        pub total_mm2: f64 = "total_mm2": Fixed(4),
        /// PE array contribution, mm².
        pub pe_array_mm2: f64 = "pe_array_mm2": Fixed(4),
        /// SRAM contribution, mm².
        pub sram_mm2: f64 = "sram_mm2": Fixed(4),
        /// NoC contribution, mm².
        pub noc_mm2: f64 = "noc_mm2": Fixed(4),
        /// DRAM controller contribution, mm².
        pub dram_ctrl_mm2: f64 = "dram_ctrl_mm2": Fixed(4),
        /// `AREA_REPORT.csv`.
        pub reports: Vec<Report> = "reports": REPORTS,
    }

    /// Response body of a `version` request.
    #[derive(Debug, Clone, PartialEq, Eq, Default)]
    Response "version response: missing" => pub struct VersionBody {
        /// Human-readable version line (`scalesim 0.3.0 (git …)`).
        pub version: String = "version": PAYLOAD,
        /// The wire-protocol version the server speaks (see
        /// [`crate::API_VERSION`]).
        pub api: u32 = "api": UINT,
    }

    /// Response body of a `stats` request: a snapshot of the serving
    /// process's runtime metrics.
    ///
    /// All counters are cumulative since process start except `in_flight`
    /// and the cache residency gauges. Latency percentiles come from a
    /// power-of-two-bucket histogram with linear interpolation *within*
    /// the winning bucket, clamped to the observed maximum — a value inside
    /// the bucket, not its upper bound.
    #[derive(Debug, Clone, PartialEq, Default)]
    Response "stats response: missing" => pub struct StatsBody {
        in "cache" {
            /// Plan-cache hits.
            pub cache_hits: u64 = "hits": UINT,
            /// Plan-cache misses (each one planned a layer).
            pub cache_misses: u64 = "misses": UINT,
            /// Plans currently resident.
            pub cache_plans: u64 = "plans": UINT,
            /// Entries evicted by the cost-aware policy.
            pub cache_evictions: u64 = "evictions": UINT,
            /// Estimated bytes currently held by cached plans.
            pub cache_resident_bytes: u64 = "resident_bytes": UINT,
            /// The resident-byte budget the plan cache evicts down to.
            pub cache_budget_bytes: u64 = "budget_bytes": UINT,
            /// hits / (hits + misses), 0.0 when no lookups happened.
            pub cache_hit_rate: f64 = "hit_rate": Fixed(4),
        }
        in "serve" {
            /// Requests received (queued + inline; includes shed ones).
            pub requests_total: u64 = "requests_total": UINT,
            /// Requests fully handled (ok or typed error).
            pub completed: u64 = "completed": UINT,
            /// Requests shed with `busy` (queue full or session cap).
            pub shed: u64 = "shed": UINT,
            /// Requests that died with `deadline`.
            pub deadline_expired: u64 = "deadline_expired": UINT,
            /// Requests currently executing or queued.
            pub in_flight: u64 = "in_flight": UINT,
        }
        in "latency_us" {
            /// Handle latencies recorded.
            pub latency_count: u64 = "count": UINT,
            /// Median handle latency, µs (bucket-interpolated).
            pub latency_p50_us: u64 = "p50": UINT,
            /// 99th-percentile handle latency, µs (bucket-interpolated).
            pub latency_p99_us: u64 = "p99": UINT,
            /// Maximum handle latency observed, µs.
            pub latency_max_us: u64 = "max": UINT,
        }
        in "sched" {
            /// Scheduler worker threads in the shared pool.
            pub sched_workers: u64 = "workers": UINT,
            /// Successful work steals between scheduler workers.
            pub sched_steals: u64 = "steals": UINT,
            /// Detached tasks submitted to the scheduler.
            pub sched_spawns: u64 = "spawns": UINT,
            /// Times a parked scheduler worker was woken.
            pub sched_park_wakeups: u64 = "park_wakeups": UINT,
        }
        /// Trace events recorded per span category, in
        /// `sched, pipeline, cache, dram, collective, serve, sweep` order
        /// (all zero unless tracing was enabled at some point).
        pub span_totals: [u64; 7] = "spans": Spans,
    }

    /// Response body of a `trace` request: the process's recorded span
    /// rings exported as Chrome trace-event JSON (Perfetto-loadable),
    /// carried as a string like report contents are.
    #[derive(Debug, Clone, PartialEq, Eq, Default)]
    Response "trace response: missing" => pub struct TraceBody {
        /// Whether span recording is currently on.
        pub enabled: bool = "enabled": Flag,
        /// Total events recorded so far (monotonic; overwritten ring
        /// entries stay counted).
        pub events: u64 = "events": UINT,
        /// The Chrome trace JSON (`{"displayTimeUnit":…,"traceEvents":[…]}`).
        pub trace: String = "trace": PAYLOAD,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::{self, SimResponse};

    fn round_trip(resp: SimResponse) {
        let line = wire::encode_response(None, &Ok(resp));
        assert!(!line.contains('\n'), "bodies must be single-line: {line}");
        let back = wire::decode_response(&line).1.unwrap();
        // Fixed-precision floats survive one round trip exactly because
        // the emitter formats them; re-encode to compare canonically.
        assert_eq!(wire::encode_response(None, &Ok(back)), line);
    }

    #[test]
    fn run_response_round_trips() {
        round_trip(SimResponse::Run(RunBody {
            summary: RunSummaryBody {
                layers: 3,
                total_cycles: 123_456_789_012,
                compute_cycles: 120_000,
                stall_cycles: 3456,
                macs: 1_000_000,
                utilization: 0.8125,
                energy_mj: 1.25,
                noc_words: 0,
            },
            reports: vec![Report {
                name: "COMPUTE_REPORT.csv".into(),
                content: "LayerName, X\nl0, 1\n".into(),
            }],
        }));
    }

    #[test]
    fn scaleout_response_round_trips() {
        round_trip(SimResponse::Scaleout(ScaleoutBody {
            chips: 8,
            strategy: "dp".into(),
            fabric: "ring x8 (100 GB/s, 500 cyc/hop)".into(),
            layers: 21,
            total_cycles: 1_234_567,
            compute_cycles: 1_000_000,
            comm_cycles: 400_000,
            overlapped_cycles: 165_433,
            exposed_cycles: 234_567,
            bubble_cycles: 0,
            utilization: 0.7321,
            reports: vec![Report {
                name: "SCALEOUT_REPORT.csv".into(),
                content: "LayerName, X\nl0, 1\n".into(),
            }],
        }));
    }

    #[test]
    fn llm_response_round_trips() {
        round_trip(SimResponse::Llm(LlmBody {
            workload: "llama-7b".into(),
            phase: "decode".into(),
            context: 2048,
            params: 6_738_149_376,
            kv_cache_bytes: 1_073_741_824,
            summary: RunSummaryBody {
                layers: 225,
                total_cycles: 9_876_543,
                compute_cycles: 9_000_000,
                stall_cycles: 876_543,
                macs: 13_000_000_000,
                utilization: 0.0312,
                energy_mj: 0.0,
                noc_words: 0,
            },
            reports: vec![Report {
                name: "COMPUTE_REPORT.csv".into(),
                content: "LayerName, X\nblk0_qkv, 1\n".into(),
            }],
        }));
    }

    #[test]
    fn sweep_area_version_round_trip() {
        round_trip(SimResponse::Sweep(SweepBody {
            grid_points: 4,
            runs: 8,
            pareto_frontier: vec!["8x8-bw4".into(), "16x16-bw10".into()],
            reports: vec![Report {
                name: "SWEEP_REPORT.csv".into(),
                content: "Run, Point\n0, 0\n".into(),
            }],
        }));
        round_trip(SimResponse::Area(AreaBody {
            total_mm2: 12.3456,
            pe_array_mm2: 4.5,
            sram_mm2: 6.0,
            noc_mm2: 1.0,
            dram_ctrl_mm2: 0.8456,
            reports: vec![],
        }));
        round_trip(SimResponse::Version(VersionBody {
            version: "scalesim 0.3.0 (git abc)".into(),
            api: 1,
        }));
        round_trip(SimResponse::Stats(StatsBody {
            cache_hits: 10,
            cache_misses: 4,
            cache_plans: 4,
            cache_evictions: 1,
            cache_resident_bytes: 123_456,
            cache_budget_bytes: 1 << 20,
            cache_hit_rate: 0.7143,
            requests_total: 20,
            completed: 17,
            shed: 2,
            deadline_expired: 1,
            in_flight: 0,
            latency_count: 17,
            latency_p50_us: 1024,
            latency_p99_us: 16384,
            latency_max_us: 15000,
            sched_workers: 8,
            sched_steals: 42,
            sched_spawns: 19,
            sched_park_wakeups: 131,
            span_totals: [1, 2, 3, 4, 5, 6, 7],
        }));
    }

    #[test]
    fn trace_response_round_trips_with_embedded_json() {
        round_trip(SimResponse::Trace(TraceBody {
            enabled: true,
            events: 12,
            trace: "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[]}".into(),
        }));
        round_trip(SimResponse::Trace(TraceBody::default()));
    }

    #[test]
    fn report_contents_are_exact() {
        let tricky = "a,b\n\"quoted\",\t tab\r\n";
        let resp = SimResponse::Run(RunBody {
            summary: RunSummaryBody::default(),
            reports: vec![Report {
                name: "X.csv".into(),
                content: tricky.into(),
            }],
        });
        let back = wire::decode_response(&wire::encode_response(None, &Ok(resp))).1;
        let Ok(SimResponse::Run(body)) = back else {
            panic!("expected run");
        };
        assert_eq!(body.reports[0].content, tricky);
    }
}
