//! The request/response facade: [`SimService`] executes typed
//! [`SimRequest`]s from the `scalesim-api` crate.
//!
//! This is the **single choke point** for every scenario the simulator
//! supports: the CLI binary, the persistent `scalesim serve` mode and
//! embedding tools all build a [`SimRequest`] and go through
//! [`SimService::execute`], so input loading, validation, execution and
//! the [`SimError`] taxonomy behave identically everywhere. Nothing on
//! this path panics on user input — every failure surfaces as a typed
//! error.
//!
//! The service owns one [`PlanCache`] shared by **all** requests it
//! handles: a persistent server re-planning nothing for repeated
//! workloads is the point of serve mode. Requests are otherwise
//! isolated — each builds its own engine from its own configuration —
//! and report bytes never depend on the cache's contents (only planning
//! time does), so serve-mode responses are byte-identical to one-shot
//! CLI runs.
//!
//! ```
//! use scalesim::service::SimService;
//! use scalesim::api::{Features, RunSpec, SimRequest, SimResponse, TopologySource};
//!
//! let service = SimService::new();
//! let request = SimRequest::Run(RunSpec {
//!     config: Default::default(),
//!     topology: TopologySource::inline("demo", "l0, 32, 32, 32,\n"),
//!     features: Features { energy: true, ..Default::default() },
//! });
//! let SimResponse::Run(body) = service.handle(&request).unwrap() else {
//!     panic!("run request answers with a run body")
//! };
//! assert!(body.summary.total_cycles > 0);
//! assert!(body.reports.iter().any(|r| r.name == "ENERGY_REPORT.csv"));
//! ```

use crate::cancel::CancelToken;
use crate::cfg::parse_cfg;
use crate::collective::{FabricTag, ScaleoutSpec, Strategy};
use crate::config::{MultiCoreIntegration, ScaleSimConfig};
use crate::energy::AreaBreakdown;
use crate::engine::ScaleSim;
use crate::llm::{LlmRunSpec, LlmSpec, Phase};
use crate::multicore::PartitionGrid;
use crate::result::LayerResult;
use crate::scaleout::{run_scaleout, scaleout_rows, ScaleoutLayerRecord, ScaleoutSummary};
use crate::sink::{MemoryReportSink, ResultSink, RunSummary};
use crate::sweep::{RunRecord, SweepReport, SweepSpec};
use crate::sweep_run::run_sweep;
use scalesim_api::{
    AreaBody, ConfigSource, Features, LlmBody, LlmRequest, Report, RunBody, RunSummaryBody,
    ScaleoutBody, ScaleoutRequest, SimError, SimRequest, SimResponse, StatsBody, SweepBody,
    SweepRequest, TopologyFormat, TopologySource, TraceBody, VersionBody, API_VERSION,
};
use scalesim_obs::Histogram;
use scalesim_systolic::{PlanCache, PlanCacheStats, Topology};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Cumulative request counters for one serving process.
#[derive(Debug, Default)]
pub(crate) struct ServeMetrics {
    /// Requests received (decoded lines, executed or shed).
    pub(crate) requests_total: AtomicU64,
    /// Requests fully handled (ok or typed error written).
    pub(crate) completed: AtomicU64,
    /// Requests shed with `busy` at the session cap.
    pub(crate) shed: AtomicU64,
    /// Requests that returned a `deadline` error.
    pub(crate) deadline_expired: AtomicU64,
    /// Requests currently executing.
    pub(crate) in_flight: AtomicU64,
    /// Handle-latency histogram (decode→encode wall time).
    pub(crate) latency: Histogram,
}

impl ServeMetrics {
    /// Bumps a counter by one.
    pub(crate) fn inc(&self, counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// Decrements `in_flight` (saturating — a stray double-decrement
    /// must not wrap the gauge to u64::MAX).
    pub(crate) fn dec_in_flight(&self) {
        let _ = self
            .in_flight
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| {
                Some(v.saturating_sub(1))
            });
    }

    /// Reads a counter.
    pub(crate) fn get(&self, counter: &AtomicU64) -> u64 {
        counter.load(Ordering::Relaxed)
    }
}

/// Builds the shared plan cache a fresh service uses: bounded by
/// resident plan bytes ([`PlanCache::DEFAULT_BUDGET_BYTES`]), with
/// `SCALESIM_CACHE_BUDGET_MB` (a positive integer) as the deployment
/// override that bounds a server's memory. The budget never changes
/// results — only planning time.
fn cache_from_env() -> Arc<PlanCache> {
    let megabytes = std::env::var("SCALESIM_CACHE_BUDGET_MB").ok();
    let megabytes = megabytes.and_then(|v| v.trim().parse::<usize>().ok());
    Arc::new(match megabytes.filter(|&mb| mb > 0) {
        Some(mb) => PlanCache::with_budget(mb.saturating_mul(1024 * 1024)),
        None => PlanCache::new(),
    })
}

/// Executes [`SimRequest`]s against a persistent shared [`PlanCache`],
/// answering `stats` requests from shared `ServeMetrics` (recorded by
/// the serve loop; a one-shot CLI service reports all-zero counters).
#[derive(Debug, Clone)]
pub struct SimService {
    cache: Arc<PlanCache>,
    metrics: Arc<ServeMetrics>,
}

impl Default for SimService {
    fn default() -> Self {
        Self::new()
    }
}

impl SimService {
    /// A service with a fresh plan cache, budgeted by
    /// `SCALESIM_CACHE_BUDGET_MB` when set and by
    /// [`PlanCache::DEFAULT_BUDGET_BYTES`] otherwise.
    pub fn new() -> Self {
        Self::with_plan_cache(cache_from_env())
    }

    /// A service sharing an existing plan cache (metrics start fresh).
    pub(crate) fn with_plan_cache(cache: Arc<PlanCache>) -> Self {
        Self {
            cache,
            metrics: Arc::new(ServeMetrics::default()),
        }
    }

    /// The plan cache every request handled by this service shares.
    pub fn plan_cache(&self) -> &Arc<PlanCache> {
        &self.cache
    }

    /// The serving metrics `stats` requests report. Clones of this
    /// service (e.g. one per worker thread) share the same counters.
    pub(crate) fn metrics(&self) -> &Arc<ServeMetrics> {
        &self.metrics
    }

    /// Executes one request with no deadline and nobody watching:
    /// [`execute`](Self::execute) under [`CancelToken::never`].
    ///
    /// # Errors
    ///
    /// As [`execute`](Self::execute), minus `Deadline`.
    pub fn handle(&self, request: &SimRequest) -> Result<SimResponse, SimError> {
        self.execute(request, &CancelToken::never(), &mut |_| {})
    }

    /// Executes one request, producing the matching response variant —
    /// the one entry point behind `scalesim serve`, the one-shot CLI
    /// commands and [`handle`](Self::handle).
    ///
    /// Cancellation is cooperative and checked at stage boundaries: a
    /// `run` or `llm` checks between every pipeline stage of every
    /// layer; a `sweep` or `scaleout` checks between its phases
    /// (load/validate, execute, package) but not inside the grid or
    /// collective execution, so those overshoot by at most one phase.
    /// An expired token never yields a partial body — the request
    /// answers the typed `deadline` error and nothing else.
    ///
    /// `progress` observes the request as it executes (see
    /// [`Progress`]); it never changes a response byte.
    ///
    /// # Errors
    ///
    /// Every failure is a categorized [`SimError`]: `Io` for unreadable
    /// inputs, `Config` for bad configurations, specs or parameters,
    /// `Topology` for bad workloads, `Deadline` when `cancel` expires
    /// before the response is assembled. No input can panic this path
    /// (the serve loop additionally catches panics as a last line of
    /// defense and reports them as `internal`).
    pub fn execute(
        &self,
        request: &SimRequest,
        cancel: &CancelToken,
        progress: &mut dyn FnMut(Progress<'_>),
    ) -> Result<SimResponse, SimError> {
        cancel.check()?;
        match request {
            SimRequest::Run(spec) => {
                let config = load_config(&spec.config, &spec.features)?;
                let topology = load_topology(&spec.topology)?;
                let sim = self.engine(config)?;
                let body = run_body(&sim, &topology, None, cancel, progress)?;
                Ok(SimResponse::Run(body))
            }
            SimRequest::Llm(request) => {
                let (config, llm) = resolve_llm(request)?;
                let topology = llm.topology().map_err(SimError::Config)?;
                let sim = self.engine(config)?;
                let body = run_body(&sim, &topology, Some(&llm), cancel, progress)?;
                let context = llm.effective_context();
                Ok(SimResponse::Llm(LlmBody {
                    workload: llm.spec.name.clone(),
                    phase: llm.phase.tag().to_string(),
                    context: context as u64,
                    params: llm
                        .spec
                        .param_count()
                        .expect("sizes checked by LlmRunSpec::topology"),
                    kv_cache_bytes: llm
                        .spec
                        .kv_cache_bytes(context)
                        .expect("sizes checked by LlmRunSpec::topology"),
                    summary: body.summary,
                    reports: body.reports,
                }))
            }
            SimRequest::Sweep(request) => {
                let (spec, base, topologies) = resolve_sweep(request)?;
                let shards = request.shards.max(1);
                progress(Progress::Sweep {
                    spec: &spec,
                    topologies: topologies.len(),
                    shards,
                });
                cancel.check()?;
                let on_record = |r: &RunRecord| progress(Progress::SweepRun(r));
                let (report, stats) =
                    run_sweep(&spec, &base, &topologies, shards, &self.cache, on_record)
                        .map_err(SimError::Config)?;
                progress(Progress::SweepCache(stats));
                cancel.check()?;
                Ok(SimResponse::Sweep(sweep_body(spec.grid_size(), &report)))
            }
            SimRequest::Scaleout(request) => {
                let (config, topology, spec) = resolve_scaleout(request)?;
                let sim = self.engine(config)?;
                progress(Progress::Scaleout {
                    topology: &topology,
                    spec: &spec,
                });
                cancel.check()?;
                let mut csv = scaleout_rows::SCALEOUT_HEADER.to_string();
                let mut sink = |record: ScaleoutLayerRecord| {
                    progress(Progress::ScaleoutLayer(&record));
                    csv.push_str(&scaleout_rows::scaleout(&record));
                };
                let summary =
                    run_scaleout(&sim, &topology, &spec, &mut sink).map_err(SimError::Config)?;
                cancel.check()?;
                Ok(SimResponse::Scaleout(scaleout_body(&summary, csv)))
            }
            SimRequest::AreaReport(spec) => {
                let sim = self.engine(load_config(&spec.config, &spec.features)?)?;
                Ok(SimResponse::Area(area_body(&sim.area_report())))
            }
            SimRequest::Version => Ok(SimResponse::Version(version_body())),
            SimRequest::Stats => Ok(SimResponse::Stats(self.stats_body())),
            SimRequest::Trace => Ok(SimResponse::Trace(trace_body())),
        }
    }

    /// An engine for `config` sharing this service's plan cache.
    fn engine(&self, config: ScaleSimConfig) -> Result<ScaleSim, SimError> {
        Ok(ScaleSim::with_cache(config, Arc::clone(&self.cache))?)
    }

    /// Snapshots the service's cache and serving counters as a `stats`
    /// response body. Counter reads are relaxed atomics — a snapshot
    /// taken mid-burst is approximate, never torn.
    pub(crate) fn stats_body(&self) -> StatsBody {
        let cache = self.cache.stats();
        let lookups = cache.hits + cache.misses;
        let m = &*self.metrics;
        let sched = scalesim_sched::Scheduler::global().stats();
        StatsBody {
            cache_hits: cache.hits,
            cache_misses: cache.misses,
            cache_plans: cache.plans as u64,
            cache_evictions: cache.evictions,
            cache_resident_bytes: cache.resident_bytes as u64,
            cache_budget_bytes: self.cache.budget_bytes() as u64,
            cache_hit_rate: if lookups > 0 {
                cache.hits as f64 / lookups as f64
            } else {
                0.0
            },
            requests_total: m.get(&m.requests_total),
            completed: m.get(&m.completed),
            shed: m.get(&m.shed),
            deadline_expired: m.get(&m.deadline_expired),
            in_flight: m.get(&m.in_flight),
            latency_count: m.latency.count(),
            latency_p50_us: m.latency.percentile_us(50.0),
            latency_p99_us: m.latency.percentile_us(99.0),
            latency_max_us: m.latency.max_us(),
            sched_workers: sched.workers as u64,
            sched_park_wakeups: sched.park_wakeups,
            span_totals: scalesim_obs::category_totals(),
        }
    }

    /// Renders this service's metrics as Prometheus text exposition
    /// (format 0.0.4): serve counters, the handle-latency histogram,
    /// plan-cache counters, scheduler accounting and per-category span
    /// totals. The `scalesim serve --metrics-addr` HTTP endpoint serves
    /// exactly this body; names and semantics are documented in
    /// `docs/OBSERVABILITY.md`.
    pub fn render_prometheus(&self) -> String {
        use std::fmt::Write;
        let stats = self.stats_body();
        let mut out = String::new();
        render_series(&mut out, &stats, &SERVE_SERIES);
        scalesim_obs::render_histogram(
            &mut out,
            "scalesim_handle_latency_us",
            "Request handle latency (decode to encode), microseconds.",
            &self.metrics.latency,
        );
        render_series(&mut out, &stats, &SYSTEM_SERIES);
        out.push_str("# HELP scalesim_spans_total Span/instant events recorded per category.\n");
        out.push_str("# TYPE scalesim_spans_total counter\n");
        for (category, total) in scalesim_api::SPAN_CATEGORIES.iter().zip(stats.span_totals) {
            let _ = writeln!(
                out,
                "scalesim_spans_total{{category=\"{category}\"}} {total}"
            );
        }
        out
    }
}

/// One scalar series of the exposition: name, help, and where in a
/// `stats` snapshot its value lives. Names follow the Prometheus
/// convention, which is also how the type is told: `_total` is a
/// counter, anything else a gauge.
type Series = (&'static str, &'static str, fn(&StatsBody) -> u64);

fn render_series(out: &mut String, stats: &StatsBody, series: &[Series]) {
    for &(name, help, value) in series {
        if name.ends_with("_total") {
            scalesim_obs::render_counter(out, name, help, value(stats));
        } else {
            scalesim_obs::render_gauge(out, name, help, value(stats) as i64);
        }
    }
}

/// The serve-loop counters of a `stats` response under their Prometheus
/// names, in exposition order (the latency histogram follows them).
const SERVE_SERIES: [Series; 5] = [
    (
        "scalesim_requests_total",
        "Requests received (executed or shed).",
        |s| s.requests_total,
    ),
    (
        "scalesim_requests_completed_total",
        "Requests fully handled (ok or typed error written).",
        |s| s.completed,
    ),
    (
        "scalesim_requests_shed_total",
        "Requests shed with busy at the session cap.",
        |s| s.shed,
    ),
    (
        "scalesim_deadline_expired_total",
        "Requests that returned a deadline error.",
        |s| s.deadline_expired,
    ),
    (
        "scalesim_requests_in_flight",
        "Requests currently executing.",
        |s| s.in_flight,
    ),
];

/// The plan-cache and scheduler counters, likewise (they follow the
/// histogram).
const SYSTEM_SERIES: [Series; 6] = [
    (
        "scalesim_plan_cache_hits_total",
        "Plan-cache lookups answered from the cache.",
        |s| s.cache_hits,
    ),
    (
        "scalesim_plan_cache_misses_total",
        "Plan-cache lookups that planned fresh.",
        |s| s.cache_misses,
    ),
    (
        "scalesim_plan_cache_evictions_total",
        "Plans evicted to stay within the cache bound.",
        |s| s.cache_evictions,
    ),
    (
        "scalesim_plan_cache_resident_bytes",
        "Bytes held by resident plans.",
        |s| s.cache_resident_bytes,
    ),
    (
        "scalesim_sched_workers",
        "Worker threads in the global scheduler pool.",
        |s| s.sched_workers,
    ),
    (
        "scalesim_sched_park_wakeups_total",
        "Times an idle worker woke from park.",
        |s| s.sched_park_wakeups,
    ),
];

/// What [`SimService::execute`] is doing, as it does it. The one-shot
/// CLI renders these as its stderr header and `-v` lines; `serve`
/// ignores them. Observing never changes a response byte.
#[derive(Debug)]
pub enum Progress<'a> {
    /// A `run` request (or, with `llm` set, an `llm` request) validated
    /// and is about to execute `topology` on `sim`. The CLI's
    /// `--profile-stages` keeps a clone of the engine to read its stage
    /// totals back from after the run.
    Run {
        /// The engine about to run.
        sim: &'a ScaleSim,
        /// The parsed (or generated) workload.
        topology: &'a Topology,
        /// The resolved model of an `llm` request.
        llm: Option<&'a LlmRunSpec>,
    },
    /// One finished layer of a `run` / `llm`, in topology order.
    Layer(&'a LayerResult),
    /// A `sweep` request validated and is about to execute.
    Sweep {
        /// The parsed grid spec.
        spec: &'a SweepSpec,
        /// Workload count.
        topologies: usize,
        /// Executor shard count.
        shards: usize,
    },
    /// One finished sweep run, in shard emission order.
    SweepRun(&'a RunRecord),
    /// The finished sweep's plan-cache counters (timing-dependent, so
    /// not part of the response).
    SweepCache(PlanCacheStats),
    /// A `scaleout` request validated and is about to execute.
    Scaleout {
        /// The parsed workload.
        topology: &'a Topology,
        /// The resolved scale-out parameters (cfg section plus request
        /// overrides).
        spec: &'a ScaleoutSpec,
    },
    /// One resolved scale-out layer, in layer order.
    ScaleoutLayer(&'a ScaleoutLayerRecord),
}

/// Streams `topology` through `sim`, collecting the response body: the
/// O(1) summary plus every report the configuration produces.
fn run_body(
    sim: &ScaleSim,
    topology: &Topology,
    llm: Option<&LlmRunSpec>,
    cancel: &CancelToken,
    progress: &mut dyn FnMut(Progress<'_>),
) -> Result<RunBody, SimError> {
    progress(Progress::Run { sim, topology, llm });
    let mut csv = MemoryReportSink::new();
    let mut summary = RunSummary::new();
    let mut sink = |result: LayerResult| {
        progress(Progress::Layer(&result));
        summary.add(&result);
        csv.layer(result);
    };
    sim.run_topology_with(topology, &mut sink, cancel)?;
    Ok(RunBody {
        summary: RunSummaryBody {
            layers: summary.layers,
            total_cycles: summary.total_cycles,
            compute_cycles: summary.compute_cycles,
            stall_cycles: summary.stall_cycles,
            macs: summary.macs,
            utilization: summary.utilization(),
            energy_mj: summary.energy_mj(),
            noc_words: summary.noc_words,
        },
        reports: csv
            .finish()
            .into_iter()
            .map(|(name, content)| Report {
                name: name.to_string(),
                content,
            })
            .collect(),
    })
}

/// Resolves an llm request into its configuration and model: the model
/// spec comes from the configuration's `[llm]` section and/or the
/// `workload` preset name, with the request's phase/seq/batch/context
/// overrides applied on top. `Config` errors for unknown
/// presets/phases or a request that names no model at all.
fn resolve_llm(request: &LlmRequest) -> Result<(ScaleSimConfig, LlmRunSpec), SimError> {
    let config = load_config(&request.config, &request.features)?;
    let mut llm = match (config.llm.clone(), &request.workload) {
        (Some(run), None) => run,
        (base, Some(name)) => {
            let spec = LlmSpec::preset(name).ok_or_else(|| {
                SimError::Config(format!(
                    "unknown llm workload '{name}' (presets: {})",
                    LlmSpec::preset_names().join(", ")
                ))
            })?;
            let mut run = base.unwrap_or_default();
            run.spec = spec;
            run
        }
        (None, None) => {
            return Err(SimError::Config(
                "llm: no model named — pass a preset (--workload / \"workload\") \
                 or an [llm] cfg section"
                    .into(),
            ))
        }
    };
    if let Some(phase) = &request.phase {
        llm.phase = Phase::parse(phase).map_err(SimError::Config)?;
    }
    if let Some(seq) = request.seq {
        llm.spec.seq = seq;
    }
    if let Some(batch) = request.batch {
        llm.spec.batch = batch;
    }
    if let Some(context) = request.context {
        llm.context = Some(context);
    }
    Ok((config, llm))
}

/// Loads and validates everything a sweep request needs: the grid spec
/// (topology paths resolved out), the base configuration and the
/// workloads.
fn resolve_sweep(
    request: &SweepRequest,
) -> Result<(SweepSpec, ScaleSimConfig, Vec<Topology>), SimError> {
    let (text, spec_dir) = match &request.spec {
        ConfigSource::Default => {
            return Err(SimError::Config(
                "a sweep needs a grid spec (inline or path)".into(),
            ))
        }
        ConfigSource::Inline(text) => (text.clone(), None),
        ConfigSource::Path(path) => (
            read_input(Path::new(path))?,
            Path::new(path).parent().map(Path::to_path_buf),
        ),
    };
    let mut spec = SweepSpec::parse(&text).map_err(|e| SimError::Config(e.to_string()))?;
    let base = load_config(&request.base_config, &Features::default())?;

    // Topology paths from the spec resolve against the spec's own
    // directory first (so a spec can sit next to its topologies and
    // a same-named file in the CWD cannot shadow them), then fall
    // back to the CWD. Request topologies resolve as given.
    let spec_dir = spec_dir.unwrap_or_else(|| Path::new(".").to_path_buf());
    let mut topologies = Vec::new();
    for rel in spec.topologies.drain(..) {
        let p = Path::new(&rel);
        let spec_relative = spec_dir.join(p);
        let path = if !p.is_absolute() && spec_relative.exists() {
            spec_relative
        } else {
            p.to_path_buf()
        };
        topologies.push(load_topology(&TopologySource::from_path(
            path.display().to_string(),
        ))?);
    }
    for source in &request.topologies {
        topologies.push(load_topology(source)?);
    }
    // An [llm] model in the base config IS the sweep's workload: the
    // seq/batch/phase axes reshape its GEMMs per point, so a fixed
    // topology list cannot coexist with it.
    if let Some(llm) = &base.llm {
        if !topologies.is_empty() {
            return Err(SimError::Config(
                "sweep: an [llm] model and explicit topologies are mutually \
                 exclusive (the llm model is the workload)"
                    .into(),
            ));
        }
        topologies.push(llm.topology().map_err(SimError::Config)?);
    }
    if topologies.is_empty() {
        return Err(SimError::Config(
            "sweep has no topologies (add a [workloads] section or -t)".into(),
        ));
    }
    Ok((spec, base, topologies))
}

/// Loads and validates everything a scale-out request needs: the
/// per-chip architecture (whose `[scaleout]` section seeds the
/// scale-out parameters), the workload, and the request's overrides.
fn resolve_scaleout(
    request: &ScaleoutRequest,
) -> Result<(ScaleSimConfig, Topology, ScaleoutSpec), SimError> {
    let config = load_config(&request.config, &request.features)?;
    let topology = load_topology(&request.topology)?;
    let mut spec = config.scaleout.clone().unwrap_or_default();
    if let Some(chips) = request.chips {
        spec.chips = chips;
        // An explicit chip count invalidates cfg-pinned mesh dims;
        // fall back to the near-square factorization.
        spec.mesh = None;
    }
    if let Some(fabric) = &request.fabric {
        spec.fabric = FabricTag::parse(fabric).map_err(SimError::Config)?;
    }
    if let Some(gbps) = request.link_gbps {
        spec.link_gbps = gbps;
    }
    if let Some(latency) = request.link_latency {
        spec.link_latency = latency;
    }
    if let Some(strategy) = &request.strategy {
        spec.strategy = Strategy::parse(strategy).map_err(SimError::Config)?;
    }
    if let Some(microbatches) = request.microbatches {
        spec.microbatches = microbatches;
    }
    // Fail on inconsistent fabrics before any simulation.
    spec.fabric().map_err(SimError::Config)?;
    Ok((config, topology, spec))
}

/// Packages a finished scale-out run as the response body.
fn scaleout_body(summary: &ScaleoutSummary, report_csv: String) -> ScaleoutBody {
    ScaleoutBody {
        chips: summary.chips as u64,
        strategy: summary.strategy.tag().to_string(),
        fabric: summary.fabric.clone(),
        layers: summary.layers,
        total_cycles: summary.total_cycles,
        compute_cycles: summary.compute_cycles,
        comm_cycles: summary.comm_cycles,
        overlapped_cycles: summary.overlapped_cycles,
        exposed_cycles: summary.exposed_cycles,
        bubble_cycles: summary.bubble_cycles,
        utilization: summary.utilization,
        reports: vec![Report {
            name: "SCALEOUT_REPORT.csv".into(),
            content: report_csv,
        }],
    }
}

/// Packages an area estimate as the response body.
fn area_body(area: &AreaBreakdown) -> AreaBody {
    AreaBody {
        total_mm2: area.total_mm2(),
        pe_array_mm2: area.pe_array_mm2,
        sram_mm2: area.sram_mm2(),
        noc_mm2: area.noc_mm2,
        dram_ctrl_mm2: area.dram_ctrl_mm2,
        reports: vec![Report {
            name: "AREA_REPORT.csv".into(),
            content: format!("{}\n{}\n", AreaBreakdown::csv_header(), area.to_csv_row()),
        }],
    }
}

/// Packages a finished sweep as the response body.
fn sweep_body(grid_points: usize, report: &SweepReport) -> SweepBody {
    SweepBody {
        grid_points,
        runs: report.records().len(),
        pareto_frontier: report
            .pareto_labels()
            .into_iter()
            .map(str::to_string)
            .collect(),
        reports: vec![
            Report {
                name: "SWEEP_REPORT.csv".into(),
                content: report.to_csv(),
            },
            Report {
                name: "SWEEP_REPORT.json".into(),
                content: report.to_json(),
            },
        ],
    }
}

/// The version response body.
fn version_body() -> VersionBody {
    VersionBody {
        version: crate::cli::version_string(),
        api: API_VERSION,
    }
}

/// Snapshots the process's recorded span rings as a `trace` response
/// body. The trace string is empty-but-valid Chrome JSON when tracing
/// was never enabled; `events` counts span/instant records across all
/// categories since process start.
fn trace_body() -> TraceBody {
    TraceBody {
        enabled: scalesim_obs::tracing_enabled(),
        events: scalesim_obs::recorded_events(),
        trace: scalesim_obs::chrome_trace_string(),
    }
}

fn read_input(path: &Path) -> Result<String, SimError> {
    std::fs::read_to_string(path)
        .map_err(|e| SimError::Io(format!("cannot read {}: {e}", path.display())))
}

/// Loads a configuration source and applies the request's feature
/// toggles.
fn load_config(source: &ConfigSource, features: &Features) -> Result<ScaleSimConfig, SimError> {
    let mut config = match source {
        ConfigSource::Default => ScaleSimConfig::default(),
        ConfigSource::Inline(text) => parse_cfg(text)?,
        ConfigSource::Path(path) => parse_cfg(&read_input(Path::new(path))?)?,
    };
    config.enable_dram = features.dram;
    config.enable_energy = features.energy;
    config.enable_layout = features.layout;
    if let Some(cores) = &features.cores {
        let grid = PartitionGrid::parse(cores).ok_or_else(|| {
            SimError::Config(format!("bad cores '{cores}' (expected RxC, e.g. 2x2)"))
        })?;
        config.multicore = MultiCoreIntegration::for_grid(grid);
    }
    Ok(config)
}

/// Loads and parses a topology source, after the same one-source check
/// the wire decoder runs. Registry workloads (CNN/ViT
/// names and llm presets, optionally `:prefill`/`:decode`-suffixed)
/// resolve through [`crate::workloads::by_name_or_err`], whose error
/// spells out the full supported vocabulary.
fn load_topology(source: &TopologySource) -> Result<Topology, SimError> {
    source.one_source()?;
    if let Some(workload) = &source.workload {
        return crate::workloads::by_name_or_err(workload).map_err(SimError::Topology);
    }
    let (csv, default_name) = if let Some(text) = &source.inline {
        (text.clone(), "workload".to_string())
    } else {
        let p = Path::new(source.path.as_deref().expect("one source: inline or path"));
        let stem = p
            .file_stem()
            .map(|s| s.to_string_lossy().to_string())
            .unwrap_or_else(|| "workload".into());
        (read_input(p)?, stem)
    };
    let name = source.name.clone().unwrap_or(default_name);
    let topo = match source.format {
        TopologyFormat::Auto => Topology::parse_csv_auto(&name, &csv),
        TopologyFormat::Conv => Topology::parse_conv_csv(&name, &csv),
        TopologyFormat::Gemm => Topology::parse_gemm_csv(&name, &csv),
    }?;
    if topo.is_empty() {
        return Err(SimError::Topology(format!(
            "topology '{name}' has no layers"
        )));
    }
    Ok(topo)
}

#[cfg(test)]
mod tests {
    use super::*;
    use scalesim_api::{json::Json, AreaSpec, RunSpec};

    #[test]
    fn in_flight_never_wraps() {
        let m = ServeMetrics::default();
        m.dec_in_flight();
        assert_eq!(m.get(&m.in_flight), 0);
        m.inc(&m.in_flight);
        m.dec_in_flight();
        m.dec_in_flight();
        assert_eq!(m.get(&m.in_flight), 0);
    }

    fn gemm_topology() -> TopologySource {
        TopologySource::inline("t", "a, 16, 16, 16,\nb, 24, 24, 24,\n")
            .with_format(TopologyFormat::Gemm)
    }

    #[test]
    fn run_request_produces_summary_and_reports() {
        let service = SimService::new();
        let req = SimRequest::Run(RunSpec {
            config: ConfigSource::Default,
            topology: gemm_topology(),
            features: Features {
                energy: true,
                ..Default::default()
            },
        });
        let SimResponse::Run(body) = service.handle(&req).unwrap() else {
            panic!("expected run body")
        };
        assert_eq!(body.summary.layers, 2);
        assert!(body.summary.total_cycles > 0);
        assert!(body.summary.energy_mj > 0.0);
        let names: Vec<_> = body.reports.iter().map(|r| r.name.as_str()).collect();
        assert_eq!(
            names,
            [
                "COMPUTE_REPORT.csv",
                "BANDWIDTH_REPORT.csv",
                "ENERGY_REPORT.csv"
            ]
        );
    }

    #[test]
    fn repeated_requests_share_the_plan_cache() {
        let service = SimService::new();
        let req = SimRequest::Run(RunSpec {
            config: ConfigSource::Default,
            topology: gemm_topology(),
            features: Features::default(),
        });
        service.handle(&req).unwrap();
        let after_first = service.plan_cache().stats();
        service.handle(&req).unwrap();
        let after_second = service.plan_cache().stats();
        assert_eq!(
            after_second.misses, after_first.misses,
            "second identical request must plan nothing"
        );
        assert!(after_second.hits > after_first.hits);
    }

    #[test]
    fn bad_inputs_map_to_the_right_categories() {
        let service = SimService::new();
        // Unknown cfg key -> config.
        let req = SimRequest::Run(RunSpec {
            config: ConfigSource::Inline("ArrayHieght : 32\n".into()),
            topology: gemm_topology(),
            features: Features::default(),
        });
        assert_eq!(service.handle(&req).unwrap_err().kind(), "config");
        // Duplicate layer name -> topology.
        let req = SimRequest::Run(RunSpec {
            config: ConfigSource::Default,
            topology: TopologySource::inline("t", "a, 8, 8, 8,\na, 8, 8, 8,\n"),
            features: Features::default(),
        });
        let err = service.handle(&req).unwrap_err();
        assert_eq!(err.kind(), "topology");
        assert!(err.message().contains("duplicate layer name 'a'"), "{err}");
        // Missing file -> io.
        let req = SimRequest::Run(RunSpec {
            config: ConfigSource::Path("/nonexistent/x.cfg".into()),
            topology: gemm_topology(),
            features: Features::default(),
        });
        assert_eq!(service.handle(&req).unwrap_err().kind(), "io");
        // Invalid core geometry (SRAM too small to double-buffer) -> config.
        let req = SimRequest::Run(RunSpec {
            config: ConfigSource::Inline(
                "ArrayHeight : 512\nArrayWidth : 512\nIfmapSramSzkB : 1\n\
                 FilterSramSzkB : 1\nOfmapSramSzkB : 1\n"
                    .into(),
            ),
            topology: gemm_topology(),
            features: Features::default(),
        });
        assert_eq!(service.handle(&req).unwrap_err().kind(), "config");
        // Bad cores string -> config.
        let req = SimRequest::Run(RunSpec {
            config: ConfigSource::Default,
            topology: gemm_topology(),
            features: Features {
                cores: Some("2by2".into()),
                ..Default::default()
            },
        });
        assert_eq!(service.handle(&req).unwrap_err().kind(), "config");
    }

    #[test]
    fn sweep_request_round_trips() {
        let service = SimService::new();
        let req = SimRequest::Sweep(SweepRequest {
            spec: ConfigSource::Inline("array = 8x8, 16x16\nenergy = true\n".into()),
            base_config: ConfigSource::Default,
            topologies: vec![gemm_topology()],
            shards: 2,
        });
        let SimResponse::Sweep(body) = service.handle(&req).unwrap() else {
            panic!("expected sweep body")
        };
        assert_eq!(body.grid_points, 2);
        assert_eq!(body.runs, 2);
        assert!(!body.pareto_frontier.is_empty());
        assert_eq!(body.reports[0].name, "SWEEP_REPORT.csv");
        assert_eq!(body.reports[1].name, "SWEEP_REPORT.json");
    }

    #[test]
    fn sweep_report_json_escapes_control_characters_in_names() {
        let name = "tab\there\u{1}";
        let req = SimRequest::Sweep(SweepRequest {
            spec: ConfigSource::Inline("array = 8x8\n".into()),
            base_config: ConfigSource::Default,
            topologies: vec![
                TopologySource::inline(name, "a, 16, 16, 16,\n").with_format(TopologyFormat::Gemm)
            ],
            shards: 1,
        });
        let SimResponse::Sweep(body) = SimService::new().handle(&req).unwrap() else {
            panic!("expected sweep body")
        };
        let json = Json::parse(&body.reports[1].content).expect("SWEEP_REPORT.json parses");
        let runs = json.get("run_results").and_then(Json::as_array).unwrap();
        assert_eq!(runs[0].get("topology").and_then(Json::as_str), Some(name));
    }

    #[test]
    fn embedded_requests_get_the_decoders_one_source_error() {
        let name_only = TopologySource {
            name: Some("x".into()),
            workload: None,
            ..TopologySource::from_workload("resnet18")
        };
        let path_and_workload = TopologySource {
            workload: Some("resnet18".into()),
            ..TopologySource::from_path("topologies/alexnet.csv")
        };
        let inline_and_path = TopologySource {
            path: Some("topologies/alexnet.csv".into()),
            ..gemm_topology()
        };
        let service = SimService::new();
        for topology in [name_only, path_and_workload, inline_and_path] {
            let req = SimRequest::Run(RunSpec {
                config: ConfigSource::Default,
                topology,
                features: Features::default(),
            });
            let line = scalesim_api::wire::encode_request(None, &req);
            let decoded = scalesim_api::wire::decode_request(&line).1.unwrap_err();
            assert_eq!(decoded.kind(), "config");
            assert_eq!(service.handle(&req).unwrap_err(), decoded, "{line}");
        }
    }

    /// A deliberately tiny transformer so unit tests stay fast in debug
    /// builds; the real presets are exercised by the integration tests
    /// and CI smoke job against the release binary.
    const TINY_LLM_CFG: &str = "[llm]\nPreset : gpt2-xl\nLayers : 2\nDModel : 64\n\
         Heads : 4\nKvHeads : 4\nDFf : 128\nVocab : 256\nSeq : 16\nBatch : 1\n";

    #[test]
    fn llm_request_resolves_cfg_model_with_overrides() {
        let service = SimService::new();
        let req = LlmRequest {
            config: ConfigSource::Inline(TINY_LLM_CFG.into()),
            phase: Some("decode".into()),
            context: Some(64),
            ..Default::default()
        };
        let SimResponse::Llm(body) = service.handle(&SimRequest::Llm(req)).unwrap() else {
            panic!("expected llm body")
        };
        assert_eq!(body.workload, "gpt2-xl");
        assert_eq!(body.phase, "decode");
        assert_eq!(body.context, 64);
        assert!(body.params > 0 && body.kv_cache_bytes > 0);
        assert!(body.summary.total_cycles > 0);
        assert_eq!(body.reports[0].name, "COMPUTE_REPORT.csv");
    }

    #[test]
    fn llm_workload_preset_keeps_cfg_phase_and_context() {
        // The cfg names one model, the request swaps in a preset: the
        // section's phase/context survive the swap.
        let req = LlmRequest {
            config: ConfigSource::Inline(format!("{TINY_LLM_CFG}Phase : decode\nContext : 32\n")),
            workload: Some("gpt2-xl".into()),
            seq: Some(16),
            batch: Some(2),
            ..Default::default()
        };
        let (_, llm) = resolve_llm(&req).unwrap();
        assert_eq!(llm.spec.layers, 48, "preset replaced the tiny model");
        assert_eq!(llm.phase, Phase::Decode);
        assert_eq!(llm.effective_context(), 32);
        assert_eq!(llm.spec.seq, 16);
        assert_eq!(llm.spec.batch, 2);
        // Decode topologies put batch rows through every block GEMM.
        assert!(llm.topology().unwrap().name().ends_with("decode"));
    }

    #[test]
    fn llm_bad_inputs_are_config_errors() {
        // No model named anywhere.
        let err = resolve_llm(&LlmRequest::default()).unwrap_err();
        assert_eq!(err.kind(), "config");
        assert!(err.message().contains("[llm]"), "{err}");
        // Unknown preset names the vocabulary.
        let err = resolve_llm(&LlmRequest::for_workload("llama-13b")).unwrap_err();
        assert_eq!(err.kind(), "config");
        assert!(err.message().contains("llama-7b"), "{err}");
        // Bad phase.
        let req = LlmRequest {
            phase: Some("training".into()),
            ..LlmRequest::for_workload("gpt2-xl")
        };
        let err = resolve_llm(&req).unwrap_err();
        assert_eq!(err.kind(), "config");
        assert!(err.message().contains("unknown phase"), "{err}");
    }

    #[test]
    fn workload_topology_source_resolves_the_registry() {
        let topo = load_topology(&TopologySource::from_workload("gpt2-xl:decode")).unwrap();
        assert!(topo.name().ends_with("decode"));
        assert!(topo.len() > 1);
        let err = load_topology(&TopologySource::from_workload("nonesuch")).unwrap_err();
        assert_eq!(err.kind(), "topology");
        assert!(err.message().contains("known workloads"), "{err}");
    }

    #[test]
    fn scaleout_request_round_trips_and_shares_the_cache() {
        let service = SimService::new();
        let mut req = ScaleoutRequest::for_topology(gemm_topology());
        req.chips = Some(8);
        req.strategy = Some("data".into());
        let SimResponse::Scaleout(body) =
            service.handle(&SimRequest::Scaleout(req.clone())).unwrap()
        else {
            panic!("expected scaleout body")
        };
        assert_eq!(body.chips, 8);
        assert_eq!(body.strategy, "dp");
        assert_eq!(body.layers, 2);
        assert!(body.total_cycles >= body.compute_cycles);
        assert_eq!(body.reports[0].name, "SCALEOUT_REPORT.csv");
        assert!(body.reports[0].content.starts_with("LayerName, Stage,"));
        // The second identical request plans nothing: shards hit the
        // service's shared cache.
        let before = service.plan_cache().stats();
        service.handle(&SimRequest::Scaleout(req)).unwrap();
        let after = service.plan_cache().stats();
        assert_eq!(after.misses, before.misses);
        assert!(after.hits > before.hits);
    }

    #[test]
    fn scaleout_overrides_and_cfg_section_compose() {
        let mut req = ScaleoutRequest::for_topology(gemm_topology());
        req.config = ConfigSource::Inline(
            "[scaleout]\nChips : 4\nStrategy : tensor\nLinkGbps : 25\n".into(),
        );
        let (_, _, spec) = resolve_scaleout(&req).unwrap();
        assert_eq!(spec.chips, 4);
        assert_eq!(spec.strategy, Strategy::TensorParallel);
        // The request override wins over the cfg section.
        req.chips = Some(16);
        req.strategy = Some("pipeline".into());
        let (_, _, spec) = resolve_scaleout(&req).unwrap();
        assert_eq!(spec.chips, 16);
        assert_eq!(spec.strategy, Strategy::PipelineParallel);
        assert_eq!(spec.link_gbps, 25.0, "untouched knobs survive");
    }

    #[test]
    fn scaleout_bad_parameters_are_config_errors() {
        let service = SimService::new();
        let mut req = ScaleoutRequest::for_topology(gemm_topology());
        req.fabric = Some("torus".into());
        assert_eq!(
            service
                .handle(&SimRequest::Scaleout(req))
                .unwrap_err()
                .kind(),
            "config"
        );
        let mut req = ScaleoutRequest::for_topology(gemm_topology());
        req.chips = Some(6);
        req.fabric = Some("switch".into());
        let err = service.handle(&SimRequest::Scaleout(req)).unwrap_err();
        assert_eq!(err.kind(), "config");
        assert!(err.message().contains("power-of-two"), "{err}");
    }

    #[test]
    fn area_and_version_answer() {
        let service = SimService::new();
        let SimResponse::Area(area) = service
            .handle(&SimRequest::AreaReport(AreaSpec::default()))
            .unwrap()
        else {
            panic!("expected area body")
        };
        assert!(area.total_mm2 > 0.0);
        assert!(area.reports[0].content.starts_with("pe_array_mm2"));
        let SimResponse::Version(v) = service.handle(&SimRequest::Version).unwrap() else {
            panic!("expected version body")
        };
        assert_eq!(v.api, API_VERSION);
        assert!(v.version.starts_with("scalesim "));
    }

    #[test]
    fn stats_request_snapshots_the_cache_and_reports_zero_serve_counters() {
        let service = SimService::new();
        let req = SimRequest::Run(RunSpec {
            config: ConfigSource::Default,
            topology: gemm_topology(),
            features: Features::default(),
        });
        service.handle(&req).unwrap();
        service.handle(&req).unwrap();
        let SimResponse::Stats(stats) = service.handle(&SimRequest::Stats).unwrap() else {
            panic!("expected stats body")
        };
        assert_eq!(stats.cache_misses, 2, "two layers planned once");
        assert_eq!(stats.cache_hits, 2, "second request reused both plans");
        assert_eq!(stats.cache_plans, 2);
        assert!((stats.cache_hit_rate - 0.5).abs() < 1e-12);
        assert!(stats.cache_resident_bytes > 0);
        // The real bound, never 0: the default budget unless the
        // deployment override is set in this test's environment.
        assert_eq!(
            stats.cache_budget_bytes,
            service.plan_cache().budget_bytes() as u64
        );
        assert!(stats.cache_budget_bytes > 0);
        // A one-shot service records no serve-loop counters: those are
        // bumped by the serve transport, not by handle().
        assert_eq!(stats.requests_total, 0);
        assert_eq!(stats.in_flight, 0);
        assert_eq!(stats.latency_count, 0);
    }

    #[test]
    fn expired_token_yields_deadline_and_a_live_token_changes_nothing() {
        let service = SimService::new();
        for req in [
            SimRequest::Run(RunSpec {
                config: ConfigSource::Default,
                topology: gemm_topology(),
                features: Features::default(),
            }),
            SimRequest::Sweep(SweepRequest {
                spec: ConfigSource::Inline("array = 8x8\n".into()),
                base_config: ConfigSource::Default,
                topologies: vec![gemm_topology()],
                shards: 1,
            }),
            SimRequest::Scaleout(ScaleoutRequest::for_topology(gemm_topology())),
            SimRequest::Llm(LlmRequest {
                config: ConfigSource::Inline(TINY_LLM_CFG.into()),
                ..Default::default()
            }),
        ] {
            let dead = CancelToken::after_ms(0);
            let err = service.execute(&req, &dead, &mut |_| {}).unwrap_err();
            assert_eq!(err.kind(), "deadline");
            assert_eq!(err.exit_code(), 124);
            assert_eq!(err.message(), "deadline of 0 ms exceeded");
            // A token that never fires must not perturb the response.
            let live = CancelToken::after_ms(600_000);
            let with_token = service.execute(&req, &live, &mut |_| {}).unwrap();
            let without = service.handle(&req).unwrap();
            assert_eq!(
                with_token, without,
                "cancel tokens cost checks, not results"
            );
        }
    }

    #[test]
    fn progress_events_announce_the_run_then_stream_its_layers() {
        let service = SimService::new();
        let req = SimRequest::Run(RunSpec {
            config: ConfigSource::Default,
            topology: gemm_topology(),
            features: Features::default(),
        });
        let mut events = Vec::new();
        let observed = service
            .execute(&req, &CancelToken::never(), &mut |event| {
                events.push(match event {
                    Progress::Run { topology, llm, .. } => {
                        format!("run {} llm={}", topology.name(), llm.is_some())
                    }
                    Progress::Layer(layer) => format!("layer {}", layer.name),
                    other => format!("{other:?}"),
                })
            })
            .unwrap();
        assert_eq!(events, ["run t llm=false", "layer a", "layer b"]);
        // By construction too: every event lends the observer shared
        // references (`Progress::Run` holds `&ScaleSim`), so there is
        // nothing it could swap or reconfigure.
        assert_eq!(
            observed,
            service.handle(&req).unwrap(),
            "observing changes no response byte"
        );
    }

    /// Golden test for the Prometheus text exposition: the exact line
    /// sequence — HELP text, TYPE declarations, metric names, label
    /// sets — is pinned, with sample *values* normalized to `V` (they
    /// depend on machine parallelism and process-global counters).
    /// Scrapers key on names and labels; renaming or reordering a
    /// series is a breaking change and must show up here.
    #[test]
    fn prometheus_exposition_format_is_pinned() {
        let service = SimService::new();
        let body = service.render_prometheus();
        let normalized: String = body
            .lines()
            .map(|line| {
                if line.starts_with('#') {
                    format!("{line}\n")
                } else {
                    let cut = line.rfind(' ').expect("sample line has a value");
                    format!("{} V\n", &line[..cut])
                }
            })
            .collect();
        let golden = "\
# HELP scalesim_requests_total Requests received (executed or shed).
# TYPE scalesim_requests_total counter
scalesim_requests_total V
# HELP scalesim_requests_completed_total Requests fully handled (ok or typed error written).
# TYPE scalesim_requests_completed_total counter
scalesim_requests_completed_total V
# HELP scalesim_requests_shed_total Requests shed with busy at the session cap.
# TYPE scalesim_requests_shed_total counter
scalesim_requests_shed_total V
# HELP scalesim_deadline_expired_total Requests that returned a deadline error.
# TYPE scalesim_deadline_expired_total counter
scalesim_deadline_expired_total V
# HELP scalesim_requests_in_flight Requests currently executing.
# TYPE scalesim_requests_in_flight gauge
scalesim_requests_in_flight V
# HELP scalesim_handle_latency_us Request handle latency (decode to encode), microseconds.
# TYPE scalesim_handle_latency_us histogram
scalesim_handle_latency_us_bucket{le=\"+Inf\"} V
scalesim_handle_latency_us_sum V
scalesim_handle_latency_us_count V
# HELP scalesim_plan_cache_hits_total Plan-cache lookups answered from the cache.
# TYPE scalesim_plan_cache_hits_total counter
scalesim_plan_cache_hits_total V
# HELP scalesim_plan_cache_misses_total Plan-cache lookups that planned fresh.
# TYPE scalesim_plan_cache_misses_total counter
scalesim_plan_cache_misses_total V
# HELP scalesim_plan_cache_evictions_total Plans evicted to stay within the cache bound.
# TYPE scalesim_plan_cache_evictions_total counter
scalesim_plan_cache_evictions_total V
# HELP scalesim_plan_cache_resident_bytes Bytes held by resident plans.
# TYPE scalesim_plan_cache_resident_bytes gauge
scalesim_plan_cache_resident_bytes V
# HELP scalesim_sched_workers Worker threads in the global scheduler pool.
# TYPE scalesim_sched_workers gauge
scalesim_sched_workers V
# HELP scalesim_sched_park_wakeups_total Times an idle worker woke from park.
# TYPE scalesim_sched_park_wakeups_total counter
scalesim_sched_park_wakeups_total V
# HELP scalesim_spans_total Span/instant events recorded per category.
# TYPE scalesim_spans_total counter
scalesim_spans_total{category=\"sched\"} V
scalesim_spans_total{category=\"pipeline\"} V
scalesim_spans_total{category=\"cache\"} V
scalesim_spans_total{category=\"dram\"} V
scalesim_spans_total{category=\"collective\"} V
scalesim_spans_total{category=\"serve\"} V
scalesim_spans_total{category=\"sweep\"} V
";
        assert_eq!(normalized, golden, "Prometheus exposition drifted");
    }

    #[test]
    fn multicore_feature_parses_grids() {
        let config = load_config(
            &ConfigSource::Default,
            &Features {
                cores: Some("2x2".into()),
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(config.multicore.unwrap().grid.cores(), 4);
        let single = load_config(
            &ConfigSource::Default,
            &Features {
                cores: Some("1x1".into()),
                ..Default::default()
            },
        )
        .unwrap();
        assert!(single.multicore.is_none());
    }
}
