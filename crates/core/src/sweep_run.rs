//! Design-space-exploration glue: runs a [`SweepSpec`] grid through the
//! integrated [`ScaleSim`] engine.
//!
//! The generic sweep machinery (spec parsing, grid expansion, sharded
//! execution, Pareto analysis, report emission) lives in the
//! `scalesim-sweep` crate; this module binds it to the engine — applying
//! each [`SweepPoint`]'s overrides to a base [`ScaleSimConfig`], running
//! every `(point, topology)` pair on the shared worker pool with **one
//! plan cache for the whole grid**, and reducing per-layer results into
//! [`RunRecord`]s.
//!
//! Everything here is deterministic: records are keyed by run index and
//! the report emitters sort by it, so `SWEEP_REPORT.{csv,json}` are
//! byte-identical regardless of `SCALESIM_THREADS` and the shard count.

use crate::cancel::CancelToken;
use crate::config::{DramIntegration, MultiCoreIntegration, ScaleSimConfig};
use crate::engine::ScaleSim;
use crate::scaleout::{run_scaleout, ScaleoutSummary};
use crate::sink::RunSummary;
use scalesim_collective::ScaleoutSpec;
use scalesim_sweep::spec::AxisValue;
use scalesim_sweep::{run_sharded_with, RunRecord, SweepPoint, SweepReport, SweepSpec};
use scalesim_systolic::{MemoryConfig, PlanCache, PlanCacheStats, Topology};
use std::sync::Arc;

/// Applies a grid point's overrides to a base configuration; axes the
/// point does not sweep inherit the base value.
pub fn apply_point(base: &ScaleSimConfig, point: &SweepPoint) -> ScaleSimConfig {
    let mut cfg = base.clone();
    // Scale-out axes: any of them materializes the [scaleout] section
    // (seeded from the base config or the defaults) and overrides the
    // named knob.
    let mut scaleout: Option<ScaleoutSpec> = None;
    let seed = || base.scaleout.clone().unwrap_or_default();
    for value in point.values() {
        match value {
            AxisValue::Array(array) => cfg.core.array = array,
            AxisValue::Dataflow(dataflow) => cfg.core.dataflow = dataflow,
            AxisValue::SramKb(ifmap_kb, filter_kb, ofmap_kb) => {
                let old = cfg.core.memory;
                cfg.core.memory = MemoryConfig {
                    dram_bandwidth: old.dram_bandwidth,
                    sram_row_words: old.sram_row_words,
                    sram_row_buffers: old.sram_row_buffers,
                    ..MemoryConfig::from_kilobytes(
                        ifmap_kb,
                        filter_kb,
                        ofmap_kb,
                        old.bytes_per_word,
                    )
                };
            }
            AxisValue::Bandwidth(bandwidth) => cfg.core.memory.dram_bandwidth = bandwidth,
            AxisValue::Cores(grid) => {
                // Preserve the base scheme/L2 choice when the base is
                // already multi-core.
                let bare = MultiCoreIntegration::for_grid(grid);
                cfg.multicore = bare.map(|bare| match &base.multicore {
                    Some(mc) => MultiCoreIntegration { grid, ..mc.clone() },
                    None => bare,
                });
            }
            AxisValue::Dram(dram) => cfg.enable_dram = dram,
            AxisValue::DramModel(model) => {
                // The spec parser only admits `DramSpec::preset_names` entries.
                let spec = scalesim_mem::DramSpec::by_name(model).unwrap_or_else(|| {
                    unreachable!("sweep spec admitted unknown dram model {model}")
                });
                cfg.dram = DramIntegration::for_spec(spec, cfg.dram.channels, 1.0e9);
            }
            AxisValue::Energy(energy) => cfg.enable_energy = energy,
            AxisValue::Layout(layout) => cfg.enable_layout = layout,
            AxisValue::Chips(chips) => {
                let so = scaleout.get_or_insert_with(seed);
                so.chips = chips;
                so.mesh = None;
            }
            AxisValue::LinkGbps(gbps) => scaleout.get_or_insert_with(seed).link_gbps = gbps,
            AxisValue::Strategy(strategy) => scaleout.get_or_insert_with(seed).strategy = strategy,
            // LLM axes: reshape the base [llm] model (the runner
            // regenerates the topology per point). Points sweeping these
            // without an [llm] model are rejected up front in `run_sweep`.
            AxisValue::Seq(seq) => cfg.llm.iter_mut().for_each(|llm| llm.spec.seq = seq),
            AxisValue::Batch(batch) => cfg.llm.iter_mut().for_each(|llm| llm.spec.batch = batch),
            AxisValue::Phase(phase) => cfg.llm.iter_mut().for_each(|llm| llm.phase = phase),
        }
    }
    if let Some(so) = scaleout {
        // A resolved chip count of 1 stays a plain single-chip run —
        // the natural weak-scaling baseline.
        cfg.scaleout = (so.chips > 1).then_some(so);
    }
    cfg
}

/// The cfg-derived columns shared by every record kind (the run's
/// dynamic metrics are zeroed; the caller fills them). One source of
/// truth, so single-chip and scale-out rows can never disagree on
/// static configuration columns.
fn base_record(
    run: usize,
    point: &SweepPoint,
    cfg: &ScaleSimConfig,
    topology: &Topology,
) -> RunRecord {
    let mem = &cfg.core.memory;
    let kb = |words: usize| words * mem.bytes_per_word / 1024;
    RunRecord {
        run,
        point: point.index,
        point_label: point.label(),
        topology: topology.name().to_string(),
        array_rows: cfg.core.array.rows(),
        array_cols: cfg.core.array.cols(),
        dataflow: cfg.core.dataflow.short_name().to_string(),
        sram_kb: (
            kb(mem.ifmap_words),
            kb(mem.filter_words),
            kb(mem.ofmap_words),
        ),
        bandwidth: mem.dram_bandwidth,
        cores: cfg.multicore.as_ref().map_or(1, |mc| mc.grid.cores()),
        dram_enabled: cfg.enable_dram,
        energy_enabled: cfg.enable_energy,
        layout_enabled: cfg.enable_layout,
        layers: 0,
        total_cycles: 0,
        compute_cycles: 0,
        stall_cycles: 0,
        utilization: 0.0,
        macs: 0,
        energy_mj: 0.0,
        edp_cycles_mj: 0.0,
        noc_words: 0,
    }
}

/// Reduces one topology run's streamed [`RunSummary`] into a sweep
/// record. The summary accumulates the same reductions (in the same
/// layer order) the collected `RunResult` path used to compute, so
/// records — and therefore report bytes — are unchanged; the layer
/// results themselves are never materialized.
fn record_for(
    run: usize,
    point: &SweepPoint,
    cfg: &ScaleSimConfig,
    topology: &Topology,
    summary: &RunSummary,
) -> RunRecord {
    RunRecord {
        layers: summary.layers,
        total_cycles: summary.total_cycles,
        compute_cycles: summary.compute_cycles,
        stall_cycles: summary.stall_cycles,
        utilization: summary.utilization(),
        macs: summary.macs,
        energy_mj: summary.energy_mj(),
        edp_cycles_mj: summary.edp_cycles_mj(),
        noc_words: summary.noc_words,
        ..base_record(run, point, cfg, topology)
    }
}

/// Reduces a scale-out run's summary into a sweep record. The standard
/// columns keep their meaning where one exists at system scale:
/// `TotalCycles` is the multi-chip critical path, `StallCycles` carries
/// the exposed communication plus the pipeline bubble (the scale-out
/// analogue of waiting on memory), `MACs` are the simulated shards'
/// (per-chip under data/tensor, whole-pass under pipeline), and
/// `EnergyMj` is the fleet total
/// ([`ScaleoutSummary::fleet_energy_mj`]). The scale-out axes
/// themselves are encoded in `PointLabel` (`p8-g100-dp`).
fn record_for_scaleout(
    run: usize,
    point: &SweepPoint,
    cfg: &ScaleSimConfig,
    topology: &Topology,
    summary: &ScaleoutSummary,
) -> RunRecord {
    let fleet_energy = summary.fleet_energy_mj();
    RunRecord {
        layers: summary.layers,
        total_cycles: summary.total_cycles,
        compute_cycles: summary.compute_cycles,
        stall_cycles: summary.exposed_cycles + summary.bubble_cycles,
        utilization: summary.utilization,
        macs: summary.simulated_macs,
        energy_mj: fleet_energy,
        edp_cycles_mj: summary.total_cycles as f64 * fleet_energy,
        noc_words: summary.noc_words,
        ..base_record(run, point, cfg, topology)
    }
}

/// Executes the whole sweep: expands the grid, validates every point,
/// runs each `(point, topology)` pair on the sharded worker pool with
/// the caller's [`PlanCache`] shared across all configurations, and
/// aggregates everything into a [`SweepReport`]. A persistent
/// `scalesim serve` process passes its long-lived cache so successive
/// sweep (and run) requests share warm plans; results never depend on
/// the cache's contents or capacity, only planning time does.
///
/// `on_record` sees every [`RunRecord`] as its shard completes (shard
/// emission order — not globally sorted by run index; the final report
/// sorts). Use it for progress reporting or incremental accumulators
/// (e.g. [`scalesim_sweep::ParetoAccumulator`]) without waiting for the
/// grid; pass `|_| {}` to ignore it.
///
/// Each run streams its layers through an O(1) [`RunSummary`] sink, so
/// peak memory is bounded by the worker block — not the topology length
/// — times the thread count, plus one record per run.
///
/// Returns the report plus the cache's counters (how much planning the
/// grid shared; the counters are timing-dependent under parallel
/// execution and are *not* part of the deterministic report).
///
/// # Errors
///
/// Returns an error naming the offending grid point when any expanded
/// configuration fails validation (e.g. an SRAM too small to
/// double-buffer the array), before any simulation runs.
pub fn run_sweep(
    spec: &SweepSpec,
    base: &ScaleSimConfig,
    topologies: &[Topology],
    shards: usize,
    cache: &Arc<PlanCache>,
    mut on_record: impl FnMut(&RunRecord),
) -> Result<(SweepReport, PlanCacheStats), String> {
    let grid = spec.expand();
    let llm_axis = |v| {
        matches!(
            v,
            AxisValue::Seq(_) | AxisValue::Batch(_) | AxisValue::Phase(_)
        )
    };
    for point in &grid {
        if base.llm.is_none() && point.values().any(llm_axis) {
            return Err(format!(
                "grid point '{}': the seq/batch/phase axes need an [llm] model in the \
                 base config",
                point.label()
            ));
        }
        let cfg = apply_point(base, point);
        cfg.core
            .validate()
            .map_err(|e| format!("grid point '{}': {e}", point.label()))?;
        if let Some(so) = &cfg.scaleout {
            so.fabric()
                .map_err(|e| format!("grid point '{}': {e}", point.label()))?;
        }
        if let Some(llm) = &cfg.llm {
            llm.spec
                .validate()
                .map_err(|e| format!("grid point '{}': {e}", point.label()))?;
        }
    }
    let mut records = Vec::with_capacity(grid.len() * topologies.len());
    run_sharded_with(
        &grid,
        topologies,
        shards,
        |run, point, topology| {
            let cfg = apply_point(base, point);
            // An [llm] model is the workload itself: its GEMM shapes
            // depend on the point's seq/batch/phase, so the topology is
            // regenerated here rather than taken from the fixed list.
            let llm_topology = cfg.llm.as_ref().map(|llm| {
                llm.topology()
                    .expect("llm points are validated before the grid runs")
            });
            let topology = llm_topology.as_ref().unwrap_or(topology);
            let sim = ScaleSim::with_cache(cfg.clone(), Arc::clone(cache))
                .expect("grid points are validated before the grid runs");
            if let Some(so) = &cfg.scaleout {
                let summary = run_scaleout(&sim, topology, so, &mut |_| {})
                    .expect("scale-out points are validated before the grid runs");
                record_for_scaleout(run, point, &cfg, topology, &summary)
            } else {
                let mut summary = RunSummary::new();
                sim.run_topology_with(topology, &mut summary, &CancelToken::never())
                    .expect("a never-token cannot expire");
                record_for(run, point, &cfg, topology, &summary)
            }
        },
        |_, record| {
            on_record(&record);
            records.push(record);
        },
    );
    Ok((SweepReport::new(spec.name.clone(), records), cache.stats()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use scalesim_systolic::{ArrayShape, Layer};

    fn spec(text: &str) -> SweepSpec {
        SweepSpec::parse(text).unwrap()
    }

    /// The sweep against a fresh cache, ignoring the record stream.
    fn sweep(
        spec: &SweepSpec,
        base: &ScaleSimConfig,
        topologies: &[Topology],
        shards: usize,
    ) -> Result<(SweepReport, PlanCacheStats), String> {
        run_sweep(
            spec,
            base,
            topologies,
            shards,
            &Arc::new(PlanCache::new()),
            |_| {},
        )
    }

    fn small_topos() -> Vec<Topology> {
        vec![
            Topology::from_layers(
                "t0",
                vec![
                    Layer::gemm_layer("a", 16, 16, 16),
                    Layer::gemm_layer("b", 24, 24, 24),
                ],
            ),
            Topology::from_layers("t1", vec![Layer::gemm_layer("c", 32, 32, 32)]),
        ]
    }

    #[test]
    fn apply_point_overrides_only_swept_axes() {
        let base = ScaleSimConfig::default();
        let grid = spec("array = 16x8\nbandwidth = 4\n").expand();
        let cfg = apply_point(&base, &grid[0]);
        assert_eq!(cfg.core.array, ArrayShape::new(16, 8));
        assert_eq!(cfg.core.memory.dram_bandwidth, 4.0);
        assert_eq!(cfg.core.dataflow, base.core.dataflow);
        assert_eq!(cfg.core.memory.ifmap_words, base.core.memory.ifmap_words);
    }

    #[test]
    fn apply_point_changes_only_the_knobs_the_point_sweeps() {
        use scalesim_llm::LlmRunSpec;
        // A base where every section exists, so every axis has a knob to
        // turn and a neighbour it could wrongly disturb.
        let base = ScaleSimConfig {
            scaleout: Some(ScaleoutSpec {
                chips: 4,
                mesh: Some((2, 2)),
                ..Default::default()
            }),
            llm: Some(LlmRunSpec::default()),
            ..ScaleSimConfig::default()
        };
        // Puts the knob `value` turned back to its base setting.
        let restore = |cfg: &mut ScaleSimConfig, value: AxisValue| {
            let (mem, base_mem) = (&mut cfg.core.memory, &base.core.memory);
            let so = cfg.scaleout.as_mut().zip(base.scaleout.as_ref());
            let llm = cfg.llm.as_mut().zip(base.llm.as_ref());
            match value {
                AxisValue::Array(_) => cfg.core.array = base.core.array,
                AxisValue::Dataflow(_) => cfg.core.dataflow = base.core.dataflow,
                AxisValue::SramKb(..) => {
                    mem.ifmap_words = base_mem.ifmap_words;
                    mem.filter_words = base_mem.filter_words;
                    mem.ofmap_words = base_mem.ofmap_words;
                }
                AxisValue::Bandwidth(_) => mem.dram_bandwidth = base_mem.dram_bandwidth,
                AxisValue::Cores(_) => cfg.multicore = base.multicore.clone(),
                AxisValue::Dram(_) => cfg.enable_dram = base.enable_dram,
                AxisValue::DramModel(_) => cfg.dram = base.dram,
                AxisValue::Energy(_) => cfg.enable_energy = base.enable_energy,
                AxisValue::Layout(_) => cfg.enable_layout = base.enable_layout,
                AxisValue::Chips(_) => so
                    .into_iter()
                    .for_each(|(so, b)| (so.chips, so.mesh) = (b.chips, b.mesh)),
                AxisValue::LinkGbps(_) => so
                    .into_iter()
                    .for_each(|(so, b)| so.link_gbps = b.link_gbps),
                AxisValue::Strategy(_) => {
                    so.into_iter().for_each(|(so, b)| so.strategy = b.strategy)
                }
                AxisValue::Seq(_) => llm
                    .into_iter()
                    .for_each(|(llm, b)| llm.spec.seq = b.spec.seq),
                AxisValue::Batch(_) => llm
                    .into_iter()
                    .for_each(|(llm, b)| llm.spec.batch = b.spec.batch),
                AxisValue::Phase(_) => llm.into_iter().for_each(|(llm, b)| llm.phase = b.phase),
            }
        };
        let lines = [
            "array = 16x64",
            "dataflow = ws",
            "sram_kb = 256/256/128",
            "bandwidth = 20",
            "cores = 2x2",
            "dram = true",
            "dram_model = hbm2",
            "energy = true",
            "layout = true",
            "chips = 8",
            "link_gbps = 25",
            "strategy = tensor",
            "seq = 64",
            "batch = 8",
            "phase = decode",
        ];
        // Each axis alone, then every axis at once.
        for text in lines
            .iter()
            .map(|l| l.to_string())
            .chain([lines.join("\n")])
        {
            let point = spec(&text).expand()[0];
            let mut cfg = apply_point(&base, &point);
            for value in point.values() {
                let before = cfg.clone();
                restore(&mut cfg, value);
                assert_ne!(cfg, before, "{value:?} must change its own knob");
            }
            assert_eq!(cfg, base, "'{text}' touched a knob it does not sweep");
        }
        assert_eq!(apply_point(&base, &spec("").expand()[0]), base);
    }

    #[test]
    fn apply_point_swaps_the_dram_device_preset() {
        let base = ScaleSimConfig::default();
        let grid = spec("dram = true\ndram_model = hbm2, lpddr4_3200\n").expand();
        let a = apply_point(&base, &grid[0]);
        assert!(a.enable_dram);
        assert_eq!(a.dram.spec.name, scalesim_mem::DramSpec::hbm2().name);
        let b = apply_point(&base, &grid[1]);
        assert_eq!(b.dram.spec.name, scalesim_mem::DramSpec::lpddr4_3200().name);
        assert_ne!(
            a.dram.mem_cycles_per_core_cycle,
            b.dram.mem_cycles_per_core_cycle
        );
    }

    #[test]
    fn apply_point_multicore_roundtrip() {
        let base = ScaleSimConfig::default();
        let grid = spec("cores = 1x1, 2x2\n").expand();
        assert!(apply_point(&base, &grid[0]).multicore.is_none());
        let mc = apply_point(&base, &grid[1]).multicore.unwrap();
        assert_eq!(mc.grid.cores(), 4);
    }

    #[test]
    fn invalid_grid_point_is_reported_before_running() {
        let base = ScaleSimConfig::default();
        // 1 kB SRAM cannot double-buffer a 512-wide array.
        let s = spec("array = 512x512\nsram_kb = 1/1/1\n");
        let err = sweep(&s, &base, &small_topos(), 1).unwrap_err();
        assert!(err.contains("512x512"), "{err}");
    }

    #[test]
    fn sweep_runs_grid_times_topologies() {
        let base = ScaleSimConfig::default();
        let s = spec("array = 8x8, 16x16\ndataflow = os, ws\nenergy = true\n");
        // shards = total runs serializes across runs, making the cache
        // counters deterministic (concurrent misses on one key may
        // otherwise both plan and both count).
        let (report, stats) = sweep(&s, &base, &small_topos(), 8).unwrap();
        assert_eq!(report.records().len(), 4 * 2);
        assert_eq!(report.points().len(), 4);
        assert!(!report.pareto_labels().is_empty());
        // 4 configs x 3 distinct shapes planned once each.
        assert_eq!(stats.misses, 12);
        assert!(report.records().iter().all(|r| r.total_cycles > 0));
        assert!(report.records().iter().all(|r| r.energy_mj > 0.0));
    }

    #[test]
    fn streaming_observer_sees_every_record() {
        let base = ScaleSimConfig::default();
        let s = spec("array = 8x8\nbandwidth = 4, 10\n");
        let mut seen = Vec::new();
        let cache = Arc::new(PlanCache::new());
        let (report, _) =
            run_sweep(&s, &base, &small_topos(), 2, &cache, |r| seen.push(r.run)).unwrap();
        assert_eq!(seen.len(), report.records().len());
        let mut sorted = seen.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..4).collect::<Vec<_>>());
    }

    #[test]
    fn shard_count_does_not_change_report_bytes() {
        let base = ScaleSimConfig::default();
        let s = spec("array = 8x8, 16x16\nbandwidth = 4, 10\nenergy = true\n");
        let topos = small_topos();
        let (r1, _) = sweep(&s, &base, &topos, 1).unwrap();
        let (r3, _) = sweep(&s, &base, &topos, 3).unwrap();
        assert_eq!(r1.to_csv(), r3.to_csv());
        assert_eq!(r1.to_json(), r3.to_json());
    }

    #[test]
    fn scaleout_axes_run_through_the_collective_path() {
        let base = ScaleSimConfig::default();
        let s = spec("chips = 1, 8\nstrategy = data\nlink_gbps = 100\n");
        // Batch (M) large enough that an 8-way shard visibly shrinks
        // per-chip compute on the default 32x32 array.
        let topos = vec![Topology::from_layers(
            "big",
            vec![
                Layer::gemm_layer("a", 512, 64, 64),
                Layer::gemm_layer("b", 512, 96, 64),
            ],
        )];
        let (report, _) = sweep(&s, &base, &topos, 1).unwrap();
        assert_eq!(report.records().len(), 2);
        let records = report.records();
        // chips = 1 is the plain single-chip baseline (no comm), so for
        // the same topology the 8-chip run computes less per chip.
        let single = &records[0];
        let eight = &records[1];
        assert_eq!(single.point_label, "p1-g100-dp");
        assert_eq!(eight.point_label, "p8-g100-dp");
        assert_eq!(single.topology, eight.topology);
        assert!(eight.compute_cycles < single.compute_cycles);
        assert!(eight.stall_cycles > 0, "exposed comm lands in StallCycles");
    }

    #[test]
    fn scaleout_points_validate_before_running() {
        let base = ScaleSimConfig::default();
        // 6 chips on a switch fabric is invalid (power of two required).
        let mut cfg = base.clone();
        cfg.scaleout = Some(scalesim_collective::ScaleoutSpec {
            fabric: scalesim_collective::FabricTag::Switch,
            ..Default::default()
        });
        let s = spec("chips = 6\n");
        let err = sweep(&s, &cfg, &small_topos(), 1).unwrap_err();
        assert!(err.contains("p6"), "{err}");
        assert!(err.contains("power-of-two"), "{err}");
    }

    #[test]
    fn llm_axes_regenerate_the_topology_per_point() {
        use scalesim_llm::{LlmRunSpec, LlmSpec, Phase};
        let mut model = LlmSpec::preset("gpt2-xl").unwrap();
        model.layers = 2;
        model.d_model = 64;
        model.heads = 4;
        model.kv_heads = 4;
        model.d_ff = 128;
        model.vocab = 256;
        model.seq = 16;
        model.batch = 1;
        let mut base = ScaleSimConfig::default();
        base.llm = Some(LlmRunSpec {
            spec: model,
            phase: Phase::Prefill,
            context: None,
        });
        let workload = vec![base.llm.as_ref().unwrap().topology().unwrap()];
        let s = spec("phase = prefill, decode\nseq = 8, 16\n");
        let (report, _) = sweep(&s, &base, &workload, 1).unwrap();
        let records = report.records();
        assert_eq!(records.len(), 4);
        // Odometer order: seq varies slower than phase (seq listed first
        // in the point, phase fastest) — labels pin both.
        assert_eq!(records[0].point_label, "s8-pf");
        assert_eq!(records[1].point_label, "s8-dec");
        // The topology is regenerated per point: phase shows up in the
        // workload name and decode does far less work than prefill.
        assert!(records[0].topology.ends_with("prefill"));
        assert!(records[1].topology.ends_with("decode"));
        assert!(records[1].macs < records[0].macs);
        // Longer prefill sequences do more MACs.
        assert!(records[2].macs > records[0].macs);
    }

    #[test]
    fn llm_axes_without_a_model_are_rejected() {
        let base = ScaleSimConfig::default();
        let s = spec("seq = 8, 16\n");
        let err = sweep(&s, &base, &small_topos(), 1).unwrap_err();
        assert!(err.contains("[llm]"), "{err}");
        assert!(err.contains("s8"), "{err}");
    }

    #[test]
    fn bandwidth_axis_shares_plans_across_points() {
        let base = ScaleSimConfig::default();
        // Two bandwidths, same planning key -> each shape planned once.
        let s = spec("bandwidth = 4, 10\n");
        let topos = small_topos();
        // shards = total runs serializes across runs (see above).
        let (_, stats) = sweep(&s, &base, &topos, 4).unwrap();
        assert_eq!(stats.misses, 3, "plans must be shared across the grid");
        assert!(stats.hits >= 3);
    }
}
