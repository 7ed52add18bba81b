//! The always-on invariant suite: seeded cross-crate properties that pin
//! the cycle-accurate path against closed forms and conservation laws
//! rather than against an older copy of itself.
//!
//! No external crates: a SplitMix64 drives generation from [`SEED`], and a
//! failing case prints the seed that reproduces it. Case counts keep the
//! whole file well under a minute in a debug build (small arrays, GEMMs
//! ≤ 64³, DRAM traces ≤ 128 requests).

use scale_sim::energy::{
    ActionCounts, ArchSpec, AreaConfig, AreaTable, EnergyModel, EnergyTable, LayerActivity,
};
use scale_sim::layout::{BankModel, LayoutSpec, StreamEvaluator, TensorDims};
use scale_sim::mem::{
    replay_trace, verify_timing, AccessKind, AddressMapping, CommandKind, DramConfig,
    DramEnergyBreakdown, DramSpec, DramSystem, RowPolicy, SchedulingPolicy, TraceRequest,
};
use scale_sim::multicore::{
    best_partition, factor_pairs, memory_footprint_words, non_uniform_split, runtime_cycles,
    L2Config, MappingDims, MemoryPortPlacement, NopMesh, NopProfile, Op, PartitionGrid,
    PartitionObjective, PartitionScheme, PipelineSchedule, SimdOp, SimdUnit, TensorCore,
};
use scale_sim::scalesim::config::MultiCoreIntegration;
use scale_sim::sparse::{
    AnalyticalSparseModel, BlockedEllpack, Csc, Csr, DenseMatrix, NmRatio, Saf, SparseComputeModel,
    SparseFormat, SparsityPattern,
};
use scale_sim::systolic::{
    AnalyticalModel, ArrayShape, CoreSim, Dataflow, DemandGenerator, DemandSummary, GemmShape,
    IdealBandwidthStore, MemoryConfig, PlanCache, SimConfig,
};
use scale_sim::{ScaleSim, ScaleSimConfig};
use std::collections::{HashMap, HashSet};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::Arc;

/// The one seed every property derives its cases from.
const SEED: u64 = 0x5CA1_E51D_0016;

/// SplitMix64: tiny, seedable, good-enough mixing for test generation.
struct SplitMix64(u64);

impl SplitMix64 {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..hi` (half-open).
    fn range(&mut self, lo: usize, hi: usize) -> usize {
        lo + (self.next() % (hi - lo) as u64) as usize
    }

    fn chance(&mut self, one_in: usize) -> bool {
        self.range(0, one_in) == 0
    }

    fn pick<T: Copy>(&mut self, pool: &[T]) -> T {
        pool[self.range(0, pool.len())]
    }
}

/// Runs `cases` seeded cases of `property`. Each case owns a generator
/// seeded from [`SEED`], the property's name and the case index, so a
/// failure reproduces alone from the line printed here.
fn check(name: &str, cases: u64, property: impl Fn(&mut SplitMix64)) {
    let tag = name
        .bytes()
        .fold(0u64, |h, b| h.rotate_left(7) ^ u64::from(b));
    for case in 0..cases {
        let seed = SEED ^ tag.wrapping_mul(0x100_0000_01b3).wrapping_add(case);
        let outcome = catch_unwind(AssertUnwindSafe(|| property(&mut SplitMix64(seed))));
        if let Err(panic) = outcome {
            eprintln!("invariants: `{name}` failed at case {case} of {cases} (seed {seed:#x})");
            resume_unwind(panic);
        }
    }
}

// ---------------------------------------------------------------------------
// crates/systolic: the planner against its closed forms
// ---------------------------------------------------------------------------

/// One (array, dataflow, GEMM, SRAM, bandwidth) draw. The pools are
/// weighted towards the edges: 1×1 arrays, single-element dimensions,
/// dimensions that divide the array exactly, and scratchpads at the
/// smallest size the configuration accepts.
fn draw_core(rng: &mut SplitMix64) -> (SimConfig, GemmShape) {
    let (rows, cols) = if rng.chance(6) {
        (1, 1)
    } else {
        (rng.range(1, 9), rng.range(1, 9))
    };
    let divides = rng.chance(3);
    let dim = |rng: &mut SplitMix64| {
        if divides {
            rows * cols * rng.range(1, 64 / (rows * cols) + 1)
        } else if rng.chance(5) {
            1
        } else {
            rng.range(1, 49)
        }
    };
    let gemm = GemmShape::new(dim(rng), dim(rng), dim(rng));
    let mut config = SimConfig::builder()
        .array(ArrayShape::new(rows, cols))
        .dataflow(rng.pick(&Dataflow::ALL))
        .build();
    config.memory = if rng.chance(2) {
        let min_words = 2 * rows.max(cols);
        let words = |rng: &mut SplitMix64| min_words * rng.range(1, 5);
        MemoryConfig {
            ifmap_words: words(rng),
            filter_words: words(rng),
            ofmap_words: words(rng),
            ..MemoryConfig::from_kilobytes(1, 1, 1, 2)
        }
    } else {
        MemoryConfig::from_kilobytes(rng.range(1, 5), rng.range(1, 5), rng.range(1, 5), 2)
    };
    config.memory.dram_bandwidth = rng.pick(&[1.0, 2.0, 4.0, 10.0, 64.0]);
    (config, gemm)
}

fn describe(config: &SimConfig, gemm: GemmShape) -> String {
    format!("{} {} {gemm:?}", config.array, config.dataflow)
}

#[test]
fn plan_agrees_with_the_closed_forms() {
    check("plan_agrees_with_the_closed_forms", 120, |rng| {
        let (config, gemm) = draw_core(rng);
        let what = describe(&config, gemm);
        let (m, n, k) = (gemm.m as u64, gemm.n as u64, gemm.k as u64);
        let plan = CoreSim::new(config.clone()).plan_gemm(gemm);

        // Cycles: exact closed form, bounded by Eq. 1, equal when the
        // mapped dimensions divide the array.
        let model = AnalyticalModel::new(config.array, config.dataflow, gemm);
        let cycles = plan.compute.total_compute_cycles;
        assert_eq!(cycles, model.exact_runtime_cycles(), "{what}");
        assert_eq!(cycles, plan.inputs.compute_cycles, "{what}");
        assert!(cycles <= model.runtime_cycles(), "{what}: above Eq. 1");
        let (sr, sc, _) = model.mapping();
        if sr % config.array.rows() == 0 && sc % config.array.cols() == 0 {
            assert_eq!(
                cycles,
                model.runtime_cycles(),
                "{what}: Eq. 1 is exact here"
            );
        }

        // Work: every MAC exactly once; utilization is a fraction.
        assert_eq!(plan.compute.macs, m * n * k, "{what}");
        for fraction in [plan.compute.utilization, plan.compute.mapping_efficiency] {
            assert!(
                fraction > 0.0 && fraction <= 1.0 + 1e-12,
                "{what}: {fraction}"
            );
        }

        // Demand totals: closed form == streamed == what the planner saw.
        let generator = DemandGenerator::new(config.array, config.dataflow, gemm);
        let mut streamed = DemandSummary::default();
        generator.run(&mut streamed);
        assert_eq!(generator.summary(), streamed, "{what}");
        assert_eq!(plan.summary, streamed, "{what}");
        assert_eq!(plan.sram.ifmap_reads, streamed.ifmap_reads, "{what}");
        assert_eq!(plan.sram.filter_reads, streamed.filter_reads, "{what}");
        assert!(
            plan.sram.ifmap_repeat_reads <= plan.sram.ifmap_reads,
            "{what}"
        );
        assert!(
            plan.sram.filter_repeat_reads <= plan.sram.filter_reads,
            "{what}"
        );

        // Operand coverage: each input word is fetched at least once, and
        // DRAM traffic can only add capacity refetches to that footprint.
        let (ifmap, filter) = (&plan.inputs.ifmap, &plan.inputs.filter);
        assert_eq!(ifmap.unique_words, m * k, "{what}: ifmap coverage");
        assert_eq!(filter.unique_words, k * n, "{what}: filter coverage");
        assert_eq!(ifmap.total_reads, streamed.ifmap_reads, "{what}");
        assert_eq!(filter.total_reads, streamed.filter_reads, "{what}");

        // The timed report: cycle accounting balances, DRAM reads cover the
        // compulsory footprint, every output reaches DRAM.
        let mut store = IdealBandwidthStore::new(config.memory.dram_bandwidth);
        let memory = plan.report("g", gemm, &mut store).memory;
        assert_eq!(
            memory.total_cycles,
            memory.ramp_up_cycles
                + memory.compute_cycles
                + memory.stall_cycles
                + memory.drain_tail_cycles,
            "{what}"
        );
        assert_eq!(memory.compute_cycles, cycles, "{what}");
        for (stats, footprint) in [(memory.ifmap, m * k), (memory.filter, k * n)] {
            assert_eq!(stats.unique_words, footprint, "{what}");
            assert_eq!(stats.dram_reads, footprint + stats.refetch_words, "{what}");
        }
        assert!(memory.ofmap.dram_writes >= m * n, "{what}: outputs lost");
    });
}

#[test]
fn plan_cache_is_transparent() {
    check("plan_cache_is_transparent", 40, |rng| {
        let (config, gemm) = draw_core(rng);
        let cache = Arc::new(PlanCache::new());
        let cached = CoreSim::new(config.clone()).with_plan_cache(Arc::clone(&cache));
        let cold = cached.plan_gemm_shared(gemm);
        let hot = cached.plan_gemm_shared(gemm);
        assert_eq!(*cold, CoreSim::new(config).plan_gemm(gemm), "{gemm:?}");
        assert!(Arc::ptr_eq(&cold, &hot), "a hit returns the cached plan");
        assert_eq!((cache.misses(), cache.hits()), (1, 1));
    });
}

#[test]
fn more_bandwidth_is_never_slower() {
    check("more_bandwidth_is_never_slower", 60, |rng| {
        let (config, gemm) = draw_core(rng);
        let plan = CoreSim::new(config.clone()).plan_gemm(gemm);
        let total = |bandwidth: f64| {
            let mut store = IdealBandwidthStore::new(bandwidth);
            plan.report("g", gemm, &mut store).memory.total_cycles
        };
        let (slow, mid, fast) = (total(1.0), total(4.0), total(1024.0));
        let what = describe(&config, gemm);
        assert!(
            mid <= slow,
            "{what}: bw 4 ({mid}) slower than bw 1 ({slow})"
        );
        assert!(
            fast <= mid,
            "{what}: bw 1024 ({fast}) slower than bw 4 ({mid})"
        );
    });
}

#[test]
fn more_sram_never_adds_dram_traffic() {
    check("more_sram_never_adds_dram_traffic", 60, |rng| {
        let (small, gemm) = draw_core(rng);
        let mut big = small.clone();
        big.memory.ifmap_words *= 4;
        big.memory.filter_words *= 4;
        big.memory.ofmap_words *= 4;
        let reads = |config: &SimConfig| {
            let memory = CoreSim::new(config.clone()).simulate_gemm(gemm).memory;
            (memory.total_dram_reads(), memory.ofmap.dram_writes)
        };
        let (small_traffic, big_traffic) = (reads(&small), reads(&big));
        let what = describe(&small, gemm);
        assert!(big_traffic.0 <= small_traffic.0, "{what}: reads");
        assert!(big_traffic.1 <= small_traffic.1, "{what}: writes");
    });
}

// ---------------------------------------------------------------------------
// crates/multicore
// ---------------------------------------------------------------------------

#[test]
fn multicore_runs_conserve_work() {
    check("multicore_runs_conserve_work", 12, |rng| {
        let (core, _) = draw_core(rng);
        let gemm = GemmShape::new(rng.range(1, 65), rng.range(1, 65), rng.range(1, 65));
        let mut config = ScaleSimConfig::default();
        config.core = core;
        let single = ScaleSim::new(config.clone()).run_gemm("g", gemm);
        assert_eq!(single.report.compute.macs, gemm.macs());
        for scheme in PartitionScheme::ALL {
            let grid = PartitionGrid::new(rng.range(1, 5), rng.range(1, 5));
            let l2 = rng.chance(2).then(L2Config::default);
            config.multicore = Some(MultiCoreIntegration { grid, scheme, l2 });
            let multi = ScaleSim::new(config.clone()).run_gemm("g", gemm);
            let what = format!("{scheme} {grid:?} {gemm:?}");
            assert_eq!(multi.cores, grid.cores(), "{what}");
            let per_core = multi.report.compute;
            assert!(per_core.macs * grid.cores() as u64 >= gemm.macs(), "{what}");
            assert!(per_core.macs <= gemm.macs(), "{what}");
            assert!(
                per_core.total_compute_cycles <= single.report.compute.total_compute_cycles,
                "{what}: a core of the grid computes longer than the single core"
            );
            assert_eq!(
                multi.noc_words > 0,
                l2.is_some(),
                "{what}: NoC traffic iff L2"
            );
        }
    });
}

#[test]
fn partition_search_respects_its_bounds() {
    check("partition_search_respects_its_bounds", 100, |rng| {
        let dims = MappingDims {
            sr: rng.range(1, 2000),
            sc: rng.range(1, 2000),
            t: rng.range(1, 2000),
        };
        let scheme = rng.pick(&PartitionScheme::ALL);
        let side = rng.range(2, 33);
        let array = ArrayShape::new(side, side);

        // Runtime is monotone in cores.
        let runtime = |pr, pc| runtime_cycles(array, scheme, dims, PartitionGrid::new(pr, pc));
        let single = runtime(1, 1);
        for (pr, pc) in [(1, 2), (2, 1), (2, 2), (4, 2), (4, 4)] {
            assert!(runtime(pr, pc) <= single, "{scheme} {pr}x{pc} {dims:?}");
        }
        assert!(runtime(4, 4) <= runtime(2, 2), "{scheme} {dims:?}");

        // The L2 never grows the footprint; duplication never shrinks it
        // below the workload's own data volume.
        let grid = PartitionGrid::new(rng.range(1, 8), rng.range(1, 8));
        let l2 = L2Config::default();
        let without = memory_footprint_words(scheme, dims, grid, None);
        assert!(memory_footprint_words(scheme, dims, grid, Some(&l2)) <= without);
        let intrinsic = dims.sr * dims.t + dims.sc * dims.t + dims.sr * dims.sc;
        assert!(without >= intrinsic as u64, "{scheme} {grid:?} {dims:?}");

        // best_partition is the argmin of the explicit sweep.
        let cores = 1 << rng.range(1, 7);
        let objective = PartitionObjective::ComputeCycles;
        let best = best_partition(array, scheme, dims, cores, objective, None);
        for grid in factor_pairs(cores) {
            assert!(best.cycles <= runtime_cycles(array, scheme, dims, grid));
        }
    });
}

#[test]
fn non_uniform_split_conserves_work() {
    check("non_uniform_split_conserves_work", 60, |rng| {
        // Water-filling over an arbitrary latency profile never loses to
        // the uniform split.
        let work = rng.range(1, 1_000_000) as u64;
        let hops: Vec<u64> = (0..rng.range(1, 16))
            .map(|_| rng.range(0, 10_000) as u64)
            .collect();
        let profile = NopProfile {
            cycles_per_unit: vec![1.0; hops.len()],
            nop_latency: hops,
        };
        let (shares, makespan) = non_uniform_split(&profile, work);
        assert_eq!(shares.iter().sum::<u64>(), work);
        let uniform_share = work.div_ceil(profile.cores() as u64);
        let uniform = profile.nop_latency.iter().max().unwrap() + uniform_share;
        assert!(makespan <= uniform + 1, "{makespan} > uniform {uniform}");

        // Mesh-derived profiles compose with the partitioner.
        let (rows, cols) = (rng.range(1, 7), rng.range(1, 7));
        let (hop, payload) = (rng.range(1, 1000) as u64, rng.range(0, 100_000) as u64);
        for placement in [
            MemoryPortPlacement::WestEdge,
            MemoryPortPlacement::FourEdges,
            MemoryPortPlacement::Center,
            MemoryPortPlacement::Corner,
        ] {
            let mesh = NopMesh::new(rows, cols, hop, placement);
            for (r, c) in (0..rows).flat_map(|r| (0..cols).map(move |c| (r, c))) {
                let hops = mesh.hops(r, c);
                assert!(
                    (1..=(rows + cols) as u64).contains(&hops),
                    "{placement:?} ({r},{c}): {hops} hops on a {rows}x{cols} mesh"
                );
            }
            let profile = mesh.profile(1.0, payload);
            assert_eq!(profile.cores(), rows * cols);
            let (shares, makespan) = non_uniform_split(&profile, work);
            assert_eq!(shares.iter().sum::<u64>(), work);
            assert!(makespan >= *profile.nop_latency.iter().min().unwrap());
        }
    });
}

#[test]
fn pipelined_makespan_is_bracketed() {
    check("pipelined_makespan_is_bracketed", 40, |rng| {
        let (m, n, k) = (rng.range(16, 256), rng.range(16, 256), rng.range(16, 256));
        let batches = rng.range(1, 12);
        let core = TensorCore::new(ArrayShape::new(32, 32), SimdUnit::new(128));
        let ops = [
            Op::gemm("g", GemmShape::new(m, n, k)),
            Op::vector("v", SimdOp::Softmax, rng.range(1, 1_000_000) as u64),
            Op::gemm("g2", GemmShape::new(n, m, k)),
        ];
        let r = PipelineSchedule::new(Dataflow::OutputStationary).run(&core, &ops, batches);
        assert!(r.pipelined_cycles >= r.serial_cycles);
        assert!(r.pipelined_cycles <= r.serial_cycles * batches as u64);
        assert!(r.mxu_busy_cycles <= r.pipelined_cycles);
        assert!(r.simd_busy_cycles <= r.pipelined_cycles);
        assert!((1.0 - 1e-12..=batches as f64 + 1e-12).contains(&r.speedup()));
        assert!((0.0..=1.0).contains(&r.simd_fraction()));
    });
}

// ---------------------------------------------------------------------------
// crates/mem
// ---------------------------------------------------------------------------

fn draw_request(rng: &mut SplitMix64) -> (AccessKind, u64) {
    let kind = if rng.chance(3) {
        AccessKind::Write
    } else {
        AccessKind::Read
    };
    // Burst-aligned, mostly within a few rows so hits, misses and
    // conflicts all occur.
    let addr = if rng.chance(4) {
        rng.range(0, 1 << 22)
    } else {
        rng.range(0, 1 << 14)
    };
    (kind, addr as u64 & !63)
}

/// Every device preset × address mapping × scheduling policy × row policy:
/// all requests complete, the queues never exceed their capacity, read
/// latency respects the CAS + burst floor, the statistics and the energy
/// breakdown add up — and under open-page (the policy that logs commands)
/// every issued command passes the independent JEDEC checker.
#[test]
fn dram_controller_is_complete_bounded_and_jedec_legal() {
    for name in DramSpec::preset_names() {
        let spec = DramSpec::by_name(name).expect("a listed preset");
        for mapping in [
            AddressMapping::RoBaRaCoCh,
            AddressMapping::RoRaBaChCo,
            AddressMapping::ChRaBaRoCo,
        ] {
            for scheduling in [SchedulingPolicy::FrFcfs, SchedulingPolicy::Fcfs] {
                for row_policy in [RowPolicy::OpenPage, RowPolicy::ClosedPage] {
                    let what = format!("{name} {mapping:?} {scheduling:?} {row_policy:?}");
                    check(&what, 1, |rng| {
                        drive_dram(rng, &what, spec, mapping, scheduling, row_policy)
                    });
                }
            }
        }
    }
}

fn drive_dram(
    rng: &mut SplitMix64,
    what: &str,
    spec: DramSpec,
    mapping: AddressMapping,
    scheduling: SchedulingPolicy,
    row_policy: RowPolicy,
) {
    let channels = rng.range(1, 4);
    let (read_queue, write_queue) = (rng.range(1, 33), rng.range(1, 33));
    let mut sys = DramSystem::new(DramConfig {
        spec,
        channels,
        mapping,
        read_queue,
        write_queue,
        scheduling,
        row_policy,
    });
    if row_policy == RowPolicy::OpenPage {
        sys.enable_command_logs();
    }
    let requests = rng.range(1, 129);
    let mut issued = HashMap::new();
    let (mut reads, mut writes) = (0, 0);
    for _ in 0..requests {
        for _ in 0..rng.range(0, 6) {
            sys.tick();
        }
        let (kind, addr) = draw_request(rng);
        let id = loop {
            match sys.try_enqueue(kind, addr) {
                Some(id) => break id,
                None => sys.tick(), // queue full: stall and retry
            }
        };
        issued.insert(id, (kind, sys.now()));
        match kind {
            AccessKind::Read => reads += 1,
            AccessKind::Write => writes += 1,
        }
        assert!(sys.in_flight() <= read_queue + write_queue, "{what}");
    }
    sys.drain();
    assert_eq!(sys.in_flight(), 0, "{what}");

    let completions = sys.pop_completions();
    assert_eq!(
        completions.len(),
        requests,
        "{what}: every request completes"
    );
    let floor = spec.timing.CL + spec.org.burst_cycles();
    for done in &completions {
        let (kind, enqueued) = issued.remove(&done.id).expect("completes once");
        assert_eq!(done.kind, kind, "{what}");
        if kind == AccessKind::Read {
            let latency = done.cycle - enqueued;
            assert!(latency >= floor, "{what}: read latency {latency} < {floor}");
        }
    }

    let stats = sys.stats();
    assert_eq!((stats.reads, stats.writes), (reads, writes), "{what}");
    let burst = spec.org.burst_bytes() as u64;
    assert_eq!(stats.bytes_transferred, (reads + writes) * burst, "{what}");
    assert!((0.0..=1.0).contains(&stats.row_hit_rate()), "{what}");
    assert!(
        stats.row_open_cycles <= stats.end_cycle * channels as u64,
        "{what}"
    );

    let e = DramEnergyBreakdown::from_stats(&spec, &stats, channels);
    let parts = [
        e.activate_pj,
        e.read_pj,
        e.write_pj,
        e.refresh_pj,
        e.background_pj,
    ];
    assert!(
        parts.iter().all(|p| p.is_finite() && *p >= 0.0),
        "{what}: {e:?}"
    );
    assert!(
        (e.total_pj() - parts.iter().sum::<f64>()).abs() < 1e-6,
        "{what}"
    );
    assert!(e.total_pj() > 0.0 && e.avg_power_mw() > 0.0, "{what}");

    if row_policy == RowPolicy::OpenPage {
        let logs = sys.command_logs();
        assert_eq!(logs.len(), channels, "{what}");
        let mut cas = 0;
        for log in logs {
            if let Err(violation) = verify_timing(log, &spec) {
                panic!(
                    "{what}: {violation} — illegal command stream:\n{}",
                    log.to_csv()
                );
            }
            cas += log.count(CommandKind::Rd) + log.count(CommandKind::Wr);
        }
        assert_eq!(cas, requests, "{what}: one CAS per request");
    }
}

#[test]
fn dram_energy_and_locality_order_as_expected() {
    check("dram_energy_and_locality_order_as_expected", 12, |rng| {
        let spec = DramSpec::ddr4_2400();
        let config = DramConfig {
            channels: 1,
            ..Default::default()
        };
        let reads = |count: usize, addr: &dyn Fn(u64) -> u64| -> Vec<TraceRequest> {
            (0..count as u64)
                .map(|i| TraceRequest {
                    cycle: i,
                    byte_addr: addr(i),
                    kind: AccessKind::Read,
                })
                .collect()
        };
        let n = rng.range(32, 128);

        // Appending traffic never lowers energy.
        let small = replay_trace(config, &reads(n, &|i| i * 64));
        let large = replay_trace(config, &reads(n + rng.range(1, 64), &|i| i * 64));
        let energy = |stats| DramEnergyBreakdown::from_stats(&spec, stats, 1);
        assert!(energy(&large.stats).total_pj() > energy(&small.stats).total_pj());
        assert!(energy(&large.stats).read_pj > energy(&small.stats).read_pj);

        // A sequential stream never does worse than ping-ponging two rows
        // of one bank.
        let row_stride = (spec.org.columns / spec.org.burst_length) as u64
            * spec.org.burst_bytes() as u64
            * spec.org.banks() as u64;
        let thrash = replay_trace(config, &reads(n, &|i| (i % 2) * row_stride));
        assert!(small.stats.row_hit_rate() >= thrash.stats.row_hit_rate());
        assert!(small.avg_latency() <= thrash.avg_latency());
    });
}

// ---------------------------------------------------------------------------
// crates/layout
// ---------------------------------------------------------------------------

fn draw_elements(rng: &mut SplitMix64, dims: TensorDims, max: usize) -> Vec<(usize, usize, usize)> {
    (0..rng.range(0, max))
        .map(|_| {
            (
                rng.range(0, dims.c),
                rng.range(0, dims.h),
                rng.range(0, dims.w),
            )
        })
        .collect()
}

#[test]
fn layout_costs_are_bounded() {
    check("layout_costs_are_bounded", 80, |rng| {
        let dims = TensorDims::new(rng.range(1, 12), rng.range(1, 12), rng.range(1, 12));
        let layout = LayoutSpec::new(rng.range(1, 8), rng.range(1, 8), rng.range(1, 8));

        // Placement is injective over the whole tensor and stays in bounds.
        let mut seen = HashSet::new();
        for c in 0..dims.c {
            for h in 0..dims.h {
                for w in 0..dims.w {
                    let (line, col) = layout.place(dims, c, h, w);
                    assert!(col < layout.line_elems() && line < layout.lines_needed(dims));
                    assert!(seen.insert((line, col)), "({c},{h},{w}) collides");
                }
            }
        }

        // One cycle's cost is at least one and at most its element count.
        let mut elems = draw_elements(rng, dims, 64);
        elems.push((0, 0, 0));
        let model = BankModel::new(1 << rng.range(0, 5), rng.range(1, 4), 4);
        let cost = model.cycle_slowdown(&layout, dims, elems.iter().copied());
        assert!(
            (1..=elems.len() as u64).contains(&cost),
            "{cost} for {}",
            elems.len()
        );

        // At equal total bandwidth, more banks never hurt (Figs. 12–13).
        let few = BankModel::from_total_bandwidth(16, 2, 1);
        let many = BankModel::from_total_bandwidth(16, 16, 1);
        assert!(
            many.cycle_slowdown(&layout, dims, elems.iter().copied())
                <= few.cycle_slowdown(&layout, dims, elems.iter().copied())
        );

        // Stream totals: every cycle costs at least one under both models.
        let mut stream = StreamEvaluator::new(BankModel::new(4, 1, 4), layout, dims);
        let cycles = rng.range(1, 30);
        for _ in 0..cycles {
            stream.observe(draw_elements(rng, dims, 10));
        }
        let report = stream.report();
        assert_eq!(report.compute_cycles, cycles as u64);
        assert!(report.layout_cycles >= report.compute_cycles);
        assert!(report.bandwidth_cycles >= report.compute_cycles);
        assert!(report.relative_slowdown() >= -1.0);
    });
}

// ---------------------------------------------------------------------------
// crates/sparse
// ---------------------------------------------------------------------------

#[test]
fn sparse_formats_are_lossless() {
    check("sparse_formats_are_lossless", 60, |rng| {
        let (rows, cols) = (rng.range(1, 24), rng.range(1, 24));
        let data = (0..rows * cols)
            .map(|_| {
                if rng.chance(4) {
                    rng.range(0, 20) as f32 - 10.0
                } else {
                    0.0
                }
            })
            .collect();
        let dense = DenseMatrix::from_vec(rows, cols, data);
        assert_eq!(Csr::from_dense(&dense).to_dense(), dense);
        assert_eq!(Csc::from_dense(&dense).to_dense(), dense);
        for shift in 1..5 {
            let ell = BlockedEllpack::from_dense(&dense, 1 << shift);
            assert_eq!(ell.to_dense(), dense);
            assert_eq!(ell.nnz(), dense.nnz());
            assert_eq!(ell.metadata_bits_per_entry(), shift);
            assert_eq!(
                ell.storage_bits(16),
                dense.nnz() as u64 * (16 + u64::from(shift))
            );
        }
        let rhs_cols = rng.range(1, 8);
        let rhs = DenseMatrix::from_vec(
            cols,
            rhs_cols,
            (0..cols * rhs_cols).map(|i| (i % 5) as f32 - 2.0).collect(),
        );
        assert_eq!(
            Csr::from_dense(&dense).matmul_dense(&rhs),
            dense.matmul(&rhs)
        );
    });
}

#[test]
fn advantageous_sparsity_always_wins() {
    check("advantageous_sparsity_always_wins", 80, |rng| {
        // Row-wise N ≤ M/2 patterns: never slower, never larger.
        let block = 1 << rng.range(1, 5);
        let k = rng.range(1, 32) * block;
        let pattern = SparsityPattern::row_wise(k, block, rng.next() % 1000);
        let gemm = GemmShape::new(rng.range(1, 64), rng.range(1, 64), k);
        let r = SparseComputeModel::new(ArrayShape::new(8, 8)).evaluate(gemm, &pattern);
        assert!(r.sparse_cycles <= r.dense_cycles, "{gemm:?} block {block}");
        assert!(r.sparse_filter_bits <= r.dense_filter_bits);
        assert!(r.sparse_macs <= r.dense_macs);
        assert_eq!(r.effective_k, pattern.effective_k());

        // Layer-wise N:4 on block-aligned K keeps exactly N of every 4.
        let (blocks, n) = (rng.range(1, 64), rng.range(1, 4));
        let layer_wise = SparsityPattern::layer_wise(blocks * 4, NmRatio::new(n, 4).unwrap());
        assert_eq!(layer_wise.effective_k(), blocks * n);

        // Storage grows with precision.
        let p = SparsityPattern::layer_wise(rng.range(1, 32) * 8, NmRatio::new(2, 8).unwrap());
        let cols = rng.range(1, 128);
        let bits =
            |precision| SparseFormat::BlockedEllpack.filter_storage_bits(&p, cols, precision);
        assert!(bits(8) < bits(16));
    });
}

/// The Sparseloop-style analytical model brackets the cycle-accurate one:
/// skipping sits between the one-per-block floor and dense timing, and
/// tracks the exact model within a quarter.
#[test]
fn analytical_sparse_brackets_exact() {
    check("analytical_sparse_brackets_exact", 60, |rng| {
        let array = ArrayShape::new(8, 8);
        let block = 8;
        let k = rng.range(4, 48) * block;
        let gemm = GemmShape::new(rng.range(8, 128), rng.range(8, 128), k);
        let pattern = SparsityPattern::row_wise(k, block, rng.next() % 1000);
        let analytical = AnalyticalSparseModel::matching_pattern(array, &pattern);
        let skip = analytical.expected_cycles(gemm, Saf::Skipping);
        let floor = AnalyticalSparseModel::new(array, 1.0 / block as f64, block)
            .expected_cycles(gemm, Saf::Skipping);
        assert!(
            skip >= floor,
            "{gemm:?}: skip {skip} below the floor {floor}"
        );
        assert!(
            skip <= analytical.expected_cycles(gemm, Saf::Gating),
            "{gemm:?}"
        );
        let exact = SparseComputeModel::new(array)
            .evaluate(gemm, &pattern)
            .sparse_cycles;
        let error = (skip as f64 - exact as f64).abs() / exact as f64;
        assert!(error < 0.25, "{gemm:?}: analytical {skip} vs exact {exact}");
        assert!(analytical.expected_macs(gemm) <= gemm.macs());
    });
}

// ---------------------------------------------------------------------------
// crates/energy
// ---------------------------------------------------------------------------

fn draw_arch(rng: &mut SplitMix64) -> ArchSpec {
    ArchSpec::new(
        rng.range(2, 129),
        rng.range(2, 129),
        rng.range(1, 2048) << 10,
        rng.range(1, 2048) << 10,
        rng.range(1, 1024) << 10,
    )
}

fn draw_counts(rng: &mut SplitMix64) -> ActionCounts {
    let (spad, sram) = (rng.next() % 1_000_000, rng.next() % 1_000_000);
    let dram_reads = rng.next() % 100_000;
    ActionCounts {
        mac_random: rng.next() % 1_000_000,
        mac_gated: rng.next() % 1_000_000,
        ifmap_spad_reads: spad,
        weight_spad_reads: spad,
        psum_spad_reads: spad,
        psum_spad_writes: spad,
        ifmap_sram_random: sram,
        ifmap_sram_repeat: sram / 2,
        filter_sram_random: sram,
        ofmap_sram_random: sram / 4,
        dram_reads,
        dram_writes: dram_reads / 2,
        noc_words: rng.next() % 100_000,
        ..Default::default()
    }
}

#[test]
fn energy_is_additive_monotone_and_homogeneous() {
    check("energy_is_additive_monotone_and_homogeneous", 80, |rng| {
        let (arch, counts) = (draw_arch(rng), draw_counts(rng));
        let cycles = 1 + rng.next() % 10_000_000;
        let model = EnergyModel::eyeriss_65nm(arch);
        let base = model.evaluate(&counts, cycles);
        let total = base.total_pj();
        assert!(total.is_finite() && total >= 0.0);
        let parts: f64 = base.components().iter().map(|c| c.energy_pj).sum();
        assert!((total - parts).abs() < 1e-6 * total.max(1.0));

        // More actions or a longer run never cost less.
        let mut more = counts;
        more.mac_random += 1 + rng.next() % 1_000_000;
        assert!(model.evaluate(&more, cycles).total_pj() > total);
        assert!(model.evaluate(&counts, cycles * 2).total_pj() >= total);

        // Scaling the table scales purely dynamic energy by the factor.
        let factor = 0.1 + (rng.next() % 3900) as f64 / 1000.0;
        let scaled = EnergyTable::eyeriss_65nm().scaled(factor);
        assert!(scaled.mac_random_pj > scaled.mac_gated_pj);
        let dynamic = ActionCounts {
            mac_random: counts.mac_random,
            dram_reads: counts.dram_reads,
            noc_words: counts.noc_words,
            ..Default::default()
        };
        let e1 = model.evaluate(&dynamic, 0).total_pj();
        let e2 = EnergyModel::with_table(arch, scaled)
            .evaluate(&dynamic, 0)
            .total_pj();
        assert!(
            e1 == 0.0 || (e2 / e1 - factor).abs() < 1e-9,
            "{e2} / {e1} != {factor}"
        );
    });
}

#[test]
fn layer_activity_partitions_the_pe_cycles() {
    check("layer_activity_partitions_the_pe_cycles", 80, |rng| {
        let (cycles, pes) = (1 + rng.next() % 1_000_000, 1 + rng.next() % 16_384);
        let activity = LayerActivity {
            total_cycles: cycles,
            macs: pes * cycles * (rng.next() % 10_001) / 10_000,
            ..Default::default()
        };
        let gated = ActionCounts::from_layer(&activity, pes, (8, 8, 8), true);
        let ungated = ActionCounts::from_layer(&activity, pes, (8, 8, 8), false);
        assert_eq!(gated.mac_random + gated.mac_gated, pes * cycles);
        assert_eq!(ungated.mac_random + ungated.mac_constant, pes * cycles);
        assert_eq!(gated.mac_random, ungated.mac_random);
        let model = EnergyModel::eyeriss_65nm(ArchSpec::new(8, 8, 64 << 10, 64 << 10, 32 << 10));
        assert!(
            model.evaluate(&gated, cycles).total_pj()
                <= model.evaluate(&ungated, cycles).total_pj(),
            "clock gating cannot cost energy"
        );
    });
}

#[test]
fn area_composes_and_grows_with_every_knob() {
    check("area_composes_and_grows_with_every_knob", 80, |rng| {
        let arch = draw_arch(rng);
        let (banks, channels, lanes) = (rng.range(1, 32), rng.range(1, 16), rng.range(0, 4096));
        let table = AreaTable::eyeriss_65nm();
        let estimate = |banks, channels| {
            AreaConfig::new(arch)
                .with_sram_banks(banks)
                .with_dram_channels(channels)
                .with_simd_lanes(lanes)
                .estimate(&table)
        };
        let a = estimate(banks, channels);
        let parts = a.pe_array_mm2 + a.sram_mm2() + a.noc_mm2 + a.simd_mm2 + a.dram_ctrl_mm2;
        assert!((a.total_mm2() - parts).abs() < 1e-9);
        assert!(a.total_mm2() > 0.0 && a.total_mm2().is_finite());
        assert!(estimate(banks + 1, channels).total_mm2() > a.total_mm2());
        assert!(estimate(banks, channels + 1).total_mm2() > a.total_mm2());
        let per_pe = a.pe_array_mm2 / (arch.rows * arch.cols) as f64;
        assert!(
            (per_pe - 33_600.0 / 1.0e6).abs() < 1e-9,
            "PE array ∝ #PEs: {per_pe}"
        );
    });
}
