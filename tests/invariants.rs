//! The always-on invariant suite: seeded cross-crate properties that pin
//! the cycle-accurate path against closed forms and conservation laws
//! rather than against an older copy of itself.
//!
//! No external crates: a SplitMix64 drives generation from [`SEED`], and a
//! failing case prints the seed that reproduces it. Case counts keep the
//! whole file under a minute in a debug build (small arrays, GEMMs ≤ 64³;
//! the differential oracle of the feature stages is the long pole at ~30 s).

use scale_sim::energy::{
    ActionCounts, ArchSpec, AreaConfig, AreaTable, EnergyModel, EnergyTable, LayerActivity,
};
use scale_sim::layout::{BankModel, LayoutSpec, StreamEvaluator, TensorDims};
use scale_sim::mem::bank::{Bank, BankState};
use scale_sim::mem::{
    verify_timing, AccessKind, AddressMapping, CommandKind, CommandLog, Completion, DramAddr,
    DramConfig, DramEnergyBreakdown, DramSpec, DramSystem, MemStats, Replay, RowPolicy,
    SchedulingPolicy,
};
use scale_sim::multicore::{
    best_partition, factor_pairs, memory_footprint_words, non_uniform_split, runtime_cycles,
    L2Config, MappingDims, MemoryPortPlacement, NopMesh, NopProfile, Op, PartitionGrid,
    PartitionObjective, PartitionScheme, PipelineSchedule, SimdOp, SimdUnit, TensorCore,
};
use scale_sim::scalesim::config::MultiCoreIntegration;
use scale_sim::scalesim::dram::{self, LatencyReplayStore, MeasuredTransaction};
use scale_sim::scalesim::layout_slowdown_for_gemm;
use scale_sim::sparse::{NmRatio, SparseFormat, SparsityPattern};
use scale_sim::systolic::{
    timing, AccessKind as Direction, Addr, AnalyticalModel, ArrayShape, CoreSim, Dataflow,
    DemandGenerator, DemandSummary, EdgeStream, GemmShape, IdealBandwidthStore, MemoryConfig,
    MemorySummary, OperandKind, OperandMemoryStats, PlanCache, RecordingStore, SimConfig,
    SramSummary, Stream, Topology, TraceRecorder, FILTER_BASE, IFMAP_BASE, OFMAP_BASE,
};
use scale_sim::{
    DramIntegration, LayoutAnalysis, LayoutIntegration, ScaleSim, ScaleSimConfig, SparsityMode,
};
use std::collections::{HashMap, HashSet, VecDeque};
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
/// weighted towards the edges: 1×1 and 1×C arrays, single-element
/// dimensions (M = 1 skinny GEMMs), dimensions that divide the array
/// exactly and ragged ones, K spanning three or more row folds, SRAM rows
/// that are not a power of two, and — per operand — a scratchpad drawn
/// against that operand's own size so that it fits in half a buffer, sits
/// between half and full, or thrashes (down to the smallest size the
/// configuration accepts).
fn draw_core(rng: &mut SplitMix64) -> (SimConfig, GemmShape) {
    let (rows, cols) = match rng.range(0, 6) {
        0 => (1, 1),
        1 => (1, rng.range(2, 9)),
        _ => (rng.range(1, 9), rng.range(1, 9)),
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
    let (m, n, mut k) = (dim(rng), dim(rng), dim(rng));
    if rng.chance(3) {
        // At least three K folds under WS/IS, the last one ragged.
        k = rows * rng.range(2, 6) + rng.range(1, rows + 1);
    }
    let gemm = GemmShape::new(m, n, k);
    let mut config = SimConfig::builder()
        .array(ArrayShape::new(rows, cols))
        .dataflow(rng.pick(&Dataflow::ALL))
        .build();
    let min_words = 2 * rows.max(cols);
    let words = |rng: &mut SplitMix64, operand: usize| {
        let words = match rng.range(0, 4) {
            0 => 2 * operand + rng.range(0, 64),
            1 => operand + rng.range(0, operand),
            2 => operand / rng.range(2, 6),
            _ => min_words * rng.range(1, 5),
        };
        words.max(min_words)
    };
    config.memory = MemoryConfig {
        ifmap_words: words(rng, m * k),
        filter_words: words(rng, k * n),
        ofmap_words: words(rng, m * n),
        sram_row_words: rng.pick(&[16, 16, 4, 3, 5, 12]),
        sram_row_buffers: rng.pick(&[64, 64, 1, 2, 8]),
        ..MemoryConfig::from_kilobytes(1, 1, 1, 2)
    };
    config.memory.dram_bandwidth = rng.pick(&[1.0, 2.0, 4.0, 10.0, 64.0]);
    (config, gemm)
}

fn describe(config: &SimConfig, gemm: GemmShape) -> String {
    let mem = &config.memory;
    format!(
        "{} {} {gemm:?} sram {}/{}/{} rows {}x{} bw {}",
        config.array,
        config.dataflow,
        mem.ifmap_words,
        mem.filter_words,
        mem.ofmap_words,
        mem.sram_row_words,
        mem.sram_row_buffers,
        mem.dram_bandwidth
    )
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
        let mut streamed = reference::Totals::default();
        reference::run(&generator, &mut streamed);
        let streamed = streamed.0;
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
// crates/systolic: the fold-granular planner against a per-address reference
// ---------------------------------------------------------------------------

/// What the descriptor-driven code replaced, kept as the reference: the
/// per-cycle expansion of the fold descriptors; the per-address planner
/// and timing pass (one map lookup per array-edge word, one `Vec<Addr>`
/// entry per fetched word, one event per cycle); the per-line DRAM replay
/// on the per-tick controller ([`dram`]); the per-cycle layout sink
/// ([`layout`]). (The real sparse matrix formats the storage formulas of
/// `SPARSE_REPORT.csv` stand for have unit tests of their own, so they
/// sit in this package's `src/matrix.rs`.)
mod reference {
    use super::*;

    /// The scratchpad accesses of a single cycle.
    #[derive(Debug, Clone, Default)]
    pub struct CycleDemand {
        /// Simulation cycle (compute time, i.e. without memory stalls).
        pub cycle: u64,
        pub ifmap_reads: Vec<Addr>,
        pub filter_reads: Vec<Addr>,
        /// Partial sums read back for accumulation.
        pub ofmap_reads: Vec<Addr>,
        pub ofmap_writes: Vec<Addr>,
        pub active_macs: u64,
    }

    /// Visitor over the cycle-by-cycle demand, called once per simulated
    /// cycle in increasing cycle order.
    pub trait DemandSink {
        fn on_cycle(&mut self, demand: &CycleDemand);
    }

    /// `(r, c)` pairs of a `rows × cols` rectangle with `r + c <= s`.
    fn antidiagonal_prefix(rows: usize, cols: usize, s: i64) -> u64 {
        let cells = (0..rows as i64).flat_map(|r| (0..cols as i64).map(move |c| r + c));
        cells.filter(|&sum| sum <= s).count() as u64
    }

    /// The addresses `edge` touches at fold-relative cycle `t`.
    fn fill(edge: &EdgeStream, t: u64, out: &mut Vec<Addr>) {
        out.clear();
        if let Some(step) = t.checked_sub(edge.start) {
            if step < edge.stream.steps() {
                out.extend(edge.stream.step_addrs(step));
            }
        }
    }

    /// Expands the fold descriptors cycle by cycle into `sink`.
    pub fn run(generator: &DemandGenerator, sink: &mut dyn DemandSink) {
        let geometry = generator.geometry();
        let mut demand = CycleDemand::default();
        for (fold, extent) in generator.folds().zip(geometry.folds()) {
            // The first MAC fires once both inputs stream.
            let mac_start = fold.ifmap.start.max(fold.filter.start) as i64;
            for t in 0..fold.cycles {
                demand.cycle = fold.start + t;
                fill(&fold.ifmap, t, &mut demand.ifmap_reads);
                fill(&fold.filter, t, &mut demand.filter_reads);
                fill(&fold.ofmap, t, &mut demand.ofmap_writes);
                demand.ofmap_reads.clear();
                if fold.accumulate {
                    demand.ofmap_reads.extend_from_slice(&demand.ofmap_writes);
                }
                // PE (r, c) fires while 0 ≤ t' − r − c < T.
                let tp = t as i64 - mac_start;
                let fired = |s| antidiagonal_prefix(extent.rows, extent.cols, s);
                demand.active_macs = fired(tp) - fired(tp - geometry.t as i64);
                sink.on_cycle(&demand);
            }
        }
    }

    /// Demand totals, accumulated cycle by cycle.
    #[derive(Default)]
    pub struct Totals(pub DemandSummary);

    impl DemandSink for Totals {
        fn on_cycle(&mut self, d: &CycleDemand) {
            let s = &mut self.0;
            s.cycles = s.cycles.max(d.cycle + 1);
            s.ifmap_reads += d.ifmap_reads.len() as u64;
            s.filter_reads += d.filter_reads.len() as u64;
            s.ofmap_reads += d.ofmap_reads.len() as u64;
            s.ofmap_writes += d.ofmap_writes.len() as u64;
            s.macs += d.active_macs;
        }
    }

    /// `(issue, completion, operand, direction, addresses)`.
    pub type Transaction = (u64, u64, OperandKind, Direction, Vec<Addr>);

    /// Fixed words/cycle per interface, recording every transaction.
    pub struct Store {
        bandwidth: f64,
        busy_until: [u64; 4],
        pub transactions: Vec<Transaction>,
    }

    impl Store {
        pub fn new(bandwidth: f64) -> Self {
            Store {
                bandwidth,
                busy_until: [0; 4],
                transactions: Vec::new(),
            }
        }

        fn transfer(
            &mut self,
            op: OperandKind,
            kind: Direction,
            earliest: u64,
            addrs: &[Addr],
        ) -> u64 {
            let lane = match (op, kind) {
                (OperandKind::Ifmap, _) => 0,
                (OperandKind::Filter, _) => 1,
                (OperandKind::Ofmap, Direction::Read) => 2,
                (OperandKind::Ofmap, Direction::Write) => 3,
            };
            let start = earliest.max(self.busy_until[lane]);
            let dur = (addrs.len() as f64 / self.bandwidth).ceil() as u64;
            let done = start + dur.max(u64::from(!addrs.is_empty()));
            self.busy_until[lane] = done;
            self.transactions
                .push((earliest, done, op, kind, addrs.to_vec()));
            done
        }

        fn fetch(&mut self, op: OperandKind, earliest: u64, addrs: &[Addr]) -> u64 {
            self.transfer(op, Direction::Read, earliest, addrs)
        }

        fn drain(&mut self, op: OperandKind, earliest: u64, addrs: &[Addr]) -> u64 {
            self.transfer(op, Direction::Write, earliest, addrs)
        }
    }

    pub struct ReadPlanner {
        op: OperandKind,
        half_words: usize,
        last_fetch_idx: HashMap<Addr, usize>,
        fetch_seq: Vec<Addr>,
        needs: Vec<(u64, usize)>,
        max_needed: Option<usize>,
        resident_min: usize,
        unique_words: u64,
        refetch_words: u64,
        total_reads: u64,
    }

    impl ReadPlanner {
        pub fn new(op: OperandKind, capacity_words: usize) -> Self {
            ReadPlanner {
                op,
                half_words: (capacity_words / 2).max(1),
                last_fetch_idx: HashMap::new(),
                fetch_seq: Vec::new(),
                needs: Vec::new(),
                max_needed: None,
                resident_min: 0,
                unique_words: 0,
                refetch_words: 0,
                total_reads: 0,
            }
        }

        pub fn observe(&mut self, cycle: u64, addrs: &[Addr]) {
            self.total_reads += addrs.len() as u64;
            let mut new_max = None::<usize>;
            for &a in addrs {
                let idx = match self.last_fetch_idx.get(&a) {
                    Some(&idx) if idx >= self.resident_min => idx,
                    hit => {
                        if hit.is_some() {
                            self.refetch_words += 1;
                        } else {
                            self.unique_words += 1;
                        }
                        let idx = self.fetch_seq.len();
                        self.fetch_seq.push(a);
                        self.last_fetch_idx.insert(a, idx);
                        idx
                    }
                };
                if self.max_needed.is_none_or(|m| idx > m) {
                    self.max_needed = Some(idx);
                    let chunk = idx / self.half_words;
                    self.resident_min = chunk.saturating_sub(1) * self.half_words;
                    new_max = Some(idx);
                }
            }
            if let Some(idx) = new_max {
                self.needs.push((cycle, idx));
            }
        }

        fn num_chunks(&self) -> usize {
            self.fetch_seq.len().div_ceil(self.half_words)
        }

        fn chunk(&self, j: usize) -> &[Addr] {
            let lo = j * self.half_words;
            let hi = ((j + 1) * self.half_words).min(self.fetch_seq.len());
            &self.fetch_seq[lo..hi]
        }

        fn stats(&self) -> OperandMemoryStats {
            OperandMemoryStats {
                sram_reads: self.total_reads,
                sram_writes: self.unique_words + self.refetch_words,
                dram_reads: self.fetch_seq.len() as u64,
                dram_writes: 0,
                unique_words: self.unique_words,
                refetch_words: self.refetch_words,
            }
        }
    }

    /// Write-back FIFO ring: the n-th insertion lands in slot
    /// `n % capacity`, evicting whatever the slot held.
    pub struct WritePlanner {
        capacity_words: usize,
        half_words: usize,
        resident: HashMap<Addr, usize>,
        ring: Vec<Addr>,
        next_slot: usize,
        drain_events: Vec<(u64, u32)>,
        drain_addrs: Vec<Addr>,
        miss_events: Vec<(u64, u32)>,
        miss_addrs: Vec<Addr>,
        write_hits: u64,
        write_misses: u64,
        read_hits: u64,
        read_misses: u64,
    }

    impl WritePlanner {
        pub fn new(capacity_words: usize) -> Self {
            WritePlanner {
                capacity_words,
                half_words: (capacity_words / 2).max(1),
                resident: HashMap::new(),
                ring: vec![Addr::MAX; capacity_words],
                next_slot: 0,
                drain_events: Vec::new(),
                drain_addrs: Vec::new(),
                miss_events: Vec::new(),
                miss_addrs: Vec::new(),
                write_hits: 0,
                write_misses: 0,
                read_hits: 0,
                read_misses: 0,
            }
        }

        fn insert(&mut self, cycle: u64, addr: Addr) {
            let slot = self.next_slot;
            self.next_slot = (self.next_slot + 1) % self.capacity_words;
            let old = self.ring[slot];
            if old != Addr::MAX {
                self.resident.remove(&old);
                self.drain_addrs.push(old);
                match self.drain_events.last_mut() {
                    Some((c, n)) if *c == cycle => *n += 1,
                    _ => self.drain_events.push((cycle, 1)),
                }
            }
            self.ring[slot] = addr;
            self.resident.insert(addr, slot);
        }

        pub fn observe(&mut self, cycle: u64, reads: &[Addr], writes: &[Addr]) {
            for &a in reads {
                if self.resident.contains_key(&a) {
                    self.read_hits += 1;
                } else {
                    self.read_misses += 1;
                    self.miss_addrs.push(a);
                    match self.miss_events.last_mut() {
                        Some((c, n)) if *c == cycle => *n += 1,
                        _ => self.miss_events.push((cycle, 1)),
                    }
                    self.insert(cycle, a);
                }
            }
            for &a in writes {
                if self.resident.contains_key(&a) {
                    self.write_hits += 1;
                } else {
                    self.write_misses += 1;
                    self.insert(cycle, a);
                }
            }
        }

        fn flush_addrs(&self) -> Vec<Addr> {
            let mut flush: Vec<Addr> = (self.ring.iter().copied())
                .filter(|&a| a != Addr::MAX)
                .collect();
            flush.sort_unstable();
            flush
        }
    }

    /// Open-row lookup: one probe per access, in access order.
    pub struct RepeatLookup {
        row_words: u64,
        open_rows: Vec<u64>,
        pub repeats: u64,
    }

    impl RepeatLookup {
        pub fn new(row_words: usize, row_buffers: usize) -> Self {
            RepeatLookup {
                row_words: row_words.max(1) as u64,
                open_rows: vec![u64::MAX; row_buffers.max(1).next_power_of_two()],
                repeats: 0,
            }
        }

        pub fn access(&mut self, addr: Addr) {
            let row = addr / self.row_words;
            let slot = (row % self.open_rows.len() as u64) as usize;
            if self.open_rows[slot] == row {
                self.repeats += 1;
            } else {
                self.open_rows[slot] = row;
            }
        }

        /// Every word of `stream` in access order, each step's words
        /// `passes` times over.
        pub fn walk(&mut self, stream: &Stream, passes: usize) {
            for step in 0..stream.steps() {
                for _ in 0..passes {
                    stream.step_addrs(step).for_each(|a| self.access(a));
                }
            }
        }
    }

    /// The SRAM summary of `gemm`, every edge word probed in access order.
    pub fn sram(config: &SimConfig, gemm: GemmShape) -> SramSummary {
        let generator = DemandGenerator::new(config.array, config.dataflow, gemm);
        let memory = &config.memory;
        let [mut ifmap, mut filter, mut ofmap] =
            [(); 3].map(|()| RepeatLookup::new(memory.sram_row_words, memory.sram_row_buffers));
        for fold in generator.folds() {
            ifmap.walk(&fold.ifmap.stream, 1);
            filter.walk(&fold.filter.stream, 1);
            ofmap.walk(&fold.ofmap.stream, if fold.accumulate { 2 } else { 1 });
        }
        let summary = generator.summary();
        SramSummary {
            ifmap_reads: summary.ifmap_reads,
            filter_reads: summary.filter_reads,
            ofmap_reads: summary.ofmap_reads,
            ofmap_writes: summary.ofmap_writes,
            ifmap_repeat_reads: ifmap.repeats,
            filter_repeat_reads: filter.repeats,
            ofmap_repeat_accesses: ofmap.repeats,
        }
    }

    /// One pass over the per-cycle demand driving all of the above.
    pub struct Pass {
        pub summary: Totals,
        pub ifmap: ReadPlanner,
        pub filter: ReadPlanner,
        pub ofmap: WritePlanner,
        pub repeats: [RepeatLookup; 3],
    }

    impl Pass {
        pub fn new(memory: &MemoryConfig) -> Self {
            let lookup = || RepeatLookup::new(memory.sram_row_words, memory.sram_row_buffers);
            Pass {
                summary: Totals::default(),
                ifmap: ReadPlanner::new(OperandKind::Ifmap, memory.ifmap_words),
                filter: ReadPlanner::new(OperandKind::Filter, memory.filter_words),
                ofmap: WritePlanner::new(memory.ofmap_words),
                repeats: [lookup(), lookup(), lookup()],
            }
        }

        pub fn sram(&self) -> SramSummary {
            SramSummary {
                ifmap_reads: self.summary.0.ifmap_reads,
                filter_reads: self.summary.0.filter_reads,
                ofmap_reads: self.summary.0.ofmap_reads,
                ofmap_writes: self.summary.0.ofmap_writes,
                ifmap_repeat_reads: self.repeats[0].repeats,
                filter_repeat_reads: self.repeats[1].repeats,
                ofmap_repeat_accesses: self.repeats[2].repeats,
            }
        }
    }

    impl DemandSink for Pass {
        fn on_cycle(&mut self, d: &CycleDemand) {
            self.summary.on_cycle(d);
            let [ifmap, filter, ofmap] = &mut self.repeats;
            d.ifmap_reads.iter().for_each(|&a| ifmap.access(a));
            d.filter_reads.iter().for_each(|&a| filter.access(a));
            (d.ofmap_reads.iter().chain(&d.ofmap_writes)).for_each(|&a| ofmap.access(a));
            self.ifmap.observe(d.cycle, &d.ifmap_reads);
            self.filter.observe(d.cycle, &d.filter_reads);
            self.ofmap.observe(d.cycle, &d.ofmap_reads, &d.ofmap_writes);
        }
    }

    /// Chunks `0..=target` of `plan` scheduled, one after the other.
    fn issue_through(
        plan: &ReadPlanner,
        completion: &mut Vec<u64>,
        store: &mut Store,
        target: usize,
        now: u64,
    ) {
        while completion.len() <= target && completion.len() < plan.num_chunks() {
            let earliest = completion.last().copied().unwrap_or(0).max(now);
            let done = store.fetch(plan.op, earliest, plan.chunk(completion.len()));
            completion.push(done);
        }
    }

    /// Replays one event per (cycle, source) against `store`.
    pub fn timing(pass: &Pass, store: &mut Store) -> MemorySummary {
        #[derive(Clone, Copy)]
        enum Ev {
            NeedIf(usize),
            NeedFil(usize),
            Miss(u32),
            Drain(u32),
        }
        let (ifmap, filter, ofmap) = (&pass.ifmap, &pass.filter, &pass.ofmap);
        let (mut if_done, mut fil_done) = (Vec::new(), Vec::new());
        issue_through(ifmap, &mut if_done, store, 1, 0);
        issue_through(filter, &mut fil_done, store, 1, 0);
        let first = |done: &Vec<u64>| done.first().copied().unwrap_or(0);
        let t0 = first(&if_done).max(first(&fil_done));

        // Misses sort before drains at the same cycle (a miss can trigger
        // the eviction).
        let mut events: Vec<(u64, u8, Ev)> = Vec::new();
        events.extend(ifmap.needs.iter().map(|&(c, i)| (c, 0, Ev::NeedIf(i))));
        events.extend(filter.needs.iter().map(|&(c, i)| (c, 1, Ev::NeedFil(i))));
        events.extend(ofmap.miss_events.iter().map(|&(c, n)| (c, 2, Ev::Miss(n))));
        events.extend(
            ofmap
                .drain_events
                .iter()
                .map(|&(c, n)| (c, 3, Ev::Drain(n))),
        );
        events.sort_by_key(|&(c, tie, _)| (c, tie));

        let mut stall: u64 = 0;
        let (mut drain_cursor, mut miss_cursor) = (0usize, 0usize);
        let mut drain_backlog: u32 = 0;
        let mut pending_drain_done: u64 = 0;
        let half = ofmap.half_words;
        for &(cycle, _, ev) in &events {
            let now = t0 + cycle + stall;
            match ev {
                Ev::NeedIf(idx) => {
                    let j = idx / ifmap.half_words;
                    issue_through(ifmap, &mut if_done, store, j + 1, now);
                    stall += if_done[j].saturating_sub(now);
                }
                Ev::NeedFil(idx) => {
                    let j = idx / filter.half_words;
                    issue_through(filter, &mut fil_done, store, j + 1, now);
                    stall += fil_done[j].saturating_sub(now);
                }
                Ev::Miss(n) => {
                    let lo = miss_cursor;
                    miss_cursor += n as usize;
                    let done =
                        store.fetch(OperandKind::Ofmap, now, &ofmap.miss_addrs[lo..miss_cursor]);
                    stall += done.saturating_sub(now);
                }
                Ev::Drain(n) => {
                    drain_backlog += n;
                    while drain_backlog as usize >= half {
                        let now = t0 + cycle + stall;
                        stall += pending_drain_done.saturating_sub(now);
                        let start = t0 + cycle + stall;
                        let lo = drain_cursor;
                        drain_cursor += half;
                        pending_drain_done = store.drain(
                            OperandKind::Ofmap,
                            start,
                            &ofmap.drain_addrs[lo..drain_cursor],
                        );
                        drain_backlog -= half as u32;
                    }
                }
            }
        }

        let compute_cycles = pass.summary.0.cycles;
        let compute_end = t0 + compute_cycles + stall;
        let mut tail_end = compute_end.max(pending_drain_done);
        let flush = ofmap.flush_addrs();
        for addrs in [&ofmap.drain_addrs[drain_cursor..], &flush[..]] {
            if !addrs.is_empty() {
                tail_end = store
                    .drain(OperandKind::Ofmap, tail_end, addrs)
                    .max(tail_end);
            }
        }
        MemorySummary {
            ramp_up_cycles: t0,
            stall_cycles: stall,
            drain_tail_cycles: tail_end - compute_end,
            compute_cycles,
            total_cycles: tail_end,
            ifmap: ifmap.stats(),
            filter: filter.stats(),
            ofmap: OperandMemoryStats {
                sram_reads: ofmap.read_hits + ofmap.read_misses,
                sram_writes: ofmap.write_hits + ofmap.write_misses,
                dram_reads: ofmap.read_misses,
                dram_writes: (ofmap.drain_addrs.len() + flush.len()) as u64,
                unique_words: ofmap.write_misses,
                refetch_words: ofmap.read_misses,
            },
        }
    }

    /// The §V-B step 2 the streamed replay replaced: every line request
    /// of the trace materialised and sorted, replayed through a system
    /// whose controllers rescan their whole window every tick, the
    /// per-line latencies scattered back to their transactions.
    pub mod dram {
        use super::*;

        const SCAN_WINDOW: usize = 32;

        #[derive(Debug, Clone)]
        struct QueuedRequest {
            id: u64,
            addr: DramAddr,
            kind: AccessKind,
            arrive: u64,
            classified: bool,
        }

        #[derive(Debug)]
        pub struct Controller {
            spec: DramSpec,
            policy: SchedulingPolicy,
            row_policy: RowPolicy,
            banks: Vec<Bank>,
            act_window: Vec<VecDeque<u64>>,
            last_act: Vec<Option<(u64, usize)>>,
            last_cas: Option<(u64, usize)>,
            bus_data_end: u64,
            next_refresh: u64,
            queue: VecDeque<QueuedRequest>,
            completions: Vec<(u64, u64, AccessKind)>,
            stats: MemStats,
            max_queue: usize,
            open_banks: usize,
            any_open_since: u64,
            log: Option<CommandLog>,
            next_try: u64,
        }

        impl Controller {
            pub fn new(
                spec: DramSpec,
                policy: SchedulingPolicy,
                row_policy: RowPolicy,
                max_queue: usize,
            ) -> Self {
                let nbanks = spec.org.ranks * spec.org.banks();
                Self {
                    banks: vec![Bank::default(); nbanks],
                    act_window: vec![VecDeque::with_capacity(4); spec.org.ranks],
                    last_act: vec![None; spec.org.ranks],
                    last_cas: None,
                    bus_data_end: 0,
                    next_refresh: spec.timing.tREFI,
                    queue: VecDeque::new(),
                    completions: Vec::new(),
                    stats: MemStats::default(),
                    max_queue,
                    open_banks: 0,
                    any_open_since: 0,
                    log: None,
                    next_try: 0,
                    spec,
                    policy,
                    row_policy,
                }
            }

            pub fn can_accept(&self) -> bool {
                self.queue.len() < self.max_queue
            }

            pub fn enqueue(&mut self, id: u64, addr: DramAddr, kind: AccessKind, now: u64) {
                debug_assert!(self.can_accept());
                self.queue.push_back(QueuedRequest {
                    id,
                    addr,
                    kind,
                    arrive: now,
                    classified: false,
                });
                // A new candidate may be issuable immediately.
                self.next_try = self.next_try.min(now);
            }

            pub fn take_completions(&mut self, out: &mut Vec<(u64, u64, AccessKind)>) {
                out.append(&mut self.completions);
            }

            pub fn stats_snapshot(&self) -> MemStats {
                let mut s = self.stats;
                if self.open_banks > 0 && s.end_cycle > self.any_open_since {
                    s.row_open_cycles += s.end_cycle - self.any_open_since;
                }
                s
            }

            pub fn enable_command_log(&mut self) {
                assert_eq!(
                    self.row_policy,
                    RowPolicy::OpenPage,
                    "command logging requires the open-page policy"
                );
                self.log = Some(CommandLog::new());
            }

            pub fn command_log(&self) -> Option<&CommandLog> {
                self.log.as_ref()
            }

            fn log_cmd(&mut self, cycle: u64, kind: CommandKind, addr: &DramAddr, row: usize) {
                if let Some(log) = &mut self.log {
                    log.push(cycle, kind, addr.rank, addr.bank_group, addr.bank, row);
                }
            }

            pub fn next_event(&self) -> u64 {
                if self.queue.is_empty() {
                    self.next_refresh
                } else {
                    self.next_try.min(self.next_refresh)
                }
            }

            fn bank_index(&self, addr: &DramAddr) -> usize {
                addr.flat_bank(&self.spec.org)
            }

            fn cas_latency(&self, kind: AccessKind) -> u64 {
                match kind {
                    AccessKind::Read => self.spec.timing.CL,
                    AccessKind::Write => self.spec.timing.CWL,
                }
            }

            fn cas_ready(&self, req: &QueuedRequest, now: u64) -> bool {
                let bank = &self.banks[self.bank_index(&req.addr)];
                if !bank.is_open(req.addr.row) {
                    return false;
                }
                let t = &self.spec.timing;
                let ready_bank = match req.kind {
                    AccessKind::Read => bank.next_read <= now,
                    AccessKind::Write => bank.next_write <= now,
                };
                if !ready_bank {
                    return false;
                }
                // CAS-to-CAS spacing.
                if let Some((last, bg)) = self.last_cas {
                    let ccd = if bg == req.addr.bank_group {
                        t.tCCD_L
                    } else {
                        t.tCCD_S
                    };
                    if now < last + ccd {
                        return false;
                    }
                }
                // Data-bus occupancy: this burst's data must start after the
                // previous transfer ends.
                now + self.cas_latency(req.kind) >= self.bus_data_end
            }

            fn act_ready(&self, req: &QueuedRequest, now: u64) -> bool {
                let bank = &self.banks[self.bank_index(&req.addr)];
                if bank.state != BankState::Closed || bank.next_activate > now {
                    return false;
                }
                let t = &self.spec.timing;
                let rank = req.addr.rank;
                if let Some((last, bg)) = self.last_act[rank] {
                    let rrd = if bg == req.addr.bank_group {
                        t.tRRD_L
                    } else {
                        t.tRRD_S
                    };
                    if now < last + rrd {
                        return false;
                    }
                }
                let window = &self.act_window[rank];
                !(window.len() == 4 && now < window[0] + t.tFAW)
            }

            fn issue_cas(&mut self, qidx: usize, now: u64) {
                let req = self.queue[qidx].clone();
                let t = self.spec.timing;
                let burst = self.spec.org.burst_cycles();
                let bank = &mut self.banks[req.addr.flat_bank(&self.spec.org)];
                match req.kind {
                    AccessKind::Read => bank.read(now, &t, burst),
                    AccessKind::Write => bank.write(now, &t, burst),
                }
                if self.row_policy == RowPolicy::ClosedPage {
                    // Auto-precharge once legal; model as immediate close with the
                    // activate window pushed past the recovery constraints.
                    let bank = &mut self.banks[req.addr.flat_bank(&self.spec.org)];
                    let pre_at = bank.next_precharge;
                    bank.state = BankState::Closed;
                    bank.next_activate = bank.next_activate.max(pre_at + t.tRP);
                    // Open-time bookkeeping closes at `now` (the few recovery cycles
                    // until `pre_at` are attributed to precharge standby).
                    self.note_bank_closed(now);
                }
                self.last_cas = Some((now, req.addr.bank_group));
                let lat = self.cas_latency(req.kind);
                self.bus_data_end = now + lat + burst;
                self.stats.data_bus_busy_cycles += burst;
                self.stats.bytes_transferred += self.spec.org.burst_bytes() as u64;
                let cas_kind = match req.kind {
                    AccessKind::Read => CommandKind::Rd,
                    AccessKind::Write => CommandKind::Wr,
                };
                self.log_cmd(now, cas_kind, &req.addr, req.addr.row);
                let done = now + lat + burst;
                match req.kind {
                    AccessKind::Read => {
                        self.stats.reads += 1;
                        let latency = done - req.arrive;
                        self.stats.total_read_latency += latency;
                        self.stats.max_read_latency = self.stats.max_read_latency.max(latency);
                        self.completions.push((req.id, done, AccessKind::Read));
                    }
                    AccessKind::Write => {
                        self.stats.writes += 1;
                        self.completions.push((req.id, now, AccessKind::Write));
                    }
                }
                self.queue.remove(qidx);
            }

            fn classify(&mut self, qidx: usize) {
                if self.queue[qidx].classified {
                    return;
                }
                let addr = self.queue[qidx].addr;
                let bank = &self.banks[addr.flat_bank(&self.spec.org)];
                match bank.state {
                    BankState::Open(r) if r == addr.row => self.stats.row_hits += 1,
                    BankState::Open(_) => self.stats.row_conflicts += 1,
                    BankState::Closed => self.stats.row_misses += 1,
                }
                self.queue[qidx].classified = true;
            }

            fn issue_act(&mut self, qidx: usize, now: u64) {
                let addr = self.queue[qidx].addr;
                let rank = addr.rank;
                let t = self.spec.timing;
                self.banks[addr.flat_bank(&self.spec.org)].activate(now, addr.row, &t);
                self.last_act[rank] = Some((now, addr.bank_group));
                let window = &mut self.act_window[rank];
                if window.len() == 4 {
                    window.pop_front();
                }
                window.push_back(now);
                self.stats.activates += 1;
                self.log_cmd(now, CommandKind::Act, &addr, addr.row);
                if self.open_banks == 0 {
                    self.any_open_since = now;
                }
                self.open_banks += 1;
            }

            fn issue_pre(&mut self, qidx: usize, now: u64) {
                let addr = self.queue[qidx].addr;
                let t = self.spec.timing;
                self.banks[addr.flat_bank(&self.spec.org)].precharge(now, &t);
                self.stats.precharges += 1;
                self.log_cmd(now, CommandKind::Pre, &addr, addr.row);
                self.note_bank_closed(now);
            }

            fn note_bank_closed(&mut self, now: u64) {
                self.open_banks = self.open_banks.saturating_sub(1);
                if self.open_banks == 0 {
                    self.stats.row_open_cycles += now - self.any_open_since;
                }
            }

            fn cas_earliest(&self, req: &QueuedRequest) -> u64 {
                let t = &self.spec.timing;
                let bank = &self.banks[self.bank_index(&req.addr)];
                let mut earliest = match req.kind {
                    AccessKind::Read => bank.next_read,
                    AccessKind::Write => bank.next_write,
                };
                if let Some((last, bg)) = self.last_cas {
                    let ccd = if bg == req.addr.bank_group {
                        t.tCCD_L
                    } else {
                        t.tCCD_S
                    };
                    earliest = earliest.max(last + ccd);
                }
                let lat = self.cas_latency(req.kind);
                earliest = earliest.max(self.bus_data_end.saturating_sub(lat));
                earliest
            }

            fn act_earliest(&self, req: &QueuedRequest) -> u64 {
                let t = &self.spec.timing;
                let bank = &self.banks[self.bank_index(&req.addr)];
                let mut earliest = bank.next_activate;
                let rank = req.addr.rank;
                if let Some((last, bg)) = self.last_act[rank] {
                    let rrd = if bg == req.addr.bank_group {
                        t.tRRD_L
                    } else {
                        t.tRRD_S
                    };
                    earliest = earliest.max(last + rrd);
                }
                let window = &self.act_window[rank];
                if window.len() == 4 {
                    earliest = earliest.max(window[0] + t.tFAW);
                }
                earliest
            }

            pub fn tick(&mut self, now: u64) {
                self.stats.end_cycle = now + 1;
                // Refresh: blunt all-bank refresh at tREFI boundaries.
                if now >= self.next_refresh {
                    let t = self.spec.timing;
                    for b in &mut self.banks {
                        b.refresh(now, &t);
                    }
                    if self.open_banks > 0 {
                        self.stats.row_open_cycles += now - self.any_open_since;
                        self.open_banks = 0;
                    }
                    if let Some(log) = &mut self.log {
                        log.push(now, CommandKind::Ref, 0, 0, 0, 0);
                    }
                    self.next_refresh += t.tREFI;
                    self.stats.refreshes += 1;
                    self.next_try = now + 1;
                    return;
                }
                if self.queue.is_empty() || now < self.next_try {
                    return;
                }
                let scan = match self.policy {
                    SchedulingPolicy::FrFcfs => self.queue.len().min(SCAN_WINDOW),
                    SchedulingPolicy::Fcfs => 1,
                };
                // Pass 1 (FR): any ready row-hit CAS.
                for i in 0..scan {
                    let bank = &self.banks[self.bank_index(&self.queue[i].addr)];
                    if bank.is_open(self.queue[i].addr.row) && self.cas_ready(&self.queue[i], now) {
                        self.classify(i);
                        self.issue_cas(i, now);
                        self.next_try = now + 1;
                        return;
                    }
                }
                // Pass 2 (FCFS): advance the first request that can make progress;
                // while scanning, remember the earliest future cycle anything could
                // happen so idle stretches are skipped.
                let mut soonest = self.next_refresh;
                for i in 0..scan {
                    let (bank_state, row) = {
                        let req = &self.queue[i];
                        let bank = &self.banks[self.bank_index(&req.addr)];
                        (bank.state, req.addr.row)
                    };
                    match bank_state {
                        BankState::Closed => {
                            if self.act_ready(&self.queue[i], now) {
                                self.classify(i);
                                self.issue_act(i, now);
                                self.next_try = now + 1;
                                return;
                            }
                            soonest = soonest.min(self.act_earliest(&self.queue[i]));
                        }
                        BankState::Open(r) if r != row => {
                            let bank = &self.banks[self.bank_index(&self.queue[i].addr)];
                            if bank.next_precharge <= now {
                                self.classify(i);
                                self.issue_pre(i, now);
                                self.next_try = now + 1;
                                return;
                            }
                            soonest = soonest.min(bank.next_precharge);
                        }
                        BankState::Open(_) => {
                            // Row open, CAS merely blocked by timing; wait for it.
                            soonest = soonest.min(self.cas_earliest(&self.queue[i]));
                        }
                    }
                }
                self.next_try = soonest.max(now + 1);
            }
        }

        /// The multi-channel front end over [`Controller`]s, as
        /// `mem::DramSystem` was.
        pub struct System {
            config: DramConfig,
            channels: Vec<Controller>,
            now: u64,
            next_id: u64,
            reads_in_flight: usize,
            writes_in_flight: usize,
            scratch: Vec<(u64, u64, AccessKind)>,
            completions: Vec<(u64, u64)>,
        }

        impl System {
            pub fn new(config: DramConfig) -> Self {
                let per_channel = config.read_queue + config.write_queue;
                let controller = || {
                    Controller::new(
                        config.spec,
                        config.scheduling,
                        config.row_policy,
                        per_channel,
                    )
                };
                System {
                    channels: (0..config.channels).map(|_| controller()).collect(),
                    config,
                    now: 0,
                    next_id: 0,
                    reads_in_flight: 0,
                    writes_in_flight: 0,
                    scratch: Vec::new(),
                    completions: Vec::new(),
                }
            }

            pub fn now(&self) -> u64 {
                self.now
            }

            pub fn in_flight(&self) -> usize {
                self.reads_in_flight + self.writes_in_flight
            }

            pub fn try_enqueue(&mut self, kind: AccessKind, byte_addr: u64) -> Option<u64> {
                let full = match kind {
                    AccessKind::Read => self.reads_in_flight >= self.config.read_queue,
                    AccessKind::Write => self.writes_in_flight >= self.config.write_queue,
                };
                let (org, channels) = (&self.config.spec.org, self.config.channels);
                let daddr = self.config.mapping.decode(byte_addr, org, channels);
                let ch = &mut self.channels[daddr.channel];
                if full || !ch.can_accept() {
                    return None;
                }
                let id = self.next_id;
                self.next_id += 1;
                ch.enqueue(id, daddr, kind, self.now);
                match kind {
                    AccessKind::Read => self.reads_in_flight += 1,
                    AccessKind::Write => self.writes_in_flight += 1,
                }
                Some(id)
            }

            pub fn tick(&mut self) {
                for ch in &mut self.channels {
                    ch.tick(self.now);
                    ch.take_completions(&mut self.scratch);
                }
                for (id, cycle, kind) in self.scratch.drain(..) {
                    match kind {
                        AccessKind::Read => self.reads_in_flight -= 1,
                        AccessKind::Write => self.writes_in_flight -= 1,
                    }
                    self.completions.push((id, cycle));
                }
                self.now += 1;
            }

            fn next_event_cycle(&self) -> u64 {
                let events = self.channels.iter().map(|c| c.next_event());
                events.min().unwrap_or(u64::MAX)
            }

            pub fn skip_to_next_event(&mut self) {
                self.now = self.now.max(self.next_event_cycle());
            }

            pub fn tick_until(&mut self, cycle: u64) {
                while self.now < cycle {
                    self.now = self.now.max(self.next_event_cycle().min(cycle));
                    if self.now < cycle {
                        self.tick();
                    }
                }
            }

            pub fn drain(&mut self) {
                while self.in_flight() > 0 {
                    self.skip_to_next_event();
                    self.tick();
                }
            }

            /// `(id, completion cycle)` of everything completed so far.
            pub fn pop_completions(&mut self) -> Vec<(u64, u64)> {
                std::mem::take(&mut self.completions)
            }

            pub fn stats(&self) -> MemStats {
                let mut total = MemStats::default();
                for ch in &self.channels {
                    total.merge(&ch.stats_snapshot());
                }
                total
            }

            pub fn enable_command_logs(&mut self) {
                self.channels
                    .iter_mut()
                    .for_each(Controller::enable_command_log);
            }

            pub fn command_logs(&self) -> Vec<&CommandLog> {
                self.channels
                    .iter()
                    .filter_map(|c| c.command_log())
                    .collect()
            }

            pub fn fast_forward_to(&mut self, cycle: u64) {
                if self.in_flight() == 0 {
                    self.now = self.now.max(cycle);
                }
            }
        }

        /// One line request: `(memory cycle, byte address, direction)`.
        pub type Request = (u64, u64, AccessKind);

        /// Per-request outcome of [`replay_trace`].
        pub struct Replayed {
            /// Completion − desired issue cycle, in trace order.
            pub latencies: Vec<u64>,
            /// Completion − queue acceptance, in trace order.
            pub service_latencies: Vec<u64>,
            pub stats: MemStats,
            pub end_cycle: u64,
        }

        /// Replays `trace` (sorted by cycle) through a fresh [`System`].
        pub fn replay_trace(config: DramConfig, trace: &[Request]) -> Replayed {
            let mut sys = System::new(config);
            let mut latencies = vec![0u64; trace.len()];
            let mut service_latencies = vec![0u64; trace.len()];
            let mut id_to_slot: HashMap<u64, (usize, u64, u64)> = HashMap::new();
            let mut collect = |sys: &mut System, id_to_slot: &mut HashMap<u64, _>| {
                for (id, cycle) in sys.pop_completions() {
                    let (slot, asked, accepted): (usize, u64, u64) =
                        id_to_slot.remove(&id).expect("completes once");
                    latencies[slot] = cycle.saturating_sub(asked);
                    service_latencies[slot] = cycle.saturating_sub(accepted);
                }
            };
            for (slot, &(cycle, byte_addr, kind)) in trace.iter().enumerate() {
                if sys.in_flight() == 0 {
                    sys.fast_forward_to(cycle);
                } else {
                    sys.tick_until(cycle);
                }
                collect(&mut sys, &mut id_to_slot);
                let id = loop {
                    match sys.try_enqueue(kind, byte_addr) {
                        Some(id) => break id,
                        None => {
                            sys.skip_to_next_event();
                            sys.tick();
                            collect(&mut sys, &mut id_to_slot);
                        }
                    }
                };
                id_to_slot.insert(id, (slot, cycle, sys.now()));
            }
            sys.drain();
            collect(&mut sys, &mut id_to_slot);
            assert!(id_to_slot.is_empty(), "all requests must complete");
            Replayed {
                latencies,
                service_latencies,
                stats: sys.stats(),
                end_cycle: sys.now(),
            }
        }

        /// A word-granular trace as burst-aligned line requests sorted by
        /// cycle, with the trace entry each came from: every transaction
        /// expanded to addresses, coalesced to lines and tagged.
        pub fn linearize(
            trace: &TraceRecorder,
            cfg: &DramIntegration,
            bytes_per_word: usize,
        ) -> (Vec<Request>, Vec<usize>) {
            let line_bytes = cfg.spec.org.burst_bytes() as u64;
            let mut tagged: Vec<(Request, usize)> = Vec::new();
            let mut lines: Vec<u64> = Vec::new();
            for (entry_idx, e) in trace.entries().iter().enumerate() {
                let mem_cycle = (e.issue as f64 * cfg.mem_cycles_per_core_cycle) as u64;
                let kind = match e.kind {
                    Direction::Read => AccessKind::Read,
                    Direction::Write => AccessKind::Write,
                };
                trace.batch_of(e).expand_into(&mut lines);
                for word in &mut lines {
                    *word = *word * bytes_per_word as u64 / line_bytes;
                }
                lines.sort_unstable();
                lines.dedup();
                for &line in &lines {
                    tagged.push(((mem_cycle, line * line_bytes, kind), entry_idx));
                }
            }
            tagged.sort_by_key(|&((cycle, ..), _)| cycle);
            let entries = tagged.iter().map(|&(_, i)| i).collect();
            let requests = tagged.into_iter().map(|(r, _)| r).collect();
            (requests, entries)
        }

        /// Step 2 as it was: per-transaction figures (core cycles) and the
        /// replay they were scattered from, plus the mean round trip.
        pub fn measure(
            trace: &TraceRecorder,
            cfg: &DramIntegration,
            bytes_per_word: usize,
            config: DramConfig,
        ) -> (Vec<MeasuredTransaction>, Replayed, f64) {
            let (requests, entry_of) = linearize(trace, cfg, bytes_per_word);
            let replay = replay_trace(config, &requests);
            let ratio = cfg.mem_cycles_per_core_cycle;
            let n_entries = trace.entries().len();
            let mut tx = vec![MeasuredTransaction::default(); n_entries];
            let mut service_sum = vec![0f64; n_entries];
            for (slot, &entry) in entry_of.iter().enumerate() {
                let done_mem = requests[slot].0 + replay.latencies[slot];
                let done_core = (done_mem as f64 / ratio).ceil() as u64;
                let service_core = (replay.service_latencies[slot] as f64 / ratio).ceil() as u64;
                let t = &mut tx[entry];
                t.arrival = t.arrival.max(done_core);
                t.lines += 1;
                t.max_service = t.max_service.max(service_core);
                service_sum[entry] += service_core as f64;
            }
            for (t, sum) in tx.iter_mut().zip(&service_sum) {
                if t.lines > 0 {
                    t.avg_service = sum / t.lines as f64;
                }
            }
            let avg_latency = match replay.latencies.len() {
                0 => 0.0,
                n => replay.latencies.iter().sum::<u64>() as f64 / n as f64,
            };
            (tx, replay, avg_latency)
        }
    }

    /// The §VI layout stage as it was: every compute cycle's addresses
    /// placed word by word, sorted, deduplicated and looked up in a hash
    /// map of recent lines.
    pub mod layout {
        use super::*;

        struct Sink {
            gemm: GemmShape,
            model: BankModel,
            layouts: [(LayoutSpec, TensorDims); 3],
            layout_cycles: u64,
            bandwidth_cycles: u64,
            cycles: u64,
            line_buffer_cycles: u64,
            /// Per operand: `(bank << 40 | line) → last fetch cycle`.
            line_cache: [HashMap<u64, u64>; 3],
        }

        impl Sink {
            /// `(row, column)` of `addr` in operand `which`.
            fn coords(&self, which: usize, addr: Addr) -> (usize, usize) {
                let (base, cols) = match which {
                    0 => (IFMAP_BASE, self.gemm.k),
                    1 => (FILTER_BASE, self.gemm.n),
                    _ => (OFMAP_BASE, self.gemm.n),
                };
                let offset = (addr - base) as usize;
                (offset / cols, offset % cols)
            }

            /// Cost of one operand's accesses this cycle: distinct lines
            /// touched, minus those still resident in the array-edge line
            /// buffers, grouped per bank.
            fn operand_cost(&mut self, which: usize, addrs: &[&[Addr]]) -> (u64, u64) {
                let (spec, dims) = self.layouts[which];
                let (per_bank, banks) = (self.model.bandwidth_per_bank(), self.model.num_banks());
                let mut keys = Vec::new();
                for &a in addrs.iter().copied().flatten() {
                    let (r, c) = self.coords(which, a);
                    let p = spec.place_banked(dims, 0, r, c, per_bank, banks);
                    keys.push(((p.bank as u64) << 40) | p.line as u64);
                }
                if keys.is_empty() {
                    return (0, 0);
                }
                let elems = keys.len();
                keys.sort_unstable();
                keys.dedup();
                let (cycle, window) = (self.cycles, self.line_buffer_cycles);
                let mut bank_new = vec![0u64; banks];
                let cache = &mut self.line_cache[which];
                for &key in &keys {
                    let fresh = matches!(cache.get(&key), Some(&last) if cycle - last <= window);
                    if !fresh {
                        bank_new[(key >> 40) as usize] += 1;
                    }
                    cache.insert(key, cycle);
                }
                if cache.len() > 1 << 16 {
                    cache.retain(|_, &mut last| cycle - last <= window);
                }
                let ports = self.model.ports_per_bank() as u64;
                let lc = bank_new.iter().map(|&n| n.div_ceil(ports)).max();
                (
                    lc.unwrap_or(0).max(1),
                    self.model.bandwidth_model_cycles(elems),
                )
            }
        }

        impl DemandSink for Sink {
            fn on_cycle(&mut self, d: &CycleDemand) {
                self.cycles += 1;
                let (li, bi) = self.operand_cost(0, &[&d.ifmap_reads]);
                let (lf, bf) = self.operand_cost(1, &[&d.filter_reads]);
                let (lo, bo) = self.operand_cost(2, &[&d.ofmap_reads, &d.ofmap_writes]);
                // The three SRAMs serve in parallel; the slowest gates the cycle.
                self.layout_cycles += li.max(lf).max(lo).max(1);
                self.bandwidth_cycles += bi.max(bf).max(bo).max(1);
            }
        }

        pub fn slowdown(
            array: ArrayShape,
            dataflow: Dataflow,
            gemm: GemmShape,
            cfg: &LayoutIntegration,
        ) -> LayoutAnalysis {
            let (banks, ports) = (cfg.num_banks, cfg.ports_per_bank);
            let mut sink = Sink {
                gemm,
                model: BankModel::from_total_bandwidth(cfg.total_bandwidth, banks, ports),
                layouts: [
                    (cfg.ifmap_layout, TensorDims::matrix(gemm.m, gemm.k)),
                    (cfg.filter_layout, TensorDims::matrix(gemm.k, gemm.n)),
                    (cfg.ofmap_layout, TensorDims::matrix(gemm.m, gemm.n)),
                ],
                layout_cycles: 0,
                bandwidth_cycles: 0,
                cycles: 0,
                line_buffer_cycles: cfg.line_buffer_cycles,
                line_cache: Default::default(),
            };
            run(&DemandGenerator::new(array, dataflow, gemm), &mut sink);
            LayoutAnalysis {
                compute_cycles: sink.cycles,
                layout_cycles: sink.layout_cycles,
                bandwidth_cycles: sink.bandwidth_cycles,
            }
        }
    }
}

#[test]
fn fold_granular_plan_equals_the_per_address_reference() {
    check(
        "fold_granular_plan_equals_the_per_address_reference",
        400,
        |rng| {
            let (config, gemm) = draw_core(rng);
            let what = describe(&config, gemm);
            let bandwidth = config.memory.dram_bandwidth;

            let mut pass = reference::Pass::new(&config.memory);
            let generator = DemandGenerator::new(config.array, config.dataflow, gemm);
            reference::run(&generator, &mut pass);
            let mut store = reference::Store::new(bandwidth);
            let want = reference::timing(&pass, &mut store);

            let plan = CoreSim::new(config.clone()).plan_gemm(gemm);
            let mut recorder = RecordingStore::new(IdealBandwidthStore::new(bandwidth));
            let got = timing(&plan.inputs, &mut recorder);

            assert_eq!(got, want, "{what}: memory summary");
            assert_eq!(plan.sram, pass.sram(), "{what}: SRAM summary");
            let trace = recorder.trace();
            let (entries, transactions) = (trace.entries(), &store.transactions);
            assert_eq!(entries.len(), transactions.len(), "{what}: transactions");
            let mut addrs = Vec::new();
            for (i, (entry, want)) in entries.iter().zip(transactions).enumerate() {
                trace.batch_of(entry).expand_into(&mut addrs);
                let got = (
                    entry.issue,
                    entry.completion,
                    entry.operand,
                    entry.kind,
                    std::mem::take(&mut addrs),
                );
                assert_eq!(&got, want, "{what}: transaction {i}");
                assert_eq!(entry.len, want.4.len(), "{what}: transaction {i} words");
                addrs = got.4;
            }
        },
    );
}

/// One edge stream of any shape a product stream can take, and some it
/// cannot: 1–64 lanes of 1–5,000 elements (long bands must occur),
/// skewed or not, strides of ±1, small, random, or whole multiples of
/// `row_words · buffers` (every lane on one slot: the thrash case). The
/// base sits far from 0, so no address wraps — as in a product stream.
fn draw_stream(rng: &mut SplitMix64, row_words: usize, buffers: usize) -> Stream {
    let block = (row_words * buffers) as i64;
    let stride = |rng: &mut SplitMix64| -> u64 {
        let sign = if rng.chance(2) { -1 } else { 1 };
        let magnitude = match rng.range(0, 5) {
            0 => 1,
            1 => rng.range(0, 20) as i64,
            2 => rng.range(0, 100_000) as i64,
            3 => block * rng.range(1, 4) as i64,
            _ => block * rng.range(1, 4) as i64 + rng.range(0, 3) as i64 - 1,
        };
        (sign * magnitude) as u64
    };
    let lanes = match rng.range(0, 3) {
        0 => rng.range(1, 5),
        _ => rng.range(1, 65),
    };
    let len = match rng.range(0, 4) {
        0 => rng.range(1, 40),
        1 => rng.range(40, 400),
        2 => rng.range(400, 2_000),
        _ => rng.range(2_000, 5_001),
    };
    Stream {
        base: (1 << 40) + rng.range(0, 1 << 20) as u64,
        lanes,
        len,
        lane_stride: stride(rng),
        step_stride: stride(rng),
        skewed: rng.chance(2),
    }
}

/// The walk against one probe per word, one lookup carried across 1–4
/// walks; half the walks repeat the one before (a tile re-streamed by
/// the next fold), so runs of three and more occur.
#[test]
fn repeat_lookup_equals_the_per_word_reference() {
    check(
        "repeat_lookup_equals_the_per_word_reference",
        2_000,
        |rng| {
            let row_words = rng.pick(&[1, 2, 3, 4, 5, 12, 16, 64]);
            let buffers = rng.pick(&[1, 2, 8, 64]);
            let mut got = scale_sim::systolic::RepeatLookup::new(row_words, buffers);
            let mut want = reference::RepeatLookup::new(row_words, buffers);
            let (mut stream, mut passes) = (draw_stream(rng, row_words, buffers), 1);
            for i in 0..rng.range(1, 5) {
                if i > 0 && rng.chance(2) {
                    stream = draw_stream(rng, row_words, buffers);
                }
                if rng.chance(4) {
                    passes = 3 - passes;
                }
                got.walk(&stream, passes);
                want.walk(&stream, passes);
                let what = format!("rows {row_words}x{buffers}, stream {i} {stream:?} x{passes}");
                assert_eq!(got.repeats, want.repeats, "{what}");
            }
        },
    );
}

/// Every distinct GEMM of the LLM presets and the benchmark's planning
/// workloads, planned on its own configuration: the SRAM summary equals
/// the per-word reference walked over `folds()`. Release only — llama-7b
/// prefill alone is tens of billions of edge words.
#[test]
#[ignore = "minutes-long: CI runs it via `cargo test --release -- --ignored`"]
fn sram_summary_equals_the_per_word_reference_at_llm_scale() {
    let bench = |name: &str| {
        let path = format!(
            "{}/scalesim-bench/workloads/{name}",
            env!("CARGO_MANIFEST_DIR")
        );
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"))
    };
    let cfg = |name: &str| scale_sim::scalesim::parse_cfg(&bench(name)).expect("bench cfg");
    let llm = |name: &str, context: usize, batch: usize| {
        let config = cfg(name);
        let mut model = config.llm.clone().expect("an [llm] section");
        (model.context, model.spec.batch) = (Some(context), batch);
        (config.core, model.topology().expect("a valid model"))
    };
    let preset = |name: &str| {
        let topology = scale_sim::workloads::by_name(name).expect("a preset");
        (SimConfig::default(), topology)
    };
    let run = |name: &str, topology: &str| {
        let parse = Topology::parse_csv_auto(topology, &bench(topology)).expect("bench topology");
        (cfg(name).core, parse)
    };
    let cases = [
        preset("llama-7b"),
        preset("llama-7b:decode"),
        run("os32.cfg", "resnet18.csv"),
        run("os32.cfg", "vit_base_block.csv"),
        llm("llm_prefill.cfg", 128, 1),
        llm("llm_decode.cfg", 512, 1),
        llm("llm_decode.cfg", 2048, 4),
        llm("llm_decode.cfg", 4096, 8),
    ];
    for (config, topology) in cases {
        let gemms: HashSet<GemmShape> = topology.iter().map(|layer| layer.gemm()).collect();
        for gemm in gemms {
            let plan = CoreSim::new(config.clone()).plan_gemm(gemm);
            let what = format!("{}: {}", topology.name(), describe(&config, gemm));
            assert_eq!(plan.sram, reference::sram(&config, gemm), "{what}");
        }
    }
}

// ---------------------------------------------------------------------------
// crates/core feature stages: the streamed DRAM replay and the stream-walking
// layout costing against the per-line and per-cycle references
// ---------------------------------------------------------------------------

/// A DRAM integration and the controller policies to replay under: any
/// device preset, 1–4 channels, queues from 1 entry to 512, every address
/// mapping, scheduling and row policy, three clock ratios.
fn draw_dram(rng: &mut SplitMix64) -> (DramIntegration, DramConfig) {
    let name = rng.pick(&DramSpec::preset_names());
    let queue = |rng: &mut SplitMix64| match rng.range(0, 4) {
        0 => rng.range(1, 5),
        1 => rng.range(5, 65),
        2 => 128,
        _ => rng.range(65, 513),
    };
    let integration = DramIntegration {
        spec: DramSpec::by_name(name).expect("a listed preset"),
        channels: rng.range(1, 5),
        mapping: rng.pick(&[
            AddressMapping::RoBaRaCoCh,
            AddressMapping::RoRaBaChCo,
            AddressMapping::ChRaBaRoCo,
        ]),
        read_queue: queue(rng),
        write_queue: queue(rng),
        mem_cycles_per_core_cycle: rng.pick(&[0.8, 1.2, 2.0]),
    };
    let config = DramConfig {
        spec: integration.spec,
        channels: integration.channels,
        mapping: integration.mapping,
        read_queue: integration.read_queue,
        write_queue: integration.write_queue,
        scheduling: rng.pick(&[SchedulingPolicy::FrFcfs, SchedulingPolicy::Fcfs]),
        row_policy: rng.pick(&[RowPolicy::OpenPage, RowPolicy::ClosedPage]),
    };
    (integration, config)
}

/// Banks, ports, per-operand layouts (row-major, column-major, Fig. 11
/// style steps; line widths that do and do not match the bandwidth) and
/// line-buffer windows of 0, 1 and 64 cycles.
fn draw_layout(rng: &mut SplitMix64) -> LayoutIntegration {
    let layout = |rng: &mut SplitMix64| match rng.range(0, 4) {
        0 => LayoutSpec::row_major(rng.pick(&[64, 16, 7, 1])),
        1 => LayoutSpec::column_major(rng.pick(&[64, 8, 5, 1])),
        2 => LayoutSpec::fig11(),
        _ => LayoutSpec::new(rng.range(1, 4), rng.range(1, 6), rng.range(1, 9)),
    };
    LayoutIntegration {
        total_bandwidth: rng.pick(&[64, 64, 16, 10, 1]),
        num_banks: rng.pick(&[1, 2, 4, 4, 8, 16]),
        ports_per_bank: rng.range(1, 3),
        ifmap_layout: layout(rng),
        filter_layout: layout(rng),
        ofmap_layout: layout(rng),
        line_buffer_cycles: rng.pick(&[0, 1, 64, 64]),
    }
}

#[test]
fn feature_stages_equal_the_per_line_and_per_cycle_reference() {
    let name = "feature_stages_equal_the_per_line_and_per_cycle_reference";
    check(name, 320, |rng| {
        let (config, gemm) = draw_core(rng);
        let (integration, policies) = draw_dram(rng);
        let layout = draw_layout(rng);
        // Words narrower than, equal to and wider than a DRAM line.
        let bytes_per_word = rng.pick(&[2, 2, 1, 4, 3, 64, 96]);
        let what = format!(
            "{} | {} ch {} {:?} q {}/{} x{} {:?} {:?} {bytes_per_word} B/word | {layout:?}",
            describe(&config, gemm),
            integration.spec.name,
            integration.channels,
            integration.mapping,
            integration.read_queue,
            integration.write_queue,
            integration.mem_cycles_per_core_cycle,
            policies.scheduling,
            policies.row_policy,
        );
        let bandwidth = config.memory.dram_bandwidth;
        let plan = CoreSim::new(config.clone()).plan_gemm(gemm);
        let mut recorder = RecordingStore::new(IdealBandwidthStore::new(bandwidth));
        timing(&plan.inputs, &mut recorder);
        let trace = recorder.into_trace();

        // Step 2 under the drawn policies.
        let same_replay = |policies: DramConfig| {
            let (want_tx, want, want_avg) =
                reference::dram::measure(&trace, &integration, bytes_per_word, policies);
            let (scheduling, row_policy) = (policies.scheduling, policies.row_policy);
            let (tx, got) =
                dram::replay(&trace, &integration, bytes_per_word, scheduling, row_policy);
            assert_eq!(tx.len(), want_tx.len(), "{what}");
            for (i, (t, w)) in tx.iter().zip(&want_tx).enumerate() {
                let bits = |t: &MeasuredTransaction| {
                    (t.arrival, t.lines, t.avg_service.to_bits(), t.max_service)
                };
                assert_eq!(bits(t), bits(w), "{what}: transaction {i}: {t:?} vs {w:?}");
            }
            assert_eq!(got.stats, want.stats, "{what}");
            assert_eq!(got.end_cycle, want.end_cycle, "{what}");
            assert_eq!(got.requests as usize, want.latencies.len(), "{what}");
            assert_eq!(
                got.total_latency,
                want.latencies.iter().sum::<u64>(),
                "{what}"
            );
            assert_eq!(got.avg_latency().to_bits(), want_avg.to_bits(), "{what}");
            assert!(got.run_cas <= got.requests, "{what}");
            (want_tx, want, want_avg)
        };
        same_replay(policies);

        // Steps 1–3 under the integration's own (default) policies.
        let (want_tx, want, want_avg) = same_replay(DramConfig {
            scheduling: SchedulingPolicy::default(),
            row_policy: RowPolicy::default(),
            ..policies
        });
        let (read_queue, write_queue) = (integration.read_queue, integration.write_queue);
        let mut store = LatencyReplayStore::new(want_tx, read_queue, write_queue);
        let want_summary = timing(&plan.inputs, &mut store);
        let got = dram::dram_analysis(&plan.inputs, bandwidth, bytes_per_word, &integration);
        assert_eq!(got.summary, want_summary, "{what}");
        assert_eq!(got.stats, want.stats, "{what}");
        assert_eq!(got.avg_latency.to_bits(), want_avg.to_bits(), "{what}");
        assert_eq!(got.line_requests, want.latencies.len(), "{what}");
        let energy =
            DramEnergyBreakdown::from_stats(&integration.spec, &want.stats, integration.channels);
        assert_eq!(got.energy, energy, "{what}");

        // The layout stage.
        let (array, dataflow) = (config.array, config.dataflow);
        let got = layout_slowdown_for_gemm(array, dataflow, gemm, &layout);
        let want = reference::layout::slowdown(array, dataflow, gemm, &layout);
        assert_eq!(got, want, "{what}");
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
        // Full queues, no gaps: the regime in which whole rows stream and
        // the controller decides a run of requests at a time.
        for pattern in Saturating::ALL {
            let what = format!("{name} saturated {pattern:?}");
            check(&what, 1, |rng| saturate_dram(rng, &what, spec, pattern));
        }
    }
}

/// Address patterns that keep a 128-entry queue full.
#[derive(Debug, Clone, Copy)]
enum Saturating {
    /// Consecutive lines: one open row at a time.
    Sequential,
    /// Two rows of one bank, alternating in bursts.
    PingPong,
    /// Every request a different bank, rows changing behind them.
    BankStrided,
    /// Sequential reads with writes to a second region mixed in.
    ReadWrite,
    /// Eight lanes `stride` lines apart, each fetch one line past the
    /// last, as a weight-stationary operand stream steps by K words: when
    /// the lanes span more than a row, runs are a few requests long, the
    /// window holds many of them, and nearly all are row hits spread over
    /// the bank groups.
    Strided,
    /// `Strided` reads with every third request a write to a second
    /// strided region.
    StridedReadWrite,
}

impl Saturating {
    const ALL: [Saturating; 6] = [
        Saturating::Sequential,
        Saturating::PingPong,
        Saturating::BankStrided,
        Saturating::ReadWrite,
        Saturating::Strided,
        Saturating::StridedReadWrite,
    ];
}

/// Drives the controller and the per-tick reference controller with the
/// same saturating stream — at least 4,000 requests through full 128-entry
/// queues, past two refresh intervals: same completions, same statistics,
/// same command logs, and every logged command JEDEC-legal.
fn saturate_dram(rng: &mut SplitMix64, what: &str, spec: DramSpec, pattern: Saturating) {
    let config = DramConfig {
        spec,
        channels: rng.range(1, 3),
        mapping: rng.pick(&[
            AddressMapping::RoBaRaCoCh,
            AddressMapping::RoRaBaChCo,
            AddressMapping::ChRaBaRoCo,
        ]),
        read_queue: 128,
        write_queue: 128,
        scheduling: rng.pick(&[
            SchedulingPolicy::FrFcfs,
            SchedulingPolicy::FrFcfs,
            SchedulingPolicy::Fcfs,
        ]),
        row_policy: RowPolicy::OpenPage,
    };
    let mut sys = DramSystem::new(config);
    let mut want = reference::dram::System::new(config);
    sys.enable_command_logs();
    want.enable_command_logs();

    let line = spec.org.burst_bytes() as u64;
    let row = (spec.org.columns / spec.org.burst_length) as u64 * line;
    let burst = rng.range(1, 40) as u64;
    let stride = rng.pick(&[3, 5, 48, 129]);
    let strided = |i: u64| (i / 8 + i % 8 * stride) * line;
    let request = |i: u64, rng: &mut SplitMix64| match pattern {
        Saturating::Sequential => (AccessKind::Read, i * line),
        Saturating::PingPong => {
            let far = row * spec.org.banks() as u64 * spec.org.ranks as u64 * 2;
            (AccessKind::Read, (i / burst % 2) * far + (i % 64) * line)
        }
        Saturating::BankStrided => (AccessKind::Read, i * row + (i / 64) * line),
        Saturating::ReadWrite if rng.chance(3) => (AccessKind::Write, (1 << 26) + i * line),
        Saturating::ReadWrite => (AccessKind::Read, i * line),
        Saturating::StridedReadWrite if i % 3 == 2 => (AccessKind::Write, (1 << 27) + strided(i)),
        Saturating::Strided | Saturating::StridedReadWrite => (AccessKind::Read, strided(i)),
    };
    // The same requests into both systems, each waiting for its own queue
    // slots — stepping event to event as the replay does, or cycle by
    // cycle. `(acceptance cycles, (tag, completion cycle)s)`.
    let every_cycle = rng.chance(2);
    // At least 4,000 requests, and on until two refreshes are behind.
    let (mut stream, mut accepted, mut done) = (Vec::new(), Vec::new(), Vec::new());
    let mut record = |c: Completion| done.push((c.tag as u64, c.cycle));
    while stream.len() < 4000 || sys.stats().refreshes < 2 {
        let (kind, addr) = request(stream.len() as u64, rng);
        while every_cycle && !sys.can_accept(kind) {
            sys.tick(&mut record);
        }
        sys.enqueue(kind, addr, stream.len(), &mut record);
        accepted.push(sys.now());
        stream.push((kind, addr));
    }
    sys.drain(&mut record);
    let (mut accepted_want, mut done_want) = (Vec::new(), Vec::new());
    for &(kind, addr) in &stream {
        while want.try_enqueue(kind, addr).is_none() {
            if !every_cycle {
                want.skip_to_next_event();
            }
            want.tick();
        }
        accepted_want.push(want.now());
        done_want.extend(want.pop_completions());
    }
    want.drain();
    done_want.extend(want.pop_completions());
    let requests = stream.len() as u64;
    assert_eq!(accepted, accepted_want, "{what}: acceptance cycles");
    assert_eq!(
        done.len() as u64,
        requests,
        "{what}: every request completes"
    );
    assert_eq!(done, done_want, "{what}: completions");
    assert_eq!(sys.now(), want.now(), "{what}: end cycle");
    assert_eq!(sys.stats(), want.stats(), "{what}: statistics");
    assert!(sys.stats().refreshes >= 2, "{what}: {:?}", sys.stats());
    // Under FR-FCFS, most of a streamed row issues with its run covering
    // the window; lanes that span more than a row (per channel) make short
    // runs, and nearly every CAS is decided by a window scan.
    let lanes_span_rows = stride * 8 > row / line * config.channels as u64;
    match pattern {
        _ if config.scheduling == SchedulingPolicy::Fcfs => {}
        Saturating::Sequential => assert!(
            sys.run_cas() * 2 > requests,
            "{what}: {} run CAS",
            sys.run_cas()
        ),
        Saturating::Strided | Saturating::StridedReadWrite if lanes_span_rows => assert!(
            sys.run_cas() * 10 < requests,
            "{what}: stride {stride} lines, {} run CAS of {requests}",
            sys.run_cas()
        ),
        _ => {}
    }

    let (logs, logs_want) = (sys.command_logs(), want.command_logs());
    assert_eq!(logs.len(), config.channels, "{what}");
    for (channel, (log, log_want)) in logs.iter().zip(&logs_want).enumerate() {
        if let Err(violation) = verify_timing(log, &spec) {
            panic!("{what}: channel {channel}: {violation}");
        }
        assert!(
            log == log_want,
            "{what}: channel {channel} command log differs"
        );
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
    let mut completions = Vec::new();
    let mut record = |c: Completion| completions.push(c);
    for tag in 0..requests {
        for _ in 0..rng.range(0, 6) {
            sys.tick(&mut record);
        }
        let (kind, addr) = draw_request(rng);
        // Queue full: stall and retry, a cycle at a time.
        while !sys.can_accept(kind) {
            sys.tick(&mut record);
        }
        sys.enqueue(kind, addr, tag, &mut record);
        issued.insert(tag, (kind, sys.now()));
        match kind {
            AccessKind::Read => reads += 1,
            AccessKind::Write => writes += 1,
        }
        assert!(sys.in_flight() <= read_queue + write_queue, "{what}");
    }
    sys.drain(&mut record);
    assert_eq!(sys.in_flight(), 0, "{what}");

    assert_eq!(
        completions.len(),
        requests,
        "{what}: every request completes"
    );
    let floor = spec.timing.CL + spec.org.burst_cycles();
    for done in &completions {
        let (kind, enqueued) = issued.remove(&done.tag).expect("completes once");
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
        // One read per cycle at the addresses `addr` gives.
        let reads = |count: usize, addr: &dyn Fn(u64) -> u64| {
            let mut replay = Replay::new(config);
            for i in 0..count as u64 {
                replay.push(i, addr(i), AccessKind::Read, 0, &mut |_| ());
            }
            replay.finish(&mut |_| ())
        };
        let n = rng.range(32, 128);

        // Appending traffic never lowers energy.
        let small = reads(n, &|i| i * 64);
        let large = reads(n + rng.range(1, 64), &|i| i * 64);
        let energy = |stats| DramEnergyBreakdown::from_stats(&spec, stats, 1);
        assert!(energy(&large.stats).total_pj() > energy(&small.stats).total_pj());
        assert!(energy(&large.stats).read_pj > energy(&small.stats).read_pj);

        // A sequential stream never does worse than ping-ponging two rows
        // of one bank.
        let row_stride = (spec.org.columns / spec.org.burst_length) as u64
            * spec.org.burst_bytes() as u64
            * spec.org.banks() as u64;
        let thrash = reads(n, &|i| (i % 2) * row_stride);
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
    use scale_sim::matrix::{BlockedEllpack, Csc, Csr, DenseMatrix};
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

/// One N:M pattern along `k`: layer-wise at a drawn ratio or row-wise
/// (N ≤ M/2) at a drawn seed.
fn draw_pattern(rng: &mut SplitMix64, k: usize, block: usize) -> SparsityPattern {
    if rng.chance(2) {
        SparsityPattern::row_wise(k, block, rng.next() % 1000)
    } else {
        let ratio = NmRatio::new(rng.range(1, block + 1), block).unwrap();
        SparsityPattern::layer_wise(k, ratio)
    }
}

/// The number `SPARSE_REPORT.csv` prints is a formula over the pattern;
/// it equals what each real format measures on a filter whose non-zero
/// rows are the pattern's.
#[test]
fn sparse_storage_formulas_equal_real_matrices() {
    use scale_sim::matrix::{BlockedEllpack, Csc, Csr, DenseMatrix};
    check("sparse_storage_formulas_equal_real_matrices", 80, |rng| {
        let block = 1 << rng.range(1, 5);
        let (k, n) = (rng.range(1, 80), rng.range(1, 40));
        let pattern = draw_pattern(rng, k, block);
        let mut filter = DenseMatrix::zeros(k, n);
        for row in pattern.nonzero_rows() {
            for col in 0..n {
                filter.set(row, col, 1.0 + rng.range(0, 9) as f32);
            }
        }
        let bits = rng.pick(&[8, 16, 32]);
        let formula = |format: SparseFormat| format.filter_storage_bits(&pattern, n, bits);
        let what = format!("{pattern:?} x {n} at {bits} bits");
        assert_eq!(
            formula(SparseFormat::Csr),
            Csr::from_dense(&filter).storage_bits(bits),
            "{what}"
        );
        assert_eq!(
            formula(SparseFormat::Csc),
            Csc::from_dense(&filter).storage_bits(bits),
            "{what}"
        );
        assert_eq!(
            formula(SparseFormat::BlockedEllpack),
            BlockedEllpack::from_dense(&filter, block).storage_bits(bits),
            "{what}"
        );
        assert_eq!(
            SparseFormat::dense_storage_bits(k, n, bits),
            filter.storage_bits(bits)
        );
    });
}

/// A sparse engine (layer-wise or row-wise at N ≤ M/2, any storage
/// format), its dense twin, a GEMM whose K is a whole number of blocks,
/// and the block size.
fn draw_sparse(rng: &mut SplitMix64, dataflow: Dataflow) -> (ScaleSim, ScaleSim, GemmShape, usize) {
    let block = 1 << rng.range(1, 5);
    let mut dense = ScaleSimConfig::default();
    dense.core.array = ArrayShape::new(rng.pick(&[4, 8, 16]), rng.pick(&[4, 8, 16]));
    dense.core.dataflow = dataflow;
    let mut sparse = dense.clone();
    sparse.sparse_format = rng.pick(&[
        SparseFormat::Csr,
        SparseFormat::Csc,
        SparseFormat::BlockedEllpack,
    ]);
    sparse.sparsity = Some(if rng.chance(2) {
        let seed = rng.next() % 1000;
        SparsityMode::RowWise { block, seed }
    } else {
        SparsityMode::LayerWise(NmRatio::new(rng.range(1, block / 2 + 1), block).unwrap())
    });
    let gemm = GemmShape::new(rng.range(1, 64), rng.range(1, 64), rng.range(1, 16) * block);
    (ScaleSim::new(sparse), ScaleSim::new(dense), gemm, block)
}

/// The product's sparse path (`[sparsity]` → `ScaleSim`) at N ≤ M/2,
/// layer-wise and row-wise: never slower than dense, exactly the MACs of
/// the compressed GEMM, and never a larger filter.
#[test]
fn advantageous_sparsity_always_wins() {
    check("advantageous_sparsity_always_wins", 60, |rng| {
        let (sparse, dense, gemm, _) = draw_sparse(rng, Dataflow::WeightStationary);
        let (s, d) = (sparse.run_gemm("l", gemm), dense.run_gemm("l", gemm));
        let what = format!("{gemm:?} under {:?}", sparse.config().sparsity);
        assert_eq!(s.dense_gemm, gemm, "{what}");
        assert_eq!((s.gemm.m, s.gemm.n), (gemm.m, gemm.n), "{what}");
        assert!(2 * s.gemm.k <= gemm.k, "{what}: K' = {}", s.gemm.k);
        let (sc, dc) = (&s.report.compute, &d.report.compute);
        assert!(sc.total_compute_cycles <= dc.total_compute_cycles, "{what}");
        assert_eq!(sc.macs, (gemm.m * gemm.n * s.gemm.k) as u64, "{what}");
        let row = s.sparse.as_ref().expect("a sparse layer has a storage row");
        assert_eq!(row.original_bytes, (gemm.k * gemm.n * 2) as u64, "{what}");
        // Blocked ELLPACK (the paper's format) never grows the filter;
        // CSR/CSC's 32-bit pointers can outweigh a few narrow rows.
        let ellpack = sparse.config().sparse_format == SparseFormat::BlockedEllpack;
        assert!(
            !ellpack || row.new_filter_bytes() <= row.original_bytes,
            "{what}: {row:?}"
        );
        assert!(d.sparse.is_none() && d.gemm == gemm);

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

/// What the sparse path plans is the closed form on the compressed GEMM:
/// its compute cycles equal the fold-exact count of `(M, N, K')` under
/// weight-stationary — whatever dataflow the cfg names — which sits
/// between the one-row-per-block floor and the dense count.
#[test]
fn analytical_sparse_brackets_exact() {
    check("analytical_sparse_brackets_exact", 60, |rng| {
        let named = rng.pick(&Dataflow::ALL);
        let (sparse, _, gemm, block) = draw_sparse(rng, named);
        let s = sparse.run_gemm("l", gemm);
        let array = sparse.config().core.array;
        let closed_form = |m, n, k| {
            AnalyticalModel::new(array, Dataflow::WeightStationary, GemmShape::new(m, n, k))
                .exact_runtime_cycles()
        };
        let planned = s.report.compute.total_compute_cycles;
        let what = format!("{gemm:?} -> {:?} on {array}", s.gemm);
        assert_eq!(planned, closed_form(gemm.m, gemm.n, s.gemm.k), "{what}");
        let floor = closed_form(gemm.m, gemm.n, gemm.k / block);
        let dense = closed_form(gemm.m, gemm.n, gemm.k);
        assert!(floor <= planned && planned <= dense, "{what}");
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
