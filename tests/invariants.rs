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
    timing, AccessKind as Direction, Addr, AnalyticalModel, ArrayShape, CoreSim, CycleDemand,
    Dataflow, DemandGenerator, DemandSink, DemandSummary, GemmShape, IdealBandwidthStore,
    MemoryConfig, MemorySummary, OperandKind, OperandMemoryStats, PlanCache, RecordingStore,
    SimConfig, SramSummary,
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
// crates/systolic: the fold-granular planner against a per-address reference
// ---------------------------------------------------------------------------

/// The per-address planner and timing pass the fold-granular ones
/// replaced, kept as the reference: one map lookup per array-edge word,
/// one `Vec<Addr>` entry per fetched word, one event per cycle.
mod reference {
    use super::*;

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
    }

    /// One pass over the per-cycle demand driving all of the above.
    pub struct Pass {
        pub summary: DemandSummary,
        pub ifmap: ReadPlanner,
        pub filter: ReadPlanner,
        pub ofmap: WritePlanner,
        pub repeats: [RepeatLookup; 3],
    }

    impl Pass {
        pub fn new(memory: &MemoryConfig) -> Self {
            let lookup = || RepeatLookup::new(memory.sram_row_words, memory.sram_row_buffers);
            Pass {
                summary: DemandSummary::default(),
                ifmap: ReadPlanner::new(OperandKind::Ifmap, memory.ifmap_words),
                filter: ReadPlanner::new(OperandKind::Filter, memory.filter_words),
                ofmap: WritePlanner::new(memory.ofmap_words),
                repeats: [lookup(), lookup(), lookup()],
            }
        }

        pub fn sram(&self) -> SramSummary {
            SramSummary {
                ifmap_reads: self.summary.ifmap_reads,
                filter_reads: self.summary.filter_reads,
                ofmap_reads: self.summary.ofmap_reads,
                ofmap_writes: self.summary.ofmap_writes,
                ifmap_repeat_reads: self.repeats[0].repeats,
                filter_repeat_reads: self.repeats[1].repeats,
                ofmap_repeat_accesses: self.repeats[2].repeats,
            }
        }
    }

    impl DemandSink for Pass {
        fn on_cycle(&mut self, d: &CycleDemand) {
            self.summary.absorb(d);
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

        let compute_cycles = pass.summary.cycles;
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
            DemandGenerator::new(config.array, config.dataflow, gemm).run(&mut pass);
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
