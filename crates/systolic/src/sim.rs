//! Single-core planning and single-GEMM simulation.
//!
//! [`CoreSim`] is a planner: it walks a dataflow's fold descriptors once,
//! feeding the double-buffer planners, and returns a [`PlannedLayer`]
//! that can be timed against any [`BackingStore`]
//! ([`PlannedLayer::report`]). Topologies are run by the integration
//! crate's engine (`ScaleSim`), whose compute stage plans through here.
//!
//! Planning costs `O(folds)`: the fetch and drain plans per fold (see
//! [`crate::buffer`]). Planning does not walk the SRAM open-row lookups:
//! [`PlannedLayer::sram`] walks the three [`RepeatLookup`]s on its first
//! call (only the energy stage asks) and keeps the counts with the plan.
//! A [`PlanCache`] memoizes [`PlannedLayer`]s by `(array, dataflow, GEMM,
//! scratchpad geometry)`, so topologies that repeat a layer shape (every
//! CNN/ViT) plan it once, re-time it cheaply against any backing store
//! and walk its open rows at most once.

use crate::buffer::{
    timing, BackingStore, IdealBandwidthStore, ReadPlanner, TimingInputs, WritePlanner,
};
use crate::config::{ArrayShape, Dataflow, SimConfig};
use crate::dataflow::DemandGenerator;
use crate::demand::{DemandSummary, EdgeStream, Stream};
use crate::fasthash::FastHasher;
use crate::operand::{Addr, OperandKind};
use crate::report::{ComputeSummary, LayerReport, SramSummary};
use crate::topology::GemmShape;
use scalesim_obs as obs;
use std::collections::{HashMap, HashSet};
use std::hash::BuildHasherDefault;
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};

/// Tracks "repeated" SRAM accesses: an access that falls in a currently
/// open SRAM row costs much less energy than a random one (paper §VII-C).
///
/// The lookup models `sram_row_buffers` open rows per SRAM (rounded up to
/// a power of two); an access maps to buffer `(addr / row_words) % buffers`
/// and is *repeated* when that buffer already holds its row.
///
/// Planning does not walk these lookups: [`PlannedLayer::sram`] walks
/// three of them (ifmap, filter, ofmap) over a plan's folds on its first
/// call, which only the energy stage makes, once per cached plan.
///
/// # Walking a stream in `O(lanes × a few periods + buffers)`, a run in `O(1)`
///
/// [`walk`](Self::walk) counts exactly what probing every word would:
///
/// - **Band and period.** In a stream's band each step
///   touches the step before it moved by `step_stride`; after the fewest
///   steps `P` with `P·step_stride = D·row_words`, they have moved by `D`
///   whole rows.
/// - **Why periods repeat.** The table is direct-mapped, so moving every
///   row by `D` only renames slots (`+D mod buffers`), and an access
///   repeats exactly when the previous access to its slot had its row. If
///   every access of one period finds that predecessor inside the band
///   walked so far (however many periods back), every later period finds
///   the moved copies there and decides the same way.
/// - **Checking it.** Every probe stamps its slot with the clock (one
///   tick per step probed); a period qualifies when none of its probes
///   finds a stamp older than the band. The band's `j` remaining periods
///   then add `j ×` its repeats, and the table is rebuilt in
///   `O(buffers)`: slots move in cycles under `+D`, each taking the moved
///   row of the last skipped period that touched it. The skipped periods
///   touch only slots the band has stamped (each period's slots lie in
///   the union of the earlier ones', moved copies included), so the
///   rebuild need not stamp the slots it writes: a stamp may be older
///   than its slot's last touch, never newer, which only makes a check
///   conservative.
/// - **Row runs.** Lanes one word apart (or on one word) share a row for
///   up to `row_words` lanes: one probe.
/// - **No wrap-around.** Rows move by `D` only if no address wraps
///   through 0, as in every product stream (operand bases plus in-range
///   offsets). Short, band-less and wrapping streams take the per-word
///   loop, as does whatever follows a skip.
/// - **Runs of walks.** The same argument one level up: walks of equal
///   shape and passes, each the one before moved by the same `D` whole
///   rows with no address of either wrapping through 0 (the filter tiles
///   and ofmap streams of consecutive folds), form a *run*. Once one walk
///   of a run finds every slot it probes last stamped inside the run
///   (the oldest stamp the walk replaced is at least the run's first
///   clock), each later walk of the run adds that walk's repeats in
///   `O(1)`. When the run ends, the table is rebuilt once, as after a
///   band skip, from the slots the last walked walk stamped. That rebuild
///   does not stamp either: the added walks touch only slots the run has
///   stamped, and every stamp of an ended run is older than the next
///   run's first clock, rebuilt or not.
/// - **Repeated streams.** `D = 0` is a stream walked again: a walk
///   leaves each slot it touches holding its last row there, so walking
///   the same stream again leaves the table as it was, and from the
///   third walk of such a run on each counts what the second did, stamps
///   or not.
#[derive(Debug, Clone)]
pub struct RepeatLookup {
    row_words: u64,
    /// `log2(row_words)` when the row size is a power of two (the common
    /// configuration): the per-access division in the walk's hot loop
    /// then strength-reduces to a shift.
    row_shift: Option<u32>,
    /// Per slot, its open row and the [`clock`](Self::clock) of its last
    /// probe (side by side: a probe reads and writes both).
    slots: Vec<(u64, u64)>,
    /// Steps probed so far.
    clock: u64,
    /// The last walk's stream and passes, and the rows each walk of its
    /// run moved the one before (from the run's second walk on).
    last: Option<(Stream, usize, Option<i64>)>,
    /// The clock of the run's first step, or once a walk of the run
    /// qualified, of that walk's first step.
    since: u64,
    /// Once a walk of the run qualified: the repeats each later walk
    /// adds, and the walks added so.
    skip: Option<(u64, u64)>,
    /// [`translate`](Self::translate)'s scratch, kept between calls.
    spare: Vec<(u64, u64)>,
    /// Accesses that hit an open row.
    pub repeats: u64,
}

/// Band words below which walking the band costs less than a skip's
/// `O(buffers)` rebuild.
const MIN_BAND_WORDS: u64 = 512;

impl RepeatLookup {
    /// Creates a lookup with the given row size (words) and row-buffer count.
    pub fn new(row_words: usize, row_buffers: usize) -> Self {
        let buffers = row_buffers.max(1).next_power_of_two();
        let row_words = row_words.max(1) as u64;
        Self {
            row_words,
            row_shift: row_words
                .is_power_of_two()
                .then(|| row_words.trailing_zeros()),
            slots: vec![(u64::MAX, 0); buffers],
            clock: 0,
            last: None,
            since: 0,
            skip: None,
            spare: Vec::new(),
            repeats: 0,
        }
    }

    #[inline]
    fn row(&self, addr: Addr) -> u64 {
        match self.row_shift {
            Some(shift) => addr >> shift,
            None => addr / self.row_words,
        }
    }

    /// Observes every word of `stream` in access order, each step's words
    /// `passes` times over (2 for a read-modify-write stream: the step's
    /// reads, then its writes).
    pub fn walk(&mut self, stream: &Stream, passes: usize) {
        let rows = self.moved(stream, passes);
        if rows.is_none() {
            if let (Some((_, skipped @ 1..)), Some((.., Some(rows)))) = (self.skip, self.last) {
                self.translate(self.since, skipped, rows);
            }
            (self.since, self.skip) = (self.clock + 1, None);
        }
        self.last = Some((*stream, passes, rows));
        if let Some((repeats, skipped)) = &mut self.skip {
            *skipped += 1;
            self.repeats += *repeats;
            return;
        }
        let (before, first) = (self.repeats, self.clock + 1);
        let oldest = self.walk_fresh(stream, passes);
        if rows.is_some_and(|rows| rows == 0 || oldest >= self.since) {
            (self.since, self.skip) = (first, Some((self.repeats - before, 0)));
        }
    }

    /// The whole rows `s` moves the last walk by, when it continues the
    /// run: the same shape and passes, the base moved by whole rows (by
    /// the run's rows from its third walk on) and, unless it moves by
    /// none, no address of either walk wrapping through 0.
    fn moved(&self, s: &Stream, passes: usize) -> Option<i64> {
        let (last, last_passes, last_rows) = self.last?;
        let same = (Stream { base: 0, ..*s }, passes) == (Stream { base: 0, ..last }, last_passes);
        let (row, last_row) = (self.row(s.base), self.row(last.base));
        let whole = s.base - row * self.row_words == last.base - last_row * self.row_words;
        let rows = i64::try_from(row as i128 - last_row as i128).ok()?;
        let run = last_rows.unwrap_or(rows) == rows;
        let fit = rows == 0 || fits(s) && fits(&last);
        (same && whole && run && fit).then_some(rows)
    }

    /// `stream`'s band steps, period and rows moved per period, when the
    /// band holds enough whole periods to be worth checking and no
    /// address of the stream wraps through 0.
    fn band(&self, s: &Stream) -> Option<(Range<u64>, u64, i64)> {
        let steps = s.band();
        let band_steps = steps.end - steps.start;
        if band_steps * s.lanes as u64 <= MIN_BAND_WORDS || !fits(s) {
            return None;
        }
        let (row_words, stride) = (self.row_words as i128, s.step_stride as i64 as i128);
        let residue = stride.rem_euclid(row_words) as u64;
        let period = self.row_words / gcd(residue, self.row_words);
        if band_steps < 3 * period {
            return None;
        }
        let rows = i64::try_from(period as i128 * stride / row_words).ok()?;
        Some((steps, period, rows))
    }

    /// The per-word loop over `steps` of `stream`; the oldest stamp it
    /// probed.
    fn walk_words(&mut self, stream: &Stream, passes: usize, steps: Range<u64>) -> u64 {
        let mut oldest = u64::MAX;
        for step in steps {
            self.clock += 1;
            let (first, words, delta) = stream.step_span(step);
            for _ in 0..passes {
                let (mut addr, mut left) = (first, words);
                while left > 0 {
                    // Lanes one word apart (or on one word): a row run.
                    let here = match delta {
                        0 => left,
                        1 => left.min(self.row_words - addr % self.row_words),
                        _ => 1,
                    };
                    oldest = oldest.min(self.probe(addr, here));
                    (addr, left) = (addr.wrapping_add(here * delta), left - here);
                }
            }
        }
        oldest
    }

    /// One walk of `s`, every step probed except, in a band, the whole
    /// periods after one that qualified (see [`RepeatLookup`]); the
    /// oldest stamp it probed.
    fn walk_fresh(&mut self, s: &Stream, passes: usize) -> u64 {
        let Some((band, period, rows)) = self.band(s) else {
            return self.walk_words(s, passes, 0..s.steps());
        };
        let in_band = self.clock + band.start + 1;
        let mut oldest = self.walk_words(s, passes, 0..band.start);
        let mut step = band.start;
        // Once fewer whole periods remain than have been checked, a skip
        // would save less than checking costs: the rest is one loop.
        while (band.end - step) / period >= (step - band.start) / period {
            let (since, repeats) = (self.clock + 1, self.repeats);
            let found = self.walk_words(s, passes, step..step + period);
            (oldest, step) = (oldest.min(found), step + period);
            if found >= in_band {
                let periods = (band.end - step) / period;
                self.repeats += periods * (self.repeats - repeats);
                self.translate(since, periods, rows);
                step += periods * period;
                break;
            }
        }
        oldest.min(self.walk_words(s, passes, step..s.steps()))
    }

    /// Observes `words` accesses to the row of `addr` and stamps its slot
    /// with the clock; the slot's previous stamp.
    #[inline]
    fn probe(&mut self, addr: Addr, words: u64) -> u64 {
        let row = self.row(addr);
        let slot = row as usize & (self.slots.len() - 1);
        let (open, stamp) = &mut self.slots[slot];
        self.repeats += words - u64::from(*open != row);
        *open = row;
        std::mem::replace(stamp, self.clock)
    }

    /// The table after `periods` more band periods (or walks), each the
    /// copy of the one whose slots carry stamps `>= since`, moved by
    /// `rows` rows.
    fn translate(&mut self, since: u64, periods: u64, rows: i64) {
        let mask = self.slots.len() - 1;
        let shift = rows as usize & mask;
        // Cycles and their lengths are powers of two, like the slot count.
        let cycles = gcd(shift as u64, mask as u64 + 1) as usize;
        let len = (mask + 1) / cycles;
        let (reach, back) = (periods.min(len as u64), periods as usize & (len - 1));
        // The slots before the rebuild, their stamps then overwritten by
        // each cycle's gaps.
        let mut old = std::mem::take(&mut self.spare);
        old.clone_from(&self.slots);
        for cycle in 0..cycles {
            let slot = |i: usize| (cycle + (i & (len - 1)) * shift) & mask;
            // Steps forward along the cycle to the nearest touched slot.
            let mut gap = u64::MAX;
            for i in (0..2 * len).rev() {
                let touched = self.slots[slot(i)].1 >= since;
                gap = if touched { 0 } else { gap.saturating_add(1) };
                if i < len {
                    old[slot(i)].1 = gap;
                }
            }
            // Slot `i` last held the row the period left `periods - d`
            // cycle steps behind it, for the smallest `d` that touched.
            for i in 0..len {
                let from = i.wrapping_sub(back) & (len - 1);
                let d = old[slot(from)].1;
                if d < reach {
                    let moved = (periods - d).wrapping_mul(rows as u64);
                    self.slots[slot(i)].0 = old[slot(from + d as usize)].0.wrapping_add(moved);
                }
            }
        }
        self.spare = old;
    }
}

/// Whether no address of `s` wraps through 0 (its corners fit a `u64`),
/// so moving it by whole rows moves each of its rows.
fn fits(s: &Stream) -> bool {
    let span = |n: usize, stride: u64| n.saturating_sub(1) as i128 * stride as i64 as i128;
    let (lanes, steps) = (span(s.lanes, s.lane_stride), span(s.len, s.step_stride));
    let low = s.base as i128 + lanes.min(0) + steps.min(0);
    u64::try_from(low).is_ok() && u64::try_from(low + lanes.abs() + steps.abs()).is_ok()
}

/// Greatest common divisor (`gcd(0, b) = b`).
fn gcd(mut a: u64, mut b: u64) -> u64 {
    while b != 0 {
        (a, b) = (b, a % b);
    }
    a
}

/// A planned layer: everything needed to time it against any backing store.
#[derive(Debug, Clone)]
pub struct PlannedLayer {
    /// Timing inputs for [`timing`].
    pub inputs: TimingInputs,
    /// Demand totals.
    pub summary: DemandSummary,
    /// Compute summary (stall-free).
    pub compute: ComputeSummary,
    /// What the plan was built from, and so what [`sram`](Self::sram)
    /// walks.
    key: PlanKey,
    /// The ifmap, filter and ofmap open-row repeats, walked on the first
    /// [`sram`](Self::sram) call.
    repeats: OnceLock<[u64; 3]>,
}

/// Plans are equal whether or not either has walked its open rows yet.
impl PartialEq for PlannedLayer {
    fn eq(&self, other: &Self) -> bool {
        (self.key, self.summary, self.compute) == (other.key, other.summary, other.compute)
            && self.inputs == other.inputs
    }
}

impl PlannedLayer {
    /// The SRAM access profile (paper §VII-D). The read and write counts
    /// come with the plan; the open-row repeats are walked over the fold
    /// streams on the first call and kept with the plan, so a cached
    /// plan is walked at most once, whoever asks. Concurrent first
    /// callers wait for the one walk.
    pub fn sram(&self) -> SramSummary {
        self.sram_by(walk_repeats)
    }

    /// [`sram`](Self::sram), walking with `walk` if the plan has not
    /// walked yet.
    fn sram_by(&self, walk: impl FnOnce(&PlanKey) -> [u64; 3]) -> SramSummary {
        let [ifmap, filter, ofmap] = *self.repeats.get_or_init(|| walk(&self.key));
        let demand = &self.summary;
        SramSummary {
            ifmap_reads: demand.ifmap_reads,
            filter_reads: demand.filter_reads,
            ofmap_reads: demand.ofmap_reads,
            ofmap_writes: demand.ofmap_writes,
            ifmap_repeat_reads: ifmap,
            filter_repeat_reads: filter,
            ofmap_repeat_accesses: ofmap,
        }
    }

    /// Bytes this plan keeps resident while cached: the struct itself
    /// plus every heap vector of its three plans (segments, chunk and
    /// burst tables, needs, miss runs) — `O(folds + chunks)`, whatever
    /// the layer's word count.
    pub fn resident_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
            + self.inputs.ifmap.heap_bytes()
            + self.inputs.filter.heap_bytes()
            + self.inputs.ofmap.heap_bytes()
    }

    /// Times this plan against `store` and assembles the layer's report.
    pub fn report(&self, name: &str, gemm: GemmShape, store: &mut dyn BackingStore) -> LayerReport {
        LayerReport {
            name: name.to_string(),
            gemm,
            compute: self.compute,
            memory: timing(&self.inputs, store),
        }
    }
}

/// The open-row repeats of the ifmap, filter and ofmap streams planned
/// under `key`: one walk of three [`RepeatLookup`]s over the folds.
fn walk_repeats(key: &PlanKey) -> [u64; 3] {
    let gen = DemandGenerator::new(key.array, key.dataflow, key.gemm);
    let folds = gen.geometry().num_folds() as u64;
    let _span = obs::span(obs::Category::Cache, "repeats").arg("folds", folds);
    let [mut ifmap, mut filter, mut ofmap] =
        [(); 3].map(|()| RepeatLookup::new(key.sram_row_words, key.sram_row_buffers));
    for fold in gen.folds() {
        ifmap.walk(&fold.ifmap.stream, 1);
        filter.walk(&fold.filter.stream, 1);
        ofmap.walk(&fold.ofmap.stream, if fold.accumulate { 2 } else { 1 });
    }
    [ifmap.repeats, filter.repeats, ofmap.repeats]
}

/// Cache key: everything the fetch plans depend on. Deliberately excludes
/// the backing-store bandwidth — plans describe *what* to fetch and
/// *when it is needed*; timing against a store happens per replay.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PlanKey {
    array: ArrayShape,
    dataflow: Dataflow,
    gemm: GemmShape,
    ifmap_words: usize,
    filter_words: usize,
    ofmap_words: usize,
    sram_row_words: usize,
    sram_row_buffers: usize,
}

impl PlanKey {
    /// Builds the key for planning `gemm` under `config`.
    pub(crate) fn new(config: &SimConfig, gemm: GemmShape) -> Self {
        let mem = &config.memory;
        Self {
            array: config.array,
            dataflow: config.dataflow,
            gemm,
            ifmap_words: mem.ifmap_words,
            filter_words: mem.filter_words,
            ofmap_words: mem.ofmap_words,
            sram_row_words: mem.sram_row_words,
            sram_row_buffers: mem.sram_row_buffers,
        }
    }
}

/// One cached plan plus the bookkeeping the eviction policy needs.
#[derive(Debug)]
struct CacheEntry {
    plan: Arc<PlannedLayer>,
    /// Estimated resident footprint ([`PlannedLayer::resident_bytes`]).
    bytes: usize,
    /// Rebuild-cost density: planning nanoseconds per resident byte.
    value: f64,
    /// GreedyDual priority: `clock + value` at the last touch. The
    /// entry with the smallest priority is the cheapest to lose —
    /// coldest, cheapest to rebuild, and/or largest.
    priority: f64,
}

/// The lock-guarded half of a [`PlanCache`].
#[derive(Debug, Default)]
struct CacheInner {
    map: HashMap<PlanKey, CacheEntry, BuildHasherDefault<FastHasher>>,
    /// Keys being planned right now; other callers wait for them.
    planning: HashSet<PlanKey, BuildHasherDefault<FastHasher>>,
    /// Sum of `bytes` over all entries.
    resident_bytes: usize,
    /// GreedyDual clock: rises to each victim's priority on eviction, so
    /// recency and retained value stay comparable without timestamps.
    clock: f64,
}

/// Thread-safe memoization of [`PlannedLayer`]s by [`PlanKey`].
///
/// CNN and transformer topologies repeat layer shapes heavily (ResNet-18
/// lowers 21 layers to ~10 distinct GEMMs; every ViT encoder block repeats
/// the same four), so planning each distinct shape once and re-timing the
/// shared plan is a large end-to-end win. Plans are returned as
/// [`Arc`]s — replaying one against a [`BackingStore`] never mutates it.
///
/// The cache has one bound: a budget on resident plan bytes
/// ([`PlannedLayer::resident_bytes`] — kilobytes per plan, `O(folds)`).
/// Past it the cache evicts cost-aware — GreedyDual-Size: each entry
/// carries a priority of `clock + rebuild_nanos / bytes`, refreshed on
/// every hit; eviction removes the minimum-priority entry (coldest,
/// cheapest to re-plan, largest) and raises the clock to its priority,
/// aging the survivors. Every shipped workload fits the default budget
/// thousands of times over and never evicts; long-lived servers
/// sweeping many shapes keep the hottest, most expensive plans within a
/// predictable footprint. Eviction only ever costs re-planning, never
/// correctness.
#[derive(Debug)]
pub struct PlanCache {
    inner: Mutex<CacheInner>,
    /// Signalled whenever a key leaves `planning`.
    planned: Condvar,
    budget_bytes: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

impl Default for PlanCache {
    fn default() -> Self {
        Self::with_budget(Self::DEFAULT_BUDGET_BYTES)
    }
}

impl PlanCache {
    /// Resident-byte budget of [`PlanCache::new`]: 512 MiB, some forty
    /// times the largest plan set any shipped workload keeps (12.3 MB,
    /// llama-7b decode), so only a long-lived server ever evicts.
    pub(crate) const DEFAULT_BUDGET_BYTES: usize = 512 << 20;

    /// Creates an empty cache with the default budget.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty cache bounded by `budget_bytes` of resident
    /// plans: after every insert, minimum-priority entries are evicted
    /// until the estimated footprint is back within the budget. A single
    /// plan larger than the whole budget is still returned to the caller
    /// but not retained.
    pub fn with_budget(budget_bytes: usize) -> Self {
        Self {
            inner: Mutex::new(CacheInner::default()),
            planned: Condvar::new(),
            budget_bytes: budget_bytes.max(1),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// The resident-byte budget this cache evicts down to.
    pub fn budget_bytes(&self) -> usize {
        self.budget_bytes
    }

    /// Returns the cached plan for `key`, or plans it with `plan` and
    /// caches the result.
    ///
    /// A key is planned once at a time (planning happens outside the
    /// lock): callers missing on a key another caller is planning wait
    /// for that plan instead of building a copy of their own.
    pub(crate) fn get_or_insert_with(
        &self,
        key: PlanKey,
        plan: impl FnOnce() -> PlannedLayer,
    ) -> Arc<PlannedLayer> {
        let mut inner = self.lock_inner();
        loop {
            let clock = inner.clock;
            if let Some(entry) = inner.map.get_mut(&key) {
                self.hits.fetch_add(1, Ordering::Relaxed);
                obs::instant(obs::Category::Cache, "hit", &[]);
                entry.priority = clock + entry.value;
                return Arc::clone(&entry.plan);
            }
            if inner.planning.insert(key) {
                break;
            }
            inner = self.planned.wait(inner).unwrap_or_else(|e| e.into_inner());
        }
        drop(inner);
        // Unmarks the key however planning ends, a panic included.
        let _planning = Planning { cache: self, key };
        self.misses.fetch_add(1, Ordering::Relaxed);
        let started = std::time::Instant::now();
        let planned = Arc::new(plan());
        obs::complete_since(
            obs::Category::Cache,
            "plan",
            started,
            &[("bytes", planned.resident_bytes() as u64)],
        );
        let cost_nanos = started.elapsed().as_nanos() as f64;
        let bytes = planned.resident_bytes();
        // Cost per byte, floored so a degenerate zero-cost or zero-byte
        // plan still gets a finite, positive priority increment.
        let value = (cost_nanos / bytes.max(1) as f64).max(f64::MIN_POSITIVE);

        let mut inner = self.lock_inner();
        let priority = inner.clock + value;
        let entry = CacheEntry {
            plan: Arc::clone(&planned),
            bytes,
            value,
            priority,
        };
        inner.map.insert(key, entry);
        inner.resident_bytes += bytes;
        self.evict_to_budget(&mut inner);
        planned
    }

    /// Evicts minimum-priority entries until the budget holds. May
    /// evict an entry inserted in the same call (callers already hold
    /// their `Arc`), which is what keeps the byte budget a hard
    /// invariant even for plans bigger than the whole budget.
    fn evict_to_budget(&self, inner: &mut CacheInner) {
        while inner.resident_bytes > self.budget_bytes {
            let Some(victim_key) = inner
                .map
                .iter()
                .min_by(|a, b| a.1.priority.total_cmp(&b.1.priority))
                .map(|(k, _)| *k)
            else {
                break;
            };
            let victim = inner.map.remove(&victim_key).expect("key from iteration");
            inner.resident_bytes -= victim.bytes;
            inner.clock = inner.clock.max(victim.priority);
            self.evictions.fetch_add(1, Ordering::Relaxed);
            obs::instant(
                obs::Category::Cache,
                "evict",
                &[("bytes", victim.bytes as u64)],
            );
        }
    }

    /// Locks the cache state, recovering from poisoning. Entries only
    /// ever hold fully-planned `Arc<PlannedLayer>` values and are
    /// mutated by whole-entry insert/remove (with `resident_bytes`
    /// adjusted under the same lock), so a panic while the lock was held
    /// cannot leave it logically inconsistent — and the cache is shared
    /// across requests in serve mode, where a caught per-request panic
    /// must not wedge every later request on a poisoned lock.
    fn lock_inner(&self) -> std::sync::MutexGuard<'_, CacheInner> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Cache hits so far.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Cache misses (i.e. plans actually computed) so far.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Entries evicted by the cost-aware policy so far.
    pub(crate) fn evictions(&self) -> u64 {
        self.evictions.load(Ordering::Relaxed)
    }

    /// The cache counters bundled up for end-of-run summaries (e.g. how
    /// much planning a design-space sweep shared across its grid
    /// points). Each counter is read independently, so a snapshot taken
    /// while planning is still in flight may be momentarily inconsistent
    /// (hits + misses need not equal lookups observed elsewhere); read it
    /// after the runs complete.
    pub fn stats(&self) -> PlanCacheStats {
        let (plans, resident_bytes) = {
            let inner = self.lock_inner();
            (inner.map.len(), inner.resident_bytes)
        };
        PlanCacheStats {
            hits: self.hits(),
            misses: self.misses(),
            plans,
            evictions: self.evictions(),
            resident_bytes,
        }
    }
}

/// A key marked as being planned in a [`PlanCache`]; dropping it unmarks
/// the key and wakes the callers waiting for it.
struct Planning<'a> {
    cache: &'a PlanCache,
    key: PlanKey,
}

impl Drop for Planning<'_> {
    fn drop(&mut self) {
        self.cache.lock_inner().planning.remove(&self.key);
        self.cache.planned.notify_all();
    }
}

/// Snapshot of a [`PlanCache`]'s counters (see [`PlanCache::stats`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlanCacheStats {
    /// Lookups served from the cache.
    pub hits: u64,
    /// Lookups that had to plan (distinct work actually done).
    pub misses: u64,
    /// Distinct plans currently held.
    pub plans: usize,
    /// Entries evicted by the cost-aware policy.
    pub evictions: u64,
    /// Estimated bytes currently held by cached plans.
    pub resident_bytes: usize,
}

impl std::fmt::Display for PlanCacheStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} hits / {} misses ({} plans held, {} evicted)",
            self.hits, self.misses, self.plans, self.evictions
        )
    }
}

/// Single-core cycle-accurate simulator.
#[derive(Debug, Clone)]
pub struct CoreSim {
    config: SimConfig,
    cache: Option<Arc<PlanCache>>,
}

impl CoreSim {
    /// Creates a simulator from a configuration.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid; use
    /// [`SimConfig::validate`] to check fallibly first.
    pub fn new(config: SimConfig) -> Self {
        config
            .validate()
            .unwrap_or_else(|e| panic!("invalid simulator configuration: {e}"));
        Self {
            config,
            cache: None,
        }
    }

    /// Attaches a shared plan cache; repeated GEMM shapes are planned once
    /// across every simulator holding the same cache.
    pub fn with_plan_cache(mut self, cache: Arc<PlanCache>) -> Self {
        self.cache = Some(cache);
        self
    }

    /// Runs the planning pass: one walk over the fold descriptors
    /// producing the fetch plans and demand totals for all three
    /// operands at once. The SRAM open-row repeats are left to
    /// [`PlannedLayer::sram`].
    pub fn plan_gemm(&self, gemm: GemmShape) -> PlannedLayer {
        let gen = DemandGenerator::new(self.config.array, self.config.dataflow, gemm);
        let mem = &self.config.memory;
        let mut ifmap = ReadPlanner::new(OperandKind::Ifmap, mem.ifmap_words);
        let mut filter = ReadPlanner::new(OperandKind::Filter, mem.filter_words);
        let mut ofmap = WritePlanner::new(mem.ofmap_words);
        for fold in gen.folds() {
            let at = |edge: &EdgeStream| fold.start + edge.start;
            ifmap.observe(fold.ifmap.tile, at(&fold.ifmap), &fold.ifmap.stream);
            filter.observe(fold.filter.tile, at(&fold.filter), &fold.filter.stream);
            let (ofmap_at, rmw) = (at(&fold.ofmap), fold.accumulate);
            ofmap.observe(fold.ofmap.tile, ofmap_at, &fold.ofmap.stream, rmw);
        }

        let geom = gen.geometry();
        let summary = gen.summary();
        let cycles = summary.cycles;
        let pes = self.config.array.num_pes() as u64;
        let per_pe_cycle = |count: u64| match cycles {
            0 => 0.0,
            _ => count as f64 / (pes * cycles) as f64,
        };
        PlannedLayer {
            inputs: TimingInputs {
                ifmap: ifmap.finish(),
                filter: filter.finish(),
                ofmap: ofmap.finish(),
                compute_cycles: cycles,
            },
            summary,
            compute: ComputeSummary {
                total_compute_cycles: cycles,
                folds: geom.num_folds() as u64,
                macs: summary.macs,
                utilization: per_pe_cycle(summary.macs),
                mapping_efficiency: per_pe_cycle(geom.total_active_pe_cycles()),
            },
            key: PlanKey::new(&self.config, gemm),
            repeats: OnceLock::new(),
        }
    }

    /// Plans through the attached [`PlanCache`] when one is present,
    /// otherwise plans directly. This is what the simulation entry points
    /// use; call it to share plans across repeated shapes.
    pub fn plan_gemm_shared(&self, gemm: GemmShape) -> Arc<PlannedLayer> {
        match &self.cache {
            Some(cache) => {
                cache.get_or_insert_with(PlanKey::new(&self.config, gemm), || self.plan_gemm(gemm))
            }
            None => Arc::new(self.plan_gemm(gemm)),
        }
    }

    /// Simulates a GEMM with SCALE-Sim v2's ideal fixed-bandwidth memory.
    pub fn simulate_gemm(&self, gemm: GemmShape) -> LayerReport {
        let mut store = IdealBandwidthStore::new(self.config.memory.dram_bandwidth);
        self.plan_gemm_shared(gemm).report("gemm", gemm, &mut store)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{ArrayShape, Dataflow, MemoryConfig};

    fn sim(df: Dataflow) -> CoreSim {
        CoreSim::new(
            SimConfig::builder()
                .array(ArrayShape::new(8, 8))
                .dataflow(df)
                .build(),
        )
    }

    #[test]
    fn plan_cache_plans_a_key_once_at_a_time() {
        // A second caller arriving while the first still plans the key
        // waits for that plan instead of building its own copy.
        let (cache, s) = (PlanCache::new(), sim(Dataflow::OutputStationary));
        let gemm = GemmShape::new(8, 8, 8);
        let key = PlanKey::new(&s.config, gemm);
        let (started, planning) = std::sync::mpsc::channel();
        let (release, released) = std::sync::mpsc::channel::<()>();
        std::thread::scope(|scope| {
            let first = scope.spawn(|| {
                cache.get_or_insert_with(key, move || {
                    started.send(()).expect("the test waits for this");
                    released.recv().expect("the test releases the plan");
                    s.plan_gemm(gemm)
                })
            });
            planning.recv().expect("the first caller is planning");
            let second = scope.spawn(|| cache.get_or_insert_with(key, || panic!("planned twice")));
            release.send(()).expect("the first caller waits for this");
            let (a, b) = (first.join().unwrap(), second.join().unwrap());
            assert!(Arc::ptr_eq(&a, &b), "both callers get the one plan");
        });
        assert_eq!((cache.misses(), cache.hits()), (1, 1));
    }

    #[test]
    fn plan_cache_survives_a_panicking_plan() {
        // A plan that panics unmarks its key: the next caller plans it
        // instead of waiting forever.
        let (cache, s) = (PlanCache::new(), sim(Dataflow::OutputStationary));
        let gemm = GemmShape::new(8, 8, 8);
        let key = PlanKey::new(&s.config, gemm);
        let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            cache.get_or_insert_with(key, || panic!("injected while planning"))
        }));
        assert!(panicked.is_err());
        let plan = cache.get_or_insert_with(key, || s.plan_gemm(gemm));
        assert_eq!(*plan, s.plan_gemm(gemm));
        assert_eq!((cache.misses(), cache.stats().plans), (2, 1));
    }

    #[test]
    fn plan_cache_recovers_from_a_poisoned_lock() {
        // A panic while the map lock is held (e.g. a caught per-request
        // panic in serve mode) must not wedge the shared cache: every
        // operation recovers the lock instead of panicking forever.
        let cache = PlanCache::new();
        let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _guard = cache.inner.lock().unwrap();
            panic!("injected while holding the plan cache lock");
        }));
        assert!(
            cache.inner.is_poisoned(),
            "panic above must poison the lock"
        );
        assert_eq!(cache.stats().plans, 0);
        let s = sim(Dataflow::OutputStationary);
        let key = PlanKey::new(&s.config, GemmShape::new(8, 8, 8));
        let planned = s.plan_gemm(GemmShape::new(8, 8, 8));
        let bytes = planned.resident_bytes();
        cache.get_or_insert_with(key, || planned);
        assert_eq!(
            cache.stats().plans,
            1,
            "cache keeps working after poisoning"
        );
        // The stats stay coherent through recovery: the resident-bytes
        // gauge tracks the surviving entry exactly and the counters
        // reflect the one miss.
        let stats = cache.stats();
        assert_eq!(stats.resident_bytes, bytes);
        assert_eq!((stats.hits, stats.misses, stats.plans), (0, 1, 1));
    }

    #[test]
    fn report_is_consistent_across_dataflows() {
        let gemm = GemmShape::new(32, 32, 32);
        for df in Dataflow::ALL {
            let r = sim(df).simulate_gemm(gemm);
            assert_eq!(r.compute.macs, gemm.macs(), "{df}");
            assert!(r.compute.utilization > 0.0 && r.compute.utilization <= 1.0);
            assert!(r.compute.mapping_efficiency > 0.0 && r.compute.mapping_efficiency <= 1.0);
            assert_eq!(
                r.memory.total_cycles,
                r.memory.ramp_up_cycles
                    + r.memory.compute_cycles
                    + r.memory.stall_cycles
                    + r.memory.drain_tail_cycles,
                "{df}: cycle accounting"
            );
            // All final outputs must reach DRAM.
            assert!(
                r.memory.ofmap.dram_writes >= (gemm.m * gemm.n) as u64,
                "{df}"
            );
        }
    }

    #[test]
    fn bigger_bandwidth_never_slower() {
        let gemm = GemmShape::new(64, 48, 64);
        for df in Dataflow::ALL {
            let mut slow_cfg = SimConfig::builder()
                .array(ArrayShape::new(8, 8))
                .dataflow(df)
                .build();
            slow_cfg.memory.dram_bandwidth = 1.0;
            let mut fast_cfg = slow_cfg.clone();
            fast_cfg.memory.dram_bandwidth = 64.0;
            let slow = CoreSim::new(slow_cfg).simulate_gemm(gemm);
            let fast = CoreSim::new(fast_cfg).simulate_gemm(gemm);
            assert!(
                fast.memory.total_cycles <= slow.memory.total_cycles,
                "{df}: more bandwidth must not hurt"
            );
            assert_eq!(
                fast.compute.total_compute_cycles,
                slow.compute.total_compute_cycles
            );
        }
    }

    #[test]
    fn bigger_sram_never_more_dram_traffic() {
        let gemm = GemmShape::new(96, 64, 96);
        let mut small_cfg = SimConfig::builder().array(ArrayShape::new(8, 8)).build();
        small_cfg.memory = MemoryConfig::from_kilobytes(2, 2, 2, 2);
        let mut big_cfg = small_cfg.clone();
        big_cfg.memory = MemoryConfig::from_kilobytes(512, 512, 128, 2);
        let small = CoreSim::new(small_cfg).simulate_gemm(gemm);
        let big = CoreSim::new(big_cfg).simulate_gemm(gemm);
        assert!(big.memory.total_dram_reads() <= small.memory.total_dram_reads());
    }

    #[test]
    fn repeat_lookup_counts_row_hits() {
        let mut rl = RepeatLookup::new(4, 2);
        rl.walk(&Stream::contiguous(0, 4), 1); // row 0: the first opens it, 3 repeat
        assert_eq!(rl.repeats, 3);
        rl.walk(&Stream::contiguous(4, 1), 1); // row 1, the other slot
        rl.walk(&Stream::contiguous(0, 1), 1); // row 0 still open in slot 0
        assert_eq!(rl.repeats, 4);
    }

    #[test]
    fn sram_reads_match_between_summary_and_report() {
        let gemm = GemmShape::new(24, 16, 8);
        let s = sim(Dataflow::WeightStationary);
        let (sram, r) = (s.plan_gemm(gemm).sram(), s.simulate_gemm(gemm));
        // WS: filter reads = K·N prefetches; the ifmap streams once per
        // column fold (N=16 on C=8 → 2 folds), so reads = 2·K·M.
        assert_eq!(sram.filter_reads, (8 * 16) as u64);
        assert_eq!(sram.ifmap_reads, (2 * 8 * 24) as u64);
        let report = (r.memory.ifmap.sram_reads, r.memory.filter.sram_reads);
        assert_eq!((sram.ifmap_reads, sram.filter_reads), report);
        assert!(sram.ifmap_repeat_reads <= sram.ifmap_reads);
    }

    #[test]
    fn planning_leaves_the_open_row_walk_to_sram() {
        let gemm = GemmShape::new(40, 28, 12);
        for df in Dataflow::ALL {
            let cached = sim(df).with_plan_cache(Arc::new(PlanCache::new()));
            let (plain, shared) = (sim(df).plan_gemm(gemm), cached.plan_gemm_shared(gemm));
            let _ = cached.simulate_gemm(gemm); // a hit, timed: no walk either
            assert!(plain.repeats.get().is_none(), "{df}: plan_gemm walked");
            assert!(
                shared.repeats.get().is_none(),
                "{df}: plan_gemm_shared walked"
            );
            let sram = shared.sram();
            let walked = [
                sram.ifmap_repeat_reads,
                sram.filter_repeat_reads,
                sram.ofmap_repeat_accesses,
            ];
            assert_eq!(shared.repeats.get(), Some(&walked), "{df}: the memo");
            assert_eq!(plain, *shared, "{df}: equality ignores the memo");
            assert_eq!(plain.sram(), sram, "{df}");
        }
    }

    #[test]
    fn concurrent_sram_readers_share_one_walk() {
        let plan = sim(Dataflow::OutputStationary).plan_gemm(GemmShape::new(96, 64, 80));
        let walks = AtomicU64::new(0);
        let counted = |key: &PlanKey| {
            walks.fetch_add(1, Ordering::Relaxed);
            walk_repeats(key)
        };
        let start = std::sync::Barrier::new(8);
        let reads: Vec<SramSummary> = std::thread::scope(|scope| {
            let readers: Vec<_> = (0..8)
                .map(|_| {
                    scope.spawn(|| {
                        start.wait();
                        plan.sram_by(counted)
                    })
                })
                .collect();
            readers.into_iter().map(|r| r.join().unwrap()).collect()
        });
        assert_eq!(
            walks.load(Ordering::Relaxed),
            1,
            "one walk for eight readers"
        );
        assert!(reads.iter().all(|r| *r == reads[0]));
        let fresh = sim(Dataflow::OutputStationary).plan_gemm(GemmShape::new(96, 64, 80));
        assert_eq!(fresh.sram(), reads[0]);
        assert!(reads[0].ifmap_repeat_reads > 0 && reads[0].ofmap_repeat_accesses > 0);
    }

    #[test]
    #[should_panic(expected = "invalid simulator configuration")]
    fn invalid_config_panics() {
        let mut cfg = SimConfig::default();
        cfg.memory.dram_bandwidth = -1.0;
        let _ = CoreSim::new(cfg);
    }

    #[test]
    fn plan_cache_hits_on_repeated_shapes() {
        let cache = Arc::new(PlanCache::new());
        let sim = sim(Dataflow::WeightStationary).with_plan_cache(Arc::clone(&cache));
        let gemm = GemmShape::new(32, 24, 16);
        let a = sim.simulate_gemm(gemm);
        let b = sim.simulate_gemm(gemm);
        assert_eq!(a, b);
        assert_eq!(cache.misses(), 1);
        assert_eq!(cache.hits(), 1);
        assert_eq!(cache.stats().plans, 1);
        // A different shape misses.
        let _ = sim.simulate_gemm(GemmShape::new(16, 16, 16));
        assert_eq!(cache.misses(), 2);
        // The snapshot matches the individual counters.
        let stats = cache.stats();
        assert_eq!(
            (stats.hits, stats.misses, stats.plans),
            (cache.hits(), cache.misses(), cache.stats().plans)
        );
        assert_eq!(
            stats.to_string(),
            "1 hits / 2 misses (2 plans held, 0 evicted)"
        );
    }

    #[test]
    fn plan_cache_bounds_its_footprint() {
        let shapes: Vec<_> = (1..=5).map(|n| GemmShape::new(8, 8 * n, 8)).collect();
        let plain = sim(Dataflow::OutputStationary);
        let bytes = |g: &GemmShape| plain.plan_gemm(*g).resident_bytes();
        // Room for the two largest plans, not for all five.
        let budget = 2 * shapes.iter().map(bytes).max().unwrap();
        assert!(budget < shapes.iter().map(bytes).sum());
        let cache = Arc::new(PlanCache::with_budget(budget));
        assert_eq!(cache.budget_bytes(), budget);
        let sim = plain.with_plan_cache(Arc::clone(&cache));
        for gemm in &shapes {
            let _ = sim.plan_gemm_shared(*gemm);
            assert!(cache.stats().resident_bytes <= budget, "the budget is hard");
        }
        assert!(cache.evictions() > 0 && cache.stats().plans < shapes.len());
        // Evicted shapes still re-plan correctly.
        let r = sim.simulate_gemm(GemmShape::new(8, 8, 8));
        assert_eq!(r, sim.simulate_gemm(GemmShape::new(8, 8, 8)));
    }

    /// Deterministic SplitMix64 for the property-style sweeps below (the
    /// build is offline, so no external PRNG crate).
    struct SplitMix64(u64);

    impl SplitMix64 {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }
    }

    /// Property: after *any* operation sequence, the byte budget holds
    /// and the resident-bytes gauge equals the sum over held entries.
    #[test]
    fn plan_cache_budget_is_never_exceeded() {
        let s = sim(Dataflow::WeightStationary);
        // A budget that fits a handful of small plans but not all of the
        // distinct shapes the sweep touches, forcing steady eviction.
        let probe = s.plan_gemm(GemmShape::new(8, 8, 8)).resident_bytes();
        let cache = PlanCache::with_budget(probe * 4);
        let mut rng = SplitMix64(0xB0D6E7);
        for _ in 0..200 {
            let m = 8 * (1 + rng.below(4)) as usize;
            let k = 8 * (1 + rng.below(4)) as usize;
            let n = 8 * (1 + rng.below(4)) as usize;
            let gemm = GemmShape::new(m, k, n);
            let key = PlanKey::new(&s.config, gemm);
            let _ = cache.get_or_insert_with(key, || s.plan_gemm(gemm));
            let stats = cache.stats();
            assert!(
                stats.resident_bytes <= probe * 4,
                "budget exceeded: {} > {}",
                stats.resident_bytes,
                probe * 4
            );
        }
        let stats = cache.stats();
        assert_eq!(
            stats.hits + stats.misses,
            200,
            "every lookup is a hit or a miss"
        );
        assert!(stats.evictions > 0, "this sweep must evict");
        assert_eq!(
            stats.plans as u64 + stats.evictions,
            stats.misses,
            "every planned entry is either held or was evicted: {stats}"
        );
    }

    /// GreedyDual-Size retention: an entry that is expensive to rebuild
    /// and hit on every round survives a stream of cheap one-touch
    /// entries that forces continuous eviction. (A *cheap* hot entry may
    /// legitimately be evicted early — priority is rebuild cost per
    /// byte — so the test pins the expensive-and-hot case, which is the
    /// one the policy exists to protect.)
    #[test]
    fn plan_cache_keeps_the_hot_expensive_entry_under_pressure() {
        let s = sim(Dataflow::OutputStationary);
        let hot_gemm = GemmShape::new(16, 16, 16);
        let hot_key = PlanKey::new(&s.config, hot_gemm);
        // Room for the hot plan and two of the largest cold ones.
        let cold = |n: usize| GemmShape::new(8, 8 * n, 8);
        let bytes = |g| s.plan_gemm(g).resident_bytes();
        let budget = bytes(hot_gemm) + 2 * bytes(cold(20));
        let cache = PlanCache::with_budget(budget);
        // Make the hot entry's measured rebuild cost dominate every cold
        // entry's by orders of magnitude, so the cost-density comparison
        // is deterministic regardless of planner timing noise.
        let _ = cache.get_or_insert_with(hot_key, || {
            std::thread::sleep(std::time::Duration::from_millis(25));
            s.plan_gemm(hot_gemm)
        });
        for n in 1..=20 {
            let cold = cold(n);
            let _ = cache.get_or_insert_with(PlanKey::new(&s.config, cold), || s.plan_gemm(cold));
            // Touch the hot entry every round: its priority is refreshed
            // to clock + value, so eviction always prefers a cold entry.
            let before = cache.misses();
            let _ = cache.get_or_insert_with(hot_key, || s.plan_gemm(hot_gemm));
            assert_eq!(
                cache.misses(),
                before,
                "round {n}: the hot expensive entry must never be evicted"
            );
        }
        assert!(cache.evictions() > 0, "the cold stream must evict");
        assert!(cache.stats().resident_bytes <= budget);
    }

    /// Eviction-stats consistency under a randomized mixed workload on a
    /// tight budget: plans held + evictions == misses.
    #[test]
    fn plan_cache_eviction_stats_stay_consistent() {
        let s = sim(Dataflow::WeightStationary);
        // Room for the smallest four of the ten shapes drawn below.
        let budget = 4 * s.plan_gemm(GemmShape::new(8, 8, 16)).resident_bytes();
        let cache = PlanCache::with_budget(budget);
        let mut rng = SplitMix64(0x5EED);
        for _ in 0..300 {
            let n = 8 * (1 + rng.below(10)) as usize;
            let gemm = GemmShape::new(8, 8, n);
            let key = PlanKey::new(&s.config, gemm);
            let _ = cache.get_or_insert_with(key, || s.plan_gemm(gemm));
        }
        let stats = cache.stats();
        assert_eq!(stats.hits + stats.misses, 300);
        assert_eq!(
            stats.plans as u64 + stats.evictions,
            stats.misses,
            "every miss either stays resident or was evicted: {stats}"
        );
        assert!(stats.evictions > 0 && stats.resident_bytes <= budget);
    }

    #[test]
    fn resident_bytes_follow_folds_not_words() {
        // The same 8×8 grid of folds, each streaming 16× the words.
        for df in Dataflow::ALL {
            let (short, long) = match df {
                Dataflow::OutputStationary => ((64, 64, 16), (64, 64, 256)),
                Dataflow::WeightStationary => ((16, 64, 64), (256, 64, 64)),
                Dataflow::InputStationary => ((64, 16, 64), (64, 256, 64)),
            };
            let plan = |(m, n, k)| sim(df).plan_gemm(GemmShape::new(m, n, k));
            let (short, long) = (plan(short), plan(long));
            assert_eq!(short.compute.folds, long.compute.folds, "{df}");
            assert_eq!(long.summary.macs, 16 * short.summary.macs, "{df}");
            let (small, large) = (short.resident_bytes(), long.resident_bytes());
            assert!(
                small <= large && large <= 2 * small,
                "{df}: {small} B for the short streams, {large} B for the long ones"
            );
        }
    }

    #[test]
    fn cached_and_uncached_reports_agree() {
        let gemm = GemmShape::new(40, 28, 12);
        for df in Dataflow::ALL {
            let plain = sim(df).simulate_gemm(gemm);
            let cached_sim = sim(df).with_plan_cache(Arc::new(PlanCache::new()));
            let warm = cached_sim.simulate_gemm(gemm); // miss
            let hot = cached_sim.simulate_gemm(gemm); // hit
            assert_eq!(plain, warm, "{df}");
            assert_eq!(plain, hot, "{df}");
        }
    }
}
