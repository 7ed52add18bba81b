//! Double-buffered scratchpad modeling and the backing-store interface.
//!
//! Each read operand (ifmap, filter) owns a double-buffered SRAM of capacity
//! `S` words: while one half (the *active* buffer) feeds the array, the
//! other half is prefetched from the backing store. The ofmap SRAM is a
//! write-back buffer with FIFO eviction: overwrites of resident partial sums
//! coalesce on-chip, evictions drain to the backing store in half-buffer
//! bursts.
//!
//! The model runs in two passes:
//!
//! 1. **Planning** ([`ReadPlanner`], [`WritePlanner`]) consumes one
//!    [`Stream`] descriptor per fold and operand. Where a tile's words last
//!    entered the SRAM is a piecewise-affine function of stream position,
//!    and the residency horizon only moves when words enter, so a stream of
//!    `n` words is decided in `O(index runs + chunk crossings)`: wholly
//!    first-touch, wholly resident, wholly evicted, or split where it
//!    straddles the horizon. The plans hold the backing-store traffic as
//!    [`Segment`]s cut at half-buffer boundaries — `O(folds + chunks)`
//!    memory — plus one *need* per prefetch chunk, one cycle per drain
//!    burst and the read-modify-write misses as per-fold runs.
//! 2. **Timing** ([`timing`]) merges those events in cycle order against a
//!    [`BackingStore`], scheduling one-ahead chunk prefetches, accumulating
//!    stall cycles whenever data is needed before its fetch completes, and
//!    computing ramp-up/drain tails. This is where SCALE-Sim v2's
//!    ideal-bandwidth behaviour and v3's DRAM-backed behaviour (§V-B step 3)
//!    diverge — they implement the same trait. Against a store that prices
//!    a fetch by its word count ([`IdealBandwidthStore`]) a miss stream's
//!    run of equal-width cycles takes three calls, so the pass follows the
//!    events; a store that sees each transaction gets one per miss cycle.
//!
//! A store sees each transaction as a [`Batch`] of segments; only a store
//! that needs real addresses (DRAM line coalescing) expands one, into a
//! scratch buffer, a transaction at a time.

use crate::demand::{Batch, Segment, Stream};
use crate::operand::OperandKind;
use crate::report::{MemorySummary, OperandMemoryStats};
use crate::trace::{AccessKind, TraceRecorder};

/// Timing interface to the memory behind the scratchpads.
///
/// Implementations return the cycle at which a batch transaction completes,
/// given that it cannot be issued before `earliest`. Implementations are
/// expected to serialize transactions per operand interface (reads) and may
/// model shared structures (channels, queues) internally.
pub trait BackingStore {
    /// Fetches `batch` into the scratchpad of `op`. Returns completion cycle.
    fn fetch(&mut self, op: OperandKind, earliest: u64, batch: Batch<'_>) -> u64;
    /// Drains `batch` from the scratchpad of `op`. Returns completion cycle.
    fn drain(&mut self, op: OperandKind, earliest: u64, batch: Batch<'_>) -> u64;

    /// Prices a fetch by its word count alone, if the store can: returns
    /// what [`fetch`](Self::fetch) of any `words`-word batch would, with
    /// the same effect on the store, or `None` (the default, with no
    /// effect) to see every transaction; [`timing`] then asks no more in
    /// that pass. Of a run of equal-width read-modify-write misses, each
    /// issued after the one before completed, [`timing`] skips the middle
    /// calls: an answering store must price such a fetch the same at any
    /// cycle, and the run's last call must leave it as the skipped calls
    /// would have.
    fn fetch_words(&mut self, _op: OperandKind, _earliest: u64, _words: u64) -> Option<u64> {
        None
    }
}

/// SCALE-Sim v2's idealized memory: a fixed bandwidth per operand
/// interface, words per cycle, with no contention between interfaces.
#[derive(Debug, Clone)]
pub struct IdealBandwidthStore {
    bandwidth: f64,
    busy_until: [u64; 4], // ifmap, filter, ofmap-read, ofmap-write
}

impl IdealBandwidthStore {
    /// Creates a store with the given per-interface bandwidth (words/cycle).
    ///
    /// # Panics
    ///
    /// Panics if `bandwidth` is not positive.
    pub fn new(bandwidth: f64) -> Self {
        assert!(bandwidth > 0.0, "bandwidth must be positive");
        Self {
            bandwidth,
            busy_until: [0; 4],
        }
    }

    fn lane(op: OperandKind, kind: AccessKind) -> usize {
        match (op, kind) {
            (OperandKind::Ifmap, _) => 0,
            (OperandKind::Filter, _) => 1,
            (OperandKind::Ofmap, AccessKind::Read) => 2,
            (OperandKind::Ofmap, AccessKind::Write) => 3,
        }
    }

    fn transfer(&mut self, op: OperandKind, kind: AccessKind, earliest: u64, words: u64) -> u64 {
        let lane = Self::lane(op, kind);
        let start = earliest.max(self.busy_until[lane]);
        let dur = (words as f64 / self.bandwidth).ceil() as u64;
        let done = start + dur.max(if words > 0 { 1 } else { 0 });
        self.busy_until[lane] = done;
        done
    }
}

impl BackingStore for IdealBandwidthStore {
    fn fetch(&mut self, op: OperandKind, earliest: u64, batch: Batch<'_>) -> u64 {
        self.transfer(op, AccessKind::Read, earliest, batch.words())
    }

    fn drain(&mut self, op: OperandKind, earliest: u64, batch: Batch<'_>) -> u64 {
        self.transfer(op, AccessKind::Write, earliest, batch.words())
    }

    fn fetch_words(&mut self, op: OperandKind, earliest: u64, words: u64) -> Option<u64> {
        Some(self.transfer(op, AccessKind::Read, earliest, words))
    }
}

/// Decorator that records every transaction into a [`TraceRecorder`]
/// while delegating timing to the inner store.
#[derive(Debug)]
pub struct RecordingStore<S> {
    inner: S,
    trace: TraceRecorder,
}

impl<S: BackingStore> RecordingStore<S> {
    /// Wraps `inner`, recording all transactions.
    pub fn new(inner: S) -> Self {
        Self {
            inner,
            trace: TraceRecorder::new(),
        }
    }

    /// Read access to the collected trace.
    pub fn trace(&self) -> &TraceRecorder {
        &self.trace
    }

    /// Consumes the decorator, returning the trace.
    pub fn into_trace(self) -> TraceRecorder {
        self.trace
    }
}

impl<S: BackingStore> BackingStore for RecordingStore<S> {
    fn fetch(&mut self, op: OperandKind, earliest: u64, batch: Batch<'_>) -> u64 {
        let done = self.inner.fetch(op, earliest, batch);
        self.trace
            .record(earliest, done, op, AccessKind::Read, batch);
        done
    }

    fn drain(&mut self, op: OperandKind, earliest: u64, batch: Batch<'_>) -> u64 {
        let done = self.inner.drain(op, earliest, batch);
        self.trace
            .record(earliest, done, op, AccessKind::Write, batch);
        done
    }
}

// ---------------------------------------------------------------------------
// Planning pass
// ---------------------------------------------------------------------------

/// A word sequence held as stream segments, cut at every multiple of
/// `block` words so that each block is a slice of whole segments.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Sequence {
    block: u64,
    words: u64,
    segments: Vec<Segment>,
    /// Index in `segments` of each block's first segment.
    starts: Vec<usize>,
}

impl Sequence {
    fn new(block: usize) -> Self {
        Self {
            block: block as u64,
            words: 0,
            segments: Vec::new(),
            starts: Vec::new(),
        }
    }

    /// Appends positions `[from, from + len)` of `stream`.
    fn push(&mut self, stream: &Stream, mut from: u64, mut len: u64) {
        while len > 0 {
            let used = self.words % self.block;
            let take = len.min(self.block - used);
            if used == 0 {
                self.starts.push(self.segments.len());
            }
            self.segments.push(Segment {
                stream: *stream,
                from,
                len: take,
            });
            self.words += take;
            from += take;
            len -= take;
        }
    }

    fn block(&self, j: usize) -> &[Segment] {
        let end = self.starts.get(j + 1).copied();
        &self.segments[self.starts[j]..end.unwrap_or(self.segments.len())]
    }

    /// Cuts the sequence after its first `words` words; returns the index
    /// of the segment that now begins there.
    fn cut_at(&mut self, words: u64) -> usize {
        let (mut i, mut at) = (self.segments.len(), self.words);
        while at > words {
            i -= 1;
            at -= self.segments[i].len;
        }
        if at == words {
            return i;
        }
        let head = words - at;
        let whole = self.segments[i];
        self.segments[i].len = head;
        let rest = Segment {
            from: whole.from + head,
            len: whole.len - head,
            ..whole
        };
        self.segments.insert(i + 1, rest);
        for start in self.starts.iter_mut().filter(|s| **s > i) {
            *start += 1;
        }
        i + 1
    }

    fn heap_bytes(&self) -> usize {
        vec_bytes(&self.segments) + vec_bytes(&self.starts)
    }
}

/// Heap bytes `v` holds, spare capacity included.
fn vec_bytes<T>(v: &Vec<T>) -> usize {
    v.capacity() * std::mem::size_of::<T>()
}

/// From stream position `pos` on, the word at position `p` holds index
/// `idx + (p − pos)` of its SRAM's entry sequence.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Run {
    pos: u64,
    idx: u64,
}

/// Starts a new run at `pos` unless the last one already maps it to `idx`.
fn push_run(runs: &mut Vec<Run>, pos: u64, idx: u64) {
    match runs.last() {
        Some(last) if last.idx + (pos - last.pos) == idx => {}
        _ => runs.push(Run { pos, idx }),
    }
}

/// Words `[pos, pos + len)` of the stream being observed, fetched as
/// indices `[idx, idx + len)`.
#[derive(Debug, Clone, Copy)]
struct Piece {
    pos: u64,
    len: u64,
    idx: u64,
}

/// Plans backing-store fetches for one read operand under double buffering.
#[derive(Debug)]
pub struct ReadPlanner {
    op: OperandKind,
    half_words: usize,
    /// Where each word of each operand tile last entered the SRAM, as
    /// index runs over the tile's stream positions: in position order,
    /// the first at position 0, none until the tile is first brought in.
    tiles: Vec<Vec<Run>>,
    fetches: Sequence,
    needs: Vec<(u64, usize)>,
    /// Scratch: what the current stream fetched, in position order, and
    /// its tile's new runs.
    fetched: Vec<Piece>,
    runs: Vec<Run>,
    unique_words: u64,
    refetch_words: u64,
    total_reads: u64,
}

impl ReadPlanner {
    /// Creates a planner for `op` with a scratchpad of `capacity_words`.
    ///
    /// # Panics
    ///
    /// Panics if `capacity_words < 2` (cannot double-buffer).
    pub fn new(op: OperandKind, capacity_words: usize) -> Self {
        assert!(capacity_words >= 2, "buffer must hold at least two words");
        let half_words = (capacity_words / 2).max(1);
        Self {
            op,
            half_words,
            tiles: Vec::new(),
            fetches: Sequence::new(half_words),
            needs: Vec::new(),
            fetched: Vec::new(),
            runs: Vec::new(),
            unique_words: 0,
            refetch_words: 0,
            total_reads: 0,
        }
    }

    /// The fetch index below which data has been evicted: with the newest
    /// fetched word in chunk `j`, only chunks `j − 1` and `j` are resident.
    fn resident_min(&self) -> u64 {
        let half = self.half_words as u64;
        match self.fetches.words {
            0 => 0,
            fetched => ((fetched - 1) / half).saturating_sub(1) * half,
        }
    }

    fn fetch(&mut self, stream: &Stream, from: u64, len: u64) {
        push_run(&mut self.runs, from, self.fetches.words);
        self.fetched.push(Piece {
            pos: from,
            len,
            idx: self.fetches.words,
        });
        self.fetches.push(stream, from, len);
    }

    /// Observes the SRAM reads of one fold: `stream` walks operand tile
    /// `tile`, its step 0 falling on compute cycle `start_cycle`.
    pub fn observe(&mut self, tile: usize, start_cycle: u64, stream: &Stream) {
        let words = stream.words();
        if words == 0 {
            return;
        }
        self.total_reads += words;
        self.fetched.clear();
        self.runs.clear();
        if tile >= self.tiles.len() {
            self.tiles.resize_with(tile + 1, Vec::new);
        }
        let old = std::mem::take(&mut self.tiles[tile]);
        if old.is_empty() {
            self.unique_words += words;
            self.fetch(stream, 0, words);
        }
        for (i, run) in old.iter().enumerate() {
            let end = old.get(i + 1).map_or(words, |next| next.pos);
            let mut pos = run.pos;
            while pos < end {
                // Indices rise with position, so from a resident word the
                // rest of the run is resident; evicted words are refetched
                // up to the first resident one, which moves the horizon.
                let idx = run.idx + (pos - run.pos);
                let horizon = self.resident_min();
                if idx >= horizon {
                    push_run(&mut self.runs, pos, idx);
                    pos = end;
                } else {
                    let len = (end - pos).min(horizon - idx);
                    self.refetch_words += len;
                    self.fetch(stream, pos, len);
                    pos += len;
                }
            }
        }
        if self.fetched.is_empty() {
            self.tiles[tile] = old;
            return;
        }
        // The tile keeps the new runs; its old vector is the next scratch.
        self.tiles[tile] = std::mem::replace(&mut self.runs, old);
        self.record_needs(start_cycle, stream);
    }

    /// Records, for every chunk whose first word the current stream
    /// fetched, the cycle that first needs it. A cycle needs the chunk of
    /// the last word it fetches, so a chunk a single cycle jumps over gets
    /// no need of its own.
    fn record_needs(&mut self, start_cycle: u64, stream: &Stream) {
        let half = self.half_words as u64;
        let mut chunk = self.fetched[0].idx.div_ceil(half);
        let mut at = 0;
        while chunk * half < self.fetches.words {
            let first = chunk * half;
            while self.fetched[at].idx + self.fetched[at].len <= first {
                at += 1;
            }
            let piece = self.fetched[at];
            let step = stream.step_of(piece.pos + (first - piece.idx));
            let step_end = stream.words_before(step + 1);
            let mut last = at;
            while (self.fetched.get(last + 1)).is_some_and(|next| next.pos < step_end) {
                last += 1;
            }
            let piece = self.fetched[last];
            let in_step = piece.len.min(step_end - piece.pos);
            let needed = ((piece.idx + in_step - 1) / half) as usize;
            self.needs.push((start_cycle + step, needed));
            chunk = needed as u64 + 1;
        }
    }

    /// Finalizes into the immutable plan.
    pub fn finish(self) -> ReadPlan {
        ReadPlan {
            op: self.op,
            half_words: self.half_words,
            fetches: self.fetches,
            needs: self.needs,
            unique_words: self.unique_words,
            refetch_words: self.refetch_words,
            total_reads: self.total_reads,
        }
    }
}

/// Finished fetch plan for a read operand.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReadPlan {
    /// Operand this plan belongs to.
    pub op: OperandKind,
    /// Prefetch chunk granularity (half the scratchpad).
    pub half_words: usize,
    /// Backing-store fetch order (unique first-uses plus capacity
    /// refetches), cut into chunks.
    fetches: Sequence,
    /// `(compute_cycle, chunk)`: the first cycle that needs each chunk,
    /// strictly increasing in both. Later needs inside a chunk can neither
    /// issue a prefetch nor stall, so they are not kept.
    pub needs: Vec<(u64, usize)>,
    /// Distinct words fetched at least once.
    pub unique_words: u64,
    /// Words fetched again after capacity eviction.
    pub refetch_words: u64,
    /// Total SRAM reads observed (array-edge traffic).
    pub total_reads: u64,
}

impl ReadPlan {
    /// Words fetched from the backing store over the whole layer.
    pub fn fetched_words(&self) -> u64 {
        self.fetches.words
    }

    /// Number of prefetch chunks in the plan.
    pub fn num_chunks(&self) -> usize {
        self.fetches.starts.len()
    }

    /// The words of chunk `j`.
    pub fn chunk(&self, j: usize) -> Batch<'_> {
        Batch::new(self.fetches.block(j))
    }

    /// Heap bytes the plan keeps resident.
    pub fn heap_bytes(&self) -> usize {
        self.fetches.heap_bytes() + vec_bytes(&self.needs)
    }
}

/// A fold's stream placed on the compute timeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TimedStream {
    /// Compute cycle of the stream's step 0.
    pub start_cycle: u64,
    /// The words.
    pub stream: Stream,
}

/// Plans ofmap traffic: a write-back FIFO cache with half-buffer drains.
///
/// The FIFO evicts in entry order, so the word entering at index `i`
/// leaves when the word at index `i + capacity` enters, and a word is
/// resident exactly while fewer than `capacity` words entered after it.
/// The drained words are therefore the entry sequence itself, delayed by
/// one capacity, and a fold's whole stream is decided by its tile's first
/// word: if that — the tile's oldest — is resident nothing enters and the
/// rest stays resident too; if it is not, its re-entry evicts the next
/// oldest word, which is the tile's next, and so on in lockstep down the
/// stream.
#[derive(Debug)]
pub struct WritePlanner {
    capacity_words: usize,
    half_words: usize,
    /// Entry index of each tile's first word (the rest follow in stream
    /// order), once it has been brought in.
    tiles: Vec<Option<u64>>,
    entries: Sequence,
    /// Entry index whose arrival completes the next half-buffer of
    /// evictions.
    next_burst_at: u64,
    bursts: Vec<u64>,
    misses: Vec<TimedStream>,
    write_hits: u64,
    write_misses: u64,
    read_hits: u64,
    read_misses: u64,
}

impl WritePlanner {
    /// Creates a planner with an ofmap SRAM of `capacity_words`.
    ///
    /// # Panics
    ///
    /// Panics if `capacity_words < 2`.
    pub fn new(capacity_words: usize) -> Self {
        assert!(capacity_words >= 2, "buffer must hold at least two words");
        let half_words = (capacity_words / 2).max(1);
        Self {
            capacity_words,
            half_words,
            tiles: Vec::new(),
            entries: Sequence::new(half_words),
            next_burst_at: (capacity_words + half_words - 1) as u64,
            bursts: Vec::new(),
            misses: Vec::new(),
            write_hits: 0,
            write_misses: 0,
            read_hits: 0,
            read_misses: 0,
        }
    }

    /// Observes the ofmap activity of one fold: `stream` walks output tile
    /// `tile`, its step 0 falling on compute cycle `start_cycle`. Every
    /// word is written; with `rmw`, each step first reads its words back
    /// (partial-sum accumulation).
    ///
    /// # Panics
    ///
    /// Panics if a read-modify-write step is wider than the SRAM (the
    /// words it reads back could not all stay for their writes).
    pub fn observe(&mut self, tile: usize, start_cycle: u64, stream: &Stream, rmw: bool) {
        let words = stream.words();
        if words == 0 {
            return;
        }
        assert!(
            !rmw || stream.lanes <= self.capacity_words,
            "ofmap SRAM narrower than one accumulation step"
        );
        if tile >= self.tiles.len() {
            self.tiles.resize(tile + 1, None);
        }
        let entered = self.entries.words;
        if self.tiles[tile].is_some_and(|first| first + self.capacity_words as u64 >= entered) {
            self.read_hits += if rmw { words } else { 0 };
            self.write_hits += words;
            return;
        }
        // Every word enters, in stream order: on its read when there is
        // one (its write then hits), else on its write.
        if rmw {
            self.read_misses += words;
            self.write_hits += words;
            self.misses.push(TimedStream {
                start_cycle,
                stream: *stream,
            });
        } else {
            self.write_misses += words;
        }
        self.tiles[tile] = Some(entered);
        // Every half-buffer of evictions fires a drain burst in the cycle
        // that completes it.
        while self.next_burst_at < entered + words {
            let step = stream.step_of(self.next_burst_at - entered);
            self.bursts.push(start_cycle + step);
            self.next_burst_at += self.half_words as u64;
        }
        self.entries.push(stream, 0, words);
    }

    /// Finalizes: residual dirty words flush at the end of compute.
    pub fn finish(mut self) -> WritePlan {
        let flush_words = self.entries.words.min(self.capacity_words as u64);
        let flush_from = self.entries.cut_at(self.entries.words - flush_words);
        WritePlan {
            half_words: self.half_words,
            entries: self.entries,
            flush_from,
            flush_words,
            bursts: self.bursts,
            misses: self.misses,
            write_hits: self.write_hits,
            write_misses: self.write_misses,
            read_hits: self.read_hits,
            read_misses: self.read_misses,
        }
    }
}

/// Finished ofmap traffic plan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WritePlan {
    /// Drain burst granularity (half the ofmap SRAM).
    pub half_words: usize,
    /// Every word that entered the ofmap SRAM, in entry — and therefore
    /// eviction — order, cut into bursts.
    entries: Sequence,
    /// Index of the first segment still resident at the end.
    flush_from: usize,
    /// Residual words flushed after compute.
    pub flush_words: u64,
    /// The compute cycle at which each half-buffer drain burst fires.
    pub bursts: Vec<u64>,
    /// RMW misses (partial sums refetched from DRAM): every word of each
    /// stream, one blocking fetch per cycle it spans, priced by the run.
    pub misses: Vec<TimedStream>,
    /// Coalesced on-chip overwrites.
    pub write_hits: u64,
    /// First-time writes.
    pub write_misses: u64,
    /// Partial-sum reads served on-chip.
    pub read_hits: u64,
    /// Partial-sum reads that had to refetch from the backing store.
    pub read_misses: u64,
}

impl WritePlan {
    /// Words evicted before the end of compute.
    pub fn drained_words(&self) -> u64 {
        self.entries.words - self.flush_words
    }

    /// The words of drain burst `b`.
    pub fn burst(&self, b: usize) -> Batch<'_> {
        Batch::new(self.entries.block(b))
    }

    /// Evicted words no full burst carried; they drain after compute.
    pub fn tail(&self) -> Batch<'_> {
        let drained = self.entries.starts.get(self.bursts.len());
        let from = drained.map_or(self.flush_from, |&start| start);
        Batch::new(&self.entries.segments[from..self.flush_from])
    }

    /// The words still resident at the end (final write-back), which
    /// leave in address order.
    pub fn flush(&self) -> Batch<'_> {
        Batch {
            segments: &self.entries.segments[self.flush_from..],
            ascending: true,
        }
    }

    /// Heap bytes the plan keeps resident.
    pub fn heap_bytes(&self) -> usize {
        self.entries.heap_bytes() + vec_bytes(&self.bursts) + vec_bytes(&self.misses)
    }
}

// ---------------------------------------------------------------------------
// Timing pass
// ---------------------------------------------------------------------------

/// Inputs to the timing pass.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TimingInputs {
    /// Ifmap fetch plan.
    pub ifmap: ReadPlan,
    /// Filter fetch plan.
    pub filter: ReadPlan,
    /// Ofmap traffic plan.
    pub ofmap: WritePlan,
    /// Total compute cycles of the demand stream (stall-free).
    pub compute_cycles: u64,
}

#[derive(Debug)]
struct ReadState<'a> {
    plan: &'a ReadPlan,
    completion: Vec<u64>,
    next_need: usize,
}

impl<'a> ReadState<'a> {
    fn new(plan: &'a ReadPlan) -> Self {
        Self {
            plan,
            completion: Vec::new(),
            next_need: 0,
        }
    }

    /// Issues chunk fetches so that chunks `0..=target` are scheduled.
    fn issue_through(&mut self, store: &mut dyn BackingStore, target: usize, now: u64) {
        let total = self.plan.num_chunks();
        while self.completion.len() <= target && self.completion.len() < total {
            let j = self.completion.len();
            let earliest = self.completion.last().copied().unwrap_or(0).max(now);
            let done = store.fetch(self.plan.op, earliest, self.plan.chunk(j));
            self.completion.push(done);
        }
    }

    fn need_cycle(&self) -> Option<u64> {
        self.plan.needs.get(self.next_need).map(|need| need.0)
    }

    /// Serves the next need at time `now`: prefetches one chunk ahead and
    /// returns the stall until the needed chunk has arrived.
    fn serve_need(&mut self, store: &mut dyn BackingStore, now: u64) -> u64 {
        let chunk = self.plan.needs[self.next_need].1;
        self.next_need += 1;
        self.issue_through(store, chunk + 1, now);
        self.completion[chunk].saturating_sub(now)
    }
}

/// Walks the RMW miss streams one cycle's worth at a time.
#[derive(Debug, Clone, Copy)]
struct MissCursor<'a> {
    runs: &'a [TimedStream],
    /// Next step of `runs[0]`.
    step: u64,
}

impl<'a> MissCursor<'a> {
    fn cycle(&self) -> Option<u64> {
        self.runs.first().map(|run| run.start_cycle + self.step)
    }

    /// Moves `steps` steps down `runs[0]`, at most to its end.
    fn advance(&mut self, steps: u64) {
        self.step += steps;
        if self.step == self.runs[0].stream.steps() {
            self.runs = &self.runs[1..];
            self.step = 0;
        }
    }

    /// Takes the words missed at `cycle` — the value
    /// [`cycle`](Self::cycle) returned — calling `f` with each stream's.
    fn take(&mut self, cycle: u64, mut f: impl FnMut(Segment)) {
        while self.cycle() == Some(cycle) {
            let stream = self.runs[0].stream;
            let from = stream.words_before(self.step);
            let len = stream.words_before(self.step + 1) - from;
            f(Segment { stream, from, len });
            self.advance(1);
        }
    }

    /// Takes the `k` cycles from `cycle` on, before `limit`, of one
    /// stream's stretch whose widths (words missed) step by `delta` from
    /// `w`, and returns `(w, delta, k)`. A skewed stream's widths rise by
    /// one to the band, stay, and fall by one; an unskewed one's stay. A
    /// stream's last step is its own unless the next stream starts in that
    /// cycle: then it is taken alone, with the next stream's first.
    fn take_run(&mut self, cycle: u64, limit: u64) -> (u64, i64, u64) {
        let (start_cycle, stream) = (self.runs[0].start_cycle, self.runs[0].stream);
        let (steps, step) = (stream.steps(), self.step);
        let (lanes, len) = (stream.lanes as u64, stream.len as u64);
        let (narrow, wide) = (lanes.min(len), lanes.max(len));
        let (width, delta, end) = match stream.skewed {
            false => (lanes, 0, steps),
            true if step + 1 < narrow => (step + 1, 1, narrow - 1),
            true if step < wide => (narrow, 0, wide),
            true => (steps - step, -1, steps),
        };
        let shared = self.runs.get(1).map(|next| next.start_cycle) == Some(start_cycle + steps - 1);
        let end = end.min(steps - u64::from(shared));
        if step < end {
            let k = (end - step).min(limit - cycle);
            self.advance(k);
            return (width, delta, k);
        }
        let mut words = 0;
        self.take(cycle, |segment| words += segment.len);
        (words, 0, 1)
    }
}

/// Replays the plans against a backing store, producing the memory summary
/// (stall cycles, ramp-up, total runtime, per-operand traffic).
pub fn timing(inputs: &TimingInputs, store: &mut dyn BackingStore) -> MemorySummary {
    let mut ifmap = ReadState::new(&inputs.ifmap);
    let mut filter = ReadState::new(&inputs.filter);
    let ofmap = &inputs.ofmap;

    // Ramp-up: fetch chunk 0 (and prefetch chunk 1) of both read operands
    // before compute starts.
    ifmap.issue_through(store, 1, 0);
    filter.issue_through(store, 1, 0);
    let t0 = ifmap
        .completion
        .first()
        .copied()
        .unwrap_or(0)
        .max(filter.completion.first().copied().unwrap_or(0));

    let mut misses = MissCursor {
        runs: &ofmap.misses,
        step: 0,
    };
    let (mut batch, mut by_words) = (Vec::new(), true);
    let mut burst = 0;
    let mut stall: u64 = 0;
    let mut pending_drain_done: u64 = 0;
    'events: loop {
        // Merge the four event sources by compute cycle. At equal cycles
        // the source order holds: misses must come before drains (a miss
        // can trigger the eviction).
        let heads = [
            ifmap.need_cycle(),
            filter.need_cycle(),
            misses.cycle(),
            ofmap.bursts.get(burst).copied(),
        ];
        let next = (heads.iter().enumerate())
            .filter_map(|(source, cycle)| cycle.map(|c| (c, source)))
            .min();
        let Some((cycle, source)) = next else {
            break;
        };
        let now = t0 + cycle + stall;
        match source {
            0 => stall += ifmap.serve_need(store, now),
            1 => stall += filter.serve_need(store, now),
            2 if !by_words => {
                // Demand miss on partial sums: blocking fetch.
                batch.clear();
                misses.take(cycle, |segment| batch.push(segment));
                let done = store.fetch(OperandKind::Ofmap, now, Batch::new(&batch));
                stall += done.saturating_sub(now);
            }
            2 => {
                // The same, taken as a run while the store prices fetches
                // by word count; once it declines, it sees each cycle's
                // transaction. A cycle's needs come before its misses,
                // its burst after.
                let next = [heads[0], heads[1], heads[3].map(|b| b.saturating_add(1))];
                let limit = next.into_iter().flatten().min().unwrap_or(u64::MAX);
                let mut run = misses;
                let (first, delta, steps) = run.take_run(cycle, limit);
                let mut step = 0;
                while step < steps {
                    let now = t0 + cycle + step + stall;
                    let words = first.wrapping_add_signed(delta * step as i64);
                    let Some(done) = store.fetch_words(OperandKind::Ofmap, now, words) else {
                        by_words = false;
                        continue 'events;
                    };
                    let cost = done.saturating_sub(now);
                    stall += cost;
                    step += 1;
                    // From the second step on each starts after the one
                    // before completed (`stall` absorbed the wait), so
                    // equal widths cost the same: add the steps between
                    // the second and the last.
                    if delta == 0 && step == 2 && steps > 3 {
                        stall += (steps - 3) * cost;
                        step = steps - 1;
                    }
                }
                misses = run;
            }
            _ => {
                // Start a half-buffer drain burst; stall only if the
                // previous burst has not finished (write buffer full).
                stall += pending_drain_done.saturating_sub(now);
                let start = t0 + cycle + stall;
                pending_drain_done = store.drain(OperandKind::Ofmap, start, ofmap.burst(burst));
                burst += 1;
            }
        }
    }

    // End of compute: flush leftover evictions and the resident outputs.
    let compute_end = t0 + inputs.compute_cycles + stall;
    let mut tail_end = compute_end.max(pending_drain_done);
    for batch in [ofmap.tail(), ofmap.flush()] {
        if !batch.is_empty() {
            tail_end = store
                .drain(OperandKind::Ofmap, tail_end, batch)
                .max(tail_end);
        }
    }
    let drain_tail = tail_end - compute_end;

    let read_stats = |plan: &ReadPlan| OperandMemoryStats {
        sram_reads: plan.total_reads,
        sram_writes: plan.fetched_words(),
        dram_reads: plan.fetched_words(),
        dram_writes: 0,
        unique_words: plan.unique_words,
        refetch_words: plan.refetch_words,
    };
    let ofmap_stats = OperandMemoryStats {
        sram_reads: ofmap.read_hits + ofmap.read_misses,
        sram_writes: ofmap.write_hits + ofmap.write_misses,
        dram_reads: ofmap.read_misses,
        dram_writes: ofmap.drained_words() + ofmap.flush_words,
        unique_words: ofmap.write_misses,
        refetch_words: ofmap.read_misses,
    };

    MemorySummary {
        ramp_up_cycles: t0,
        stall_cycles: stall,
        drain_tail_cycles: drain_tail,
        compute_cycles: inputs.compute_cycles,
        total_cycles: tail_end,
        ifmap: read_stats(&inputs.ifmap),
        filter: read_stats(&inputs.filter),
        ofmap: ofmap_stats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::operand::Addr;

    /// `n` words one step touches, `stride` apart from `base`.
    fn words(base: Addr, n: usize, stride: u64) -> Stream {
        Stream {
            lane_stride: stride,
            ..Stream::contiguous(base, n)
        }
    }

    fn batch_of(stream: Stream) -> [Segment; 1] {
        [Segment::whole(stream)]
    }

    fn addrs(batch: Batch<'_>) -> Vec<Addr> {
        let mut out = Vec::new();
        batch.expand_into(&mut out);
        out
    }

    #[test]
    fn ideal_store_respects_bandwidth() {
        let mut s = IdealBandwidthStore::new(2.0);
        let ten = batch_of(words(0, 10, 1));
        let done = s.fetch(OperandKind::Ifmap, 0, Batch::new(&ten));
        assert_eq!(done, 5);
        // Same interface serializes.
        let done2 = s.fetch(OperandKind::Ifmap, 0, Batch::new(&ten));
        assert_eq!(done2, 10);
        // Different interface does not.
        let done3 = s.fetch(OperandKind::Filter, 0, Batch::new(&ten));
        assert_eq!(done3, 5);
    }

    #[test]
    fn recording_store_captures_transactions() {
        let mut s = RecordingStore::new(IdealBandwidthStore::new(4.0));
        s.fetch(OperandKind::Ifmap, 0, Batch::new(&batch_of(words(1, 4, 1))));
        s.drain(OperandKind::Ofmap, 7, Batch::new(&batch_of(words(9, 1, 1))));
        let t = s.trace();
        let [read, write] = t.entries() else {
            panic!("two transactions, got {:?}", t.entries());
        };
        assert_eq!((read.kind, read.len), (AccessKind::Read, 4));
        assert_eq!(
            (write.kind, write.len, write.issue),
            (AccessKind::Write, 1, 7)
        );
        assert_eq!(addrs(t.batch_of(read)), [1, 2, 3, 4]);
        assert_eq!(addrs(t.batch_of(write)), [9]);
    }

    #[test]
    fn read_planner_unique_then_refetch() {
        // Capacity 4 words → half = 2. Touch three two-word tiles, then the
        // first again: it was evicted, so it must be refetched.
        let mut p = ReadPlanner::new(OperandKind::Ifmap, 4);
        for tile in 0..3 {
            p.observe(tile, tile as u64, &words(10 + 2 * tile as u64, 2, 1));
        }
        p.observe(0, 3, &words(10, 2, 1));
        let plan = p.finish();
        assert_eq!(plan.unique_words, 6);
        assert_eq!(plan.refetch_words, 2);
        assert_eq!(plan.fetched_words(), 8);
        assert_eq!(plan.num_chunks(), 4);
        assert_eq!(addrs(plan.chunk(3)), [10, 11]);
        assert_eq!(plan.needs, [(0, 0), (1, 1), (2, 2), (3, 3)]);
    }

    #[test]
    fn read_planner_reuse_within_window_is_free() {
        let mut p = ReadPlanner::new(OperandKind::Filter, 8);
        for cycle in 0..3 {
            p.observe(0, cycle, &words(1, 3, 1));
        }
        let plan = p.finish();
        assert_eq!(plan.unique_words, 3);
        assert_eq!(plan.refetch_words, 0);
        assert_eq!(plan.total_reads, 9);
        // Needs: only the first cycle fetches.
        assert_eq!(plan.needs.len(), 1);
    }

    #[test]
    fn read_planner_splits_a_tile_that_straddles_the_horizon() {
        // Half = 4. Tile 0 (6 words) takes indices 0..6, tile 1 indices
        // 6..10: the newest word sits in chunk 2, so chunk 0 (indices
        // 0..4) is evicted. Re-walking tile 0 refetches its first four
        // words — which moves the horizon past its last two as well.
        let mut p = ReadPlanner::new(OperandKind::Ifmap, 8);
        p.observe(0, 0, &words(100, 6, 1));
        p.observe(1, 1, &words(200, 4, 1));
        p.observe(0, 2, &words(100, 6, 1));
        let plan = p.finish();
        assert_eq!((plan.unique_words, plan.refetch_words), (10, 6));
        assert_eq!(addrs(plan.chunk(2)), [202, 203, 100, 101]);
        assert_eq!(addrs(plan.chunk(3)), [102, 103, 104, 105]);
        // One step fetched indices 10..16: it needs chunk 3, the chunk of
        // its last word; chunk 2 was first needed by tile 1.
        assert_eq!(plan.needs, [(0, 1), (1, 2), (2, 3)]);
    }

    #[test]
    fn read_planner_counts_past_the_u32_index_space() {
        // 70 first-touch tiles of 2²⁶ words: 4.7 G fetched words, decided
        // per tile, not per word.
        let mut p = ReadPlanner::new(OperandKind::Filter, 1 << 24);
        let tile_words = 1u64 << 26;
        for tile in 0..70 {
            let stream = Stream {
                base: tile as u64 * tile_words,
                lanes: 1 << 10,
                len: 1 << 16,
                lane_stride: 1 << 16,
                step_stride: 1,
                skewed: true,
            };
            p.observe(tile, tile as u64 * stream.steps(), &stream);
        }
        let plan = p.finish();
        let fetched = plan.fetched_words();
        assert!(fetched > u64::from(u32::MAX));
        assert_eq!(fetched, 70 * tile_words);
        assert_eq!(plan.unique_words + plan.refetch_words, fetched);
        assert_eq!(plan.num_chunks() as u64, fetched >> 23);
        assert_eq!(plan.needs.len(), plan.num_chunks());
        let last = plan.chunk(plan.num_chunks() - 1);
        assert_eq!(last.words(), 1 << 23);
    }

    #[test]
    fn write_planner_coalesces_overwrites() {
        let mut w = WritePlanner::new(8);
        w.observe(0, 0, &words(100, 2, 1), false);
        w.observe(0, 1, &words(100, 2, 1), true); // RMW hits + overwrite hits
        let plan = w.finish();
        assert_eq!(plan.write_misses, 2);
        assert_eq!(plan.write_hits, 2);
        assert_eq!(plan.read_hits, 2);
        assert_eq!(plan.read_misses, 0);
        assert_eq!(plan.flush_words, 2);
        assert_eq!(plan.drained_words(), 0);
        assert!(plan.bursts.is_empty() && plan.tail().is_empty());
    }

    #[test]
    fn write_planner_evicts_fifo_when_full() {
        let mut w = WritePlanner::new(2);
        for tile in 0..3 {
            w.observe(tile, tile as u64, &words(3 - tile as u64, 1, 1), false);
        }
        // Writing 1 evicted 3: one half-buffer burst, in that cycle.
        let plan = w.finish();
        assert_eq!(plan.bursts, [2]);
        assert_eq!(addrs(plan.burst(0)), [3]);
        assert!(plan.tail().is_empty());
        assert_eq!(plan.flush_words, 2);
        assert_eq!(
            addrs(plan.flush()),
            [1, 2],
            "the flush leaves in address order"
        );
    }

    #[test]
    fn write_planner_re_enters_a_straddling_tile_in_lockstep() {
        // Capacity 4: tile 0 (3 words) then tile 1 (2 words) leave word 0
        // of tile 0 evicted and words 1, 2 resident. The RMW pass over
        // tile 0 misses word 0, whose re-entry evicts word 1 before its
        // read, and so on down the tile.
        let mut w = WritePlanner::new(4);
        w.observe(0, 0, &words(10, 3, 1), false);
        w.observe(1, 1, &words(20, 2, 1), false);
        w.observe(0, 2, &words(10, 3, 1), true);
        let plan = w.finish();
        assert_eq!((plan.read_hits, plan.read_misses), (0, 3));
        assert_eq!((plan.write_hits, plan.write_misses), (3, 5));
        assert_eq!(plan.misses.len(), 1, "one run of misses, not three");
        assert_eq!(plan.misses[0].stream.words(), 3);
        assert_eq!(plan.drained_words(), 4);
        assert_eq!(addrs(plan.burst(0)), [10, 11]);
        assert_eq!(addrs(plan.burst(1)), [12, 20]);
        assert_eq!(plan.bursts, [2, 2]);
        assert_eq!(addrs(plan.flush()), [10, 11, 12, 21]);
    }

    fn no_reads(op: OperandKind) -> ReadPlan {
        ReadPlanner::new(op, 64).finish()
    }

    #[test]
    fn timing_no_stalls_with_fat_bandwidth() {
        // Demand fits easily: bandwidth far above need.
        let mut p = ReadPlanner::new(OperandKind::Ifmap, 1024);
        for c in 0..100u64 {
            p.observe(c as usize, c, &words(c, 2, 1000));
        }
        let inputs = TimingInputs {
            ifmap: p.finish(),
            filter: no_reads(OperandKind::Filter),
            ofmap: WritePlanner::new(1024).finish(),
            compute_cycles: 100,
        };
        let mut store = IdealBandwidthStore::new(1000.0);
        let sum = timing(&inputs, &mut store);
        assert_eq!(sum.stall_cycles, 0);
        assert!(sum.ramp_up_cycles >= 1);
        assert_eq!(sum.compute_cycles, 100);
    }

    #[test]
    fn timing_stalls_with_starved_bandwidth() {
        // 2 new words per cycle demanded, bandwidth 1 word/cycle → stalls.
        let mut p = ReadPlanner::new(OperandKind::Ifmap, 64);
        for c in 0..200u64 {
            p.observe(c as usize, c, &words(2 * c, 2, 1));
        }
        let inputs = TimingInputs {
            ifmap: p.finish(),
            filter: no_reads(OperandKind::Filter),
            ofmap: WritePlanner::new(64).finish(),
            compute_cycles: 200,
        };
        let mut store = IdealBandwidthStore::new(1.0);
        let sum = timing(&inputs, &mut store);
        assert!(
            sum.stall_cycles > 100,
            "expected heavy stalls, got {}",
            sum.stall_cycles
        );
        assert_eq!(
            sum.total_cycles,
            sum.ramp_up_cycles + sum.compute_cycles + sum.stall_cycles + sum.drain_tail_cycles
        );
    }

    #[test]
    fn timing_drains_outputs_at_the_end() {
        let mut w = WritePlanner::new(8);
        for c in 0..20u64 {
            w.observe(c as usize, c, &words(c + 500, 1, 1), false);
        }
        let inputs = TimingInputs {
            ifmap: no_reads(OperandKind::Ifmap),
            filter: no_reads(OperandKind::Filter),
            ofmap: w.finish(),
            compute_cycles: 20,
        };
        let mut store = IdealBandwidthStore::new(2.0);
        let sum = timing(&inputs, &mut store);
        // 20 distinct outputs all must reach DRAM.
        assert_eq!(sum.ofmap.dram_writes, 20);
        assert!(sum.drain_tail_cycles > 0);
    }
}
