//! The §V-B three-step main-memory flow.
//!
//! * **Step 1** — the systolic timing pass runs against ideal memory with a
//!   [`RecordingStore`], producing the demand trace (request cycle, word
//!   segments, direction) exactly as the paper describes.
//! * **Step 2** — [`replay`] streams the trace through the cycle-accurate
//!   DRAM model: transactions in memory-cycle order, each injected as one
//!   request per distinct burst-aligned line it touches (derived from its
//!   segments as line *ranges*, at the moment of injection), each
//!   completion folded into its transaction's [`MeasuredTransaction`] as
//!   it pops. Finite-queue back-pressure is included; memory is
//!   O(transactions), not O(line requests).
//! * **Step 3** — [`LatencyReplayStore`] feeds those measurements back into
//!   a second systolic timing pass: the same deterministic sequence of
//!   prefetch/drain transactions now completes after its measured DRAM
//!   delay, producing the stall-aware end-to-end cycles. The pass must
//!   consume exactly the transactions step 2 measured.

use crate::config::DramIntegration;
use scalesim_mem::{
    AccessKind as MemAccess, Completion, DramConfig, DramEnergyBreakdown, MemStats, Replay,
    ReplaySummary, RowPolicy, SchedulingPolicy,
};
use scalesim_systolic::{
    timing, AccessKind, Addr, BackingStore, Batch, IdealBandwidthStore, MemorySummary, OperandKind,
    RecordingStore, Segment, TimingInputs, TraceRecorder,
};

/// Results of steps 2 and 3.
#[derive(Debug, Clone)]
pub struct DramAnalysis {
    /// Stall-aware memory summary from the step-3 re-run.
    pub summary: MemorySummary,
    /// DRAM statistics from the step-2 replay.
    pub stats: MemStats,
    /// Mean round-trip latency over all line requests (memory cycles).
    pub avg_latency: f64,
    /// Number of line requests replayed.
    pub line_requests: usize,
    /// Achieved memory throughput in MB/s.
    pub throughput_mbps: f64,
    /// IDD-model DRAM energy for the replay (activate/read/write/refresh/
    /// background breakdown).
    pub energy: DramEnergyBreakdown,
}

/// Per-transaction figures carried from step 2 into step 3.
#[derive(Debug, Clone, Copy, Default)]
pub struct MeasuredTransaction {
    /// Absolute arrival time of the last line's data, core cycles.
    pub arrival: u64,
    /// Line requests in the transaction.
    pub lines: u64,
    /// Mean in-memory service latency of its lines, core cycles.
    pub avg_service: f64,
    /// Worst line service latency, core cycles.
    pub max_service: u64,
}

/// Backing store that replays the transaction timings measured in step 2.
/// Transaction order is deterministic across timing passes, so the k-th
/// `fetch`/`drain` call corresponds to the k-th traced transaction.
///
/// Two effects bound each transaction's completion:
///
/// * **Open-loop arrival** — prefetch engines issue asynchronously, so
///   data arrives no earlier than the absolute time the DRAM replay
///   measured.
/// * **Finite request queues (§V-A2)** — the accelerator holds at most
///   `queue` requests in flight, so pumping `n` lines whose round trips
///   average `ℓ` cycles takes at least `n·ℓ/queue` cycles (Little's law);
///   this is what makes the paper's Fig. 10 queue sweep bite.
#[derive(Debug)]
pub struct LatencyReplayStore {
    transactions: Vec<MeasuredTransaction>,
    cursor: usize,
    read_queue: usize,
    write_queue: usize,
}

impl LatencyReplayStore {
    /// Builds the store from per-transaction measurements and the
    /// read/write request-queue capacities.
    pub fn new(
        transactions: Vec<MeasuredTransaction>,
        read_queue: usize,
        write_queue: usize,
    ) -> Self {
        Self {
            transactions,
            cursor: 0,
            read_queue: read_queue.max(1),
            write_queue: write_queue.max(1),
        }
    }

    fn next(&mut self, earliest: u64, queue: usize) -> u64 {
        let t = self
            .transactions
            .get(self.cursor)
            .copied()
            .unwrap_or_default();
        self.cursor += 1;
        let pump = (t.lines as f64 * t.avg_service / queue as f64).ceil() as u64;
        let queue_bound = earliest + pump.max(t.max_service.min(t.lines.max(1)));
        t.arrival.max(queue_bound).max(earliest + 1)
    }
}

impl BackingStore for LatencyReplayStore {
    fn fetch(&mut self, _op: OperandKind, earliest: u64, batch: Batch<'_>) -> u64 {
        let done = self.next(earliest, self.read_queue);
        if batch.is_empty() {
            earliest
        } else {
            done
        }
    }

    fn drain(&mut self, _op: OperandKind, earliest: u64, batch: Batch<'_>) -> u64 {
        let done = self.next(earliest, self.write_queue);
        if batch.is_empty() {
            earliest
        } else {
            done
        }
    }
}

/// `⌈mem_cycles / ratio⌉`: memory-clock cycles in core-clock cycles.
/// Runs once per line request, so it avoids `f64::ceil` (a library call
/// on baseline x86-64) and converts through `i64`, which is one
/// instruction where `u64` is a branchy sequence; the values agree for
/// everything below 2^63.
fn core_cycles(mem_cycles: u64, ratio: f64) -> u64 {
    let Ok(signed) = i64::try_from(mem_cycles) else {
        return (mem_cycles as f64 / ratio).ceil() as u64;
    };
    let exact = signed as f64 / ratio;
    if !(0.0..9.0e18).contains(&exact) {
        return exact.ceil() as u64;
    }
    let floor = exact as i64;
    (floor + i64::from((floor as f64) < exact)) as u64
}

/// Calls `f(lowest address, words)` with runs of consecutive addresses
/// that together hold exactly the segment's words, in no particular
/// order: one run per lane when lanes walk their tile by ±1, one per
/// element when neighbouring lanes sit ±1 apart, and one-word runs for
/// a stream that is unit-stride in neither direction.
fn for_each_run(segment: &Segment, mut f: impl FnMut(Addr, u64)) {
    if segment.len == 0 {
        return;
    }
    let s = segment.stream;
    let (lanes, len, skew) = (s.lanes as u64, s.len as u64, u64::from(s.skewed));
    let last = segment.from + segment.len - 1;
    let (s0, s1) = (s.step_of(segment.from), s.step_of(last));
    // The segment takes lanes `a..` of its first step `s0`, all of the
    // steps between, and lanes `..=b` of its last step `s1`.
    let first_lane = |step: u64| skew * step.saturating_sub(len - 1);
    let a = first_lane(s0) + (segment.from - s.words_before(s0));
    let b = first_lane(s1) + (last - s.words_before(s1));
    let addr = |lane, elem| s.addr(lane, elem);
    let unit = |stride: u64| stride == 1 || stride == u64::MAX;
    // `lo..=hi` along a ±1 stride, as (lowest address, words).
    let mut emit = |stride: u64, at_lo: Addr, at_hi: Addr, words: u64| {
        f(if stride == 1 { at_lo } else { at_hi }, words)
    };
    if unit(s.step_stride) {
        // Lane by lane: the steps `lo..=hi` the lane takes part in.
        for lane in 0..lanes {
            let offset = skew * lane;
            let lo = s0.max(offset) + u64::from(s0 >= offset && lane < a);
            let hi = s1.min(offset + len - 1) + 1 - u64::from(s1 < offset + len && lane > b);
            if lo < hi {
                let (lo, hi) = (lo - offset, hi - 1 - offset);
                emit(s.step_stride, addr(lane, lo), addr(lane, hi), hi - lo + 1);
            }
        }
    } else if unit(s.lane_stride) {
        // Element by element: the lanes `lo..=hi` that reach it.
        let elems = if s.skewed {
            s0.saturating_sub(lanes - 1)..=s1.min(len - 1)
        } else {
            s0..=s1
        };
        for elem in elems {
            let (lo, hi) = if s.skewed {
                let lo = s0.saturating_sub(elem);
                let hi = (lanes - 1).min(s1 - elem) + 1;
                let skip_first = lo + elem == s0 && lo < a;
                let skip_last = hi - 1 + elem == s1 && hi - 1 > b;
                (lo + u64::from(skip_first), hi - u64::from(skip_last))
            } else {
                let lo = if elem == s0 { a } else { 0 };
                (lo, if elem == s1 { b + 1 } else { lanes })
            };
            if lo < hi {
                emit(s.lane_stride, addr(lo, elem), addr(hi - 1, elem), hi - lo);
            }
        }
    } else {
        segment.for_each(|addr| f(addr, 1));
    }
}

/// The distinct burst-aligned lines a transaction touches, as sorted
/// inclusive `(first, last)` line ranges (overlaps are left to the
/// caller). A unit-stride run of words is a line range outright; only
/// when a word is wider than a line do words have to be visited one by one.
fn line_ranges(batch: Batch<'_>, bytes_per_word: u64, line_bytes: u64, out: &mut Vec<(u64, u64)>) {
    out.clear();
    // Bursts are a power of two bytes in every preset: shift, don't divide.
    let shift = line_bytes
        .is_power_of_two()
        .then(|| line_bytes.trailing_zeros());
    let line_of = |word: u64| match shift {
        Some(shift) => (word * bytes_per_word) >> shift,
        None => word * bytes_per_word / line_bytes,
    };
    for segment in batch.segments {
        if bytes_per_word <= line_bytes {
            for_each_run(segment, |first, words| {
                out.push((line_of(first), line_of(first + words - 1)))
            });
        } else {
            segment.for_each(|word| out.push((line_of(word), line_of(word))));
        }
    }
    out.sort_unstable();
}

/// Step 2: replays `trace` through the DRAM system `cfg` describes, its
/// controllers under the given policies, returning each transaction's
/// measured figures (core cycles, trace order) and the replay's totals.
///
/// Transactions are injected in memory-cycle order (trace order within
/// a cycle), each as one request per distinct burst-aligned line it
/// touches, in ascending line order. Lines are derived from the
/// transaction's segments as it is injected and every completion is
/// folded into its transaction as it pops, so nothing here is sized by
/// the number of line requests.
pub fn replay(
    trace: &TraceRecorder,
    cfg: &DramIntegration,
    bytes_per_word: usize,
    scheduling: SchedulingPolicy,
    row_policy: RowPolicy,
) -> (Vec<MeasuredTransaction>, ReplaySummary) {
    let line_bytes = cfg.spec.org.burst_bytes() as u64;
    let ratio = cfg.mem_cycles_per_core_cycle;
    let entries = trace.entries();
    let mem_cycle = |entry: usize| (entries[entry].issue as f64 * ratio) as u64;
    let mut order: Vec<usize> = (0..entries.len()).collect();
    order.sort_by_key(|&entry| mem_cycle(entry));

    // Per-transaction figures for the queue model. Until the replay ends
    // `arrival` is the last line's completion in memory cycles (the
    // conversion is monotone, so it commutes with the maximum) and
    // `avg_service` the sum of the lines' service times (whole numbers
    // below 2^53, so exact in any order).
    let mut tx = vec![MeasuredTransaction::default(); entries.len()];
    // Under load consecutive lines are served equally fast: remember the
    // last conversion.
    let mut converted = (0, 0);
    let mut retire = |done: Completion| {
        let service = done.service();
        if service != converted.0 {
            converted = (service, core_cycles(service, ratio));
        }
        let service = converted.1;
        let t = &mut tx[done.tag];
        t.arrival = t.arrival.max(done.cycle);
        t.lines += 1;
        t.max_service = t.max_service.max(service);
        t.avg_service += service as f64;
    };
    let mut replay = Replay::new(DramConfig {
        spec: cfg.spec,
        channels: cfg.channels,
        mapping: cfg.mapping,
        read_queue: cfg.read_queue,
        write_queue: cfg.write_queue,
        scheduling,
        row_policy,
    });
    let mut ranges = Vec::new();
    for entry in order {
        let e = &entries[entry];
        let kind = match e.kind {
            AccessKind::Read => MemAccess::Read,
            AccessKind::Write => MemAccess::Write,
        };
        line_ranges(
            trace.batch_of(e),
            bytes_per_word as u64,
            line_bytes,
            &mut ranges,
        );
        let (cycle, mut next) = (mem_cycle(entry), 0);
        for &(first, last) in &ranges {
            for line in first.max(next)..=last {
                replay.push(cycle, line * line_bytes, kind, entry, &mut retire);
            }
            next = next.max(last + 1);
        }
    }
    let summary = replay.finish(&mut retire);
    for t in tx.iter_mut().filter(|t| t.lines > 0) {
        t.arrival = core_cycles(t.arrival, ratio);
        t.avg_service /= t.lines as f64;
    }
    (tx, summary)
}

/// Step 3: the stall-aware timing pass over the measured transactions
/// and the finite request queues.
///
/// # Panics
///
/// Panics if the pass does not consume exactly the transactions step 2
/// measured — the two passes would then be pricing different traces.
fn retime(
    inputs: &TimingInputs,
    transactions: Vec<MeasuredTransaction>,
    cfg: &DramIntegration,
) -> MemorySummary {
    let measured = transactions.len();
    let mut store = LatencyReplayStore::new(transactions, cfg.read_queue, cfg.write_queue);
    let summary = timing(inputs, &mut store);
    assert_eq!(
        store.cursor, measured,
        "step 3 asked for {} transactions, step 2 measured {measured}",
        store.cursor
    );
    summary
}

/// Runs steps 1–3 for one planned layer.
///
/// `inputs` is the planning-pass output; `bandwidth` is the ideal
/// bandwidth used for the step-1 trace generation (the v2 model);
/// `bytes_per_word` converts word addresses to bytes.
pub fn dram_analysis(
    inputs: &TimingInputs,
    bandwidth: f64,
    bytes_per_word: usize,
    cfg: &DramIntegration,
) -> DramAnalysis {
    // Step 1: ideal-memory timing pass, recording the transaction trace.
    let mut recorder = RecordingStore::new(IdealBandwidthStore::new(bandwidth));
    let _v2_summary = timing(inputs, &mut recorder);
    let trace = recorder.into_trace();

    // Step 2: replay through the DRAM simulator.
    let _span = scalesim_obs::span(scalesim_obs::Category::Dram, "re-time")
        .arg("entries", trace.entries().len() as u64);
    let (scheduling, row_policy) = (SchedulingPolicy::default(), RowPolicy::default());
    let (transactions, replayed) = replay(&trace, cfg, bytes_per_word, scheduling, row_policy);
    drop(trace);

    // Step 3: stall-aware timing with measured arrivals and the finite
    // request queues.
    let summary = retime(inputs, transactions, cfg);

    let clock_ps = cfg.spec.timing.tCK_ps;
    DramAnalysis {
        summary,
        avg_latency: replayed.avg_latency(),
        line_requests: replayed.requests as usize,
        throughput_mbps: replayed.stats.throughput_mbps(clock_ps),
        energy: DramEnergyBreakdown::from_stats(&cfg.spec, &replayed.stats, cfg.channels),
        stats: replayed.stats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scalesim_systolic::{
        ArrayShape, CoreSim, Dataflow, GemmShape, MemoryConfig, Segment, SimConfig, Stream,
    };

    fn planned(gemm: GemmShape) -> TimingInputs {
        let mut cfg = SimConfig::builder()
            .array(ArrayShape::new(8, 8))
            .dataflow(Dataflow::WeightStationary)
            .build();
        cfg.memory = MemoryConfig::from_kilobytes(8, 8, 8, 2);
        CoreSim::new(cfg).plan_gemm(gemm).inputs
    }

    #[test]
    fn analysis_produces_consistent_summary() {
        let inputs = planned(GemmShape::new(64, 64, 64));
        let a = dram_analysis(&inputs, 10.0, 2, &DramIntegration::default());
        assert!(a.line_requests > 0);
        assert!(a.avg_latency > 0.0);
        assert!(a.stats.reads > 0);
        assert_eq!(
            a.summary.total_cycles,
            a.summary.ramp_up_cycles
                + a.summary.compute_cycles
                + a.summary.stall_cycles
                + a.summary.drain_tail_cycles
        );
        // The power model sees the same run: dynamic energy from the
        // replayed traffic, background from its duration.
        assert!(a.energy.read_pj > 0.0);
        assert!(a.energy.background_pj > 0.0);
        assert!(a.energy.avg_power_mw() > 0.0);
    }

    #[test]
    fn dram_is_slower_than_infinite_bandwidth() {
        let inputs = planned(GemmShape::new(64, 64, 64));
        let mut ideal = IdealBandwidthStore::new(1.0e9);
        let ideal_summary = timing(&inputs, &mut ideal);
        let a = dram_analysis(&inputs, 10.0, 2, &DramIntegration::default());
        assert!(
            a.summary.total_cycles >= ideal_summary.total_cycles,
            "DRAM-backed {} < ideal {}",
            a.summary.total_cycles,
            ideal_summary.total_cycles
        );
    }

    #[test]
    fn more_channels_do_not_hurt() {
        let inputs = planned(GemmShape::new(96, 96, 96));
        let one = dram_analysis(
            &inputs,
            10.0,
            2,
            &DramIntegration {
                channels: 1,
                ..Default::default()
            },
        );
        let four = dram_analysis(
            &inputs,
            10.0,
            2,
            &DramIntegration {
                channels: 4,
                ..Default::default()
            },
        );
        assert!(
            four.summary.total_cycles <= one.summary.total_cycles + one.summary.total_cycles / 10
        );
    }

    #[test]
    fn bigger_queue_never_slower() {
        let inputs = planned(GemmShape::new(96, 96, 96));
        let small = dram_analysis(
            &inputs,
            10.0,
            2,
            &DramIntegration {
                read_queue: 8,
                write_queue: 8,
                ..Default::default()
            },
        );
        let large = dram_analysis(
            &inputs,
            10.0,
            2,
            &DramIntegration {
                read_queue: 512,
                write_queue: 512,
                ..Default::default()
            },
        );
        assert!(large.summary.total_cycles <= small.summary.total_cycles);
    }

    /// Every sub-range of a stream, for every pairing of a unit (±1) or
    /// wide stride per direction, skewed or not: the runs hold exactly the
    /// segment's words.
    #[test]
    fn runs_hold_exactly_the_segments_words() {
        let strides = [
            (1, 100),
            (u64::MAX, 100),
            (100, u64::MAX),
            (100, 1),
            (1, 1),
            (100, 7),
        ];
        let shapes = [(1, 1), (1, 5), (5, 1), (3, 4), (4, 3), (6, 6)];
        for ((lane_stride, step_stride), (lanes, len)) in
            strides.iter().flat_map(|&s| shapes.map(|shape| (s, shape)))
        {
            for skewed in [true, false] {
                let stream = Stream {
                    base: 5000,
                    lanes,
                    len,
                    lane_stride,
                    step_stride,
                    skewed,
                };
                let words = stream.words();
                for (from, len) in (0..words).flat_map(|f| (0..=words - f).map(move |l| (f, l))) {
                    let segment = Segment { stream, from, len };
                    let (mut want, mut got) = (Vec::new(), Vec::new());
                    segment.for_each(|a| want.push(a));
                    for_each_run(&segment, |first, n| got.extend(first..first + n));
                    want.sort_unstable();
                    got.sort_unstable();
                    assert_eq!(got, want, "{segment:?}");
                }
            }
        }
        // A tile walked row by row is one run per row, not one per word.
        let tile = Segment::whole(Stream {
            base: 0,
            lanes: 8,
            len: 64,
            lane_stride: 64,
            step_stride: 1,
            skewed: true,
        });
        let mut runs = 0;
        for_each_run(&tile, |_, words| {
            assert_eq!(words, 64);
            runs += 1;
        });
        assert_eq!(runs, 8);
    }

    #[test]
    fn line_ranges_cover_the_touched_lines() {
        // 3 B words on 8 B lines, a word wider than a line, and the usual
        // 2 B on 64 B: the ranges cover exactly the lines of the words.
        let stream = Stream {
            base: 1000,
            lanes: 5,
            len: 9,
            lane_stride: 40,
            step_stride: 1,
            skewed: true,
        };
        let segments = [
            Segment::whole(stream),
            Segment::whole(Stream::contiguous(7, 3)),
        ];
        let batch = Batch::new(&segments);
        for (bytes_per_word, line_bytes) in [(3, 8), (16, 8), (2, 64)] {
            let mut want = Vec::new();
            batch.expand_into(&mut want);
            want.iter_mut()
                .for_each(|w| *w = *w * bytes_per_word / line_bytes);
            want.sort_unstable();
            want.dedup();
            let (mut ranges, mut got) = (Vec::new(), Vec::new());
            line_ranges(batch, bytes_per_word, line_bytes, &mut ranges);
            assert!(ranges.is_sorted());
            ranges
                .iter()
                .for_each(|&(first, last)| got.extend(first..=last));
            got.sort_unstable();
            got.dedup();
            assert_eq!(got, want, "{bytes_per_word} B words, {line_bytes} B lines");
        }
    }

    #[test]
    fn core_cycles_is_the_ceiling() {
        for ratio in [0.8, 1.0, 1.2, 2.0, 1.0 / 3.0] {
            for cycles in (0..2000).chain([u32::MAX as u64, (1 << 53) - 1, 1 << 60]) {
                let want = (cycles as f64 / ratio).ceil() as u64;
                assert_eq!(core_cycles(cycles, ratio), want, "{cycles} / {ratio}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "step 2 measured 1")]
    fn a_desynchronised_step_3_is_caught() {
        // Step 3 asks for one measurement per transaction of the plan; a
        // list from any other trace must not be priced silently.
        let inputs = planned(GemmShape::new(64, 64, 64));
        let short = vec![MeasuredTransaction::default()];
        retime(&inputs, short, &DramIntegration::default());
    }

    #[test]
    fn latency_replay_store_is_sequential() {
        let t = |arrival: u64| MeasuredTransaction {
            arrival,
            lines: 1,
            avg_service: 1.0,
            max_service: 1,
        };
        let mut s = LatencyReplayStore::new(vec![t(15), t(18)], 128, 128);
        // Data already arrived at 15 ≥ earliest 10.
        let word = [Segment::whole(Stream::contiguous(1, 1))];
        let word = Batch::new(&word);
        assert_eq!(s.fetch(OperandKind::Ifmap, 10, word), 15);
        // Arrival 18 is in the past relative to earliest 20: floor of 1.
        assert_eq!(s.drain(OperandKind::Ofmap, 20, word), 21);
        // Exhausted → floor of 1 cycle.
        assert_eq!(s.fetch(OperandKind::Ifmap, 30, word), 31);
    }

    #[test]
    fn queue_limit_throttles_large_transactions() {
        // 1024 lines averaging 64-cycle round trips: a 32-deep queue can
        // pump ~0.5 lines/cycle → ≥ 2048 cycles; a 512-deep queue pumps
        // them in ~128.
        let t = MeasuredTransaction {
            arrival: 0,
            lines: 1024,
            avg_service: 64.0,
            max_service: 100,
        };
        let mut small = LatencyReplayStore::new(vec![t], 32, 32);
        let mut large = LatencyReplayStore::new(vec![t], 512, 512);
        let word = [Segment::whole(Stream::contiguous(1, 1))];
        let d_small = small.fetch(OperandKind::Ifmap, 0, Batch::new(&word));
        let d_large = large.fetch(OperandKind::Ifmap, 0, Batch::new(&word));
        assert_eq!(d_small, 2048);
        assert_eq!(d_large, 128);
    }
}
