//! The §V-B three-step main-memory flow.
//!
//! * **Step 1** — the systolic timing pass runs against ideal memory with a
//!   [`RecordingStore`], producing the demand trace (request cycle, word
//!   addresses, direction) exactly as the paper describes.
//! * **Step 2** — [`dram_analysis`] coalesces words into burst-aligned line
//!   requests, converts core cycles to memory cycles and replays them
//!   through the cycle-accurate DRAM model, yielding per-request
//!   round-trip latencies and memory statistics (throughput, row-buffer
//!   behaviour), with finite-queue back-pressure included.
//! * **Step 3** — [`LatencyReplayStore`] feeds those measured latencies
//!   back into a second systolic timing pass: the same deterministic
//!   sequence of prefetch/drain transactions now completes after its
//!   measured DRAM delay, producing the stall-aware end-to-end cycles.

use crate::config::DramIntegration;
use scalesim_mem::{
    replay_trace, AccessKind as MemAccess, DramConfig, DramEnergyBreakdown, MemStats, TraceRequest,
};
use scalesim_systolic::{
    timing, AccessKind, BackingStore, Batch, IdealBandwidthStore, MemorySummary, OperandKind,
    RecordingStore, TimingInputs, TraceRecorder,
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

/// Converts a word-granular trace into burst-aligned line requests,
/// returning `(requests_sorted_by_cycle, entry_of_each_request)`. This is
/// the one place a transaction's segments become addresses: each is
/// expanded into a scratch buffer, coalesced to lines and forgotten.
pub fn linearize(
    trace: &TraceRecorder,
    cfg: &DramIntegration,
    bytes_per_word: usize,
) -> (Vec<TraceRequest>, Vec<usize>) {
    let line_bytes = cfg.spec.org.burst_bytes() as u64;
    let ratio = cfg.mem_cycles_per_core_cycle;
    let mut tagged: Vec<(TraceRequest, usize)> = Vec::new();
    let mut lines: Vec<u64> = Vec::new();
    for (entry_idx, e) in trace.entries().iter().enumerate() {
        let mem_cycle = (e.issue as f64 * ratio) as u64;
        let kind = match e.kind {
            AccessKind::Read => MemAccess::Read,
            AccessKind::Write => MemAccess::Write,
        };
        // One DRAM burst per *distinct* line touched by the transaction
        // (the word order within a prefetch chunk interleaves operand
        // rows, so dedup must be set-based, not run-based).
        trace.batch_of(e).expand_into(&mut lines);
        for word in &mut lines {
            *word = *word * bytes_per_word as u64 / line_bytes;
        }
        lines.sort_unstable();
        lines.dedup();
        for &line in &lines {
            tagged.push((
                TraceRequest {
                    cycle: mem_cycle,
                    byte_addr: line * line_bytes,
                    kind,
                },
                entry_idx,
            ));
        }
    }
    tagged.sort_by_key(|(r, _)| r.cycle);
    let entries = tagged.iter().map(|&(_, i)| i).collect();
    let requests = tagged.into_iter().map(|(r, _)| r).collect();
    (requests, entries)
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
    let n_entries = trace.entries().len();

    // Step 2: replay through the DRAM simulator.
    let _span = scalesim_obs::span(scalesim_obs::Category::Dram, "re-time")
        .arg("entries", n_entries as u64);
    let (requests, entry_of) = linearize(&trace, cfg, bytes_per_word);
    let dram_cfg = DramConfig {
        spec: cfg.spec,
        channels: cfg.channels,
        mapping: cfg.mapping,
        read_queue: cfg.read_queue,
        write_queue: cfg.write_queue,
        ..DramConfig::default()
    };
    let replay = replay_trace(dram_cfg, &requests);

    // Scatter per-line measurements back to per-transaction figures
    // (arrival = max line completion; service stats for the queue model),
    // converted to core cycles.
    let ratio = cfg.mem_cycles_per_core_cycle;
    let mut tx = vec![MeasuredTransaction::default(); n_entries];
    let mut service_sum = vec![0f64; n_entries];
    for (slot, &entry) in entry_of.iter().enumerate() {
        let done_mem = requests[slot].cycle + replay.latencies[slot];
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

    // Step 3: stall-aware timing with measured arrivals and the finite
    // request queues.
    let mut store = LatencyReplayStore::new(tx, cfg.read_queue, cfg.write_queue);
    let summary = timing(inputs, &mut store);

    let clock_ps = cfg.spec.timing.tCK_ps;
    DramAnalysis {
        summary,
        avg_latency: replay.avg_latency(),
        line_requests: requests.len(),
        throughput_mbps: replay.stats.throughput_mbps(clock_ps),
        energy: DramEnergyBreakdown::from_stats(&cfg.spec, &replay.stats, cfg.channels),
        stats: replay.stats,
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
