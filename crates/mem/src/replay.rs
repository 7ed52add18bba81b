//! Trace replay: the §V-B step-2 interface.
//!
//! SCALE-Sim v3 first generates a memory demand trace (step 1), feeds it to
//! the memory simulator to obtain per-request round-trip latencies (step 2),
//! and re-runs the systolic simulation with those latencies and finite
//! request queues (step 3). [`Replay`] implements step 2 as a stream: the
//! caller pushes line requests in request-cycle order, each is injected
//! into a [`DramSystem`] at its cycle (stalling injection when a queue is
//! full, as a real load/store queue would), and each completion is handed
//! to the caller's fold the moment its CAS issues. The replay itself keeps
//! nothing per request: the controller holds each in-flight request once,
//! with the caller's tag and its acceptance cycle, and the wait for a
//! queue slot is added to the latency total when the request is accepted.
//! A replay costs memory for the queues, not for the trace.

use crate::stats::MemStats;
use crate::system::{AccessKind, Completion, DramConfig, DramSystem};

/// Aggregate outcome of a replay.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReplaySummary {
    /// Requests replayed.
    pub requests: u64,
    /// Sum of round-trip latencies (completion − desired issue cycle;
    /// includes queue-full delay).
    pub total_latency: u64,
    /// Aggregate statistics.
    pub stats: MemStats,
    /// The memory clock when the replay ended: one past the cycle of the
    /// last command (or refresh) it issued. The last read's data arrives
    /// `CL` + burst after its CAS, so this can be earlier than the last
    /// [`Completion::cycle`].
    pub end_cycle: u64,
    /// CAS commands that issued without a scheduler window scan (the
    /// simulator's own cost counter; see [`DramSystem::run_cas`]).
    pub run_cas: u64,
}

impl ReplaySummary {
    /// Mean round-trip latency.
    pub fn avg_latency(&self) -> f64 {
        if self.requests == 0 {
            0.0
        } else {
            self.total_latency as f64 / self.requests as f64
        }
    }
}

/// A streaming trace replay through a fresh [`DramSystem`].
#[derive(Debug)]
pub struct Replay {
    sys: DramSystem,
    last_cycle: u64,
    requests: u64,
    total_latency: u64,
}

impl Replay {
    /// Starts a replay through a fresh system built from `config`.
    pub fn new(config: DramConfig) -> Self {
        Self {
            sys: DramSystem::new(config),
            last_cycle: 0,
            requests: 0,
            total_latency: 0,
        }
    }

    /// Injects one request the accelerator wants to issue at `cycle`
    /// (memory-clock domain), its completion to carry `tag`, reporting to
    /// `retire` every request that completes on the way.
    ///
    /// # Panics
    ///
    /// Panics if `cycle` is below an earlier request's.
    pub fn push(
        &mut self,
        cycle: u64,
        byte_addr: u64,
        kind: AccessKind,
        tag: usize,
        retire: &mut impl FnMut(Completion),
    ) {
        assert!(cycle >= self.last_cycle, "trace must be sorted by cycle");
        self.last_cycle = cycle;
        let total_latency = &mut self.total_latency;
        let mut done = |c: Completion| {
            *total_latency += c.service();
            retire(c)
        };
        // Advance time to the desired issue cycle (fast path when idle).
        if self.sys.in_flight() == 0 {
            self.sys.fast_forward_to(cycle);
        } else {
            self.sys.tick_until(cycle, &mut done);
        }
        self.sys.enqueue(kind, byte_addr, tag, &mut done);
        // The round trip starts at `cycle`: add the wait for a slot.
        self.total_latency += self.sys.now() - cycle;
        self.requests += 1;
    }

    /// Runs until every request has completed and returns the totals.
    pub fn finish(mut self, retire: &mut impl FnMut(Completion)) -> ReplaySummary {
        let total_latency = &mut self.total_latency;
        self.sys.drain(&mut |c| {
            *total_latency += c.service();
            retire(c)
        });
        ReplaySummary {
            requests: self.requests,
            total_latency: self.total_latency,
            stats: self.sys.stats(),
            end_cycle: self.sys.now(),
            run_cas: self.sys.run_cas(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::DramSpec;

    /// Replays reads at `(cycle, byte address)`.
    fn replay(config: DramConfig, trace: impl IntoIterator<Item = (u64, u64)>) -> ReplaySummary {
        let mut replay = Replay::new(config);
        for (tag, (cycle, byte_addr)) in trace.into_iter().enumerate() {
            replay.push(cycle, byte_addr, AccessKind::Read, tag, &mut |_| ());
        }
        replay.finish(&mut |_| ())
    }

    fn seq_trace(n: u64, stride: u64, gap: u64) -> impl Iterator<Item = (u64, u64)> + Clone {
        (0..n).map(move |i| (i * gap, i * stride))
    }

    #[test]
    fn sequential_reads_mostly_row_hits() {
        let cfg = DramConfig {
            channels: 1,
            ..Default::default()
        };
        let res = replay(cfg, seq_trace(256, 64, 2));
        assert_eq!(res.requests, 256);
        assert!(
            res.stats.row_hit_rate() > 0.8,
            "sequential stream expected row hits, got {}",
            res.stats.row_hit_rate()
        );
    }

    #[test]
    fn every_request_retires_once_with_its_tag() {
        let mut replay = Replay::new(DramConfig {
            read_queue: 4,
            write_queue: 4,
            ..Default::default()
        });
        let mut seen = vec![0u32; 300];
        let mut total_service = 0;
        let mut retire = |r: Completion| {
            seen[r.tag] += 1;
            total_service += r.service();
            assert!(r.cycle >= r.service());
        };
        for tag in 0..300usize {
            let kind = if tag % 3 == 0 {
                AccessKind::Write
            } else {
                AccessKind::Read
            };
            // Two rows of one bank, so completions leave out of order.
            let addr = (tag as u64 % 2) * (1 << 20) + tag as u64 * 64;
            replay.push(tag as u64 / 8, addr, kind, tag, &mut retire);
        }
        let summary = replay.finish(&mut retire);
        assert!(seen.iter().all(|&n| n == 1), "{seen:?}");
        assert_eq!(summary.requests, 300);
        // Round trips include the wait for a queue slot, service does not.
        assert!(summary.total_latency >= total_service);
        assert_eq!(summary.stats.reads + summary.stats.writes, 300);
    }

    #[test]
    fn random_reads_mostly_misses_or_conflicts() {
        let cfg = DramConfig {
            channels: 1,
            ..Default::default()
        };
        // Stride of a prime number of rows scatters across rows of the
        // same banks.
        let spec = DramSpec::ddr4_2400();
        let row_stride = (spec.org.columns / spec.org.burst_length) as u64
            * spec.org.burst_bytes() as u64
            * spec.org.banks() as u64;
        let trace = (0..128u64).map(|i| (i, (i * 7919) % 4096 * row_stride));
        let res = replay(cfg, trace);
        assert!(
            res.stats.row_hit_rate() < 0.5,
            "row-thrashing stream unexpectedly hit-heavy: {}",
            res.stats.row_hit_rate()
        );
        assert!(res.avg_latency() > 20.0);
    }

    #[test]
    fn small_queue_injects_backpressure_latency() {
        let burst = (0..200u64).map(|i| (0, i * 8192 * 3));
        let small = replay(
            DramConfig {
                read_queue: 4,
                write_queue: 4,
                ..Default::default()
            },
            burst.clone(),
        );
        let large = replay(
            DramConfig {
                read_queue: 512,
                write_queue: 512,
                ..Default::default()
            },
            burst,
        );
        // With a tiny queue, later requests wait at the queue head; their
        // measured round-trip latency includes that wait either way, but
        // total completion should not differ much — the *acceptance* stalls
        // show up in step 3. Here we just check both finish and the small
        // queue is never faster.
        assert!(small.end_cycle >= large.end_cycle);
    }

    #[test]
    fn more_channels_cut_end_cycle() {
        let trace = seq_trace(512, 64, 1);
        let one = replay(
            DramConfig {
                channels: 1,
                ..Default::default()
            },
            trace.clone(),
        );
        let four = replay(
            DramConfig {
                channels: 4,
                ..Default::default()
            },
            trace,
        );
        assert!(
            four.end_cycle < one.end_cycle,
            "4ch {} vs 1ch {}",
            four.end_cycle,
            one.end_cycle
        );
    }

    /// An idle jump skips refreshes without forgiving them: the ticks
    /// after a gap of ten `tREFI` issue ten all-bank refreshes back to
    /// back, and the read that ended the gap waits out `tRFC` behind them.
    /// Pinned as the model stands, so that changing it is deliberate. The
    /// summary's end cycle is the clock after the last CAS, before that
    /// read's data arrives.
    #[test]
    fn refreshes_skipped_by_an_idle_jump_are_paid_after_it() {
        let config = DramConfig::default();
        let gap = 10 * config.spec.timing.tREFI + 5;
        let mut replay = Replay::new(config);
        let mut done = Vec::new();
        let mut retire = |c: Completion| done.push((c.service(), c.cycle));
        replay.push(0, 0, AccessKind::Read, 0, &mut retire);
        replay.push(gap, 0, AccessKind::Read, 1, &mut retire);
        let summary = replay.finish(&mut retire);
        assert_eq!(summary.stats.refreshes, 10);
        assert_eq!(done, [(38, 38), (453, gap + 453)]);
        assert_eq!(summary.end_cycle, gap + 433);
    }

    #[test]
    #[should_panic(expected = "sorted")]
    fn unsorted_trace_panics() {
        let _ = replay(DramConfig::default(), [(10, 0), (5, 64)]);
    }
}
