//! The multi-channel DRAM system with finite request queues.
//!
//! [`DramSystem`] is the integration surface SCALE-Sim v3 uses: requests
//! enter through bounded read/write queues (§V-A2 — "the finite size of
//! these request queues stalls the accelerator when the pending queue is
//! full"), are decoded to a channel, scheduled by that channel's
//! controller, and complete with a round-trip timestamp.

use crate::addrmap::AddressMapping;
use crate::controller::{ChannelController, RowPolicy, SchedulingPolicy};
use crate::spec::DramSpec;
use crate::stats::MemStats;

/// Identifier of an in-flight request.
pub type RequestId = u64;

/// Direction of a memory request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessKind {
    /// Data travels from DRAM to the accelerator.
    Read,
    /// Data travels from the accelerator to DRAM.
    Write,
}

/// System-level configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DramConfig {
    /// Device specification (timing + per-channel organization).
    pub spec: DramSpec,
    /// Number of channels.
    pub channels: usize,
    /// Address interleaving scheme.
    pub mapping: AddressMapping,
    /// Capacity of the read request queue (paper default: 128).
    pub read_queue: usize,
    /// Capacity of the write request queue (paper default: 128).
    pub write_queue: usize,
    /// Command scheduling policy.
    pub scheduling: SchedulingPolicy,
    /// Row-buffer policy.
    pub row_policy: RowPolicy,
}

impl Default for DramConfig {
    fn default() -> Self {
        Self {
            spec: DramSpec::ddr4_2400(),
            channels: 1,
            mapping: AddressMapping::default(),
            read_queue: 128,
            write_queue: 128,
            scheduling: SchedulingPolicy::default(),
            row_policy: RowPolicy::default(),
        }
    }
}

/// A completed request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Completion {
    /// The request's identifier.
    pub id: RequestId,
    /// Memory cycle at which the request completed.
    pub cycle: u64,
    /// Request direction.
    pub kind: AccessKind,
}

/// Cycle-accurate multi-channel DRAM system.
#[derive(Debug)]
pub struct DramSystem {
    config: DramConfig,
    channels: Vec<ChannelController>,
    now: u64,
    next_id: RequestId,
    reads_in_flight: usize,
    writes_in_flight: usize,
    completions: Vec<Completion>,
}

impl DramSystem {
    /// Builds the system.
    ///
    /// # Panics
    ///
    /// Panics if `channels == 0` or a queue capacity is zero.
    pub fn new(config: DramConfig) -> Self {
        assert!(config.channels > 0, "need at least one channel");
        assert!(
            config.read_queue > 0 && config.write_queue > 0,
            "queues must be non-empty"
        );
        // Each channel's local queue is bounded by the global queue sizes;
        // the global read/write caps are enforced in try_enqueue.
        let per_channel = config.read_queue + config.write_queue;
        let channels = (0..config.channels)
            .map(|_| {
                ChannelController::new(
                    config.spec,
                    config.scheduling,
                    config.row_policy,
                    per_channel,
                )
            })
            .collect();
        Self {
            config,
            channels,
            now: 0,
            next_id: 0,
            reads_in_flight: 0,
            writes_in_flight: 0,
            completions: Vec::new(),
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &DramConfig {
        &self.config
    }

    /// Current memory cycle.
    pub fn now(&self) -> u64 {
        self.now
    }

    /// Requests currently in flight (both directions).
    pub fn in_flight(&self) -> usize {
        self.reads_in_flight + self.writes_in_flight
    }

    /// Whether a request of `kind` can be accepted right now.
    pub fn can_accept(&self, kind: AccessKind) -> bool {
        match kind {
            AccessKind::Read => self.reads_in_flight < self.config.read_queue,
            AccessKind::Write => self.writes_in_flight < self.config.write_queue,
        }
    }

    /// Tries to enqueue a request; returns its id, or `None` when the
    /// corresponding queue is full (the accelerator must stall and retry).
    pub fn try_enqueue(&mut self, kind: AccessKind, byte_addr: u64) -> Option<RequestId> {
        if !self.can_accept(kind) {
            return None;
        }
        let daddr =
            self.config
                .mapping
                .decode(byte_addr, &self.config.spec.org, self.config.channels);
        let ch = &mut self.channels[daddr.channel];
        if !ch.can_accept() {
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

    /// Advances the system by one memory cycle.
    pub fn tick(&mut self) {
        for ch in &mut self.channels {
            ch.tick(self.now);
            for (id, cycle, kind) in ch.drain_completions() {
                match kind {
                    AccessKind::Read => self.reads_in_flight -= 1,
                    AccessKind::Write => self.writes_in_flight -= 1,
                }
                self.completions.push(Completion { id, cycle, kind });
            }
        }
        self.now += 1;
    }

    /// Jumps the clock to the next cycle at which any channel can do work
    /// (no-op when something is already pending this cycle).
    pub fn skip_to_next_event(&mut self) {
        let jump = self.next_event_cycle();
        if jump > self.now {
            self.now = jump;
        }
    }

    /// The next cycle at which any channel can do work.
    fn next_event_cycle(&self) -> u64 {
        self.channels
            .iter()
            .map(|c| c.next_event())
            .min()
            .unwrap_or(u64::MAX)
    }

    /// Advances until `cycle` (no-op if already past), skipping stretches
    /// where no channel can issue anything.
    pub fn tick_until(&mut self, cycle: u64) {
        while self.now < cycle {
            let jump = self.next_event_cycle().min(cycle);
            if jump > self.now {
                self.now = jump;
            }
            if self.now < cycle {
                self.tick();
            }
        }
    }

    /// Runs until every in-flight request has completed.
    pub fn drain(&mut self) {
        while self.in_flight() > 0 {
            let jump = self.next_event_cycle();
            if jump > self.now {
                self.now = jump;
            }
            self.tick();
        }
    }

    /// Takes all completions recorded so far.
    pub fn pop_completions(&mut self) -> Vec<Completion> {
        self.drain_completions().collect()
    }

    /// Hands out the completions recorded so far, keeping their buffer
    /// (the allocation-free form trace replay calls after every tick).
    pub fn drain_completions(&mut self) -> impl Iterator<Item = Completion> + '_ {
        self.completions.drain(..)
    }

    /// CAS commands, over all channels, that issued without a window scan
    /// (see [`ChannelController::run_cas`]).
    pub fn run_cas(&self) -> u64 {
        self.channels.iter().map(|c| c.run_cas()).sum()
    }

    /// Aggregated statistics over all channels (including in-flight
    /// row-open intervals, so the power model sees active-standby time for
    /// rows left open at the end of the run).
    pub fn stats(&self) -> MemStats {
        let mut total = MemStats::default();
        for ch in &self.channels {
            total.merge(&ch.stats_snapshot());
        }
        total
    }

    /// Starts command-trace recording on every channel
    /// (see [`crate::cmdtrace`]).
    ///
    /// # Panics
    ///
    /// Panics under the closed-page row policy (auto-precharge has no
    /// explicit issue cycle to log).
    pub fn enable_command_logs(&mut self) {
        for ch in &mut self.channels {
            ch.enable_command_log();
        }
    }

    /// Per-channel command logs (empty vec entries when logging is off).
    pub fn command_logs(&self) -> Vec<&crate::cmdtrace::CommandLog> {
        self.channels
            .iter()
            .filter_map(|c| c.command_log())
            .collect()
    }

    /// Whether all queues are empty (safe to fast-forward time).
    pub fn is_idle(&self) -> bool {
        self.in_flight() == 0
    }

    /// Jumps the clock forward when idle (used by trace replay between
    /// bursts of requests). Does nothing if requests are in flight.
    pub fn fast_forward_to(&mut self, cycle: u64) {
        if self.is_idle() && cycle > self.now {
            // Account refreshes skipped during the jump so the next tick's
            // refresh bookkeeping stays roughly aligned.
            self.now = cycle;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_config() -> DramConfig {
        DramConfig {
            spec: DramSpec::ddr4_2400(),
            channels: 2,
            read_queue: 4,
            write_queue: 4,
            ..Default::default()
        }
    }

    #[test]
    fn read_completes_with_expected_cold_latency() {
        let mut sys = DramSystem::new(small_config());
        let id = sys.try_enqueue(AccessKind::Read, 0).unwrap();
        sys.drain();
        let done = sys.pop_completions();
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].id, id);
        let t = sys.config().spec.timing;
        assert_eq!(
            done[0].cycle,
            t.tRCD + t.CL + sys.config().spec.org.burst_cycles()
        );
    }

    #[test]
    fn queue_backpressure() {
        let mut sys = DramSystem::new(small_config());
        for i in 0..4 {
            assert!(
                sys.try_enqueue(AccessKind::Read, i * 4096).is_some(),
                "request {i} rejected early"
            );
        }
        assert!(
            sys.try_enqueue(AccessKind::Read, 1 << 20).is_none(),
            "5th read must be rejected (queue=4)"
        );
        // Writes use a separate queue.
        assert!(sys.try_enqueue(AccessKind::Write, 0).is_some());
        sys.drain();
        assert!(sys.try_enqueue(AccessKind::Read, 0).is_some());
    }

    #[test]
    fn channels_split_requests() {
        let mut sys = DramSystem::new(small_config());
        // RoBaRaCoCh: bursts 0 and 64 land in channels 0 and 1.
        sys.try_enqueue(AccessKind::Read, 0).unwrap();
        sys.try_enqueue(AccessKind::Read, 64).unwrap();
        sys.drain();
        let done = sys.pop_completions();
        assert_eq!(done.len(), 2);
        // Both complete at the same cycle — perfect channel parallelism.
        assert_eq!(done[0].cycle, done[1].cycle);
    }

    #[test]
    fn more_channels_more_throughput() {
        let run = |channels: usize| -> u64 {
            let mut sys = DramSystem::new(DramConfig {
                channels,
                read_queue: 64,
                write_queue: 64,
                ..Default::default()
            });
            let mut pending = 0;
            let mut addr = 0u64;
            let total = 512;
            let mut issued = 0;
            while issued < total || pending > 0 {
                while issued < total {
                    match sys.try_enqueue(AccessKind::Read, addr) {
                        Some(_) => {
                            addr += 64;
                            issued += 1;
                            pending += 1;
                        }
                        None => break,
                    }
                }
                sys.tick();
                pending -= sys.pop_completions().len();
            }
            sys.now()
        };
        let one = run(1);
        let four = run(4);
        assert!(
            four * 2 < one,
            "4 channels ({four}) should be >2x faster than 1 ({one})"
        );
    }

    #[test]
    fn stats_aggregate_across_channels() {
        let mut sys = DramSystem::new(DramConfig {
            channels: 2,
            read_queue: 16,
            write_queue: 16,
            ..Default::default()
        });
        for i in 0..8 {
            sys.try_enqueue(AccessKind::Read, i * 64).unwrap();
        }
        sys.drain();
        let stats = sys.stats();
        assert_eq!(stats.reads, 8);
        assert_eq!(stats.bytes_transferred, 8 * 64);
        assert!(stats.avg_read_latency() > 0.0);
    }

    #[test]
    fn dual_rank_never_loses_on_scattered_traffic() {
        // Twice the banks behind the same bus: scattered (row-thrashing)
        // traffic gains bank-level parallelism; it must never be slower.
        let run = |spec: DramSpec| -> u64 {
            let capacity = spec.org.capacity_bytes();
            let mut sys = DramSystem::new(DramConfig {
                spec,
                channels: 1,
                read_queue: 64,
                write_queue: 64,
                ..Default::default()
            });
            // Large-stride scatter: consecutive requests land in far-apart
            // rows, defeating the row buffer on a single rank.
            let stride = 1_048_583u64; // prime, > one row
            let mut pending = 0usize;
            for i in 0..256u64 {
                let addr = ((i * stride * 64) % capacity) & !63;
                while sys.try_enqueue(AccessKind::Read, addr).is_none() {
                    sys.tick();
                    pending -= sys.pop_completions().len();
                }
                pending += 1;
            }
            sys.drain();
            pending -= sys.pop_completions().len();
            assert_eq!(pending, 0);
            sys.now()
        };
        let single = run(DramSpec::ddr4_2400());
        let dual = run(DramSpec::ddr4_2400_2rank());
        assert!(
            dual <= single,
            "dual-rank ({dual}) slower than single-rank ({single})"
        );
    }

    #[test]
    fn fast_forward_only_when_idle() {
        let mut sys = DramSystem::new(small_config());
        sys.fast_forward_to(1000);
        assert_eq!(sys.now(), 1000);
        sys.try_enqueue(AccessKind::Read, 0).unwrap();
        sys.fast_forward_to(2000);
        assert_eq!(sys.now(), 1000, "must not jump with work in flight");
    }
}
