//! The multi-channel DRAM system with finite request queues.
//!
//! [`DramSystem`] is the integration surface SCALE-Sim v3 uses: requests
//! enter through bounded read/write queues (§V-A2 — "the finite size of
//! these request queues stalls the accelerator when the pending queue is
//! full"), are decoded to a channel, scheduled by that channel's
//! controller, and complete with a round-trip timestamp.
//!
//! There is one way out for a completion: every call that moves the clock
//! takes a `done` callback and hands it each request's [`Completion`] in
//! the tick that issued its CAS (channel order within a tick). Each
//! channel issues at most one command per cycle, so nothing is buffered
//! between the controller and the caller. A request is remembered once,
//! by its channel's controller, together with the caller's tag.

use crate::addrmap::AddressMapping;
use crate::controller::{ChannelController, RowPolicy, SchedulingPolicy};
use crate::spec::DramSpec;
use crate::stats::MemStats;

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
            spec: DramSpec::DDR4_2400,
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
    /// The tag the request was queued with.
    pub tag: usize,
    /// Memory cycle at which the request completed: its read data's last
    /// beat, or a write's CAS.
    pub cycle: u64,
    /// Request direction.
    pub kind: AccessKind,
    /// Memory cycle at which the queue accepted the request.
    pub(crate) accepted: u64,
}

impl Completion {
    /// In-memory service latency: completion − queue acceptance, without
    /// the wait for a queue slot.
    pub fn service(&self) -> u64 {
        self.cycle - self.accepted
    }
}

/// Cycle-accurate multi-channel DRAM system.
#[derive(Debug)]
pub struct DramSystem {
    config: DramConfig,
    channels: Vec<ChannelController>,
    now: u64,
    reads_in_flight: usize,
    writes_in_flight: usize,
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
        // The read/write caps bound what any one channel can hold.
        let channels = (0..config.channels)
            .map(|_| ChannelController::new(config.spec, config.scheduling, config.row_policy))
            .collect();
        Self {
            config,
            channels,
            now: 0,
            reads_in_flight: 0,
            writes_in_flight: 0,
        }
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

    /// Queues a request of `kind` for `byte_addr`, its completion to carry
    /// `tag`. While the queue of that kind is full the clock advances from
    /// event to event (the accelerator stalls), handing every completion
    /// on the way to `done`; the request is accepted at [`now`](Self::now)
    /// as this returns.
    pub fn enqueue(
        &mut self,
        kind: AccessKind,
        byte_addr: u64,
        tag: usize,
        done: &mut impl FnMut(Completion),
    ) {
        while !self.can_accept(kind) {
            self.now = self.now.max(self.next_event_cycle());
            self.tick(done);
        }
        let (org, channels) = (&self.config.spec.org, self.config.channels);
        let daddr = self.config.mapping.decode(byte_addr, org, channels);
        self.channels[daddr.channel].enqueue(tag, daddr, kind, self.now);
        match kind {
            AccessKind::Read => self.reads_in_flight += 1,
            AccessKind::Write => self.writes_in_flight += 1,
        }
    }

    /// Advances the system by one memory cycle, handing `done` the
    /// completion of every CAS the channels issue in it.
    pub fn tick(&mut self, done: &mut impl FnMut(Completion)) {
        for ch in &mut self.channels {
            if let Some(completion) = ch.tick(self.now) {
                match completion.kind {
                    AccessKind::Read => self.reads_in_flight -= 1,
                    AccessKind::Write => self.writes_in_flight -= 1,
                }
                done(completion);
            }
        }
        self.now += 1;
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
    pub(crate) fn tick_until(&mut self, cycle: u64, done: &mut impl FnMut(Completion)) {
        while self.now < cycle {
            self.now = self.now.max(self.next_event_cycle().min(cycle));
            if self.now < cycle {
                self.tick(done);
            }
        }
    }

    /// Runs until every in-flight request has completed.
    pub fn drain(&mut self, done: &mut impl FnMut(Completion)) {
        while self.in_flight() > 0 {
            self.now = self.now.max(self.next_event_cycle());
            self.tick(done);
        }
    }

    /// CAS commands, over all channels, that issued without a window scan
    /// (see `ChannelController::run_cas`).
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
    /// (see `crate::cmdtrace`).
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

    /// Jumps the clock forward when idle (used by trace replay between
    /// bursts of requests). Does nothing if requests are in flight.
    ///
    /// The jump moves the clock only: the refreshes due in the skipped
    /// stretch are neither issued nor forgiven. Each controller still owes
    /// every `tREFI` boundary it passed, so after a gap of `k·tREFI` the
    /// next `k` ticks each issue an all-bank refresh, back to back, and
    /// the first request after the gap waits `tRFC` behind the last one.
    pub(crate) fn fast_forward_to(&mut self, cycle: u64) {
        if self.in_flight() == 0 && cycle > self.now {
            self.now = cycle;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_config() -> DramConfig {
        DramConfig {
            spec: DramSpec::DDR4_2400,
            channels: 2,
            read_queue: 4,
            write_queue: 4,
            ..Default::default()
        }
    }

    /// Every completion `drain` hands out.
    fn drained(sys: &mut DramSystem) -> Vec<Completion> {
        let mut done = Vec::new();
        sys.drain(&mut |c| done.push(c));
        done
    }

    #[test]
    fn read_completes_with_expected_cold_latency() {
        let mut sys = DramSystem::new(small_config());
        sys.enqueue(AccessKind::Read, 0, 7, &mut |_| ());
        let done = drained(&mut sys);
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].tag, 7);
        let t = sys.config.spec.timing;
        assert_eq!(
            done[0].cycle,
            t.tRCD + t.CL + sys.config.spec.org.burst_cycles()
        );
    }

    #[test]
    fn queue_backpressure() {
        let mut sys = DramSystem::new(small_config());
        for i in 0..4 {
            assert!(
                sys.can_accept(AccessKind::Read),
                "request {i} rejected early"
            );
            sys.enqueue(AccessKind::Read, i * 4096, 0, &mut |_| panic!("no wait"));
        }
        assert!(
            !sys.can_accept(AccessKind::Read),
            "5th read must wait (queue=4)"
        );
        // Writes use a separate queue.
        assert!(sys.can_accept(AccessKind::Write));
        // The 5th read is accepted once the first CAS frees a slot.
        let mut freed = 0;
        sys.enqueue(AccessKind::Read, 1 << 20, 0, &mut |_| freed += 1);
        assert_eq!(freed, 1);
        assert_eq!(sys.in_flight(), 4);
    }

    #[test]
    fn channels_split_requests() {
        let mut sys = DramSystem::new(small_config());
        // RoBaRaCoCh: bursts 0 and 64 land in channels 0 and 1.
        sys.enqueue(AccessKind::Read, 0, 0, &mut |_| ());
        sys.enqueue(AccessKind::Read, 64, 1, &mut |_| ());
        let done = drained(&mut sys);
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
            for i in 0..512 {
                sys.enqueue(AccessKind::Read, i * 64, 0, &mut |_| ());
            }
            sys.drain(&mut |_| ());
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
            sys.enqueue(AccessKind::Read, i * 64, 0, &mut |_| ());
        }
        sys.drain(&mut |_| ());
        let stats = sys.stats();
        assert_eq!(stats.reads, 8);
        assert_eq!(stats.bytes_transferred, 8 * 64);
        assert!(stats.total_read_latency > 0);
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
            let mut completed = 0;
            for i in 0..256u64 {
                let addr = ((i * stride * 64) % capacity) & !63;
                sys.enqueue(AccessKind::Read, addr, 0, &mut |_| completed += 1);
            }
            sys.drain(&mut |_| completed += 1);
            assert_eq!(completed, 256);
            sys.now()
        };
        let single = run(DramSpec::DDR4_2400);
        let dual = run(DramSpec::DDR4_2400_2RANK);
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
        sys.enqueue(AccessKind::Read, 0, 0, &mut |_| ());
        sys.fast_forward_to(2000);
        assert_eq!(sys.now(), 1000, "must not jump with work in flight");
    }
}
