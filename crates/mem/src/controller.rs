//! Per-channel memory controller: command scheduling over the bank array.
//!
//! The controller holds one request queue per channel and issues at most one
//! DRAM command per memory cycle, honoring bank timing registers
//! ([`crate::bank::Bank`]), rank-level activation constraints (`tRRD`,
//! `tFAW`), CAS-to-CAS spacing (`tCCD_S/L`) and data-bus occupancy.
//!
//! Scheduling follows FR-FCFS by default: a ready row-hit CAS anywhere in
//! the scan window wins; otherwise the oldest request that can make
//! progress (PRE or ACT) is advanced. Plain FCFS and a closed-page row
//! policy are available for the ablation benches.
//!
//! Cycle accuracy is kept by moving from event to event, not by looking at
//! every queue slot every cycle. Each command is legal from a cycle that
//! the bank, rank and bus registers fix, so after every issue the
//! controller works out its next move — which command, at which cycle —
//! from the state the issue just wrote, and keeps it until something it
//! depended on changes: a refresh, a request arriving *inside* the scan
//! window, or a tick that comes later than planned. Ticks before that
//! cycle do nothing; the tick at it issues without another look. Requests
//! queued back to back for one (bank, row, direction) form a run that is
//! looked at once, so a streamed row that fills the window is decided by
//! its first request alone and retires at its `max(tCCD, burst)` cadence.
//! The per-tick scan this replaces is kept in `tests/invariants.rs` as the
//! reference: same completions, same statistics, same command log.

use crate::addrmap::DramAddr;
use crate::bank::{Bank, BankState};
use crate::cmdtrace::{CommandKind, CommandLog};
use crate::spec::DramSpec;
use crate::stats::MemStats;
use crate::system::{AccessKind, RequestId};
use std::collections::VecDeque;

/// Request scheduling policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SchedulingPolicy {
    /// First-ready, first-come-first-served: row hits bypass older requests.
    #[default]
    FrFcfs,
    /// Strict arrival order: only the oldest request may issue commands.
    Fcfs,
}

/// Row-buffer management policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RowPolicy {
    /// Keep rows open after a CAS (exploits streaming locality).
    #[default]
    OpenPage,
    /// Precharge immediately after every CAS.
    ClosedPage,
}

/// Scheduler visibility window: FR-FCFS considers at most this many queued
/// requests per cycle, matching the bounded associative search of real
/// controller schedulers (and bounding simulation cost when the paper's
/// 512-entry request queues are saturated).
const SCAN_WINDOW: usize = 32;

/// One queued request.
#[derive(Debug, Clone)]
struct QueuedRequest {
    id: RequestId,
    arrive: u64,
    classified: bool,
}

/// Requests queued back to back for one (bank, row, direction). At any
/// instant they all need the same command, legal from the same cycle, so
/// the scheduler looks at a run, never at its members.
#[derive(Debug, Clone, Copy)]
struct Run {
    /// Rank, bank group, bank and row the run's requests share (the
    /// column is the first request's).
    addr: DramAddr,
    /// Flat bank index of `addr` within the channel.
    bank: usize,
    kind: AccessKind,
    /// Requests in the run, at least one.
    len: usize,
}

impl Run {
    fn same_target(&self, other: &Run) -> bool {
        self.bank == other.bank && self.addr.row == other.addr.row && self.kind == other.kind
    }
}

/// A command for the first request of a run.
#[derive(Debug, Clone, Copy)]
struct Issue {
    /// Index of the run in `runs`.
    run: usize,
    /// Index of its first request in `queue`.
    request: usize,
    command: CommandKind,
}

/// The scheduler's next move, valid until the queue's window or the bank
/// state changes.
#[derive(Debug, Clone, Copy)]
struct Plan {
    /// The cycle of the move; nothing can issue before it.
    at: u64,
    /// The command to issue then; none when the window has to be read
    /// (again) at that cycle, or a refresh comes first.
    issue: Option<Issue>,
}

/// One channel's controller and bank array.
#[derive(Debug)]
pub struct ChannelController {
    spec: DramSpec,
    policy: SchedulingPolicy,
    row_policy: RowPolicy,
    banks: Vec<Bank>,
    /// Recent ACT timestamps per rank (bounded to 4 for tFAW).
    act_window: Vec<VecDeque<u64>>,
    /// Last ACT (cycle, bank_group) per rank, for tRRD.
    last_act: Vec<Option<(u64, usize)>>,
    /// Last CAS (cycle, bank_group) on the channel, for tCCD.
    last_cas: Option<(u64, usize)>,
    /// Cycle at which the current data-bus transfer ends.
    bus_data_end: u64,
    next_refresh: u64,
    queue: VecDeque<QueuedRequest>,
    /// `queue` cut into runs of equal (bank, row, direction), in order.
    /// While the first run covers the scan window it alone decides what
    /// issues, so a streamed row retires at its CAS cadence.
    runs: VecDeque<Run>,
    completions: Vec<(RequestId, u64, AccessKind)>,
    stats: MemStats,
    max_queue: usize,
    /// Banks currently holding an open row (union over the channel), used
    /// to accumulate `MemStats::row_open_cycles` exactly.
    open_banks: usize,
    /// Cycle at which the channel last went from all-closed to any-open.
    any_open_since: u64,
    /// Optional command trace (see [`crate::cmdtrace`]).
    log: Option<CommandLog>,
    /// The next move, worked out after every issue from the state it
    /// wrote: `tick` is a no-op before `planned.at` (skipped cycles
    /// provably cannot issue anything) and issues `planned.issue` at it.
    planned: Plan,
    /// CAS commands issued while the first run covered the scan window.
    run_cas: u64,
}

impl ChannelController {
    /// Creates a controller for one channel.
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
            runs: VecDeque::new(),
            completions: Vec::new(),
            stats: MemStats::default(),
            max_queue,
            open_banks: 0,
            any_open_since: 0,
            log: None,
            planned: Plan { at: 0, issue: None },
            run_cas: 0,
            spec,
            policy,
            row_policy,
        }
    }

    /// Whether the channel can accept another request.
    pub fn can_accept(&self) -> bool {
        self.queue.len() < self.max_queue
    }

    /// Whether nothing is queued.
    pub fn is_idle(&self) -> bool {
        self.queue.is_empty()
    }

    /// Queue entries the scheduler looks at.
    fn window(&self) -> usize {
        match self.policy {
            SchedulingPolicy::FrFcfs => self.queue.len().min(SCAN_WINDOW),
            SchedulingPolicy::Fcfs => self.queue.len().min(1),
        }
    }

    /// Accepts a request (caller must check [`can_accept`](Self::can_accept)).
    pub fn enqueue(&mut self, id: RequestId, addr: DramAddr, kind: AccessKind, now: u64) {
        debug_assert!(self.can_accept());
        // The scheduler only sees a request that lands inside its window;
        // behind it, nothing changes until an issue moves it up (and every
        // issue plans anew).
        let visible = match self.policy {
            SchedulingPolicy::FrFcfs => self.queue.len() < SCAN_WINDOW,
            SchedulingPolicy::Fcfs => self.queue.is_empty(),
        };
        if visible {
            self.planned = Plan {
                at: self.planned.at.min(now),
                issue: None,
            };
        }
        let run = Run {
            addr,
            bank: addr.flat_bank(&self.spec.org),
            kind,
            len: 1,
        };
        match self.runs.back_mut() {
            Some(last) if last.same_target(&run) => last.len += 1,
            _ => self.runs.push_back(run),
        }
        self.queue.push_back(QueuedRequest {
            id,
            arrive: now,
            classified: false,
        });
    }

    /// Hands out the completions recorded so far: `(request, completion
    /// cycle, direction)`.
    pub fn drain_completions(&mut self) -> impl Iterator<Item = (RequestId, u64, AccessKind)> + '_ {
        self.completions.drain(..)
    }

    /// Channel statistics so far.
    /// Statistics including the still-open row interval (banks that were
    /// never precharged after the last request stay open; their
    /// active-standby time up to `end_cycle` is added here).
    pub fn stats_snapshot(&self) -> MemStats {
        let mut s = self.stats;
        if self.open_banks > 0 && s.end_cycle > self.any_open_since {
            s.row_open_cycles += s.end_cycle - self.any_open_since;
        }
        s
    }

    /// CAS commands that issued while one (bank, row, direction) run
    /// covered the whole scan window, i.e. without a window scan. A
    /// simulator-cost counter, not a DRAM statistic.
    pub fn run_cas(&self) -> u64 {
        self.run_cas
    }

    /// Starts recording a command trace (see [`crate::cmdtrace`]).
    ///
    /// # Panics
    ///
    /// Panics under the closed-page row policy: its auto-precharge is
    /// folded into the CAS and has no explicit issue cycle to log.
    pub fn enable_command_log(&mut self) {
        assert_eq!(
            self.row_policy,
            RowPolicy::OpenPage,
            "command logging requires the open-page policy"
        );
        self.log = Some(CommandLog::new());
    }

    /// The recorded command trace, if logging was enabled.
    pub fn command_log(&self) -> Option<&CommandLog> {
        self.log.as_ref()
    }

    fn log_cmd(&mut self, cycle: u64, kind: CommandKind, addr: &DramAddr) {
        if let Some(log) = &mut self.log {
            log.push(cycle, kind, addr.rank, addr.bank_group, addr.bank, addr.row);
        }
    }

    /// Raw statistics (excluding in-flight row-open time; use
    /// [`stats_snapshot`](Self::stats_snapshot) for power analysis).
    pub fn stats(&self) -> &MemStats {
        &self.stats
    }

    /// The next cycle at which this channel can possibly do work (command
    /// issue or refresh); used by the system to skip dead time.
    pub fn next_event(&self) -> u64 {
        if self.queue.is_empty() {
            self.next_refresh
        } else {
            self.planned.at.min(self.next_refresh)
        }
    }

    fn cas_latency(&self, kind: AccessKind) -> u64 {
        match kind {
            AccessKind::Read => self.spec.timing.CL,
            AccessKind::Write => self.spec.timing.CWL,
        }
    }

    /// Issues the CAS of `at.run`'s first request, which leaves the queue.
    fn issue_cas(&mut self, at: Issue, now: u64) {
        let req = self.queue.remove(at.request).expect("a queued request");
        let Run {
            addr, bank, kind, ..
        } = self.runs[at.run];
        let t = self.spec.timing;
        let burst = self.spec.org.burst_cycles();
        let bank = &mut self.banks[bank];
        match kind {
            AccessKind::Read => bank.read(now, &t, burst),
            AccessKind::Write => bank.write(now, &t, burst),
        }
        if self.row_policy == RowPolicy::ClosedPage {
            // Auto-precharge once legal; model as immediate close with the
            // activate window pushed past the recovery constraints.
            let pre_at = bank.next_precharge;
            bank.state = BankState::Closed;
            bank.next_activate = bank.next_activate.max(pre_at + t.tRP);
            // Open-time bookkeeping closes at `now` (the few recovery cycles
            // until `pre_at` are attributed to precharge standby).
            self.note_bank_closed(now);
        }
        self.last_cas = Some((now, addr.bank_group));
        let lat = self.cas_latency(kind);
        self.bus_data_end = now + lat + burst;
        self.stats.data_bus_busy_cycles += burst;
        self.stats.bytes_transferred += self.spec.org.burst_bytes() as u64;
        let done = now + lat + burst;
        match kind {
            AccessKind::Read => {
                self.log_cmd(now, CommandKind::Rd, &addr);
                self.stats.reads += 1;
                let latency = done - req.arrive;
                self.stats.total_read_latency += latency;
                self.stats.max_read_latency = self.stats.max_read_latency.max(latency);
                self.completions.push((req.id, done, AccessKind::Read));
            }
            AccessKind::Write => {
                self.log_cmd(now, CommandKind::Wr, &addr);
                self.stats.writes += 1;
                self.completions.push((req.id, now, AccessKind::Write));
            }
        }
        self.runs[at.run].len -= 1;
        if self.runs[at.run].len == 0 {
            self.runs.remove(at.run);
            // The runs on either side may now continue one another.
            if let (Some(before), Some(&after)) = (at.run.checked_sub(1), self.runs.get(at.run)) {
                if self.runs[before].same_target(&after) {
                    self.runs[before].len += after.len;
                    self.runs.remove(at.run);
                }
            }
        }
    }

    /// Counts the request as a row hit, miss or conflict, once, by the
    /// bank state the first command issued for it finds.
    fn classify(&mut self, at: Issue) {
        let req = &mut self.queue[at.request];
        if req.classified {
            return;
        }
        req.classified = true;
        let run = &self.runs[at.run];
        match self.banks[run.bank].state {
            BankState::Open(r) if r == run.addr.row => self.stats.row_hits += 1,
            BankState::Open(_) => self.stats.row_conflicts += 1,
            BankState::Closed => self.stats.row_misses += 1,
        }
    }

    fn issue_act(&mut self, run: usize, now: u64) {
        let Run { addr, bank, .. } = self.runs[run];
        let rank = addr.rank;
        let t = self.spec.timing;
        self.banks[bank].activate(now, addr.row, &t);
        self.last_act[rank] = Some((now, addr.bank_group));
        let window = &mut self.act_window[rank];
        if window.len() == 4 {
            window.pop_front();
        }
        window.push_back(now);
        self.stats.activates += 1;
        self.log_cmd(now, CommandKind::Act, &addr);
        if self.open_banks == 0 {
            self.any_open_since = now;
        }
        self.open_banks += 1;
    }

    fn issue_pre(&mut self, run: usize, now: u64) {
        let Run { addr, bank, .. } = self.runs[run];
        let t = self.spec.timing;
        self.banks[bank].precharge(now, &t);
        self.stats.precharges += 1;
        self.log_cmd(now, CommandKind::Pre, &addr);
        self.note_bank_closed(now);
    }

    /// Records that one open bank just closed at `now`; when it was the
    /// last open bank, the active-standby interval is committed to stats.
    fn note_bank_closed(&mut self, now: u64) {
        self.open_banks = self.open_banks.saturating_sub(1);
        if self.open_banks == 0 {
            self.stats.row_open_cycles += now - self.any_open_since;
        }
    }

    /// Earliest cycle at which a CAS of `run` could issue given current
    /// bank/rank/bus state (its row must be open; only valid while that
    /// state does not change).
    fn cas_earliest(&self, run: &Run) -> u64 {
        let t = &self.spec.timing;
        let bank = &self.banks[run.bank];
        let mut earliest = match run.kind {
            AccessKind::Read => bank.next_read,
            AccessKind::Write => bank.next_write,
        };
        // CAS-to-CAS spacing.
        if let Some((last, bg)) = self.last_cas {
            let ccd = if bg == run.addr.bank_group {
                t.tCCD_L
            } else {
                t.tCCD_S
            };
            earliest = earliest.max(last + ccd);
        }
        // Data-bus occupancy: this burst's data must start after the
        // previous transfer ends.
        let lat = self.cas_latency(run.kind);
        earliest.max(self.bus_data_end.saturating_sub(lat))
    }

    /// Earliest cycle at which the ACT for `run` could issue (its bank
    /// must be closed).
    fn act_earliest(&self, run: &Run) -> u64 {
        let t = &self.spec.timing;
        let mut earliest = self.banks[run.bank].next_activate;
        let rank = run.addr.rank;
        if let Some((last, bg)) = self.last_act[rank] {
            let rrd = if bg == run.addr.bank_group {
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

    /// The scheduler's next move with the queue and the bank state as
    /// they are: the first cycle from `from` on at which a command can
    /// issue, and that command — or the refresh cycle and no command when
    /// the refresh comes first. First-ready: of the runs in the window
    /// whose command is legal at that cycle, the oldest CAS (open row)
    /// wins, failing that the oldest ACT (closed bank) or PRE (other row
    /// open).
    ///
    /// A command is legal from a cycle that depends on its request only
    /// through (bank, row, direction), so the requests of a run get one
    /// answer and its first request stands for them all.
    fn plan(&self, from: u64) -> Plan {
        let window = self.window();
        // Per command class, the oldest run among those legal soonest.
        let (mut cas, mut other) = (None::<(u64, Issue)>, None::<(u64, Issue)>);
        let mut request = 0;
        for (index, run) in self.runs.iter().enumerate() {
            if request >= window {
                break;
            }
            let bank = &self.banks[run.bank];
            let (command, earliest) = match bank.state {
                BankState::Open(row) if row == run.addr.row => {
                    let cas = match run.kind {
                        AccessKind::Read => CommandKind::Rd,
                        AccessKind::Write => CommandKind::Wr,
                    };
                    (cas, self.cas_earliest(run))
                }
                BankState::Closed => (CommandKind::Act, self.act_earliest(run)),
                BankState::Open(_) => (CommandKind::Pre, bank.next_precharge),
            };
            let at = earliest.max(from);
            let issue = Issue {
                run: index,
                request,
                command,
            };
            let class = match command {
                CommandKind::Rd | CommandKind::Wr if at == from => {
                    cas = Some((at, issue));
                    break;
                }
                CommandKind::Rd | CommandKind::Wr => &mut cas,
                _ => &mut other,
            };
            if class.is_none_or(|(best, _)| at < best) {
                *class = Some((at, issue));
            }
            request += run.len;
        }
        let first = match (cas, other) {
            (Some(cas), Some(other)) if other.0 < cas.0 => Some(other),
            (None, other) => other,
            (cas, _) => cas,
        };
        match first {
            Some((at, issue)) if at < self.next_refresh => Plan {
                at,
                issue: Some(issue),
            },
            _ => Plan {
                at: self.next_refresh.max(from),
                issue: None,
            },
        }
    }

    /// Advances the channel by one memory cycle, possibly issuing one
    /// command.
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
            self.planned = Plan {
                at: now + 1,
                issue: None,
            };
            return;
        }
        if self.queue.is_empty() || now < self.planned.at {
            return;
        }
        // A plan made for this very cycle stands; a tick that comes late
        // may find more commands legal than the plan knew.
        let plan = match self.planned {
            plan if plan.at == now && plan.issue.is_some() => plan,
            _ => self.plan(now),
        };
        let issue = match plan.issue {
            Some(issue) if plan.at == now => issue,
            _ => {
                self.planned = Plan {
                    at: plan.at.max(now + 1),
                    ..plan
                };
                return;
            }
        };
        self.classify(issue);
        match issue.command {
            CommandKind::Act => self.issue_act(issue.run, now),
            CommandKind::Pre => self.issue_pre(issue.run, now),
            _ => {
                if self.runs[0].len >= self.window() {
                    self.run_cas += 1;
                }
                self.issue_cas(issue, now);
            }
        }
        // The next move follows from the state this one just wrote: no
        // idle look at `now + 1`, and no second look when its cycle comes.
        self.planned = self.plan(now + 1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addrmap::AddressMapping;
    use crate::spec::DramSpec;

    fn addr_of(byte: u64, spec: &DramSpec) -> DramAddr {
        AddressMapping::RoBaRaCoCh.decode(byte, &spec.org, 1)
    }

    fn run_until_reads(
        ctrl: &mut ChannelController,
        n: usize,
        limit: u64,
    ) -> Vec<(RequestId, u64)> {
        let mut done = Vec::new();
        let mut out = Vec::new();
        for now in 0..limit {
            ctrl.tick(now);
            out.extend(ctrl.drain_completions());
            for (id, cycle, kind) in out.drain(..) {
                if kind == AccessKind::Read {
                    done.push((id, cycle));
                }
            }
            if done.len() >= n {
                break;
            }
        }
        done
    }

    #[test]
    fn single_read_latency_is_miss_path() {
        let spec = DramSpec::ddr4_2400();
        let mut c = ChannelController::new(spec, SchedulingPolicy::FrFcfs, RowPolicy::OpenPage, 32);
        c.enqueue(1, addr_of(0, &spec), AccessKind::Read, 0);
        let done = run_until_reads(&mut c, 1, 1000);
        assert_eq!(done.len(), 1);
        let t = spec.timing;
        // ACT at 0... wait for tRCD, CAS, then CL + burst.
        let expected = t.tRCD + t.CL + spec.org.burst_cycles();
        assert_eq!(done[0].1, expected, "cold read latency");
        assert_eq!(c.stats().row_misses, 1);
    }

    #[test]
    fn second_read_same_row_is_hit() {
        let spec = DramSpec::ddr4_2400();
        let mut c = ChannelController::new(spec, SchedulingPolicy::FrFcfs, RowPolicy::OpenPage, 32);
        c.enqueue(1, addr_of(0, &spec), AccessKind::Read, 0);
        c.enqueue(2, addr_of(64, &spec), AccessKind::Read, 0);
        let done = run_until_reads(&mut c, 2, 1000);
        assert_eq!(done.len(), 2);
        assert_eq!(c.stats().row_hits, 1);
        assert_eq!(c.stats().row_misses, 1);
        // The hit should complete well before a second miss path would.
        let gap = done[1].1 - done[0].1;
        assert!(
            gap <= spec.timing.tCCD_L.max(spec.org.burst_cycles()) + 1,
            "hit gap {gap} too large"
        );
    }

    #[test]
    fn row_conflict_requires_precharge() {
        let spec = DramSpec::ddr4_2400();
        let mut c = ChannelController::new(spec, SchedulingPolicy::FrFcfs, RowPolicy::OpenPage, 32);
        // Same bank, different row: row stride in RoBaRaCoCh is
        // banks × colslots × burst bytes.
        let row_stride = (spec.org.columns / spec.org.burst_length) as u64
            * spec.org.burst_bytes() as u64
            * spec.org.banks() as u64
            * spec.org.ranks as u64;
        c.enqueue(1, addr_of(0, &spec), AccessKind::Read, 0);
        let done1 = run_until_reads(&mut c, 1, 1000);
        c.enqueue(2, addr_of(row_stride, &spec), AccessKind::Read, done1[0].1);
        let mut out = Vec::new();
        let mut second = None;
        for now in done1[0].1..done1[0].1 + 1000 {
            c.tick(now);
            out.extend(c.drain_completions());
            if let Some((_, cy, _)) = out.drain(..).find(|(_, _, k)| *k == AccessKind::Read) {
                second = Some(cy);
                break;
            }
        }
        assert!(second.is_some());
        assert_eq!(c.stats().row_conflicts, 1);
        assert!(c.stats().precharges >= 1);
    }

    #[test]
    fn frfcfs_reorders_hit_over_older_conflict() {
        let spec = DramSpec::ddr4_2400();
        let mut c = ChannelController::new(spec, SchedulingPolicy::FrFcfs, RowPolicy::OpenPage, 32);
        let row_stride = (spec.org.columns / spec.org.burst_length) as u64
            * spec.org.burst_bytes() as u64
            * spec.org.banks() as u64;
        // Open row 0 with request 1.
        c.enqueue(1, addr_of(0, &spec), AccessKind::Read, 0);
        let d1 = run_until_reads(&mut c, 1, 1000);
        let t0 = d1[0].1;
        // Now: older request to row 1 (conflict), younger to row 0 (hit).
        c.enqueue(2, addr_of(row_stride, &spec), AccessKind::Read, t0);
        c.enqueue(3, addr_of(128, &spec), AccessKind::Read, t0);
        let mut order = Vec::new();
        let mut out = Vec::new();
        for now in t0..t0 + 2000 {
            c.tick(now);
            out.extend(c.drain_completions());
            for (id, _, k) in out.drain(..) {
                if k == AccessKind::Read {
                    order.push(id);
                }
            }
            if order.len() == 2 {
                break;
            }
        }
        assert_eq!(
            order,
            vec![3, 2],
            "row hit must complete first under FR-FCFS"
        );
    }

    #[test]
    fn fcfs_does_not_reorder() {
        let spec = DramSpec::ddr4_2400();
        let mut c = ChannelController::new(spec, SchedulingPolicy::Fcfs, RowPolicy::OpenPage, 32);
        let row_stride = (spec.org.columns / spec.org.burst_length) as u64
            * spec.org.burst_bytes() as u64
            * spec.org.banks() as u64;
        c.enqueue(1, addr_of(0, &spec), AccessKind::Read, 0);
        let d1 = run_until_reads(&mut c, 1, 1000);
        let t0 = d1[0].1;
        c.enqueue(2, addr_of(row_stride, &spec), AccessKind::Read, t0);
        c.enqueue(3, addr_of(128, &spec), AccessKind::Read, t0);
        let mut order = Vec::new();
        let mut out = Vec::new();
        for now in t0..t0 + 3000 {
            c.tick(now);
            out.extend(c.drain_completions());
            for (id, _, k) in out.drain(..) {
                if k == AccessKind::Read {
                    order.push(id);
                }
            }
            if order.len() == 2 {
                break;
            }
        }
        assert_eq!(order, vec![2, 3], "FCFS must preserve arrival order");
    }

    #[test]
    fn writes_complete_on_issue_not_data() {
        let spec = DramSpec::ddr4_2400();
        let mut c = ChannelController::new(spec, SchedulingPolicy::FrFcfs, RowPolicy::OpenPage, 32);
        c.enqueue(1, addr_of(0, &spec), AccessKind::Write, 0);
        let mut out = Vec::new();
        for now in 0..1000 {
            c.tick(now);
            out.extend(c.drain_completions());
            if !out.is_empty() {
                break;
            }
        }
        let (_, cycle, kind) = out[0];
        assert_eq!(kind, AccessKind::Write);
        // Issued right after ACT+tRCD, no CL+burst wait in the completion.
        assert_eq!(cycle, spec.timing.tRCD);
    }

    #[test]
    fn bank_parallelism_beats_serial_misses() {
        // Two misses to different banks should overlap their ACT latency.
        let spec = DramSpec::ddr4_2400();
        let mut c = ChannelController::new(spec, SchedulingPolicy::FrFcfs, RowPolicy::OpenPage, 32);
        c.enqueue(1, addr_of(0, &spec), AccessKind::Read, 0);
        // Different bank: next burst in bank-interleaved space (column bits
        // exhausted first in RoBaRaCoCh → use bank stride = colslots × 64).
        let bank_stride = (spec.org.columns / spec.org.burst_length) as u64 * 64;
        c.enqueue(2, addr_of(bank_stride, &spec), AccessKind::Read, 0);
        let done = run_until_reads(&mut c, 2, 2000);
        let t = spec.timing;
        let serial = 2 * (t.tRCD + t.CL + spec.org.burst_cycles());
        assert!(
            done[1].1 < serial,
            "parallel banks {} not faster than serial {}",
            done[1].1,
            serial
        );
    }

    #[test]
    fn refresh_happens_periodically() {
        let spec = DramSpec::ddr4_2400();
        let mut c = ChannelController::new(spec, SchedulingPolicy::FrFcfs, RowPolicy::OpenPage, 32);
        for now in 0..(spec.timing.tREFI * 3 + 10) {
            c.tick(now);
        }
        assert_eq!(c.stats().refreshes, 3);
    }
}
