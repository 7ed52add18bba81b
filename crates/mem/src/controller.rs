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
//!
//! No CAS can issue before a floor that the last CAS and the data bus
//! fix for every request alike. While every run in the window is known to
//! be a row hit (a prefix of the runs, kept across plans and cut back by
//! whatever closes a row), nothing else can come sooner either, so the
//! first run whose CAS is legal at that floor wins and the window scan
//! stops there.
//!
//! A request is kept once, from acceptance to its CAS, in an arrival-order
//! ring indexed by sequence number. A run holds consecutive sequence
//! numbers, so its next member is the next number, and the ring's front
//! is the first run's; a completion is returned from the
//! [`tick`](ChannelController::tick) whose CAS answered it.
//! The per-tick scan this replaces is kept in `tests/invariants.rs` as the
//! reference: same completions, same statistics, same command log.

use crate::addrmap::DramAddr;
use crate::bank::{Bank, BankState};
use crate::cmdtrace::{CommandKind, CommandLog};
use crate::spec::DramSpec;
use crate::stats::MemStats;
use crate::system::{AccessKind, Completion};
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

/// What the completion of an accepted request reports besides its cycle.
#[derive(Debug, Clone, Copy)]
struct Request {
    tag: usize,
    arrive: u64,
}

/// Requests queued back to back for one (bank, row, direction). At any
/// instant they all need the same command, legal from the same cycle, so
/// the scheduler looks at a run, never at its members. Two runs of one
/// target can end up side by side when the run between them empties; the
/// older wins every command the two compete for, so they issue exactly
/// as one run would and are left apart.
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
    /// Sequence number of its first request; the others follow it.
    head: u64,
    /// Whether a command has issued for the first request. Commands only
    /// ever go to a run's first request, so one that moves up has had none.
    classified: bool,
}

impl Run {
    /// Whether `next`, just queued, joins this run: the same target, right
    /// after this run's last request.
    fn continued_by(&self, next: &Run) -> bool {
        let target = |r: &Run| (r.bank, r.addr.row, r.kind);
        self.head + self.len as u64 == next.head && target(self) == target(next)
    }
}

/// A FIFO kept as one slice, `items[start..]`, so that scanning it is a
/// plain slice walk. Taking item `i` out moves the `i` items before it up
/// one place, which is cheap for the front of a queue (where the scheduler
/// takes from); the dead prefix is dropped once it outgrows the live part.
#[derive(Debug)]
struct Fifo<T> {
    items: Vec<T>,
    start: usize,
}

impl<T: Copy> Fifo<T> {
    fn new() -> Self {
        Fifo {
            items: Vec::new(),
            start: 0,
        }
    }

    fn push(&mut self, item: T) {
        if self.start > self.items.len() / 2 {
            self.items.drain(..self.start);
            self.start = 0;
        }
        self.items.push(item);
    }

    /// Takes item `i` out.
    fn remove(&mut self, i: usize) {
        for j in (self.start..self.start + i).rev() {
            self.items[j + 1] = self.items[j];
        }
        self.start += 1;
    }

    /// Drops the first `n` items.
    fn advance(&mut self, n: usize) {
        self.start += n;
    }
}

impl<T> std::ops::Index<usize> for Fifo<T> {
    type Output = T;
    fn index(&self, i: usize) -> &T {
        &self.items[self.start + i]
    }
}

impl<T> std::ops::IndexMut<usize> for Fifo<T> {
    fn index_mut(&mut self, i: usize) -> &mut T {
        &mut self.items[self.start + i]
    }
}

impl<T> std::ops::Deref for Fifo<T> {
    type Target = [T];
    fn deref(&self) -> &[T] {
        &self.items[self.start..]
    }
}

impl<T> std::ops::DerefMut for Fifo<T> {
    fn deref_mut(&mut self) -> &mut [T] {
        &mut self.items[self.start..]
    }
}

/// A command for the first request of a run.
#[derive(Debug, Clone, Copy)]
struct Issue {
    /// Index of the run in `runs`.
    run: usize,
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
pub(crate) struct ChannelController {
    spec: DramSpec,
    /// Requests the scheduler looks at: [`SCAN_WINDOW`] under FR-FCFS,
    /// the oldest alone under FCFS.
    scan: usize,
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
    /// No CAS can issue before this cycle: `cas_earliest`'s rank and bus
    /// terms at their most lenient (another bank group, either direction).
    cas_floor: u64,
    next_refresh: u64,
    /// Every request from the oldest queued one on, in arrival order
    /// (issued ones included); slot `i` holds sequence number `front + i`.
    ring: Fifo<Request>,
    front: u64,
    /// Requests accepted and not yet issued.
    queued: usize,
    /// The queue cut into runs of equal (bank, row, direction), in order.
    /// While the first run covers the scan window it alone decides what
    /// issues, so a streamed row retires at its CAS cadence.
    runs: Fifo<Run>,
    /// `runs[..hits]` are row hits, holding `hit_requests` requests: the
    /// prefix grows as `plan` finds hits behind it and is cut back to
    /// nothing by anything that closes a row.
    hits: usize,
    hit_requests: usize,
    /// Runs of the hit prefix per bank group.
    hit_groups: Vec<usize>,
    stats: MemStats,
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
    pub(crate) fn new(spec: DramSpec, policy: SchedulingPolicy, row_policy: RowPolicy) -> Self {
        let nbanks = spec.org.ranks * spec.org.banks();
        Self {
            banks: vec![Bank::default(); nbanks],
            act_window: vec![VecDeque::with_capacity(4); spec.org.ranks],
            last_act: vec![None; spec.org.ranks],
            last_cas: None,
            bus_data_end: 0,
            cas_floor: 0,
            next_refresh: spec.timing.tREFI,
            ring: Fifo::new(),
            front: 0,
            queued: 0,
            runs: Fifo::new(),
            hits: 0,
            hit_requests: 0,
            hit_groups: vec![0; spec.org.bank_groups],
            stats: MemStats::default(),
            open_banks: 0,
            any_open_since: 0,
            log: None,
            planned: Plan { at: 0, issue: None },
            run_cas: 0,
            spec,
            scan: match policy {
                SchedulingPolicy::FrFcfs => SCAN_WINDOW,
                SchedulingPolicy::Fcfs => 1,
            },
            row_policy,
        }
    }

    /// Accepts a request at cycle `now`; its completion will carry `tag`.
    /// Queue capacity is the caller's to enforce.
    pub(crate) fn enqueue(&mut self, tag: usize, addr: DramAddr, kind: AccessKind, now: u64) {
        // The scheduler only sees a request that lands inside its window;
        // behind it, nothing changes until an issue moves it up (and every
        // issue plans anew).
        if self.queued < self.scan {
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
            head: self.front + self.ring.len() as u64,
            classified: false,
        };
        let last_is_hit = self.hits == self.runs.len();
        match self.runs.last_mut() {
            Some(last) if last.continued_by(&run) => {
                last.len += 1;
                self.hit_requests += usize::from(last_is_hit);
            }
            _ => self.runs.push(run),
        }
        self.ring.push(Request { tag, arrive: now });
        self.queued += 1;
    }

    /// Statistics including the still-open row interval (banks that were
    /// never precharged after the last request stay open; their
    /// active-standby time up to `end_cycle` is added here).
    pub(crate) fn stats_snapshot(&self) -> MemStats {
        let mut s = self.stats;
        if self.open_banks > 0 && s.end_cycle > self.any_open_since {
            s.row_open_cycles += s.end_cycle - self.any_open_since;
        }
        s
    }

    /// CAS commands that issued while one (bank, row, direction) run
    /// covered the whole scan window, i.e. without a window scan. A
    /// simulator-cost counter, not a DRAM statistic.
    pub(crate) fn run_cas(&self) -> u64 {
        self.run_cas
    }

    /// Starts recording a command trace (see [`crate::cmdtrace`]).
    ///
    /// # Panics
    ///
    /// Panics under the closed-page row policy: its auto-precharge is
    /// folded into the CAS and has no explicit issue cycle to log.
    pub(crate) fn enable_command_log(&mut self) {
        assert_eq!(
            self.row_policy,
            RowPolicy::OpenPage,
            "command logging requires the open-page policy"
        );
        self.log = Some(CommandLog::new());
    }

    /// The recorded command trace, if logging was enabled.
    pub(crate) fn command_log(&self) -> Option<&CommandLog> {
        self.log.as_ref()
    }

    fn log_cmd(&mut self, cycle: u64, kind: CommandKind, addr: &DramAddr) {
        if let Some(log) = &mut self.log {
            log.push(cycle, kind, addr.rank, addr.bank_group, addr.bank, addr.row);
        }
    }

    /// The next cycle at which this channel can possibly do work (command
    /// issue or refresh); used by the system to skip dead time.
    pub(crate) fn next_event(&self) -> u64 {
        if self.queued == 0 {
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

    /// Forgets the row-hit prefix: a row closed.
    fn forget_hits(&mut self) {
        self.hits = 0;
        self.hit_requests = 0;
        self.hit_groups.fill(0);
    }

    /// Issues the CAS of `run`'s first request, which leaves the queue.
    fn issue_cas(&mut self, run: usize, now: u64) -> Completion {
        let (window, in_prefix) = (self.queued.min(self.scan), run < self.hits);
        let r = &mut self.runs[run];
        let (addr, bank, kind) = (r.addr, r.bank, r.kind);
        self.stats.row_hits += u64::from(!r.classified);
        self.run_cas += u64::from(run == 0 && r.len >= window);
        let Request { tag, arrive } = self.ring[(r.head - self.front) as usize];
        (r.len, r.head, r.classified) = (r.len - 1, r.head + 1, false);
        self.queued -= 1;
        self.hit_requests -= usize::from(in_prefix);
        if r.len == 0 {
            self.runs.remove(run);
            self.hits -= usize::from(in_prefix);
            self.hit_groups[addr.bank_group] -= usize::from(in_prefix);
        }
        // Every request before the first run's first has issued.
        let oldest = self
            .runs
            .first()
            .map_or(self.front + self.ring.len() as u64, |r| r.head);
        self.ring.advance((oldest - self.front) as usize);
        self.front = oldest;
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
        self.cas_floor =
            (now + t.tCCD_S.min(t.tCCD_L)).max(self.bus_data_end.saturating_sub(t.CL.max(t.CWL)));
        self.stats.data_bus_busy_cycles += burst;
        self.stats.bytes_transferred += self.spec.org.burst_bytes() as u64;
        let cycle = match kind {
            AccessKind::Read => {
                self.log_cmd(now, CommandKind::Rd, &addr);
                self.stats.reads += 1;
                let done = now + lat + burst;
                let latency = done - arrive;
                self.stats.total_read_latency += latency;
                self.stats.max_read_latency = self.stats.max_read_latency.max(latency);
                done
            }
            AccessKind::Write => {
                self.log_cmd(now, CommandKind::Wr, &addr);
                self.stats.writes += 1;
                now
            }
        };
        Completion {
            tag,
            cycle,
            kind,
            accepted: arrive,
        }
    }

    /// Whether this is the first command for `run`'s first request, which
    /// is then counted as a row hit (a CAS), miss (an ACT) or conflict (a
    /// PRE), once.
    fn first_command(&mut self, run: usize) -> bool {
        !std::mem::replace(&mut self.runs[run].classified, true)
    }

    /// Issues the ACT for `run`, which completes no request.
    fn issue_act(&mut self, run: usize, now: u64) -> Option<Completion> {
        self.stats.row_misses += u64::from(self.first_command(run));
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
        None
    }

    /// Issues the PRE for `run`, which completes no request.
    fn issue_pre(&mut self, run: usize, now: u64) -> Option<Completion> {
        self.stats.row_conflicts += u64::from(self.first_command(run));
        let Run { addr, bank, .. } = self.runs[run];
        let t = self.spec.timing;
        self.banks[bank].precharge(now, &t);
        self.stats.precharges += 1;
        self.log_cmd(now, CommandKind::Pre, &addr);
        self.note_bank_closed(now);
        None
    }

    /// Records that one open bank just closed at `now`; when it was the
    /// last open bank, the active-standby interval is committed to stats.
    /// Runs of the hit prefix may have lost their row, so it starts over
    /// (an ACT only opens a closed bank, which no prefix run targets).
    fn note_bank_closed(&mut self, now: u64) {
        self.forget_hits();
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
    /// open) — the least `(cycle, not a CAS, age)`.
    ///
    /// A command is legal from a cycle that depends on its request only
    /// through (bank, row, direction), so the requests of a run get one
    /// answer and its first request stands for them all. A CAS legal at
    /// `from` wins outright; so does one legal at `cas_floor` (`tCCD_L`
    /// after the last CAS when every run is in its bank group) while every
    /// run in the window is a row hit, since then no ACT or PRE competes
    /// and no CAS can come sooner.
    fn plan(&mut self, from: u64) {
        // The queue entries the scheduler looks at.
        let window = self.queued.min(self.scan);
        while self.hit_requests < window {
            match self.runs.get(self.hits) {
                Some(run) if self.banks[run.bank].is_open(run.addr.row) => {
                    self.hit_requests += run.len;
                    self.hit_groups[run.addr.bank_group] += 1;
                    self.hits += 1;
                }
                _ => break,
            }
        }
        let floor = if self.hit_requests >= window {
            // All of them in the last CAS's bank group: `tCCD_L` after it.
            let ccd_l = match self.last_cas {
                Some((last, bg)) if self.hit_groups[bg] == self.hits => {
                    last + self.spec.timing.tCCD_L
                }
                _ => 0,
            };
            self.cas_floor.max(from).max(ccd_l)
        } else {
            from
        };
        let mut best = None::<((u64, bool), usize, CommandKind)>;
        let mut request = 0;
        for (index, run) in self.runs.iter().enumerate() {
            if request >= window {
                break;
            }
            request += run.len;
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
            let key = (at, !matches!(command, CommandKind::Rd | CommandKind::Wr));
            if best.is_none_or(|(best, ..)| key < best) {
                best = Some((key, index, command));
                if !key.1 && at <= floor {
                    break;
                }
            }
        }
        self.planned = match best {
            Some(((at, _), run, command)) if at < self.next_refresh => Plan {
                at,
                issue: Some(Issue { run, command }),
            },
            _ => Plan {
                at: self.next_refresh.max(from),
                issue: None,
            },
        };
    }

    /// Advances the channel by one memory cycle, possibly issuing one
    /// command; a CAS returns its request's completion.
    pub(crate) fn tick(&mut self, now: u64) -> Option<Completion> {
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
            self.forget_hits();
            self.planned = Plan {
                at: now + 1,
                issue: None,
            };
            return None;
        }
        if self.queued == 0 || now < self.planned.at {
            return None;
        }
        // A plan made for this very cycle stands; a tick that comes late
        // may find more commands legal than the plan knew.
        if self.planned.at != now || self.planned.issue.is_none() {
            self.plan(now);
        }
        let issue = match self.planned.issue {
            Some(issue) if self.planned.at == now => issue,
            _ => {
                self.planned.at = self.planned.at.max(now + 1);
                return None;
            }
        };
        let done = match issue.command {
            CommandKind::Act => self.issue_act(issue.run, now),
            CommandKind::Pre => self.issue_pre(issue.run, now),
            _ => Some(self.issue_cas(issue.run, now)),
        };
        // The next move follows from the state this one just wrote: no
        // idle look at `now + 1`, and no second look when its cycle comes.
        self.plan(now + 1);
        done
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

    /// Ticks from cycle `from` until `n` reads completed (or `limit`
    /// cycles passed): their `(tag, completion cycle)`s.
    fn reads_from(
        ctrl: &mut ChannelController,
        from: u64,
        n: usize,
        limit: u64,
    ) -> Vec<(usize, u64)> {
        let mut done = Vec::new();
        for now in from..from + limit {
            match ctrl.tick(now) {
                Some(c) if c.kind == AccessKind::Read => done.push((c.tag, c.cycle)),
                _ => {}
            }
            if done.len() >= n {
                break;
            }
        }
        done
    }

    #[test]
    fn single_read_latency_is_miss_path() {
        let spec = DramSpec::DDR4_2400;
        let mut c = ChannelController::new(spec, SchedulingPolicy::FrFcfs, RowPolicy::OpenPage);
        c.enqueue(1, addr_of(0, &spec), AccessKind::Read, 0);
        let done = reads_from(&mut c, 0, 1, 1000);
        assert_eq!(done.len(), 1);
        let t = spec.timing;
        // ACT at 0... wait for tRCD, CAS, then CL + burst.
        let expected = t.tRCD + t.CL + spec.org.burst_cycles();
        assert_eq!(done[0].1, expected, "cold read latency");
        assert_eq!(c.stats_snapshot().row_misses, 1);
    }

    #[test]
    fn second_read_same_row_is_hit() {
        let spec = DramSpec::DDR4_2400;
        let mut c = ChannelController::new(spec, SchedulingPolicy::FrFcfs, RowPolicy::OpenPage);
        c.enqueue(1, addr_of(0, &spec), AccessKind::Read, 0);
        c.enqueue(2, addr_of(64, &spec), AccessKind::Read, 0);
        let done = reads_from(&mut c, 0, 2, 1000);
        assert_eq!(done.len(), 2);
        assert_eq!(c.stats_snapshot().row_hits, 1);
        assert_eq!(c.stats_snapshot().row_misses, 1);
        // The hit should complete well before a second miss path would.
        let gap = done[1].1 - done[0].1;
        assert!(
            gap <= spec.timing.tCCD_L.max(spec.org.burst_cycles()) + 1,
            "hit gap {gap} too large"
        );
    }

    #[test]
    fn row_conflict_requires_precharge() {
        let spec = DramSpec::DDR4_2400;
        let mut c = ChannelController::new(spec, SchedulingPolicy::FrFcfs, RowPolicy::OpenPage);
        // Same bank, different row: row stride in RoBaRaCoCh is
        // banks × colslots × burst bytes.
        let row_stride = (spec.org.columns / spec.org.burst_length) as u64
            * spec.org.burst_bytes() as u64
            * spec.org.banks() as u64
            * spec.org.ranks as u64;
        c.enqueue(1, addr_of(0, &spec), AccessKind::Read, 0);
        let done1 = reads_from(&mut c, 0, 1, 1000);
        c.enqueue(2, addr_of(row_stride, &spec), AccessKind::Read, done1[0].1);
        assert_eq!(reads_from(&mut c, done1[0].1, 1, 1000).len(), 1);
        assert_eq!(c.stats_snapshot().row_conflicts, 1);
        assert!(c.stats_snapshot().precharges >= 1);
    }

    #[test]
    fn frfcfs_reorders_hit_over_older_conflict() {
        let spec = DramSpec::DDR4_2400;
        let mut c = ChannelController::new(spec, SchedulingPolicy::FrFcfs, RowPolicy::OpenPage);
        let row_stride = (spec.org.columns / spec.org.burst_length) as u64
            * spec.org.burst_bytes() as u64
            * spec.org.banks() as u64;
        // Open row 0 with request 1.
        c.enqueue(1, addr_of(0, &spec), AccessKind::Read, 0);
        let d1 = reads_from(&mut c, 0, 1, 1000);
        let t0 = d1[0].1;
        // Now: older request to row 1 (conflict), younger to row 0 (hit).
        c.enqueue(2, addr_of(row_stride, &spec), AccessKind::Read, t0);
        c.enqueue(3, addr_of(128, &spec), AccessKind::Read, t0);
        let order: Vec<_> = reads_from(&mut c, t0, 2, 2000)
            .iter()
            .map(|d| d.0)
            .collect();
        assert_eq!(
            order,
            vec![3, 2],
            "row hit must complete first under FR-FCFS"
        );
    }

    #[test]
    fn fcfs_does_not_reorder() {
        let spec = DramSpec::DDR4_2400;
        let mut c = ChannelController::new(spec, SchedulingPolicy::Fcfs, RowPolicy::OpenPage);
        let row_stride = (spec.org.columns / spec.org.burst_length) as u64
            * spec.org.burst_bytes() as u64
            * spec.org.banks() as u64;
        c.enqueue(1, addr_of(0, &spec), AccessKind::Read, 0);
        let d1 = reads_from(&mut c, 0, 1, 1000);
        let t0 = d1[0].1;
        c.enqueue(2, addr_of(row_stride, &spec), AccessKind::Read, t0);
        c.enqueue(3, addr_of(128, &spec), AccessKind::Read, t0);
        let order: Vec<_> = reads_from(&mut c, t0, 2, 3000)
            .iter()
            .map(|d| d.0)
            .collect();
        assert_eq!(order, vec![2, 3], "FCFS must preserve arrival order");
    }

    #[test]
    fn writes_complete_on_issue_not_data() {
        let spec = DramSpec::DDR4_2400;
        let mut c = ChannelController::new(spec, SchedulingPolicy::FrFcfs, RowPolicy::OpenPage);
        c.enqueue(1, addr_of(0, &spec), AccessKind::Write, 0);
        let done = (0..1000).find_map(|now| c.tick(now)).expect("a completion");
        assert_eq!(done.kind, AccessKind::Write);
        // Issued right after ACT+tRCD, no CL+burst wait in the completion.
        assert_eq!(done.cycle, spec.timing.tRCD);
    }

    #[test]
    fn bank_parallelism_beats_serial_misses() {
        // Two misses to different banks should overlap their ACT latency.
        let spec = DramSpec::DDR4_2400;
        let mut c = ChannelController::new(spec, SchedulingPolicy::FrFcfs, RowPolicy::OpenPage);
        c.enqueue(1, addr_of(0, &spec), AccessKind::Read, 0);
        // Different bank: next burst in bank-interleaved space (column bits
        // exhausted first in RoBaRaCoCh → use bank stride = colslots × 64).
        let bank_stride = (spec.org.columns / spec.org.burst_length) as u64 * 64;
        c.enqueue(2, addr_of(bank_stride, &spec), AccessKind::Read, 0);
        let done = reads_from(&mut c, 0, 2, 2000);
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
        let spec = DramSpec::DDR4_2400;
        let mut c = ChannelController::new(spec, SchedulingPolicy::FrFcfs, RowPolicy::OpenPage);
        for now in 0..(spec.timing.tREFI * 3 + 10) {
            c.tick(now);
        }
        assert_eq!(c.stats_snapshot().refreshes, 3);
    }
}
