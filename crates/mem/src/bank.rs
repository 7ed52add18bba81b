//! Per-bank state machine with absolute-time constraint registers.
//!
//! Instead of enumerating JEDEC command interactions each cycle, every bank
//! tracks the earliest cycle at which each command class may legally issue
//! (`next_activate`, `next_read`, `next_write`, `next_precharge`). Issuing a
//! command advances the relevant registers per the timing table — the same
//! technique Ramulator uses.

use crate::spec::DramTiming;

/// Row-buffer status of a bank.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BankState {
    /// All rows precharged.
    #[default]
    Closed,
    /// A row is latched in the row buffer.
    Open(usize),
}

/// One DRAM bank.
#[derive(Debug, Clone, Default)]
pub struct Bank {
    /// Current row-buffer state.
    pub state: BankState,
    /// Earliest cycle an ACT may issue.
    pub next_activate: u64,
    /// Earliest cycle a READ CAS may issue.
    pub next_read: u64,
    /// Earliest cycle a WRITE CAS may issue.
    pub next_write: u64,
    /// Earliest cycle a PRE may issue.
    pub next_precharge: u64,
}

impl Bank {
    /// Whether `row` is currently open.
    pub fn is_open(&self, row: usize) -> bool {
        self.state == BankState::Open(row)
    }

    /// Applies an ACT at cycle `now` for `row`.
    pub fn activate(&mut self, now: u64, row: usize, t: &DramTiming) {
        debug_assert!(now >= self.next_activate, "ACT issued too early");
        debug_assert_eq!(self.state, BankState::Closed, "ACT on open bank");
        self.state = BankState::Open(row);
        self.next_read = self.next_read.max(now + t.tRCD);
        self.next_write = self.next_write.max(now + t.tRCD);
        self.next_precharge = self.next_precharge.max(now + t.tRAS);
        self.next_activate = self.next_activate.max(now + t.tRC);
    }

    /// Applies a READ CAS at cycle `now`.
    pub fn read(&mut self, now: u64, t: &DramTiming, burst_cycles: u64) {
        debug_assert!(now >= self.next_read, "READ issued too early");
        debug_assert!(matches!(self.state, BankState::Open(_)));
        // Read to precharge: tRTP after CAS.
        self.next_precharge = self.next_precharge.max(now + t.tRTP);
        // Back-to-back CAS gaps are enforced at rank level (tCCD); the bank
        // itself only needs the burst to finish.
        self.next_read = self.next_read.max(now + burst_cycles);
        self.next_write = self.next_write.max(now + t.CL + burst_cycles - t.CWL);
    }

    /// Applies a WRITE CAS at cycle `now`.
    pub fn write(&mut self, now: u64, t: &DramTiming, burst_cycles: u64) {
        debug_assert!(now >= self.next_write, "WRITE issued too early");
        debug_assert!(matches!(self.state, BankState::Open(_)));
        // Write recovery: data end (CWL + BL) plus tWR before precharge.
        self.next_precharge = self.next_precharge.max(now + t.CWL + burst_cycles + t.tWR);
        self.next_write = self.next_write.max(now + burst_cycles);
        // Write-to-read turnaround.
        self.next_read = self.next_read.max(now + t.CWL + burst_cycles + t.tWTR);
    }

    /// Applies a PRE at cycle `now`.
    pub fn precharge(&mut self, now: u64, t: &DramTiming) {
        debug_assert!(now >= self.next_precharge, "PRE issued too early");
        self.state = BankState::Closed;
        self.next_activate = self.next_activate.max(now + t.tRP);
    }

    /// Forces the bank closed for refresh; usable again after `tRFC`.
    pub fn refresh(&mut self, now: u64, t: &DramTiming) {
        self.state = BankState::Closed;
        self.next_activate = self.next_activate.max(now + t.tRFC);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::DramSpec;

    fn t() -> DramTiming {
        DramSpec::DDR4_2400.timing
    }

    #[test]
    fn activate_then_read_respects_trcd() {
        let timing = t();
        let mut b = Bank::default();
        b.activate(0, 7, &timing);
        assert!(b.is_open(7));
        assert_eq!(b.next_read, timing.tRCD);
        assert_eq!(b.next_precharge, timing.tRAS);
        assert_eq!(b.next_activate, timing.tRC);
    }

    #[test]
    fn read_pushes_precharge_by_trtp() {
        let timing = t();
        let mut b = Bank::default();
        b.activate(0, 1, &timing);
        let cas = b.next_read;
        b.read(cas, &timing, 4);
        assert!(b.next_precharge >= cas + timing.tRTP);
    }

    #[test]
    fn write_recovery_delays_precharge_more_than_read() {
        let timing = t();
        let mut br = Bank::default();
        let mut bw = Bank::default();
        br.activate(0, 1, &timing);
        bw.activate(0, 1, &timing);
        let cas = br.next_read.max(bw.next_write);
        br.read(cas, &timing, 4);
        bw.write(cas, &timing, 4);
        assert!(
            bw.next_precharge > br.next_precharge,
            "write recovery must exceed read-to-precharge"
        );
    }

    #[test]
    fn precharge_closes_and_blocks_activate_by_trp() {
        let timing = t();
        let mut b = Bank::default();
        b.activate(0, 3, &timing);
        let pre = b.next_precharge;
        b.precharge(pre, &timing);
        assert_eq!(b.state, BankState::Closed);
        assert!(b.next_activate >= pre + timing.tRP);
    }

    #[test]
    fn full_row_cycle_takes_at_least_trc() {
        // ACT → ... → PRE → ACT of the same bank must span ≥ tRC.
        let timing = t();
        let mut b = Bank::default();
        b.activate(0, 1, &timing);
        b.precharge(b.next_precharge, &timing);
        assert!(b.next_activate >= timing.tRC.min(timing.tRAS + timing.tRP));
    }

    #[test]
    fn refresh_blocks_bank_for_trfc() {
        let timing = t();
        let mut b = Bank::default();
        b.refresh(100, &timing);
        assert_eq!(b.state, BankState::Closed);
        assert!(b.next_activate >= 100 + timing.tRFC);
    }
}
