//! Bandwidth reporting from transaction traces.

use crate::operand::OperandKind;
use crate::trace::{AccessKind, TraceRecorder};

/// Average and peak bandwidth of one operand interface, in words/cycle.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct InterfaceBandwidth {
    /// Total words transferred.
    pub words: u64,
    /// Average bandwidth over the full run.
    pub avg: f64,
    /// Peak per-transaction bandwidth.
    pub peak: f64,
}

/// Bandwidth report across all operand interfaces (SCALE-Sim's
/// `BANDWIDTH_REPORT` equivalent).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct BandwidthReport {
    /// Run length in cycles used for the averages.
    pub total_cycles: u64,
    /// Ifmap DRAM read bandwidth.
    pub ifmap_read: InterfaceBandwidth,
    /// Filter DRAM read bandwidth.
    pub filter_read: InterfaceBandwidth,
    /// Ofmap DRAM read (partial-sum refetch) bandwidth.
    pub ofmap_read: InterfaceBandwidth,
    /// Ofmap DRAM write bandwidth.
    pub ofmap_write: InterfaceBandwidth,
}

impl BandwidthReport {
    /// Computes the report from a trace and the run length.
    pub fn from_trace(trace: &TraceRecorder, total_cycles: u64) -> Self {
        let mut report = BandwidthReport {
            total_cycles,
            ..Default::default()
        };
        for e in trace.entries() {
            let iface = match (e.operand, e.kind) {
                (OperandKind::Ifmap, AccessKind::Read) => &mut report.ifmap_read,
                (OperandKind::Filter, AccessKind::Read) => &mut report.filter_read,
                (OperandKind::Ofmap, AccessKind::Read) => &mut report.ofmap_read,
                (OperandKind::Ofmap, AccessKind::Write) => &mut report.ofmap_write,
                // Reads/writes on unexpected interfaces are counted with
                // their operand's dominant direction.
                (OperandKind::Ifmap, AccessKind::Write) => &mut report.ifmap_read,
                (OperandKind::Filter, AccessKind::Write) => &mut report.filter_read,
            };
            iface.words += e.len as u64;
            let dur = e.completion.saturating_sub(e.issue).max(1);
            let bw = e.len as f64 / dur as f64;
            if bw > iface.peak {
                iface.peak = bw;
            }
        }
        let cycles = total_cycles.max(1) as f64;
        for iface in [
            &mut report.ifmap_read,
            &mut report.filter_read,
            &mut report.ofmap_read,
            &mut report.ofmap_write,
        ] {
            iface.avg = iface.words as f64 / cycles;
        }
        report
    }

    /// Total words moved in either direction.
    pub fn total_words(&self) -> u64 {
        self.ifmap_read.words
            + self.filter_read.words
            + self.ofmap_read.words
            + self.ofmap_write.words
    }

    /// Aggregate average bandwidth in words/cycle.
    pub fn total_avg(&self) -> f64 {
        self.ifmap_read.avg + self.filter_read.avg + self.ofmap_read.avg + self.ofmap_write.avg
    }

    /// Converts an average words/cycle figure to MB/s given a clock and
    /// word size (used by the Fig. 9-style throughput plots).
    pub fn words_per_cycle_to_mbps(
        words_per_cycle: f64,
        clock_hz: f64,
        bytes_per_word: usize,
    ) -> f64 {
        words_per_cycle * clock_hz * bytes_per_word as f64 / 1.0e6
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::demand::{Batch, Segment, Stream};

    #[test]
    fn report_from_trace() {
        let mut tr = TraceRecorder::new();
        let mut record = |issue, completion, operand, kind, base, words| {
            let segment = [Segment::whole(Stream::contiguous(base, words))];
            tr.record(issue, completion, operand, kind, Batch::new(&segment));
        };
        record(0, 2, OperandKind::Ifmap, AccessKind::Read, 1, 4);
        record(2, 4, OperandKind::Filter, AccessKind::Read, 5, 2);
        record(4, 5, OperandKind::Ofmap, AccessKind::Write, 7, 1);
        let r = BandwidthReport::from_trace(&tr, 10);
        assert_eq!(r.ifmap_read.words, 4);
        assert!((r.ifmap_read.avg - 0.4).abs() < 1e-12);
        assert!((r.ifmap_read.peak - 2.0).abs() < 1e-12);
        assert_eq!(r.total_words(), 7);
        assert!((r.total_avg() - 0.7).abs() < 1e-12);
    }

    #[test]
    fn mbps_conversion() {
        // 1 word/cycle at 1 GHz, 2 B/word = 2000 MB/s.
        let mbps = BandwidthReport::words_per_cycle_to_mbps(1.0, 1.0e9, 2);
        assert!((mbps - 2000.0).abs() < 1e-9);
    }
}
