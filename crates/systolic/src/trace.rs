//! DRAM transaction traces.
//!
//! A trace is the sequence of backing-store transactions (reads/writes of
//! word batches) issued by the scratchpad prefetch/drain machinery, with
//! issue and completion timestamps. Traces feed the DRAM simulator
//! (SCALE-Sim v3 §V-B step 1 → step 2). A transaction's words are kept as
//! the stream segments the plan holds; [`TraceRecorder::batch_of`] hands
//! them back for the one consumer that needs addresses to expand.

use crate::demand::{Batch, Segment};
use crate::operand::OperandKind;

/// Transaction direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessKind {
    /// Data fetched from the backing store into a scratchpad.
    Read,
    /// Data drained from a scratchpad into the backing store.
    Write,
}

/// One backing-store transaction covering a batch of words.
///
/// The batch's segments are stored in a shared arena inside
/// [`TraceRecorder`]; an entry holds their range.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEntry {
    /// Cycle the transaction was issued.
    pub issue: u64,
    /// Cycle the transaction completed.
    pub completion: u64,
    /// Operand interface the transaction belongs to.
    pub operand: OperandKind,
    /// Read or write.
    pub kind: AccessKind,
    /// Number of words transferred.
    pub len: usize,
    /// Range of the batch's segments in the recorder's arena.
    segments: (usize, usize),
    /// Whether the batch moves in ascending address order.
    ascending: bool,
}

/// Collects trace entries and their word batches.
#[derive(Debug, Clone, Default)]
pub struct TraceRecorder {
    segments: Vec<Segment>,
    entries: Vec<TraceEntry>,
}

impl TraceRecorder {
    /// Records a transaction.
    pub(crate) fn record(
        &mut self,
        issue: u64,
        completion: u64,
        operand: OperandKind,
        kind: AccessKind,
        batch: Batch<'_>,
    ) {
        let offset = self.segments.len();
        self.segments.extend_from_slice(batch.segments);
        self.entries.push(TraceEntry {
            issue,
            completion,
            operand,
            kind,
            len: batch.words() as usize,
            segments: (offset, self.segments.len()),
            ascending: batch.ascending,
        });
    }

    /// All recorded entries in issue order.
    pub fn entries(&self) -> &[TraceEntry] {
        &self.entries
    }

    /// The words of one entry.
    pub fn batch_of(&self, entry: &TraceEntry) -> Batch<'_> {
        Batch {
            segments: &self.segments[entry.segments.0..entry.segments.1],
            ascending: entry.ascending,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::demand::Stream;

    fn run(base: u64, words: usize) -> [Segment; 1] {
        [Segment::whole(Stream::contiguous(base, words))]
    }

    #[test]
    fn record_and_read_back() {
        let mut tr = TraceRecorder::default();
        tr.record(
            0,
            3,
            OperandKind::Ifmap,
            AccessKind::Read,
            Batch::new(&run(1, 3)),
        );
        tr.record(
            5,
            9,
            OperandKind::Ofmap,
            AccessKind::Write,
            Batch::new(&run(10, 2)),
        );
        assert_eq!(tr.entries().len(), 2);
        let mut addrs = Vec::new();
        tr.batch_of(&tr.entries()[0]).expand_into(&mut addrs);
        assert_eq!(addrs, [1, 2, 3]);
        tr.batch_of(&tr.entries()[1]).expand_into(&mut addrs);
        assert_eq!(addrs, [10, 11]);
        assert_eq!(tr.entries()[1].len, 2);
    }
}
