//! Fold-granular demand descriptors.
//!
//! A *demand* is the set of scratchpad accesses at the array edges: ifmap
//! reads on the left edge, filter reads on the top edge, and ofmap writes
//! (plus read-modify-write reads when partial sums accumulate across
//! folds) at the output edge. Within one fold every edge stream is an
//! affine walk over one operand tile — a row-skewed wavefront for streamed
//! operands and outputs, one tile row per cycle for the pinned operand —
//! so a fold's whole demand is four closed-form [`Stream`]s
//! ([`FoldDemand`]), not `O(cycles × lanes)` addresses.
//!
//! Every consumer reads the descriptors as they are: the planners and the
//! SRAM repeat lookups decide a stream in index runs, the DRAM stage turns
//! a transaction's [`Segment`]s into line ranges, the layout stage walks a
//! stream's lanes cell by cell. The classic per-cycle address vectors
//! exist only in `tests/invariants.rs`, as the reference the descriptors
//! are checked against.

use crate::operand::Addr;
use crate::util::antidiagonal_prefix;

/// One edge stream of one fold: `lanes × len` words of an operand tile.
///
/// Lane `l` touches element `i` of its row of the tile at step `i`, or at
/// step `l + i` when the stream is `skewed` (the systolic wavefront);
/// within a step, lanes go in increasing order. The word of lane `l`,
/// element `i` lives at `base + l·lane_stride + i·step_stride` (wrapping,
/// so a stride may be negative). A word's *position* is its rank in that
/// step-major order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Stream {
    /// Address of lane 0, element 0.
    pub base: Addr,
    /// Array rows or columns the stream enters through.
    pub lanes: usize,
    /// Elements each lane touches.
    pub len: usize,
    /// Address distance between neighbouring lanes (wrapping).
    pub lane_stride: u64,
    /// Address distance between a lane's consecutive elements (wrapping).
    pub step_stride: u64,
    /// Whether lane `l` runs `l` steps behind lane 0.
    pub skewed: bool,
}

impl Stream {
    /// One step touching `words` consecutive addresses from `base`.
    pub fn contiguous(base: Addr, words: usize) -> Self {
        Self {
            base,
            lanes: words,
            len: 1,
            lane_stride: 1,
            step_stride: 0,
            skewed: false,
        }
    }

    /// Words the stream touches.
    pub fn words(&self) -> u64 {
        self.lanes as u64 * self.len as u64
    }

    /// Steps (cycles) from the first to the last word.
    pub fn steps(&self) -> u64 {
        match (self.words(), self.skewed) {
            (0, _) => 0,
            (_, false) => self.len as u64,
            (_, true) => (self.len + self.lanes - 1) as u64,
        }
    }

    /// Words touched in steps before `step`, i.e. the position of
    /// `step`'s first word.
    pub fn words_before(&self, step: u64) -> u64 {
        if self.skewed {
            antidiagonal_prefix(self.lanes, self.len, step as i64 - 1)
        } else {
            step.min(self.len as u64) * self.lanes as u64
        }
    }

    /// The step that touches the word at `pos` (`pos < words()`).
    pub fn step_of(&self, pos: u64) -> u64 {
        debug_assert!(pos < self.words());
        if !self.skewed {
            return pos / self.lanes as u64;
        }
        // Skewed steps touch 1, 2, … `m` words, `m` words each while the
        // longer side lasts, then `m`, … 1 again: a triangle, a band, and
        // the first triangle mirrored, each inverted in closed form.
        let m = self.lanes.min(self.len) as u64;
        let triangle = m * (m + 1) / 2;
        let band = (self.lanes.max(self.len) as u64 - m) * m;
        let rise = |pos: u64| ((8 * pos + 1).isqrt() - 1) / 2;
        if pos < triangle {
            rise(pos)
        } else if pos < triangle + band {
            m + (pos - triangle) / m
        } else {
            self.steps() - 1 - rise(self.words() - 1 - pos)
        }
    }

    /// Address of lane `lane`'s element `element`.
    pub fn addr(&self, lane: u64, element: u64) -> Addr {
        let lane = lane.wrapping_mul(self.lane_stride);
        (self.base.wrapping_add(lane)).wrapping_add(element.wrapping_mul(self.step_stride))
    }

    /// The addresses touched at `step`, in lane order.
    pub fn step_addrs(&self, step: u64) -> impl Iterator<Item = Addr> {
        let (first, words, delta) = self.step_span(step);
        (0..words).map(move |k| first.wrapping_add(k.wrapping_mul(delta)))
    }

    /// `step` as an arithmetic progression: its first address, its word
    /// count and the (wrapping) distance from one active lane's word to
    /// the next one's.
    pub fn step_span(&self, step: u64) -> (Addr, u64, u64) {
        let (lo, hi, delta) = if self.skewed {
            (
                step.saturating_sub(self.len as u64 - 1),
                (step + 1).min(self.lanes as u64),
                self.lane_stride.wrapping_sub(self.step_stride),
            )
        } else {
            (0, self.lanes as u64, self.lane_stride)
        };
        let element = if self.skewed { step - lo } else { step };
        (self.addr(lo, element), hi.saturating_sub(lo), delta)
    }

    /// The steps at which every lane is active — all of them for an
    /// unskewed stream, `lanes − 1 .. len` for a skewed one (empty when
    /// the wavefront never fills). Each step of the band touches the
    /// previous one's words moved by `step_stride`.
    pub fn band(&self) -> std::ops::Range<u64> {
        let first = match self.skewed {
            true => (self.lanes as u64).saturating_sub(1),
            false => 0,
        };
        first..(self.len as u64).max(first)
    }
}

/// A run of consecutive positions of one [`Stream`]: the unit the fetch
/// and drain plans are made of.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Segment {
    /// The stream walked.
    pub stream: Stream,
    /// Position of the first word.
    pub from: u64,
    /// Words covered.
    pub len: u64,
}

impl Segment {
    /// Every word of `stream`.
    pub fn whole(stream: Stream) -> Self {
        Self {
            stream,
            from: 0,
            len: stream.words(),
        }
    }

    /// Calls `f` with each address of the segment, in stream order.
    pub fn for_each(&self, mut f: impl FnMut(Addr)) {
        if self.len == 0 {
            return;
        }
        let mut step = self.stream.step_of(self.from);
        let mut skip = (self.from - self.stream.words_before(step)) as usize;
        let mut left = self.len as usize;
        while left > 0 {
            let before = left;
            for addr in self.stream.step_addrs(step).skip(skip).take(left) {
                f(addr);
                left -= 1;
            }
            debug_assert!(left < before, "segment runs past its stream");
            skip = 0;
            step += 1;
        }
    }
}

/// The words of one backing-store transaction, in transfer order.
#[derive(Debug, Clone, Copy)]
pub struct Batch<'a> {
    /// The words as stream segments.
    pub segments: &'a [Segment],
    /// Whether the words move in ascending address order instead of
    /// segment order (the final flush of whatever the ofmap SRAM holds).
    pub ascending: bool,
}

impl<'a> Batch<'a> {
    /// A batch moving `segments` in their own order.
    pub fn new(segments: &'a [Segment]) -> Self {
        Self {
            segments,
            ascending: false,
        }
    }

    /// Words transferred.
    pub fn words(&self) -> u64 {
        self.segments.iter().map(|s| s.len).sum()
    }

    /// Whether the batch moves nothing.
    pub fn is_empty(&self) -> bool {
        self.words() == 0
    }

    /// Replaces the contents of `out` with the batch's addresses in
    /// transfer order.
    pub fn expand_into(&self, out: &mut Vec<Addr>) {
        out.clear();
        for segment in self.segments {
            segment.for_each(|addr| out.push(addr));
        }
        if self.ascending {
            out.sort_unstable();
        }
    }
}

/// An edge stream placed in its fold: which operand tile it walks and
/// when it starts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EdgeStream {
    /// Operand tile walked. Streams of one operand with equal tiles touch
    /// the same words in the same order; different tiles are disjoint.
    pub tile: usize,
    /// Cycle of the stream's step 0, relative to the fold's first cycle.
    pub start: u64,
    /// The walk itself.
    pub stream: Stream,
}

/// The complete demand of one fold, in closed form.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FoldDemand {
    /// First cycle of the fold on the layer's compute timeline.
    pub start: u64,
    /// Cycles the fold occupies.
    pub cycles: u64,
    /// Ifmap SRAM reads.
    pub ifmap: EdgeStream,
    /// Filter SRAM reads.
    pub filter: EdgeStream,
    /// Ofmap SRAM writes.
    pub ofmap: EdgeStream,
    /// Whether every ofmap write is preceded, in its cycle, by a
    /// read-modify-write read of the same word (partial sums accumulating
    /// over an earlier fold's).
    pub accumulate: bool,
}

/// Aggregate demand totals of a layer.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DemandSummary {
    /// Total simulated compute cycles.
    pub cycles: u64,
    /// Total ifmap SRAM reads.
    pub ifmap_reads: u64,
    /// Total filter SRAM reads.
    pub filter_reads: u64,
    /// Total ofmap SRAM reads (partial-sum accumulation).
    pub ofmap_reads: u64,
    /// Total ofmap SRAM writes.
    pub ofmap_writes: u64,
    /// Total MAC operations.
    pub macs: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn skewed(lanes: usize, len: usize) -> Stream {
        Stream {
            base: 1000,
            lanes,
            len,
            lane_stride: 100,
            step_stride: 1,
            skewed: true,
        }
    }

    /// Every word of the stream as `(step, address)`, by brute force over
    /// the definition in the type's documentation.
    fn brute(s: &Stream) -> Vec<(u64, Addr)> {
        let mut words = Vec::new();
        for lane in 0..s.lanes as u64 {
            for i in 0..s.len as u64 {
                let step = if s.skewed { lane + i } else { i };
                let addr = s
                    .base
                    .wrapping_add(lane.wrapping_mul(s.lane_stride))
                    .wrapping_add(i.wrapping_mul(s.step_stride));
                words.push((step, lane, addr));
            }
        }
        words.sort_unstable();
        words.into_iter().map(|(step, _, a)| (step, a)).collect()
    }

    #[test]
    fn stream_walk_matches_its_definition() {
        let broadside = Stream {
            step_stride: 7u64.wrapping_neg(),
            skewed: false,
            ..skewed(3, 4)
        };
        let shapes = [
            (1, 1),
            (1, 5),
            (5, 1),
            (3, 4),
            (4, 3),
            (6, 6),
            (32, 9),
            (7, 40),
        ];
        let streams = shapes
            .map(|(lanes, len)| skewed(lanes, len))
            .into_iter()
            .chain([broadside]);
        for s in streams {
            let want = brute(&s);
            assert_eq!(s.words() as usize, want.len(), "{s:?}");
            assert_eq!(s.steps(), want.last().unwrap().0 + 1, "{s:?}");
            let mut got = Vec::new();
            for step in 0..s.steps() {
                assert_eq!(s.words_before(step), got.len() as u64, "{s:?} step {step}");
                got.extend(s.step_addrs(step).map(|a| (step, a)));
            }
            assert_eq!(got, want, "{s:?}");
            // The band: every lane active, each step the last one moved.
            for step in 0..s.steps() {
                let (first, words, _) = s.step_span(step);
                let full = words == s.lanes as u64;
                assert_eq!(s.band().contains(&step), full, "{s:?} step {step}");
                if full && s.band().contains(&(step + 1)) {
                    let next = s.step_span(step + 1).0;
                    assert_eq!(next, first.wrapping_add(s.step_stride), "{s:?}");
                }
            }
            for (pos, &(step, _)) in want.iter().enumerate() {
                assert_eq!(s.step_of(pos as u64), step, "{s:?} pos {pos}");
            }
            // Every sub-range expands to the matching slice of the walk.
            for from in 0..want.len() {
                for len in 0..=want.len() - from {
                    let mut seen = Vec::new();
                    let segment = Segment {
                        stream: s,
                        from: from as u64,
                        len: len as u64,
                    };
                    segment.for_each(|a| seen.push(a));
                    let slice: Vec<Addr> = want[from..from + len].iter().map(|w| w.1).collect();
                    assert_eq!(seen, slice, "{s:?} [{from}, +{len})");
                }
            }
        }
    }

    #[test]
    fn empty_streams_have_no_steps() {
        assert_eq!(skewed(0, 4).steps(), 0);
        assert_eq!(skewed(4, 0).steps(), 0);
    }
}
