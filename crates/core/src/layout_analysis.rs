//! Layout bank-conflict analysis of a layer's demand stream (§VI).
//!
//! Each operand lives in its own multi-bank SRAM with its own
//! [`LayoutSpec`]. For every compute cycle, the cost is the worst operand's
//! bank-conflict cost that cycle (the SRAMs operate in parallel; the
//! slowest one gates the array). The same stream is costed under the flat
//! bandwidth model, and the relative difference is the Figs. 12–13 metric.
//!
//! The demand is never expanded into addresses: a fold's edge streams are
//! walked as they are described ([`DemandGenerator::folds`]). Each lane of
//! a [`Stream`] walks a row or a column of its operand, so it is a
//! [`Cursor`] that moves from one `(line, bank)` cell to the next by
//! additions and knows how long it stays; a cell's line-buffer recency is
//! one entry of a dense table, and two lanes in one cell the same cycle
//! are told apart by that entry already carrying the cycle. A step at
//! which no lane enters a cell and none joins or leaves the wavefront
//! re-reads what the line buffers hold: it costs one cycle without
//! looking at a lane, and a stretch of such steps is costed at once.

use crate::config::LayoutIntegration;
use scalesim_layout::{BankModel, BankedMatrix, Cursor, Heading, LayoutSpec, Touch};
use scalesim_systolic::{
    Addr, ArrayShape, Dataflow, DemandGenerator, EdgeStream, GemmShape, Stream, FILTER_BASE,
    IFMAP_BASE, OFMAP_BASE,
};

/// Accumulated layout-vs-bandwidth comparison for one layer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LayoutAnalysis {
    /// Demand-stream length (compute cycles).
    pub compute_cycles: u64,
    /// Total cycles charged by the banked layout model.
    pub layout_cycles: u64,
    /// Total cycles charged by the flat-bandwidth model.
    pub bandwidth_cycles: u64,
}

impl LayoutAnalysis {
    /// Relative slowdown (`layout/bandwidth − 1`); negative when banking
    /// outperforms the flat model.
    pub fn relative_slowdown(&self) -> f64 {
        if self.bandwidth_cycles == 0 {
            0.0
        } else {
            self.layout_cycles as f64 / self.bandwidth_cycles as f64 - 1.0
        }
    }
}

/// One lane of a walk: where it is and the element at which it moves on.
#[derive(Debug, Clone, Copy)]
struct Lane {
    cursor: Cursor,
    until: u64,
}

/// Lanes `first..=last` that walk the same cells, one element apart: the
/// cell of element 0 and the bank of them all.
#[derive(Debug, Clone, Copy)]
struct Group {
    first: usize,
    last: usize,
    origin: usize,
    bank: usize,
}

/// One operand's SRAM and the edge stream currently reading or writing it.
struct Operand {
    /// Address of the operand's element (0, 0).
    base: Addr,
    rows: usize,
    matrix: BankedMatrix,
    model: BankModel,
    /// How long a fetched cell stays in the array-edge line buffers.
    window: u64,
    /// The stream of the current fold and the fold-relative cycle of its
    /// step 0.
    stream: Stream,
    start: u64,
    /// Accesses per word (a read-modify-write reads what it writes).
    accesses: usize,
    /// The direction every lane walks in; none when the stream does not
    /// walk rows or columns, and every element is located afresh.
    heading: Option<Heading>,
    lanes: Vec<Lane>,
    /// When every element of a lane's walk is a cell of its own: what one
    /// element adds to the cell index (wrapping), and the lanes cut into
    /// groups that walk the same cells one after the other. Empty when
    /// lanes are followed one by one.
    cell_step: usize,
    groups: Vec<Group>,
    /// The next step at which a lane enters a cell or the set of lanes
    /// changes; the steps before it repeat the last step looked at.
    next: u64,
    /// What a step before `next` costs: `(layout, bandwidth)` cycles.
    resting: (u64, u64),
    fetches: Vec<u64>,
}

impl Operand {
    fn new(
        base: Addr,
        rows: usize,
        cols: usize,
        layout: LayoutSpec,
        cfg: &LayoutIntegration,
    ) -> Self {
        let model =
            BankModel::from_total_bandwidth(cfg.total_bandwidth, cfg.num_banks, cfg.ports_per_bank);
        Operand {
            base,
            rows,
            matrix: BankedMatrix::new(&model, layout, rows, cols),
            model,
            window: cfg.line_buffer_cycles,
            stream: Stream::contiguous(0, 0),
            start: 0,
            accesses: 1,
            heading: None,
            lanes: Vec::new(),
            cell_step: 0,
            groups: Vec::new(),
            next: u64::MAX,
            resting: (0, 0),
            fetches: vec![0; cfg.num_banks],
        }
    }

    /// `(row, column)` of the word at `addr`.
    fn coords(&self, addr: Addr) -> (usize, usize) {
        let (offset, cols) = (addr.wrapping_sub(self.base), self.matrix.cols() as u64);
        ((offset / cols) as usize, (offset % cols) as usize)
    }

    /// Takes up the edge stream of a new fold.
    fn begin(&mut self, edge: &EdgeStream, accesses: usize) {
        (self.stream, self.start, self.accesses) = (edge.stream, edge.start, accesses);
        (self.next, self.resting) = (0, (0, 0));
        let (len, cols) = (edge.stream.len as u64, self.matrix.cols() as u64);
        // A stride of one matrix row walks a column, a stride of one word
        // a row; a one-element lane walks nowhere.
        self.heading = match edge.stream.step_stride {
            _ if len <= 1 => Some(Heading::Right),
            s if s == cols => Some(Heading::Down),
            s if s == cols.wrapping_neg() => Some(Heading::Up),
            1 => Some(Heading::Right),
            u64::MAX => Some(Heading::Left),
            _ => None,
        };
        self.lanes.clear();
        for lane in 0..edge.stream.lanes as u64 {
            let (row, col) = self.coords(self.stream.addr(lane, 0));
            // The walk must stay on the matrix and in its row or column.
            let (row_span, col_span) = (row as u64, col as u64);
            let fits = row < self.rows
                && match self.heading {
                    Some(Heading::Right) => col_span + len <= cols,
                    Some(Heading::Left) => col_span + 1 >= len,
                    Some(Heading::Down) => row_span + len <= self.rows as u64,
                    Some(Heading::Up) => row_span + 1 >= len,
                    None => true,
                };
            if !fits {
                self.heading = None;
            }
            let cursor = self
                .matrix
                .cursor(row, col, self.heading.unwrap_or(Heading::Right));
            let until = cursor.left() as u64;
            self.lanes.push(Lane { cursor, until });
        }
        // Lanes that change cell every element and start in the same cell
        // read the same cells, each a step after its neighbour (or with
        // it): with a line buffer only a group's first and last lane
        // matter.
        self.groups.clear();
        let step = self
            .lanes
            .first()
            .and_then(|l| l.cursor.cell_step(&self.matrix));
        if let (Some(step), true, true) = (step, self.heading.is_some(), self.window > 0) {
            self.cell_step = step;
            for (lane, Lane { cursor, .. }) in self.lanes.iter().enumerate() {
                match self.groups.last_mut() {
                    Some(group) if group.origin == cursor.cell() => group.last = lane,
                    _ => self.groups.push(Group {
                        first: lane,
                        last: lane,
                        origin: cursor.cell(),
                        bank: cursor.bank(),
                    }),
                }
            }
        }
    }

    /// The lanes on the wavefront at `step`.
    fn lanes_at(&self, step: u64) -> std::ops::Range<usize> {
        let s = &self.stream;
        if step >= s.steps() {
            0..0
        } else if s.skewed {
            step.saturating_sub(s.len as u64 - 1) as usize..(step as usize + 1).min(s.lanes)
        } else {
            0..s.lanes
        }
    }

    /// The fold-relative cycle of the next step that has to be looked at.
    fn next_event(&self) -> u64 {
        self.start.saturating_add(self.next)
    }

    /// `(layout, bandwidth)` cycles of fold-relative cycle `t`, global
    /// cycle `cycle` (counted from one).
    fn cost(&mut self, t: u64, cycle: u64) -> (u64, u64) {
        if t < self.next_event() {
            return self.resting;
        }
        let step = t - self.start;
        let active = self.lanes_at(step);
        self.fetches.iter_mut().for_each(|n| *n = 0);
        self.next = if self.groups.is_empty() {
            self.read_lanes(step, cycle, active.clone())
        } else {
            self.read_groups(step, cycle, active.clone());
            step + 1
        };
        if active.is_empty() {
            (self.next, self.resting) = (u64::MAX, (0, 0));
            return self.resting;
        }
        let ports = self.model.ports_per_bank() as u64;
        let worst = self.fetches.iter().map(|&n| n.div_ceil(ports)).max();
        let elements = active.len() * self.accesses;
        self.resting = (1, self.model.bandwidth_model_cycles(elements));
        (worst.unwrap_or(0).max(1), self.resting.1)
    }

    /// Reads every `active` lane's cell at `step`, counting the fetches
    /// per bank; the next step at which that has to be done again.
    fn read_lanes(&mut self, step: u64, cycle: u64, active: std::ops::Range<usize>) -> u64 {
        // The cells the lanes rested in were last read the cycle before.
        if step > 0 {
            for lane in self.lanes_at(step - 1) {
                self.matrix.mark(self.lanes[lane].cursor.cell(), cycle - 1);
            }
        }
        let (skew, len) = (u64::from(self.stream.skewed), self.stream.len as u64);
        // The wavefront next changes when a lane joins or leaves it ...
        let mut next = match (self.stream.skewed, step + 1) {
            (false, _) => len,
            (true, after) if after < self.stream.lanes as u64 || after >= len => after,
            (true, _) => len,
        };
        for lane in active {
            let element = step - skew * lane as u64;
            if self.heading.is_none() && element > 0 {
                let (row, col) = self.coords(self.stream.addr(lane as u64, element));
                self.lanes[lane].cursor = self.matrix.cursor(row, col, Heading::Right);
            } else if element == self.lanes[lane].until {
                let Lane { cursor, until } = &mut self.lanes[lane];
                cursor.next_cell(&self.matrix);
                *until += cursor.left() as u64;
            }
            let Lane { cursor, until } = self.lanes[lane];
            if self.matrix.touch(cursor.cell(), cycle, self.window) == Touch::Fetched {
                self.fetches[cursor.bank()] += 1;
            }
            // ... or when a lane moves on to its next cell.
            next = next.min(skew * lane as u64 + until);
        }
        // Without a line buffer, and without a row or column to follow,
        // every step is looked at.
        if self.window == 0 || self.heading.is_none() {
            step + 1
        } else {
            next
        }
    }

    /// The same for lanes grouped by the cells they walk: a group's first
    /// lane is the only one to reach a cell no lane of the group has read
    /// (the others re-read what their neighbour read the cycle before,
    /// which the line buffer still holds), and its last lane's reading is
    /// the one a later walk will find.
    fn read_groups(&mut self, step: u64, cycle: u64, active: std::ops::Range<usize>) {
        let Some(newest) = active.end.checked_sub(1).filter(|_| !active.is_empty()) else {
            return;
        };
        let skew = usize::from(self.stream.skewed);
        for group in &self.groups {
            let (leading, trailing) = (group.first.max(active.start), group.last.min(newest));
            if leading > trailing {
                continue;
            }
            let cell = |lane: usize| {
                let element = step as usize - skew * lane;
                group
                    .origin
                    .wrapping_add(element.wrapping_mul(self.cell_step))
            };
            if leading == group.first
                && self.matrix.touch(cell(leading), cycle, self.window) == Touch::Fetched
            {
                self.fetches[group.bank] += 1;
            }
            self.matrix.mark(cell(trailing), cycle);
        }
    }
}

/// Costs a GEMM's demand under the banked layout model and the flat
/// bandwidth model.
pub fn layout_slowdown_for_gemm(
    array: ArrayShape,
    dataflow: Dataflow,
    gemm: GemmShape,
    cfg: &LayoutIntegration,
) -> LayoutAnalysis {
    let mut operands = [
        Operand::new(IFMAP_BASE, gemm.m, gemm.k, cfg.ifmap_layout, cfg),
        Operand::new(FILTER_BASE, gemm.k, gemm.n, cfg.filter_layout, cfg),
        Operand::new(OFMAP_BASE, gemm.m, gemm.n, cfg.ofmap_layout, cfg),
    ];
    let mut total = LayoutAnalysis {
        compute_cycles: 0,
        layout_cycles: 0,
        bandwidth_cycles: 0,
    };
    for fold in DemandGenerator::new(array, dataflow, gemm).folds() {
        let edges = [&fold.ifmap, &fold.filter, &fold.ofmap];
        let accesses = [1, 1, 1 + usize::from(fold.accumulate)];
        for ((operand, edge), accesses) in operands.iter_mut().zip(edges).zip(accesses) {
            operand.begin(edge, accesses);
        }
        let mut t = 0;
        while t < fold.cycles {
            // The three SRAMs serve in parallel; the slowest gates the
            // cycle. Up to the next step any of them has to look at, every
            // cycle costs what the last one did.
            let event = operands.iter().map(Operand::next_event).min();
            let cycles = (event.unwrap_or(t).min(fold.cycles))
                .saturating_sub(t)
                .max(1);
            let cycle = fold.start + t + 1;
            let costs = operands.each_mut().map(|operand| operand.cost(t, cycle));
            let worst = |pick: fn(&(u64, u64)) -> u64| costs.iter().map(pick).max().unwrap_or(0);
            total.layout_cycles += cycles * worst(|c| c.0).max(1);
            total.bandwidth_cycles += cycles * worst(|c| c.1).max(1);
            t += cycles;
        }
        // Leave the cells the last wavefronts rested in marked as read.
        for operand in operands.iter_mut().filter(|o| o.next != u64::MAX) {
            operand.cost(fold.cycles, fold.start + fold.cycles + 1);
        }
        total.compute_cycles += fold.cycles;
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(banks: usize) -> LayoutIntegration {
        LayoutIntegration::row_major(64, banks)
    }

    #[test]
    fn analysis_runs_and_bounds_hold() {
        for df in Dataflow::ALL {
            let a = layout_slowdown_for_gemm(
                ArrayShape::new(8, 8),
                df,
                GemmShape::new(32, 32, 32),
                &cfg(4),
            );
            assert!(a.layout_cycles >= a.compute_cycles, "{df}");
            assert!(a.bandwidth_cycles >= a.compute_cycles, "{df}");
            assert!(a.relative_slowdown() >= -1.0, "{df}");
        }
    }

    #[test]
    fn more_banks_reduce_slowdown() {
        // WS streams the ifmap column-wise — a row-major layout conflicts,
        // and extra banks must relieve it (the Figs. 12–13 trend).
        let few = layout_slowdown_for_gemm(
            ArrayShape::new(16, 16),
            Dataflow::WeightStationary,
            GemmShape::new(64, 64, 64),
            &cfg(1),
        );
        let many = layout_slowdown_for_gemm(
            ArrayShape::new(16, 16),
            Dataflow::WeightStationary,
            GemmShape::new(64, 64, 64),
            &cfg(16),
        );
        assert!(
            many.relative_slowdown() <= few.relative_slowdown(),
            "16 banks {} vs 1 bank {}",
            many.relative_slowdown(),
            few.relative_slowdown()
        );
    }

    #[test]
    fn ws_suffers_more_than_os_under_row_major() {
        // OS streams A row-wise (layout friendly); WS streams A down the K
        // columns (row-major hostile): WS slowdown ≥ OS slowdown.
        let os = layout_slowdown_for_gemm(
            ArrayShape::new(16, 16),
            Dataflow::OutputStationary,
            GemmShape::new(64, 64, 64),
            &cfg(2),
        );
        let ws = layout_slowdown_for_gemm(
            ArrayShape::new(16, 16),
            Dataflow::WeightStationary,
            GemmShape::new(64, 64, 64),
            &cfg(2),
        );
        assert!(
            ws.relative_slowdown() >= os.relative_slowdown() - 1e-9,
            "ws {} vs os {}",
            ws.relative_slowdown(),
            os.relative_slowdown()
        );
    }
}
