//! # scalesim-layout
//!
//! On-chip multi-bank memory data-layout modeling — SCALE-Sim v3's layout
//! feature (paper §VI).
//!
//! The multi-bank scratchpad is modeled as a 2D array: each *line*
//! aggregates the same row index across all banks, and each bank
//! contributes `bandwidth_per_bank` elements per line with a limited number
//! of access ports. A [`LayoutSpec`] places tensor elements into
//! `(line, column, bank)` coordinates through nested inter-line and
//! intra-line dimension orders (Fig. 11), and [`BankModel`] evaluates the
//! per-cycle bank-conflict slowdown
//!
//! ```text
//! slowdown(cycle) = max_i ⌈ lines_touched(bank_i) / ports(bank_i) ⌉
//! ```
//!
//! against the idealized pure-bandwidth model of SCALE-Sim v2
//! (Figs. 12–13).
//!
//! Within the integrated pipeline (the `scalesim` crate) this analysis
//! runs per layer when the layout feature is enabled, and design-space
//! sweeps toggle it per grid point via the `layout` axis; the crate map
//! lives in `docs/ARCHITECTURE.md`.
//!
//! ```
//! use scalesim_layout::{BankModel, LayoutSpec, TensorDims};
//!
//! let dims = TensorDims::new(64, 8, 8);
//! let layout = LayoutSpec::fig11(); // C64 H8 W8 _ W2 H4 C16
//! let model = BankModel::new(16, 1, 8);
//! // One cycle requesting 16 contiguous channels of one pixel: these share
//! // a single line, so every bank serves at most one line → no conflict.
//! let elems: Vec<_> = (0..16).map(|c| (c, 0, 0)).collect();
//! assert_eq!(model.cycle_slowdown(&layout, dims, elems.iter().copied()), 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod conflict;
pub mod spec;
pub mod walk;

pub use conflict::{BankModel, SlowdownReport, StreamEvaluator};
pub use spec::{LayoutSpec, Placement, TensorDims};
pub use walk::{BankedMatrix, Cursor, Heading, Touch};
