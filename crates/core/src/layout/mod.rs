//! # `scalesim::layout`
//!
//! On-chip multi-bank memory data-layout modeling — SCALE-Sim v3's layout
//! feature (paper §VI).
//!
//! The multi-bank scratchpad is modeled as a 2D array: each *line*
//! aggregates the same row index across all banks, and each bank
//! contributes `bandwidth_per_bank` elements per line with a limited number
//! of access ports. A [`LayoutSpec`] places tensor elements into
//! `(line, column, bank)` coordinates through nested inter-line and
//! intra-line dimension orders (Fig. 11), and a [`BankModel`] prices one
//! cycle's requests as
//!
//! ```text
//! slowdown(cycle) = max_i ⌈ lines_touched(bank_i) / ports(bank_i) ⌉
//! ```
//!
//! against the idealized pure-bandwidth model of SCALE-Sim v2
//! (Figs. 12–13).
//!
//! The pipeline's layout stage ([`layout_slowdown_for_gemm`],
//! `layout_analysis.rs`) walks a layer's demand over the three operands'
//! banked memories (`walk.rs`) when the layout feature is enabled, and
//! design-space sweeps toggle it per grid point via the `layout` axis;
//! the module map lives in `docs/ARCHITECTURE.md`.
//!
//! [`layout_slowdown_for_gemm`]: crate::layout_slowdown_for_gemm
//!
//! ```
//! use scalesim::layout::LayoutSpec;
//! use scalesim::systolic::{ArrayShape, Dataflow, GemmShape};
//! use scalesim::{layout_slowdown_for_gemm, LayoutIntegration};
//!
//! let (array, os) = (ArrayShape::new(8, 8), Dataflow::OutputStationary);
//! let gemm = GemmShape::new(16, 16, 16);
//! // Under output stationary the ofmap's layout decides: row-major lines
//! // (the layout `matched` picks) cost this GEMM no conflict, while
//! // column-major ones more than double its cycles.
//! let matched = LayoutIntegration::matched(os, 8, 8);
//! let mut column_major = matched;
//! column_major.ofmap_layout = LayoutSpec::column_major(8);
//! let good = layout_slowdown_for_gemm(array, os, gemm, &matched);
//! let bad = layout_slowdown_for_gemm(array, os, gemm, &column_major);
//! assert_eq!(good.layout_cycles, good.compute_cycles);
//! assert!(bad.layout_cycles > 2 * good.layout_cycles);
//! assert!(bad.relative_slowdown() > good.relative_slowdown());
//! ```

pub mod conflict;
pub mod spec;
pub mod walk;

pub use conflict::BankModel;
pub use spec::{LayoutSpec, Placement, TensorDims};
pub(crate) use walk::{BankedMatrix, Cursor, Heading, Touch};
