//! Umbrella package for the SCALE-Sim v3 Rust reproduction.
//!
//! This package hosts the runnable examples (`examples/`) and the
//! cross-crate integration tests (`tests/`). The library surface simply
//! re-exports the [`scalesim`] integration crate; depend on `scalesim`
//! directly for library use. The one module of its own, [`matrix`], is a
//! reference the oracle in `tests/invariants.rs` compares the product
//! against; nothing under `crates/` can reach it.

pub mod matrix;

pub use scalesim;
pub use scalesim::{
    energy, layout, mem, multicore, sparse, systolic, workloads, DramAnalysis, DramIntegration,
    LayerResult, LayoutAnalysis, LayoutIntegration, RunResult, ScaleSim, ScaleSimConfig,
    SparsityMode,
};
