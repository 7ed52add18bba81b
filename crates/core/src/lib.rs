//! # scalesim
//!
//! **SCALE-Sim v3** — a modular, cycle-accurate systolic accelerator
//! simulator for end-to-end system analysis (Raj et al., ISPASS 2025),
//! reproduced in Rust.
//!
//! This crate is the integration layer and holds the paper's features
//! as modules; the substrates it builds on are sibling crates,
//! re-exported here:
//!
//! | feature (paper section) | module |
//! |---|---|
//! | cycle-accurate systolic core (v2 substrate) | [`systolic`] (crate) |
//! | multi-core & spatio-temporal partitioning, shared L2 (§III) | [`multicore`] |
//! | N:M sparsity (§IV) | [`sparse`] |
//! | cycle-accurate DRAM (§V) | [`mem`] (crate) |
//! | on-chip data layout (§VI) | [`layout`] |
//! | energy & power (§VII) | [`energy`] |
//! | multi-chip scale-out collectives & parallelism | [`collective`] |
//! | LLM workload generation | [`llm`] |
//! | evaluation workloads (the `topologies/*.csv` registry) | [`workloads`] |
//! | design-space-exploration sweeps | [`sweep`] |
//!
//! The paper's Fig. 3 partition search, §III-D non-uniform NoP split
//! and Table III system states are reached by no request: they live in
//! `crates/repro`, beside the ledger rows that run them.
//!
//! ## End-to-end example
//!
//! ```
//! use scalesim::{ScaleSim, ScaleSimConfig};
//! use scalesim::systolic::{ArrayShape, Dataflow, GemmShape};
//!
//! let mut config = ScaleSimConfig::default();
//! config.core.array = ArrayShape::new(16, 16);
//! config.core.dataflow = Dataflow::WeightStationary;
//! config.enable_dram = true;
//! config.enable_energy = true;
//!
//! let sim = ScaleSim::new(config);
//! let result = sim.run_gemm("demo", GemmShape::new(64, 64, 64));
//! assert!(result.total_cycles() > 0);
//! assert!(result.energy.as_ref().unwrap().total_mj() > 0.0);
//! ```
//!
//! The three-step memory flow of §V-B is implemented exactly: the systolic
//! simulation first runs against ideal memory to produce a demand trace;
//! the trace replays through the cycle-accurate DRAM model yielding
//! per-request round-trip latencies and statistics; the systolic timing
//! then re-runs with those latencies and finite request queues to obtain
//! the stall-aware end-to-end latency.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cancel;
pub mod cfg;
pub mod cli;
pub mod collective;
pub mod config;
pub mod dram;
pub mod energy;
pub mod engine;
pub mod layout;
pub mod layout_analysis;
pub mod llm;
pub mod multicore;
pub mod pipeline;
pub mod result;
pub mod scaleout;
pub mod serve;
pub mod service;
pub mod sink;
pub mod sparse;
pub mod sweep;
pub mod sweep_run;
pub mod workloads;

pub use cancel::CancelToken;
pub use cfg::parse_cfg;
pub use config::{
    DramIntegration, LayoutIntegration, MultiCoreIntegration, ScaleSimConfig, SparsityMode,
};
pub use dram::{dram_analysis, DramAnalysis, LatencyReplayStore};
pub use engine::ScaleSim;
pub use layout_analysis::{layout_slowdown_for_gemm, LayoutAnalysis};
pub use result::{LayerResult, RunResult};
pub use serve::MAX_REQUEST_BYTES;
pub use service::SimService;
pub use sink::{MemoryReportSink, ResultSink, RunSummary};
pub use sweep_run::run_sweep;

/// Re-export: the stable typed request/response API and wire protocol.
pub use scalesim_api as api;
/// Re-export: DRAM simulation substrate.
pub use scalesim_mem as mem;
/// Re-export: the cycle-accurate systolic core.
pub use scalesim_systolic as systolic;

// The unit tests of the modules folded in from the former feature crates
// (collective, energy, layout, llm, multicore, sparse, sweep,
// workloads) live in `unit_tests/`, at the paths those crates gave them:
// `nop::tests::…`, not `multicore::nop::tests::…`. A test keeps its name
// across the fold.
#[cfg(test)]
#[path = "../unit_tests/actions.rs"]
mod actions;
#[cfg(test)]
#[path = "../unit_tests/analytical.rs"]
mod analytical;
#[cfg(test)]
#[path = "../unit_tests/area.rs"]
mod area;
#[cfg(test)]
#[path = "../unit_tests/cnn.rs"]
mod cnn;
#[cfg(test)]
#[path = "../unit_tests/collectives.rs"]
mod collectives;
#[cfg(test)]
#[path = "../unit_tests/conflict.rs"]
mod conflict;
#[cfg(test)]
#[path = "../unit_tests/ert.rs"]
mod ert;
#[cfg(test)]
#[path = "../unit_tests/exec.rs"]
mod exec;
#[cfg(test)]
#[path = "../unit_tests/fabric.rs"]
mod fabric;
#[cfg(test)]
#[path = "../unit_tests/l2.rs"]
mod l2;
#[cfg(test)]
#[path = "../unit_tests/pareto.rs"]
mod pareto;
#[cfg(test)]
#[path = "../unit_tests/partition.rs"]
mod partition;
#[cfg(test)]
#[path = "../unit_tests/pattern.rs"]
mod pattern;
#[cfg(test)]
#[path = "../unit_tests/report.rs"]
mod report;
#[cfg(test)]
#[path = "../unit_tests/sim.rs"]
mod sim;
#[cfg(test)]
#[path = "../unit_tests/spec.rs"]
mod spec;
#[cfg(test)]
#[path = "../unit_tests/spmm.rs"]
mod spmm;
#[cfg(test)]
#[path = "../unit_tests/strategy.rs"]
mod strategy;
#[cfg(test)]
#[path = "../unit_tests/tests.rs"]
mod tests;
#[cfg(test)]
#[path = "../unit_tests/timeline.rs"]
mod timeline;
#[cfg(test)]
#[path = "../unit_tests/vit.rs"]
mod vit;
#[cfg(test)]
#[path = "../unit_tests/walk.rs"]
mod walk;
