//! # scalesim
//!
//! **SCALE-Sim v3** — a modular, cycle-accurate systolic accelerator
//! simulator for end-to-end system analysis (Raj et al., ISPASS 2025),
//! reproduced in Rust.
//!
//! This crate is the integration layer. The substrates live in sibling
//! crates and are re-exported here:
//!
//! | feature (paper section) | crate |
//! |---|---|
//! | cycle-accurate systolic core (v2 substrate) | [`systolic`] |
//! | multi-core & spatio-temporal partitioning (§III) | [`multicore`] |
//! | N:M sparsity (§IV) | [`sparse`] |
//! | cycle-accurate DRAM (§V) | [`mem`] |
//! | on-chip data layout (§VI) | [`layout`] |
//! | energy & power (§VII) | [`energy`] |
//! | multi-chip scale-out collectives & parallelism | [`collective`] |
//! | evaluation workloads | [`workloads`] |
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
pub mod config;
pub mod dram;
pub mod engine;
pub mod layout_analysis;
pub mod metrics;
pub mod pipeline;
pub mod result;
pub mod scaleout;
pub mod serve;
pub mod service;
pub mod sink;
pub mod sweep_run;

pub use cancel::CancelToken;
pub use cfg::parse_cfg;
pub use cli::{parse_cli, version_string, Command};
pub use config::{
    DramIntegration, LayoutIntegration, MultiCoreIntegration, ScaleSimConfig, SparsityMode,
};
pub use dram::{dram_analysis, DramAnalysis, LatencyReplayStore};
pub use engine::{ScaleSim, StreamStats, STREAM_BLOCK};
pub use layout_analysis::{layout_slowdown_for_gemm, LayoutAnalysis};
pub use metrics::{LatencyHistogram, ServeMetrics};
pub use pipeline::StageTiming;
pub use result::{LayerResult, RunResult};
pub use scaleout::{run_scaleout, ScaleoutLayerRecord, ScaleoutSummary};
pub use serve::{ServeOptions, Server, MAX_REQUEST_BYTES};
pub use service::{Progress, SimService};
pub use sink::{MemoryReportSink, ResultSink, RunSummary};
pub use sweep_run::{apply_point, run_sweep};

/// Re-export: the stable typed request/response API and wire protocol.
pub use scalesim_api as api;
/// Re-export: multi-chip collective-communication and parallelism
/// modeling.
pub use scalesim_collective as collective;
/// Re-export: energy & power modeling substrate.
pub use scalesim_energy as energy;
/// Re-export: on-chip layout modeling substrate.
pub use scalesim_layout as layout;
/// Re-export: DRAM simulation substrate.
pub use scalesim_mem as mem;
/// Re-export: multi-core modeling.
pub use scalesim_multicore as multicore;
/// Re-export: sparsity support.
pub use scalesim_sparse as sparse;
/// Re-export: the design-space-exploration sweep engine.
pub use scalesim_sweep as sweep;
/// Re-export: the cycle-accurate systolic core.
pub use scalesim_systolic as systolic;
/// Re-export: evaluation workloads.
pub use scalesim_workloads as workloads;
