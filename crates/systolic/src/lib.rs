//! # scalesim-systolic
//!
//! Cycle-accurate systolic-array simulator core — a from-scratch Rust
//! re-implementation of the SCALE-Sim v2 substrate that SCALE-Sim v3 builds
//! on (Raj et al., *SCALE-Sim v3*, ISPASS 2025).
//!
//! The crate models a single tensor core: an `R × C` systolic array of
//! multiply-accumulate units fed by double-buffered scratchpad SRAMs for
//! input activations (*ifmap*), weights (*filter*) and output activations
//! (*ofmap*), connected to a backing store (DRAM) of configurable bandwidth.
//!
//! ## What it computes
//!
//! * **Cycle-accurate demand streams** — for each simulated cycle, the exact
//!   set of SRAM addresses read at the array edges and written at the output
//!   edge, for the three classic dataflows (output/weight/input stationary),
//!   described per fold in closed form and expanded only on demand.
//! * **Compute reports** — runtime in cycles, PE utilization, mapping
//!   efficiency and MAC counts per layer.
//! * **Memory behaviour** — double-buffered prefetch scheduling against a
//!   [`BackingStore`], stall cycles, DRAM read/write traces and bandwidth
//!   requirements.
//! * **Analytical runtimes** — the closed-form fold equations (Eq. 1 of the
//!   v3 paper) used for design-space sweeps where full traces are
//!   unnecessary.
//!
//! ## Quick example
//!
//! ```
//! use scalesim_systolic::{ArrayShape, Dataflow, GemmShape, SimConfig, CoreSim};
//!
//! let config = SimConfig::builder()
//!     .array(ArrayShape::new(8, 8))
//!     .dataflow(Dataflow::OutputStationary)
//!     .build();
//! let sim = CoreSim::new(config);
//! let report = sim.simulate_gemm(GemmShape::new(32, 32, 32));
//! assert!(report.compute.total_compute_cycles > 0);
//! assert!(report.compute.utilization > 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analytical;
pub mod buffer;
pub mod config;
pub mod dataflow;
pub mod demand;
pub mod dialect;
pub mod error;
pub(crate) mod fasthash;
pub mod operand;
pub mod parallel;
pub mod report;
pub mod sim;
pub mod topology;
pub mod trace;
pub(crate) mod util;

pub use analytical::{analytical_runtime, AnalyticalModel};
pub use buffer::{
    timing, BackingStore, IdealBandwidthStore, ReadPlan, ReadPlanner, RecordingStore, TimedStream,
    TimingInputs, WritePlan, WritePlanner,
};
pub use config::{ArrayShape, Dataflow, MemoryConfig, SimConfig, SimConfigBuilder};
pub use dataflow::{DemandGenerator, Fold, FoldGeometry};
pub use demand::{Batch, DemandSummary, EdgeStream, FoldDemand, Segment, Stream};
pub use error::SimError;
pub use operand::{Addr, OperandKind, OperandMap, FILTER_BASE, IFMAP_BASE, OFMAP_BASE};
pub use parallel::{num_threads, parallel_map, parallel_map_streamed, THREADS_ENV};
pub use report::{ComputeSummary, LayerReport, MemorySummary, OperandMemoryStats, SramSummary};
pub use sim::{CoreSim, PlanCache, PlanCacheStats, PlanKey, PlannedLayer, RepeatLookup};
pub use topology::{ConvLayer, GemmShape, Layer, Topology};
pub use trace::{AccessKind, TraceEntry, TraceRecorder};
