//! # scalesim-mem
//!
//! A cycle-accurate DRAM simulator — the Ramulator-class substrate that
//! SCALE-Sim v3 integrates for main-memory analysis (paper §V).
//!
//! The model covers the abstractions SCALE-Sim v3 actually consumes from
//! Ramulator:
//!
//! * **Device timing** — per-bank state machines honoring the JEDEC core
//!   parameters (`tRCD`, `tRP`, `tRAS`, `tRC`, `tCCD`, `tRRD`, `tFAW`,
//!   `tWR`, `tRTP`, `tWTR`, `CL`/`CWL`, burst length) with presets for
//!   DDR3, DDR4, LPDDR4, GDDR5 and HBM2 (see [`DramSpec`]).
//! * **Controller** — per-channel FR-FCFS scheduling with an open-page row
//!   policy (FCFS and closed-page available for ablation), periodic refresh,
//!   and a shared data bus per channel.
//! * **Request queues** — finite read/write queues providing the
//!   back-pressure the paper's §V-A2 stall model relies on; writes complete
//!   on controller acceptance (AXI-style), reads on data return.
//! * **Statistics** — row buffer hits/misses/conflicts, per-request round
//!   trip latency, bandwidth and bus utilization.
//! * **Power** — IDD-based energy/power estimation from the recorded
//!   command counts and row-open time (see [`power`]), matching the power
//!   reporting Ramulator-class simulators provide (§II-C).
//! * **Self-verification** — an optional command trace plus an independent
//!   JEDEC-legality checker (see [`cmdtrace`]), the analogue of
//!   Ramulator's validation against the Micron Verilog model (§VIII).
//!
//! ## Module map
//!
//! [`spec`] devices and timing presets · [`bank`] per-bank state
//! machine · [`controller`] FR-FCFS scheduling and refresh · [`system`]
//! multi-channel front end · [`addrmap`] address interleaving ·
//! [`replay`] demand-trace replay (the §V-B middle step) · [`stats`]
//! counters · [`power`] IDD energy · [`cmdtrace`] JEDEC legality
//! checking. The integrated engine (`scalesim` crate) drives all of
//! this through the three-step flow described in `docs/ARCHITECTURE.md`.
//!
//! ## Example
//!
//! ```
//! use scalesim_mem::{AccessKind, DramConfig, DramSpec, DramSystem};
//!
//! let mut dram = DramSystem::new(DramConfig {
//!     spec: DramSpec::ddr4_2400(),
//!     channels: 2,
//!     ..DramConfig::default()
//! });
//! dram.enqueue(AccessKind::Read, 0x1000, 7, &mut |_| ());
//! let mut done = Vec::new();
//! dram.drain(&mut |completion| done.push(completion));
//! assert_eq!((done[0].tag, dram.stats().reads), (7, 1));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod addrmap;
pub mod bank;
pub mod cmdtrace;
pub mod controller;
pub mod power;
pub mod replay;
pub mod spec;
pub mod stats;
pub mod system;

pub use addrmap::{AddressMapping, DramAddr};
pub use cmdtrace::{verify_timing, CommandKind, CommandLog, TimingViolation};
pub use controller::{RowPolicy, SchedulingPolicy};
pub use power::{DramEnergyBreakdown, DramPowerParams};
pub use replay::{Replay, ReplaySummary};
pub use spec::{DramOrg, DramSpec, DramTiming};
pub use stats::MemStats;
pub use system::{AccessKind, Completion, DramConfig, DramSystem};
