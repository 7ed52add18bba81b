//! # scalesim-energy
//!
//! Architecture-level energy and power estimation — the Accelergy-class
//! substrate SCALE-Sim v3 integrates for its energy feature (paper §VII).
//!
//! The model follows Accelergy's structure:
//!
//! * an **energy reference table** ([`ert`]) assigns per-action energies to
//!   primitive components (MAC units, PE scratchpads, SRAM buffers, DRAM
//!   interface, NoC wires), distinguishing cheap *repeated* accesses from
//!   *random* ones and *gated* from *active* compute;
//! * **action counts** ([`actions`]) are derived from the cycle-accurate
//!   simulation using the paper's §VII-D/E formulas
//!   (`MAC_random = #PEs · cycles · utilization`, spad counts tied to SRAM
//!   reads and MAC counts, `idle = cycles · ports − accesses`);
//! * an **energy report** ([`report`]) composes the two into per-component
//!   energy, average power and energy-delay product;
//! * **system-state validation** ([`validate`]) reproduces Table III's
//!   idle / active / power-gated comparison against PnR reference values;
//! * an **area reference table** ([`area`]) — the Accelergy area-reporting
//!   counterpart — composes per-component silicon area (PE array, SRAMs,
//!   NoC, SIMD unit, DRAM controllers) over the same [`ArchSpec`],
//!   supporting the paper's channel-area and memory-area trade-offs.
//!
//! ```
//! use scalesim_energy::{ActionCounts, ArchSpec, EnergyModel};
//!
//! let arch = ArchSpec::new(8, 8, 64 * 1024, 64 * 1024, 32 * 1024);
//! let model = EnergyModel::eyeriss_65nm(arch);
//! let mut counts = ActionCounts::default();
//! counts.mac_random = 1_000_000;
//! counts.dram_reads = 10_000;
//! let report = model.evaluate(&counts, 100_000);
//! assert!(report.total_pj() > 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod actions;
pub mod area;
pub mod ert;
pub mod report;
pub mod validate;

pub use actions::{ActionCounts, LayerActivity};
pub use area::{AreaBreakdown, AreaConfig, AreaTable};
pub use ert::{ArchSpec, EnergyModel, EnergyTable};
pub use report::{ComponentEnergy, EnergyReport};
pub use validate::{system_state_table, SystemState, SystemStateRow};
