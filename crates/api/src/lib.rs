//! # scalesim-api
//!
//! The **stable, versioned, typed API** of the SCALE-Sim v3 simulator:
//! every scenario the simulator supports — one-shot runs, design-space
//! sweeps, multi-chip scale-out runs, area reports, version probes —
//! is expressed as a
//! [`SimRequest`] and answered with a [`SimResponse`] or a categorized,
//! non-panicking [`SimError`].
//!
//! This crate is deliberately *thin*: plain data types plus their JSON
//! codec ([`json`]) and the JSON-lines wire protocol ([`wire`]) used by
//! `scalesim serve`. Execution lives in the `scalesim` crate's
//! `SimService`, which the CLI binary and the serve mode are both thin
//! clients of. Downstream tools that only *build requests and read
//! responses* (remote clients, schedulers, test harnesses) can depend
//! on this crate alone.
//!
//! ## Versioning policy
//!
//! * [`API_VERSION`] is the wire-protocol major version. Every request
//!   names it; a server rejects versions it does not speak.
//! * Within one `API_VERSION`, changes are **additive only**: new
//!   optional request fields, new response fields, new request kinds.
//!   Removing or renaming a field, changing a type, or changing the
//!   meaning of an exit code bumps `API_VERSION`.
//! * The [`SimError`] categories and their exit codes (config=2,
//!   topology=3, io=4, internal=70, busy=75, deadline=124) are frozen
//!   for all versions.
//!
//! The full JSON schema with worked examples is `docs/API.md`.
//!
//! ## Example
//!
//! ```
//! use scalesim_api::{wire, ConfigSource, Features, RunSpec, SimRequest, TopologySource};
//!
//! let request = SimRequest::Run(RunSpec {
//!     config: ConfigSource::Default,
//!     topology: TopologySource::inline("demo", "l0, 32, 32, 32,\n"),
//!     features: Features { energy: true, ..Default::default() },
//! });
//! let line = wire::encode_request(Some("r-1"), &request);
//! let (id, decoded) = wire::decode_request(&line);
//! assert_eq!(id.as_deref(), Some("r-1"));
//! assert_eq!(decoded.unwrap(), request);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod codec;
pub(crate) mod error;
pub mod json;
pub(crate) mod request;
pub(crate) mod response;
pub mod wire;

/// The wire-protocol major version this crate implements.
pub const API_VERSION: u32 = 1;

pub use error::SimError;
pub use request::{
    AreaSpec, ConfigSource, Features, LlmRequest, RunSpec, ScaleoutRequest, SweepRequest,
    TopologyFormat, TopologySource,
};
pub use response::{
    AreaBody, LlmBody, Report, RunBody, RunSummaryBody, ScaleoutBody, StatsBody, SweepBody,
    TraceBody, VersionBody, SPAN_CATEGORIES,
};
pub use wire::{SimRequest, SimResponse};
