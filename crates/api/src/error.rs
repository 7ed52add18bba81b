//! The stable [`SimError`] taxonomy every public entry point reports
//! through.
//!
//! Six categories cover everything the simulator can reject, each with
//! a fixed wire tag and a fixed process exit code (used by the
//! `scalesim` binary):
//!
//! | variant | wire `kind` | exit code | typical causes |
//! |---|---|---|---|
//! | [`SimError::Config`] | `config` | 2 | bad `.cfg` key, invalid core geometry, malformed request |
//! | [`SimError::Topology`] | `topology` | 3 | CSV parse error, duplicate layer name, empty topology |
//! | [`SimError::Io`] | `io` | 4 | unreadable input file, unwritable output directory |
//! | [`SimError::Internal`] | `internal` | 70 | a caught panic — always a bug, please report |
//! | [`SimError::Busy`] | `busy` | 75 | server at capacity (session cap); retry later |
//! | [`SimError::Deadline`] | `deadline` | 124 | the request's `deadline_ms` expired before it finished |
//!
//! Exit code 70 is BSD's `EX_SOFTWARE` and 75 its `EX_TEMPFAIL` (the
//! retryable one); 124 matches GNU `timeout(1)`. 2–4 avoid 1 (generic
//! CLI usage failure) and anything shells reserve (126+).

use std::error::Error;
use std::fmt;

/// A categorized, displayable simulation failure.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum SimError {
    /// The architecture configuration or the request itself is invalid.
    Config(String),
    /// The workload topology is invalid (parse failure, duplicate layer
    /// name, no layers).
    Topology(String),
    /// An input could not be read or an output could not be written.
    Io(String),
    /// An internal invariant failed (caught panic); always a bug.
    Internal(String),
    /// The server is at capacity (session cap reached); the connection
    /// was shed, not queued. Retry later.
    Busy(String),
    /// The request's `deadline_ms` budget expired before it finished.
    Deadline(String),
}

impl SimError {
    /// The stable wire tag (`config` / `topology` / `io` / `internal` /
    /// `busy` / `deadline`).
    pub fn kind(&self) -> &'static str {
        match self {
            SimError::Config(_) => "config",
            SimError::Topology(_) => "topology",
            SimError::Io(_) => "io",
            SimError::Internal(_) => "internal",
            SimError::Busy(_) => "busy",
            SimError::Deadline(_) => "deadline",
        }
    }

    /// The process exit code the `scalesim` binary maps this category to.
    pub fn exit_code(&self) -> u8 {
        match self {
            SimError::Config(_) => 2,
            SimError::Topology(_) => 3,
            SimError::Io(_) => 4,
            SimError::Internal(_) => 70,
            SimError::Busy(_) => 75,
            SimError::Deadline(_) => 124,
        }
    }

    /// The message without the category prefix.
    pub fn message(&self) -> &str {
        match self {
            SimError::Config(m)
            | SimError::Topology(m)
            | SimError::Io(m)
            | SimError::Internal(m)
            | SimError::Busy(m)
            | SimError::Deadline(m) => m,
        }
    }

    /// Builds the error for a decoded wire `kind` tag (unknown tags
    /// collapse to [`SimError::Internal`], preserving the message).
    pub(crate) fn from_kind(kind: &str, message: String) -> SimError {
        match kind {
            "config" => SimError::Config(message),
            "topology" => SimError::Topology(message),
            "io" => SimError::Io(message),
            "busy" => SimError::Busy(message),
            "deadline" => SimError::Deadline(message),
            _ => SimError::Internal(message),
        }
    }

    /// Wraps a caught panic payload (what `std::panic::catch_unwind`
    /// returns) as an [`SimError::Internal`].
    pub fn from_panic(payload: Box<dyn std::any::Any + Send>) -> SimError {
        let msg = payload
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "panic with non-string payload".to_string());
        SimError::Internal(format!("panic: {msg}"))
    }
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::Config(m) => write!(f, "configuration error: {m}"),
            SimError::Topology(m) => write!(f, "topology error: {m}"),
            SimError::Io(m) => write!(f, "io error: {m}"),
            SimError::Internal(m) => write!(f, "internal error: {m}"),
            SimError::Busy(m) => write!(f, "busy: {m}"),
            SimError::Deadline(m) => write!(f, "deadline exceeded: {m}"),
        }
    }
}

impl Error for SimError {}

impl From<scalesim_systolic::SimError> for SimError {
    /// Maps the engine-level error type into the public taxonomy:
    /// configuration problems stay `Config`, anything about a layer or
    /// a topology row becomes `Topology`.
    fn from(e: scalesim_systolic::SimError) -> Self {
        use scalesim_systolic::SimError as Core;
        match &e {
            Core::InvalidConfig(_) => SimError::Config(e.to_string()),
            Core::ParseTopology { .. } | Core::InvalidLayer(_) => SimError::Topology(e.to_string()),
            _ => SimError::Internal(e.to_string()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exit_codes_are_pinned() {
        assert_eq!(SimError::Config("x".into()).exit_code(), 2);
        assert_eq!(SimError::Topology("x".into()).exit_code(), 3);
        assert_eq!(SimError::Io("x".into()).exit_code(), 4);
        assert_eq!(SimError::Internal("x".into()).exit_code(), 70);
        assert_eq!(SimError::Busy("x".into()).exit_code(), 75);
        assert_eq!(SimError::Deadline("x".into()).exit_code(), 124);
    }

    #[test]
    fn kinds_round_trip() {
        for e in [
            SimError::Config("a".into()),
            SimError::Topology("b".into()),
            SimError::Io("c".into()),
            SimError::Internal("d".into()),
            SimError::Busy("e".into()),
            SimError::Deadline("f".into()),
        ] {
            assert_eq!(SimError::from_kind(e.kind(), e.message().to_string()), e);
        }
    }

    #[test]
    fn core_errors_map_into_the_taxonomy() {
        use scalesim_systolic::SimError as Core;
        let cfg: SimError = Core::InvalidConfig("zero array".into()).into();
        assert_eq!(cfg.kind(), "config");
        let topo: SimError = Core::ParseTopology {
            line: 3,
            reason: "bad row".into(),
        }
        .into();
        assert_eq!(topo.kind(), "topology");
        assert!(topo.message().contains("line 3"), "{topo}");
    }

    #[test]
    fn panic_payloads_become_internal() {
        let e = SimError::from_panic(Box::new("boom"));
        assert_eq!(e.kind(), "internal");
        assert!(e.message().contains("boom"));
        let e = SimError::from_panic(Box::new(String::from("sboom")));
        assert!(e.message().contains("sboom"));
    }
}
