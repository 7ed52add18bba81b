//! The JSON-lines wire protocol of `scalesim serve`.
//!
//! One request per line, one response per line, in order. A request
//! envelope is an object with:
//!
//! * `"api"` — required integer; must equal [`crate::API_VERSION`].
//! * `"id"` — optional string, echoed verbatim in the response.
//! * `"deadline_ms"` — optional non-negative integer; the server
//!   abandons the request with a `deadline` error once this much wall
//!   time has elapsed (checked at stage boundaries, not preemptively).
//! * exactly one command key — `"run"`, `"sweep"`, `"scaleout"`,
//!   `"llm"`, `"area"`, `"version"`, `"stats"` or `"trace"` — whose
//!   value is the command body (see [`crate::request`]).
//!
//! A response envelope carries `"api"`, the echoed `"id"` (when the
//! request had one), and either `"ok"` (an object keyed by the command
//! tag) or `"error"` (`kind`/`exit_code`/`message`). Responses are
//! emitted with fixed key order and fixed numeric precision, so serve
//! output is byte-deterministic for a given build.
//!
//! The command vocabulary is one table in this file: each row binds a
//! wire tag to its request and response variants, and the tag lookup,
//! both decoders and the "supported commands" sentence all read it.
//!
//! ```
//! use scalesim_api::{wire, SimRequest};
//! let line = r#"{"api": 1, "id": "v1", "version": {}}"#;
//! let (id, req) = wire::decode_request(line);
//! assert_eq!(id.as_deref(), Some("v1"));
//! assert_eq!(req.unwrap(), SimRequest::Version);
//! ```

use crate::codec::{quote, Ctx, ObjectWriter, Opt, Side, Wire, UINT};
use crate::error::SimError;
use crate::json::Json;
use crate::request::{AreaSpec, LlmRequest, RunSpec, ScaleoutRequest, SweepRequest};
use crate::response::{
    AreaBody, LlmBody, RunBody, ScaleoutBody, StatsBody, SweepBody, TraceBody, VersionBody,
};
use crate::API_VERSION;

/// One command of the protocol: its wire tag and the decoder of each
/// direction's body.
struct Command {
    tag: &'static str,
    request: fn(&Json) -> Result<SimRequest, SimError>,
    response: fn(&Json) -> Result<SimResponse, SimError>,
}

/// Declares the command vocabulary, one row per command: `tag =>
/// request variant / response variant`. From the rows come both enums,
/// the [`COMMANDS`] table and the encoders' tag-and-body writers.
/// Commands before the `;` carry a request body; the probes after it
/// send `{}`.
macro_rules! commands {
    (
        $( $(#[$doc:meta])* $tag:literal => $req:ident($spec:ty) / $resp:ident($body:ty), )*
        ;
        $( $(#[$pdoc:meta])* $ptag:literal => $preq:ident / $presp:ident($pbody:ty), )*
    ) => {
        /// A versioned simulation request — the single entry point every
        /// front end (CLI, `scalesim serve`, embedding tools) goes through.
        #[derive(Debug, Clone, PartialEq)]
        pub enum SimRequest {
            $( $(#[$doc])* $req($spec), )*
            $( $(#[$pdoc])* $preq, )*
        }

        /// A successful response to a [`SimRequest`]; failures travel as
        /// [`SimError`] (see [`encode_response`]).
        #[derive(Debug, Clone, PartialEq)]
        pub enum SimResponse {
            $( #[doc = concat!("Result of a `", $tag, "` request.")] $resp($body), )*
            $( #[doc = concat!("Result of a `", $ptag, "` request.")] $presp($pbody), )*
        }

        const COMMANDS: &[Command] = &[
            $( Command {
                tag: $tag,
                request: |body| <$spec>::read(body).map(SimRequest::$req),
                response: |body| <$body>::read(body).map(SimResponse::$resp),
            }, )*
            $( Command {
                tag: $ptag,
                request: |body| {
                    let probe = Ctx { side: Side::Request, label: $ptag };
                    probe.object(body, &[]).map(|()| SimRequest::$preq)
                },
                response: |body| <$pbody>::read(body).map(SimResponse::$presp),
            }, )*
        ];

        impl SimRequest {
            /// Writes `"tag":{body}` as the next member of `envelope`.
            fn write_into(&self, envelope: &mut ObjectWriter) {
                match self {
                    $( SimRequest::$req(spec) => spec.write(envelope.key($tag)), )*
                    $( SimRequest::$preq => envelope.section($ptag).close(), )*
                }
            }
        }

        impl SimResponse {
            /// Writes `"tag":{body}` as the next member of `ok`.
            fn write_into(&self, ok: &mut ObjectWriter) {
                match self {
                    $( SimResponse::$resp(body) => body.write(ok.key($tag)), )*
                    $( SimResponse::$presp(body) => body.write(ok.key($ptag)), )*
                }
            }
        }
    };
}

commands! {
    /// Simulate one topology.
    "run" => Run(RunSpec) / Run(RunBody),
    /// Run a design-space sweep.
    "sweep" => Sweep(SweepRequest) / Sweep(SweepBody),
    /// Simulate a multi-chip scale-out execution.
    "scaleout" => Scaleout(ScaleoutRequest) / Scaleout(ScaleoutBody),
    /// Generate and simulate an LLM workload (prefill or decode).
    "llm" => Llm(LlmRequest) / Llm(LlmBody),
    /// Report the configured accelerator's silicon area.
    "area" => AreaReport(AreaSpec) / Area(AreaBody),
    ;
    /// Report the server's version and API level.
    "version" => Version / Version(VersionBody),
    /// Report the server's runtime metrics: plan-cache stats, requests
    /// in flight/shed, and handle-latency percentiles. Answered inline
    /// (never queued), so it stays observable under saturation.
    "stats" => Stats / Stats(StatsBody),
    /// Export the process's recorded span rings as Chrome trace-event
    /// JSON. Answered inline (never queued); the body is empty when
    /// tracing was never enabled.
    "trace" => Trace / Trace(TraceBody),
}

fn command(tag: &str) -> Option<&'static Command> {
    COMMANDS.iter().find(|command| command.tag == tag)
}

/// The supported command set, rendered for error messages.
fn supported_commands() -> String {
    let tags: Vec<&str> = COMMANDS.iter().map(|command| command.tag).collect();
    tags.join(", ")
}

/// The envelope's own keys.
const API: &str = "api";
const ID: &str = "id";
const DEADLINE_MS: &str = "deadline_ms";
const OK: &str = "ok";
const ERROR: &str = "error";
const KIND: &str = "kind";
const MESSAGE: &str = "message";

/// A fully decoded request envelope: the id and deadline recovered
/// (even from envelopes whose command failed to decode, so servers can
/// correlate and bound every reply) plus the decoded request or the
/// failure describing what was wrong.
#[derive(Debug)]
pub struct DecodedRequest {
    /// The `"id"` field, echoed in the response when present.
    pub id: Option<String>,
    /// The `"deadline_ms"` field, when present and valid.
    pub deadline_ms: Option<u64>,
    /// The decoded command, or the first decode failure.
    pub request: Result<SimRequest, SimError>,
}

/// Decodes one request line.
///
/// Returns the request id (when one could be recovered — it is echoed
/// even on malformed requests so clients can correlate failures) and
/// the decoded request or the failure describing what was wrong. All
/// decode failures are [`SimError::Config`]; nothing here panics on any
/// input. Ignores `deadline_ms` — servers use
/// [`decode_request_full`].
pub fn decode_request(line: &str) -> (Option<String>, Result<SimRequest, SimError>) {
    let decoded = decode_request_full(line);
    (decoded.id, decoded.request)
}

/// Decodes one request line including the `deadline_ms` envelope field
/// (the server half; clients without deadlines can keep using
/// [`decode_request`]).
pub fn decode_request_full(line: &str) -> DecodedRequest {
    let (id, deadline_ms, request) = match parse_line("request", line) {
        Err(e) => (None, None, Err(e)),
        Ok((value, id)) => match value.get(DEADLINE_MS) {
            Some(v) if v.as_u64().is_none() => {
                let e = SimError::Config(format!(
                    "request: \"{DEADLINE_MS}\" must be a non-negative integer, got {v}"
                ));
                (id, None, Err(e))
            }
            deadline => (id, deadline.and_then(Json::as_u64), decode_envelope(&value)),
        },
    };
    DecodedRequest {
        id,
        deadline_ms,
        request,
    }
}

/// Parses one line of either direction and recovers its `"id"`.
fn parse_line(direction: &str, line: &str) -> Result<(Json, Option<String>), SimError> {
    let value = Json::parse(line)
        .map_err(|e| SimError::Config(format!("{direction} is not valid JSON: {e}")))?;
    let id = value.get(ID).and_then(Json::as_str).map(str::to_string);
    Ok((value, id))
}

fn decode_envelope(value: &Json) -> Result<SimRequest, SimError> {
    let (command, body) = envelope_command(value).map_err(SimError::Config)?;
    (command.request)(body)
}

/// Checks the envelope and finds its one command key; a failure is the
/// message of the `config` error to answer.
fn envelope_command(value: &Json) -> Result<(&'static Command, &Json), String> {
    let fields = value.as_object().ok_or("request must be a JSON object")?;
    let api = value
        .get(API)
        .ok_or_else(|| format!("request: missing required \"{API}\": {API_VERSION}"))?;
    match api.as_u64() {
        Some(v) if v == u64::from(API_VERSION) => {}
        Some(v) => {
            return Err(format!(
                "unsupported api version {v} (supported versions: {API_VERSION})"
            ))
        }
        // Present but not a non-negative integer (a string, a
        // fraction…) — say so, rather than claiming it is missing.
        None => {
            return Err(format!(
                "request: \"{API}\" must be the integer {API_VERSION}, got {api}"
            ))
        }
    }
    let mut found = None;
    for (key, body) in fields {
        if [API, ID, DEADLINE_MS].contains(&key.as_str()) {
            continue;
        }
        let command = command(key).ok_or_else(|| {
            let supported = supported_commands();
            format!("request: unknown key \"{key}\" (supported commands: {supported})")
        })?;
        if found.replace((command, body)).is_some() {
            return Err("request: more than one command key".into());
        }
    }
    found.ok_or_else(|| {
        let supported = supported_commands();
        format!("request: missing command key (one of {supported})")
    })
}

/// Opens an envelope: `{"api":1[,"id":…]`.
fn open_envelope<'a>(out: &'a mut String, id: Option<&str>) -> ObjectWriter<'a> {
    let mut envelope = ObjectWriter::open(out);
    envelope.member(API, &API_VERSION, &UINT);
    if let Some(id) = id {
        quote(id, envelope.key(ID));
    }
    envelope
}

/// Encodes one request line (the client half).
pub fn encode_request(id: Option<&str>, request: &SimRequest) -> String {
    encode_request_with_deadline(id, None, request)
}

/// Encodes one request line carrying an optional `deadline_ms` budget.
pub fn encode_request_with_deadline(
    id: Option<&str>,
    deadline_ms: Option<u64>,
    request: &SimRequest,
) -> String {
    let mut out = String::new();
    let mut envelope = open_envelope(&mut out, id);
    envelope.member(DEADLINE_MS, &deadline_ms, &Opt(UINT));
    request.write_into(&mut envelope);
    envelope.close();
    out
}

/// Encodes one response line: `{"api":1[,"id":…],"ok":{…}}` on success,
/// `{"api":1[,"id":…],"error":{…}}` on failure. Single line, fixed key
/// order.
pub fn encode_response(id: Option<&str>, result: &Result<SimResponse, SimError>) -> String {
    let mut out = String::new();
    let mut envelope = open_envelope(&mut out, id);
    match result {
        Ok(response) => {
            let mut ok = envelope.section(OK);
            response.write_into(&mut ok);
            ok.close();
        }
        Err(e) => {
            let mut error = envelope.section(ERROR);
            quote(e.kind(), error.key(KIND));
            error.member("exit_code", &e.exit_code(), &UINT);
            quote(e.message(), error.key(MESSAGE));
            error.close();
        }
    }
    envelope.close();
    out
}

/// Decodes one response line (the client half).
///
/// Returns the echoed id and either the decoded response or the
/// server-reported (or local decode) failure.
pub fn decode_response(line: &str) -> (Option<String>, Result<SimResponse, SimError>) {
    let (value, id) = match parse_line("response", line) {
        Ok(parsed) => parsed,
        Err(e) => return (None, Err(e)),
    };
    if let Some(err) = value.get(ERROR) {
        let kind = err.get(KIND).and_then(Json::as_str).unwrap_or("internal");
        let message = err
            .get(MESSAGE)
            .and_then(Json::as_str)
            .unwrap_or("missing error message")
            .to_string();
        return (id, Err(SimError::from_kind(kind, message)));
    }
    let result = match value.get(OK).and_then(Json::as_object) {
        Some([(tag, body)]) => match command(tag) {
            Some(command) => (command.response)(body),
            None => Err(Side::Response.err(format!("unknown response '{tag}'"))),
        },
        _ => Err(Side::Response.err(format!("expected exactly one body under \"{OK}\""))),
    };
    (id, result)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::{ConfigSource, RunSpec, TopologyFormat, TopologySource};
    use crate::response::VersionBody;

    fn run_request() -> SimRequest {
        SimRequest::Run(RunSpec {
            config: ConfigSource::Default,
            topology: TopologySource::inline("t", "a, 8, 8, 8,\n")
                .with_format(TopologyFormat::Gemm),
            features: Default::default(),
        })
    }

    /// Every key a declaration puts on the wire — envelope, command
    /// tags, body members, sections and span categories — must appear
    /// backticked in `docs/API.md`: a field added in one line here
    /// fails until the reference names it.
    #[test]
    fn every_declared_wire_key_is_documented_in_the_api_reference() {
        use crate::request::{Features, TopologySource};
        use crate::response::{Report, RunSummaryBody, SPAN_CATEGORIES};
        let doc = concat!(env!("CARGO_MANIFEST_DIR"), "/../../docs/API.md");
        let doc = std::fs::read_to_string(doc).unwrap();
        let mut keys = vec![API, ID, DEADLINE_MS, OK, ERROR, KIND, "exit_code", MESSAGE];
        keys.extend(COMMANDS.iter().map(|command| command.tag));
        keys.extend(SPAN_CATEGORIES);
        for declared in [
            TopologySource::KEYS,
            Features::KEYS,
            RunSpec::KEYS,
            SweepRequest::KEYS,
            ScaleoutRequest::KEYS,
            LlmRequest::KEYS,
            AreaSpec::KEYS,
            Report::KEYS,
            RunSummaryBody::KEYS,
            RunBody::KEYS,
            SweepBody::KEYS,
            ScaleoutBody::KEYS,
            LlmBody::KEYS,
            AreaBody::KEYS,
            VersionBody::KEYS,
            StatsBody::KEYS,
            TraceBody::KEYS,
        ] {
            keys.extend(declared);
        }
        let missing: Vec<&str> = keys
            .into_iter()
            .filter(|key| !doc.contains(&format!("`{key}`")))
            .collect();
        assert!(missing.is_empty(), "undocumented wire keys: {missing:?}");
    }

    #[test]
    fn request_round_trips_through_the_wire() {
        let line = encode_request(Some("r-1"), &run_request());
        assert!(!line.contains('\n'));
        let (id, decoded) = decode_request(&line);
        assert_eq!(id.as_deref(), Some("r-1"));
        assert_eq!(decoded.unwrap(), run_request());
    }

    #[test]
    fn missing_or_wrong_api_version_is_rejected() {
        let (_, r) = decode_request(r#"{"version": {}}"#);
        assert!(r.unwrap_err().message().contains("api"), "missing api");
        let (_, r) = decode_request(r#"{"api": 99, "version": {}}"#);
        assert!(r.unwrap_err().message().contains("unsupported api"));
    }

    #[test]
    fn non_integer_api_is_not_reported_as_missing() {
        for line in [
            r#"{"api": "1", "version": {}}"#,
            r#"{"api": 1.5, "version": {}}"#,
            r#"{"api": -1, "version": {}}"#,
            r#"{"api": null, "version": {}}"#,
        ] {
            let msg = decode_request(line).1.unwrap_err().message().to_string();
            assert!(msg.contains("must be the integer"), "{line}: {msg}");
            assert!(!msg.contains("missing"), "{line}: {msg}");
        }
    }

    /// Satellite: the exact wire shape of the two "client from the
    /// future (or the past)" failures is pinned byte for byte — an
    /// unknown command and an unsupported api version must name the
    /// offending value **and** the supported set, and the envelope
    /// around them must not drift.
    #[test]
    fn unknown_command_and_bad_version_wire_shapes_are_pinned() {
        let (id, r) = decode_request(r#"{"api": 1, "id": "f1", "teleport": {}}"#);
        assert_eq!(
            wire_line(id, r),
            r#"{"api":1,"id":"f1","error":{"kind":"config","exit_code":2,"message":"request: unknown key \"teleport\" (supported commands: run, sweep, scaleout, llm, area, version, stats, trace)"}}"#
        );
        let (id, r) = decode_request(r#"{"api": 2, "id": "f2", "version": {}}"#);
        assert_eq!(
            wire_line(id, r),
            r#"{"api":1,"id":"f2","error":{"kind":"config","exit_code":2,"message":"unsupported api version 2 (supported versions: 1)"}}"#
        );
        let (id, r) = decode_request(r#"{"api": 1, "id": "f3"}"#);
        assert_eq!(
            wire_line(id, r),
            r#"{"api":1,"id":"f3","error":{"kind":"config","exit_code":2,"message":"request: missing command key (one of run, sweep, scaleout, llm, area, version, stats, trace)"}}"#
        );
    }

    fn wire_line(id: Option<String>, r: Result<SimRequest, SimError>) -> String {
        encode_response(id.as_deref(), &r.map(|_| unreachable!("decode must fail")))
    }

    #[test]
    fn scaleout_command_is_accepted_on_the_wire() {
        let (_, r) = decode_request(
            r#"{"api": 1, "scaleout": {"topology": {"inline": "a, 8, 8, 8,\n"}, "chips": 4}}"#,
        );
        let SimRequest::Scaleout(s) = r.unwrap() else {
            panic!("expected a scaleout request");
        };
        assert_eq!(s.chips, Some(4));
    }

    #[test]
    fn id_is_recovered_from_malformed_envelopes() {
        let (id, r) = decode_request(r#"{"api": 1, "id": "x7", "frob": {}}"#);
        assert_eq!(id.as_deref(), Some("x7"));
        assert!(r.is_err());
        let (id, r) = decode_request("not json at all");
        assert_eq!(id, None);
        assert!(r.is_err());
    }

    #[test]
    fn two_command_keys_are_rejected() {
        let (_, r) = decode_request(r#"{"api": 1, "version": {}, "area": {}}"#);
        assert!(r.unwrap_err().message().contains("more than one"));
    }

    #[test]
    fn deadline_ms_round_trips_and_rejects_bad_values() {
        let line = encode_request_with_deadline(Some("d1"), Some(250), &SimRequest::Version);
        let decoded = decode_request_full(&line);
        assert_eq!(decoded.id.as_deref(), Some("d1"));
        assert_eq!(decoded.deadline_ms, Some(250));
        assert_eq!(decoded.request.unwrap(), SimRequest::Version);

        // Absent deadline decodes as None; the envelope is unchanged.
        let plain = encode_request(Some("d2"), &SimRequest::Version);
        assert!(!plain.contains("deadline_ms"));
        assert_eq!(decode_request_full(&plain).deadline_ms, None);

        // Mistyped deadlines error (never silently dropped), and the id
        // is still recovered for the error reply.
        for line in [
            r#"{"api": 1, "id": "d3", "deadline_ms": "fast", "version": {}}"#,
            r#"{"api": 1, "id": "d3", "deadline_ms": -5, "version": {}}"#,
            r#"{"api": 1, "id": "d3", "deadline_ms": 1.5, "version": {}}"#,
        ] {
            let decoded = decode_request_full(line);
            assert_eq!(decoded.id.as_deref(), Some("d3"), "{line}");
            let e = decoded.request.unwrap_err();
            assert!(e.message().contains("deadline_ms"), "{line}: {e}");
        }
    }

    #[test]
    fn stats_command_is_accepted_on_the_wire() {
        let (_, r) = decode_request(r#"{"api": 1, "stats": {}}"#);
        assert_eq!(r.unwrap(), SimRequest::Stats);
    }

    #[test]
    fn trace_command_is_accepted_on_the_wire() {
        let (_, r) = decode_request(r#"{"api": 1, "id": "t1", "trace": {}}"#);
        assert_eq!(r.unwrap(), SimRequest::Trace);
    }

    #[test]
    fn ok_response_round_trips() {
        let resp = SimResponse::Version(VersionBody {
            version: "scalesim x".into(),
            api: 1,
        });
        let line = encode_response(Some("v1"), &Ok(resp.clone()));
        let (id, decoded) = decode_response(&line);
        assert_eq!(id.as_deref(), Some("v1"));
        assert_eq!(decoded.unwrap(), resp);
    }

    #[test]
    fn error_response_round_trips_with_exit_code() {
        let err = SimError::Topology("duplicate layer name 'a'".into());
        let line = encode_response(None, &Err(err.clone()));
        assert!(line.contains("\"exit_code\":3"), "{line}");
        let (id, decoded) = decode_response(&line);
        assert_eq!(id, None);
        assert_eq!(decoded.unwrap_err(), err);
    }
}
