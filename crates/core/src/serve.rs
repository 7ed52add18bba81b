//! The persistent batch service behind `scalesim serve`.
//!
//! Speaks the JSON-lines wire protocol of [`scalesim_api::wire`] over
//! two transports, both std-lib only:
//!
//! * **stdio** — one request per stdin line, one response per stdout
//!   line, flushed per response; EOF ends the session. Ideal for
//!   driving the simulator as a subprocess.
//! * **TCP** (`--listen`) — each connection is an independent
//!   JSON-lines session on its own thread, with `TCP_NODELAY` set.
//!
//! Either way a reply leaves as one write of its line and newline, then
//! a flush; `write_reply` says why.
//!
//! ## Serving model
//!
//! Each TCP connection is a session on its own thread, and a session
//! runs its requests itself: it frames a line, decodes it and executes
//! it, then writes the reply. A request's per-layer tasks fan out as
//! scoped batches on the process-wide scheduler
//! ([`scalesim_sched::Scheduler::global`]), so one in-flight request
//! with a long topology uses every idle worker. A `sweep` executes at
//! [`scalesim_sched::Priority::Batch`] and everything else at
//! `Interactive`, so interactive layers outrank a sweep's inside the
//! scheduler.
//!
//! The session cap is the one concurrency bound: a connection beyond it
//! is answered with one typed `busy` line (exit code 75) and closed
//! rather than left hanging in the accept backlog. A loaded server
//! therefore always answers *something*, quickly.
//!
//! Each session keeps at most one request in flight, so responses are
//! written in request order — and because each request builds its own
//! engine and results are written back by index, responses are
//! byte-identical to one-shot CLI runs for any `SCALESIM_THREADS` value
//! (pinned by `tests/serve_stress.rs` and `tests/sched_determinism.rs`).
//!
//! Requests may carry a `deadline_ms` envelope field: a
//! [`CancelToken`] starts at decode time and is checked at stage
//! boundaries; an expired request answers a typed `deadline` error
//! (exit code 124), never a partial body.
//!
//! Knobs (all environment variables, all positive integers):
//!
//! | variable | meaning | default |
//! |---|---|---|
//! | `SCALESIM_SERVE_SESSIONS` | concurrent TCP sessions | machine parallelism |
//! | `SCALESIM_CACHE_BUDGET_MB` | plan-cache byte budget, MiB | 512 |
//!
//! (`SCALESIM_THREADS` separately sizes the scheduler the requests'
//! layer tasks execute on; see `docs/CLI.md`.)
//!
//! All sessions share one [`SimService`] — and therefore one
//! [`PlanCache`](scalesim_systolic::PlanCache) and one set of
//! `ServeMetrics` — so repeated
//! workloads hit warm plans across connections and a `stats` request
//! sees the whole process.
//!
//! **No request can kill the process.** Malformed JSON, bad
//! configurations and bad topologies surface as typed error responses;
//! a panic inside request handling (always a bug) is caught per request
//! and reported as an `internal` error, leaving the server able to
//! answer the next line.

use crate::cancel::CancelToken;
use crate::service::SimService;
use scalesim_api::{wire, SimError, SimRequest};
use scalesim_obs as obs;
use scalesim_sched::Priority;
use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Process-wide request correlation number: every request that enters
/// the serve layer gets the next value, and all its trace
/// events carry it as the `req` arg — Perfetto's args search then pulls
/// up a request's full decode → queue → execute → respond lifecycle.
fn next_request_seq() -> u64 {
    static SEQ: AtomicU64 = AtomicU64::new(1);
    SEQ.fetch_add(1, Ordering::Relaxed)
}

/// Handles one request line on the calling thread, producing exactly
/// one response line (without the trailing newline) — the one way a
/// line becomes a response, for sessions and in-process callers alike.
/// Honors the envelope's `deadline_ms`, whose clock starts here, and
/// records metrics. Never panics.
pub fn handle_line(service: &SimService, line: &str) -> String {
    let started = Instant::now();
    let seq = next_request_seq();
    let decoded = wire::decode_request_full(line);
    obs::instant(obs::Category::Serve, "decode", &[("req", seq)]);
    let m = service.metrics();
    m.inc(&m.requests_total);
    m.inc(&m.in_flight);
    let cancel = deadline_token(decoded.deadline_ms);
    let priority = decoded
        .request
        .as_ref()
        .map_or(Priority::Interactive, priority_of);
    // The request's nested layer/sweep tasks inherit its class via the
    // ambient priority.
    let response = scalesim_sched::with_priority(priority, || {
        execute(
            service,
            decoded.id.as_deref(),
            decoded.request,
            &cancel,
            started,
            seq,
        )
    });
    obs::instant(obs::Category::Serve, "respond", &[("req", seq)]);
    response
}

/// The task class a request executes under: `sweep`s are batch work,
/// everything else is interactive.
fn priority_of(request: &SimRequest) -> Priority {
    match request {
        SimRequest::Sweep(_) => Priority::Batch,
        _ => Priority::Interactive,
    }
}

/// The token a request runs under: its envelope's `deadline_ms` budget
/// starting now, or [`CancelToken::never`] without one.
fn deadline_token(deadline_ms: Option<u64>) -> CancelToken {
    deadline_ms.map_or_else(CancelToken::never, CancelToken::after_ms)
}

/// Runs one decoded request to a response line, with panic isolation
/// and metrics accounting (deadline count, completion, latency,
/// in-flight decrement). The single execution path of [`handle_line`].
fn execute(
    service: &SimService,
    id: Option<&str>,
    request: Result<SimRequest, SimError>,
    cancel: &CancelToken,
    started: Instant,
    seq: u64,
) -> String {
    // Decode to execute, on one thread.
    obs::complete_since(obs::Category::Serve, "queue", started, &[("req", seq)]);
    let _span = obs::span(obs::Category::Serve, "execute").arg("req", seq);
    let result = match request {
        Ok(request) => catch_unwind(AssertUnwindSafe(|| {
            service.execute(&request, cancel, &mut |_| {})
        }))
        .unwrap_or_else(|payload| Err(SimError::from_panic(payload))),
        Err(e) => Err(e),
    };
    let m = service.metrics();
    if matches!(&result, Err(e) if e.kind() == "deadline") {
        m.inc(&m.deadline_expired);
    }
    let line = wire::encode_response(id, &result);
    m.inc(&m.completed);
    m.latency
        .record_us(started.elapsed().as_micros().min(u64::MAX as u128) as u64);
    m.dec_in_flight();
    line
}

/// Maximum bytes a single request line may occupy (newline excluded).
/// Without a cap, a client streaming data with no newline would grow
/// the line buffer until the process dies of OOM — the one failure mode
/// an in-band error can't report after the fact. Oversized lines are
/// drained (without buffering) and answered with a typed `config`
/// error; the session stays up. 16 MiB comfortably fits the largest
/// inline config + topology the simulator itself could handle.
pub const MAX_REQUEST_BYTES: usize = 16 * 1024 * 1024;

/// Sizing for a [`Server`]: the session cap (clamped to at least 1).
#[derive(Debug, Clone, Copy)]
pub struct ServeOptions {
    /// Concurrent TCP sessions; a connection beyond the cap is
    /// answered with one `busy` line and closed.
    pub max_sessions: usize,
}

impl ServeOptions {
    /// Sizing from the environment: `SCALESIM_SERVE_SESSIONS`, falling
    /// back to the machine parallelism [`scalesim_systolic::num_threads`]
    /// honors. Unset, empty, unparsable or zero all read as "not
    /// configured".
    pub fn from_env() -> Self {
        let max_sessions = std::env::var("SCALESIM_SERVE_SESSIONS")
            .ok()
            .and_then(|v| v.trim().parse::<usize>().ok())
            .filter(|&n| n > 0)
            .unwrap_or_else(scalesim_systolic::num_threads);
        Self { max_sessions }
    }
}

/// A counting semaphore bounding concurrent session threads.
/// Non-blocking: a session that cannot get a slot is shed, never
/// queued.
struct Gate {
    available: Mutex<usize>,
}

impl Gate {
    fn new(slots: usize) -> Self {
        Self {
            available: Mutex::new(slots.max(1)),
        }
    }

    fn try_acquire(&self) -> bool {
        let mut available = self.available.lock().unwrap_or_else(|e| e.into_inner());
        if *available == 0 {
            return false;
        }
        *available -= 1;
        true
    }

    fn release(&self) {
        let mut available = self.available.lock().unwrap_or_else(|e| e.into_inner());
        *available += 1;
    }
}

/// The production serve loop: sessions that each execute their own
/// requests (see the module docs for the full model).
#[derive(Debug)]
pub struct Server {
    service: SimService,
    options: ServeOptions,
}

impl Server {
    /// Builds the server. No threads are spawned here: each session
    /// runs on its own thread and all of them share the service's plan
    /// cache and metrics.
    pub fn new(service: SimService, options: ServeOptions) -> Self {
        Self { service, options }
    }

    /// Serves one JSON-lines session: reads request lines from `input`
    /// until EOF, writing one response line per request to `output`
    /// (flushed per response). Blank lines are ignored; a line that is
    /// not valid UTF-8, or longer than [`MAX_REQUEST_BYTES`], answers a
    /// typed `config` error like any other malformed request — it does
    /// not end the session.
    ///
    /// # Errors
    ///
    /// Returns the first transport-level I/O failure; request-level
    /// failures are answered in-band and do not end the session.
    pub fn serve_session(
        &self,
        input: impl BufRead,
        mut output: impl Write,
    ) -> std::io::Result<()> {
        let m = self.service.metrics();
        // `take` caps how much one line may buffer; two extra bytes
        // leave room for a `\r\n` terminator, so the cap applies to the
        // *content* (a CRLF client gets the same budget as a bare-LF
        // one). The limit is restored before each line.
        let limit = MAX_REQUEST_BYTES as u64 + 2;
        let mut input = input.take(limit);
        let mut buf = Vec::new();
        loop {
            buf.clear();
            input.set_limit(limit);
            if input.read_until(b'\n', &mut buf)? == 0 {
                return Ok(());
            }
            let newline_terminated = buf.last() == Some(&b'\n');
            if newline_terminated {
                buf.pop();
                if buf.last() == Some(&b'\r') {
                    buf.pop();
                }
            }
            if buf.len() > MAX_REQUEST_BYTES {
                // The line was never buffered whole, so its "id" (if
                // any) cannot be echoed; pipelined clients fall back to
                // response order (documented in docs/API.md). Drain the
                // rest of the line through the unlimited inner reader.
                let newline_found = newline_terminated || skip_to_newline(input.get_mut())?;
                m.inc(&m.requests_total);
                m.inc(&m.completed);
                let response = wire::encode_response(
                    None,
                    &Err(SimError::Config(format!(
                        "request line exceeds {MAX_REQUEST_BYTES} bytes"
                    ))),
                );
                write_reply(&mut output, response)?;
                if newline_found {
                    continue;
                }
                return Ok(()); // EOF mid-line: nothing left to serve
            }
            let response = match std::str::from_utf8(&buf) {
                Ok(line) if line.trim().is_empty() => continue,
                Ok(line) => handle_line(&self.service, line),
                Err(e) => {
                    m.inc(&m.requests_total);
                    m.inc(&m.completed);
                    wire::encode_response(
                        None,
                        &Err(SimError::Config(format!(
                            "request line is not valid UTF-8: {e}"
                        ))),
                    )
                }
            };
            write_reply(&mut output, response)?;
        }
    }

    /// Accepts connections forever, serving each as a JSON-lines
    /// session on its own thread, at most
    /// [`ServeOptions::max_sessions`] at once. A connection beyond the
    /// cap is answered with one typed `busy` line and closed — it is
    /// never left hanging in the accept backlog.
    ///
    /// # Errors
    ///
    /// Returns the first *fatal* `accept` failure. Transient ones — a
    /// connection aborted before we accepted it, an interrupted
    /// syscall, or file-descriptor exhaustion under load (EMFILE/
    /// ENFILE, retried after a short backoff) — are survived, since a
    /// server meant to run forever must not be shut down by a blip.
    /// Per-connection I/O failures (e.g. a client disconnecting
    /// mid-request) end that session only.
    pub fn serve_listener(&self, listener: TcpListener) -> std::io::Result<()> {
        let gate = Gate::new(self.options.max_sessions);
        // The loop only exits by returning a fatal accept error; the
        // scope then joins any sessions still draining.
        std::thread::scope(|scope| loop {
            let (mut stream, _peer) = match listener.accept() {
                Ok(accepted) => accepted,
                Err(e)
                    if matches!(
                        e.kind(),
                        std::io::ErrorKind::ConnectionAborted
                            | std::io::ErrorKind::ConnectionReset
                            | std::io::ErrorKind::Interrupted
                    ) =>
                {
                    continue
                }
                // ENFILE (23) / EMFILE (24) on Unix: out of descriptors
                // — sessions finishing will free some. WouldBlock only
                // happens on a listener the caller made nonblocking;
                // the sleep turns that into a slow poll rather than a
                // hot spin.
                Err(e)
                    if e.kind() == std::io::ErrorKind::WouldBlock
                        || (cfg!(unix) && matches!(e.raw_os_error(), Some(23 | 24))) =>
                {
                    std::thread::sleep(std::time::Duration::from_millis(100));
                    continue;
                }
                Err(e) => return Err(e),
            };
            if !gate.try_acquire() {
                let m = self.service.metrics();
                m.inc(&m.requests_total);
                m.inc(&m.shed);
                let line = wire::encode_response(
                    None,
                    &Err(SimError::Busy("session limit reached; retry later".into())),
                );
                let _ = write_reply(&mut stream, line);
                continue; // dropping the stream closes the connection
            }
            let gate = &gate;
            scope.spawn(move || {
                static SESSION_SEQ: AtomicU64 = AtomicU64::new(1);
                let n = SESSION_SEQ.fetch_add(1, Ordering::Relaxed);
                obs::label_thread(&format!("session-{n}"));
                let _ = self.serve_connection(stream);
                gate.release();
            });
        })
    }

    /// Serves one accepted TCP connection as a session on a
    /// `TCP_NODELAY` socket (see `write_reply`). Failing to set the
    /// option only costs latency, so the session is served either way.
    fn serve_connection(&self, stream: TcpStream) -> std::io::Result<()> {
        let _ = stream.set_nodelay(true);
        let reader = BufReader::new(stream.try_clone()?);
        self.serve_session(reader, stream)
    }
}

/// Writes one reply line with its newline as a single write, then a
/// flush — the one place the reply framing lives. Written apart, the
/// newline's small second TCP segment would wait on Nagle's algorithm
/// for the client's delayed ACK (~40 ms a reply); one write per reply on
/// a `TCP_NODELAY` socket leaves nothing to hold back.
fn write_reply(output: &mut impl Write, mut line: String) -> std::io::Result<()> {
    line.push('\n');
    output.write_all(line.as_bytes())?;
    output.flush()
}

/// Discards input up to and including the next `\n`, in buffer-sized
/// chunks so an arbitrarily long line costs O(1) memory. Returns
/// whether a newline was found (false means EOF ended the line).
fn skip_to_newline(input: &mut impl BufRead) -> std::io::Result<bool> {
    loop {
        let chunk = input.fill_buf()?;
        if chunk.is_empty() {
            return Ok(false);
        }
        match chunk.iter().position(|&b| b == b'\n') {
            Some(i) => {
                input.consume(i + 1);
                return Ok(true);
            }
            None => {
                let len = chunk.len();
                input.consume(len);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scalesim_api::{wire, SimResponse};
    use std::io::Cursor;
    use std::sync::Arc;

    fn run_line(id: &str) -> String {
        format!(
            "{{\"api\": 1, \"id\": \"{id}\", \"run\": {{\"topology\": \
             {{\"name\": \"t\", \"inline\": \"a, 16, 16, 16,\\n\"}}}}}}"
        )
    }

    fn small_server() -> Server {
        Server::new(SimService::new(), ServeOptions { max_sessions: 2 })
    }

    #[test]
    fn session_answers_one_line_per_request_and_skips_blanks() {
        let server = small_server();
        let input = format!(
            "{}\n\n{}\n",
            run_line("r1"),
            "{\"api\": 1, \"version\": {}}"
        );
        let mut out = Vec::new();
        server.serve_session(Cursor::new(input), &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2, "{text}");
        let (id, first) = wire::decode_response(lines[0]);
        assert_eq!(id.as_deref(), Some("r1"));
        assert!(matches!(first.unwrap(), SimResponse::Run(_)));
        let (_, second) = wire::decode_response(lines[1]);
        assert!(matches!(second.unwrap(), SimResponse::Version(_)));
    }

    #[test]
    fn malformed_requests_answer_in_band_and_do_not_end_the_session() {
        let server = small_server();
        let input = format!(
            "this is not json\n{{\"api\": 1, \"id\": \"x\", \"frob\": {{}}}}\n{}\n",
            run_line("r2")
        );
        let mut out = Vec::new();
        server.serve_session(Cursor::new(input), &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(wire::decode_response(lines[0]).1.is_err());
        let (id, second) = wire::decode_response(lines[1]);
        assert_eq!(id.as_deref(), Some("x"), "id echoed on bad envelopes");
        assert!(second.is_err());
        assert!(wire::decode_response(lines[2]).1.is_ok(), "still serving");
    }

    #[test]
    fn non_utf8_lines_answer_a_typed_error_and_keep_the_session_alive() {
        let server = small_server();
        let mut input = Vec::new();
        input.extend_from_slice(&[0xFF, 0xFE, b'\n']); // invalid UTF-8
        input.extend_from_slice(b"{\"api\": 1, \"id\": \"after\", \"version\": {}}\n");
        let mut out = Vec::new();
        server.serve_session(Cursor::new(input), &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2, "both lines answered: {text}");
        let (_, first) = wire::decode_response(lines[0]);
        let err = first.unwrap_err();
        assert_eq!(err.kind(), "config");
        assert!(err.message().contains("UTF-8"), "{err}");
        let (id, second) = wire::decode_response(lines[1]);
        assert_eq!(id.as_deref(), Some("after"), "session kept serving");
        assert!(second.is_ok());
    }

    #[test]
    fn oversized_lines_answer_a_typed_error_and_keep_the_session_alive() {
        let server = small_server();
        let mut input = vec![b'['; MAX_REQUEST_BYTES + 1];
        input.push(b'\n');
        input.extend_from_slice(b"{\"api\": 1, \"id\": \"after\", \"version\": {}}\n");
        let mut out = Vec::new();
        server.serve_session(Cursor::new(input), &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2, "{text}");
        let (_, first) = wire::decode_response(lines[0]);
        let err = first.unwrap_err();
        assert_eq!(err.kind(), "config");
        assert!(err.message().contains("exceeds"), "{err}");
        let (id, second) = wire::decode_response(lines[1]);
        assert_eq!(id.as_deref(), Some("after"), "session kept serving");
        assert!(second.is_ok());
    }

    #[test]
    fn the_line_limit_covers_content_not_the_terminator() {
        // Exactly MAX_REQUEST_BYTES of content must be accepted
        // whether the line ends in \n or \r\n (a CRLF client gets the
        // same budget); one byte more is rejected as oversized.
        let server = small_server();
        for (content_len, terminator, expect_oversized) in [
            (MAX_REQUEST_BYTES, "\n", false),
            (MAX_REQUEST_BYTES, "\r\n", false),
            (MAX_REQUEST_BYTES + 1, "\n", true),
        ] {
            let mut input = vec![b'z'; content_len];
            input.extend_from_slice(terminator.as_bytes());
            let mut out = Vec::new();
            server.serve_session(Cursor::new(input), &mut out).unwrap();
            let text = String::from_utf8(out).unwrap();
            let (_, result) = wire::decode_response(text.trim_end());
            let err = result.unwrap_err();
            assert_eq!(
                err.message().contains("exceeds"),
                expect_oversized,
                "{content_len} bytes + {terminator:?}: {err}"
            );
            if !expect_oversized {
                // At the limit the line is processed normally — it is
                // just not valid JSON.
                assert!(err.message().contains("JSON"), "{err}");
            }
        }
    }

    #[test]
    fn oversized_line_ending_in_eof_still_gets_an_answer() {
        let server = small_server();
        let input = vec![b'x'; MAX_REQUEST_BYTES + 7]; // no newline at all
        let mut out = Vec::new();
        server.serve_session(Cursor::new(input), &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        let (_, result) = wire::decode_response(text.trim_end());
        assert_eq!(result.unwrap_err().kind(), "config");
    }

    #[test]
    fn deeply_nested_json_is_a_parse_error_not_a_stack_overflow() {
        let service = SimService::new();
        let response = handle_line(&service, &"[".repeat(400_000));
        let (_, result) = wire::decode_response(&response);
        let err = result.unwrap_err();
        assert_eq!(err.kind(), "config");
        assert!(err.message().contains("nested"), "{err}");
    }

    #[test]
    fn bad_config_is_a_typed_response_not_a_crash() {
        let service = SimService::new();
        let request = "{\"api\": 1, \"run\": {\"config\": {\"inline\": \"ArrayHieght : 2\\n\"}, \
                       \"topology\": {\"inline\": \"a, 8, 8, 8,\\n\"}}}";
        let response = handle_line(&service, request);
        let (_, result) = wire::decode_response(&response);
        let err = result.unwrap_err();
        assert_eq!(err.kind(), "config");
        assert!(err.message().contains("arrayhieght"), "{err}");
    }

    #[test]
    fn handle_line_reports_panics_as_internal_errors() {
        // No request should panic the service; force one through the
        // catch_unwind backstop to prove the wrapper holds.
        let caught = catch_unwind(AssertUnwindSafe(|| -> String { panic!("injected") }))
            .map_err(SimError::from_panic);
        let line = wire::encode_response(None, &Err(caught.unwrap_err()));
        let (_, result) = wire::decode_response(&line);
        let err = result.unwrap_err();
        assert_eq!(err.kind(), "internal");
        assert_eq!(err.exit_code(), 70);
        assert!(err.message().contains("injected"));
    }

    #[test]
    fn gate_sheds_instead_of_blocking_past_the_cap() {
        let gate = Gate::new(2);
        assert!(gate.try_acquire());
        assert!(gate.try_acquire());
        assert!(!gate.try_acquire(), "third session must be shed");
        gate.release();
        assert!(gate.try_acquire());
        gate.release();
        gate.release();
    }

    #[test]
    fn sweeps_run_as_batch_and_everything_else_as_interactive() {
        let (_, sweep) = wire::decode_request(
            "{\"api\": 1, \"sweep\": {\"spec\": {\"inline\": \"array = 8x8\\n\"}, \
             \"topologies\": [{\"name\": \"t\", \"inline\": \"a, 8, 8, 8,\\n\"}]}}",
        );
        assert_eq!(priority_of(&sweep.unwrap()), Priority::Batch);
        for line in [
            run_line("r"),
            "{\"api\": 1, \"llm\": {\"workload\": \"gpt2-xl\"}}".to_string(),
            "{\"api\": 1, \"scaleout\": {\"topology\": {\"inline\": \"a, 8, 8, 8,\\n\"}}}"
                .to_string(),
            "{\"api\": 1, \"version\": {}}".to_string(),
            "{\"api\": 1, \"stats\": {}}".to_string(),
            "{\"api\": 1, \"trace\": {}}".to_string(),
        ] {
            let (_, request) = wire::decode_request(&line);
            assert_eq!(
                priority_of(&request.unwrap()),
                Priority::Interactive,
                "{line}"
            );
        }
    }

    #[test]
    fn deadline_zero_answers_a_typed_deadline_and_counts_it() {
        let server = small_server();
        let topology = "{\"name\": \"t\", \"inline\": \"a, 16, 16, 16,\\n\"}";
        // Every simulation command runs under the same token.
        let bodies = [
            format!("\"run\": {{\"topology\": {topology}}}"),
            "\"llm\": {\"workload\": \"gpt2-xl\"}".to_string(),
            format!(
                "\"sweep\": {{\"spec\": {{\"inline\": \"array = 8x8\\n\"}}, \
                 \"topologies\": [{topology}]}}"
            ),
            format!("\"scaleout\": {{\"topology\": {topology}}}"),
        ];
        let mut input: String = bodies
            .iter()
            .map(|body| format!("{{\"api\": 1, \"id\": \"late\", \"deadline_ms\": 0, {body}}}\n"))
            .collect();
        input.push_str("{\"api\": 1, \"id\": \"s\", \"stats\": {}}\n");
        let mut out = Vec::new();
        server.serve_session(Cursor::new(input), &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 5, "{text}");
        for line in &lines[..4] {
            let (id, response) = wire::decode_response(line);
            assert_eq!(id.as_deref(), Some("late"));
            let err = response.unwrap_err();
            assert_eq!(err.kind(), "deadline", "{line}");
            assert_eq!(err.exit_code(), 124);
            assert_eq!(err.message(), "deadline of 0 ms exceeded");
        }
        let (_, last) = wire::decode_response(lines[4]);
        let SimResponse::Stats(stats) = last.unwrap() else {
            panic!("expected stats body")
        };
        assert_eq!(stats.deadline_expired, 4);
        assert_eq!(stats.requests_total, 5);
        assert_eq!(stats.completed, 4, "the stats request itself is mid-flight");
        assert_eq!(stats.in_flight, 1, "the stats request counts itself");
        assert_eq!(stats.shed, 0);
        assert_eq!(stats.latency_count, 4);
    }

    #[test]
    fn a_generous_deadline_changes_no_bytes() {
        let server = small_server();
        let with_deadline =
            "{\"api\": 1, \"id\": \"x\", \"deadline_ms\": 600000, \"run\": {\"topology\": \
             {\"name\": \"t\", \"inline\": \"a, 16, 16, 16,\\n\"}}}";
        let input = format!("{}\n{}\n", with_deadline, run_line("x"));
        let mut out = Vec::new();
        server.serve_session(Cursor::new(input), &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2, "{text}");
        assert_eq!(
            lines[0], lines[1],
            "a live deadline costs checks, not bytes"
        );
    }

    /// A `Write` that records its bytes, how many `write` calls carried
    /// them and where each flush fell.
    #[derive(Default)]
    struct Recording {
        bytes: Vec<u8>,
        writes: usize,
        flushed_at: Vec<usize>,
    }

    impl Write for Recording {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.bytes.extend_from_slice(buf);
            self.writes += 1;
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            self.flushed_at.push(self.bytes.len());
            Ok(())
        }
    }

    #[test]
    fn every_reply_is_one_line_flushed_at_its_newline() {
        // One reply of each origin: a run, a probe, a
        // decode error, a line that is not UTF-8 and an oversized line.
        let server = small_server();
        let mut input = format!(
            "{}\n{{\"api\": 1, \"version\": {{}}}}\nnot json\n",
            run_line("r1")
        )
        .into_bytes();
        input.extend_from_slice(&[0xFF, 0xFE, b'\n']);
        input.extend_from_slice(&vec![b'['; MAX_REQUEST_BYTES + 1]);
        input.push(b'\n');
        let mut out = Recording::default();
        server.serve_session(Cursor::new(input), &mut out).unwrap();
        let line_ends: Vec<usize> = (0..out.bytes.len())
            .filter(|&i| out.bytes[i] == b'\n')
            .map(|i| i + 1)
            .collect();
        assert_eq!(line_ends.len(), 5, "one line per request");
        assert_eq!(out.writes, 5, "one write per reply, newline included");
        assert_eq!(out.flushed_at, line_ends, "flushed once, at its newline");
        let ok = std::str::from_utf8(&out.bytes)
            .unwrap()
            .lines()
            .filter(|line| wire::decode_response(line).1.is_ok())
            .count();
        assert_eq!(ok, 2, "the run and the probe; the rest are errors");
    }

    #[test]
    fn sessions_past_the_cap_get_one_busy_line_and_a_close() {
        let server = Arc::new(Server::new(
            SimService::new(),
            ServeOptions { max_sessions: 1 },
        ));
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        {
            // The accept loop runs forever, so it lives on a *detached*
            // thread parked in accept() when the test ends (a scoped
            // thread would deadlock the scope join).
            let server = Arc::clone(&server);
            std::thread::spawn(move || {
                let _ = server.serve_listener(listener);
            });
        }
        // First client occupies the only session slot (and proves the
        // session is established by completing a request).
        let mut first = TcpStream::connect(addr).unwrap();
        first
            .write_all(b"{\"api\": 1, \"id\": \"v\", \"version\": {}}\n")
            .unwrap();
        let mut reader = BufReader::new(first.try_clone().unwrap());
        let mut response = String::new();
        reader.read_line(&mut response).unwrap();
        assert!(wire::decode_response(response.trim_end()).1.is_ok());
        // Second client is over the cap: one busy line, then EOF.
        let second = TcpStream::connect(addr).unwrap();
        let mut busy_reader = BufReader::new(second);
        let mut busy = String::new();
        busy_reader.read_line(&mut busy).unwrap();
        let (_, result) = wire::decode_response(busy.trim_end());
        let err = result.unwrap_err();
        assert_eq!(err.kind(), "busy");
        assert_eq!(err.exit_code(), 75);
        assert_eq!(err.message(), "session limit reached; retry later");
        let mut rest = String::new();
        assert_eq!(busy_reader.read_line(&mut rest).unwrap(), 0, "closed");
        // The shed connection shows up in stats, asked over the
        // still-open first session.
        first
            .write_all(b"{\"api\": 1, \"id\": \"s\", \"stats\": {}}\n")
            .unwrap();
        let mut stats_line = String::new();
        reader.read_line(&mut stats_line).unwrap();
        let (_, result) = wire::decode_response(stats_line.trim_end());
        let SimResponse::Stats(stats) = result.unwrap() else {
            panic!("expected stats body")
        };
        assert_eq!(stats.shed, 1);
    }

    #[test]
    fn tcp_sessions_share_the_plan_cache() {
        let server = small_server();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        std::thread::scope(|scope| {
            scope.spawn(|| {
                // Serve exactly two connections, then stop.
                for _ in 0..2 {
                    let (stream, _) = listener.accept().unwrap();
                    let _ = server.serve_connection(stream);
                }
            });
            let (_, request) = wire::decode_request(&run_line("shared"));
            let request = request.unwrap();
            let mut bodies = Vec::new();
            for _ in 0..2 {
                let mut stream = TcpStream::connect(addr).unwrap();
                stream.set_nodelay(true).unwrap();
                let line = wire::encode_request(None, &request) + "\n";
                stream.write_all(line.as_bytes()).unwrap();
                // Half-close so the server session sees EOF after our
                // one request.
                stream.shutdown(std::net::Shutdown::Write).unwrap();
                let mut response = String::new();
                BufReader::new(&stream).read_line(&mut response).unwrap();
                let (_, result) = wire::decode_response(response.trim_end());
                let SimResponse::Run(body) = result.unwrap() else {
                    panic!("expected run body")
                };
                bodies.push(body);
            }
            assert_eq!(bodies[0], bodies[1], "identical requests, identical bytes");
        });
        let stats = server.service.plan_cache().stats();
        assert!(stats.hits > 0, "second connection reused warm plans");
    }

    #[test]
    fn tcp_replies_leave_at_once_on_a_nodelay_socket() {
        // A reply held back by Nagle's algorithm waits for the client's
        // delayed ACK, ~40 ms a round trip: 50 of them would take ~2 s.
        let server = small_server();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        std::thread::scope(|scope| {
            let session = scope.spawn(|| {
                let (stream, _) = listener.accept().unwrap();
                let socket = stream.try_clone().unwrap();
                let _ = server.serve_connection(stream);
                socket.nodelay().unwrap()
            });
            let mut stream = TcpStream::connect(addr).unwrap();
            stream.set_nodelay(true).unwrap();
            let mut reader = BufReader::new(stream.try_clone().unwrap());
            let started = Instant::now();
            for _ in 0..50 {
                stream
                    .write_all(b"{\"api\": 1, \"version\": {}}\n")
                    .unwrap();
                let mut response = String::new();
                reader.read_line(&mut response).unwrap();
                assert!(wire::decode_response(response.trim_end()).1.is_ok());
            }
            let elapsed = started.elapsed();
            stream.shutdown(std::net::Shutdown::Write).unwrap();
            let nodelay = session.join().unwrap();
            assert!(
                elapsed < std::time::Duration::from_secs(1),
                "50 round trips took {elapsed:?}"
            );
            assert!(nodelay, "the session socket has TCP_NODELAY");
        });
    }
}
