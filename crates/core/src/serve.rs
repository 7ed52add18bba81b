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
//! A [`Server`] owns a **bounded admission queue** drained by **runner
//! tasks on the process-wide scheduler**
//! ([`scalesim_sched::Scheduler::global`]) — there are no dedicated
//! worker threads. Session threads do only O(1) work: they frame
//! lines, decode requests, and answer decode errors, `version` and
//! `stats` inline; simulation requests (`run`, `sweep`, `scaleout`,
//! `area`) are queued, and at most [`ServeOptions::workers`] runner
//! tasks execute them concurrently. Because a runner executes its
//! request *on* the scheduler, the request's per-layer tasks fan out
//! to every idle worker — one in-flight request with a long topology
//! uses the whole machine instead of a single pool thread. The queue
//! is two-class: `run`/`scaleout`/`area` requests are interactive and
//! pop before queued `sweep`s, and a sweep's own layer tasks carry
//! [`scalesim_sched::Priority::Batch`] so interactive layers outrank
//! them inside the scheduler too.
//!
//! When the queue is full the request is **shed immediately** with a
//! typed `busy` error (exit code 75) instead of stalling the session —
//! and when the session cap is reached, a new connection is answered
//! with one `busy` line and closed rather than left hanging in the
//! accept backlog. A loaded server therefore always answers
//! *something*, quickly.
//!
//! Each session keeps at most one request in flight, so responses are
//! written in request order regardless of pool size — and because each
//! request builds its own engine and results are written back by
//! index, responses are byte-identical to one-shot CLI runs for
//! **any** worker count and any `SCALESIM_THREADS` value (pinned by
//! `tests/serve_stress.rs` and `tests/sched_determinism.rs`).
//!
//! Requests may carry a `deadline_ms` envelope field: a
//! [`CancelToken`] starts at decode time (so queue wait counts against
//! the budget) and is checked at stage boundaries; an expired request
//! answers a typed `deadline` error (exit code 124), never a partial
//! body.
//!
//! Knobs (all environment variables, all positive integers):
//!
//! | variable | meaning | default |
//! |---|---|---|
//! | `SCALESIM_SERVE_WORKERS` | concurrent in-flight simulation requests | machine parallelism |
//! | `SCALESIM_SERVE_QUEUE` | admission-queue depth | 2 × workers |
//! | `SCALESIM_SERVE_SESSIONS` | concurrent TCP sessions | machine parallelism |
//! | `SCALESIM_CACHE_BUDGET_MB` | plan-cache byte budget, MiB | 512 |
//!
//! (`SCALESIM_THREADS` separately sizes the scheduler the runners and
//! their layer tasks execute on; see `docs/CLI.md`.)
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
use scalesim_sched::{Priority, Scheduler};
use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex};
use std::time::Instant;

/// Process-wide request correlation number: every request that enters
/// the serve layer (any route) gets the next value, and all its trace
/// events carry it as the `req` arg — Perfetto's args search then pulls
/// up a request's full decode → queue → execute → respond lifecycle.
fn next_request_seq() -> u64 {
    static SEQ: AtomicU64 = AtomicU64::new(1);
    SEQ.fetch_add(1, Ordering::Relaxed)
}

/// Handles one request line inline (no admission queue), producing
/// exactly one response line (without the trailing newline). Honors the
/// envelope's `deadline_ms` and records metrics. Never panics.
pub fn handle_line(service: &SimService, line: &str) -> String {
    dispatch(service, None, line)
}

/// Routes one request line — the one way a line becomes a response, so
/// every route numbers, counts and times its requests alike. Decode
/// errors, `version`, `stats` and `trace` answer inline on the calling
/// thread (they never need a worker slot), as does everything when
/// there is no `server`; otherwise simulation requests go through the
/// server's admission queue and are shed with `busy` when it is full.
/// The deadline clock starts here, so queue wait counts against
/// `deadline_ms`.
fn dispatch(service: &SimService, server: Option<&Server>, line: &str) -> String {
    let started = Instant::now();
    let seq = next_request_seq();
    let decoded = wire::decode_request_full(line);
    obs::instant(obs::Category::Serve, "decode", &[("req", seq)]);
    let m = service.metrics();
    m.inc(&m.requests_total);
    m.inc(&m.in_flight);
    let cancel = deadline_token(decoded.deadline_ms);
    let response = match (decoded.request, server) {
        (Ok(request), Some(server)) if !is_probe(&request) => {
            server.enqueue(decoded.id, request, cancel, started, seq)
        }
        (request, _) => execute(
            service,
            decoded.id.as_deref(),
            request,
            &cancel,
            started,
            seq,
        ),
    };
    obs::instant(obs::Category::Serve, "respond", &[("req", seq)]);
    response
}

/// The probes (`version`, `stats`, `trace`) are answered inline: they
/// cost microseconds and must stay observable on a saturated server.
fn is_probe(request: &SimRequest) -> bool {
    matches!(
        request,
        SimRequest::Version | SimRequest::Stats | SimRequest::Trace
    )
}

/// The token a request runs under: its envelope's `deadline_ms` budget
/// starting now, or [`CancelToken::never`] without one.
fn deadline_token(deadline_ms: Option<u64>) -> CancelToken {
    deadline_ms.map_or_else(CancelToken::never, CancelToken::after_ms)
}

/// Runs one decoded request to a response line, with panic isolation
/// and metrics accounting (deadline count, completion, latency,
/// in-flight decrement). The single execution path for runners and the
/// inline routes of [`dispatch`], so every route counts alike.
fn execute(
    service: &SimService,
    id: Option<&str>,
    request: Result<SimRequest, SimError>,
    cancel: &CancelToken,
    started: Instant,
    seq: u64,
) -> String {
    // Everything between the dispatch timestamp and this point is
    // admission-queue wait (zero for inline routes).
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

/// Sizing for a [`Server`]: in-flight request cap, admission queue and
/// session cap. Every field is clamped to at least 1.
#[derive(Debug, Clone, Copy)]
pub struct ServeOptions {
    /// Maximum simulation requests executing concurrently (the number
    /// of runner tasks draining the admission queue on the shared
    /// scheduler). Actual thread parallelism comes from the scheduler
    /// itself (`SCALESIM_THREADS`): fewer in-flight requests than
    /// scheduler workers means each request fans its layers wider.
    pub workers: usize,
    /// Admission-queue depth; a simulation request arriving with the
    /// queue full is shed with a typed `busy` error.
    pub queue_depth: usize,
    /// Concurrent TCP sessions; a connection beyond the cap is
    /// answered with one `busy` line and closed.
    pub max_sessions: usize,
}

impl ServeOptions {
    /// Sizing from the environment: `SCALESIM_SERVE_WORKERS`,
    /// `SCALESIM_SERVE_QUEUE` (default 2 × workers) and
    /// `SCALESIM_SERVE_SESSIONS`, falling back to the machine
    /// parallelism [`scalesim_systolic::num_threads`] honors.
    pub fn from_env() -> Self {
        let workers = env_usize("SCALESIM_SERVE_WORKERS")
            .unwrap_or_else(scalesim_systolic::num_threads)
            .max(1);
        let queue_depth = env_usize("SCALESIM_SERVE_QUEUE")
            .unwrap_or(2 * workers)
            .max(1);
        let max_sessions = env_usize("SCALESIM_SERVE_SESSIONS")
            .unwrap_or_else(scalesim_systolic::num_threads)
            .max(1);
        Self {
            workers,
            queue_depth,
            max_sessions,
        }
    }
}

/// Parses a positive integer environment variable (unset, empty,
/// unparsable or zero all read as "not configured").
fn env_usize(name: &str) -> Option<usize> {
    std::env::var(name)
        .ok()
        .and_then(|v| v.trim().parse::<usize>().ok())
        .filter(|&n| n > 0)
}

/// One admitted simulation request, parked in the queue until a runner
/// picks it up. The session thread blocks on `reply` — one job in
/// flight per session keeps responses in request order.
struct Job {
    id: Option<String>,
    request: SimRequest,
    priority: Priority,
    cancel: CancelToken,
    started: Instant,
    seq: u64,
    reply: mpsc::SyncSender<String>,
}

/// The task class a request executes under: queued `sweep`s are batch
/// work, everything else is interactive.
fn priority_of(request: &SimRequest) -> Priority {
    match request {
        SimRequest::Sweep(_) => Priority::Batch,
        _ => Priority::Interactive,
    }
}

/// The bounded two-class admission queue, drained by **runner tasks**
/// on the shared scheduler instead of dedicated threads. `try_push`
/// sheds instead of blocking and reports (under the same lock that
/// admitted the job) whether the caller must launch a new runner, so
/// at most `max_runners` jobs execute concurrently and a runner always
/// exists while jobs are queued. Interactive jobs pop before batch
/// jobs. After shutdown the queue drains fully — every admitted job
/// still gets a reply.
struct JobQueue {
    state: Mutex<QueueState>,
    /// Signalled when the last runner retires (`runners == 0`).
    drained: Condvar,
    capacity: usize,
    max_runners: usize,
}

struct QueueState {
    interactive: std::collections::VecDeque<Box<Job>>,
    batch: std::collections::VecDeque<Box<Job>>,
    runners: usize,
    shutdown: bool,
}

impl QueueState {
    fn len(&self) -> usize {
        self.interactive.len() + self.batch.len()
    }
}

impl JobQueue {
    fn new(capacity: usize, max_runners: usize) -> Self {
        Self {
            state: Mutex::new(QueueState {
                interactive: std::collections::VecDeque::new(),
                batch: std::collections::VecDeque::new(),
                runners: 0,
                shutdown: false,
            }),
            drained: Condvar::new(),
            capacity: capacity.max(1),
            max_runners: max_runners.max(1),
        }
    }

    /// Admits a job, or hands it back when the queue is full (or the
    /// server is shutting down) — the caller sheds it with `busy`. On
    /// admission, `Ok(true)` tells the caller to launch a new runner
    /// task (the runner count was reserved under this lock).
    fn try_push(&self, job: Box<Job>) -> Result<bool, Box<Job>> {
        let mut state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        if state.shutdown || state.len() >= self.capacity {
            return Err(job);
        }
        match job.priority {
            Priority::Interactive => state.interactive.push_back(job),
            Priority::Batch => state.batch.push_back(job),
        }
        if state.runners < self.max_runners {
            state.runners += 1;
            Ok(true)
        } else {
            Ok(false)
        }
    }

    /// The runner loop step: the next job (interactive first), or
    /// `None` when the queue is empty — which *retires the calling
    /// runner* (its slot is released under the lock, so a later
    /// `try_push` will launch a replacement).
    fn next_job_or_retire(&self) -> Option<Box<Job>> {
        let mut state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(job) = state
            .interactive
            .pop_front()
            .or_else(|| state.batch.pop_front())
        {
            return Some(job);
        }
        state.runners -= 1;
        if state.runners == 0 {
            drop(state);
            self.drained.notify_all();
        }
        None
    }

    /// Stops admission and blocks until every runner has retired —
    /// runners only retire on an empty queue, so all admitted jobs
    /// have been answered when this returns.
    fn shutdown_and_drain(&self) {
        let mut state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        state.shutdown = true;
        while state.runners > 0 {
            state = self.drained.wait(state).unwrap_or_else(|e| e.into_inner());
        }
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

/// The production serve loop: a bounded admission queue drained by
/// runner tasks on the process-wide scheduler (see the module docs for
/// the full model). Dropping the server stops admission and waits for
/// every runner to retire; admitted jobs finish first.
#[derive(Debug)]
pub struct Server {
    service: SimService,
    queue: Arc<JobQueue>,
    options: ServeOptions,
}

impl std::fmt::Debug for JobQueue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JobQueue")
            .field("capacity", &self.capacity)
            .finish_non_exhaustive()
    }
}

impl Server {
    /// Builds the server. No threads are spawned here: simulation
    /// requests execute as runner tasks of the process-wide scheduler,
    /// launched on demand as jobs are admitted (and retired when the
    /// queue runs dry). All runners share the service's plan cache and
    /// metrics (the service clone is two `Arc` bumps).
    pub fn new(service: SimService, options: ServeOptions) -> Self {
        let options = ServeOptions {
            workers: options.workers.max(1),
            queue_depth: options.queue_depth.max(1),
            max_sessions: options.max_sessions.max(1),
        };
        let queue = Arc::new(JobQueue::new(options.queue_depth, options.workers));
        Self {
            service,
            queue,
            options,
        }
    }

    /// Launches one runner task on the shared scheduler. The runner
    /// drains jobs until the queue is empty, then retires; `try_push`
    /// launches a replacement the moment new work is admitted, keeping
    /// the invariant "jobs queued ⇒ a runner exists" without any
    /// always-on thread.
    fn launch_runner(&self, priority: Priority) {
        let service = self.service.clone();
        let queue = Arc::clone(&self.queue);
        Scheduler::global().spawn_detached(
            priority,
            Box::new(move || {
                while let Some(job) = queue.next_job_or_retire() {
                    let Job {
                        id,
                        request,
                        priority,
                        cancel,
                        started,
                        seq,
                        reply,
                    } = *job;
                    // The request's nested layer/sweep tasks inherit
                    // its class via the ambient priority.
                    let line = scalesim_sched::with_priority(priority, || {
                        execute(&service, id.as_deref(), Ok(request), &cancel, started, seq)
                    });
                    // A send only fails if the session vanished; the
                    // work is already accounted.
                    let _ = reply.send(line);
                }
            }),
        );
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
                Ok(line) => dispatch(&self.service, Some(self), line),
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

    /// Parks one simulation request in the admission queue and blocks
    /// for its reply, or sheds it with `busy` when the queue is full.
    fn enqueue(
        &self,
        id: Option<String>,
        request: SimRequest,
        cancel: CancelToken,
        started: Instant,
        seq: u64,
    ) -> String {
        let (reply, reply_rx) = mpsc::sync_channel(1);
        let priority = priority_of(&request);
        let job = Box::new(Job {
            id: id.clone(),
            request,
            priority,
            cancel,
            started,
            seq,
            reply,
        });
        let failure = match self.queue.try_push(job) {
            Ok(launch) => {
                if launch {
                    self.launch_runner(priority);
                }
                match reply_rx.recv() {
                    Ok(response) => return response,
                    Err(_) => SimError::Internal("worker pool shut down mid-request".into()),
                }
            }
            Err(_) => {
                let m = self.service.metrics();
                m.dec_in_flight();
                m.inc(&m.shed);
                SimError::Busy("admission queue full; retry later".into())
            }
        };
        wire::encode_response(id.as_deref(), &Err(failure))
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

impl Drop for Server {
    fn drop(&mut self) {
        self.queue.shutdown_and_drain();
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
    use scalesim_api::{wire, SimRequest, SimResponse};
    use std::io::Cursor;

    fn run_line(id: &str) -> String {
        format!(
            "{{\"api\": 1, \"id\": \"{id}\", \"run\": {{\"topology\": \
             {{\"name\": \"t\", \"inline\": \"a, 16, 16, 16,\\n\"}}}}}}"
        )
    }

    fn small_server() -> Server {
        Server::new(
            SimService::new(),
            ServeOptions {
                workers: 2,
                queue_depth: 4,
                max_sessions: 2,
            },
        )
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

    fn make_job(priority: Priority) -> (Box<Job>, mpsc::Receiver<String>) {
        let (tx, rx) = mpsc::sync_channel(1);
        (
            Box::new(Job {
                id: None,
                request: SimRequest::Version,
                priority,
                cancel: CancelToken::never(),
                started: Instant::now(),
                seq: 0,
                reply: tx,
            }),
            rx,
        )
    }

    #[test]
    fn job_queue_sheds_when_full_and_drains_after_shutdown() {
        let queue = JobQueue::new(2, 1);
        let (a, _ra) = make_job(Priority::Interactive);
        let (b, _rb) = make_job(Priority::Interactive);
        let (c, _rc) = make_job(Priority::Interactive);
        assert_eq!(
            queue.try_push(a).ok(),
            Some(true),
            "the first admission reserves the one runner slot"
        );
        assert_eq!(
            queue.try_push(b).ok(),
            Some(false),
            "the runner cap is reached, no second runner"
        );
        assert!(queue.try_push(c).is_err(), "queue at capacity sheds");
        let mut state = queue.state.lock().unwrap();
        state.shutdown = true;
        drop(state);
        let (d, _rd) = make_job(Priority::Interactive);
        assert!(queue.try_push(d).is_err(), "a closed queue admits nothing");
        // Admitted jobs still drain after shutdown...
        assert!(queue.next_job_or_retire().is_some());
        assert!(queue.next_job_or_retire().is_some());
        // ...and only an empty queue retires the runner.
        assert!(queue.next_job_or_retire().is_none());
        // With the runner retired, a drain-wait returns immediately.
        queue.shutdown_and_drain();
    }

    #[test]
    fn job_queue_pops_interactive_before_batch_and_relaunches_runners() {
        let queue = JobQueue::new(8, 1);
        let (sweep, _rs) = make_job(Priority::Batch);
        let (run, _rr) = make_job(Priority::Interactive);
        assert_eq!(queue.try_push(sweep).ok(), Some(true));
        assert_eq!(queue.try_push(run).ok(), Some(false));
        let first = queue.next_job_or_retire().expect("two jobs queued");
        assert_eq!(
            first.priority,
            Priority::Interactive,
            "the later interactive job overtakes the queued sweep"
        );
        let second = queue.next_job_or_retire().expect("the sweep is next");
        assert_eq!(second.priority, Priority::Batch);
        assert!(queue.next_job_or_retire().is_none(), "runner retires");
        // After retirement the next admission reserves a fresh runner.
        let (late, _rl) = make_job(Priority::Interactive);
        assert_eq!(
            queue.try_push(late).ok(),
            Some(true),
            "a retired runner's slot is reusable"
        );
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
        // One reply of each origin: a queued run, an inline probe, a
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
            ServeOptions {
                workers: 1,
                queue_depth: 1,
                max_sessions: 1,
            },
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
