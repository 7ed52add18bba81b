//! `serve_mix`: a spawned `scalesim serve --listen 127.0.0.1:0` under a
//! closed loop of TCP clients (each sends its next request only after
//! the previous reply), timed from the client side.

use crate::child;
use crate::cli::{self, Env, SimTotals};
use crate::workloads::{self, Rng};
use scalesim::api::json::Json;
use scalesim::api::{
    wire, ConfigSource, Features, LlmRequest, RunSpec, ScaleoutRequest, SimRequest, TopologyFormat,
    TopologySource,
};
use std::collections::BTreeMap;
use std::io::{self, BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::Path;
use std::process::{Child, Stdio};
use std::sync::{mpsc, Barrier, OnceLock};
use std::time::{Duration, Instant};

/// A reply slower than this counts as failed and ends its client.
const REPLY_TIMEOUT: Duration = Duration::from_secs(30);
const LISTEN_TIMEOUT: Duration = Duration::from_secs(30);

/// What a deck slot asks for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Run,
    Scaleout,
    Llm,
    /// `version` on even rounds, `stats` on odd ones: answered inline.
    Cheap,
}

/// The request mix as a deck of 20 slots — 16 `run` (80 %), 2
/// `scaleout` (10 %), 1 `llm` decode (5 %), 1 `version`/`stats` (5 %) —
/// that every client deals again and again in seeded order. What each
/// slot asks is fixed: every deck carries the same simulated work, so
/// throughput in simulated cycles does not depend on the seed, and a
/// slot's reply must carry the same cycle count every time.
pub struct Deck {
    pub slots: Vec<(Kind, String)>,
    /// The `stats` line the cheap slot alternates to.
    stats_line: String,
}

const RUN_SLOTS: usize = 16;

/// The inline GEMM topology of run slot `i`: 4–12 consecutive pool rows.
pub fn slot_topology(i: usize) -> String {
    let pool: Vec<&str> = workloads::file("serve_pool.csv").lines().collect();
    let (header, shapes) = (pool[0], &pool[1..]);
    let len = 4 + (i * 5) % 9;
    let mut csv = format!("{header}\n");
    for j in 0..len {
        csv.push_str(shapes[(3 * i + j) % shapes.len()]);
        csv.push('\n');
    }
    csv
}

impl Deck {
    pub fn new() -> Deck {
        let core = || ConfigSource::Inline(workloads::file("ws32.cfg").to_string());
        let topology = |i: usize| {
            TopologySource::inline(format!("mix{i}"), slot_topology(i))
                .with_format(TopologyFormat::Gemm)
        };
        let mut requests: Vec<(Kind, SimRequest)> = (0..RUN_SLOTS)
            .map(|i| {
                let spec = RunSpec {
                    config: core(),
                    topology: topology(i),
                    features: Features {
                        energy: true,
                        ..Features::default()
                    },
                };
                (Kind::Run, SimRequest::Run(spec))
            })
            .collect();
        for i in [0, RUN_SLOTS / 2] {
            let mut scaleout = ScaleoutRequest::for_topology(topology(i));
            scaleout.config = core();
            scaleout.chips = Some(8);
            scaleout.fabric = Some("ring".into());
            scaleout.strategy = Some("data".into());
            requests.push((Kind::Scaleout, SimRequest::Scaleout(scaleout)));
        }
        let llm = LlmRequest {
            config: ConfigSource::Inline(workloads::file("serve_llm.cfg").to_string()),
            phase: Some("decode".into()),
            context: Some(256),
            batch: Some(2),
            ..LlmRequest::default()
        };
        requests.push((Kind::Llm, SimRequest::Llm(llm)));
        requests.push((Kind::Cheap, SimRequest::Version));
        let encode = |slot: usize, request: &SimRequest| {
            wire::encode_request(Some(&format!("slot{slot}")), request)
        };
        Deck {
            stats_line: encode(requests.len() - 1, &SimRequest::Stats),
            slots: requests
                .iter()
                .enumerate()
                .map(|(slot, (kind, request))| (*kind, encode(slot, request)))
                .collect(),
        }
    }

    fn line(&self, slot: usize, round: usize) -> &str {
        match self.slots[slot].0 {
            Kind::Cheap if round % 2 == 1 => &self.stats_line,
            _ => &self.slots[slot].1,
        }
    }
}

/// The running server; dropped, it is killed and reaped.
pub struct Server {
    child: Child,
    stderr_drain: Option<std::thread::JoinHandle<()>>,
    pub addr: String,
}

impl Server {
    /// Spawns `scalesim serve --listen 127.0.0.1:0` and waits for its
    /// `listening on <addr>` line. `sessions` must cover every client
    /// plus the harness's own control connection.
    pub fn spawn(env: &Env, sessions: usize, trace: Option<&Path>) -> io::Result<Server> {
        let mut command = env.scalesim();
        command
            .args(["serve", "--listen", "127.0.0.1:0"])
            .env("SCALESIM_SERVE_SESSIONS", sessions.to_string())
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped());
        if let Some(path) = trace {
            command.arg("--trace").arg(path);
            command.env("SCALESIM_TRACE_BUF", cli::TRACE_BUF);
        }
        let mut child = command.spawn()?;
        let stderr = child.stderr.take().expect("stderr was piped");
        let (tx, rx) = mpsc::channel();
        // Keeps reading after the address line so the server can never
        // block on a full stderr pipe; ends at EOF when the server dies.
        let stderr_drain = std::thread::spawn(move || {
            for line in BufReader::new(stderr).lines().map_while(Result::ok) {
                if let Some(rest) = line.split("listening on ").nth(1) {
                    let addr = rest.split_whitespace().next().unwrap_or("");
                    let _ = tx.send(addr.to_string());
                }
            }
        });
        let mut server = Server {
            child,
            stderr_drain: Some(stderr_drain),
            addr: String::new(),
        };
        server.addr = rx
            .recv_timeout(LISTEN_TIMEOUT)
            .map_err(|_| io::Error::other("server never printed its listening address"))?;
        Ok(server)
    }

    pub fn peak_rss_mb(&self) -> Option<f64> {
        child::peak_rss_mb(self.child.id())
    }

    pub fn cpu_seconds(&self) -> Option<(f64, f64)> {
        child::cpu_seconds(self.child.id())
    }

    /// One request on a connection of its own; the reply line.
    pub fn request(&self, request: &SimRequest) -> io::Result<String> {
        let mut conn = Connection::open(&self.addr)?;
        conn.round_trip(&wire::encode_request(None, request))?;
        Ok(conn.reply)
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        child::kill_and_reap(&mut self.child);
        if let Some(drain) = self.stderr_drain.take() {
            let _ = drain.join();
        }
    }
}

struct Connection {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
    frame: Vec<u8>,
    reply: String,
}

impl Connection {
    fn open(addr: &str) -> io::Result<Connection> {
        let stream = TcpStream::connect(addr)?;
        stream.set_read_timeout(Some(REPLY_TIMEOUT))?;
        Ok(Connection {
            reader: BufReader::new(stream.try_clone()?),
            stream,
            frame: Vec::new(),
            reply: String::new(),
        })
    }

    /// Writes one request line (line and newline in a single write, as
    /// a well-behaved client does) and reads the full reply line into
    /// `self.reply`; the elapsed time is what the client observed.
    fn round_trip(&mut self, line: &str) -> io::Result<Duration> {
        self.frame.clear();
        self.frame.extend_from_slice(line.as_bytes());
        self.frame.push(b'\n');
        self.reply.clear();
        let start = Instant::now();
        self.stream.write_all(&self.frame)?;
        if self.reader.read_line(&mut self.reply)? == 0 {
            return Err(io::Error::other("server closed the connection"));
        }
        Ok(start.elapsed())
    }
}

/// One request as the client saw it.
#[derive(Debug, Clone)]
pub struct Sample {
    pub slot: usize,
    pub latency_ms: f64,
    /// Completed inside the timed window (warm-up samples are not).
    pub timed: bool,
    /// When the full reply had arrived.
    pub done: Instant,
    /// The summary of an ok reply; `None` marks a failed request
    /// (error/busy reply, transport failure or malformed reply).
    pub sim: Option<SimTotals>,
}

/// The `ok.<command>.summary` of a reply as simulated totals — all
/// zero for the commands that simulate nothing, and for the fields a
/// command's summary lacks. `None` unless the reply is ok and echoes `id`.
fn reply_summary(reply: &str, id: &str) -> Option<SimTotals> {
    let doc = Json::parse(reply.trim_end()).ok()?;
    if doc.get("id")?.as_str()? != id {
        return None;
    }
    let (command, body) = doc.get("ok")?.as_object()?.first()?;
    if matches!(command.as_str(), "version" | "stats") {
        return Some(SimTotals::default());
    }
    let summary = body.get("summary")?;
    let count = |key: &str| summary.get(key).and_then(Json::as_u64).unwrap_or(0);
    let real = |key: &str| summary.get(key).and_then(Json::as_f64).unwrap_or(0.0);
    let compute_cycles = count("compute_cycles");
    Some(SimTotals {
        total_cycles: summary.get("total_cycles")?.as_u64()?,
        compute_cycles,
        stall_cycles: count("stall_cycles"),
        layers: count("layers"),
        macs: count("macs"),
        energy_mj: real("energy_mj"),
        util_x_compute: real("utilization") * compute_cycles as f64,
        ..SimTotals::default()
    })
}

/// One client: deals the deck once as warm-up, meets the harness at
/// the barrier, then deals until the window closes. It reaches the
/// barrier whatever fails, so the harness never waits forever.
fn client(
    addr: &str,
    deck: &Deck,
    mut rng: Rng,
    gate: &Barrier,
    window_end: &OnceLock<Option<Instant>>,
) -> Vec<Sample> {
    let mut samples = Vec::new();
    let mut conn = Connection::open(addr).ok();
    let mut order: Vec<usize> = (0..deck.slots.len()).collect();
    let mut end: Option<Instant> = None;
    'rounds: for round in 0.. {
        if round == 1 {
            gate.wait(); // warm-up done
            gate.wait(); // window open
            end = window_end.get().copied().flatten();
        }
        rng.shuffle(&mut order);
        for &slot in &order {
            if round > 0 && end.is_none_or(|end| Instant::now() >= end) {
                break 'rounds;
            }
            let line = deck.line(slot, round);
            let latency = conn.as_mut().and_then(|c| c.round_trip(line).ok());
            let done = Instant::now();
            let reply = match (&conn, latency) {
                (Some(conn), Some(_)) => conn.reply.as_str(),
                _ => "",
            };
            samples.push(Sample {
                slot,
                latency_ms: latency.unwrap_or_default().as_secs_f64() * 1e3,
                timed: end.is_some_and(|end| done <= end),
                done,
                sim: reply_summary(reply, &format!("slot{slot}")),
            });
            if latency.is_none() {
                conn = None; // a broken connection fails the rest of this round
                if round > 0 {
                    break 'rounds;
                }
            }
        }
    }
    samples
}

/// Counters of a `stats` reply the per-layer metrics use.
#[derive(Debug, Default, Clone, Copy)]
pub struct ServerStats {
    pub cache_hits: f64,
    pub cache_misses: f64,
    pub cache_resident_bytes: f64,
    pub requests_total: f64,
    pub shed: f64,
    pub deadline_expired: f64,
}

impl ServerStats {
    fn parse(reply: &str) -> Option<ServerStats> {
        let doc = Json::parse(reply.trim_end()).ok()?;
        let stats = doc.get("ok")?.get("stats")?;
        let num = |section: &str, key: &str| stats.get(section)?.get(key)?.as_f64();
        Some(ServerStats {
            cache_hits: num("cache", "hits")?,
            cache_misses: num("cache", "misses")?,
            cache_resident_bytes: num("cache", "resident_bytes")?,
            requests_total: num("serve", "requests_total")?,
            shed: num("serve", "shed")?,
            deadline_expired: num("serve", "deadline_expired")?,
        })
    }
}

/// Everything one server lifetime produced.
pub struct Session {
    /// Spawn to `listening`, plus the warm-up deck of every client.
    pub setup_s: f64,
    /// When the timed window opened.
    pub opened: Instant,
    pub samples: Vec<Sample>,
    /// `stats` at the window's start and end (`None`: the request failed).
    pub stats: Option<(ServerStats, ServerStats)>,
    /// Server `VmHWM` and `(user, system)` CPU seconds at the end.
    pub peak_rss_mb: Option<f64>,
    pub cpu_s: Option<(f64, f64)>,
    /// The Chrome trace the server answered to a `trace` request, when
    /// the session was traced.
    pub trace: Option<String>,
}

/// Spawns a server, warms it with one deck per client, then — if
/// `window` is given — keeps the clients dealing for that long.
pub fn session(
    env: &Env,
    deck: &Deck,
    seed: u64,
    clients: usize,
    window: Option<Duration>,
    trace_file: Option<&Path>,
) -> io::Result<Session> {
    let spawned = Instant::now();
    let server = Server::spawn(env, clients + 1, trace_file)?;
    let gate = Barrier::new(clients + 1);
    let window_end = OnceLock::new();
    let mut session = Session {
        setup_s: 0.0,
        opened: spawned,
        samples: Vec::new(),
        stats: None,
        peak_rss_mb: None,
        cpu_s: None,
        trace: None,
    };
    let mut before = None;
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                let rng = Rng::new(seed.wrapping_mul(0x1_0000).wrapping_add(c as u64));
                let (addr, gate, end) = (&server.addr, &gate, &window_end);
                scope.spawn(move || client(addr, deck, rng, gate, end))
            })
            .collect();
        gate.wait();
        session.setup_s = spawned.elapsed().as_secs_f64();
        before = server_stats(&server);
        session.opened = Instant::now();
        window_end
            .set(window.map(|w| session.opened + w))
            .expect("set exactly once");
        gate.wait();
        for handle in handles {
            session
                .samples
                .extend(handle.join().expect("client thread panicked"));
        }
    });
    session.stats = before.zip(server_stats(&server));
    session.peak_rss_mb = server.peak_rss_mb();
    session.cpu_s = server.cpu_seconds();
    if trace_file.is_some() {
        session.trace = server
            .request(&SimRequest::Trace)
            .ok()
            .and_then(|reply| trace_of(&reply));
    }
    Ok(session)
}

fn server_stats(server: &Server) -> Option<ServerStats> {
    ServerStats::parse(&server.request(&SimRequest::Stats).ok()?)
}

fn trace_of(reply: &str) -> Option<String> {
    let doc = Json::parse(reply.trim_end()).ok()?;
    let trace = doc.get("ok")?.get("trace")?.get("trace")?.as_str()?;
    Some(trace.to_string())
}

/// The first ok reply of every deck slot.
fn first_replies(samples: &[Sample]) -> BTreeMap<usize, &SimTotals> {
    let mut first = BTreeMap::new();
    for (slot, sim) in samples
        .iter()
        .filter_map(|s| Some((s.slot, s.sim.as_ref()?)))
    {
        first.entry(slot).or_insert(sim);
    }
    first
}

/// Requests whose reply carried a different cycle count than the first
/// ok reply of the same slot: the same (cfg, topology) must always
/// simulate to the same total.
pub fn inconsistent_replies(samples: &[Sample]) -> usize {
    let first = first_replies(samples);
    samples
        .iter()
        .filter_map(|s| Some((s.slot, s.sim.as_ref()?)))
        .filter(|(slot, sim)| first[slot].total_cycles != sim.total_cycles)
        .count()
}

/// Simulated totals of one deck (every slot once): what the seed cannot
/// change, so two commits can be compared exactly.
pub fn deck_totals(samples: &[Sample]) -> SimTotals {
    let mut sum = SimTotals::default();
    for sim in first_replies(samples).values() {
        sum.add(sim);
    }
    sum
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deck_has_the_stated_mix_and_decodes() {
        let deck = Deck::new();
        let count = |k: Kind| deck.slots.iter().filter(|(kind, _)| *kind == k).count();
        assert_eq!(deck.slots.len(), 20);
        assert_eq!(
            (
                count(Kind::Run),
                count(Kind::Scaleout),
                count(Kind::Llm),
                count(Kind::Cheap)
            ),
            (16, 2, 1, 1)
        );
        for (slot, (_, line)) in deck.slots.iter().enumerate() {
            let (id, request) = wire::decode_request(line);
            assert_eq!(id, Some(format!("slot{slot}")));
            assert!(request.is_ok(), "slot {slot}: {request:?}");
        }
        assert_eq!(deck.line(19, 0), deck.slots[19].1);
        assert!(deck.line(19, 1).contains("\"stats\""));
        for i in 0..RUN_SLOTS {
            let rows = slot_topology(i).lines().count() - 1;
            assert!((4..=12).contains(&rows));
        }
    }

    #[test]
    fn reply_summary_needs_ok_and_the_right_id() {
        let ok = r#"{"api":1,"id":"slot3","ok":{"run":{"summary":{"layers":4,"total_cycles":55536,"compute_cycles":28088,"utilization":0.5}}}}"#;
        let sim = reply_summary(ok, "slot3").unwrap();
        assert_eq!((sim.total_cycles, sim.layers, sim.macs), (55536, 4, 0));
        assert_eq!(sim.utilization(), 0.5);
        assert_eq!(reply_summary(ok, "slot4"), None);
        let version = r#"{"api":1,"id":"slot19","ok":{"version":{"version":"x","api":1}}}"#;
        assert_eq!(reply_summary(version, "slot19"), Some(SimTotals::default()));
        let busy = r#"{"api":1,"id":"slot3","error":{"kind":"busy","exit_code":75,"message":"m"}}"#;
        assert_eq!(reply_summary(busy, "slot3"), None);
        assert_eq!(reply_summary("", "slot3"), None);
    }

    #[test]
    fn a_slot_that_changes_its_cycles_is_counted() {
        let sample = |slot, cycles: Option<u64>| Sample {
            slot,
            latency_ms: 1.0,
            timed: true,
            done: Instant::now(),
            sim: cycles.map(|total_cycles| SimTotals {
                total_cycles,
                ..SimTotals::default()
            }),
        };
        let samples = [
            sample(0, Some(10)),
            sample(1, Some(20)),
            sample(0, Some(10)),
            sample(0, Some(11)),
            sample(1, None),
        ];
        assert_eq!(inconsistent_replies(&samples), 1);
        assert_eq!(deck_totals(&samples).total_cycles, 30);
    }

    #[test]
    fn stats_reply_parses() {
        let reply = r#"{"api":1,"ok":{"stats":{"cache":{"hits":62,"misses":15,"plans":14,"evictions":0,"resident_bytes":13021600,"budget_bytes":0,"hit_rate":0.8052},"serve":{"requests_total":13,"completed":12,"shed":0,"deadline_expired":0,"in_flight":1},"latency_us":{"count":12,"p50":435,"p99":26319,"max":26319},"sched":{"workers":2,"steals":8,"spawns":11,"park_wakeups":18},"spans":{"sched":59,"pipeline":97,"cache":77,"dram":0,"collective":12,"serve":50,"sweep":0}}}}"#;
        let stats = ServerStats::parse(reply).unwrap();
        assert_eq!(stats.cache_hits, 62.0);
        assert_eq!(stats.requests_total, 13.0);
        assert!(ServerStats::parse("{}").is_none());
    }
}
