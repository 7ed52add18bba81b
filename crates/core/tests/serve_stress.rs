//! Stress, determinism and soak tests for the production serve mode:
//!
//! * byte-identical responses for in-flight request caps of 1, 4 and 16
//!   crossed with scheduler sizes (`SCALESIM_THREADS`) of 16, 4 and 1
//!   under concurrent mixed load (run / sweep / scaleout / version /
//!   deadline), and byte-identical to the one-shot CLI's report files;
//! * a saturating burst answered with typed `busy` errors whose count
//!   matches the `stats` shed counter;
//! * a 10k-request soak (`--ignored`; the CI serve-stress job runs it)
//!   holding the plan-cache byte budget and a bounded RSS.

use scalesim::api::{wire, SimResponse};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::Barrier;

struct KillOnDrop(Child);

impl Drop for KillOnDrop {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_scalesim"))
}

/// Spawns `scalesim serve --listen 127.0.0.1:0` with the given
/// environment knobs, returning the child guard and the bound address
/// parsed from the banner.
fn spawn_serve(env: &[(&str, &str)]) -> (KillOnDrop, String) {
    let mut cmd = bin();
    cmd.args(["serve", "--listen", "127.0.0.1:0"])
        .stdout(Stdio::null())
        .stderr(Stdio::piped());
    for (k, v) in env {
        cmd.env(k, v);
    }
    let mut child = cmd.spawn().expect("spawn scalesim serve --listen");
    let mut stderr = BufReader::new(child.stderr.take().expect("stderr piped"));
    let mut banner = String::new();
    stderr.read_line(&mut banner).unwrap();
    let addr = banner
        .split("listening on ")
        .nth(1)
        .and_then(|s| s.split_whitespace().next())
        .unwrap_or_else(|| panic!("no address in banner: {banner}"))
        .to_string();
    (KillOnDrop(child), addr)
}

/// One session in lockstep: send a line, read its response, repeat.
/// Lockstep keeps the socket buffers small on both sides, so large
/// tapes cannot deadlock the test against the server.
fn exchange_tape(addr: &str, lines: &[String]) -> Vec<String> {
    let mut stream = TcpStream::connect(addr).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().expect("clone stream"));
    let mut responses = Vec::with_capacity(lines.len());
    for line in lines {
        stream.write_all(line.as_bytes()).unwrap();
        stream.write_all(b"\n").unwrap();
        let mut response = String::new();
        reader.read_line(&mut response).unwrap();
        assert!(!response.is_empty(), "server hung up mid-session");
        responses.push(response.trim_end().to_string());
    }
    responses
}

fn stats_snapshot(addr: &str) -> scalesim::api::StatsBody {
    let line = "{\"api\": 1, \"id\": \"stats\", \"stats\": {}}".to_string();
    let responses = exchange_tape(addr, &[line]);
    let (_, result) = wire::decode_response(&responses[0]);
    let SimResponse::Stats(stats) = result.expect("stats answers") else {
        panic!("expected stats body")
    };
    stats
}

fn write_inputs(dir: &Path) -> (PathBuf, PathBuf) {
    let cfg = dir.join("core.cfg");
    std::fs::write(
        &cfg,
        "[architecture_presets]\nArrayHeight : 16\nArrayWidth : 16\n\
         IfmapSramSzkB : 64\nFilterSramSzkB : 64\nOfmapSramSzkB : 32\nDataflow : ws\n",
    )
    .unwrap();
    let topo = dir.join("net_gemm.csv");
    std::fs::write(
        &topo,
        "Layer, M, K, N,\nqkv, 64, 64, 192,\nff1, 64, 64, 256,\n",
    )
    .unwrap();
    (cfg, topo)
}

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("scalesim-stress-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

/// The mixed per-client tape. Ids depend on the client index only, so
/// the same client's tape produces the same bytes on every server.
fn mixed_tape(client: usize, cfg: &Path, topo: &Path) -> Vec<String> {
    let file_run = format!(
        "{{\"api\": 1, \"id\": \"c{client}-file\", \"run\": {{\"config\": {{\"path\": {cfg:?}}}, \
         \"topology\": {{\"path\": {topo:?}, \"format\": \"gemm\"}}, \
         \"features\": {{\"energy\": true}}}}}}",
        cfg = cfg.display().to_string(),
        topo = topo.display().to_string(),
    );
    vec![
        format!(
            "{{\"api\": 1, \"id\": \"c{client}-r1\", \"run\": {{\"topology\": \
             {{\"name\": \"t\", \"inline\": \"a, 16, 16, 16,\\nb, 24, 24, 24,\\n\"}}}}}}"
        ),
        format!("{{\"api\": 1, \"id\": \"c{client}-v\", \"version\": {{}}}}"),
        format!(
            "{{\"api\": 1, \"id\": \"c{client}-sw\", \"sweep\": {{\"spec\": \
             {{\"inline\": \"[grid]\\narray = 8x8, 16x16\\nenergy = true\\n\"}}, \"topologies\": \
             [{{\"name\": \"t\", \"inline\": \"a, 16, 16, 16,\\n\"}}]}}}}"
        ),
        // The same run again: a warm cache must not change bytes.
        format!(
            "{{\"api\": 1, \"id\": \"c{client}-r1\", \"run\": {{\"topology\": \
             {{\"name\": \"t\", \"inline\": \"a, 16, 16, 16,\\nb, 24, 24, 24,\\n\"}}}}}}"
        ),
        format!(
            "{{\"api\": 1, \"id\": \"c{client}-sc\", \"scaleout\": {{\"topology\": \
             {{\"name\": \"t\", \"inline\": \"a, 32, 32, 32,\\n\"}}, \"chips\": 4, \
             \"strategy\": \"data\"}}}}"
        ),
        // An already-expired deadline: deterministic typed error.
        format!(
            "{{\"api\": 1, \"id\": \"c{client}-dl\", \"deadline_ms\": 0, \"run\": \
             {{\"topology\": {{\"inline\": \"a, 16, 16, 16,\\n\"}}}}}}"
        ),
        file_run,
        // Stats rides in the mixed tape but is excluded from the
        // byte comparison: its counters depend on interleaving.
        format!("{{\"api\": 1, \"id\": \"c{client}-st\", \"stats\": {{}}}}"),
    ]
}

/// Tape index of the `stats` request — the one load-dependent line.
const STATS_INDEX: usize = 7;

#[test]
fn responses_are_byte_identical_across_pool_sizes_and_to_the_cli() {
    const CLIENTS: usize = 4;
    let dir = tmp_dir("pools");
    let (cfg, topo) = write_inputs(&dir);

    // Reference report bytes from the one-shot CLI.
    let out_dir = dir.join("cli-out");
    let out = bin()
        .args(["-c"])
        .arg(&cfg)
        .args(["-t"])
        .arg(&topo)
        .args(["--gemm", "--energy", "-p"])
        .arg(&out_dir)
        .output()
        .expect("spawn scalesim");
    assert!(
        out.status.success(),
        "cli run failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );

    let mut per_pool: Vec<Vec<Vec<String>>> = Vec::new();
    // Cross in-flight request caps with scheduler sizes (the scheduler
    // reads SCALESIM_THREADS once at startup): bytes must not depend on
    // either knob.
    for (pool, threads) in [("1", "16"), ("4", "4"), ("16", "1")] {
        // Queue deeper than the client count: determinism is a promise
        // about admitted requests, so nothing may shed here.
        let (_guard, addr) = spawn_serve(&[
            ("SCALESIM_SERVE_WORKERS", pool),
            ("SCALESIM_THREADS", threads),
            ("SCALESIM_SERVE_QUEUE", "32"),
            ("SCALESIM_SERVE_SESSIONS", "8"),
        ]);
        // All clients in flight at once, each on its own connection.
        let barrier = Barrier::new(CLIENTS);
        let responses: Vec<Vec<String>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..CLIENTS)
                .map(|client| {
                    let addr = &addr;
                    let barrier = &barrier;
                    let tape = mixed_tape(client, &cfg, &topo);
                    scope.spawn(move || {
                        barrier.wait();
                        exchange_tape(addr, &tape)
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        per_pool.push(responses);
    }

    // Byte-identical across pool sizes, client by client.
    let [pool1, pool4, pool16] = <[Vec<Vec<String>>; 3]>::try_from(per_pool).unwrap();
    for (client, reference) in pool1.iter().enumerate() {
        assert_eq!(
            reference[..STATS_INDEX],
            pool4[client][..STATS_INDEX],
            "client {client}: pool 1 vs pool 4"
        );
        assert_eq!(
            reference[..STATS_INDEX],
            pool16[client][..STATS_INDEX],
            "client {client}: pool 1 vs pool 16"
        );
        // The stats line is load-dependent; require only that every
        // pool answers it with a well-formed stats body.
        for responses in [reference, &pool4[client], &pool16[client]] {
            let (id, result) = wire::decode_response(&responses[STATS_INDEX]);
            assert_eq!(id.as_deref(), Some(format!("c{client}-st").as_str()));
            assert!(
                matches!(result, Ok(SimResponse::Stats(_))),
                "client {client}: stats answer malformed"
            );
        }
        // Warm rerun (tape index 3 repeats index 0, same id).
        assert_eq!(
            reference[0], reference[3],
            "client {client}: warm cache changed bytes"
        );
        // The deadline'd request answers the deterministic typed error.
        let (id, result) = wire::decode_response(&reference[5]);
        assert_eq!(id.as_deref(), Some(format!("c{client}-dl").as_str()));
        let e = result.unwrap_err();
        assert_eq!((e.kind(), e.exit_code()), ("deadline", 124));
        assert_eq!(e.message(), "deadline of 0 ms exceeded");
        // The file-based run carries the exact CLI report bytes.
        let (_, result) = wire::decode_response(&reference[6]);
        let SimResponse::Run(body) = result.unwrap() else {
            panic!("expected run body")
        };
        for report in &body.reports {
            let file = std::fs::read_to_string(out_dir.join(&report.name)).unwrap();
            assert!(
                report.content == file,
                "client {client}: {} differs from the one-shot CLI",
                report.name
            );
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_saturating_burst_gets_typed_busy_and_stats_reports_the_shed_count() {
    const CLIENTS: usize = 8;
    let (_guard, addr) = spawn_serve(&[
        ("SCALESIM_SERVE_WORKERS", "1"),
        ("SCALESIM_SERVE_QUEUE", "1"),
        ("SCALESIM_SERVE_SESSIONS", "32"),
    ]);
    // A sweep heavy enough that one worker is pinned for seconds while
    // the burst lands.
    let bandwidths: Vec<String> = (1..=40).map(|b| b.to_string()).collect();
    let heavy = format!(
        "{{\"api\": 1, \"id\": \"hv\", \"sweep\": {{\"spec\": {{\"inline\": \
         \"[grid]\\nbandwidth = {}\\n\"}}, \"topologies\": [{{\"name\": \"big\", \"inline\": \
         \"l0, 128, 128, 128,\\nl1, 128, 128, 128,\\n\"}}]}}}}",
        bandwidths.join(", ")
    );

    let barrier = Barrier::new(CLIENTS);
    let responses: Vec<String> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|_| {
                let addr = &addr;
                let barrier = &barrier;
                let heavy = &heavy;
                scope.spawn(move || {
                    barrier.wait();
                    exchange_tape(addr, std::slice::from_ref(heavy))
                        .pop()
                        .unwrap()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    let mut busy = 0usize;
    let mut completed = 0usize;
    for response in &responses {
        let (id, result) = wire::decode_response(response);
        assert_eq!(id.as_deref(), Some("hv"));
        match result {
            Ok(SimResponse::Sweep(body)) => {
                assert_eq!(body.runs, 40, "40 grid points x 1 topology");
                completed += 1;
            }
            Ok(other) => panic!("unexpected body: {other:?}"),
            Err(e) => {
                assert_eq!((e.kind(), e.exit_code()), ("busy", 75), "{e}");
                assert_eq!(e.message(), "admission queue full; retry later");
                busy += 1;
            }
        }
    }
    assert!(completed >= 1, "at least the first request must complete");
    assert!(
        busy >= 1,
        "with 1 worker and a 1-deep queue, an 8-client burst must shed"
    );
    let stats = stats_snapshot(&addr);
    assert_eq!(
        stats.shed as usize, busy,
        "stats shed counter must match the busy responses clients saw"
    );
    assert_eq!(stats.deadline_expired, 0);
}

/// 10k mixed requests against a byte-budgeted cache: the budget is a
/// hard ceiling on resident plan bytes, and process RSS stays bounded.
/// Ignored by default (takes tens of seconds); the CI serve-stress job
/// runs it with `--ignored`.
#[test]
#[ignore = "soak test: run with --ignored (CI serve-stress job does)"]
fn soak_ten_thousand_requests_hold_the_cache_budget_and_bounded_rss() {
    const CLIENTS: usize = 4;
    const PER_CLIENT: usize = 2500;
    let (guard, addr) = spawn_serve(&[
        ("SCALESIM_SERVE_WORKERS", "4"),
        ("SCALESIM_SERVE_SESSIONS", "8"),
        ("SCALESIM_CACHE_BUDGET_MB", "8"),
    ]);
    let pid = guard.0.id();

    let barrier = Barrier::new(CLIENTS);
    std::thread::scope(|scope| {
        for client in 0..CLIENTS {
            let addr = &addr;
            let barrier = &barrier;
            scope.spawn(move || {
                barrier.wait();
                let mut stream = TcpStream::connect(addr.as_str()).expect("connect");
                let mut reader = BufReader::new(stream.try_clone().unwrap());
                for i in 0..PER_CLIENT {
                    // Cycle distinct shapes so the cache keeps planning
                    // and evicting; repeat within the cycle for hits.
                    let d = 8 + (i % 32) * 2;
                    let line = if i % 250 == 249 {
                        format!("{{\"api\": 1, \"id\": \"c{client}-s{i}\", \"stats\": {{}}}}")
                    } else {
                        format!(
                            "{{\"api\": 1, \"id\": \"c{client}-{i}\", \"run\": {{\"topology\": \
                             {{\"name\": \"t{d}\", \"inline\": \"a, {d}, {d}, {d},\\n\"}}}}}}"
                        )
                    };
                    stream.write_all(line.as_bytes()).unwrap();
                    stream.write_all(b"\n").unwrap();
                    let mut response = String::new();
                    reader.read_line(&mut response).unwrap();
                    assert!(!response.is_empty(), "server hung up at request {i}");
                    let (_, result) = wire::decode_response(response.trim_end());
                    assert!(result.is_ok(), "request {i} failed: {response}");
                }
            });
        }
    });

    let stats = stats_snapshot(&addr);
    assert_eq!(stats.cache_budget_bytes, 8 * 1024 * 1024);
    assert!(
        stats.cache_resident_bytes <= stats.cache_budget_bytes,
        "cache exceeded its byte budget: {} > {}",
        stats.cache_resident_bytes,
        stats.cache_budget_bytes
    );
    assert!(stats.cache_hits > 0, "cycled shapes must re-hit the cache");
    let total = (CLIENTS * PER_CLIENT) as u64;
    assert!(
        stats.requests_total >= total,
        "{} < {total}",
        stats.requests_total
    );
    assert_eq!(stats.shed, 0, "nothing sheds at this load");
    assert!(stats.latency_p99_us > 0);

    // RSS bound: a persistent server must not accumulate memory across
    // 10k requests (the cache is budgeted; responses are streamed).
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).unwrap_or_default();
    if let Some(kb) = status
        .lines()
        .find(|l| l.starts_with("VmRSS:"))
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|v| v.parse::<u64>().ok())
    {
        eprintln!("serve RSS after the soak: {kb} kB");
        assert!(
            kb < 128 * 1024,
            "serve RSS grew to {kb} kB over the soak (expected < 128 MB)"
        );
    }
}
