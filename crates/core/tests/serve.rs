//! End-to-end tests of `scalesim serve`: the stdio and TCP transports,
//! per-request isolation (malformed input never kills the process), and
//! the acceptance property — serve-mode reports byte-identical to the
//! one-shot CLI's files.

use scalesim::api::{wire, Features, RunSpec, SimRequest, SimResponse, TopologySource};
use std::io::{BufRead, BufReader, Read, Write};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_scalesim"))
}

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("scalesim-serve-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
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

fn run_request(cfg: &Path, topo: &Path) -> SimRequest {
    SimRequest::Run(RunSpec {
        config: scalesim::api::ConfigSource::Path(cfg.display().to_string()),
        topology: TopologySource::from_path(topo.display().to_string()),
        features: Features {
            energy: true,
            ..Default::default()
        },
    })
}

/// Pipes `lines` through `scalesim serve --stdio`, returning one
/// response line per request.
fn stdio_round_trip(lines: &[String]) -> Vec<String> {
    let mut child = bin()
        .args(["serve", "--stdio"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn scalesim serve");
    {
        let stdin = child.stdin.as_mut().expect("stdin piped");
        for line in lines {
            stdin.write_all(line.as_bytes()).unwrap();
            stdin.write_all(b"\n").unwrap();
        }
    }
    drop(child.stdin.take()); // EOF ends the session.
    let mut stdout = String::new();
    child
        .stdout
        .take()
        .expect("stdout piped")
        .read_to_string(&mut stdout)
        .unwrap();
    let status = child.wait().unwrap();
    assert!(status.success(), "serve must exit 0 on EOF");
    stdout.lines().map(str::to_string).collect()
}

/// The acceptance property: a serve-mode response carries the exact
/// bytes the one-shot CLI writes to its report files.
#[test]
fn serve_reports_are_byte_identical_to_the_oneshot_cli() {
    let dir = tmp_dir("parity");
    let (cfg, topo) = write_inputs(&dir);

    // One-shot CLI run.
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

    // The same scenario through serve --stdio. The CLI's --gemm flag
    // corresponds to format "gemm"; auto-detection picks the same
    // parser for this file, so use the explicit format to mirror the
    // flag exactly.
    let request = match run_request(&cfg, &topo) {
        SimRequest::Run(mut spec) => {
            spec.topology = spec
                .topology
                .with_format(scalesim::api::TopologyFormat::Gemm);
            SimRequest::Run(spec)
        }
        _ => unreachable!(),
    };
    let responses = stdio_round_trip(&[wire::encode_request(Some("parity"), &request)]);
    assert_eq!(responses.len(), 1);
    let (id, result) = wire::decode_response(&responses[0]);
    assert_eq!(id.as_deref(), Some("parity"));
    let SimResponse::Run(body) = result.unwrap() else {
        panic!("expected run body")
    };

    let expected = [
        "COMPUTE_REPORT.csv",
        "BANDWIDTH_REPORT.csv",
        "ENERGY_REPORT.csv",
    ];
    assert_eq!(
        body.reports
            .iter()
            .map(|r| r.name.as_str())
            .collect::<Vec<_>>(),
        expected,
        "serve emits exactly the files the CLI wrote"
    );
    for report in &body.reports {
        let file = std::fs::read_to_string(out_dir.join(&report.name)).unwrap();
        assert!(
            report.content == file,
            "{} differs between serve and the one-shot CLI",
            report.name
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn serve_stdio_isolates_bad_requests_and_keeps_answering() {
    let dir = tmp_dir("isolation");
    let (cfg, topo) = write_inputs(&dir);
    let good = wire::encode_request(Some("ok-1"), &run_request(&cfg, &topo));
    let lines = vec![
        "this is not json".to_string(),
        r#"{"api": 1, "id": "bad-cfg", "run": {"config": {"inline": "ArrayHieght : 2\n"}, "topology": {"inline": "a, 8, 8, 8,\n"}}}"#.to_string(),
        r#"{"api": 1, "id": "dup", "run": {"topology": {"inline": "a, 8, 8, 8,\na, 8, 8, 8,\n"}}}"#.to_string(),
        good,
        r#"{"api": 1, "version": {}}"#.to_string(),
    ];
    let responses = stdio_round_trip(&lines);
    assert_eq!(responses.len(), 5, "one response per request, in order");

    let (_, r0) = wire::decode_response(&responses[0]);
    assert_eq!(r0.unwrap_err().kind(), "config", "malformed JSON");

    let (id, r1) = wire::decode_response(&responses[1]);
    assert_eq!(id.as_deref(), Some("bad-cfg"));
    let e = r1.unwrap_err();
    assert_eq!((e.kind(), e.exit_code()), ("config", 2));

    let (id, r2) = wire::decode_response(&responses[2]);
    assert_eq!(id.as_deref(), Some("dup"));
    let e = r2.unwrap_err();
    assert_eq!(e.kind(), "topology");
    assert!(e.message().contains("duplicate layer name 'a'"), "{e}");

    let (id, r3) = wire::decode_response(&responses[3]);
    assert_eq!(id.as_deref(), Some("ok-1"));
    assert!(matches!(r3.unwrap(), SimResponse::Run(_)));

    let (_, r4) = wire::decode_response(&responses[4]);
    let SimResponse::Version(v) = r4.unwrap() else {
        panic!("expected version")
    };
    assert_eq!(v.api, scalesim::api::API_VERSION);
    let _ = std::fs::remove_dir_all(&dir);
}

/// An llm request whose score GEMM has 32·2^52·128 = 2^64 MACs is a
/// typed config error, answered at once, and the session answers the
/// next request.
#[test]
fn serve_rejects_an_llm_context_whose_macs_overflow_and_keeps_answering() {
    let lines = vec![
        r#"{"api":1,"id":"huge","deadline_ms":3000,"llm":{"workload":"llama-7b","phase":"decode","context":4503599627370496}}"#.to_string(),
        r#"{"api": 1, "version": {}}"#.to_string(),
    ];
    let responses = stdio_round_trip(&lines);
    assert_eq!(responses.len(), 2, "one response per request, in order");
    let (id, r0) = wire::decode_response(&responses[0]);
    assert_eq!(id.as_deref(), Some("huge"));
    let e = r0.unwrap_err();
    assert_eq!((e.kind(), e.exit_code()), ("config", 2));
    assert!(e.message().contains("overflows u64"), "{e}");
    let (_, r1) = wire::decode_response(&responses[1]);
    assert!(matches!(r1.unwrap(), SimResponse::Version(_)));
}

/// Inline topology rows whose lowered GEMM overflows `u64` (`Oh·Ow`
/// wrapping to 0, `M·K·N` wrapping, `K·N` overflowing) are in-band
/// topology errors, and the session answers the next request.
#[test]
fn serve_rejects_topology_rows_whose_gemm_overflows_and_keeps_answering() {
    let rows = [
        "c, 4294967296, 4294967296, 1, 1, 1, 1, 1,",
        "a, 18446744073709551615, 2, 2,",
        "c, 3, 3, 3, 3, 4294967296, 4294967296, 1,",
    ];
    let mut lines: Vec<String> = rows
        .iter()
        .enumerate()
        .map(|(i, row)| {
            format!(
                r#"{{"api": 1, "id": "ovf-{i}", "run": {{"topology": {{"inline": "{row}\n"}}}}}}"#
            )
        })
        .collect();
    lines.push(r#"{"api": 1, "version": {}}"#.to_string());
    let responses = stdio_round_trip(&lines);
    assert_eq!(responses.len(), 4, "one response per request, in order");
    for (i, response) in responses[..3].iter().enumerate() {
        let (id, r) = wire::decode_response(response);
        assert_eq!(id, Some(format!("ovf-{i}")));
        let e = r.unwrap_err();
        assert_eq!((e.kind(), e.exit_code()), ("topology", 3), "{e}");
        assert!(
            e.message().contains("line 1") && e.message().contains("overflows u64"),
            "{e}"
        );
    }
    let (_, last) = wire::decode_response(&responses[3]);
    assert!(matches!(last.unwrap(), SimResponse::Version(_)));
}

/// A run whose inline config sets a bandwidth below the 2^-20
/// words/cycle floor is an in-band config error, and the session answers
/// the next request.
#[test]
fn serve_rejects_a_bandwidth_below_the_floor_and_keeps_answering() {
    let lines = vec![
        r#"{"api": 1, "id": "tiny-bw", "run": {"config": {"inline": "Dataflow : ws\nBandwidth : 1e-300\n"}, "topology": {"inline": "a, 16, 64, 16,\n"}}}"#.to_string(),
        r#"{"api": 1, "version": {}}"#.to_string(),
    ];
    let responses = stdio_round_trip(&lines);
    assert_eq!(responses.len(), 2, "one response per request, in order");
    let (id, r0) = wire::decode_response(&responses[0]);
    assert_eq!(id.as_deref(), Some("tiny-bw"));
    let e = r0.unwrap_err();
    assert_eq!((e.kind(), e.exit_code()), ("config", 2));
    assert!(
        e.message().contains("below the least supported 2^-20"),
        "{e}"
    );
    let (_, r1) = wire::decode_response(&responses[1]);
    assert!(matches!(r1.unwrap(), SimResponse::Version(_)));
}

struct KillOnDrop(Child);

impl Drop for KillOnDrop {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

/// Answers concurrent connections over TCP with responses identical to
/// each other (and, transitively via the parity test above, to the
/// one-shot CLI).
#[test]
fn serve_listen_answers_concurrent_connections() {
    let dir = tmp_dir("tcp");
    let (cfg, topo) = write_inputs(&dir);

    // The session cap defaults to machine parallelism, which can be 1
    // on a small runner; this test needs two concurrent sessions.
    let mut child = bin()
        .args(["serve", "--listen", "127.0.0.1:0"])
        .env("SCALESIM_SERVE_SESSIONS", "4")
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn scalesim serve --listen");
    // The binary prints the bound address (ephemeral port) on stderr.
    let mut stderr = BufReader::new(child.stderr.take().expect("stderr piped"));
    let mut banner = String::new();
    stderr.read_line(&mut banner).unwrap();
    let _child = KillOnDrop(child);
    let addr = banner
        .split("listening on ")
        .nth(1)
        .and_then(|s| s.split_whitespace().next())
        .unwrap_or_else(|| panic!("no address in banner: {banner}"))
        .to_string();

    let sweep_line = r#"{"api": 1, "id": "sw", "sweep": {"spec": {"inline": "array = 8x8, 16x16\nenergy = true\n"}, "topologies": [{"name": "t", "inline": "a, 16, 16, 16,\n"}]}}"#;
    let run_line = wire::encode_request(Some("r"), &run_request(&cfg, &topo));

    let exchange = |line: String| {
        let mut stream = std::net::TcpStream::connect(&addr).expect("connect");
        stream.set_nodelay(true).unwrap();
        stream.write_all((line + "\n").as_bytes()).unwrap();
        stream.shutdown(std::net::Shutdown::Write).unwrap();
        let mut response = String::new();
        BufReader::new(&stream).read_line(&mut response).unwrap();
        response.trim_end().to_string()
    };

    // Two concurrent clients: a run and a sweep, plus a second run to
    // prove the warm-cache path returns the same bytes.
    let (first_run, sweep_resp) = std::thread::scope(|scope| {
        let a = scope.spawn(|| exchange(run_line.clone()));
        let b = scope.spawn(|| exchange(sweep_line.to_string()));
        (a.join().unwrap(), b.join().unwrap())
    });
    let second_run = exchange(run_line.clone());
    assert_eq!(first_run, second_run, "warm cache must not change bytes");

    let (_, run_result) = wire::decode_response(&first_run);
    assert!(matches!(run_result.unwrap(), SimResponse::Run(_)));
    let (id, sweep_result) = wire::decode_response(&sweep_resp);
    assert_eq!(id.as_deref(), Some("sw"));
    let SimResponse::Sweep(sweep_body) = sweep_result.unwrap() else {
        panic!("expected sweep body")
    };
    assert_eq!(sweep_body.grid_points, 2);
    assert_eq!(sweep_body.runs, 2);
    let _ = std::fs::remove_dir_all(&dir);
}
