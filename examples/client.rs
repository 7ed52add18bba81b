//! Batch client for a running `scalesim serve --listen` instance.
//!
//! Demonstrates the JSON-lines wire protocol end to end: it pipelines a
//! batch of requests over one TCP connection — a version probe, a ViT-
//! Base run, the *same* run again (hitting the server's warm plan
//! cache), and a small design-space sweep — then reads the responses
//! back in order and prints the summaries with per-request latency.
//!
//! ```text
//! # against an already-running server:
//! scalesim serve --listen 127.0.0.1:7878 &
//! cargo run --example client -- 127.0.0.1:7878
//!
//! # or self-contained (no argument): the example starts an in-process
//! # server on an ephemeral port and talks to itself.
//! cargo run --example client
//! ```
//!
//! The second, warm run answers noticeably faster than the first: the
//! server keeps one plan cache alive across requests, so repeated
//! workloads skip planning entirely. Protocol reference: docs/API.md.

use scalesim::serve::{ServeOptions, Server};
use scalesim::service::SimService;
use scalesim_api::{
    wire, ConfigSource, Features, RunSpec, SimRequest, SimResponse, SweepRequest, TopologySource,
};
use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};

fn requests() -> Vec<(String, SimRequest)> {
    // ViT-Base as inline GEMM rows — the client carries the workload;
    // the server needs no local files.
    let vit_csv = include_str!("../topologies/vit_base_gemm.csv");
    let run = SimRequest::Run(RunSpec {
        config: ConfigSource::Default,
        topology: TopologySource::inline("vit_base", vit_csv),
        features: Features {
            energy: true,
            ..Default::default()
        },
    });
    let sweep = SimRequest::Sweep(SweepRequest {
        spec: ConfigSource::Inline(
            "[sweep]\nname = client-demo\n[grid]\narray = 16x16, 32x32\nenergy = true\n".into(),
        ),
        base_config: ConfigSource::Default,
        topologies: vec![TopologySource::inline(
            "mlp",
            "fc1, 128, 256, 512,\nfc2, 128, 512, 256,\n",
        )],
        shards: 1,
    });
    vec![
        ("version".into(), SimRequest::Version),
        ("vit-cold".into(), run.clone()),
        ("vit-warm".into(), run),
        ("sweep".into(), sweep),
        ("stats".into(), SimRequest::Stats),
    ]
}

fn describe(response: &SimResponse) -> String {
    match response {
        SimResponse::Version(v) => format!("{} (api v{})", v.version, v.api),
        SimResponse::Run(r) => format!(
            "{} layers, {} cycles, {:.3} mJ, {} reports",
            r.summary.layers,
            r.summary.total_cycles,
            r.summary.energy_mj,
            r.reports.len()
        ),
        SimResponse::Sweep(s) => format!(
            "{} points x {} runs, pareto: {}",
            s.grid_points,
            s.runs,
            s.pareto_frontier.join(", ")
        ),
        SimResponse::Scaleout(s) => format!(
            "{} chips ({}), {} cycles ({} exposed comm)",
            s.chips, s.strategy, s.total_cycles, s.exposed_cycles
        ),
        SimResponse::Llm(l) => format!(
            "{} {} @ ctx {}: {} cycles, {:.1}% util",
            l.workload,
            l.phase,
            l.context,
            l.summary.total_cycles,
            l.summary.utilization * 100.0
        ),
        SimResponse::Area(a) => format!("{:.2} mm2", a.total_mm2),
        SimResponse::Stats(s) => format!(
            "cache {:.0}% hit ({} plans, {} evicted), {} served, p99 {} us",
            s.cache_hit_rate * 100.0,
            s.cache_plans,
            s.cache_evictions,
            s.completed,
            s.latency_p99_us
        ),
        SimResponse::Trace(t) => format!(
            "tracing {}, {} events ({} trace bytes)",
            if t.enabled { "on" } else { "off" },
            t.events,
            t.trace.len()
        ),
    }
}

fn main() -> std::io::Result<()> {
    // Connect to the given server, or start one in-process so the
    // example is runnable standalone.
    let addr = match std::env::args().nth(1) {
        Some(addr) => addr,
        None => {
            let listener = TcpListener::bind("127.0.0.1:0")?;
            let addr = listener.local_addr()?.to_string();
            eprintln!("no address given; serving in-process on {addr}");
            std::thread::spawn(move || {
                let options = ServeOptions { max_sessions: 2 };
                let _ = Server::new(SimService::new(), options).serve_listener(listener);
            });
            addr
        }
    };

    let batch = requests();
    let mut stream = TcpStream::connect(&addr)?;
    stream.set_nodelay(true)?;
    eprintln!("connected to {addr}; pipelining {} requests", batch.len());

    // Write the whole batch first (the protocol answers strictly in
    // order), then drain the responses.
    for (id, request) in &batch {
        let line = wire::encode_request(Some(id), request) + "\n";
        stream.write_all(line.as_bytes())?;
    }
    stream.flush()?;

    let mut reader = BufReader::new(stream);
    let started = std::time::Instant::now();
    let mut last = started;
    for (sent_id, _) in &batch {
        let mut line = String::new();
        if reader.read_line(&mut line)? == 0 {
            eprintln!("server closed the connection early");
            break;
        }
        let elapsed = last.elapsed();
        last = std::time::Instant::now();
        let (id, result) = wire::decode_response(line.trim_end());
        let id = id.unwrap_or_else(|| sent_id.clone());
        match result {
            Ok(response) => {
                println!(
                    "{id:<10} {:>8.1} ms  {}",
                    elapsed.as_secs_f64() * 1e3,
                    describe(&response)
                );
            }
            Err(e) => println!(
                "{id:<10} {:>8.1} ms  ERROR {e}",
                elapsed.as_secs_f64() * 1e3
            ),
        }
    }
    println!(
        "batch done in {:.1} ms (vit-warm should be faster than vit-cold: \
         the server's plan cache stays hot across requests)",
        started.elapsed().as_secs_f64() * 1e3
    );
    Ok(())
}
