//! Scheduler determinism through the real binary.
//!
//! The scheduler (`scalesim-sched`) executes layer tasks, sweep shards,
//! scale-out shard compute and the layers of serve requests; its one
//! hard invariant is that **no report byte may depend on the worker
//! count**. This suite pins that end to end for every subcommand,
//! crossing `SCALESIM_THREADS` over 1 / 4 / 16:
//!
//! * `run` — every report file in the output directory;
//! * `sweep` — `SWEEP_REPORT.{csv,json}`, which also exercises *nested*
//!   parallelism (batch-class sweep shards spawning layer scopes), so a
//!   pass at `SCALESIM_THREADS=1` doubles as the no-deadlock check for
//!   nesting on a single worker;
//! * `serve --stdio` — a mixed JSON-lines tape, byte for byte.
//!
//! (Scale-out byte-identity across the same matrix lives in
//! `tests/scaleout.rs`.)
//!
//! A Linux-only check also pins **no oversubscription**: a process run
//! with `SCALESIM_THREADS=8` may never hold more threads than the
//! workers it was asked for plus a small constant — the scheduler keeps
//! one persistent pool instead of spawning per call.

use std::io::Write;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

const THREAD_COUNTS: [&str; 3] = ["1", "4", "16"];

const CFG: &str = "[architecture_presets]\nArrayHeight : 16\nArrayWidth : 16\n\
     IfmapSramSzkB : 64\nFilterSramSzkB : 64\nOfmapSramSzkB : 32\nDataflow : ws\n";

/// Enough same-shaped and distinct layers to keep several workers busy
/// and hit the plan cache.
const TOPOLOGY: &str = "Layer, M, K, N,\n\
     qkv, 64, 64, 192,\nff1, 64, 64, 256,\nff2, 64, 256, 64,\n\
     qkv2, 64, 64, 192,\nhead, 64, 64, 32,\n";

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_scalesim"))
}

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("scalesim-sched-det-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

/// Reads every regular file in `dir` as `(name, bytes)`, sorted by name.
fn report_files(dir: &Path) -> Vec<(String, String)> {
    let mut files: Vec<(String, String)> = std::fs::read_dir(dir)
        .expect("read output dir")
        .map(|e| {
            let e = e.unwrap();
            (
                e.file_name().to_string_lossy().into_owned(),
                std::fs::read_to_string(e.path()).expect("read report"),
            )
        })
        .collect();
    files.sort();
    assert!(!files.is_empty(), "{}: no reports written", dir.display());
    files
}

#[test]
fn run_reports_are_byte_identical_across_thread_counts() {
    let dir = tmp_dir("run");
    let cfg = dir.join("core.cfg");
    std::fs::write(&cfg, CFG).unwrap();
    let topo = dir.join("net_gemm.csv");
    std::fs::write(&topo, TOPOLOGY).unwrap();

    let mut per_threads = Vec::new();
    for threads in THREAD_COUNTS {
        let out = dir.join(format!("t{threads}"));
        std::fs::create_dir_all(&out).unwrap();
        let status = bin()
            .args(["-c"])
            .arg(&cfg)
            .args(["-t"])
            .arg(&topo)
            .args(["--gemm", "--energy", "-p"])
            .arg(&out)
            .env("SCALESIM_THREADS", threads)
            .status()
            .expect("spawn scalesim");
        assert!(status.success(), "run failed at {threads} threads");
        per_threads.push(report_files(&out));
    }
    for (threads, files) in THREAD_COUNTS.iter().zip(&per_threads).skip(1) {
        assert_eq!(
            &per_threads[0], files,
            "run reports differ between SCALESIM_THREADS=1 and {threads}"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn sweep_reports_are_byte_identical_across_thread_counts_and_nesting_cannot_deadlock() {
    let dir = tmp_dir("sweep");
    let topo = dir.join("net_gemm.csv");
    std::fs::write(&topo, TOPOLOGY).unwrap();
    let spec = dir.join("grid.toml");
    // 8 grid points x multi-layer topology: every sweep point is a
    // batch-class shard whose run spawns nested layer scopes.
    std::fs::write(
        &spec,
        format!(
            "[sweep]\nname = det\n[grid]\narray = 8x8, 16x16\ndataflow = os, ws\n\
             bandwidth = 10, 20\n[workloads]\ntopology = {}\n",
            topo.display()
        ),
    )
    .unwrap();

    let mut per_threads = Vec::new();
    for threads in THREAD_COUNTS {
        let out = dir.join(format!("t{threads}"));
        std::fs::create_dir_all(&out).unwrap();
        let status = bin()
            .args(["sweep", "-s"])
            .arg(&spec)
            .args(["-p"])
            .arg(&out)
            .env("SCALESIM_THREADS", threads)
            .status()
            .expect("spawn scalesim sweep");
        // Completion at SCALESIM_THREADS=1 is the nested-parallelism
        // no-deadlock check: shard scopes and their layer scopes share
        // one worker plus the submitting thread.
        assert!(status.success(), "sweep failed at {threads} threads");
        per_threads.push(report_files(&out));
    }
    for (threads, files) in THREAD_COUNTS.iter().zip(&per_threads).skip(1) {
        assert_eq!(
            &per_threads[0], files,
            "sweep reports differ between SCALESIM_THREADS=1 and {threads}"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn serve_stdio_responses_are_byte_identical_across_thread_counts() {
    let tape: String = [
        r#"{"api": 1, "id": "r1", "run": {"topology": {"name": "t", "inline": "a, 16, 16, 16,\nb, 24, 24, 24,\n"}}}"#,
        r#"{"api": 1, "id": "sw", "sweep": {"spec": {"inline": "[grid]\narray = 8x8, 16x16\n"}, "topologies": [{"name": "t", "inline": "a, 16, 16, 16,\n"}]}}"#,
        r#"{"api": 1, "id": "sc", "scaleout": {"topology": {"name": "t", "inline": "a, 32, 32, 32,\n"}, "chips": 4, "strategy": "data"}}"#,
        r#"{"api": 1, "id": "r2", "run": {"topology": {"name": "t", "inline": "a, 16, 16, 16,\nb, 24, 24, 24,\n"}}}"#,
    ]
    .join("\n");

    let mut per_threads = Vec::new();
    for threads in THREAD_COUNTS {
        let mut child = bin()
            .args(["serve", "--stdio"])
            .env("SCALESIM_THREADS", threads)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .expect("spawn scalesim serve --stdio");
        child
            .stdin
            .take()
            .unwrap()
            .write_all(format!("{tape}\n").as_bytes())
            .unwrap();
        let out = child.wait_with_output().expect("serve session");
        assert!(out.status.success(), "serve failed at {threads} threads");
        let stdout = String::from_utf8(out.stdout).expect("utf-8 responses");
        assert_eq!(stdout.lines().count(), 4, "one response per request");
        per_threads.push(stdout);
    }
    for (threads, responses) in THREAD_COUNTS.iter().zip(&per_threads).skip(1) {
        assert_eq!(
            &per_threads[0], responses,
            "serve responses differ between SCALESIM_THREADS=1 and {threads}"
        );
    }
}

/// The scheduler must not oversubscribe: one persistent pool of
/// `SCALESIM_THREADS` workers, not a fresh pool per parallel_map call.
/// Peak thread count of a whole sweep run stays within the asked-for
/// workers plus a small constant (main thread + runtime helpers).
#[cfg(target_os = "linux")]
#[test]
fn a_sweep_process_never_holds_more_threads_than_asked_for() {
    const WORKERS: usize = 8;
    let dir = tmp_dir("threads");
    let topo = dir.join("net_gemm.csv");
    std::fs::write(&topo, TOPOLOGY).unwrap();
    let spec = dir.join("grid.toml");
    // A grid big enough that the process lives long enough to sample.
    std::fs::write(
        &spec,
        format!(
            "[sweep]\nname = threads\n[grid]\narray = 8x8, 16x16, 32x32\n\
             dataflow = os, ws\nbandwidth = 4, 10, 20\n[workloads]\ntopology = {}\n",
            topo.display()
        ),
    )
    .unwrap();

    let mut child = bin()
        .args(["sweep", "-s"])
        .arg(&spec)
        .args(["-p"])
        .arg(&dir)
        .env("SCALESIM_THREADS", WORKERS.to_string())
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn scalesim sweep");

    let status_path = format!("/proc/{}/status", child.id());
    let mut peak = 0usize;
    let mut samples = 0usize;
    loop {
        if let Some(code) = child.try_wait().expect("poll child") {
            assert!(code.success(), "sweep failed");
            break;
        }
        if let Ok(status) = std::fs::read_to_string(&status_path) {
            if let Some(threads) = status
                .lines()
                .find(|l| l.starts_with("Threads:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|v| v.parse::<usize>().ok())
            {
                peak = peak.max(threads);
                samples += 1;
            }
        }
        std::thread::sleep(std::time::Duration::from_millis(2));
    }
    assert!(samples > 0, "never sampled the running process");
    // main thread + 8 workers = 9; leave headroom for runtime helpers,
    // but a spawn-per-call scheme (which peaked at workers * live calls)
    // must trip this.
    assert!(
        peak <= WORKERS + 4,
        "peak thread count {peak} oversubscribes {WORKERS} workers"
    );
    assert!(
        peak > 1,
        "expected to observe the worker pool (peak {peak})"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
