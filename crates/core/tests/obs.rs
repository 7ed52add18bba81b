//! Observability guarantees through the real binary.
//!
//! Two hard invariants of `crates/obs` (see `docs/OBSERVABILITY.md`):
//!
//! * **Determinism**: tracing observes the simulation but never feeds
//!   back into it. Enabling `--trace` must not change a single report
//!   byte, at any worker count.
//! * **Validity**: the emitted file is well-formed Chrome trace-event
//!   JSON (the object form Perfetto loads), with one named track per
//!   recording thread and category/name strings from the documented
//!   vocabulary. The file is parsed with the workspace's own strict
//!   JSON parser (`scalesim_api::json::Json`), not eyeballed.

use scalesim_api::json::Json;
use scalesim_api::SPAN_CATEGORIES;
use std::path::{Path, PathBuf};
use std::process::Command;

const CFG: &str = "[architecture_presets]\nArrayHeight : 16\nArrayWidth : 16\n\
     IfmapSramSzkB : 64\nFilterSramSzkB : 64\nOfmapSramSzkB : 32\nDataflow : ws\n";

const TOPOLOGY: &str = "Layer, M, K, N,\n\
     qkv, 64, 64, 192,\nff1, 64, 64, 256,\nff2, 64, 256, 64,\nhead, 64, 64, 32,\n";

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_scalesim"))
}

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("scalesim-obs-{tag}-{}", std::process::id()));
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

/// `--trace` must not change any report byte: span recording happens on
/// the side of the simulation, never in it. Crossed with worker counts
/// 1/8 so the guard also covers the per-worker ring buffers.
#[test]
fn trace_flag_does_not_change_report_bytes_across_thread_counts() {
    let dir = tmp_dir("det");
    let cfg = dir.join("core.cfg");
    std::fs::write(&cfg, CFG).unwrap();
    let topo = dir.join("net_gemm.csv");
    std::fs::write(&topo, TOPOLOGY).unwrap();

    let mut variants = Vec::new();
    for threads in ["1", "8"] {
        for traced in [false, true] {
            let tag = format!("t{threads}-{}", if traced { "trace" } else { "plain" });
            let out = dir.join(&tag);
            std::fs::create_dir_all(&out).unwrap();
            let mut cmd = bin();
            cmd.args(["-c"])
                .arg(&cfg)
                .args(["-t"])
                .arg(&topo)
                .args(["--gemm", "--energy", "-p"])
                .arg(&out)
                .env("SCALESIM_THREADS", threads);
            if traced {
                // The trace lands *outside* the report dir so the
                // byte-for-byte comparison below only sees reports.
                cmd.args(["--trace"]).arg(dir.join(format!("{tag}.json")));
            }
            let status = cmd.status().expect("spawn scalesim");
            assert!(status.success(), "run failed ({tag})");
            variants.push((tag, report_files(&out)));
        }
    }
    let (base_tag, base) = &variants[0];
    for (tag, files) in &variants[1..] {
        assert_eq!(
            base, files,
            "reports differ between {base_tag} and {tag}: tracing fed back into the simulation"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// The emitted trace parses with the workspace's strict JSON parser and
/// carries the documented Chrome trace-event schema: object form with
/// `displayTimeUnit`, complete ("X") events with pid/tid/ts/dur, thread
/// name metadata ("M") tracks, and categories from the closed set.
#[test]
fn emitted_trace_is_valid_chrome_json_with_named_tracks() {
    let dir = tmp_dir("schema");
    let cfg = dir.join("core.cfg");
    std::fs::write(&cfg, CFG).unwrap();
    let topo = dir.join("net_gemm.csv");
    std::fs::write(&topo, TOPOLOGY).unwrap();
    let trace = dir.join("trace.json");

    let status = bin()
        .args(["-c"])
        .arg(&cfg)
        .args(["-t"])
        .arg(&topo)
        .args(["--gemm", "-p"])
        .arg(&dir)
        .args(["--trace"])
        .arg(&trace)
        .env("SCALESIM_THREADS", "4")
        .status()
        .expect("spawn scalesim");
    assert!(status.success(), "traced run failed");

    let text = std::fs::read_to_string(&trace).expect("read trace file");
    let json = Json::parse(&text).expect("trace must parse with the strict workspace parser");

    assert_eq!(
        json.get("displayTimeUnit").and_then(Json::as_str),
        Some("ms"),
        "object-form header"
    );
    let events = json
        .get("traceEvents")
        .and_then(Json::as_array)
        .expect("traceEvents array");
    assert!(!events.is_empty(), "trace recorded no events");

    let mut complete = 0usize;
    let mut tracks = Vec::new();
    for event in events {
        let ph = event.get("ph").and_then(Json::as_str).expect("ph");
        event.get("pid").and_then(Json::as_u64).expect("pid");
        event.get("tid").and_then(Json::as_u64).expect("tid");
        match ph {
            "X" => {
                complete += 1;
                event.get("ts").and_then(Json::as_f64).expect("ts");
                event.get("dur").and_then(Json::as_f64).expect("dur");
                let cat = event.get("cat").and_then(Json::as_str).expect("cat");
                assert!(
                    SPAN_CATEGORIES.contains(&cat),
                    "unknown span category {cat:?}"
                );
                assert!(
                    !event
                        .get("name")
                        .and_then(Json::as_str)
                        .expect("name")
                        .is_empty(),
                    "span with empty name"
                );
            }
            "i" => {
                let cat = event.get("cat").and_then(Json::as_str).expect("cat");
                assert!(
                    SPAN_CATEGORIES.contains(&cat),
                    "unknown instant category {cat:?}"
                );
            }
            "M" => {
                assert_eq!(
                    event.get("name").and_then(Json::as_str),
                    Some("thread_name"),
                    "only thread_name metadata is emitted"
                );
                let label = event
                    .get("args")
                    .and_then(|a| a.get("name"))
                    .and_then(Json::as_str)
                    .expect("thread_name label");
                tracks.push(label.to_string());
            }
            other => panic!("unexpected event phase {other:?}"),
        }
    }
    assert!(complete > 0, "no complete (X) spans in the trace");
    assert!(
        tracks.iter().any(|t| t == "main"),
        "main thread track missing (tracks: {tracks:?})"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// `--profile-stages` is a view over the same span data; its
/// machine-readable `STAGE_PROFILE.json` must parse and cover the
/// pipeline stages with non-zero call counts.
#[test]
fn stage_profile_json_is_a_valid_span_view() {
    let dir = tmp_dir("stages");
    let cfg = dir.join("core.cfg");
    std::fs::write(&cfg, CFG).unwrap();
    let topo = dir.join("net_gemm.csv");
    std::fs::write(&topo, TOPOLOGY).unwrap();

    let status = bin()
        .args(["-c"])
        .arg(&cfg)
        .args(["-t"])
        .arg(&topo)
        .args(["--gemm", "--profile-stages", "-p"])
        .arg(&dir)
        .status()
        .expect("spawn scalesim");
    assert!(status.success(), "profiled run failed");

    let text = std::fs::read_to_string(dir.join("STAGE_PROFILE.json")).expect("STAGE_PROFILE.json");
    let json = Json::parse(&text).expect("stage profile must be valid JSON");
    let stages = json
        .get("stages")
        .and_then(Json::as_array)
        .expect("stages array");
    assert!(!stages.is_empty(), "no stages profiled");
    for stage in stages {
        let name = stage.get("stage").and_then(Json::as_str).expect("stage");
        let calls = stage.get("calls").and_then(Json::as_u64).expect("calls");
        stage.get("nanos").and_then(Json::as_u64).expect("nanos");
        assert!(calls > 0, "stage {name:?} recorded zero calls");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// The SRAM open-row walk belongs to the energy stage and runs once per
/// cached plan: a topology that repeats its shapes, traced without
/// `--energy`, has no `repeats` span; with it, one per `plan` span
/// (distinct shape), however many layers share the shape.
#[test]
fn open_rows_are_walked_only_for_energy_once_per_plan() {
    let dir = tmp_dir("repeats");
    let cfg = dir.join("core.cfg");
    std::fs::write(&cfg, CFG).unwrap();
    let topo = dir.join("net_gemm.csv");
    std::fs::write(
        &topo,
        format!("{TOPOLOGY}qkv1, 64, 64, 192,\nff1_1, 64, 64, 256,\n"),
    )
    .unwrap();
    let spans = |energy: bool| {
        let trace = dir.join(format!("trace-{energy}.json"));
        let mut cmd = bin();
        cmd.args(["-c"]).arg(&cfg).args(["-t"]).arg(&topo);
        cmd.args(["--gemm", "-p"])
            .arg(&dir)
            .args(["--trace"])
            .arg(&trace);
        if energy {
            cmd.arg("--energy");
        }
        let status = cmd.env("SCALESIM_THREADS", "4").status();
        assert!(
            status.expect("spawn scalesim").success(),
            "traced run failed"
        );
        let text = std::fs::read_to_string(&trace).expect("read trace file");
        let json = Json::parse(&text).expect("trace parses");
        let events = json
            .get("traceEvents")
            .and_then(Json::as_array)
            .expect("events");
        let named = |name: &str| {
            let is = |e: &&Json| e.get("name").and_then(Json::as_str) == Some(name);
            events.iter().filter(is).count()
        };
        (named("plan"), named("repeats"))
    };
    assert_eq!(spans(false), (4, 0), "(plans, walks) without --energy");
    assert_eq!(spans(true), (4, 4), "(plans, walks) with --energy");
    let _ = std::fs::remove_dir_all(&dir);
}
