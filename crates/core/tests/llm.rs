//! LLM workload subsystem determinism and golden suite.
//!
//! Pins the acceptance properties of `scalesim llm`:
//!
//! * **Thread determinism** — report bytes are identical for any
//!   `SCALESIM_THREADS` (checked through the real binary).
//! * **Serve/CLI equivalence** — the reports an `llm` request over the
//!   JSON-lines protocol returns are byte-identical to the files the
//!   one-shot CLI writes, and a scale-out run over a registry workload
//!   (`-w`) matches its serve-mode twin the same way.
//! * **Golden stability** — one prefill and one decode report of a
//!   fixed tiny transformer match checked-in goldens under
//!   `tests/golden/` (regenerate intentional changes with
//!   `SCALESIM_BLESS=1`).
//!
//! Everything here runs a deliberately tiny model so the suite stays
//! fast in debug builds; the full llama-7b preset is exercised by the
//! CI smoke job against the release binary.

use scalesim::api::{ConfigSource, LlmRequest, ScaleoutRequest, SimRequest, SimResponse};
use scalesim::serve::handle_line;
use scalesim::service::SimService;
use scalesim_api::{wire, TopologySource};
use std::path::PathBuf;
use std::process::Command;

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden")
}

/// Compares `content` against the golden file `name`, or rewrites the
/// golden when `SCALESIM_BLESS` is set.
fn check(name: &str, content: &str) {
    let path = golden_dir().join(name);
    if std::env::var_os("SCALESIM_BLESS").is_some() {
        std::fs::create_dir_all(golden_dir()).expect("create golden dir");
        std::fs::write(&path, content).unwrap_or_else(|e| panic!("bless {name}: {e}"));
        return;
    }
    let want = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!("missing golden {name} ({e}); regenerate with SCALESIM_BLESS=1")
    });
    assert!(
        content == want,
        "{name} drifted from the golden copy.\n\
         If the change is intentional, regenerate with SCALESIM_BLESS=1.\n\
         --- golden ---\n{want}\n--- got ---\n{content}"
    );
}

/// The fixed tiny transformer of the golden scenarios: GQA (4 heads
/// over 2 KV heads) and a gated FFN on a 16x16 WS core, so every GEMM
/// kind the generator emits is represented while debug-build runs stay
/// in milliseconds.
const GOLDEN_CFG: &str = "[architecture_presets]\n\
     ArrayHeight : 16\nArrayWidth : 16\n\
     IfmapSramSzkB : 64\nFilterSramSzkB : 64\nOfmapSramSzkB : 32\n\
     Dataflow : ws\n\
     [llm]\nPreset : llama-7b\nLayers : 2\nDModel : 128\nHeads : 4\n\
     KvHeads : 2\nDFf : 344\nVocab : 512\nSeq : 32\nBatch : 1\n";

fn golden_request(phase: &str) -> LlmRequest {
    LlmRequest {
        config: ConfigSource::Inline(GOLDEN_CFG.into()),
        phase: Some(phase.into()),
        ..Default::default()
    }
}

fn reports_of(req: LlmRequest) -> Vec<(String, String)> {
    let service = SimService::new();
    let SimResponse::Llm(body) = service
        .handle(&SimRequest::Llm(req))
        .expect("valid request")
    else {
        panic!("expected llm body")
    };
    body.reports
        .into_iter()
        .map(|r| (r.name, r.content))
        .collect()
}

#[test]
fn tiny_prefill_matches_golden() {
    let reports = reports_of(golden_request("prefill"));
    let (name, content) = &reports[0];
    assert_eq!(name, "COMPUTE_REPORT.csv");
    check("llm_tiny_prefill.COMPUTE_REPORT.csv", content);
}

#[test]
fn tiny_decode_matches_golden() {
    let reports = reports_of(golden_request("decode"));
    let (name, content) = &reports[0];
    assert_eq!(name, "COMPUTE_REPORT.csv");
    check("llm_tiny_decode.COMPUTE_REPORT.csv", content);
}

#[test]
fn decode_utilization_sits_below_prefill() {
    let service = SimService::new();
    let mut utils = Vec::new();
    for phase in ["prefill", "decode"] {
        let SimResponse::Llm(body) = service
            .handle(&SimRequest::Llm(golden_request(phase)))
            .expect("valid request")
        else {
            panic!("expected llm body")
        };
        utils.push(body.summary.utilization);
    }
    assert!(
        utils[1] < utils[0],
        "decode ({:.4}) must run below prefill ({:.4}) on the same core",
        utils[1],
        utils[0],
    );
}

/// Decode attends over the whole KV cache, so a longer context costs a
/// decode step more cycles on the same model.
#[test]
fn a_longer_context_costs_decode_more_cycles() {
    let service = SimService::new();
    let mut cycles = Vec::new();
    for context in [32, 256] {
        let req = LlmRequest {
            context: Some(context),
            ..golden_request("decode")
        };
        let SimResponse::Llm(body) = service
            .handle(&SimRequest::Llm(req))
            .expect("valid request")
        else {
            panic!("expected llm body")
        };
        assert_eq!(body.context, context as u64);
        cycles.push(body.summary.total_cycles);
    }
    assert!(
        cycles[1] > cycles[0],
        "ctx 256 ({}) must cost more than ctx 32 ({})",
        cycles[1],
        cycles[0]
    );
}

#[test]
fn report_bytes_are_identical_across_thread_counts_via_the_binary() {
    let dir = std::env::temp_dir().join(format!("scalesim-llm-det-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let cfg = dir.join("llm.cfg");
    std::fs::write(&cfg, GOLDEN_CFG).unwrap();
    let mut reports = Vec::new();
    for threads in ["1", "8"] {
        let out = dir.join(format!("t{threads}"));
        std::fs::create_dir_all(&out).unwrap();
        let status = Command::new(env!("CARGO_BIN_EXE_scalesim"))
            .args(["llm", "--phase", "decode", "-c"])
            .arg(&cfg)
            .arg("-p")
            .arg(&out)
            .env("SCALESIM_THREADS", threads)
            .status()
            .expect("spawn scalesim");
        assert!(status.success(), "llm run failed ({threads} threads)");
        reports.push((
            std::fs::read_to_string(out.join("COMPUTE_REPORT.csv")).unwrap(),
            std::fs::read_to_string(out.join("BANDWIDTH_REPORT.csv")).unwrap(),
        ));
    }
    assert_eq!(
        reports[0], reports[1],
        "llm report bytes must not depend on SCALESIM_THREADS"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn serve_mode_reports_match_the_one_shot_cli_files() {
    let dir = std::env::temp_dir().join(format!("scalesim-llm-serve-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let cfg = dir.join("llm.cfg");
    std::fs::write(&cfg, GOLDEN_CFG).unwrap();

    // One-shot CLI, through the real binary.
    let status = Command::new(env!("CARGO_BIN_EXE_scalesim"))
        .args(["llm", "--phase", "decode", "--context", "64", "-c"])
        .arg(&cfg)
        .arg("-p")
        .arg(&dir)
        .status()
        .expect("spawn scalesim");
    assert!(status.success());

    // Serve mode, through the wire protocol.
    let req = LlmRequest {
        config: ConfigSource::Path(cfg.display().to_string()),
        phase: Some("decode".into()),
        context: Some(64),
        ..Default::default()
    };
    let line = wire::encode_request(Some("llm-1"), &SimRequest::Llm(req));
    let service = SimService::new();
    let response = handle_line(&service, &line);
    let (id, decoded) = wire::decode_response(&response);
    assert_eq!(id.as_deref(), Some("llm-1"));
    let SimResponse::Llm(body) = decoded.expect("serve answers ok") else {
        panic!("expected llm body")
    };
    assert_eq!(body.phase, "decode");
    assert_eq!(body.context, 64);
    for report in &body.reports {
        let cli_bytes = std::fs::read_to_string(dir.join(&report.name)).unwrap();
        assert_eq!(
            report.content, cli_bytes,
            "{}: serve-mode bytes must match the CLI file",
            report.name
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A `[llm]` context, sequence length or batch whose sizes overflow
/// `u64` is a config error (exit 2) before anything is planned.
#[test]
fn an_llm_spec_that_overflows_u64_is_a_config_error() {
    let dir = std::env::temp_dir().join(format!("scalesim-llm-ovf-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create temp dir");
    for key in ["Context", "Seq", "Batch"] {
        let cfg = dir.join(format!("{key}.cfg"));
        let text = format!("[llm]\nPreset : llama-7b\n{key} : 18446744073709551615\n");
        std::fs::write(&cfg, text).unwrap();
        let out = Command::new(env!("CARGO_BIN_EXE_scalesim"))
            .args(["llm", "-c"])
            .arg(&cfg)
            .arg("-p")
            .arg(&dir)
            .output()
            .expect("spawn scalesim");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{key}: {stderr}");
        assert!(stderr.contains("overflows u64"), "{key}: {stderr}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A registry workload (`-w gpt2-xl:decode` here, any llm preset works
/// the same way) runs through `scalesim scaleout` under tensor
/// parallelism, and the serve-mode report is byte-identical to the CLI
/// file. Uses the smallest preset so the debug binary stays fast.
#[test]
fn llm_workload_scales_out_with_matching_cli_and_serve_bytes() {
    let dir = std::env::temp_dir().join(format!("scalesim-llm-so-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let cfg = dir.join("so.cfg");
    std::fs::write(
        &cfg,
        "[scaleout]\nChips : 8\nStrategy : tensor\nLinkGbps : 100\n",
    )
    .unwrap();

    let status = Command::new(env!("CARGO_BIN_EXE_scalesim"))
        .args(["scaleout", "-w", "gpt2-xl:decode", "-c"])
        .arg(&cfg)
        .arg("-p")
        .arg(&dir)
        .status()
        .expect("spawn scalesim");
    assert!(status.success(), "scaleout over an llm workload failed");
    let cli_bytes = std::fs::read_to_string(dir.join("SCALEOUT_REPORT.csv")).unwrap();
    assert!(
        cli_bytes.lines().any(|l| l.starts_with("blk0_score")),
        "attention GEMMs must appear in the scale-out report"
    );

    let mut req = ScaleoutRequest::for_topology(TopologySource::from_workload("gpt2-xl:decode"));
    req.config = ConfigSource::Path(cfg.display().to_string());
    let line = wire::encode_request(Some("so-llm-1"), &SimRequest::Scaleout(req));
    let service = SimService::new();
    let response = handle_line(&service, &line);
    let (id, decoded) = wire::decode_response(&response);
    assert_eq!(id.as_deref(), Some("so-llm-1"));
    let SimResponse::Scaleout(body) = decoded.expect("serve answers ok") else {
        panic!("expected scaleout body")
    };
    assert_eq!(body.chips, 8);
    assert_eq!(body.strategy, "tp");
    assert_eq!(
        body.reports[0].content, cli_bytes,
        "serve-mode scale-out bytes must match the CLI file"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
