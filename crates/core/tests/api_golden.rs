//! Acceptance suite for the typed API: report strings returned through
//! [`SimService`] must be **byte-identical** to the one-shot CLI path,
//! pinned against the same golden files as `golden_reports.rs`.
//!
//! Every scenario here reconstructs a golden configuration *through the
//! request surface* (inline `.cfg` text + inline topology CSV + feature
//! flags) and compares the response's embedded reports against the
//! checked-in golden bytes. A drift in either the engine or the facade
//! fails here.

use scalesim::api::{
    ConfigSource, Features, Report, RunSpec, SimRequest, SimResponse, SweepRequest, TopologySource,
};
use scalesim::SimService;
use std::path::PathBuf;

fn golden(name: &str) -> String {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name);
    std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden {name} ({e}); see golden_reports.rs"))
}

/// The golden suite's fixed core (16x16 WS, 64/64/32 kB) expressed as
/// the `.cfg` text a request would carry.
fn base_cfg(extra: &str) -> ConfigSource {
    ConfigSource::Inline(format!(
        "[architecture_presets]\nArrayHeight : 16\nArrayWidth : 16\n\
         IfmapSramSzkB : 64\nFilterSramSzkB : 64\nOfmapSramSzkB : 32\n\
         Dataflow : ws\n{extra}"
    ))
}

/// The golden suite's fixed workload in `name, M, K, N` rows.
fn golden_topology() -> TopologySource {
    TopologySource::inline(
        "golden",
        "square, 32, 32, 32,\nwide, 48, 32, 64,\ndeep, 40, 96, 24,\n",
    )
}

fn run_reports(config: ConfigSource, features: Features) -> Vec<Report> {
    let service = SimService::new();
    let request = SimRequest::Run(RunSpec {
        config,
        topology: golden_topology(),
        features,
    });
    let SimResponse::Run(body) = service.handle(&request).unwrap() else {
        panic!("run request answers with a run body")
    };
    body.reports
}

fn assert_report(reports: &[Report], name: &str, golden_file: &str) {
    let report = reports
        .iter()
        .find(|r| r.name == name)
        .unwrap_or_else(|| panic!("response lacks {name}"));
    assert!(
        report.content == golden(golden_file),
        "{name} drifted from golden {golden_file}"
    );
}

#[test]
fn dense_run_matches_golden_bytes() {
    let reports = run_reports(base_cfg(""), Features::default());
    assert_report(&reports, "COMPUTE_REPORT.csv", "dense.COMPUTE_REPORT.csv");
    assert_report(
        &reports,
        "BANDWIDTH_REPORT.csv",
        "dense.BANDWIDTH_REPORT.csv",
    );
}

#[test]
fn sparse_run_matches_golden_bytes() {
    let cfg = base_cfg("[sparsity]\nSparsitySupport : true\nSparseRatio : 1:4\n");
    let reports = run_reports(cfg, Features::default());
    assert_report(&reports, "COMPUTE_REPORT.csv", "sparse.COMPUTE_REPORT.csv");
    assert_report(&reports, "SPARSE_REPORT.csv", "sparse.SPARSE_REPORT.csv");
}

#[test]
fn dram_run_matches_golden_bytes() {
    let reports = run_reports(
        base_cfg(""),
        Features {
            dram: true,
            ..Default::default()
        },
    );
    assert_report(&reports, "COMPUTE_REPORT.csv", "dram.COMPUTE_REPORT.csv");
    assert_report(
        &reports,
        "BANDWIDTH_REPORT.csv",
        "dram.BANDWIDTH_REPORT.csv",
    );
    assert_report(&reports, "DRAM_REPORT.csv", "dram.DRAM_REPORT.csv");
}

#[test]
fn energy_run_matches_golden_bytes() {
    let reports = run_reports(
        base_cfg(""),
        Features {
            energy: true,
            ..Default::default()
        },
    );
    assert_report(&reports, "ENERGY_REPORT.csv", "energy.ENERGY_REPORT.csv");
}

#[test]
fn multicore_run_matches_golden_bytes() {
    let reports = run_reports(
        base_cfg(""),
        Features {
            energy: true,
            cores: Some("2x2".into()),
            ..Default::default()
        },
    );
    assert_report(
        &reports,
        "COMPUTE_REPORT.csv",
        "multicore.COMPUTE_REPORT.csv",
    );
    assert_report(&reports, "ENERGY_REPORT.csv", "multicore.ENERGY_REPORT.csv");
}

#[test]
fn full_pipeline_run_matches_golden_bytes() {
    let cfg = base_cfg("[sparsity]\nSparsitySupport : true\nSparseRatio : 2:4\n");
    let reports = run_reports(
        cfg,
        Features {
            dram: true,
            energy: true,
            layout: true,
            cores: None,
        },
    );
    for (name, file) in [
        ("COMPUTE_REPORT.csv", "full.COMPUTE_REPORT.csv"),
        ("BANDWIDTH_REPORT.csv", "full.BANDWIDTH_REPORT.csv"),
        ("SPARSE_REPORT.csv", "full.SPARSE_REPORT.csv"),
        ("DRAM_REPORT.csv", "full.DRAM_REPORT.csv"),
        ("ENERGY_REPORT.csv", "full.ENERGY_REPORT.csv"),
    ] {
        assert_report(&reports, name, file);
    }
}

#[test]
fn sweep_request_matches_golden_bytes() {
    let service = SimService::new();
    let request = SimRequest::Sweep(SweepRequest {
        spec: ConfigSource::Inline(
            "[sweep]\nname = golden\n[grid]\n\
             array = 8x8, 16x16\nbandwidth = 4, 10\nenergy = true\n"
                .into(),
        ),
        base_config: base_cfg(""),
        topologies: vec![
            golden_topology(),
            TopologySource::inline("tiny", "only, 16, 16, 16,\n"),
        ],
        shards: 1,
    });
    let SimResponse::Sweep(body) = service.handle(&request).unwrap() else {
        panic!("sweep request answers with a sweep body")
    };
    assert_eq!(body.grid_points, 4);
    assert_eq!(body.runs, 8);
    assert_report(&body.reports, "SWEEP_REPORT.csv", "sweep.SWEEP_REPORT.csv");
    assert_report(
        &body.reports,
        "SWEEP_REPORT.json",
        "sweep.SWEEP_REPORT.json",
    );
}

/// With energy estimation off the summary's total is `+0.0`: the wire
/// line must read `0.000000`, never `-0.000000`.
#[test]
fn energy_off_summary_line_is_pinned() {
    let request = SimRequest::Run(RunSpec {
        config: base_cfg(""),
        topology: golden_topology(),
        features: Features::default(),
    });
    let line = scalesim::api::wire::encode_response(None, &SimService::new().handle(&request));
    let summary = &line[..line.find(",\"reports\"").expect("run body carries reports")];
    assert_eq!(
        summary,
        r#"{"api":1,"ok":{"run":{"summary":{"layers":3,"total_cycles":3247,"compute_cycles":2048,"stall_cycles":0,"macs":223232,"utilization":0.4258,"energy_mj":0.000000,"noc_words":0}"#
    );
}

/// The same request handled twice by one service — exercising the
/// shared plan cache — must return identical bytes: caching can never
/// leak into results.
#[test]
fn warm_cache_responses_are_byte_identical() {
    let service = SimService::new();
    let request = SimRequest::Run(RunSpec {
        config: base_cfg(""),
        topology: golden_topology(),
        features: Features {
            energy: true,
            ..Default::default()
        },
    });
    let cold = service.handle(&request).unwrap();
    let misses = service.plan_cache().stats().misses;
    let warm = service.handle(&request).unwrap();
    assert_eq!(
        service.plan_cache().stats().misses,
        misses,
        "second request must hit the warm cache"
    );
    let (SimResponse::Run(cold), SimResponse::Run(warm)) = (cold, warm) else {
        panic!("run bodies")
    };
    assert_eq!(cold, warm);
}
