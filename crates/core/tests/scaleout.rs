//! Scale-out determinism and golden suite.
//!
//! Pins the three acceptance properties of `scalesim scaleout`:
//!
//! * **Thread determinism** — `SCALEOUT_REPORT.csv` is byte-identical
//!   for any `SCALESIM_THREADS` (checked through the real binary).
//! * **Serve/CLI equivalence** — the report a `scaleout` request over
//!   the JSON-lines protocol returns is byte-identical to the file the
//!   one-shot CLI writes for the same inputs.
//! * **Golden stability** — ring data-parallel and mesh tensor-parallel
//!   reports match checked-in golden copies under `tests/golden/`
//!   (regenerate intentional changes with `SCALESIM_BLESS=1`).

use scalesim::api::{ScaleoutRequest, SimRequest, SimResponse, TopologySource};
use scalesim::serve::handle_line;
use scalesim::service::SimService;
use scalesim_api::wire;
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

/// The fixed per-chip architecture of the golden scenarios.
const GOLDEN_CFG: &str = "[architecture_presets]\n\
     ArrayHeight : 16\nArrayWidth : 16\n\
     IfmapSramSzkB : 64\nFilterSramSzkB : 64\nOfmapSramSzkB : 32\n\
     Dataflow : ws\n";

/// The fixed workload: four GEMM layers with enough M/N/K variety to
/// exercise sharding in every dimension.
const GOLDEN_TOPOLOGY: &str = "Layer, M, K, N,\n\
     embed, 256, 64, 96,\n\
     attn, 256, 96, 96,\n\
     mlp_up, 256, 96, 192,\n\
     mlp_down, 256, 192, 96,\n";

fn golden_request(scaleout_section: &str) -> ScaleoutRequest {
    let mut req = ScaleoutRequest::for_topology(TopologySource::inline("golden", GOLDEN_TOPOLOGY));
    req.config = scalesim::api::ConfigSource::Inline(format!("{GOLDEN_CFG}{scaleout_section}"));
    req
}

fn report_of(req: ScaleoutRequest) -> String {
    let response = SimService::new().handle(&SimRequest::Scaleout(req));
    let SimResponse::Scaleout(mut body) = response.expect("run succeeds") else {
        panic!("a scaleout request answers with a scaleout body")
    };
    body.reports.remove(0).content
}

#[test]
fn ring_data_parallel_matches_golden() {
    let report = report_of(golden_request(
        "[scaleout]\nChips : 8\nFabric : ring\nLinkGbps : 100\nLinkLatency : 500\nStrategy : data\n",
    ));
    check("scaleout_ring_dp.SCALEOUT_REPORT.csv", &report);
}

#[test]
fn mesh_tensor_parallel_matches_golden() {
    let report = report_of(golden_request(
        "[scaleout]\nChips : 8\nFabric : mesh\nMesh : 2x4\nLinkGbps : 25\nLinkLatency : 250\nStrategy : tensor\n",
    ));
    check("scaleout_mesh_tp.SCALEOUT_REPORT.csv", &report);
}

#[test]
fn pipeline_parallel_schedules_stages() {
    let service = SimService::new();
    let mut req = golden_request("[scaleout]\nChips : 4\nStrategy : pipeline\nMicrobatches : 4\n");
    req.chips = None;
    let SimResponse::Scaleout(body) = service.handle(&SimRequest::Scaleout(req)).unwrap() else {
        panic!("expected scaleout body")
    };
    assert_eq!(body.strategy, "pp");
    assert!(body.bubble_cycles > 0, "a pipeline has a fill/drain bubble");
    // The pipeline wall clock beats running all stages serially.
    assert!(body.total_cycles < body.compute_cycles + body.exposed_cycles);
}

/// Weak scaling 1 -> 16 chips (M grows with the fleet, as the retired
/// `scaleout_microbench` did): every chip's shard is the same GEMM, so
/// per-chip compute is constant while the all-reduce share grows — and
/// because symmetric shards plan once per fleet, repeating a request on
/// the same service plans nothing.
#[test]
fn weak_scaling_keeps_per_chip_compute_and_a_warm_repeat_plans_nothing() {
    let mut previous: Option<(u64, f64)> = None;
    for chips in [1usize, 4, 16] {
        let m = 128 * chips;
        let csv = format!(
            "Layer, M, K, N,\nembed, {m}, 64, 96,\nattn, {m}, 96, 96,\n\
             mlp_up, {m}, 96, 192,\nmlp_down, {m}, 192, 96,\n"
        );
        let mut req = ScaleoutRequest::for_topology(TopologySource::inline("weakscale", csv));
        req.config = scalesim::api::ConfigSource::Inline(GOLDEN_CFG.into());
        req.chips = Some(chips);
        req.strategy = Some("data".into());
        let req = SimRequest::Scaleout(req);

        let service = SimService::new();
        let SimResponse::Scaleout(cold) = service.handle(&req).unwrap() else {
            panic!("expected scaleout body")
        };
        let after_cold = service.plan_cache().stats();
        assert!(after_cold.misses > 0, "a cold run must plan");
        let SimResponse::Scaleout(warm) = service.handle(&req).unwrap() else {
            panic!("expected scaleout body")
        };
        assert_eq!(
            service.plan_cache().stats().misses,
            after_cold.misses,
            "{chips} chips: a warm repeat must plan nothing"
        );
        assert_eq!(cold, warm, "results identical");

        let comm_fraction =
            (cold.exposed_cycles + cold.bubble_cycles) as f64 / cold.total_cycles as f64;
        if let Some((compute, fraction)) = previous {
            assert_eq!(
                cold.compute_cycles, compute,
                "per-chip shards are identical"
            );
            assert!(
                comm_fraction >= fraction,
                "{chips} chips: comm fraction must not shrink as the fleet grows"
            );
        }
        previous = Some((cold.compute_cycles, comm_fraction));
    }
}

/// The report schema is part of the public interface: pin the column
/// set and that every golden row is well-formed CSV.
#[test]
fn scaleout_report_schema_is_stable() {
    let expected = "LayerName|Stage|ShardM|ShardN|ShardK|ComputeCycles|CommKind|CommCycles|\
         OverlappedCycles|ExposedCycles|TotalCycles|Utilization";
    for file in [
        "scaleout_ring_dp.SCALEOUT_REPORT.csv",
        "scaleout_mesh_tp.SCALEOUT_REPORT.csv",
        "example_scaleout.SCALEOUT_REPORT.csv",
    ] {
        let text = std::fs::read_to_string(golden_dir().join(file))
            .unwrap_or_else(|e| panic!("missing golden {file} ({e}); bless with SCALESIM_BLESS=1"));
        let mut lines = text.lines();
        let header: Vec<&str> = lines
            .next()
            .unwrap_or_else(|| panic!("{file} is empty"))
            .split(',')
            .map(str::trim)
            .collect();
        assert_eq!(
            header,
            expected.split('|').collect::<Vec<_>>(),
            "{file}: column schema drifted"
        );
        for (i, row) in lines.enumerate() {
            assert_eq!(
                row.split(',').count(),
                header.len(),
                "{file} row {i} column count"
            );
        }
        assert!(text.lines().count() > 1, "{file} has no data rows");
    }
}

/// Blesses/refreshes the shipped example golden the CI scaleout-smoke
/// job diffs against (the example cfg + the shipped ResNet-18 CSV, run
/// in-process through the same facade the binary uses).
#[test]
fn example_scaleout_matches_golden() {
    let repo_root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..");
    let mut req = ScaleoutRequest::for_topology(TopologySource::from_path(
        repo_root
            .join("topologies/resnet18.csv")
            .display()
            .to_string(),
    ));
    req.config = scalesim::api::ConfigSource::Path(
        repo_root
            .join("configs/example_scaleout.cfg")
            .display()
            .to_string(),
    );
    let report = report_of(req);
    check("example_scaleout.SCALEOUT_REPORT.csv", &report);
    // The repo-root copy the CI job diffs against is the same bytes.
    let ci_golden = repo_root.join("tests/golden/example_scaleout.SCALEOUT_REPORT.csv");
    if std::env::var_os("SCALESIM_BLESS").is_some() {
        std::fs::write(&ci_golden, &report).expect("bless repo-root golden");
    } else {
        assert_eq!(
            std::fs::read_to_string(&ci_golden).expect("repo-root golden exists"),
            report,
            "tests/golden/example_scaleout.SCALEOUT_REPORT.csv (repo root) drifted; \
             bless with SCALESIM_BLESS=1"
        );
    }
}

#[test]
fn report_bytes_are_identical_across_thread_counts_via_the_binary() {
    let dir = std::env::temp_dir().join(format!("scalesim-so-det-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let topo = dir.join("golden.csv");
    std::fs::write(&topo, GOLDEN_TOPOLOGY).unwrap();
    let cfg = dir.join("so.cfg");
    std::fs::write(
        &cfg,
        format!("{GOLDEN_CFG}[scaleout]\nChips : 8\nStrategy : data\n"),
    )
    .unwrap();
    let mut reports = Vec::new();
    for threads in ["1", "4", "16"] {
        let out = dir.join(format!("t{threads}"));
        std::fs::create_dir_all(&out).unwrap();
        let status = Command::new(env!("CARGO_BIN_EXE_scalesim"))
            .args(["scaleout", "-c"])
            .arg(&cfg)
            .arg("-t")
            .arg(&topo)
            .arg("-p")
            .arg(&out)
            .env("SCALESIM_THREADS", threads)
            .status()
            .expect("spawn scalesim");
        assert!(status.success(), "scaleout run failed ({threads} threads)");
        reports.push(std::fs::read_to_string(out.join("SCALEOUT_REPORT.csv")).unwrap());
    }
    for other in &reports[1..] {
        assert_eq!(
            &reports[0], other,
            "SCALEOUT_REPORT.csv must not depend on SCALESIM_THREADS"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn serve_mode_report_matches_the_one_shot_cli_file() {
    let dir = std::env::temp_dir().join(format!("scalesim-so-serve-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let topo = dir.join("golden.csv");
    std::fs::write(&topo, GOLDEN_TOPOLOGY).unwrap();
    let cfg = dir.join("so.cfg");
    std::fs::write(
        &cfg,
        format!("{GOLDEN_CFG}[scaleout]\nChips : 8\nStrategy : tensor\n"),
    )
    .unwrap();

    // One-shot CLI, through the real binary.
    let status = Command::new(env!("CARGO_BIN_EXE_scalesim"))
        .args(["scaleout", "-c"])
        .arg(&cfg)
        .arg("-t")
        .arg(&topo)
        .arg("-p")
        .arg(&dir)
        .status()
        .expect("spawn scalesim");
    assert!(status.success());
    let cli_bytes = std::fs::read_to_string(dir.join("SCALEOUT_REPORT.csv")).unwrap();

    // Serve mode, through the wire protocol.
    let mut req =
        ScaleoutRequest::for_topology(TopologySource::from_path(topo.display().to_string()));
    req.config = scalesim::api::ConfigSource::Path(cfg.display().to_string());
    let line = wire::encode_request(Some("so-1"), &SimRequest::Scaleout(req));
    let service = SimService::new();
    let response = handle_line(&service, &line);
    let (id, decoded) = wire::decode_response(&response);
    assert_eq!(id.as_deref(), Some("so-1"));
    let SimResponse::Scaleout(body) = decoded.expect("serve answers ok") else {
        panic!("expected scaleout body")
    };
    assert_eq!(body.reports[0].name, "SCALEOUT_REPORT.csv");
    assert_eq!(
        body.reports[0].content, cli_bytes,
        "serve-mode report bytes must match the CLI file"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
