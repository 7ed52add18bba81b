//! End-to-end tests of the `scalesim` binary: argument rejection and
//! sweep-report determinism across thread counts and shard counts.

use std::path::{Path, PathBuf};
use std::process::Command;

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_scalesim"))
}

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("scalesim-cli-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

#[test]
fn unknown_flag_prints_usage_and_exits_nonzero() {
    let out = bin()
        .args(["--frobnicate"])
        .output()
        .expect("spawn scalesim");
    assert!(!out.status.success(), "unknown flag must fail");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("unknown argument '--frobnicate'"),
        "stderr was: {stderr}"
    );
    assert!(stderr.contains("usage: scalesim"), "stderr was: {stderr}");
}

#[test]
fn unknown_subcommand_prints_usage_and_exits_nonzero() {
    let out = bin().args(["swoop"]).output().expect("spawn scalesim");
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown argument 'swoop'"), "{stderr}");
    assert!(stderr.contains("usage:"), "{stderr}");
}

#[test]
fn unknown_sweep_flag_prints_sweep_usage() {
    let out = bin()
        .args(["sweep", "-s", "nope.toml", "--wat"])
        .output()
        .expect("spawn scalesim");
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown argument '--wat'"), "{stderr}");
    assert!(stderr.contains("usage: scalesim sweep"), "{stderr}");
}

fn write_sweep_inputs(dir: &Path) -> (PathBuf, PathBuf) {
    let topo_a = dir.join("a_gemm.csv");
    std::fs::write(
        &topo_a,
        "Layer, M, K, N,\nl0, 16, 16, 16,\nl1, 24, 24, 24,\n",
    )
    .unwrap();
    let topo_b = dir.join("b_gemm.csv");
    std::fs::write(&topo_b, "Layer, M, K, N,\nl0, 32, 16, 8,\n").unwrap();
    let spec = dir.join("grid.toml");
    std::fs::write(
        &spec,
        format!(
            "[sweep]\nname = cli-test\n[grid]\narray = 8x8, 16x16\nbandwidth = 4, 10\n\
             energy = true\n[workloads]\ntopology = {}, {}\n",
            topo_a.display(),
            topo_b.display()
        ),
    )
    .unwrap();
    (spec, dir.to_path_buf())
}

/// The acceptance property: SWEEP_REPORT bytes must not depend on
/// `SCALESIM_THREADS` or `--shards`.
#[test]
fn sweep_reports_are_byte_identical_across_threads_and_shards() {
    let dir = tmp_dir("det");
    let (spec, _) = write_sweep_inputs(&dir);
    let mut outputs = Vec::new();
    for (tag, threads, shards) in [("t1s1", "1", "1"), ("t8s1", "8", "1"), ("t8s3", "8", "3")] {
        let out_dir = dir.join(tag);
        let out = bin()
            .args(["sweep", "-s"])
            .arg(&spec)
            .args(["--shards", shards, "-p"])
            .arg(&out_dir)
            .env("SCALESIM_THREADS", threads)
            .output()
            .expect("spawn scalesim sweep");
        assert!(
            out.status.success(),
            "sweep failed ({tag}): {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let csv = std::fs::read(out_dir.join("SWEEP_REPORT.csv")).unwrap();
        let json = std::fs::read(out_dir.join("SWEEP_REPORT.json")).unwrap();
        outputs.push((tag, csv, json));
    }
    let (_, csv0, json0) = &outputs[0];
    for (tag, csv, json) in &outputs[1..] {
        assert_eq!(csv, csv0, "CSV differs for {tag}");
        assert_eq!(json, json0, "JSON differs for {tag}");
    }
    // Sanity: 4 grid points x 2 topologies = 8 runs + header.
    let text = String::from_utf8(csv0.clone()).unwrap();
    assert_eq!(text.lines().count(), 9, "expected 8 runs:\n{text}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn version_flag_prints_the_version_and_exits_zero() {
    for flag in ["--version", "-V"] {
        let out = bin().args([flag]).output().expect("spawn scalesim");
        assert!(out.status.success(), "{flag}");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(stdout.starts_with("scalesim "), "{flag}: {stdout}");
        assert!(stdout.contains("git "), "{flag}: {stdout}");
    }
}

#[test]
fn unknown_cfg_key_fails_with_named_error_and_config_exit_code() {
    let dir = tmp_dir("badcfg");
    let cfg = dir.join("bad.cfg");
    std::fs::write(&cfg, "[architecture_presets]\nArrayHieght : 32\n").unwrap();
    let topo = dir.join("t_gemm.csv");
    std::fs::write(&topo, "Layer, M, K, N,\nl0, 16, 16, 16,\n").unwrap();
    let out = bin()
        .args(["-c"])
        .arg(&cfg)
        .args(["-t"])
        .arg(&topo)
        .args(["--gemm"])
        .output()
        .expect("spawn scalesim");
    assert_eq!(
        out.status.code(),
        Some(2),
        "configuration errors exit with code 2"
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown key 'arrayhieght'"), "{stderr}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// The `SimError` taxonomy pins process exit codes: config=2,
/// topology=3, io=4 (internal=70 is unit-tested in `scalesim-api` —
/// it only fires on caught panics). CLI usage errors stay 1.
#[test]
fn error_categories_map_to_distinct_exit_codes() {
    let dir = tmp_dir("exitcodes");

    // Duplicate layer name -> topology error -> exit 3, naming the
    // duplicate and its line numbers.
    let dup = dir.join("dup_gemm.csv");
    std::fs::write(&dup, "Layer, M, K, N,\nqkv, 16, 16, 16,\nqkv, 8, 8, 8,\n").unwrap();
    let out = bin()
        .args(["-t"])
        .arg(&dup)
        .args(["--gemm"])
        .output()
        .expect("spawn scalesim");
    assert_eq!(out.status.code(), Some(3), "topology errors exit with 3");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("duplicate layer name 'qkv'"),
        "must name the duplicate: {stderr}"
    );
    assert!(
        stderr.contains("line 3") && stderr.contains("first defined at line 2"),
        "must name both lines: {stderr}"
    );

    // Missing input file -> io error -> exit 4.
    let out = bin()
        .args(["-t", "/nonexistent/topo.csv"])
        .output()
        .expect("spawn scalesim");
    assert_eq!(out.status.code(), Some(4), "io errors exit with 4");

    // Usage errors keep the generic failure code 1.
    let out = bin().args(["--frobnicate"]).output().expect("spawn");
    assert_eq!(out.status.code(), Some(1), "usage errors exit with 1");

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn sweep_without_topologies_fails_with_message() {
    let dir = tmp_dir("notopo");
    let spec = dir.join("grid.toml");
    std::fs::write(&spec, "[grid]\narray = 8x8\n").unwrap();
    let out = bin()
        .args(["sweep", "-s"])
        .arg(&spec)
        .output()
        .expect("spawn scalesim sweep");
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("no topologies"), "{stderr}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A deliberately tiny transformer so the llm command stays fast in
/// debug builds.
const TINY_LLM_CFG: &str = "[llm]\nPreset : gpt2-xl\nLayers : 2\nDModel : 64\nHeads : 4\n\
     KvHeads : 4\nDFf : 128\nVocab : 256\nSeq : 16\nBatch : 1\n";

/// The four simulation commands over the `write_sweep_inputs` files:
/// `(tag, argv without -p)`. `<DIR>` stands for the input directory.
fn simulation_commands() -> Vec<(&'static str, Vec<&'static str>)> {
    vec![
        (
            "run",
            vec!["-t", "<DIR>/a_gemm.csv", "--gemm", "--energy", "--area"],
        ),
        (
            "llm",
            vec![
                "llm",
                "-c",
                "<DIR>/tiny_llm.cfg",
                "--phase",
                "decode",
                "--context",
                "64",
                "--energy",
            ],
        ),
        ("sweep", vec!["sweep", "-s", "<DIR>/grid.toml"]),
        (
            "scaleout",
            vec![
                "scaleout",
                "-t",
                "<DIR>/a_gemm.csv",
                "--chips",
                "4",
                "--strategy",
                "tensor",
            ],
        ),
    ]
}

/// Runs one simulation command with `-v -p <dir>/<tag>` on one scheduler
/// thread (so the sweep's run order and cache counters are
/// deterministic), returning its stderr and output directory.
fn run_simulation(dir: &Path, tag: &str, argv: &[&str]) -> (String, PathBuf) {
    let out_dir = dir.join(tag);
    let out = bin()
        .args(
            argv.iter()
                .map(|a| a.replace("<DIR>", &dir.display().to_string())),
        )
        .args(["-v", "-p"])
        .arg(&out_dir)
        .env("SCALESIM_THREADS", "1")
        .output()
        .expect("spawn scalesim");
    let stderr = String::from_utf8_lossy(&out.stderr).to_string();
    assert!(out.status.success(), "{tag} failed: {stderr}");
    (stderr, out_dir)
}

/// Golden of the human-facing stderr of the four simulation commands
/// under `-v`: header, per-layer / per-run progress, `total:` line and
/// `wrote` lines, with the temp directory masked as `<DIR>` and the
/// sweep's elapsed seconds as `<T>`.
#[test]
fn verbose_stderr_is_pinned_for_every_simulation_command() {
    let dir = tmp_dir("stderr");
    write_sweep_inputs(&dir);
    std::fs::write(dir.join("tiny_llm.cfg"), TINY_LLM_CFG).unwrap();
    let mut transcript = String::new();
    for (tag, argv) in simulation_commands() {
        let (stderr, _) = run_simulation(&dir, tag, &argv);
        transcript.push_str(&format!("== {tag}\n"));
        for line in stderr.lines() {
            let mut line = line.replace(&dir.display().to_string(), "<DIR>");
            if let Some(rest) = line.strip_prefix("sweep done in ") {
                let tail = rest.split_once("s: ").expect("elapsed seconds").1;
                line = format!("sweep done in <T>s: {tail}");
            }
            transcript.push_str(&line);
            transcript.push('\n');
        }
    }
    assert_eq!(transcript, VERBOSE_STDERR_GOLDEN, "stderr drifted");
    let _ = std::fs::remove_dir_all(&dir);
}

const VERBOSE_STDERR_GOLDEN: &str = "\
== run
scalesim: 2 layers of 'a_gemm' on a 32x32 output-stationary core
  l0                        114 cycles (  6% util, 0 stalls)
  l1                        210 cycles ( 14% util, 0 stalls)
area: 69.8 mm2 total (34.4 PE array, 28.5 SRAM, 1.0 NoC, 6.0 DRAM ctrl)
total: 324 cycles (156 compute + 0 stalls), 0.001 mJ
wrote <DIR>/run/COMPUTE_REPORT.csv
wrote <DIR>/run/BANDWIDTH_REPORT.csv
wrote <DIR>/run/ENERGY_REPORT.csv
wrote <DIR>/run/AREA_REPORT.csv
== llm
scalesim llm: gpt2-xl decode (13 GEMMs, 0.00B params, 0.0 MiB KV cache @ ctx 64) on a 32x32 output-stationary core
  blk0_qkv                 1825 cycles (  2% util, 0 stalls)
  blk0_score                237 cycles (  4% util, 0 stalls)
  blk0_attnv                196 cycles (  5% util, 0 stalls)
  blk0_out                  609 cycles (  2% util, 0 stalls)
  blk0_up                  1217 cycles (  2% util, 0 stalls)
  blk0_down                1147 cycles (  2% util, 0 stalls)
  blk1_qkv                 1825 cycles (  2% util, 0 stalls)
  blk1_score                237 cycles (  4% util, 0 stalls)
  blk1_attnv                196 cycles (  5% util, 0 stalls)
  blk1_out                  609 cycles (  2% util, 0 stalls)
  blk1_up                  1217 cycles (  2% util, 0 stalls)
  blk1_down                1147 cycles (  2% util, 0 stalls)
  lm_head                  2433 cycles (  2% util, 0 stalls)
total: 12895 cycles (4100 compute + 0 stalls), utilization 2.3%, 0.035 mJ
wrote <DIR>/llm/COMPUTE_REPORT.csv
wrote <DIR>/llm/BANDWIDTH_REPORT.csv
wrote <DIR>/llm/ENERGY_REPORT.csv
== sweep
scalesim sweep 'cli-test': 4 grid points x 2 topologies = 8 runs (1 shards)
  point   0: 8x8-bw4-e1
  point   1: 8x8-bw10-e1
  point   2: 16x16-bw4-e1
  point   3: 16x16-bw10-e1
  run   0 8x8-bw4-e1                   a_gemm                982 cycles     0.0007 mJ
  run   1 8x8-bw4-e1                   b_gemm                344 cycles     0.0002 mJ
  run   2 8x8-bw10-e1                  a_gemm                734 cycles     0.0006 mJ
  run   3 8x8-bw10-e1                  b_gemm                230 cycles     0.0002 mJ
  run   4 16x16-bw4-e1                 a_gemm                710 cycles     0.0008 mJ
  run   5 16x16-bw4-e1                 b_gemm                300 cycles     0.0003 mJ
  run   6 16x16-bw10-e1                a_gemm                462 cycles     0.0007 mJ
  run   7 16x16-bw10-e1                b_gemm                186 cycles     0.0003 mJ
wrote <DIR>/sweep/SWEEP_REPORT.csv
wrote <DIR>/sweep/SWEEP_REPORT.json
sweep done in <T>s: plan cache 6 hits / 6 misses (6 plans held, 0 evicted) — pareto frontier: 8x8-bw10-e1, 16x16-bw10-e1
== scaleout
scalesim scaleout: 2 layers of 'a_gemm' on 4 chips (tensor parallel, ring fabric)
  l0, 0, 16, 4, 16, 83, allgather, 1506, 149, 1357, 1440, 0.0200
  l1, 0, 24, 24, 6, 149, reducescatter, 1509, 0, 1509, 1658, 0.0444
total: 3098 cycles on ring x4 (100 GB/s, 500 cyc/hop) (232 compute + 2866 exposed comm); 149 of 3015 comm cycles hidden, utilization 3.5%
wrote <DIR>/scaleout/SCALEOUT_REPORT.csv
";

/// One path from argv to bytes: for each simulation command, the files
/// the binary writes under `-p` are — name for name, byte for byte —
/// the `reports` of the `SimResponse` the service gives the same
/// request (`--area` adds the area request's report to a run).
#[test]
fn files_under_p_are_the_reports_of_the_same_request() {
    use scalesim::api::{
        AreaSpec, ConfigSource, Features, LlmRequest, Report, RunSpec, ScaleoutRequest, SimRequest,
        SimResponse, SweepRequest, TopologyFormat, TopologySource,
    };
    let dir = tmp_dir("reports");
    write_sweep_inputs(&dir);
    std::fs::write(dir.join("tiny_llm.cfg"), TINY_LLM_CFG).unwrap();
    let path = |name: &str| dir.join(name).display().to_string();
    let energy = Features {
        energy: true,
        ..Features::default()
    };
    let a_gemm = |format| TopologySource::from_path(path("a_gemm.csv")).with_format(format);
    let mut scaleout = ScaleoutRequest::for_topology(a_gemm(TopologyFormat::Auto));
    scaleout.chips = Some(4);
    scaleout.strategy = Some("tensor".into());
    let requests = [
        vec![
            SimRequest::Run(RunSpec {
                config: ConfigSource::Default,
                topology: a_gemm(TopologyFormat::Gemm),
                features: energy.clone(),
            }),
            SimRequest::AreaReport(AreaSpec {
                config: ConfigSource::Default,
                features: energy.clone(),
            }),
        ],
        vec![SimRequest::Llm(LlmRequest {
            config: ConfigSource::Path(path("tiny_llm.cfg")),
            phase: Some("decode".into()),
            context: Some(64),
            features: energy,
            ..LlmRequest::default()
        })],
        vec![SimRequest::Sweep(SweepRequest {
            spec: ConfigSource::Path(path("grid.toml")),
            base_config: ConfigSource::Default,
            topologies: Vec::new(),
            shards: 1,
        })],
        vec![SimRequest::Scaleout(scaleout)],
    ];
    let service = scalesim::service::SimService::new();
    for ((tag, argv), requests) in simulation_commands().into_iter().zip(requests) {
        let (_, out_dir) = run_simulation(&dir, tag, &argv);
        let mut expected: Vec<Report> = Vec::new();
        for request in &requests {
            expected.extend(match service.handle(request).expect(tag) {
                SimResponse::Run(body) => body.reports,
                SimResponse::Area(body) => body.reports,
                SimResponse::Llm(body) => body.reports,
                SimResponse::Sweep(body) => body.reports,
                SimResponse::Scaleout(body) => body.reports,
                other => panic!("{tag}: unexpected response {other:?}"),
            });
        }
        let mut written: Vec<String> = std::fs::read_dir(&out_dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().to_string())
            .collect();
        written.sort();
        let mut names: Vec<&str> = expected.iter().map(|r| r.name.as_str()).collect();
        names.sort_unstable();
        assert_eq!(written, names, "{tag}: files under -p");
        for report in &expected {
            let file = std::fs::read_to_string(out_dir.join(&report.name)).unwrap();
            assert_eq!(file, report.content, "{tag}: {}", report.name);
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}
