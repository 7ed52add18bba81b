//! Runs the harness in `--quick` mode against the real binary, once per
//! workload and mode, and holds its output to `BENCHMARK.json`: every
//! listed metric appears exactly once with a finite value, nothing
//! unlisted appears, and no operation fails. Catches a metric that
//! silently vanished, and a benchmark definition that drifted from the
//! program. Takes about a minute on two cores.

use scalesim::api::json::Json;
use std::path::Path;
use std::process::Command;

fn names(benchmark: &Json, list: &str) -> Vec<String> {
    let entries = benchmark.get(list).and_then(Json::as_array).unwrap();
    let name = |e: &Json| e.get("name").and_then(Json::as_str).unwrap().to_string();
    entries.iter().map(name).collect()
}

#[test]
fn quick_run_reports_every_benchmark_metric_exactly_once() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).parent().unwrap();
    let text = std::fs::read_to_string(root.join("BENCHMARK.json")).unwrap();
    let benchmark = Json::parse(&text).unwrap();
    for workload in names(&benchmark, "workloads") {
        for (trace, list) in [("0", "end_to_end"), ("1", "per_layer")] {
            let output = Command::new(env!("CARGO_BIN_EXE_scalesim-bench"))
                .args(["--quick", "--seconds", "1", "--seed", "3"])
                .args(["--workload", &workload, "--trace", trace])
                .current_dir(root)
                .output()
                .unwrap();
            let stdout = String::from_utf8(output.stdout).unwrap();
            assert!(
                output.status.success(),
                "{workload} --trace {trace}:\n{stdout}"
            );
            let result = Json::parse(stdout.lines().last().unwrap()).unwrap();
            let context = format!("{workload} --trace {trace}: {result}");

            let keys: Vec<&str> = result
                .as_object()
                .unwrap()
                .iter()
                .map(|(k, _)| k.as_str())
                .collect();
            assert_eq!(
                keys,
                ["correct", "attempted", "failed", "metrics"],
                "{context}"
            );
            assert_eq!(result.get("correct"), Some(&Json::Bool(true)), "{context}");
            assert_eq!(result.get("failed").unwrap().as_u64(), Some(0), "{context}");
            assert!(
                result.get("attempted").unwrap().as_u64() >= Some(1),
                "{context}"
            );

            let metrics = result.get("metrics").unwrap().as_object().unwrap();
            let mut reported: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
            let mut listed = names(&benchmark, list);
            reported.sort_unstable();
            listed.sort_unstable();
            assert_eq!(reported, listed, "{context}");
            for (name, metric) in metrics {
                let value = metric.get("value").and_then(Json::as_f64);
                assert!(value.is_some_and(f64::is_finite), "{name} in {context}");
                if list == "end_to_end" {
                    assert!(value != Some(0.0), "{name} is 0 in {context}");
                }
                let unit = benchmark
                    .get(list)
                    .and_then(Json::as_array)
                    .unwrap()
                    .iter()
                    .find(|e| e.get("name").and_then(Json::as_str) == Some(name))
                    .and_then(|e| e.get("unit"));
                assert_eq!(metric.get("unit"), unit, "{name} in {context}");
            }
        }
    }
}
