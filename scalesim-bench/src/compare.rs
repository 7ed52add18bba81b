//! `--compare A.json B.json`: two sets of runs (files written by
//! `--out`) against the bounds `BENCHMARK.json` fixes.

use crate::stats::{median, spread};
use crate::workloads;
use scalesim::api::json::Json;
use std::path::Path;

fn load(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// Every value of `metric` among a file's runs of `workload` in the
/// given mode.
fn values(runs: &Json, workload: &str, traced: bool, metric: &str) -> Vec<f64> {
    let runs = runs.get("runs").and_then(Json::as_array).unwrap_or(&[]);
    runs.iter()
        .filter(|r| r.get("workload").and_then(Json::as_str) == Some(workload))
        .filter(|r| r.get("trace").and_then(Json::as_u64) == Some(u64::from(traced)))
        .filter_map(|r| r.get("metrics")?.get(metric)?.get("value")?.as_f64())
        .collect()
}

/// How B's median stands against A's for one metric.
#[derive(Debug, PartialEq)]
pub enum Verdict {
    Ok,
    /// Worse by more than the bound.
    Worse,
    /// Run-to-run spread wider than the bound: neither claim holds.
    Unresolved,
}

pub fn verdict(a: &[f64], b: &[f64], lower_is_better: bool, bound: f64) -> Verdict {
    let (base, new) = (median(a), median(b));
    let worse_by = if lower_is_better {
        (new - base) / base
    } else {
        (base - new) / base
    };
    if worse_by > bound {
        Verdict::Worse
    } else if spread(a).max(spread(b)) > bound {
        Verdict::Unresolved
    } else {
        Verdict::Ok
    }
}

/// Prints one row per workload and end-to-end metric — both medians,
/// their ratio with its base, the wider spread, the verdict — and one
/// row per workload for the simulated statistics, which must not move
/// at all. `Ok(true)` when nothing is worse.
pub fn compare(benchmark: &Path, a: &Path, b: &Path) -> Result<bool, String> {
    let (benchmark, a, b) = (load(benchmark)?, load(a)?, load(b)?);
    let end_to_end = benchmark
        .get("end_to_end")
        .and_then(Json::as_array)
        .ok_or("BENCHMARK.json: no end_to_end list")?;
    let per_layer = benchmark
        .get("per_layer")
        .and_then(Json::as_array)
        .ok_or("BENCHMARK.json: no per_layer list")?;
    let mut all_ok = true;
    for workload in workloads::NAMES {
        for metric in end_to_end {
            let field = |key: &str| metric.get(key).and_then(Json::as_str).unwrap_or("");
            let name = field("name");
            let bound = metric.get("bound").and_then(Json::as_f64).unwrap_or(0.0);
            let (va, vb) = (
                values(&a, workload, false, name),
                values(&b, workload, false, name),
            );
            if va.is_empty() || vb.is_empty() {
                continue;
            }
            let verdict = verdict(&va, &vb, field("better") == "lower", bound);
            all_ok &= verdict != Verdict::Worse;
            println!(
                "{workload:<12} {name:<24} A {:>12.4} (n={}) B {:>12.4} (n={}) {} B/A {:.4} spread {:.4} bound {bound} {}",
                median(&va),
                va.len(),
                median(&vb),
                vb.len(),
                field("unit"),
                median(&vb) / median(&va),
                spread(&va).max(spread(&vb)),
                format!("{verdict:?}").to_lowercase(),
            );
        }
        let moved: Vec<&str> = per_layer
            .iter()
            .filter_map(|m| m.get("name")?.as_str())
            .filter(|name| name.starts_with("sim."))
            .filter(|name| {
                let mut all = values(&a, workload, true, name);
                all.extend(values(&b, workload, true, name));
                all.windows(2).any(|w| w[0] != w[1])
            })
            .collect();
        if !moved.is_empty() {
            all_ok = false;
            println!(
                "{workload:<12} sim.* differ between runs: {} worse",
                moved.join(", ")
            );
        } else if !values(&a, workload, true, "sim.total_cycles").is_empty() {
            println!("{workload:<12} sim.* identical in every run ok");
        }
    }
    Ok(all_ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_direction_bound_and_spread() {
        let steady = [100.0, 101.0, 100.5, 99.5];
        assert_eq!(verdict(&steady, &[104.0, 105.0], true, 0.10), Verdict::Ok);
        assert_eq!(
            verdict(&steady, &[120.0, 121.0], true, 0.10),
            Verdict::Worse
        );
        assert_eq!(verdict(&steady, &[80.0, 81.0], true, 0.10), Verdict::Ok);
        assert_eq!(verdict(&steady, &[80.0, 81.0], false, 0.10), Verdict::Worse);
        let noisy = [100.0, 140.0, 70.0, 101.0];
        assert_eq!(verdict(&steady, &noisy, true, 0.10), Verdict::Unresolved);
        assert_eq!(verdict(&[100.0], &[105.0], true, 0.10), Verdict::Ok);
    }

    #[test]
    fn values_select_workload_and_mode() {
        let runs = Json::parse(
            r#"{"runs":[
            {"workload":"cold_plan","trace":0,"metrics":{"setup_s":{"value":1.5,"unit":"s"}}},
            {"workload":"cold_plan","trace":1,"metrics":{"setup_s":{"value":9,"unit":"s"}}},
            {"workload":"serve_mix","trace":0,"metrics":{"setup_s":{"value":2.5,"unit":"s"}}},
            {"workload":"cold_plan","trace":0,"metrics":{"setup_s":{"value":null,"unit":"s"}}}]}"#,
        )
        .unwrap();
        assert_eq!(values(&runs, "cold_plan", false, "setup_s"), [1.5]);
        assert_eq!(values(&runs, "cold_plan", true, "setup_s"), [9.0]);
        assert!(values(&runs, "llm_decode", false, "setup_s").is_empty());
    }
}
