//! CLI workloads: run one *pass* (the workload's fixed command list)
//! against the real `scalesim` binary, then check what it wrote.

use crate::child::{self, Usage};
use crate::trace::{self, Event, SpanTotals};
use crate::workloads::{Cmd, Kind};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::{Duration, Instant};

/// No command of any workload runs longer than ~2 s; one that takes
/// this long has hung and counts as failed.
pub const COMMAND_TIMEOUT: Duration = Duration::from_secs(60);

/// Large enough that no pass overwrites a ring: a dropped span would
/// silently shrink the per-layer seconds.
pub const TRACE_BUF: &str = "1048576";

/// Where and how children run.
pub struct Env {
    /// The built `scalesim` binary.
    pub bin: PathBuf,
    /// `SCALESIM_THREADS` every child gets.
    pub threads: usize,
}

impl Env {
    pub fn scalesim(&self) -> Command {
        let mut command = Command::new(&self.bin);
        command.env("SCALESIM_THREADS", self.threads.to_string());
        command
    }
}

/// Exact, repeatable simulated statistics summed over reports.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct SimTotals {
    pub total_cycles: u64,
    pub compute_cycles: u64,
    pub stall_cycles: u64,
    pub layers: u64,
    pub macs: u64,
    pub energy_mj: f64,
    pub dram_requests: u64,
    /// Σ utilization × compute cycles, Σ row-hit rate × line requests:
    /// numerators of the weighted means.
    pub util_x_compute: f64,
    pub hits_x_requests: f64,
}

impl SimTotals {
    pub fn add(&mut self, o: &SimTotals) {
        self.total_cycles += o.total_cycles;
        self.compute_cycles += o.compute_cycles;
        self.stall_cycles += o.stall_cycles;
        self.layers += o.layers;
        self.macs += o.macs;
        self.energy_mj += o.energy_mj;
        self.dram_requests += o.dram_requests;
        self.util_x_compute += o.util_x_compute;
        self.hits_x_requests += o.hits_x_requests;
    }

    /// Checks and adds one report row's cycle columns. The total also
    /// covers the first fill and the last drain, which neither of the
    /// other two columns counts, so it may exceed their sum.
    fn add_row(
        &mut self,
        what: &str,
        cycles: u64,
        stalls: u64,
        total: u64,
        util: f64,
    ) -> Result<(), String> {
        if cycles == 0 || total < cycles + stalls {
            return Err(format!(
                "{what}: total {total} vs compute {cycles} + stalls {stalls}"
            ));
        }
        self.compute_cycles += cycles;
        self.stall_cycles += stalls;
        self.total_cycles += total;
        self.util_x_compute += util * cycles as f64;
        Ok(())
    }

    pub fn utilization(&self) -> f64 {
        ratio(self.util_x_compute, self.compute_cycles as f64)
    }

    pub fn dram_row_hit_rate(&self) -> f64 {
        ratio(self.hits_x_requests, self.dram_requests as f64)
    }
}

/// `num / den`, 0 when the denominator is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// A report CSV: header names and trimmed cells.
struct Table {
    name: String,
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    fn parse(name: &str, text: &str) -> Table {
        let split = |line: &str| -> Vec<String> {
            line.trim_end_matches([',', ' '])
                .split(',')
                .map(|c| c.trim().to_string())
                .collect()
        };
        let mut lines = text.lines().filter(|l| !l.trim().is_empty());
        Table {
            name: name.to_string(),
            header: lines.next().map(split).unwrap_or_default(),
            rows: lines.map(split).collect(),
        }
    }

    fn read(dir: &Path, name: &str) -> Result<Table, String> {
        let text = std::fs::read_to_string(dir.join(name)).map_err(|e| format!("{name}: {e}"))?;
        Ok(Table::parse(name, &text))
    }

    fn col(&self, column: &str) -> Result<usize, String> {
        self.header
            .iter()
            .position(|h| h == column)
            .ok_or(format!("{}: no column {column}", self.name))
    }

    fn num<T: std::str::FromStr>(&self, row: &[String], col: usize) -> Result<T, String> {
        row.get(col)
            .and_then(|c| c.parse().ok())
            .ok_or(format!("{}: bad cell in column {col}", self.name))
    }
}

/// Checks one command's reports for self-consistency and sums their
/// simulated statistics. Also returns the *signature*: the cycle
/// columns as text, which every pass of the same command must repeat.
fn check_reports(cmd: &Cmd, dir: &Path) -> Result<(SimTotals, String), String> {
    match cmd.kind {
        Kind::Run | Kind::Llm => check_layer_reports(cmd, dir),
        Kind::Sweep => check_sweep_report(cmd, dir),
    }
}

fn check_layer_reports(cmd: &Cmd, dir: &Path) -> Result<(SimTotals, String), String> {
    let (_, topology) = &cmd.sims[0];
    let mut sim = SimTotals {
        macs: topology.total_macs(),
        ..SimTotals::default()
    };
    let mut signature = String::new();

    let compute = Table::read(dir, "COMPUTE_REPORT.csv")?;
    let (name_c, compute_c, stall_c, total_c, util_c) = (
        compute.col("LayerName")?,
        compute.col("ComputeCycles")?,
        compute.col("StallCycles")?,
        compute.col("TotalCycles")?,
        compute.col("Utilization")?,
    );
    let mut reported: Vec<&str> = Vec::new();
    for row in &compute.rows {
        let cycles: u64 = compute.num(row, compute_c)?;
        let stalls: u64 = compute.num(row, stall_c)?;
        let total: u64 = compute.num(row, total_c)?;
        let util: f64 = compute.num(row, util_c)?;
        let name = row[name_c].as_str();
        sim.add_row(name, cycles, stalls, total, util)?;
        reported.push(name);
        sim.layers += 1;
        signature.push_str(&format!("{name},{cycles},{stalls},{total};"));
    }
    let mut expected: Vec<&str> = topology.iter().map(|l| l.name()).collect();
    expected.sort_unstable();
    reported.sort_unstable();
    if expected != reported {
        return Err(format!(
            "COMPUTE_REPORT.csv has {} rows for {} topology layers",
            reported.len(),
            expected.len()
        ));
    }

    let (config, _) = &cmd.sims[0];
    if config.enable_energy {
        let energy = Table::read(dir, "ENERGY_REPORT.csv")?;
        let col = energy.col("EnergyMj")?;
        for row in &energy.rows {
            sim.energy_mj += energy.num::<f64>(row, col)?;
        }
    }
    if config.enable_dram {
        let dram = Table::read(dir, "DRAM_REPORT.csv")?;
        let (req_c, hit_c) = (dram.col("LineRequests")?, dram.col("RowHitRate")?);
        for row in &dram.rows {
            let requests: u64 = dram.num(row, req_c)?;
            sim.dram_requests += requests;
            sim.hits_x_requests += dram.num::<f64>(row, hit_c)? * requests as f64;
        }
    }
    Ok((sim, signature))
}

fn check_sweep_report(cmd: &Cmd, dir: &Path) -> Result<(SimTotals, String), String> {
    let report = Table::read(dir, "SWEEP_REPORT.csv")?;
    if report.rows.len() != cmd.runs {
        return Err(format!(
            "SWEEP_REPORT.csv has {} rows for {} grid runs",
            report.rows.len(),
            cmd.runs
        ));
    }
    let (total_c, compute_c, stall_c) = (
        report.col("TotalCycles")?,
        report.col("ComputeCycles")?,
        report.col("StallCycles")?,
    );
    let (layers_c, macs_c, util_c, energy_c, pareto_c) = (
        report.col("Layers")?,
        report.col("MACs")?,
        report.col("Utilization")?,
        report.col("EnergyMj")?,
        report.col("Pareto")?,
    );
    let mut sim = SimTotals::default();
    let mut signature = String::new();
    let mut on_frontier = 0;
    for row in &report.rows {
        let cycles: u64 = report.num(row, compute_c)?;
        let stalls: u64 = report.num(row, stall_c)?;
        let total: u64 = report.num(row, total_c)?;
        let util: f64 = report.num(row, util_c)?;
        sim.add_row("sweep run", cycles, stalls, total, util)?;
        sim.layers += report.num::<u64>(row, layers_c)?;
        sim.macs += report.num::<u64>(row, macs_c)?;
        sim.energy_mj += report.num::<f64>(row, energy_c)?;
        on_frontier += report.num::<u64>(row, pareto_c)?;
        signature.push_str(&format!("{cycles},{stalls},{total};"));
    }
    if on_frontier == 0 {
        return Err("SWEEP_REPORT.csv: empty Pareto set".into());
    }
    Ok((sim, signature))
}

/// What the binary's own instrumentation said, summed over every
/// traced command folded in.
#[derive(Debug, Default, Clone)]
pub struct TraceData {
    pub spans: SpanTotals,
    /// Per pipeline stage: calls and summed seconds.
    pub stages: BTreeMap<String, (f64, f64)>,
}

const STAGES: [&str; 6] = ["sparsify", "compute", "dram", "layout", "sparse", "energy"];

impl TraceData {
    /// Folds in one process's events. `profile` is its
    /// `STAGE_PROFILE.json` where it wrote one; without it the stage
    /// seconds are its pipeline spans (the same data by another road).
    pub fn add(&mut self, events: &[Event], profile: Option<Vec<(String, u64, f64)>>) {
        let profile = profile.unwrap_or_else(|| {
            let mut spans = SpanTotals::default();
            spans.add(events);
            let row = |s: &&str| {
                let calls = spans.count("pipeline", s) as u64;
                (s.to_string(), calls, spans.secs("pipeline", s))
            };
            STAGES.iter().map(row).collect()
        });
        for (stage, calls, secs) in profile {
            let slot = self.stages.entry(stage).or_default();
            slot.0 += calls as f64;
            slot.1 += secs;
        }
        self.spans.add(events);
    }

    /// One command's `trace.json`, with its `STAGE_PROFILE.json` if it
    /// wrote one (`llm` and `sweep` take no `--profile-stages`).
    fn add_command(&mut self, dir: &Path) -> Result<(), String> {
        let text = std::fs::read_to_string(dir.join("trace.json"))
            .map_err(|e| format!("trace.json: {e}"))?;
        let events = trace::parse_trace(&text)?;
        let profile = match std::fs::read_to_string(dir.join("STAGE_PROFILE.json")) {
            Ok(text) => Some(trace::parse_stage_profile(&text)?),
            Err(_) => None,
        };
        self.add(&events, profile);
        Ok(())
    }

    /// Turns totals over `passes` passes into per-pass means.
    pub fn per_pass(&mut self, passes: usize) {
        let factor = 1.0 / passes.max(1) as f64;
        self.spans.scale(factor);
        for (calls, secs) in self.stages.values_mut() {
            *calls *= factor;
            *secs *= factor;
        }
    }
}

/// One finished pass.
pub struct Pass {
    /// First spawn to last exit, seconds.
    pub wall_s: f64,
    pub usage: Vec<Usage>,
    /// Per command: its report totals and signature, or why it failed.
    pub checks: Vec<Result<(SimTotals, String), String>>,
}

impl Pass {
    pub fn peak_rss_mb(&self) -> Option<f64> {
        self.usage
            .iter()
            .filter_map(|u| u.peak_rss_mb)
            .reduce(f64::max)
    }

    pub fn sim(&self) -> SimTotals {
        let mut sum = SimTotals::default();
        for (sim, _) in self.checks.iter().flatten() {
            sum.add(sim);
        }
        sum
    }
}

/// Runs the commands of one pass in order, each writing to its own
/// fresh directory under `out`, and checks the reports after the last
/// exit so that checking never sits inside the timed interval. With
/// `trace` given the commands run traced and their spans fold into it.
pub fn run_pass(
    env: &Env,
    cmds: &[Cmd],
    inputs: &Path,
    out: &Path,
    mut trace: Option<&mut TraceData>,
) -> std::io::Result<Pass> {
    let dirs: Vec<PathBuf> = (0..cmds.len()).map(|i| out.join(format!("c{i}"))).collect();
    for dir in &dirs {
        std::fs::create_dir_all(dir)?;
    }
    let start = Instant::now();
    let mut usage = Vec::new();
    for (cmd, dir) in cmds.iter().zip(&dirs) {
        let mut command = env.scalesim();
        for arg in &cmd.args {
            match arg.strip_prefix('@') {
                Some(name) => command.arg(inputs.join(name)),
                None => command.arg(arg),
            };
        }
        command.arg("-p").arg(dir);
        if trace.is_some() {
            command.env("SCALESIM_TRACE_BUF", TRACE_BUF);
            command.arg("--trace").arg(dir.join("trace.json"));
            if cmd.kind == Kind::Run {
                command.arg("--profile-stages");
            }
        }
        usage.push(child::run(&mut command, COMMAND_TIMEOUT)?);
    }
    let wall_s = start.elapsed().as_secs_f64();

    let checks = cmds
        .iter()
        .zip(&dirs)
        .zip(&usage)
        .map(|((cmd, dir), usage)| {
            if !usage.ok {
                return Err(format!("`scalesim {}` failed", cmd.args.join(" ")));
            }
            if let Some(trace) = trace.as_mut() {
                trace.add_command(dir)?;
            }
            check_reports(cmd, dir)
        })
        .collect();
    Ok(Pass {
        wall_s,
        usage,
        checks,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tables_trim_cells_and_trailing_commas() {
        let t = Table::parse("T.csv", "A, B, C,\nx, 1, 2.5,\n\ny, 3, 4\n");
        assert_eq!(t.header, ["A", "B", "C"]);
        assert_eq!(t.rows.len(), 2);
        assert_eq!(t.num::<u64>(&t.rows[1], t.col("B").unwrap()), Ok(3));
        assert_eq!(t.num::<f64>(&t.rows[0], t.col("C").unwrap()), Ok(2.5));
        assert!(t.col("D").is_err());
        assert!(t.num::<u64>(&t.rows[0], 0).is_err());
    }

    #[test]
    fn weighted_means_are_zero_without_weight() {
        let mut a = SimTotals::default();
        assert_eq!(a.utilization(), 0.0);
        a.add(&SimTotals {
            compute_cycles: 10,
            util_x_compute: 5.0,
            ..SimTotals::default()
        });
        a.add(&SimTotals {
            compute_cycles: 30,
            util_x_compute: 30.0,
            ..SimTotals::default()
        });
        assert!((a.utilization() - 0.875).abs() < 1e-12);
        assert_eq!(a.dram_row_hit_rate(), 0.0);
    }
}
