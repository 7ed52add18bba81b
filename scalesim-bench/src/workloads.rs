//! The five workloads: bench-owned inputs (embedded from `workloads/`,
//! so edits to the repository's `configs/` and `topologies/` never move
//! the benchmark), the seeded generator that writes them out, and the
//! fixed command list of each CLI workload. Why each workload exists is
//! recorded in `workloads/README.md` and `BENCHMARK.json`.

use scalesim::systolic::Topology;
use scalesim::{parse_cfg, ScaleSimConfig};
use std::io;
use std::path::Path;

pub const NAMES: [&str; 5] = [
    "cold_plan",
    "llm_decode",
    "full_stages",
    "sweep_grid",
    "serve_mix",
];
pub const SERVE_MIX: &str = "serve_mix";

macro_rules! embedded {
    ($($name:literal),* $(,)?) => {
        /// Every bench-owned input as `(file name, text)`.
        const FILES: &[(&str, &str)] = &[$(($name, include_str!(concat!("../workloads/", $name)))),*];
    };
}
embedded!(
    "os32.cfg",
    "ws32.cfg",
    "ws32_sparse.cfg",
    "llm_prefill.cfg",
    "llm_decode.cfg",
    "serve_llm.cfg",
    "resnet18.csv",
    "resnet18_stages.csv",
    "vit_base_block.csv",
    "vit_small_block.csv",
    "vit_tiny_gemm.csv",
    "cifar_cnn.csv",
    "serve_pool.csv",
    "sweep_grid.toml",
);

/// The text of an embedded input.
pub fn file(name: &str) -> &'static str {
    FILES
        .iter()
        .find(|(n, _)| *n == name)
        .map(|(_, text)| *text)
        .unwrap_or_else(|| panic!("no embedded workload file {name}"))
}

/// SplitMix64: the benchmark's only source of randomness, so one seed
/// always yields the same inputs.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Fisher–Yates.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = (self.next_u64() % (i as u64 + 1)) as usize;
            items.swap(i, j);
        }
    }
}

/// A topology CSV with its layer rows in seeded order (header first).
/// Layer order changes neither the work nor any per-layer result, only
/// which layers the scheduler hands out first.
fn shuffled_rows(csv: &str, rng: &mut Rng) -> String {
    let mut lines = csv.lines();
    let header = lines.next().unwrap_or("");
    let mut rows: Vec<&str> = lines.filter(|l| !l.trim().is_empty()).collect();
    rng.shuffle(&mut rows);
    let mut out = String::from(header);
    out.push('\n');
    for row in rows {
        out.push_str(row);
        out.push('\n');
    }
    out
}

/// Writes every input into `dir`: topologies row-shuffled by `seed`,
/// everything else verbatim.
pub fn generate_inputs(dir: &Path, seed: u64) -> io::Result<()> {
    std::fs::create_dir_all(dir)?;
    let mut rng = Rng::new(seed);
    for (name, text) in FILES {
        if name.ends_with(".csv") {
            std::fs::write(dir.join(name), shuffled_rows(text, &mut rng))?;
        } else {
            std::fs::write(dir.join(name), text)?;
        }
    }
    Ok(())
}

/// What a CLI command writes and how its reports are checked.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `scalesim -c .. -t ..`: per-layer reports; takes `--profile-stages`.
    Run,
    /// `scalesim llm`: per-layer reports.
    Llm,
    /// `scalesim sweep`: `SWEEP_REPORT.csv` with one row per grid run.
    Sweep,
}

/// One CLI invocation of a pass.
pub struct Cmd {
    pub kind: Kind,
    /// Arguments before `-p <outdir>`; `@name` stands for the file
    /// `name` of the generated inputs.
    pub args: Vec<String>,
    /// What it simulates, for the layer probes and the report checks:
    /// the resolved configuration with each topology it runs.
    pub sims: Vec<(ScaleSimConfig, Topology)>,
    /// Simulation runs it completes: 1, or the sweep's grid runs.
    pub runs: usize,
}

fn config(cfg_file: Option<&str>, dram: bool, layout: bool, energy: bool) -> ScaleSimConfig {
    let mut config = match cfg_file {
        Some(name) => parse_cfg(file(name)).unwrap_or_else(|e| panic!("{name}: {e}")),
        None => ScaleSimConfig::default(),
    };
    config.enable_dram = dram;
    config.enable_layout = layout;
    config.enable_energy = energy;
    config
}

pub fn topology(csv_file: &str) -> Topology {
    let name = csv_file.trim_end_matches(".csv");
    Topology::parse_csv_auto(name, file(csv_file)).unwrap_or_else(|e| panic!("{csv_file}: {e}"))
}

fn strings(args: &[&str]) -> Vec<String> {
    args.iter().map(|a| a.to_string()).collect()
}

fn run_cmd(cfg: &str, topology: Topology, gemm: bool, all_stages: bool) -> Cmd {
    let topo = format!("@{}.csv", topology.name());
    let mut args = strings(&["-c", &format!("@{cfg}"), "-t", &topo]);
    if gemm {
        args.push("--gemm".into());
    }
    if all_stages {
        args.extend(strings(&["--dram", "--layout", "--energy"]));
    }
    Cmd {
        kind: Kind::Run,
        args,
        sims: vec![(
            config(Some(cfg), all_stages, all_stages, all_stages),
            topology,
        )],
        runs: 1,
    }
}

/// `scalesim llm` on the `[llm]` model of `cfg` (which also names the
/// phase) at the given context (prompt length for prefill) and batch.
fn llm_cmd(cfg: &str, context: usize, batch: usize) -> Cmd {
    let config = config(Some(cfg), false, false, false);
    let mut model = config.llm.clone().expect("llm cfg has an [llm] section");
    model.context = Some(context);
    model.spec.batch = batch;
    let topology = model.topology().unwrap_or_else(|e| panic!("{cfg}: {e}"));
    let (context, batch) = (context.to_string(), batch.to_string());
    Cmd {
        kind: Kind::Llm,
        args: strings(&[
            "llm",
            "-c",
            &format!("@{cfg}"),
            "--context",
            &context,
            "--batch",
            &batch,
        ]),
        sims: vec![(config, topology)],
        runs: 1,
    }
}

/// Slot 0 of the `serve_mix` deck as a CLI command, for the
/// wire-versus-CLI check; `csv` is the slot's topology, to be written
/// beside the generated inputs as `mix0.csv`.
pub fn serve_slot0_cmd(csv: &str) -> Cmd {
    let topology = Topology::parse_gemm_csv("mix0", csv).expect("pool rows are valid");
    let mut cmd = run_cmd("ws32.cfg", topology, true, false);
    cmd.args.push("--energy".into());
    cmd.sims[0].0.enable_energy = true;
    cmd
}

/// The fixed command list (one *pass*) of a CLI workload.
pub fn commands(workload: &str) -> Vec<Cmd> {
    match workload {
        "cold_plan" => vec![
            run_cmd("os32.cfg", topology("resnet18.csv"), false, false),
            run_cmd("os32.cfg", topology("vit_base_block.csv"), true, false),
            llm_cmd("llm_prefill.cfg", 128, 1),
        ],
        "llm_decode" => vec![
            llm_cmd("llm_decode.cfg", 512, 1),
            llm_cmd("llm_decode.cfg", 2048, 4),
            llm_cmd("llm_decode.cfg", 4096, 8),
        ],
        "full_stages" => vec![
            run_cmd("os32.cfg", topology("resnet18_stages.csv"), false, true),
            run_cmd(
                "ws32_sparse.cfg",
                topology("vit_small_block.csv"),
                true,
                true,
            ),
        ],
        "sweep_grid" => {
            let spec = scalesim::sweep::SweepSpec::parse(file("sweep_grid.toml"))
                .unwrap_or_else(|e| panic!("sweep_grid.toml: {e}"));
            let sims: Vec<_> = ["vit_tiny_gemm.csv", "cifar_cnn.csv"]
                .iter()
                .map(|t| (config(None, false, false, true), topology(t)))
                .collect();
            vec![Cmd {
                kind: Kind::Sweep,
                args: strings(&["sweep", "-s", "@sweep_grid.toml"]),
                runs: spec.grid_size() * sims.len(),
                sims,
            }]
        }
        other => panic!("{other} is not a CLI workload"),
    }
}

/// What `serve_mix` requests simulate: the inline core with the pool.
pub fn serve_sims() -> Vec<(ScaleSimConfig, Topology)> {
    vec![(
        config(Some("ws32.cfg"), false, false, true),
        topology("serve_pool.csv"),
    )]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs_and_rows_survive_the_shuffle() {
        let csv = file("resnet18.csv");
        let a = shuffled_rows(csv, &mut Rng::new(7));
        let b = shuffled_rows(csv, &mut Rng::new(7));
        let c = shuffled_rows(csv, &mut Rng::new(8));
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(a.lines().next(), csv.lines().next());
        let mut want: Vec<&str> = csv.lines().collect();
        let mut got: Vec<&str> = a.lines().collect();
        want.sort_unstable();
        got.sort_unstable();
        assert_eq!(want, got);
    }

    #[test]
    fn every_cli_workload_resolves_its_inputs() {
        for name in NAMES.iter().filter(|n| **n != SERVE_MIX) {
            for cmd in commands(name) {
                assert!(cmd.runs >= 1);
                for (config, topology) in &cmd.sims {
                    assert!(config.core.validate().is_ok());
                    assert!(!topology.is_empty());
                }
                for arg in cmd.args.iter().filter_map(|a| a.strip_prefix('@')) {
                    file(arg);
                }
            }
        }
        assert_eq!(commands("sweep_grid")[0].runs, 24);
        assert_eq!(serve_sims()[0].1.len(), 24);
    }
}
