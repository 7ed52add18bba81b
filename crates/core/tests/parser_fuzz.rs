//! Seeded hostile-input suite for the three text parsers: topology CSVs
//! (`Topology::parse_csv_auto`, `parse_conv_csv`, `parse_gemm_csv`),
//! `.cfg` files (`parse_cfg`) and sweep specs (`SweepSpec::parse`).
//!
//! Every shipped input — `topologies/*.csv`, `configs/*.cfg` and
//! `configs/example_sweep.toml` — is mutated with one to three
//! fixed-seed edits: a truncated line, a 20-digit number, a zero,
//! swapped or missing columns, a duplicated line (a duplicate layer
//! name or key) and a stray header. Each mutant must parse to `Ok` or a
//! typed error and never panic; the suite runs in the debug test
//! profile, where an arithmetic overflow panics and so counts. What an
//! `Ok` promises is held too:
//!
//! - a topology keeps every data row: at most its first row (the
//!   header) is not a layer;
//! - a configuration's sparsity mode runs, and its SRAM sizes are
//!   exact (`parse_cfg` builds them);
//! - every SRAM size a sweep point carries builds a `MemoryConfig`.
//!
//! The generator is deterministic (SplitMix64), so a failure reproduces
//! from the file name and mutant index in the message.

use scalesim::sweep::spec::AxisValue;
use scalesim::sweep::SweepSpec;
use scalesim::systolic::{GemmShape, MemoryConfig, SimError, Topology};
use scalesim::{parse_cfg, ScaleSim, ScaleSimConfig};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};

const SEED: u64 = 0x9A25_E5F0;

/// Mutants drawn per shipped file.
const MUTANTS: usize = 400;

/// Lines a mutation may insert where they do not belong.
const STRAY_HEADERS: [&str; 6] = [
    "Layer, M, K, N,",
    "Layer name, IFMAP Height, IFMAP Width, Filter Height, Filter Width, Channels, Num Filter, Strides,",
    "name, 1, 2, 3,",
    "[sparsity]",
    "[llm]",
    "[grid]",
];

/// Numbers of 20 digits: two fit in 64 bits (so they parse, and only
/// overflow later), two do not.
const HUGE: [&str; 4] = [
    "18446744073709551615",
    "10000000000000000000",
    "18446744073709551616",
    "99999999999999999999",
];

struct SplitMix64(u64);

impl SplitMix64 {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e3779b97f4a7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n.max(1) as u64) as usize
    }

    fn pick<'a>(&mut self, items: &[&'a str]) -> &'a str {
        items[self.below(items.len())]
    }
}

/// The byte ranges of the digit runs in `line`.
fn numbers(line: &str) -> Vec<(usize, usize)> {
    let mut runs = Vec::new();
    let mut start = None;
    for (i, c) in line.char_indices().chain([(line.len(), ' ')]) {
        match (c.is_ascii_digit(), start) {
            (true, None) => start = Some(i),
            (false, Some(s)) => {
                runs.push((s, i));
                start = None;
            }
            _ => {}
        }
    }
    runs
}

/// Replaces one number of `line` (if it has any) with `by`.
fn replace_number(rng: &mut SplitMix64, line: &mut String, by: &str) {
    let runs = numbers(line);
    if !runs.is_empty() {
        let (a, b) = runs[rng.below(runs.len())];
        line.replace_range(a..b, by);
    }
}

/// The fields of a line: its comma-separated columns, or the two sides
/// of a `key : value` line.
fn fields(line: &str) -> Vec<String> {
    let split: Vec<&str> = if line.contains(',') {
        line.split(',').collect()
    } else {
        line.splitn(2, [':', '=']).collect()
    };
    split.into_iter().map(String::from).collect()
}

/// One to three hostile edits of `text`.
fn mutate(rng: &mut SplitMix64, text: &str) -> String {
    let mut lines: Vec<String> = text.lines().map(String::from).collect();
    for _ in 0..1 + rng.below(3) {
        if lines.is_empty() {
            break;
        }
        let i = rng.below(lines.len());
        match rng.below(7) {
            // A truncated line.
            0 => {
                let cut = rng.below(lines[i].len() + 1);
                let cut = (0..=cut).rev().find(|&c| lines[i].is_char_boundary(c));
                lines[i].truncate(cut.unwrap_or(0));
            }
            1 => {
                let huge = rng.pick(&HUGE);
                replace_number(rng, &mut lines[i], huge);
            }
            2 => replace_number(rng, &mut lines[i], "0"),
            // Swapped columns.
            3 => {
                let mut f = fields(&lines[i]);
                let (a, b) = (rng.below(f.len()), rng.below(f.len()));
                f.swap(a, b);
                lines[i] = f.join(if lines[i].contains(',') { "," } else { ":" });
            }
            // A missing column.
            4 => {
                let mut f = fields(&lines[i]);
                f.remove(rng.below(f.len()));
                lines[i] = f.join(",");
            }
            // A duplicate layer name or key.
            5 => {
                let copy = lines[i].clone();
                lines.insert(i, copy);
            }
            _ => {
                let header = rng.pick(&STRAY_HEADERS).to_string();
                lines.insert(i.max(1), header);
            }
        }
    }
    lines.join("\n") + "\n"
}

fn shipped(dir: &str, keep: impl Fn(&Path) -> bool) -> Vec<(PathBuf, String)> {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join(dir);
    let mut files: Vec<_> = std::fs::read_dir(&dir)
        .unwrap_or_else(|e| panic!("{}: {e}", dir.display()))
        .map(|entry| entry.unwrap().path())
        .filter(|path| keep(path))
        .map(|path| {
            let text = std::fs::read_to_string(&path).unwrap();
            (path, text)
        })
        .collect();
    files.sort();
    assert!(!files.is_empty(), "no inputs under {}", dir.display());
    files
}

fn has_extension(ext: &str) -> impl Fn(&Path) -> bool + '_ {
    move |path| path.extension().is_some_and(|e| e == ext)
}

/// Feeds `MUTANTS` mutants of every file to `check`, each under
/// `catch_unwind`; returns one line per mutant that panicked or broke
/// a promise.
fn fuzz(files: &[(PathBuf, String)], check: impl Fn(&str) -> Result<(), String>) -> Vec<String> {
    let mut rng = SplitMix64(SEED);
    let mut failures = Vec::new();
    for (path, text) in files {
        for i in 0..MUTANTS {
            let mutant = mutate(&mut rng, text);
            let outcome = catch_unwind(AssertUnwindSafe(|| check(&mutant)));
            let why = match outcome {
                Ok(Ok(())) => continue,
                Ok(Err(broken)) => broken,
                Err(panic) => {
                    let message = panic.downcast_ref::<String>().cloned();
                    let message = message.or_else(|| {
                        let text = panic.downcast_ref::<&str>();
                        text.map(|s| s.to_string())
                    });
                    format!("panicked: {}", message.unwrap_or_default())
                }
            };
            failures.push(format!("{} mutant {i}: {why}\n{mutant}", path.display()));
        }
    }
    failures
}

fn assert_clean(failures: Vec<String>) {
    let shown: Vec<_> = failures.iter().take(3).collect();
    assert!(
        failures.is_empty(),
        "{} of the mutants failed; the first:\n{shown:#?}",
        failures.len()
    );
}

/// At most the first non-blank, non-comment row of `csv` is not a layer.
fn keeps_every_row(csv: &str, topology: &Topology) -> Result<(), String> {
    let rows = csv
        .lines()
        .map(|l| l.trim().trim_end_matches(','))
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .count();
    if topology.len() + 1 >= rows {
        Ok(())
    } else {
        Err(format!("{rows} rows but only {} layers", topology.len()))
    }
}

#[test]
fn hostile_topology_csvs_parse_or_fail_typed() {
    let files = shipped("topologies", has_extension("csv"));
    type Parse = fn(&str, &str) -> Result<Topology, SimError>;
    let parsers: [Parse; 3] = [
        Topology::parse_csv_auto,
        Topology::parse_conv_csv,
        Topology::parse_gemm_csv,
    ];
    assert_clean(fuzz(&files, |csv| {
        for parse in parsers {
            match parse("fuzz", csv) {
                Ok(topology) => keeps_every_row(csv, &topology)?,
                Err(SimError::ParseTopology { .. }) => {}
                Err(other) => return Err(format!("untyped error {other:?}")),
            }
        }
        Ok(())
    }));
}

#[test]
fn hostile_cfg_files_parse_or_fail_typed() {
    let files = shipped("configs", has_extension("cfg"));
    assert_clean(fuzz(&files, |text| match parse_cfg(text) {
        Ok(config) => {
            // The parsed sparsity mode drives a small layer.
            let mut probe = ScaleSimConfig::default();
            probe.sparsity = config.sparsity;
            ScaleSim::new(probe).run_gemm("probe", GemmShape::new(8, 8, 40));
            Ok(())
        }
        Err(SimError::InvalidConfig(_)) => Ok(()),
        Err(other) => Err(format!("untyped error {other:?}")),
    }));
}

#[test]
fn hostile_sweep_specs_parse_or_fail_typed() {
    let files = shipped("configs", has_extension("toml"));
    assert_clean(fuzz(&files, |text| {
        let Ok(spec) = SweepSpec::parse(text) else {
            return Ok(());
        };
        for point in spec.expand() {
            for value in point.values() {
                if let AxisValue::SramKb(ifmap, filter, ofmap) = value {
                    MemoryConfig::from_kilobytes(ifmap, filter, ofmap, 2);
                }
            }
        }
        Ok(())
    }));
}
