//! `scalesim-repro [-o DIR] [ID...]` — runs the experiment table.

use scalesim::systolic::PlanCache;
use scalesim_repro::{ledger, Run, EXPERIMENTS};
use std::path::Path;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;

const USAGE: &str = "usage: scalesim-repro [-o DIR] [ID...]

Runs the named experiments (all of them when none is named), printing each one's table and
claims; -o also writes the tables as DIR/<id>.csv. A run of the whole table rewrites
REPRODUCTION.md and REPRODUCTION.json in the current directory — run it from the repository
root. Exits 1 when a claim changed side: out of band with no deviation listed, or the reverse.";

fn main() -> std::io::Result<ExitCode> {
    let (mut out_dir, mut selected) = (None, Vec::new());
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match (arg.as_str(), EXPERIMENTS.iter().find(|e| e.id == arg)) {
            ("-o", _) if args.len() > 0 => out_dir = args.next(),
            (_, Some(row)) => selected.push(row),
            _ => {
                let ids: Vec<&str> = EXPERIMENTS.iter().map(|e| e.id).collect();
                eprintln!("{USAGE}\n\nexperiments: {}", ids.join(", "));
                return Ok(ExitCode::from(1));
            }
        }
    }
    let whole_table = selected.is_empty();
    if whole_table {
        selected = EXPERIMENTS.iter().collect();
    }
    // The process's one plan cache: every engine grid of every row shares it.
    let cache = Arc::new(PlanCache::new());
    let started = Instant::now();
    let mut runs = Vec::new();
    for e in selected {
        println!("{}\nrunning {} ...", "=".repeat(74), e.id);
        let row_started = Instant::now();
        let run = scalesim_repro::run(e, &cache);
        // The row's table, then its section of the ledger.
        println!(
            "{}\n\n{}",
            run.table.join("\n"),
            ledger::markdown_section(&run)
        );
        println!(
            "[{} took {:.1} s]",
            e.id,
            row_started.elapsed().as_secs_f64()
        );
        if let Some(dir) = out_dir.as_deref().map(Path::new) {
            std::fs::create_dir_all(dir)?;
            let csv = dir.join(format!("{}.csv", e.id));
            std::fs::write(csv, run.table.join("\n") + "\n")?;
        }
        runs.push(run);
    }
    let seconds = started.elapsed().as_secs_f64();
    println!(
        "{} rows in {seconds:.1} s; plan cache: {}",
        runs.len(),
        cache.stats()
    );
    if whole_table {
        std::fs::write("REPRODUCTION.md", ledger::markdown(&runs))?;
        std::fs::write("REPRODUCTION.json", ledger::json(&runs))?;
    }
    let changed: Vec<&str> = runs.iter().flat_map(Run::changed_side).collect();
    if !changed.is_empty() {
        eprintln!("claims that changed side: {}", changed.join(", "));
    }
    Ok(ExitCode::from(u8::from(!changed.is_empty())))
}
