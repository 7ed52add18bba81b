//! Tier-1 guard of the reproduction ledger: the experiment table is
//! well formed and agrees with the checked-in `REPRODUCTION.md` /
//! `REPRODUCTION.json`, and every `Cheap` row still lands on the side of
//! its bands the table says — reproducing its section of the ledger byte
//! for byte. `Full` rows are held by the `reproduction` CI job, which
//! re-derives both files from a release build and diffs them.

use scalesim::api::json::Json;
use scalesim::systolic::PlanCache;
use scalesim_repro::{ledger, Accept, Claim, Cost, Experiment, EXPERIMENTS};
use std::collections::BTreeSet;
use std::sync::Arc;

fn checked_in(file: &str) -> String {
    let path = format!("{}/../../{file}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"))
}

fn claims() -> impl Iterator<Item = &'static Claim> {
    EXPERIMENTS.iter().flat_map(|e| e.claims)
}

#[test]
fn the_table_is_well_formed() {
    let ids: BTreeSet<&str> = EXPERIMENTS.iter().map(|e| e.id).collect();
    assert_eq!(ids.len(), EXPERIMENTS.len(), "duplicate experiment id");
    let claim_ids: BTreeSet<&str> = claims().map(|c| c.id).collect();
    assert_eq!(claim_ids.len(), claims().count(), "duplicate claim id");
    for e in EXPERIMENTS {
        assert!(!e.title.is_empty() && !e.paper_ref.is_empty(), "{}", e.id);
        assert!(!e.claims.is_empty(), "{} claims nothing", e.id);
        for c in e.claims {
            assert!(c.id.starts_with(&format!("{}.", e.id)), "{}", c.id);
            assert!(!c.what.is_empty(), "{}", c.id);
            assert!(c.deviation != Some(""), "{}: empty deviation", c.id);
            // A band is a non-empty interval; an ordering is its own band.
            match c.accept {
                Accept::Within(lo, hi) | Accept::HostWithin(lo, hi) => {
                    assert!(lo < hi, "{}: empty band", c.id)
                }
                Accept::Ordering => {}
            }
        }
    }
    // Host time never reaches a row the debug-build test runs.
    for e in EXPERIMENTS.iter().filter(|e| e.cost == Cost::Cheap) {
        let host = |c: &Claim| matches!(c.accept, Accept::HostWithin(..));
        assert!(!e.claims.iter().any(host), "{} is cheap", e.id);
    }
}

#[test]
fn the_paper_s_experiments_and_headline_numbers_are_all_claimed() {
    let rows = [
        "fig03_partitioning",
        "fig05_sparse_memory",
        "fig07_sparse_storage",
        "fig08_block_size",
        "fig09_dram_channels",
        "fig10_queue_stalls",
        "fig12_layout_resnet",
        "fig13_layout_vit",
        "fig15_energy_dataflow",
        "tab03_energy_states",
        "tab04_overhead",
        "tab05_edp",
        "tab06_multicore_isocompute",
        "ablation_energy_repeat",
        "ablation_mem_scheduling",
        "ablation_nop",
        "claim_dram_os_vs_ws",
        "ext_dram_power",
    ];
    for id in rows {
        assert!(EXPERIMENTS.iter().any(|e| e.id == id), "{id} is not a row");
    }
    let numbers = [
        ("tab05_edp", "6.53x"),
        ("tab05_edp", "2.86x"),
        ("tab05_edp", "64x64"),
        ("tab04_overhead", "2.29x"),
        ("tab04_overhead", "0.42x"),
        ("tab04_overhead", "0.29x"),
        ("tab04_overhead", "1.19x"),
        ("tab04_overhead", "2.13x"),
        ("tab04_overhead", "16.03x"),
        ("fig10_queue_stalls", "3.76x"),
        ("fig10_queue_stalls", "1.38x"),
        ("claim_dram_os_vs_ws", "21 %"),
        ("claim_dram_os_vs_ws", "30.1 %"),
        ("tab06_multicore_isocompute", "1.87x"),
        ("tab06_multicore_isocompute", "1.14x"),
        ("tab06_multicore_isocompute", "1.31x"),
        ("fig05_sparse_memory", "3.9x"),
    ];
    for (row, paper) in numbers {
        let found = claims().any(|c| c.id.starts_with(row) && c.paper == Some(paper));
        assert!(found, "no claim of {row} carries the paper's {paper}");
    }
}

/// The docs-coverage pattern of `cfg.rs` / `spec.rs` / `wire.rs`, both
/// ways round: every id of the table is in the checked-in ledger, and
/// the ledger names nothing the table does not.
#[test]
fn the_table_and_the_checked_in_ledger_name_the_same_things() {
    let md = checked_in("REPRODUCTION.md");
    let in_table: BTreeSet<String> = (EXPERIMENTS.iter().map(|e| e.id))
        .chain(claims().map(|c| c.id))
        .map(|id| format!("`{id}`"))
        .collect();
    // Section headings (## `id` — …) and the first cell of claim rows.
    let in_ledger: BTreeSet<String> = md
        .lines()
        .filter_map(|l| l.strip_prefix("## ").or_else(|| l.strip_prefix("| ")))
        .filter(|l| l.starts_with('`'))
        .map(|l| l[..=l[1..].find('`').expect("closing backtick") + 1].to_string())
        .collect();
    assert_eq!(in_table, in_ledger);

    let json = Json::parse(&checked_in("REPRODUCTION.json")).expect("REPRODUCTION.json parses");
    let experiments = json.get("experiments").and_then(Json::as_array).unwrap();
    assert_eq!(experiments.len(), EXPERIMENTS.len());
    let deviations = md.split("\n## ").nth(1).expect("a Deviations section");
    assert!(deviations.starts_with("Deviations\n"), "{deviations}");
    for (e, entry) in EXPERIMENTS.iter().zip(experiments) {
        let text =
            |object: &Json, key: &str| object.get(key).and_then(Json::as_str).map(String::from);
        assert_eq!(text(entry, "id").as_deref(), Some(e.id));
        let entries = entry.get("claims").and_then(Json::as_array).unwrap();
        assert_eq!(entries.len(), e.claims.len(), "{}", e.id);
        for (c, entry) in e.claims.iter().zip(entries) {
            assert_eq!(text(entry, "id").as_deref(), Some(c.id));
            assert_eq!(text(entry, "paper").as_deref(), c.paper, "{}", c.id);
            assert_eq!(text(entry, "accepted"), Some(ledger::accepted(c.accept)));
            assert_eq!(text(entry, "deviation").as_deref(), c.deviation, "{}", c.id);
            // In the checked-in ledger no claim has changed side: it is out
            // of band exactly when the table says why, and the Deviations
            // section lists exactly those.
            let in_band = entry.get("in_band").and_then(Json::as_bool).unwrap();
            assert_eq!(in_band, c.deviation.is_none(), "{}", c.id);
            let listed = deviations.contains(&format!("| `{}` |", c.id));
            assert_eq!(listed, c.deviation.is_some(), "{}", c.id);
        }
    }
}

/// Every `Cheap` row, on one shared cache as the runner would: no claim
/// has changed side, and the row reproduces its section of the
/// checked-in ledger byte for byte (so a value cannot drift silently
/// inside its band either). The direction claims the issue names are
/// among them.
#[test]
fn cheap_rows_reproduce_their_ledger_sections() {
    let md = checked_in("REPRODUCTION.md");
    let cache = Arc::new(PlanCache::new());
    let mut held = BTreeSet::new();
    for e in EXPERIMENTS.iter().filter(|e| e.cost == Cost::Cheap) {
        let run = scalesim_repro::run(e, &cache);
        assert_eq!(run.changed_side(), Vec::<&str>::new(), "{}", e.id);
        let section = ledger::markdown_section(&run);
        assert!(
            md.contains(&section),
            "{} drifted from REPRODUCTION.md:\n{section}",
            e.id
        );
        assert!(run.table.len() > 1, "{} recorded no table", e.id);
        let in_band = run.claims().filter(|(_, seen)| seen.in_band);
        held.extend(in_band.map(|(claim, _)| claim.id));
    }
    for direction in [
        "dir_dram_flip.ordering_flips",
        "dir_array_scaling.latency_falls_energy_rises",
        "ablation_mem_scheduling.default_dominates",
        "dir_sparse_demand.stream_shrinks",
    ] {
        assert!(
            held.contains(direction),
            "{direction} is not held at Cheap cost"
        );
    }
}

/// A row whose two claims sit on the wrong sides: the first is in band
/// though the table lists a deviation, the second out of band with none.
const TURNCOAT: Experiment = Experiment {
    id: "turncoat",
    paper_ref: "—",
    title: "a fixture",
    cost: Cost::Cheap,
    claims: &[
        Claim {
            id: "turncoat.recovered",
            what: "a value back in its band",
            paper: Some("1.0x"),
            accept: Accept::Within(0.5, 1.5),
            deviation: Some("it used to be out"),
        },
        Claim {
            id: "turncoat.broke",
            what: "an ordering that no longer holds",
            paper: None,
            accept: Accept::Ordering,
            deviation: None,
        },
        Claim {
            id: "turncoat.steady",
            what: "a host time in its band",
            paper: None,
            accept: Accept::HostWithin(0.0, 2.0),
            deviation: None,
        },
    ],
    run: |run| {
        run.row("a,b");
        run.value("recovered", 1.0);
        run.ordering("broke", false, "b < a");
        run.value("steady", 1.0);
    },
};

#[test]
fn a_claim_that_changes_side_is_caught_either_way_round() {
    let run = scalesim_repro::run(&TURNCOAT, &Arc::new(PlanCache::new()));
    assert_eq!(run.changed_side(), ["turncoat.recovered", "turncoat.broke"]);
    let ours: Vec<Option<&str>> = run.observed.iter().map(|o| o.ours.as_deref()).collect();
    // Host time is judged but never printed.
    assert_eq!(ours, [Some("1.00"), Some("fails: b < a"), None]);
    let section = ledger::markdown_section(&run);
    assert_eq!(section.matches("CHANGED SIDE").count(), 2, "{section}");
    assert!(section.contains("measured on every run"), "{section}");
    assert!(!ledger::json(&[run]).contains("\"ours\": \"1.0\""));
}

#[test]
#[should_panic(expected = "claims recorded vs claims declared")]
fn a_row_must_record_every_claim_it_declares() {
    const FORGETFUL: Experiment = Experiment {
        run: |run| run.value("recovered", 1.0),
        ..TURNCOAT
    };
    scalesim_repro::run(&FORGETFUL, &Arc::new(PlanCache::new()));
}

#[test]
#[should_panic(expected = "does not declare claim turncoat.invented")]
fn a_row_cannot_record_a_claim_the_table_does_not_declare() {
    const INVENTIVE: Experiment = Experiment {
        run: |run| run.ordering("invented", true, ""),
        ..TURNCOAT
    };
    scalesim_repro::run(&INVENTIVE, &Arc::new(PlanCache::new()));
}
