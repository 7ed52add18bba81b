//! The reproduction ledger's writers: `REPRODUCTION.md` for people,
//! `REPRODUCTION.json` for tools. Both are pure functions of the
//! finished runs, and neither carries a host-time measurement, so two
//! runs of the same sources produce the same bytes.

use crate::{Accept, Claim, Observed, Run};
use scalesim::api::json::escape;

/// The accepted band as the ledger prints it.
pub fn accepted(accept: Accept) -> String {
    match accept {
        Accept::Within(lo, hi) => format!("[{lo:.2}, {hi:.2}]"),
        Accept::HostWithin(lo, hi) => format!("[{lo:.2}, {hi:.2}] (host time)"),
        Accept::Ordering => "ordering".into(),
    }
}

/// Which side of its band a claim is on, against what the table says.
pub(crate) fn status(claim: &Claim, seen: &Observed) -> &'static str {
    match seen.in_band {
        _ if seen.changed_side(claim) => "CHANGED SIDE",
        true => "in band",
        false => "deviation",
    }
}

/// One Markdown table row for a claim, ending in `last`; `|` inside a
/// cell is escaped.
fn md_row(claim: &Claim, seen: &Observed, last: &str) -> String {
    let id = format!("`{}`", claim.id);
    let ours = seen.ours.as_deref().unwrap_or("measured on every run");
    let (paper, band) = (claim.paper.unwrap_or("—"), accepted(claim.accept));
    let cells = [&id, claim.what, paper, ours, &band, last];
    format!("| {} |\n", cells.map(|c| c.replace('|', "\\|")).join(" | "))
}

/// One experiment's section of `REPRODUCTION.md` (the tier-1 test holds
/// every `Cheap` row's section against the checked-in file).
pub fn markdown_section(run: &Run) -> String {
    let e = run.experiment;
    let mut out = format!("## `{}` — {}\n\n{}.\n\n", e.id, e.paper_ref, e.title);
    out += "| claim | what | paper | ours | accepted | |\n|---|---|---|---|---|---|\n";
    for (claim, seen) in run.claims() {
        out += &md_row(claim, seen, status(claim, seen));
    }
    out
}

/// The whole `REPRODUCTION.md`.
pub fn markdown(runs: &[Run]) -> String {
    let mut out = String::from(
        "# Reproduction ledger\n\n\
         Generated by `cargo run --release -p scalesim-repro` from the experiment table in\n\
         `crates/repro/src/table.rs`; CI re-derives it and fails on any difference. Do not edit.\n\n\
         Every claim is the paper's value beside ours and the band (or ordering) we accept as a\n\
         reproduction. A claim outside its band is a **deviation**: it is listed first, with the\n\
         reason it is out, and stays listed until the model changes — a claim that changes side\n\
         in either direction fails the run. Host-time claims (Table IV) are checked on every run\n\
         but their measured values are not written here.\n\n## Deviations\n\n\
         | claim | what | paper | ours | accepted | why |\n|---|---|---|---|---|---|\n",
    );
    let out_of_band = |(_, seen): &(&Claim, &Observed)| !seen.in_band;
    for (claim, seen) in runs.iter().flat_map(Run::claims).filter(out_of_band) {
        let why = claim.deviation.unwrap_or("CHANGED SIDE: no reason given");
        out += &md_row(claim, seen, why);
    }
    for run in runs {
        out += "\n";
        out += &markdown_section(run);
    }
    out
}

/// The whole `REPRODUCTION.json`: one object per experiment, one per
/// claim; `ours` is `null` for host-time claims, `deviation` is `null`
/// for claims the table expects in band.
pub fn json(runs: &[Run]) -> String {
    let text = |s: &str| format!("\"{}\"", escape(s));
    let optional = |s: Option<&str>| s.map_or("null".into(), text);
    let claim = |(c, seen): (&Claim, &Observed)| {
        let (id, what, paper) = (text(c.id), text(c.what), optional(c.paper));
        let ours = optional(seen.ours.as_deref());
        let (band, in_band) = (text(&accepted(c.accept)), seen.in_band);
        let why = optional(c.deviation);
        format!(
            "    {{\"id\": {id}, \"what\": {what}, \"paper\": {paper}, \"ours\": {ours}, \
             \"accepted\": {band}, \"in_band\": {in_band}, \"deviation\": {why}}}"
        )
    };
    let experiment = |run: &Run| {
        let e = run.experiment;
        let claims: Vec<String> = run.claims().map(claim).collect();
        let (id, paper_ref, title) = (text(e.id), text(e.paper_ref), text(e.title));
        let (cost, claims) = (e.cost, claims.join(",\n"));
        format!(
            "  {{\"id\": {id}, \"paper_ref\": {paper_ref}, \"title\": {title}, \
             \"cost\": \"{cost:?}\", \"claims\": [\n{claims}\n  ]}}"
        )
    };
    let experiments: Vec<String> = runs.iter().map(experiment).collect();
    format!("{{\"experiments\": [\n{}\n]}}\n", experiments.join(",\n"))
}
