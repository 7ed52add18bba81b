//! # scalesim-repro
//!
//! The SCALE-Sim v3 paper's evaluation — its figures, tables and the
//! headline numbers of the abstract — as **one table** of experiments
//! ([`EXPERIMENTS`]) and **one runner** ([`run`]).
//!
//! An [`Experiment`] records a results table (printed, and written as
//! one CSV) and an observation for each of its declared [`Claim`]s: the
//! paper's value beside ours, judged against an accepted band or as an
//! ordering. A claim that is out of band must carry a `deviation` line
//! saying why, and one that carries a deviation must be out of band —
//! either way round, a claim that silently changes side fails the run.
//! [`ledger`] renders the outcomes as the checked-in `REPRODUCTION.md` /
//! `REPRODUCTION.json`, which CI re-derives and diffs.
//!
//! Experiments that are a configuration × workload grid over engine
//! results go through the product's own [`scalesim::run_sweep`] on one
//! byte-budgeted [`PlanCache`] shared by the whole process
//! (`Run::sweep`): Table V, Table VI and Fig. 15 all plan ViT-base on
//! a 128×128 weight-stationary core, once. Direct library probes call
//! their crate and share only the table, the claim type and the writers.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod grids;
pub mod ledger;
mod probes;
mod table;

pub use table::EXPERIMENTS;

use scalesim::sweep::{RunRecord, SweepReport, SweepSpec};
use scalesim::systolic::{PlanCache, Topology};
use scalesim::{run_sweep, ScaleSimConfig, SparsityMode};
use std::sync::Arc;

/// What a row costs to run — a fact about the row, not a setting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Cost {
    /// Runs in a debug-build unit test (the tier-1 suite runs these).
    Cheap,
    /// Needs a release build (the `reproduction` CI job runs these).
    Full,
}

/// How a claim's observation is judged.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Accept {
    /// A simulated quantity accepted in `[lo, hi]`.
    Within(f64, f64),
    /// A host-time measurement accepted in `[lo, hi]`: checked on every
    /// run, never written into the byte-compared ledger.
    HostWithin(f64, f64),
    /// An ordering or identity the experiment evaluates itself.
    Ordering,
}

/// One statement of the paper (or of an ablation) an experiment checks.
#[derive(Debug, Clone, Copy)]
pub struct Claim {
    /// `<experiment id>.<name>`, unique across the table.
    pub id: &'static str,
    /// What is compared, in one line.
    pub what: &'static str,
    /// The paper's value, as printed there (`None`: not a paper number).
    pub paper: Option<&'static str>,
    /// The accepted band or ordering.
    pub accept: Accept,
    /// Why ours is out of band — present exactly when it is.
    pub deviation: Option<&'static str>,
}

/// One row of the experiment table.
#[derive(Debug, Clone, Copy)]
pub struct Experiment {
    /// Stable id (`tab05_edp`); also the CSV's file stem.
    pub id: &'static str,
    /// Where the paper reports it (`Table V`, `Fig. 10`, `§IX-B`).
    pub paper_ref: &'static str,
    /// One-line title, inputs included.
    pub title: &'static str,
    /// Whether the tier-1 test can afford the row.
    pub cost: Cost,
    /// The claims the row records, each exactly once per run.
    pub claims: &'static [Claim],
    /// Runs the experiment, recording its table and claims.
    pub run: fn(&mut Run),
}

/// Our side of one claim.
#[derive(Debug, Clone, PartialEq)]
pub struct Observed {
    /// Our value as the ledger prints it (`None` for host time).
    pub ours: Option<String>,
    /// Whether it lies in the accepted band / the ordering holds.
    pub in_band: bool,
}

impl Observed {
    /// Whether the claim is on the other side of its band from where the
    /// table puts it: out of band without a deviation line, or in band
    /// with one.
    pub(crate) fn changed_side(&self, claim: &Claim) -> bool {
        self.in_band == claim.deviation.is_some()
    }
}

/// What an experiment records while it runs, and — once [`run`] returns
/// it — the finished record of that experiment.
#[derive(Debug)]
pub struct Run {
    /// The row being run.
    pub(crate) experiment: &'static Experiment,
    cache: Arc<PlanCache>,
    /// The results table as comma-separated lines, header first (also
    /// the row's CSV).
    pub table: Vec<String>,
    /// One observation per declared claim, in declaration order.
    pub observed: Vec<Observed>,
}

impl Run {
    /// Appends one comma-separated line to the table (the first is the
    /// header).
    pub fn row(&mut self, line: impl Into<String>) {
        self.table.push(line.into());
    }

    /// Runs `grid × topologies` from `base` through the product's sweep
    /// path on the process-wide plan cache, and appends the product's
    /// own `SWEEP_REPORT.csv` rows to the table under a leading `Base`
    /// column naming the two knobs that are not sweep axes (N:M sparsity
    /// and DRAM queue depth), so an experiment that sweeps several bases
    /// can tell them apart. Records come back in run order: `run = point
    /// * topologies + topology`, points in the spec's odometer order (the
    /// last row of the `AXES` table varies fastest).
    pub(crate) fn sweep(
        &mut self,
        base: &ScaleSimConfig,
        grid: &str,
        topologies: &[Topology],
    ) -> Vec<RunRecord> {
        let report = sweep_on(&self.cache, base, grid, topologies);
        let sparsity = match base.sparsity {
            Some(SparsityMode::LayerWise(ratio)) => ratio.to_string(),
            _ => "dense".into(),
        };
        let label = format!("{sparsity} queue {}", base.dram.read_queue);
        let csv = report.to_csv().replace(", ", ",");
        let mut lines = csv.lines();
        let header = lines.next().unwrap_or_default();
        if self.table.is_empty() {
            self.table.push(format!("Base,{header}"));
        }
        self.table
            .extend(lines.map(|line| format!("{label},{line}")));
        report.records().to_vec()
    }

    /// Records a numeric observation for the claim `<experiment>.<name>`,
    /// judged against its band.
    pub fn value(&mut self, name: &str, ours: f64) {
        let claim = self.claim(name);
        let (in_band, ours) = match claim.accept {
            Accept::Within(lo, hi) => ((lo..=hi).contains(&ours), Some(format!("{ours:.2}"))),
            Accept::HostWithin(lo, hi) => ((lo..=hi).contains(&ours), None),
            Accept::Ordering => panic!("{name} is an ordering; record it with `ordering`"),
        };
        self.observe(claim, ours, in_band);
    }

    /// Records an ordering or identity for the claim
    /// `<experiment>.<name>`: whether it holds, and what was seen (`""`
    /// when there is nothing to add). An ordering over host times must
    /// pass text that does not vary from run to run.
    pub fn ordering(&mut self, name: &str, holds: bool, seen: impl std::fmt::Display) {
        let claim = self.claim(name);
        assert_eq!(claim.accept, Accept::Ordering, "{name}");
        let verdict = if holds { "holds" } else { "fails" };
        let ours = format!("{verdict}: {seen}");
        let ours = Some(ours.trim_end_matches(": ").into());
        self.observe(claim, ours, holds);
    }

    fn claim(&self, name: &str) -> &'static Claim {
        let id = format!("{}.{name}", self.experiment.id);
        let found = self.experiment.claims.iter().find(|c| c.id == id);
        found.unwrap_or_else(|| panic!("the table does not declare claim {id}"))
    }

    fn observe(&mut self, claim: &Claim, ours: Option<String>, in_band: bool) {
        let next = self.experiment.claims.get(self.observed.len());
        let in_order = next.is_some_and(|next| next.id == claim.id);
        assert!(in_order, "{} recorded out of declaration order", claim.id);
        self.observed.push(Observed { ours, in_band });
    }

    /// Every declared claim beside its observation.
    pub fn claims(&self) -> impl Iterator<Item = (&'static Claim, &Observed)> {
        self.experiment.claims.iter().zip(&self.observed)
    }

    /// The ids of the claims that changed side.
    pub fn changed_side(&self) -> Vec<&'static str> {
        let changed = self
            .claims()
            .filter(|(claim, seen)| seen.changed_side(claim));
        changed.map(|(claim, _)| claim.id).collect()
    }
}

/// The product's sweep path against an explicit cache — [`Run::sweep`]
/// passes the shared one, `tab04_overhead` an empty one per timed point.
pub(crate) fn sweep_on(
    cache: &Arc<PlanCache>,
    base: &ScaleSimConfig,
    grid: &str,
    topologies: &[Topology],
) -> SweepReport {
    let spec = SweepSpec::parse(grid).unwrap_or_else(|e| panic!("experiment grid: {e}"));
    let swept = run_sweep(&spec, base, topologies, 1, cache, |_| {});
    swept.unwrap_or_else(|e| panic!("experiment grid: {e}")).0
}

/// Runs one experiment on `cache`.
///
/// # Panics
///
/// Panics when the experiment does not record each of its declared
/// claims exactly once, in declaration order — a bug in the table, not
/// a result.
pub fn run(experiment: &'static Experiment, cache: &Arc<PlanCache>) -> Run {
    let mut run = Run {
        experiment,
        cache: Arc::clone(cache),
        table: Vec::new(),
        observed: Vec::new(),
    };
    (experiment.run)(&mut run);
    let (recorded, declared) = (run.observed.len(), experiment.claims.len());
    assert_eq!(recorded, declared, "claims recorded vs claims declared");
    run
}
