//! Sweep specification: which axes to sweep and over which values.
//!
//! A spec is a small text file in the dialect SCALE-Sim `.cfg` files
//! use, lexed by the same [`scalesim_systolic::dialect`]. Every *grid*
//! key lists one or more comma-separated values; the sweep is the
//! Cartesian product of all listed axes. Omitted axes inherit the base
//! configuration the sweep is run against (`scalesim sweep -c base.cfg`
//! or the built-in default).
//!
//! The axes are data: one [`AxisValue`] variant and one row of the
//! `AXES` table each. Parsing, grid size, expansion and labelling walk
//! the table; nothing else names an axis.
//!
//! ```text
//! [sweep]
//! name = example
//!
//! [grid]
//! array     = 8x8, 16x16, 16x64      # PE array RxC
//! dataflow  = os, ws                 # os / ws / is
//! sram_kb   = 256/256/128            # ifmap/filter/ofmap SRAM, kB
//! bandwidth = 10, 20                 # DRAM words per cycle
//! cores     = 1x1                    # tensor-core grid (1x1 = single)
//! dram      = false                  # cycle-accurate DRAM flow
//! energy    = true                   # energy/power estimation
//! layout    = false                  # bank-conflict layout analysis
//!
//! [workloads]
//! topology = topologies/vit_small_gemm.csv, topologies/alexnet.csv
//! ```

use scalesim_collective::Strategy;
use scalesim_llm::Phase;
use scalesim_mem::DramSpec;
use scalesim_multicore::PartitionGrid;
use scalesim_systolic::dialect::{self, Entry};
use scalesim_systolic::{ArrayShape, Dataflow};

/// A parse failure, naming the offending key/value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpecError(pub String);

impl std::fmt::Display for SpecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "sweep spec: {}", self.0)
    }
}

impl std::error::Error for SpecError {}

/// One swept value; the variant names the axis. An axis is declared in
/// four places: a variant here, a row of `AXES`, an arm of the label
/// `match` below, and an arm of `scalesim::apply_point`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AxisValue {
    /// PE array shape (`array = 8x8, 16x64`).
    Array(ArrayShape),
    /// Dataflow (`dataflow = os, ws, is`).
    Dataflow(Dataflow),
    /// Ifmap, filter, ofmap SRAM kilobytes (`sram_kb = 256/256/128`).
    SramKb(usize, usize, usize),
    /// DRAM interface bandwidth, words/cycle (`bandwidth = 10, 20`).
    Bandwidth(f64),
    /// Tensor-core grid (`cores = 1x1, 2x2`); `1x1` is single-core.
    Cores(PartitionGrid),
    /// Cycle-accurate DRAM flow on/off (`dram = false, true`).
    Dram(bool),
    /// DRAM device preset, a `DramSpec::preset_names` entry
    /// (`dram_model = ddr4_2400, hbm2`); only matters with `dram` on.
    DramModel(&'static str),
    /// Energy estimation on/off (`energy = true`).
    Energy(bool),
    /// Layout bank-conflict analysis on/off (`layout = false`).
    Layout(bool),
    /// Scale-out chip count (`chips = 1, 8, 64`); `1` is single-chip.
    Chips(usize),
    /// Scale-out per-link bandwidth, GB/s (`link_gbps = 25, 100`).
    LinkGbps(f64),
    /// Scale-out strategy (`strategy = data, tensor, pipeline`).
    Strategy(Strategy),
    /// LLM sequence length (`seq = 128, 1024`); this and the next two
    /// need an `[llm]` model in the base config (the runner checks).
    Seq(usize),
    /// LLM batch size (`batch = 1, 8`).
    Batch(usize),
    /// LLM phase (`phase = prefill, decode`).
    Phase(Phase),
}

/// One row of the axis table: the accepted key spellings (the first
/// names the axis in errors); where the axis's fragment sits in a point
/// label — not the row order: `dram_model` expands right after `dram`
/// but labels after `layout`, and the report goldens pin both —; and
/// the parser for one list item, given the axis name to blame.
type Axis = (
    &'static [&'static str],
    usize,
    fn(&str, &str) -> Result<AxisValue, String>,
);

/// Every sweep axis, in odometer order (the last row varies fastest).
const AXES: [Axis; 15] = [
    (&["array", "arrays"], 0, |k, v| {
        dialect::rxc(k, v).map(|(r, c)| AxisValue::Array(ArrayShape::new(r, c)))
    }),
    (&["dataflow", "dataflows"], 1, |_, v| {
        Dataflow::parse(v).map(AxisValue::Dataflow)
    }),
    (&["sram_kb", "sram"], 2, sram_kb),
    (&["bandwidth", "bandwidths"], 3, |k, v| {
        dialect::positive(k, v).map(AxisValue::Bandwidth)
    }),
    (&["cores", "core_grid"], 4, |k, v| {
        let grid = PartitionGrid::parse(v).map(AxisValue::Cores);
        grid.ok_or_else(|| format!("bad {k} '{v}' (expected PRxPC, e.g. 2x2)"))
    }),
    (&["dram"], 5, |k, v| {
        dialect::boolean(k, v).map(AxisValue::Dram)
    }),
    (&["dram_model", "dram_models"], 8, dram_model),
    (&["energy"], 6, |k, v| {
        dialect::boolean(k, v).map(AxisValue::Energy)
    }),
    (&["layout"], 7, |k, v| {
        dialect::boolean(k, v).map(AxisValue::Layout)
    }),
    (&["chips"], 9, |k, v| {
        dialect::count(k, v).map(AxisValue::Chips)
    }),
    (&["link_gbps", "linkgbps"], 10, |k, v| {
        dialect::positive(k, v).map(AxisValue::LinkGbps)
    }),
    (&["strategy", "strategies"], 11, |_, v| {
        Strategy::parse(v).map(AxisValue::Strategy)
    }),
    (&["seq", "seqs"], 12, |k, v| {
        dialect::count(k, v).map(AxisValue::Seq)
    }),
    (&["batch", "batches"], 13, |k, v| {
        dialect::count(k, v).map(AxisValue::Batch)
    }),
    (&["phase", "phases"], 14, |_, v| {
        Phase::parse(v).map(AxisValue::Phase)
    }),
];

/// The row of the axis spelled `name`.
fn axis_row(name: &str) -> Option<usize> {
    AXES.iter().position(|(names, ..)| names.contains(&name))
}

fn sram_kb(what: &str, v: &str) -> Result<AxisValue, String> {
    let parts: Vec<&str> = v.split('/').map(str::trim).collect();
    let [ifmap, filter, ofmap] = parts[..] else {
        return Err(format!(
            "bad {what} '{v}' (expected ifmap/filter/ofmap, e.g. 512/512/256)"
        ));
    };
    let kb = |s| dialect::count("SRAM size", s);
    Ok(AxisValue::SramKb(kb(ifmap)?, kb(filter)?, kb(ofmap)?))
}

fn dram_model(what: &str, v: &str) -> Result<AxisValue, String> {
    let names = DramSpec::preset_names();
    let name = names.into_iter().find(|n| n.eq_ignore_ascii_case(v));
    name.map(AxisValue::DramModel)
        .ok_or_else(|| format!("unknown {what} '{v}' (supported: {})", names.join(", ")))
}

/// A parsed sweep specification: the value list of every swept axis.
///
/// An axis with no values is "not swept" — every point inherits the
/// base configuration for that knob (see [`SweepPoint`]).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SweepSpec {
    /// Sweep name (used in report headers); defaults to `"sweep"`.
    pub name: String,
    /// Listed values, one list per `AXES` row.
    axes: [Vec<AxisValue>; AXES.len()],
    /// Workload topology CSV paths (`topology = a.csv, b.csv`;
    /// repeatable). The CLI may append more with `-t`.
    pub topologies: Vec<String>,
}

impl SweepSpec {
    /// Parses a sweep spec from its text form.
    ///
    /// Unknown keys are errors (a typo'd axis silently inheriting the
    /// base config would invalidate a whole sweep); section headers
    /// only group keys for the reader.
    ///
    /// ```
    /// use scalesim_sweep::SweepSpec;
    ///
    /// let spec = SweepSpec::parse(
    ///     "[sweep]\n\
    ///      name = demo\n\
    ///      [grid]\n\
    ///      array    = 8x8, 16x16\n\
    ///      dataflow = ws\n\
    ///      [workloads]\n\
    ///      topology = topologies/alexnet.csv\n",
    /// )
    /// .unwrap();
    /// assert_eq!(spec.name, "demo");
    /// assert_eq!(spec.axis("array").len(), 2);
    /// assert_eq!(spec.topologies, ["topologies/alexnet.csv"]);
    /// ```
    ///
    /// # Errors
    ///
    /// Returns a [`SpecError`] naming the first malformed key or value.
    pub fn parse(text: &str) -> Result<SweepSpec, SpecError> {
        let mut spec = SweepSpec {
            name: "sweep".into(),
            ..SweepSpec::default()
        };
        for entry in dialect::entries(text) {
            let Entry { key, value, .. } = entry.map_err(SpecError)?;
            match key.as_str() {
                "name" => spec.name = value.to_string(),
                "topology" | "topologies" => {
                    spec.topologies
                        .extend(dialect::list(value).map(String::from));
                }
                _ => spec.push_axis(&key, value).map_err(SpecError)?,
            }
        }
        Ok(spec)
    }

    fn push_axis(&mut self, key: &str, value: &str) -> Result<(), String> {
        let row = axis_row(key).ok_or_else(|| format!("unknown key '{key}'"))?;
        let (names, _, parse) = AXES[row];
        for v in dialect::list(value) {
            self.axes[row].push(parse(names[0], v)?);
        }
        Ok(())
    }

    /// The values listed for the axis spelled `name` (empty when the
    /// axis is not swept or no axis has that spelling).
    pub fn axis(&self, name: &str) -> &[AxisValue] {
        axis_row(name).map_or(&[], |row| &self.axes[row])
    }

    /// Number of grid points the spec expands to (the product of all
    /// non-empty axis lengths).
    pub fn grid_size(&self) -> usize {
        self.axes.iter().map(|axis| axis.len().max(1)).product()
    }

    /// Expands the spec into the full Cartesian product of its axes, in
    /// a stable odometer order (the last listed axis varies fastest).
    ///
    /// ```
    /// use scalesim_sweep::spec::AxisValue;
    /// use scalesim_sweep::SweepSpec;
    ///
    /// let spec = SweepSpec::parse(
    ///     "array = 8x8, 16x16\nbandwidth = 10, 20, 40\n",
    /// )
    /// .unwrap();
    /// let grid = spec.expand();
    /// assert_eq!(grid.len(), 6); // 2 arrays x 3 bandwidths
    /// // The first point holds the first value of every swept axis;
    /// // un-swept axes are absent (they inherit the base config).
    /// let first: Vec<AxisValue> = grid[0].values().collect();
    /// assert_eq!(first, [spec.axis("array")[0], AxisValue::Bandwidth(10.0)]);
    /// assert_eq!(grid[0].label(), "8x8-bw10");
    /// ```
    pub fn expand(&self) -> Vec<SweepPoint> {
        (0..self.grid_size())
            .map(|index| {
                let mut values = [None; AXES.len()];
                let mut rest = index;
                for (slot, axis) in values.iter_mut().zip(&self.axes).rev() {
                    if !axis.is_empty() {
                        *slot = Some(axis[rest % axis.len()]);
                        rest /= axis.len();
                    }
                }
                SweepPoint { index, values }
            })
            .collect()
    }
}

/// One concrete grid point: the value of every swept axis. Axes the
/// spec does not sweep are absent — the base configuration applies.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SweepPoint {
    /// Position in the expanded grid (stable across runs).
    pub index: usize,
    /// The point's value per `AXES` row; `None` where not swept.
    values: [Option<AxisValue>; AXES.len()],
}

impl SweepPoint {
    /// The swept values, in odometer (axis-table) order.
    pub fn values(&self) -> impl Iterator<Item = AxisValue> + '_ {
        self.values.iter().flatten().copied()
    }

    /// A compact, stable, human-readable label naming the swept values
    /// (`"16x64-ws-s256/256/128-bw20"`); `"base"` when nothing is swept.
    pub fn label(&self) -> String {
        let ranked = self.values.iter().zip(&AXES);
        let mut parts: Vec<(usize, String)> = ranked
            .filter_map(|(value, (_, rank, _))| Some((*rank, value.as_ref()?.fragment())))
            .collect();
        if parts.is_empty() {
            return "base".into();
        }
        parts.sort_by_key(|&(rank, _)| rank);
        let parts: Vec<String> = parts.into_iter().map(|(_, text)| text).collect();
        parts.join("-")
    }
}

impl AxisValue {
    /// This value's piece of a point label.
    fn fragment(&self) -> String {
        let number = |tag: &str, x: f64| {
            if x.fract() == 0.0 {
                format!("{tag}{}", x as u64)
            } else {
                format!("{tag}{x}")
            }
        };
        match *self {
            AxisValue::Array(a) => format!("{}x{}", a.rows(), a.cols()),
            AxisValue::Dataflow(d) => d.short_name().into(),
            AxisValue::SramKb(i, f, o) => format!("s{i}/{f}/{o}"),
            AxisValue::Bandwidth(bw) => number("bw", bw),
            AxisValue::Cores(g) => format!("c{}x{}", g.pr, g.pc),
            AxisValue::Dram(on) => format!("dram{}", u8::from(on)),
            AxisValue::DramModel(name) => name.into(),
            AxisValue::Energy(on) => format!("e{}", u8::from(on)),
            AxisValue::Layout(on) => format!("lay{}", u8::from(on)),
            AxisValue::Chips(p) => format!("p{p}"),
            AxisValue::LinkGbps(g) => number("g", g),
            AxisValue::Strategy(s) => s.tag().into(),
            AxisValue::Seq(n) => format!("s{n}"),
            AxisValue::Batch(n) => format!("b{n}"),
            AxisValue::Phase(p) => p.label().into(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Per `AXES` row: one value's spec text and its label fragment.
    const EVERY_AXIS: [(&str, &str); AXES.len()] = [
        ("16x64", "16x64"),
        ("ws", "ws"),
        ("256/256/128", "s256/256/128"),
        ("20", "bw20"),
        ("2x2", "c2x2"),
        ("true", "dram1"),
        ("HBM2", "hbm2"),
        ("on", "e1"),
        ("false", "lay0"),
        ("8", "p8"),
        ("100", "g100"),
        ("data", "dp"),
        ("1024", "s1024"),
        ("8", "b8"),
        ("decode", "dec"),
    ];

    #[test]
    fn every_axis_parses_under_every_spelling_and_labels_its_fragment() {
        for ((names, ..), (text, fragment)) in AXES.iter().zip(EVERY_AXIS) {
            for name in *names {
                let spec = SweepSpec::parse(&format!("{name} = {text}\n")).unwrap();
                assert_eq!(spec.axis(names[0]).len(), 1, "{name}");
                let grid = spec.expand();
                assert_eq!(grid.len(), 1);
                assert_eq!(grid[0].label(), fragment, "{name} = {text}");
            }
        }
        // Fractional numbers keep their fraction.
        let spec = SweepSpec::parse("bandwidth = 2.5\nlink_gbps = 12.5\n").unwrap();
        assert_eq!(spec.expand()[0].label(), "bw2.5-g12.5");
    }

    #[test]
    fn label_order_puts_dram_model_after_layout() {
        // Odometer order is the AXES row order, but the label order is
        // pinned by the report goldens: `dram_model` expands right after
        // `dram` yet labels after `layout`.
        let text: String = (AXES.iter().zip(EVERY_AXIS))
            .map(|((names, ..), (text, _))| format!("{} = {text}\n", names[0]))
            .collect();
        let grid = SweepSpec::parse(&text).unwrap().expand();
        assert_eq!(grid.len(), 1);
        assert_eq!(
            grid[0].label(),
            "16x64-ws-s256/256/128-bw20-c2x2-dram1-e1-lay0-hbm2-p8-g100-dp-s1024-b8-dec"
        );
        let mut ranks: Vec<usize> = AXES.iter().map(|(_, rank, _)| *rank).collect();
        ranks.sort_unstable();
        assert_eq!(ranks, (0..AXES.len()).collect::<Vec<_>>(), "a permutation");
    }

    #[test]
    fn every_axis_is_documented_in_the_cli_reference() {
        let doc = concat!(env!("CARGO_MANIFEST_DIR"), "/../../docs/CLI.md");
        let doc = std::fs::read_to_string(doc).unwrap();
        for ((names, ..), (_, fragment)) in AXES.iter().zip(EVERY_AXIS) {
            for documented in names.iter().chain([&fragment]) {
                assert!(doc.contains(&format!("`{documented}`")), "{documented}");
            }
        }
    }

    /// SplitMix64: tiny, seedable, good-enough mixing for test generation.
    struct SplitMix64(u64);

    impl SplitMix64 {
        fn below(&mut self, n: u64) -> u64 {
            self.0 = self.0.wrapping_add(0x9e3779b97f4a7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
            (z ^ (z >> 31)) % n
        }
    }

    /// `len` distinct values of AXES row `row`, as spec text.
    fn axis_values(row: usize, len: usize) -> Vec<String> {
        const MODELS: [&str; 3] = ["ddr4_2400", "hbm2", "wio2"];
        (0..len)
            .map(|i| match AXES[row].0[0] {
                "array" | "cores" => format!("{}x2", i + 1),
                "dataflow" => Dataflow::ALL[i].short_name().into(),
                "sram_kb" => format!("{}/64/64", 64 * (i + 1)),
                "dram" | "energy" | "layout" => (i == 1).to_string(),
                "dram_model" => MODELS[i].into(),
                "strategy" => ["data", "tensor", "pipeline"][i].into(),
                "phase" => ["prefill", "decode"][i].into(),
                _ => (i + 1).to_string(),
            })
            .collect()
    }

    #[test]
    fn expansion_is_an_odometer_over_the_listed_axes() {
        for seed in 0..200u64 {
            let mut rng = SplitMix64(seed);
            // A random subset of axes with random lengths (booleans and
            // phases have two distinct values, the rest at least three).
            let mut text = String::new();
            let mut lens = Vec::new();
            for (row, (names, ..)) in AXES.iter().enumerate() {
                if rng.below(3) == 0 {
                    let most = match names[0] {
                        "dram" | "energy" | "layout" | "phase" => 2,
                        _ => 3,
                    };
                    let len = 1 + rng.below(most) as usize;
                    text += &format!("{} = {}\n", names[0], axis_values(row, len).join(", "));
                    lens.push(len);
                }
            }
            let spec = SweepSpec::parse(&text).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
            let grid = spec.expand();
            let size: usize = lens.iter().product();
            assert_eq!(spec.grid_size(), size, "seed {seed}:\n{text}");
            assert_eq!(grid.len(), size, "seed {seed}:\n{text}");
            let mut labels = std::collections::HashSet::new();
            for (position, point) in grid.iter().enumerate() {
                assert_eq!(point.index, position, "seed {seed}:\n{text}");
                assert_eq!(point.values().count(), lens.len(), "seed {seed}:\n{text}");
                assert!(labels.insert(point.label()), "seed {seed}: duplicate label");
                // Mixed-radix digits of the position, last axis fastest.
                let mut rest = position;
                let listed = spec.axes.iter().filter(|axis| !axis.is_empty()).rev();
                let values: Vec<AxisValue> = point.values().collect();
                for (value, axis) in values.iter().rev().zip(listed) {
                    assert_eq!(*value, axis[rest % axis.len()], "seed {seed}:\n{text}");
                    rest /= axis.len();
                }
            }
        }
    }

    #[test]
    fn comments_and_separators() {
        let spec =
            SweepSpec::parse("# c\narray : 4x4  # inline\n; other\nbandwidth = 2.5\n").unwrap();
        assert_eq!(
            spec.axis("array"),
            [AxisValue::Array(ArrayShape::new(4, 4))]
        );
        assert_eq!(spec.axis("bandwidth"), [AxisValue::Bandwidth(2.5)]);
    }

    #[test]
    fn lists_names_and_topologies() {
        let spec = SweepSpec::parse(
            "[sweep]\nname = full\n[grid]\narray = 8x8, 16x64\ndram = false, true\n\
             dram_model = ddr4_2400, HBM2\n[workloads]\ntopology = a.csv, b.csv\ntopology = c.csv\n",
        )
        .unwrap();
        assert_eq!(spec.name, "full");
        assert_eq!(spec.axis("arrays").len(), 2);
        assert_eq!(
            spec.axis("dram"),
            [AxisValue::Dram(false), AxisValue::Dram(true)]
        );
        assert_eq!(
            spec.axis("dram_model"),
            [
                AxisValue::DramModel("ddr4_2400"),
                AxisValue::DramModel("hbm2")
            ]
        );
        assert_eq!(spec.topologies, ["a.csv", "b.csv", "c.csv"]);
        assert_eq!(spec.grid_size(), 2 * 2 * 2);
        assert!(spec.axis("no_such_axis").is_empty());
        assert_eq!(SweepSpec::parse("").unwrap().name, "sweep");
    }

    #[test]
    fn empty_spec_is_one_base_point() {
        let spec = SweepSpec::parse("").unwrap();
        assert_eq!(spec.grid_size(), 1);
        let grid = spec.expand();
        assert_eq!(grid.len(), 1);
        assert_eq!(grid[0].label(), "base");
    }

    #[test]
    fn expansion_order_is_odometer() {
        let spec = SweepSpec::parse("array = 1x1, 2x2\nbandwidth = 1, 2\n").unwrap();
        let labels: Vec<String> = spec.expand().iter().map(|p| p.label()).collect();
        assert_eq!(labels, ["1x1-bw1", "1x1-bw2", "2x2-bw1", "2x2-bw2"]);
        // Row order, not the order the spec lists the keys in.
        let spec = SweepSpec::parse("phase = prefill, decode\nseq = 8, 16\n").unwrap();
        let labels: Vec<String> = spec.expand().iter().map(|p| p.label()).collect();
        assert_eq!(labels, ["s8-pf", "s8-dec", "s16-pf", "s16-dec"]);
    }

    #[test]
    fn unknown_dram_model_error_names_the_vocabulary() {
        let err = SweepSpec::parse("dram_model = ddr9\n")
            .unwrap_err()
            .to_string();
        assert!(err.contains("unknown dram_model 'ddr9'"), "{err}");
        for name in DramSpec::preset_names() {
            assert!(err.contains(name), "vocabulary misses {name}: {err}");
        }
    }

    #[test]
    fn errors_name_the_problem() {
        for (text, needle) in [
            ("array = 8\n", "bad array"),
            ("array = 0x8\n", "bad array dimension"),
            ("dataflow = zz\n", "unknown dataflow"),
            ("sram_kb = 1/2\n", "bad sram_kb"),
            ("sram_kb = 1/0/2\n", "bad SRAM size"),
            ("bandwidth = fast\n", "bad bandwidth"),
            ("bandwidth = -1\n", "positive"),
            ("cores = 0x2\n", "bad cores"),
            ("dram = maybe\n", "bad boolean"),
            ("chips = 0\n", "bad chips"),
            ("link_gbps = -4\n", "positive"),
            ("strategy = zz\n", "unknown strategy"),
            ("seq = 0\n", "bad seq"),
            ("batch = none\n", "bad batch"),
            ("phase = zz\n", "unknown phase"),
            ("wat = 1\n", "unknown key"),
            ("just words\n", "malformed line"),
        ] {
            let err = SweepSpec::parse(text).unwrap_err().to_string();
            assert!(err.contains(needle), "'{text}' -> '{err}'");
            assert!(err.starts_with("sweep spec: "), "{err}");
        }
    }
}
