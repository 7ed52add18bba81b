//! Unit tests of `layout::spec`, `sweep::spec`, `collective::spec`.

mod tests {
    // layout::spec
    use crate::layout::spec::*;

    #[test]
    #[allow(clippy::identity_op)] // spelled-out factors mirror the worked example
    fn fig11_worked_example() {
        // C=64, H=8, W=8 with C64 H8 W8 _ W2 H4 C16.
        let dims = TensorDims::new(64, 8, 8);
        let l = LayoutSpec::fig11();
        assert_eq!(l.line_elems(), 128);
        // First line holds W0:1 × H0:3 × C0:15 (see Fig. 11 detail view).
        let (line0, col0) = l.place(dims, 0, 0, 0);
        assert_eq!((line0, col0), (0, 0));
        let (line, col) = l.place(dims, 15, 3, 1);
        assert_eq!(line, 0);
        assert_eq!(col, 1 * 4 * 16 + 3 * 16 + 15); // = 127, last column
                                                   // W0 H0 C16 starts a new line tile in the c1 direction: line jumps
                                                   // by H-tiles × W-tiles = 2 × 4 = 8.
        let (line_c16, _) = l.place(dims, 16, 0, 0);
        assert_eq!(line_c16, 8);
        // Next h tile: line + W-tiles.
        let (line_h4, _) = l.place(dims, 0, 4, 0);
        assert_eq!(line_h4, 4);
        // Next w tile: line + 1.
        let (line_w2, _) = l.place(dims, 0, 0, 2);
        assert_eq!(line_w2, 1);
    }

    #[test]
    fn fig11_bank_assignment() {
        // 16 banks × 8 elements per bank-line = 128-element lines.
        let dims = TensorDims::new(64, 8, 8);
        let l = LayoutSpec::fig11();
        let p = l.place_banked(dims, 0, 0, 0, 8, 16);
        assert_eq!(p.bank, 0);
        let p = l.place_banked(dims, 15, 3, 1, 8, 16);
        assert_eq!(p.bank, 15, "column 127 → bank 15 (Fig. 11)");
        let p = l.place_banked(dims, 8, 0, 0, 8, 16);
        assert_eq!(p.bank, 1, "column 8 starts bank 1");
    }

    #[test]
    fn placement_is_a_bijection() {
        let dims = TensorDims::new(8, 6, 10);
        let l = LayoutSpec::new(4, 3, 5);
        let mut seen = std::collections::HashSet::new();
        for c in 0..dims.c {
            for h in 0..dims.h {
                for w in 0..dims.w {
                    let (line, col) = l.place(dims, c, h, w);
                    assert!(col < l.line_elems());
                    assert!(line < l.lines_needed(dims));
                    assert!(seen.insert((line, col)), "collision at ({line},{col})");
                }
            }
        }
        assert_eq!(seen.len(), dims.c * dims.h * dims.w);
    }

    #[test]
    fn matrix_helpers() {
        let dims = TensorDims::matrix(4, 8);
        let rm = LayoutSpec::row_major(8);
        // One matrix row per line.
        let (l0, _) = rm.place(dims, 0, 0, 7);
        let (l1, _) = rm.place(dims, 0, 1, 0);
        assert_eq!(l0, 0);
        assert_eq!(l1, 1);
        let cm = LayoutSpec::column_major(4);
        // One matrix column per line.
        let (lc, _) = cm.place(dims, 0, 3, 0);
        let (lc2, _) = cm.place(dims, 0, 0, 1);
        assert_eq!(lc, 0);
        assert_eq!(lc2, 1);
    }

    #[test]
    fn lines_needed_counts_partial_tiles() {
        let dims = TensorDims::new(5, 5, 5);
        let l = LayoutSpec::new(2, 2, 2);
        assert_eq!(l.lines_needed(dims), 3 * 3 * 3);
    }

    // sweep::spec
    use crate::sweep::spec::*;
    use scalesim_mem::DramSpec;
    use scalesim_systolic::{ArrayShape, Dataflow};

    /// The values listed for the axis spelled `name`.
    fn axis<'a>(spec: &'a SweepSpec, name: &str) -> &'a [AxisValue] {
        &spec.axes[axis_row(name).unwrap()]
    }

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
                assert_eq!(axis(&spec, names[0]).len(), 1, "{name}");
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
            axis(&spec, "array"),
            [AxisValue::Array(ArrayShape::new(4, 4))]
        );
        assert_eq!(axis(&spec, "bandwidth"), [AxisValue::Bandwidth(2.5)]);
    }

    #[test]
    fn lists_names_and_topologies() {
        let spec = SweepSpec::parse(
            "[sweep]\nname = full\n[grid]\narray = 8x8, 16x64\ndram = false, true\n\
             dram_model = ddr4_2400, HBM2\n[workloads]\ntopology = a.csv, b.csv\ntopology = c.csv\n",
        )
        .unwrap();
        assert_eq!(spec.name, "full");
        assert_eq!(axis(&spec, "arrays").len(), 2);
        assert_eq!(
            axis(&spec, "dram"),
            [AxisValue::Dram(false), AxisValue::Dram(true)]
        );
        assert_eq!(
            axis(&spec, "dram_model"),
            [
                AxisValue::DramModel("ddr4_2400"),
                AxisValue::DramModel("hbm2")
            ]
        );
        assert_eq!(spec.topologies, ["a.csv", "b.csv", "c.csv"]);
        assert_eq!(spec.grid_size(), 2 * 2 * 2);
        assert!(axis_row("no_such_axis").is_none());
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

    // collective::spec
    use crate::collective::fabric::FabricKind;
    use crate::collective::spec::*;

    #[test]
    fn defaults_resolve_to_a_valid_ring() {
        let spec = ScaleoutSpec::default();
        let fabric = spec.fabric().unwrap();
        assert_eq!(fabric.chips(), 8);
        assert_eq!(fabric.kind().tag(), "ring");
    }

    #[test]
    fn mesh_defaults_to_near_square() {
        assert_eq!(near_square_mesh(8), (2, 4));
        assert_eq!(near_square_mesh(16), (4, 4));
        assert_eq!(near_square_mesh(7), (1, 7));
        assert_eq!(near_square_mesh(1), (1, 1));
        let spec = ScaleoutSpec {
            chips: 12,
            fabric: FabricTag::Mesh,
            ..Default::default()
        };
        assert_eq!(
            spec.fabric().unwrap().kind(),
            FabricKind::Mesh2D { rows: 3, cols: 4 }
        );
    }

    #[test]
    fn explicit_mesh_dims_are_validated() {
        let spec = ScaleoutSpec {
            chips: 8,
            fabric: FabricTag::Mesh,
            mesh: Some((3, 3)),
            ..Default::default()
        };
        assert!(spec.fabric().unwrap_err().contains("mesh 3x3"));
    }

    #[test]
    fn zero_microbatches_is_rejected() {
        let spec = ScaleoutSpec {
            microbatches: 0,
            ..Default::default()
        };
        assert!(spec.fabric().unwrap_err().contains("microbatches"));
    }

    #[test]
    fn fabric_tags_parse() {
        assert_eq!(FabricTag::parse("RING").unwrap(), FabricTag::Ring);
        assert_eq!(FabricTag::parse("mesh").unwrap(), FabricTag::Mesh);
        assert_eq!(FabricTag::parse("switch").unwrap(), FabricTag::Switch);
        assert!(FabricTag::parse("torus").unwrap_err().contains("'torus'"));
    }
}
