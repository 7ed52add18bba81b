//! Workload topologies: convolution and GEMM layer descriptors, the
//! conv→GEMM (im2col) lowering, and SCALE-Sim-compatible CSV parsing.
//!
//! SCALE-Sim v2/v3 accept network topologies as CSV rows of the form
//!
//! ```text
//! Layer name, IFMAP Height, IFMAP Width, Filter Height, Filter Width,
//! Channels, Num Filter, Strides,
//! ```
//!
//! GEMM workloads use the `M, K, N` form. Both are supported here, plus an
//! optional trailing `SparsitySupport` column (`N:M`) as introduced by v3.

use crate::error::SimError;
use std::fmt;

/// Shape of a GEMM `C[M×N] = A[M×K] · B[K×N]`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct GemmShape {
    /// Rows of `A` and `C` (for conv: number of output pixels).
    pub m: usize,
    /// Columns of `B` and `C` (for conv: number of filters).
    pub n: usize,
    /// Contraction dimension (for conv: filter volume `Fh·Fw·Cin`).
    pub k: usize,
}

impl GemmShape {
    /// Creates a GEMM shape.
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero.
    pub fn new(m: usize, n: usize, k: usize) -> Self {
        assert!(m > 0 && n > 0 && k > 0, "GEMM dimensions must be non-zero");
        Self { m, n, k }
    }

    /// The shape, when no dimension is zero and neither its MAC count
    /// `M·K·N` nor its footprint `M·K + K·N + M·N` overflows.
    pub(crate) fn checked(m: usize, n: usize, k: usize) -> Option<Self> {
        let (mk, kn, mn) = (m.checked_mul(k)?, k.checked_mul(n)?, m.checked_mul(n)?);
        let (_macs, _footprint) = (mk.checked_mul(n)?, mk.checked_add(kn)?.checked_add(mn)?);
        (m > 0 && n > 0 && k > 0).then_some(Self { m, n, k })
    }

    /// Total multiply-accumulate operations for a dense GEMM.
    pub fn macs(&self) -> u64 {
        self.m as u64 * self.n as u64 * self.k as u64
    }
}

impl fmt::Display for GemmShape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "M{}xN{}xK{}", self.m, self.n, self.k)
    }
}

/// A convolution layer in SCALE-Sim's topology format.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConvLayer {
    /// Layer name (free-form, used in reports).
    pub name: String,
    /// Input feature-map height.
    pub ifmap_h: usize,
    /// Input feature-map width.
    pub ifmap_w: usize,
    /// Filter height.
    pub filter_h: usize,
    /// Filter width.
    pub filter_w: usize,
    /// Input channels.
    pub channels: usize,
    /// Number of filters (output channels).
    pub num_filters: usize,
    /// Convolution stride (same in both dimensions).
    pub stride: usize,
}

impl ConvLayer {
    /// Output feature-map height (valid padding, as SCALE-Sim assumes).
    pub fn ofmap_h(&self) -> usize {
        (self.ifmap_h - self.filter_h) / self.stride + 1
    }

    /// Output feature-map width.
    pub(crate) fn ofmap_w(&self) -> usize {
        (self.ifmap_w - self.filter_w) / self.stride + 1
    }

    /// Lowers the convolution to a GEMM via im2col:
    /// `M = Oh·Ow`, `N = num_filters`, `K = Fh·Fw·Cin`.
    pub(crate) fn to_gemm(&self) -> GemmShape {
        GemmShape::new(
            self.ofmap_h() * self.ofmap_w(),
            self.num_filters,
            self.filter_h * self.filter_w * self.channels,
        )
    }

    /// Checks dimensional sanity: the filter fits in the ifmap, nothing
    /// is zero, and neither `M·K·N` nor `M·K + K·N + M·N` of the lowered
    /// GEMM overflows.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidLayer`] saying which check failed.
    pub(crate) fn validate(&self) -> Result<(), SimError> {
        let gemm = || {
            // Checked: a zero filter over a `usize::MAX` ifmap at stride
            // 1 has `usize::MAX + 1` output pixels.
            let out = |ifmap: usize, filter: usize| ((ifmap - filter) / self.stride).checked_add(1);
            let m =
                out(self.ifmap_h, self.filter_h)?.checked_mul(out(self.ifmap_w, self.filter_w)?)?;
            let area = self.filter_h.checked_mul(self.filter_w)?;
            GemmShape::checked(m, self.num_filters, area.checked_mul(self.channels)?)
        };
        // With the filter inside the ifmap, a zero dimension is a zero
        // dimension of the GEMM.
        let reason = if self.filter_h > self.ifmap_h || self.filter_w > self.ifmap_w {
            "filter larger than ifmap"
        } else if self.stride == 0 || gemm().is_none() {
            "a zero dimension, or M·K·N or M·K + K·N + M·N of its GEMM overflows u64"
        } else {
            return Ok(());
        };
        let layer = &self.name;
        Err(SimError::InvalidLayer(format!("layer '{layer}': {reason}")))
    }
}

/// One layer of a workload: either a convolution or a plain GEMM.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Layer {
    /// Convolution layer (lowered to GEMM for simulation).
    Conv(ConvLayer),
    /// Matrix multiplication layer (e.g. transformer projections / MLP).
    Gemm {
        /// Layer name for reports.
        name: String,
        /// GEMM dimensions.
        shape: GemmShape,
    },
}

impl Layer {
    /// Layer name.
    pub fn name(&self) -> &str {
        match self {
            Layer::Conv(c) => &c.name,
            Layer::Gemm { name, .. } => name,
        }
    }

    /// The GEMM this layer maps to on the accelerator.
    pub fn gemm(&self) -> GemmShape {
        match self {
            Layer::Conv(c) => c.to_gemm(),
            Layer::Gemm { shape, .. } => *shape,
        }
    }

    /// Convenience constructor for GEMM layers.
    pub fn gemm_layer(name: impl Into<String>, m: usize, n: usize, k: usize) -> Self {
        Layer::Gemm {
            name: name.into(),
            shape: GemmShape::new(m, n, k),
        }
    }
}

/// An ordered collection of layers forming a network.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Topology {
    name: String,
    layers: Vec<Layer>,
}

impl Topology {
    /// Creates an empty topology with the given name.
    pub fn new(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            layers: Vec::new(),
        }
    }

    /// Creates a topology from a list of layers.
    pub fn from_layers(name: impl Into<String>, layers: Vec<Layer>) -> Self {
        Self {
            name: name.into(),
            layers,
        }
    }

    /// Network name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Appends a layer.
    pub fn push(&mut self, layer: Layer) {
        self.layers.push(layer);
    }

    /// Layers in execution order.
    pub fn layers(&self) -> &[Layer] {
        &self.layers
    }

    /// Number of layers.
    pub fn len(&self) -> usize {
        self.layers.len()
    }

    /// Whether the topology has no layers.
    pub fn is_empty(&self) -> bool {
        self.layers.is_empty()
    }

    /// Iterates over the layers.
    pub fn iter(&self) -> std::slice::Iter<'_, Layer> {
        self.layers.iter()
    }

    /// Total dense MAC count over all layers.
    pub fn total_macs(&self) -> u64 {
        self.layers.iter().map(|l| l.gemm().macs()).sum()
    }

    /// Parses a SCALE-Sim conv topology CSV (header optional).
    ///
    /// Expected columns:
    /// `name, ifmap_h, ifmap_w, filter_h, filter_w, channels, num_filters, stride[,]`.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::ParseTopology`] naming the first bad line.
    /// Duplicate layer names are rejected (reports are keyed by layer
    /// name; a silently-accepted duplicate would make report rows
    /// ambiguous), naming the duplicate and both line numbers.
    pub fn parse_conv_csv(name: &str, csv: &str) -> Result<Self, SimError> {
        parse_rows(name, csv, 8, |fields| {
            let num = |i| int(fields, i);
            let layer = ConvLayer {
                name: fields[0].to_string(),
                ifmap_h: num(1)?,
                ifmap_w: num(2)?,
                filter_h: num(3)?,
                filter_w: num(4)?,
                channels: num(5)?,
                num_filters: num(6)?,
                stride: num(7)?,
            };
            layer.validate().map_err(|e| e.to_string())?;
            Ok(Layer::Conv(layer))
        })
    }

    /// Parses a GEMM topology CSV with columns `name, M, K, N[,]`
    /// (SCALE-Sim's GEMM convention orders the contraction dim second).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::ParseTopology`] naming the first bad line,
    /// including duplicate layer names (see
    /// [`parse_conv_csv`](Self::parse_conv_csv)).
    pub fn parse_gemm_csv(name: &str, csv: &str) -> Result<Self, SimError> {
        parse_rows(name, csv, 4, |fields| {
            let (m, k, n) = (int(fields, 1)?, int(fields, 2)?, int(fields, 3)?);
            let shape = GemmShape::checked(m, n, k)
                .ok_or("a zero dimension, or M·K·N or M·K + K·N + M·N overflows u64")?;
            Ok(Layer::Gemm {
                name: fields[0].to_string(),
                shape,
            })
        })
    }

    /// Parses a topology CSV, auto-detecting the row format: lines with at
    /// least 8 columns are treated as conv rows
    /// (`name, ifh, ifw, fh, fw, c, n, stride`), otherwise GEMM rows
    /// (`name, M, K, N`). Detection looks at the first data line, so a file
    /// must not mix the two formats.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::ParseTopology`] naming the first bad line.
    pub fn parse_csv_auto(name: &str, csv: &str) -> Result<Self, SimError> {
        match data_rows(csv).next() {
            Some((_, fields)) if fields.len() >= 8 => Self::parse_conv_csv(name, csv),
            _ => Self::parse_gemm_csv(name, csv),
        }
    }
}

impl<'a> IntoIterator for &'a Topology {
    type Item = &'a Layer;
    type IntoIter = std::slice::Iter<'a, Layer>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

/// The data rows of a topology CSV: `(1-based line number, trimmed
/// fields)`. Blank and `#` lines are skipped, and so is the first
/// remaining row when it is a header, i.e. when none of its numeric
/// columns parses. Only the first row may be a header: a data row whose
/// layer is named `layer…` or `name…` is a layer like any other. A
/// trailing comma ends a row rather than opening a column.
fn data_rows(csv: &str) -> impl Iterator<Item = (usize, Vec<&str>)> {
    let is_header = |fields: &[&str]| {
        fields.len() > 1 && fields[1..].iter().all(|f| f.parse::<usize>().is_err())
    };
    csv.lines()
        .enumerate()
        .map(|(idx, raw)| (idx + 1, raw.trim().trim_end_matches(',')))
        .filter(|(_, text)| !text.is_empty() && !text.starts_with('#'))
        .map(|(line, text)| (line, text.split(',').map(str::trim).collect::<Vec<_>>()))
        .enumerate()
        .filter(move |(i, (_, fields))| *i > 0 || !is_header(fields))
        .map(|(_, row)| row)
}

/// Column `i` of a row as an integer.
fn int(fields: &[&str], i: usize) -> Result<usize, String> {
    let field = fields[i];
    field
        .parse()
        .map_err(|_| format!("column {} ('{field}') is not an integer", i + 1))
}

/// The one row loop of both CSV formats: checks each data row has at
/// least `columns` fields, turns it into a layer with
/// `decode`, and rejects duplicate layer names. Every error names the
/// line.
fn parse_rows(
    name: &str,
    csv: &str,
    columns: usize,
    decode: fn(&[&str]) -> Result<Layer, String>,
) -> Result<Topology, SimError> {
    let mut topo = Topology::new(name);
    let mut seen = NameTracker::new();
    for (line, fields) in data_rows(csv) {
        let error = |reason| SimError::ParseTopology { line, reason };
        if fields.len() < columns {
            let found = fields.len();
            return Err(error(format!("expected {columns} columns, found {found}")));
        }
        let layer = decode(&fields).map_err(error)?;
        seen.check(layer.name(), line)?;
        topo.push(layer);
    }
    Ok(topo)
}

/// Rejects duplicate layer names while a CSV parse walks its rows,
/// remembering the line each name was first defined on.
struct NameTracker {
    first_line: std::collections::HashMap<String, usize>,
}

impl NameTracker {
    fn new() -> Self {
        Self {
            first_line: std::collections::HashMap::new(),
        }
    }

    fn check(&mut self, name: &str, line: usize) -> Result<(), SimError> {
        match self.first_line.entry(name.to_string()) {
            std::collections::hash_map::Entry::Occupied(first) => Err(SimError::ParseTopology {
                line,
                reason: format!(
                    "duplicate layer name '{name}' (first defined at line {})",
                    first.get()
                ),
            }),
            std::collections::hash_map::Entry::Vacant(slot) => {
                slot.insert(line);
                Ok(())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn auto_detect_conv_vs_gemm() {
        let conv = "Layer name, IFMAP Height, IFMAP Width, Filter Height, Filter Width, \
                    Channels, Num Filter, Strides,\nc1, 8, 8, 3, 3, 4, 4, 1,\n";
        let t = Topology::parse_csv_auto("n", conv).unwrap();
        assert!(matches!(t.layers()[0], Layer::Conv(_)));
        let gemm = "Layer, M, K, N,\nl0, 16, 32, 8,\n";
        let t = Topology::parse_csv_auto("n", gemm).unwrap();
        assert!(matches!(t.layers()[0], Layer::Gemm { .. }));
        assert_eq!(t.layers()[0].gemm(), GemmShape::new(16, 8, 32));
        // Empty input parses as an empty (GEMM-form) topology.
        assert!(Topology::parse_csv_auto("n", "").unwrap().is_empty());
    }

    #[test]
    fn conv_to_gemm_im2col() {
        // Classic AlexNet conv1: 227x227x3, 11x11, 96 filters, stride 4.
        let c = ConvLayer {
            name: "conv1".into(),
            ifmap_h: 227,
            ifmap_w: 227,
            filter_h: 11,
            filter_w: 11,
            channels: 3,
            num_filters: 96,
            stride: 4,
        };
        assert_eq!(c.ofmap_h(), 55);
        assert_eq!(c.ofmap_w(), 55);
        let g = c.to_gemm();
        assert_eq!(g.m, 55 * 55);
        assert_eq!(g.n, 96);
        assert_eq!(g.k, 11 * 11 * 3);
    }

    #[test]
    fn gemm_macs_and_footprint() {
        let g = GemmShape::new(4, 5, 6);
        assert_eq!(g.macs(), 120);
        assert_eq!(g.to_string(), "M4xN5xK6");
    }

    #[test]
    fn parse_conv_csv_roundtrip() {
        let csv = "Layer name, IFMAP Height, IFMAP Width, Filter Height, Filter Width, Channels, Num Filter, Strides,\n\
                   conv1, 224, 224, 7, 7, 3, 64, 2,\n\
                   conv2, 56, 56, 3, 3, 64, 64, 1,\n";
        let t = Topology::parse_conv_csv("net", csv).unwrap();
        assert_eq!(t.len(), 2);
        // Every column lands in its field.
        let conv2 = ConvLayer {
            name: "conv2".into(),
            ifmap_h: 56,
            ifmap_w: 56,
            filter_h: 3,
            filter_w: 3,
            channels: 64,
            num_filters: 64,
            stride: 1,
        };
        assert_eq!(t.layers()[1], Layer::Conv(conv2));
        assert_eq!(t.layers()[0].name(), "conv1");
    }

    #[test]
    fn only_the_first_row_can_be_a_header() {
        // Rows named `layer…` or `name…` are layers, not headers.
        let csv = "Layer, M, K, N,\nl0, 8, 8, 8,\nlayer1, 8, 8, 8,\nname2, 8, 8, 8,\n";
        let names: Vec<_> = Topology::parse_gemm_csv("net", csv)
            .unwrap()
            .iter()
            .map(|l| l.name().to_string())
            .collect();
        assert_eq!(names, ["l0", "layer1", "name2"]);
        // A first row whose numbers parse is data, whatever its name.
        let t = Topology::parse_csv_auto("net", "layer0, 4, 4, 4,\n").unwrap();
        assert_eq!(t.len(), 1);
        // A header anywhere else is a bad row, named by its line.
        let csv = "# comment\nLayer, M, K, N,\nl0, 8, 8, 8,\nLayer, M, K, N,\n";
        match Topology::parse_csv_auto("net", csv).unwrap_err() {
            SimError::ParseTopology { line, reason } => {
                assert_eq!(line, 4);
                assert_eq!(reason, "column 2 ('M') is not an integer");
            }
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn parse_conv_csv_reports_bad_line() {
        let csv = "conv1, 224, 224, 7, 7, 3, 64,\n"; // 7 columns
        let err = Topology::parse_conv_csv("net", csv).unwrap_err();
        match err {
            SimError::ParseTopology { line, .. } => assert_eq!(line, 1),
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn parse_conv_rejects_filter_bigger_than_ifmap() {
        let csv = "bad, 4, 4, 7, 7, 3, 64, 1,\n";
        assert!(Topology::parse_conv_csv("net", csv).is_err());
    }

    #[test]
    fn parse_gemm_csv() {
        let csv = "Layer, M, K, N,\nqkv, 197, 768, 2304,\nff1, 197, 768, 3072,\n";
        let t = Topology::parse_gemm_csv("vit", csv).unwrap();
        assert_eq!(t.len(), 2);
        assert_eq!(t.layers()[0].gemm(), GemmShape::new(197, 2304, 768));
        assert_eq!(t.layers()[1].gemm(), GemmShape::new(197, 3072, 768));
    }

    #[test]
    fn parse_gemm_rejects_zero_dims() {
        assert!(Topology::parse_gemm_csv("x", "bad, 0, 3, 4,\n").is_err());
    }

    #[test]
    fn duplicate_layer_names_are_rejected_with_both_lines() {
        let csv = "Layer, M, K, N,\nqkv, 16, 16, 16,\nff, 8, 8, 8,\nqkv, 32, 32, 32,\n";
        let err = Topology::parse_gemm_csv("net", csv).unwrap_err();
        match err {
            SimError::ParseTopology { line, reason } => {
                assert_eq!(line, 4, "duplicate is on line 4");
                assert!(reason.contains("duplicate layer name 'qkv'"), "{reason}");
                assert!(reason.contains("first defined at line 2"), "{reason}");
            }
            other => panic!("unexpected error {other:?}"),
        }
        let conv = "c1, 8, 8, 3, 3, 4, 4, 1,\nc1, 8, 8, 3, 3, 4, 4, 1,\n";
        let err = Topology::parse_conv_csv("net", conv).unwrap_err();
        assert!(
            err.to_string().contains("duplicate layer name 'c1'"),
            "{err}"
        );
        // Auto-detection hits the same checks.
        assert!(Topology::parse_csv_auto("net", conv).is_err());
    }

    #[test]
    fn topology_iteration_and_totals() {
        let t = Topology::from_layers(
            "tiny",
            vec![
                Layer::gemm_layer("a", 2, 3, 4),
                Layer::gemm_layer("b", 5, 6, 7),
            ],
        );
        assert_eq!(t.total_macs(), 2 * 3 * 4 + 5 * 6 * 7);
        assert_eq!(t.iter().count(), 2);
        assert!(!t.is_empty());
        let names: Vec<_> = (&t).into_iter().map(|l| l.name()).collect();
        assert_eq!(names, ["a", "b"]);
    }
}
