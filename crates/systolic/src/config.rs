//! Simulator configuration: array shape, dataflow, scratchpad sizes and
//! backing-store bandwidth.

use crate::error::SimError;
use std::fmt;

/// Dimensions of the systolic array in processing elements.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ArrayShape {
    rows: usize,
    cols: usize,
}

impl ArrayShape {
    /// Creates a new array shape.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn new(rows: usize, cols: usize) -> Self {
        assert!(rows > 0 && cols > 0, "array dimensions must be non-zero");
        Self { rows, cols }
    }

    /// Creates a square `n × n` array.
    pub fn square(n: usize) -> Self {
        Self::new(n, n)
    }

    /// Number of PE rows (`R`).
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of PE columns (`C`).
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Total number of processing elements (`R · C`).
    pub(crate) fn num_pes(&self) -> usize {
        self.rows * self.cols
    }
}

impl Default for ArrayShape {
    fn default() -> Self {
        Self::new(32, 32)
    }
}

impl fmt::Display for ArrayShape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}x{}", self.rows, self.cols)
    }
}

/// The classic systolic dataflows supported by SCALE-Sim.
///
/// The GEMM is `C[M×N] = A[M×K] · B[K×N]` and the mapping of GEMM dimensions
/// onto array rows (`Sr`), array columns (`Sc`) and time (`T`) follows the
/// self-consistent form of Table II of the paper (see `DESIGN.md` §2):
///
/// | dataflow | Sr | Sc | T | stationary operand |
/// |----------|----|----|---|--------------------|
/// | OS       | M  | N  | K | outputs            |
/// | WS       | K  | N  | M | weights            |
/// | IS       | K  | M  | N | inputs             |
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Dataflow {
    /// Each PE accumulates one output element; `K` streams through.
    #[default]
    OutputStationary,
    /// Weights are pinned in the array; inputs stream, partial sums move down.
    WeightStationary,
    /// Inputs are pinned in the array; weights stream, partial sums move down.
    InputStationary,
}

impl Dataflow {
    /// All three dataflows, convenient for sweeps.
    pub const ALL: [Dataflow; 3] = [
        Dataflow::OutputStationary,
        Dataflow::WeightStationary,
        Dataflow::InputStationary,
    ];

    /// Short lowercase name (`"os"`, `"ws"`, `"is"`), matching the paper's
    /// figure labels.
    pub fn short_name(&self) -> &'static str {
        match self {
            Dataflow::OutputStationary => "os",
            Dataflow::WeightStationary => "ws",
            Dataflow::InputStationary => "is",
        }
    }

    /// Parses a [`short_name`](Self::short_name), case-insensitively.
    ///
    /// # Errors
    ///
    /// Returns a message naming the value and the accepted spellings.
    pub fn parse(value: &str) -> Result<Dataflow, String> {
        let tag = value.to_ascii_lowercase();
        Dataflow::ALL
            .into_iter()
            .find(|d| d.short_name() == tag)
            .ok_or_else(|| format!("unknown dataflow '{tag}' (expected os/ws/is)"))
    }
}

impl fmt::Display for Dataflow {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            Dataflow::OutputStationary => "output-stationary",
            Dataflow::WeightStationary => "weight-stationary",
            Dataflow::InputStationary => "input-stationary",
        };
        f.write_str(name)
    }
}

/// Scratchpad (on-chip SRAM) and backing-store configuration.
///
/// Sizes are in *words* (one word = one tensor element, 2 bytes at the
/// default 16-bit precision). SCALE-Sim's conventional configuration unit is
/// kilobytes; use [`MemoryConfig::from_kilobytes`] for that.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MemoryConfig {
    /// Ifmap SRAM capacity in words (double-buffered: half is active).
    pub ifmap_words: usize,
    /// Filter SRAM capacity in words.
    pub filter_words: usize,
    /// Ofmap SRAM capacity in words.
    pub ofmap_words: usize,
    /// Backing-store (DRAM) bandwidth in words per cycle, per interface.
    pub dram_bandwidth: f64,
    /// Bytes per word (precision); 2 for int16, 1 for int8.
    pub bytes_per_word: usize,
    /// Words fetched per SRAM row access — consecutive accesses within one
    /// row count as cheap "repeated" accesses in the energy model (§VII-C).
    pub sram_row_words: usize,
    /// Number of SRAM row buffers (one open row per buffer) for the
    /// repeated-access lookup.
    pub sram_row_buffers: usize,
}

impl MemoryConfig {
    /// Builds a memory configuration from SRAM sizes in kilobytes, the
    /// conventional SCALE-Sim unit, at the given precision.
    pub fn from_kilobytes(
        ifmap_kb: usize,
        filter_kb: usize,
        ofmap_kb: usize,
        bytes_per_word: usize,
    ) -> Self {
        let words = |kb: usize| kb * 1024 / bytes_per_word.max(1);
        Self {
            ifmap_words: words(ifmap_kb),
            filter_words: words(filter_kb),
            ofmap_words: words(ofmap_kb),
            dram_bandwidth: 10.0,
            bytes_per_word,
            sram_row_words: 16,
            // One open row per bank; SCALE-Sim's banked smart-buffers keep
            // enough row buffers to cover the array-edge streams.
            sram_row_buffers: 64,
        }
    }
}

impl Default for MemoryConfig {
    /// SCALE-Sim's stock "google.cfg"-like default: 1 MB ifmap, 1 MB filter,
    /// 256 kB ofmap at 16-bit precision, 10 words/cycle DRAM bandwidth.
    fn default() -> Self {
        Self::from_kilobytes(1024, 1024, 256, 2)
    }
}

/// The least DRAM bandwidth a configuration accepts, in words per cycle:
/// 2^-20. A transfer then lasts at most ~2^20 cycles a word, so a layer
/// can move 2^44 words before a cycle count would pass 2^64; below it a
/// transfer's length saturates and cycle sums wrap. A multi-core grid's
/// per-core share is floored at 1/8 word per cycle, above this one.
pub(crate) const MIN_DRAM_BANDWIDTH: f64 = 1.0 / (1u64 << 20) as f64;

/// Full single-core simulator configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct SimConfig {
    /// Systolic array dimensions.
    pub array: ArrayShape,
    /// Mapping dataflow.
    pub dataflow: Dataflow,
    /// Scratchpad and DRAM-bandwidth parameters.
    pub memory: MemoryConfig,
}

impl SimConfig {
    /// Starts building a configuration.
    pub fn builder() -> SimConfigBuilder {
        SimConfigBuilder::default()
    }

    /// Validates the configuration, returning a descriptive error for
    /// degenerate values.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] if a scratchpad is too small to
    /// double-buffer a single array edge or the bandwidth is below
    /// `MIN_DRAM_BANDWIDTH`.
    pub fn validate(&self) -> Result<(), SimError> {
        let bandwidth = self.memory.dram_bandwidth;
        if !(MIN_DRAM_BANDWIDTH..).contains(&bandwidth) {
            return Err(SimError::InvalidConfig(format!(
                "dram bandwidth {bandwidth:e} is below the least supported 2^-20 words/cycle"
            )));
        }
        let min_words = 2 * self.array.rows().max(self.array.cols());
        for (name, words) in [
            ("ifmap", self.memory.ifmap_words),
            ("filter", self.memory.filter_words),
            ("ofmap", self.memory.ofmap_words),
        ] {
            if words < min_words {
                return Err(SimError::InvalidConfig(format!(
                    "{name} scratchpad of {words} words cannot double-buffer a {} array",
                    self.array
                )));
            }
        }
        Ok(())
    }
}

impl Default for SimConfig {
    fn default() -> Self {
        Self::builder().build()
    }
}

/// Builder for [`SimConfig`] (non-consuming; terminal method is [`build`]).
///
/// [`build`]: SimConfigBuilder::build
#[derive(Debug, Clone, Default)]
pub struct SimConfigBuilder {
    array: Option<ArrayShape>,
    dataflow: Option<Dataflow>,
    memory: Option<MemoryConfig>,
}

impl SimConfigBuilder {
    /// Sets the systolic array shape (default `32×32`).
    pub fn array(&mut self, array: ArrayShape) -> &mut Self {
        self.array = Some(array);
        self
    }

    /// Sets the dataflow (default output-stationary).
    pub fn dataflow(&mut self, dataflow: Dataflow) -> &mut Self {
        self.dataflow = Some(dataflow);
        self
    }

    /// Sets the memory configuration (default SCALE-Sim stock sizes).
    pub fn memory(&mut self, memory: MemoryConfig) -> &mut Self {
        self.memory = Some(memory);
        self
    }

    /// Finalizes the configuration.
    pub fn build(&self) -> SimConfig {
        SimConfig {
            array: self.array.unwrap_or_default(),
            dataflow: self.dataflow.unwrap_or_default(),
            memory: self.memory.unwrap_or_default(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn array_shape_accessors() {
        let a = ArrayShape::new(8, 16);
        assert_eq!(a.rows(), 8);
        assert_eq!(a.cols(), 16);
        assert_eq!(a.num_pes(), 128);
        assert_eq!(a.to_string(), "8x16");
        assert_eq!(ArrayShape::square(4), ArrayShape::new(4, 4));
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_array_panics() {
        let _ = ArrayShape::new(0, 4);
    }

    #[test]
    fn memory_config_kb_conversion() {
        let m = MemoryConfig::from_kilobytes(1, 2, 4, 2);
        assert_eq!(m.ifmap_words, 512);
        assert_eq!(m.filter_words, 1024);
        assert_eq!(m.ofmap_words, 2048);
    }

    #[test]
    fn builder_defaults() {
        let c = SimConfig::builder().build();
        assert_eq!(c.array, ArrayShape::new(32, 32));
        assert_eq!(c.dataflow, Dataflow::OutputStationary);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn validate_rejects_tiny_buffers() {
        let mut c = SimConfig::default();
        c.memory.ifmap_words = 4;
        assert!(matches!(c.validate(), Err(SimError::InvalidConfig(_))));
    }

    #[test]
    fn validate_rejects_bad_bandwidth() {
        let mut c = SimConfig::default();
        c.memory.dram_bandwidth = 0.0;
        assert!(c.validate().is_err());
        for bandwidth in [1e-300, MIN_DRAM_BANDWIDTH / 2.0, f64::NAN] {
            c.memory.dram_bandwidth = bandwidth;
            assert!(c.validate().is_err(), "{bandwidth}");
        }
        c.memory.dram_bandwidth = MIN_DRAM_BANDWIDTH;
        assert!(c.validate().is_ok());
    }

    #[test]
    fn dataflow_names() {
        assert_eq!(Dataflow::OutputStationary.short_name(), "os");
        assert_eq!(Dataflow::WeightStationary.to_string(), "weight-stationary");
        assert_eq!(Dataflow::ALL.len(), 3);
        for d in Dataflow::ALL {
            assert_eq!(Dataflow::parse(&d.short_name().to_uppercase()), Ok(d));
        }
        let err = Dataflow::parse("zz").unwrap_err();
        assert_eq!(err, "unknown dataflow 'zz' (expected os/ws/is)");
    }
}
