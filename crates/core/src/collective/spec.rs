//! The `[scaleout]` configuration: everything a multi-chip run needs
//! beyond the single-chip architecture, with defaults matching a small
//! 8-chip ring.

use crate::collective::fabric::{Fabric, FabricKind};
use crate::collective::strategy::Strategy;

/// Parsed `[scaleout]` configuration (see `docs/SCALEOUT.md` for the
/// cfg keys). Plain data: `ScaleoutSpec::fabric` resolves and
/// validates the interconnect when a run starts.
#[derive(Debug, Clone, PartialEq)]
pub struct ScaleoutSpec {
    /// Chips in the system (1 = degenerate single-chip run).
    pub chips: usize,
    /// Interconnect arrangement tag (`ring` / `mesh` / `switch`).
    pub fabric: FabricTag,
    /// Explicit mesh dimensions; `None` picks the most-square
    /// factorization of the chip count.
    pub(crate) mesh: Option<(usize, usize)>,
    /// Per-link bandwidth, GB/s.
    pub(crate) link_gbps: f64,
    /// Per-hop latency, core cycles.
    pub(crate) link_latency: u64,
    /// Parallelization strategy.
    pub strategy: Strategy,
    /// Pipeline-parallel microbatches per batch.
    pub(crate) microbatches: usize,
    /// Core clock in GHz (converts GB/s into bytes/cycle).
    pub(crate) clock_ghz: f64,
}

/// Which [`FabricKind`] to build, before mesh dimensions are resolved.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FabricTag {
    /// Unidirectional ring.
    #[default]
    Ring,
    /// 2D mesh (dimensions from `ScaleoutSpec::mesh` or near-square).
    Mesh,
    /// Fully-switched network.
    Switch,
}

impl FabricTag {
    /// Parses a fabric tag (case-insensitive).
    ///
    /// # Errors
    ///
    /// Returns a message naming the unknown value and the accepted set.
    pub(crate) fn parse(value: &str) -> Result<FabricTag, String> {
        match value.to_ascii_lowercase().as_str() {
            "ring" => Ok(FabricTag::Ring),
            "mesh" => Ok(FabricTag::Mesh),
            "switch" => Ok(FabricTag::Switch),
            other => Err(format!(
                "unknown fabric '{other}' (expected ring/mesh/switch)"
            )),
        }
    }

    /// The stable config tag.
    pub fn tag(&self) -> &'static str {
        match self {
            FabricTag::Ring => "ring",
            FabricTag::Mesh => "mesh",
            FabricTag::Switch => "switch",
        }
    }
}

impl Default for ScaleoutSpec {
    /// An 8-chip ring, 100 GB/s links, 500-cycle hops, data parallel,
    /// 4 microbatches, 1 GHz core.
    fn default() -> Self {
        Self {
            chips: 8,
            fabric: FabricTag::Ring,
            mesh: None,
            link_gbps: 100.0,
            link_latency: 500,
            strategy: Strategy::DataParallel,
            microbatches: 4,
            clock_ghz: 1.0,
        }
    }
}

/// The most-square factorization of `chips`: the largest divisor
/// `rows <= sqrt(chips)` with `cols = chips / rows`.
pub fn near_square_mesh(chips: usize) -> (usize, usize) {
    let mut rows = 1;
    let mut d = 1;
    while d * d <= chips {
        if chips.is_multiple_of(d) {
            rows = d;
        }
        d += 1;
    }
    (rows, chips / rows)
}

impl ScaleoutSpec {
    /// Resolves and validates the interconnect this spec describes.
    ///
    /// # Errors
    ///
    /// Returns a message naming the violated rule (zero chips, bad mesh
    /// dimensions, non-power-of-two switch, non-positive bandwidth or
    /// clock, zero microbatches).
    pub(crate) fn fabric(&self) -> Result<Fabric, String> {
        if self.microbatches == 0 {
            return Err("microbatches must be at least 1".into());
        }
        let kind = match self.fabric {
            FabricTag::Ring => FabricKind::Ring,
            FabricTag::Switch => FabricKind::Switch,
            FabricTag::Mesh => {
                let (rows, cols) = self.mesh.unwrap_or_else(|| near_square_mesh(self.chips));
                FabricKind::Mesh2D { rows, cols }
            }
        };
        Fabric::new(
            kind,
            self.chips,
            self.link_gbps,
            self.link_latency,
            self.clock_ghz,
        )
    }
}
