//! The multi-chip interconnect model: a [`Fabric`] of point-to-point
//! links characterized by bandwidth and latency, arranged as a ring, a
//! 2D mesh, or a fully-switched (fat-tree-like) network.
//!
//! Everything downstream of the fabric is expressed in **core clock
//! cycles** so collective costs compose directly with the per-chip
//! compute cycles the systolic engine produces. The conversion is
//! `link_gbps / clock_ghz` = bytes per core cycle per link.

use std::fmt;

/// The interconnect arrangement of a multi-chip system.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FabricKind {
    /// A unidirectional ring: chip `i` links to chip `(i + 1) mod p`.
    /// Collectives use the bandwidth-optimal chunked ring algorithms.
    Ring,
    /// A 2D mesh of `rows x cols` chips with nearest-neighbour links.
    /// Collectives run dimension-ordered: rows first, then columns.
    Mesh2D {
        /// Mesh rows (`rows * cols` must equal the chip count).
        rows: usize,
        /// Mesh columns.
        cols: usize,
    },
    /// A fully-switched network: every chip pair is one hop apart.
    /// Collectives use recursive halving/doubling (chip count must be a
    /// power of two).
    Switch,
}

impl FabricKind {
    /// The stable tag used in configs, reports and labels
    /// (`ring` / `mesh` / `switch`).
    pub(crate) fn tag(&self) -> &'static str {
        match self {
            FabricKind::Ring => "ring",
            FabricKind::Mesh2D { .. } => "mesh",
            FabricKind::Switch => "switch",
        }
    }
}

impl fmt::Display for FabricKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FabricKind::Mesh2D { rows, cols } => write!(f, "mesh{rows}x{cols}"),
            other => f.write_str(other.tag()),
        }
    }
}

/// A validated multi-chip interconnect: topology, chip count, and
/// per-link bandwidth/latency in core-clock terms.
///
/// Construct through [`Fabric::new`], which checks the topology/chip
/// consistency rules; the collective cost functions in
/// [`crate::collective::collectives`] assume a valid fabric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fabric {
    kind: FabricKind,
    chips: usize,
    link_gbps: f64,
    link_latency: u64,
    clock_ghz: f64,
}

impl Fabric {
    /// Builds and validates a fabric.
    ///
    /// # Errors
    ///
    /// Returns a message naming the violated rule: zero chips,
    /// non-positive bandwidth or clock, mesh dimensions that do not
    /// multiply to the chip count, or a non-power-of-two switch.
    pub fn new(
        kind: FabricKind,
        chips: usize,
        link_gbps: f64,
        link_latency: u64,
        clock_ghz: f64,
    ) -> Result<Fabric, String> {
        if chips == 0 {
            return Err("fabric needs at least one chip".into());
        }
        if !(link_gbps.is_finite() && link_gbps > 0.0) {
            return Err(format!("link bandwidth must be positive GB/s: {link_gbps}"));
        }
        if !(clock_ghz.is_finite() && clock_ghz > 0.0) {
            return Err(format!("core clock must be positive GHz: {clock_ghz}"));
        }
        match kind {
            FabricKind::Mesh2D { rows, cols } => {
                if rows == 0 || cols == 0 || rows * cols != chips {
                    return Err(format!(
                        "mesh {rows}x{cols} does not cover {chips} chips \
                         (rows x cols must equal the chip count)"
                    ));
                }
            }
            FabricKind::Switch => {
                if chips > 1 && !chips.is_power_of_two() {
                    return Err(format!(
                        "switch fabric uses recursive halving/doubling and needs a \
                         power-of-two chip count, got {chips}"
                    ));
                }
            }
            FabricKind::Ring => {}
        }
        Ok(Fabric {
            kind,
            chips,
            link_gbps,
            link_latency,
            clock_ghz,
        })
    }

    /// The interconnect arrangement.
    pub(crate) fn kind(&self) -> FabricKind {
        self.kind
    }

    /// Chips in the system.
    pub(crate) fn chips(&self) -> usize {
        self.chips
    }

    /// Bytes one link moves per core cycle.
    pub(crate) fn bytes_per_cycle(&self) -> f64 {
        self.link_gbps / self.clock_ghz
    }

    /// Cycles to move `bytes` across one link: serialization at
    /// [`bytes_per_cycle`](Self::bytes_per_cycle) plus one hop of
    /// latency. Zero bytes still pay the hop latency (a collective step
    /// is a synchronization even when a chunk is empty).
    pub(crate) fn transfer_cycles(&self, bytes: u64) -> u64 {
        let serialization = (bytes as f64 / self.bytes_per_cycle()).ceil() as u64;
        serialization + self.link_latency
    }
}

impl fmt::Display for Fabric {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} x{} ({} GB/s, {} cyc/hop)",
            self.kind, self.chips, self.link_gbps, self.link_latency
        )
    }
}
