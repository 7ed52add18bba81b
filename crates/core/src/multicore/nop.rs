//! Network-on-Package (NoP) mesh topology for chiplet-based accelerators
//! (paper §III-D).
//!
//! [`NopProfile`] captures *what the
//! partitioner needs* — a per-core latency vector — but Simba-class
//! multi-chip modules derive that vector from a physical package topology:
//! a 2D mesh of chiplets, XY routing, and one or more memory ports on the
//! package edge. This module models that derivation, so experiments can
//! sweep *topology* (mesh shape, port placement) instead of
//! hand-writing latency vectors.
//!
//! Latency follows the usual wormhole first-order model: a header pays one
//! router+link delay per hop, then the payload streams behind it at the
//! link bandwidth,
//! `latency(core) = hops(core) · hop_cycles + ceil(payload / link_bytes)`.
//! Port contention between chiplets is intentionally not modeled — the
//! paper's §III-D works from per-core latency profiles, which this module
//! generates.
//!
//! ## Example
//!
//! ```
//! use scalesim::multicore::{non_uniform_split, MemoryPortPlacement, NopMesh};
//!
//! let mesh = NopMesh::new(4, 4, 40, MemoryPortPlacement::WestEdge);
//! let profile = mesh.profile(1.0, 4096);
//! let (shares, makespan) = non_uniform_split(&profile, 1_000_000);
//! assert_eq!(shares.len(), 16);
//! assert!(makespan > 0);
//! ```

use crate::multicore::nonuniform::NopProfile;

/// Serialization bandwidth of every mesh link.
const LINK_BYTES_PER_CYCLE: f64 = 16.0;

/// Where the package's memory ports sit relative to the chiplet mesh.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MemoryPortPlacement {
    /// One port per row on the west edge (Simba's column-distance
    /// profile: core `(r, c)` pays `c + 1` hops).
    #[default]
    WestEdge,
    /// Ports on all four edges; each chiplet uses its nearest edge.
    FourEdges,
    /// A single port reachable through the mesh centre.
    Center,
    /// A single port at the north-west corner — the worst case.
    Corner,
}

/// A `rows × cols` chiplet mesh with XY routing and a configurable memory
/// port placement.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NopMesh {
    rows: usize,
    cols: usize,
    hop_cycles: u64,
    placement: MemoryPortPlacement,
}

impl NopMesh {
    /// Creates a mesh with 16 bytes/cycle links.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero or `hop_cycles == 0`.
    pub fn new(rows: usize, cols: usize, hop_cycles: u64, placement: MemoryPortPlacement) -> Self {
        assert!(rows > 0 && cols > 0, "mesh dimensions must be positive");
        assert!(hop_cycles > 0, "hop latency must be positive");
        Self {
            rows,
            cols,
            hop_cycles,
            placement,
        }
    }

    /// Number of chiplets.
    pub(crate) fn cores(&self) -> usize {
        self.rows * self.cols
    }

    /// XY-routed hops from chiplet `(r, c)` to its nearest memory port
    /// (at least 1: every chiplet crosses its own ingress link).
    ///
    /// # Panics
    ///
    /// Panics if `(r, c)` lies outside the mesh.
    pub fn hops(&self, r: usize, c: usize) -> u64 {
        assert!(r < self.rows && c < self.cols, "core off the mesh");
        let (rows, cols) = (self.rows as u64, self.cols as u64);
        let (r, c) = (r as u64, c as u64);
        match self.placement {
            MemoryPortPlacement::WestEdge => c + 1,
            MemoryPortPlacement::FourEdges => {
                let north = r + 1;
                let south = rows - r;
                let west = c + 1;
                let east = cols - c;
                north.min(south).min(west).min(east)
            }
            MemoryPortPlacement::Center => {
                let cr = (rows - 1) / 2;
                let cc = (cols - 1) / 2;
                r.abs_diff(cr) + c.abs_diff(cc) + 1
            }
            MemoryPortPlacement::Corner => r + c + 1,
        }
    }

    /// One-way latency for `payload_bytes` delivered to chiplet `(r, c)`:
    /// header hops plus payload serialization on the ingress link.
    pub(crate) fn core_latency(&self, r: usize, c: usize, payload_bytes: u64) -> u64 {
        let serialization = (payload_bytes as f64 / LINK_BYTES_PER_CYCLE).ceil() as u64;
        self.hops(r, c) * self.hop_cycles + serialization
    }

    /// Mean hop count over all chiplets.
    pub fn average_hops(&self) -> f64 {
        let total: u64 = (0..self.rows)
            .flat_map(|r| (0..self.cols).map(move |c| (r, c)))
            .map(|(r, c)| self.hops(r, c))
            .sum();
        total as f64 / self.cores() as f64
    }

    /// Builds the per-core latency profile the §III-D partitioner
    /// consumes, with a uniform compute rate and per-core operand payload.
    pub fn profile(&self, cycles_per_unit: f64, payload_bytes: u64) -> NopProfile {
        let mut nop = Vec::with_capacity(self.cores());
        for r in 0..self.rows {
            for c in 0..self.cols {
                nop.push(self.core_latency(r, c, payload_bytes));
            }
        }
        NopProfile {
            cycles_per_unit: vec![cycles_per_unit; self.cores()],
            nop_latency: nop,
        }
    }
}
