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
//! use scalesim_repro::nonuniform::non_uniform_split;
//! use scalesim_repro::nop::{MemoryPortPlacement, NopMesh};
//!
//! let mesh = NopMesh::new(4, 4, 40, MemoryPortPlacement::WestEdge);
//! let profile = mesh.profile(1.0, 4096);
//! let (shares, makespan) = non_uniform_split(&profile, 1_000_000);
//! assert_eq!(shares.len(), 16);
//! assert!(makespan > 0);
//! ```

use crate::nonuniform::NopProfile;

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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nonuniform::{non_uniform_split, uniform_split_makespan};

    #[test]
    fn west_edge_matches_simba_column_profile() {
        // The mesh derivation must reproduce the hand-written Simba
        // profile used elsewhere.
        let mesh = NopMesh::new(2, 4, 500, MemoryPortPlacement::WestEdge);
        let by_hand = NopProfile::grid_west_edge(2, 4, 500, 1.0);
        let derived = mesh.profile(1.0, 0);
        assert_eq!(derived.nop_latency, by_hand.nop_latency);
    }

    #[test]
    fn corner_is_manhattan_distance() {
        let mesh = NopMesh::new(4, 4, 1, MemoryPortPlacement::Corner);
        assert_eq!(mesh.hops(0, 0), 1);
        assert_eq!(mesh.hops(3, 3), 7);
        assert_eq!(mesh.hops(1, 2), 4);
    }

    #[test]
    fn four_edges_never_worse_than_west_edge() {
        for (rows, cols) in [(2, 2), (4, 4), (3, 5), (8, 8)] {
            let west = NopMesh::new(rows, cols, 1, MemoryPortPlacement::WestEdge);
            let four = NopMesh::new(rows, cols, 1, MemoryPortPlacement::FourEdges);
            for r in 0..rows {
                for c in 0..cols {
                    assert!(
                        four.hops(r, c) <= west.hops(r, c),
                        "({r},{c}) in {rows}x{cols}"
                    );
                }
            }
        }
    }

    #[test]
    fn placement_average_ordering() {
        // More ports (or better-placed ones) mean fewer average hops:
        // FourEdges ≤ WestEdge ≤ Corner; Center ≤ Corner.
        let mk = |p| NopMesh::new(6, 6, 1, p).average_hops();
        let four = mk(MemoryPortPlacement::FourEdges);
        let west = mk(MemoryPortPlacement::WestEdge);
        let center = mk(MemoryPortPlacement::Center);
        let corner = mk(MemoryPortPlacement::Corner);
        assert!(four <= west);
        assert!(west <= corner);
        assert!(center <= corner);
    }

    #[test]
    fn serialization_adds_payload_term() {
        let mesh = NopMesh::new(2, 2, 10, MemoryPortPlacement::WestEdge);
        let no_payload = mesh.core_latency(0, 1, 0);
        let with_payload = mesh.core_latency(0, 1, 4096);
        assert_eq!(with_payload - no_payload, 4096 / 16);
        // Partial flits round up.
        assert_eq!(mesh.core_latency(0, 1, 17) - no_payload, 2);
    }

    #[test]
    fn symmetric_mesh_center_is_symmetric() {
        let mesh = NopMesh::new(5, 5, 1, MemoryPortPlacement::Center);
        // Centre cell of an odd mesh touches the port directly.
        assert_eq!(mesh.hops(2, 2), 1);
        // Mirror cells pay the same.
        assert_eq!(mesh.hops(0, 2), mesh.hops(4, 2));
        assert_eq!(mesh.hops(2, 0), mesh.hops(2, 4));
    }

    #[test]
    fn partitioner_prefers_better_port_placement() {
        // Derived profiles compose with §III-D's split: a worse placement
        // can never produce a smaller makespan.
        let work = 200_000;
        let mk = |p| {
            let mesh = NopMesh::new(4, 4, 300, p);
            non_uniform_split(&mesh.profile(1.0, 2048), work).1
        };
        let four = mk(MemoryPortPlacement::FourEdges);
        let west = mk(MemoryPortPlacement::WestEdge);
        let corner = mk(MemoryPortPlacement::Corner);
        assert!(four <= west, "{four} > {west}");
        assert!(west <= corner, "{west} > {corner}");
    }

    #[test]
    fn non_uniform_split_still_beats_uniform_on_meshes() {
        let mesh = NopMesh::new(2, 8, 2000, MemoryPortPlacement::WestEdge);
        let profile = mesh.profile(1.0, 0);
        let (_, nu) = non_uniform_split(&profile, 50_000);
        let u = uniform_split_makespan(&profile, 50_000);
        assert!(nu < u);
    }

    #[test]
    #[should_panic(expected = "core off the mesh")]
    fn hops_rejects_out_of_range() {
        NopMesh::new(2, 2, 1, MemoryPortPlacement::WestEdge).hops(2, 0);
    }
}
