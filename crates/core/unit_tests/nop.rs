//! Unit tests of `multicore::nop`.

mod tests {
    use crate::multicore::nonuniform::NopProfile;
    use crate::multicore::nonuniform::{non_uniform_split, uniform_split_makespan};
    use crate::multicore::nop::*;

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
