//! Unit tests of `collective::collectives`.

mod tests {
    use crate::collective::collectives::*;
    use crate::collective::fabric::{Fabric, FabricKind};

    fn ring(p: usize) -> Fabric {
        Fabric::new(FabricKind::Ring, p, 64.0, 100, 1.0).unwrap()
    }

    #[test]
    fn single_chip_collectives_are_free() {
        let f = ring(1);
        for cost in [
            all_reduce(&f, 1 << 20),
            reduce_scatter(&f, 1 << 20),
            all_gather(&f, 1 << 20),
            point_to_point(&f, 1 << 20),
        ] {
            assert_eq!(cost, CollectiveCost::FREE);
        }
    }

    #[test]
    fn ring_all_reduce_matches_the_closed_form() {
        // 2 (p-1) steps of B/p bytes: the classic 2 (p-1)/p · B wire
        // traffic with 2 (p-1) latency hops.
        let p = 8;
        let bytes = 1u64 << 20;
        let f = ring(p);
        let cost = all_reduce(&f, bytes);
        assert_eq!(cost.steps, 2 * (p as u32 - 1));
        assert_eq!(cost.wire_bytes, 2 * (p as u64 - 1) * (bytes / p as u64));
        let chunk_cycles = f.transfer_cycles(bytes / p as u64);
        assert_eq!(cost.cycles, 2 * (p as u64 - 1) * chunk_cycles);
    }

    #[test]
    fn all_reduce_composes_scatter_and_gather() {
        for fabric in [
            ring(8),
            Fabric::new(FabricKind::Mesh2D { rows: 2, cols: 4 }, 8, 64.0, 100, 1.0).unwrap(),
            Fabric::new(FabricKind::Switch, 8, 64.0, 100, 1.0).unwrap(),
        ] {
            let b = 3 << 19;
            let whole = all_reduce(&fabric, b);
            let parts = reduce_scatter(&fabric, b).add(all_gather(&fabric, b));
            assert_eq!(whole, parts, "{fabric}");
        }
    }

    #[test]
    fn switch_beats_ring_on_latency_bound_payloads() {
        // Tiny payload, many chips: log2 p steps beat 2 (p-1) steps.
        let p = 64;
        let switch = Fabric::new(FabricKind::Switch, p, 64.0, 500, 1.0).unwrap();
        let cost_switch = all_reduce(&switch, 1024);
        let cost_ring = all_reduce(&ring(p), 1024);
        assert!(cost_switch.cycles < cost_ring.cycles);
        assert_eq!(cost_switch.steps, 12); // 2 log2 64
    }

    #[test]
    fn mesh_phases_cover_both_dimensions() {
        let mesh = Fabric::new(FabricKind::Mesh2D { rows: 4, cols: 2 }, 8, 64.0, 100, 1.0).unwrap();
        let cost = reduce_scatter(&mesh, 1 << 20);
        // (cols-1) row steps + (rows-1) column steps.
        assert_eq!(cost.steps, 1 + 3);
        // Both decompositions are bandwidth-optimal ((p-1)/p · B wire
        // bytes), but the mesh pays fewer latency hops than a flat ring.
        let flat = reduce_scatter(&ring(8), 1 << 20);
        assert_eq!(cost.wire_bytes, flat.wire_bytes);
        assert!(cost.cycles < flat.cycles);
    }

    #[test]
    fn more_bandwidth_never_costs_more() {
        let slow = Fabric::new(FabricKind::Ring, 8, 25.0, 500, 1.0).unwrap();
        let fast = Fabric::new(FabricKind::Ring, 8, 400.0, 500, 1.0).unwrap();
        for bytes in [0u64, 1, 4096, 1 << 22] {
            assert!(all_reduce(&fast, bytes).cycles <= all_reduce(&slow, bytes).cycles);
        }
    }
}
