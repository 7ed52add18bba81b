//! Unit tests of `collective::fabric`.

mod tests {
    use crate::collective::fabric::*;

    #[test]
    fn validation_names_the_rule() {
        assert!(Fabric::new(FabricKind::Ring, 0, 50.0, 500, 1.0)
            .unwrap_err()
            .contains("at least one chip"));
        assert!(Fabric::new(FabricKind::Ring, 4, 0.0, 500, 1.0)
            .unwrap_err()
            .contains("bandwidth"));
        assert!(Fabric::new(FabricKind::Ring, 4, 50.0, 500, 0.0)
            .unwrap_err()
            .contains("clock"));
        let err =
            Fabric::new(FabricKind::Mesh2D { rows: 2, cols: 3 }, 8, 50.0, 500, 1.0).unwrap_err();
        assert!(err.contains("mesh 2x3") && err.contains("8 chips"), "{err}");
        assert!(Fabric::new(FabricKind::Switch, 6, 50.0, 500, 1.0)
            .unwrap_err()
            .contains("power-of-two"));
    }

    #[test]
    fn transfer_is_serialization_plus_latency() {
        let f = Fabric::new(FabricKind::Ring, 4, 64.0, 100, 1.0).unwrap();
        assert_eq!(f.bytes_per_cycle(), 64.0);
        // 1 MiB over 64 B/cycle = 16384 cycles + 100 latency.
        assert_eq!(f.transfer_cycles(1 << 20), 16384 + 100);
        // Partial chunks round up; empty chunks still pay the hop.
        assert_eq!(f.transfer_cycles(1), 1 + 100);
        assert_eq!(f.transfer_cycles(0), 100);
    }

    #[test]
    fn clock_scales_bytes_per_cycle() {
        let slow = Fabric::new(FabricKind::Ring, 4, 50.0, 0, 1.0).unwrap();
        let fast_core = Fabric::new(FabricKind::Ring, 4, 50.0, 0, 2.0).unwrap();
        // A faster core sees fewer bytes per cycle from the same link.
        assert!(fast_core.bytes_per_cycle() < slow.bytes_per_cycle());
        assert!(fast_core.transfer_cycles(1 << 20) > slow.transfer_cycles(1 << 20));
    }

    #[test]
    fn display_tags_are_stable() {
        assert_eq!(FabricKind::Ring.to_string(), "ring");
        assert_eq!(
            FabricKind::Mesh2D { rows: 2, cols: 4 }.to_string(),
            "mesh2x4"
        );
        assert_eq!(FabricKind::Switch.to_string(), "switch");
    }

    #[test]
    fn single_chip_fabrics_are_valid_for_every_kind() {
        for kind in [
            FabricKind::Ring,
            FabricKind::Mesh2D { rows: 1, cols: 1 },
            FabricKind::Switch,
        ] {
            assert!(Fabric::new(kind, 1, 50.0, 500, 1.0).is_ok(), "{kind}");
        }
    }
}
