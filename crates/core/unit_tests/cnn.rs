//! Structure tests of the convolutional networks in the `workloads`
//! registry (the shipped `topologies/*.csv`).

mod tests {
    use crate::workloads::by_name;
    use scalesim_systolic::Layer;
    use scalesim_systolic::{ConvLayer, Topology};

    fn net(name: &str) -> Topology {
        by_name(name).expect("a registry workload")
    }

    fn conv_layers(t: &Topology) -> Vec<&ConvLayer> {
        t.iter()
            .filter_map(|l| match l {
                Layer::Conv(c) => Some(c),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn resnet18_shapes() {
        let t = net("resnet18");
        let convs = conv_layers(&t);
        // conv1 output must be 112×112.
        assert_eq!(convs[0].ofmap_h(), 112);
        // conv2 layers on 56×56.
        assert_eq!(convs[1].ofmap_h(), 56);
        // Downsample layers halve resolution.
        let conv3_0 = convs.iter().find(|c| c.name == "conv3_0").unwrap();
        assert_eq!(conv3_0.ofmap_h(), 28);
        let conv5_3 = convs.iter().find(|c| c.name == "conv5_3").unwrap();
        assert_eq!(conv5_3.ofmap_h(), 7);
        // 17 convs + 3 projections + fc = 21 layers.
        assert_eq!(t.len(), 21);
        // Total MACs ≈ 1.8 GMACs for ResNet-18 (±20% from padding choices).
        let gmacs = t.total_macs() as f64 / 1e9;
        assert!((1.4..=2.3).contains(&gmacs), "resnet18 {gmacs} GMACs");
    }

    #[test]
    fn resnet50_structure() {
        let t = net("resnet50");
        // 1 + (3+4+6+3)·3 convs + 4 projections + fc = 53 + fc.
        assert_eq!(t.len(), 1 + 16 * 3 + 4 + 1);
        let gmacs = t.total_macs() as f64 / 1e9;
        assert!((3.2..=5.0).contains(&gmacs), "resnet50 {gmacs} GMACs");
        // Every bottleneck output feeds the next block's input.
        let c = conv_layers(&t);
        let last = c.iter().find(|l| l.name == "conv5_2_1x1b").unwrap();
        assert_eq!(last.ofmap_h(), 7);
        assert_eq!(last.num_filters, 2048);
    }

    #[test]
    fn alexnet_shapes() {
        let t = net("alexnet");
        let convs = conv_layers(&t);
        assert_eq!(convs[0].ofmap_h(), 55);
        assert_eq!(convs[1].ofmap_h(), 27);
        assert_eq!(convs[4].ofmap_h(), 13);
        let gmacs = t.total_macs() as f64 / 1e9;
        assert!((0.6..=1.3).contains(&gmacs), "alexnet {gmacs} GMACs");
    }

    #[test]
    fn rcnn_has_backbone_and_head() {
        let t = net("rcnn");
        assert!(t.iter().any(|l| l.name() == "rpn_conv"));
        assert!(t.iter().any(|l| l.name() == "head_fc6"));
        let gmacs = t.total_macs() as f64 / 1e9;
        assert!(gmacs > 15.0, "rcnn {gmacs} GMACs — VGG16 alone is ~15.5");
    }
}
