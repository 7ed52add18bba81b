//! Convolutional network topologies (ResNet-18/50, AlexNet, R-CNN).
//!
//! Ifmap sizes include padding (SCALE-Sim computes `(ifmap − f)/s + 1` with
//! valid semantics), so e.g. a padded 3×3/1 layer on a 56×56 map is entered
//! as 58×58.

use scalesim_systolic::{ConvLayer, Layer, Topology};

fn conv(
    name: String,
    ifmap: usize,
    filter: usize,
    channels: usize,
    num_filters: usize,
    stride: usize,
    padded: bool,
) -> Layer {
    let pad = if padded { filter - 1 } else { 0 };
    Layer::Conv(ConvLayer {
        name,
        ifmap_h: ifmap + pad,
        ifmap_w: ifmap + pad,
        filter_h: filter,
        filter_w: filter,
        channels,
        num_filters,
        stride,
    })
}

/// ResNet-18 (ImageNet, 224×224): 17 convolutions, 3 projection shortcuts
/// and the final FC layer.
pub fn resnet18() -> Topology {
    let mut t = Topology::new("resnet18");
    // conv1: 7×7/2, pad 3 → 112.
    t.push(conv("conv1".into(), 224, 7, 3, 64, 2, true));
    // conv2_x after 3×3/2 maxpool → 56×56, four 3×3 convs.
    for i in 0..4 {
        t.push(conv(format!("conv2_{i}"), 56, 3, 64, 64, 1, true));
    }
    // conv3_x: downsample to 28, channels 128.
    t.push(conv("conv3_0".into(), 56, 3, 64, 128, 2, true));
    for i in 1..4 {
        t.push(conv(format!("conv3_{i}"), 28, 3, 128, 128, 1, true));
    }
    t.push(conv("conv3_proj".into(), 56, 1, 64, 128, 2, false));
    // conv4_x: 14, channels 256.
    t.push(conv("conv4_0".into(), 28, 3, 128, 256, 2, true));
    for i in 1..4 {
        t.push(conv(format!("conv4_{i}"), 14, 3, 256, 256, 1, true));
    }
    t.push(conv("conv4_proj".into(), 28, 1, 128, 256, 2, false));
    // conv5_x: 7, channels 512.
    t.push(conv("conv5_0".into(), 14, 3, 256, 512, 2, true));
    for i in 1..4 {
        t.push(conv(format!("conv5_{i}"), 7, 3, 512, 512, 1, true));
    }
    t.push(conv("conv5_proj".into(), 14, 1, 256, 512, 2, false));
    t.push(Layer::gemm_layer("fc", 1, 1000, 512));
    t
}

/// ResNet-50: bottleneck stages `[3, 4, 6, 3]` generated programmatically.
pub fn resnet50() -> Topology {
    let mut t = Topology::new("resnet50");
    t.push(conv("conv1".into(), 224, 7, 3, 64, 2, true));
    let stages: [(usize, usize, usize, usize); 4] = [
        // (blocks, spatial, mid_channels, out_channels)
        (3, 56, 64, 256),
        (4, 28, 128, 512),
        (6, 14, 256, 1024),
        (3, 7, 512, 2048),
    ];
    let mut in_ch = 64;
    for (s, &(blocks, size, mid, out)) in stages.iter().enumerate() {
        let stage = s + 2;
        for b in 0..blocks {
            // First block of stages 3-5 downsamples via stride-2 3×3.
            let (stride, in_size) = if b == 0 && stage > 2 {
                (2, size * 2)
            } else {
                (1, size)
            };
            let block_in = if b == 0 { in_ch } else { out };
            t.push(conv(
                format!("conv{stage}_{b}_1x1a"),
                if b == 0 && stage > 2 { in_size } else { size },
                1,
                block_in,
                mid,
                1,
                false,
            ));
            t.push(conv(
                format!("conv{stage}_{b}_3x3"),
                if b == 0 && stage > 2 { in_size } else { size },
                3,
                mid,
                mid,
                stride,
                true,
            ));
            t.push(conv(
                format!("conv{stage}_{b}_1x1b"),
                size,
                1,
                mid,
                out,
                1,
                false,
            ));
            if b == 0 {
                t.push(conv(
                    format!("conv{stage}_{b}_proj"),
                    in_size,
                    1,
                    block_in,
                    out,
                    stride,
                    false,
                ));
            }
        }
        in_ch = out;
    }
    t.push(Layer::gemm_layer("fc", 1, 1000, 2048));
    t
}

/// AlexNet (227×227 input): five convolutions and three FC layers.
pub fn alexnet() -> Topology {
    let mut t = Topology::new("alexnet");
    t.push(conv("conv1".into(), 227, 11, 3, 96, 4, false));
    t.push(conv("conv2".into(), 27, 5, 96, 256, 1, true));
    t.push(conv("conv3".into(), 13, 3, 256, 384, 1, true));
    t.push(conv("conv4".into(), 13, 3, 384, 384, 1, true));
    t.push(conv("conv5".into(), 13, 3, 384, 256, 1, true));
    t.push(Layer::gemm_layer("fc6", 1, 4096, 9216));
    t.push(Layer::gemm_layer("fc7", 1, 4096, 4096));
    t.push(Layer::gemm_layer("fc8", 1, 1000, 4096));
    t
}

/// A CIFAR-10-scale CNN (32×32 input): six 3×3 convolutions and two FC
/// layers. Small enough that design-space sweeps over many architecture
/// points stay fast — it is the conv workload of the shipped
/// `configs/example_sweep.toml` — while still exercising every layer
/// shape class (early wide convs, late channel-heavy convs, FC tails).
pub fn cifar_cnn() -> Topology {
    let mut t = Topology::new("cifar-cnn");
    t.push(conv("conv1".into(), 32, 3, 3, 32, 1, true));
    t.push(conv("conv2".into(), 32, 3, 32, 32, 1, true));
    t.push(conv("conv3".into(), 16, 3, 32, 64, 1, true));
    t.push(conv("conv4".into(), 16, 3, 64, 64, 1, true));
    t.push(conv("conv5".into(), 8, 3, 64, 128, 1, true));
    t.push(conv("conv6".into(), 8, 3, 128, 128, 1, true));
    t.push(Layer::gemm_layer("fc1", 1, 256, 2048));
    t.push(Layer::gemm_layer("fc2", 1, 10, 256));
    t
}

/// An R-CNN-style detector: VGG-16 backbone plus the region-proposal and
/// detection-head convolutions (the workload the paper labels "RCNN").
pub fn rcnn() -> Topology {
    let mut t = Topology::new("rcnn");
    let vgg: [(usize, usize, usize, usize); 13] = [
        (224, 3, 64, 1),
        (224, 64, 64, 1),
        (112, 64, 128, 1),
        (112, 128, 128, 1),
        (56, 128, 256, 1),
        (56, 256, 256, 1),
        (56, 256, 256, 1),
        (28, 256, 512, 1),
        (28, 512, 512, 1),
        (28, 512, 512, 1),
        (14, 512, 512, 1),
        (14, 512, 512, 1),
        (14, 512, 512, 1),
    ];
    for (i, &(size, cin, cout, stride)) in vgg.iter().enumerate() {
        t.push(conv(
            format!("vgg_conv{}", i + 1),
            size,
            3,
            cin,
            cout,
            stride,
            true,
        ));
    }
    // Region proposal network on the 14×14 feature map.
    t.push(conv("rpn_conv".into(), 14, 3, 512, 512, 1, true));
    t.push(conv("rpn_cls".into(), 14, 1, 512, 18, 1, false));
    t.push(conv("rpn_bbox".into(), 14, 1, 512, 36, 1, false));
    // Detection head on pooled 7×7 RoIs (batched as GEMMs, 128 RoIs).
    t.push(Layer::gemm_layer("head_fc6", 128, 4096, 7 * 7 * 512));
    t.push(Layer::gemm_layer("head_fc7", 128, 4096, 4096));
    t.push(Layer::gemm_layer("head_cls", 128, 21, 4096));
    t.push(Layer::gemm_layer("head_bbox", 128, 84, 4096));
    t
}
