//! Shape-level network topologies.
//!
//! The cycle and energy simulators need, for every layer of every evaluated
//! network, the exact convolution geometry (channels, spatial extent, kernel,
//! stride, padding, groups). This module models that geometry for all six
//! networks of the paper's evaluation plus LeNet-5 and the CIFAR ResNet-32
//! used in Section II.

use std::fmt;

/// What kind of operator a layer is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LayerOp {
    /// A (possibly grouped) 2-D convolution.
    Conv,
    /// A fully connected layer, modeled as a 1×1 convolution over a 1×1
    /// spatial extent.
    Fc,
}

/// The geometry of one convolution (or FC) layer.
///
/// # Examples
///
/// ```
/// use drq_models::ConvLayerSpec;
///
/// let l = ConvLayerSpec::conv("conv1", "C1", 3, 224, 224, 64, 7, 7, 2, 3);
/// assert_eq!(l.out_h(), 112);
/// assert_eq!(l.macs(), 64 * 112 * 112 * 3 * 49);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConvLayerSpec {
    /// Layer name, e.g. `"conv3_2"`.
    pub name: String,
    /// Coarse block label (used by the Fig. 16 utilization breakdown:
    /// `"C1"`, `"B1"`, ... for ResNet-18).
    pub block: String,
    /// Operator kind.
    pub op: LayerOp,
    /// Input channels.
    pub in_c: usize,
    /// Input height.
    pub in_h: usize,
    /// Input width.
    pub in_w: usize,
    /// Output channels.
    pub out_c: usize,
    /// Kernel height.
    pub kh: usize,
    /// Kernel width.
    pub kw: usize,
    /// Stride (both axes).
    pub stride: usize,
    /// Zero padding along the height axis.
    pub pad_h: usize,
    /// Zero padding along the width axis.
    pub pad_w: usize,
    /// Channel groups (`in_c` for depthwise).
    pub groups: usize,
    /// Window of the pooling layer that immediately follows this conv
    /// (`None` if not followed by pooling) — the predictor-reuse hook of
    /// Section IV-E.
    pub followed_by_pool: Option<usize>,
}

impl ConvLayerSpec {
    /// Creates an ungrouped convolution spec.
    #[allow(clippy::too_many_arguments)]
    pub fn conv(
        name: &str,
        block: &str,
        in_c: usize,
        in_h: usize,
        in_w: usize,
        out_c: usize,
        kh: usize,
        kw: usize,
        stride: usize,
        pad: usize,
    ) -> Self {
        Self {
            name: name.to_string(),
            block: block.to_string(),
            op: LayerOp::Conv,
            in_c,
            in_h,
            in_w,
            out_c,
            kh,
            kw,
            stride,
            pad_h: pad,
            pad_w: pad,
            groups: 1,
            followed_by_pool: None,
        }
    }

    /// Creates a fully connected spec (`in_f → out_f`).
    pub fn fc(name: &str, block: &str, in_f: usize, out_f: usize) -> Self {
        Self {
            name: name.to_string(),
            block: block.to_string(),
            op: LayerOp::Fc,
            in_c: in_f,
            in_h: 1,
            in_w: 1,
            out_c: out_f,
            kh: 1,
            kw: 1,
            stride: 1,
            pad_h: 0,
            pad_w: 0,
            groups: 1,
            followed_by_pool: None,
        }
    }

    /// Builder-style: sets the channel-group count.
    pub fn with_groups(mut self, groups: usize) -> Self {
        assert!(groups > 0 && self.in_c.is_multiple_of(groups) && self.out_c.is_multiple_of(groups));
        self.groups = groups;
        self
    }

    /// Builder-style: sets per-axis padding (for rectangular kernels with
    /// "same" semantics, e.g. Inception's 1×7 convolutions).
    pub fn with_pads(mut self, pad_h: usize, pad_w: usize) -> Self {
        self.pad_h = pad_h;
        self.pad_w = pad_w;
        self
    }

    /// Output height.
    pub fn out_h(&self) -> usize {
        (self.in_h + 2 * self.pad_h - self.kh) / self.stride + 1
    }

    /// Output width.
    pub fn out_w(&self) -> usize {
        (self.in_w + 2 * self.pad_w - self.kw) / self.stride + 1
    }

    /// Multiply-accumulate count for a single image.
    pub fn macs(&self) -> u64 {
        (self.out_c * self.out_h() * self.out_w()) as u64
            * (self.in_c / self.groups) as u64
            * (self.kh * self.kw) as u64
    }

    /// Weight element count.
    pub fn weight_count(&self) -> u64 {
        (self.out_c * (self.in_c / self.groups) * self.kh * self.kw) as u64
    }

    /// Input feature-map element count (single image).
    pub fn input_count(&self) -> u64 {
        (self.in_c * self.in_h * self.in_w) as u64
    }

    /// Output feature-map element count (single image).
    pub fn output_count(&self) -> u64 {
        (self.out_c * self.out_h() * self.out_w()) as u64
    }
}

impl fmt::Display for ConvLayerSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} [{}] {}x{}x{} -> {}x{}x{} k{}x{}/s{} g{}",
            self.name,
            self.block,
            self.in_c,
            self.in_h,
            self.in_w,
            self.out_c,
            self.out_h(),
            self.out_w(),
            self.kh,
            self.kw,
            self.stride,
            self.groups
        )
    }
}

/// A whole network as an ordered list of layer specs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NetworkTopology {
    /// Network name as the paper spells it (e.g. `"ResNet-18"`).
    pub name: String,
    /// Input `(channels, height, width)`.
    pub input: (usize, usize, usize),
    /// Classifier output classes.
    pub classes: usize,
    /// Conv/FC layers in execution order.
    pub layers: Vec<ConvLayerSpec>,
}

impl NetworkTopology {
    /// Total MACs over all layers (single image).
    pub fn total_macs(&self) -> u64 {
        self.layers.iter().map(ConvLayerSpec::macs).sum()
    }

    /// Total weight elements.
    pub fn total_weights(&self) -> u64 {
        self.layers.iter().map(ConvLayerSpec::weight_count).sum()
    }

    /// Distinct block labels in order of first appearance.
    pub fn blocks(&self) -> Vec<String> {
        let mut out: Vec<String> = Vec::new();
        for l in &self.layers {
            if out.last() != Some(&l.block) && !out.contains(&l.block) {
                out.push(l.block.clone());
            }
        }
        out
    }

    /// Sanity check: each layer's input matches the previous layer's output
    /// where the topology is sequential. Branching topologies (Inception,
    /// residual shortcuts) legitimately revisit the same input, so this
    /// checks only that spatial extents never *grow* and channels stay
    /// positive — a cheap structural invariant used by tests.
    pub fn validate(&self) -> Result<(), String> {
        if self.layers.is_empty() {
            return Err("topology has no layers".to_string());
        }
        for l in &self.layers {
            if l.in_c == 0 || l.out_c == 0 {
                return Err(format!("{}: zero channel count", l.name));
            }
            if l.in_h + 2 * l.pad_h < l.kh || l.in_w + 2 * l.pad_w < l.kw {
                return Err(format!("{}: kernel larger than padded input", l.name));
            }
            if l.in_c % l.groups != 0 || l.out_c % l.groups != 0 {
                return Err(format!("{}: groups do not divide channels", l.name));
            }
        }
        Ok(())
    }
}

/// Builders for the paper's evaluated networks.
pub mod zoo {
    use super::*;

    /// Input resolution regime: the paper evaluates every network on both
    /// ILSVRC-2012 (ImageNet resolution) and CIFAR-10 (32×32, with the
    /// standard stem adaptations).
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
    pub enum InputRes {
        /// ImageNet-resolution inputs (224×224 or the network's native size).
        Imagenet,
        /// CIFAR-resolution inputs (32×32), with reduced-stride stems.
        Cifar,
    }

    impl InputRes {
        /// Number of classes in the corresponding dataset.
        pub fn classes(self) -> usize {
            match self {
                InputRes::Imagenet => 1000,
                InputRes::Cifar => 10,
            }
        }
    }

    /// Incremental topology builder tracking the running feature-map shape.
    struct B {
        layers: Vec<ConvLayerSpec>,
        c: usize,
        h: usize,
        w: usize,
        block: String,
    }

    impl B {
        fn new(c: usize, h: usize, w: usize) -> Self {
            Self { layers: Vec::new(), c, h, w, block: "C1".to_string() }
        }

        fn block(&mut self, name: &str) {
            self.block = name.to_string();
        }

        fn conv(&mut self, name: &str, out_c: usize, k: usize, s: usize, p: usize) {
            self.conv_rect(name, out_c, k, k, s, p);
        }

        fn conv_rect(&mut self, name: &str, out_c: usize, kh: usize, kw: usize, s: usize, p: usize) {
            let l = ConvLayerSpec::conv(name, &self.block, self.c, self.h, self.w, out_c, kh, kw, s, p);
            self.c = out_c;
            self.h = l.out_h();
            self.w = l.out_w();
            self.layers.push(l);
        }

        /// Adds a conv that does NOT advance the running shape (a parallel
        /// branch or a residual projection reading the same input).
        #[allow(clippy::too_many_arguments)]
        fn branch_conv(
            &mut self,
            name: &str,
            in_c: usize,
            in_h: usize,
            in_w: usize,
            out_c: usize,
            k: usize,
            s: usize,
            p: usize,
        ) {
            self.layers.push(ConvLayerSpec::conv(
                name,
                &self.block,
                in_c,
                in_h,
                in_w,
                out_c,
                k,
                k,
                s,
                p,
            ));
        }

        fn dw(&mut self, name: &str, k: usize, s: usize, p: usize) {
            let l = ConvLayerSpec::conv(name, &self.block, self.c, self.h, self.w, self.c, k, k, s, p)
                .with_groups(self.c);
            self.h = l.out_h();
            self.w = l.out_w();
            self.layers.push(l);
        }

        /// Marks the most recently added conv as grouped.
        fn grouped_last(&mut self, groups: usize) {
            let l = self.layers.last_mut().expect("no layer to group");
            assert!(l.in_c.is_multiple_of(groups) && l.out_c.is_multiple_of(groups));
            l.groups = groups;
        }

        fn pool(&mut self, n: usize, s: usize) {
            if let Some(last) = self.layers.last_mut() {
                last.followed_by_pool = Some(n);
            }
            self.h = (self.h - n) / s + 1;
            self.w = (self.w - n) / s + 1;
        }

        fn global_pool(&mut self) {
            if let Some(last) = self.layers.last_mut() {
                last.followed_by_pool = Some(self.h);
            }
            self.h = 1;
            self.w = 1;
        }

        fn fc(&mut self, name: &str, out_f: usize) {
            let in_f = self.c * self.h * self.w;
            self.layers.push(ConvLayerSpec::fc(name, &self.block, in_f, out_f));
            self.c = out_f;
            self.h = 1;
            self.w = 1;
        }

        fn finish(self, name: &str, input: (usize, usize, usize), classes: usize) -> NetworkTopology {
            let t = NetworkTopology {
                name: name.to_string(),
                input,
                classes,
                layers: self.layers,
            };
            t.validate().expect("builder produced invalid topology");
            t
        }
    }

    /// AlexNet (Krizhevsky et al.): 5 convs + 3 FC.
    pub fn alexnet(res: InputRes) -> NetworkTopology {
        let (h0, classes) = match res {
            InputRes::Imagenet => (227, 1000),
            InputRes::Cifar => (32, 10),
        };
        let mut b = B::new(3, h0, h0);
        match res {
            InputRes::Imagenet => {
                b.conv("conv1", 96, 11, 4, 0);
                b.pool(3, 2);
            }
            InputRes::Cifar => {
                b.conv("conv1", 96, 3, 1, 1);
                b.pool(2, 2);
            }
        }
        b.block("C2");
        // The original AlexNet splits conv2/4/5 across two GPUs (groups=2).
        b.conv("conv2", 256, 5, 1, 2);
        b.grouped_last(2);
        b.pool(3.min(b.h), 2);
        b.block("C3");
        b.conv("conv3", 384, 3, 1, 1);
        b.conv("conv4", 384, 3, 1, 1);
        b.grouped_last(2);
        b.conv("conv5", 256, 3, 1, 1);
        b.grouped_last(2);
        b.pool(3.min(b.h), 2);
        b.block("FC");
        b.fc("fc6", 4096);
        b.fc("fc7", 4096);
        b.fc("fc8", classes);
        b.finish("AlexNet", (3, h0, h0), classes)
    }

    /// VGG16 (Simonyan & Zisserman): 13 convs + 3 FC.
    pub fn vgg16(res: InputRes) -> NetworkTopology {
        let (h0, classes) = match res {
            InputRes::Imagenet => (224, 1000),
            InputRes::Cifar => (32, 10),
        };
        let mut b = B::new(3, h0, h0);
        let stages: [(usize, usize); 5] = [(64, 2), (128, 2), (256, 3), (512, 3), (512, 3)];
        for (i, &(width, reps)) in stages.iter().enumerate() {
            b.block(&format!("S{}", i + 1));
            for r in 0..reps {
                b.conv(&format!("conv{}_{}", i + 1, r + 1), width, 3, 1, 1);
            }
            if b.h >= 2 {
                b.pool(2, 2);
            }
        }
        b.block("FC");
        if res == InputRes::Imagenet {
            b.fc("fc6", 4096);
            b.fc("fc7", 4096);
        } else {
            b.fc("fc6", 512);
            b.fc("fc7", 512);
        }
        b.fc("fc8", classes);
        b.finish("VGG16", (3, h0, h0), classes)
    }

    fn resnet_basic_stage(b: &mut B, block: &str, width: usize, blocks: usize, first_stride: usize) {
        b.block(block);
        for i in 0..blocks {
            let stride = if i == 0 { first_stride } else { 1 };
            let (in_c, in_h, in_w) = (b.c, b.h, b.w);
            b.conv(&format!("{block}_b{}_conv1", i + 1), width, 3, stride, 1);
            b.conv(&format!("{block}_b{}_conv2", i + 1), width, 3, 1, 1);
            if stride != 1 || in_c != width {
                b.branch_conv(
                    &format!("{block}_b{}_proj", i + 1),
                    in_c,
                    in_h,
                    in_w,
                    width,
                    1,
                    stride,
                    0,
                );
            }
        }
    }

    /// ResNet-18 (He et al.), with the block labels C1/B1–B4 the paper's
    /// Fig. 16 uses.
    pub fn resnet18(res: InputRes) -> NetworkTopology {
        let (h0, classes) = match res {
            InputRes::Imagenet => (224, 1000),
            InputRes::Cifar => (32, 10),
        };
        let mut b = B::new(3, h0, h0);
        b.block("C1");
        match res {
            InputRes::Imagenet => {
                b.conv("conv1", 64, 7, 2, 3);
                b.pool(3, 2);
            }
            InputRes::Cifar => {
                b.conv("conv1", 64, 3, 1, 1);
            }
        }
        resnet_basic_stage(&mut b, "B1", 64, 2, 1);
        resnet_basic_stage(&mut b, "B2", 128, 2, 2);
        resnet_basic_stage(&mut b, "B3", 256, 2, 2);
        resnet_basic_stage(&mut b, "B4", 512, 2, 2);
        b.global_pool();
        b.block("FC");
        b.fc("fc", classes);
        b.finish("ResNet-18", (3, h0, h0), classes)
    }

    fn resnet_bottleneck_stage(
        b: &mut B,
        block: &str,
        width: usize,
        blocks: usize,
        first_stride: usize,
    ) {
        b.block(block);
        let out_c = width * 4;
        for i in 0..blocks {
            let stride = if i == 0 { first_stride } else { 1 };
            let (in_c, in_h, in_w) = (b.c, b.h, b.w);
            b.conv(&format!("{block}_b{}_conv1", i + 1), width, 1, 1, 0);
            b.conv(&format!("{block}_b{}_conv2", i + 1), width, 3, stride, 1);
            b.conv(&format!("{block}_b{}_conv3", i + 1), out_c, 1, 1, 0);
            if stride != 1 || in_c != out_c {
                b.branch_conv(
                    &format!("{block}_b{}_proj", i + 1),
                    in_c,
                    in_h,
                    in_w,
                    out_c,
                    1,
                    stride,
                    0,
                );
            }
        }
    }

    /// ResNet-50 (He et al.), bottleneck blocks [3, 4, 6, 3].
    pub fn resnet50(res: InputRes) -> NetworkTopology {
        let (h0, classes) = match res {
            InputRes::Imagenet => (224, 1000),
            InputRes::Cifar => (32, 10),
        };
        let mut b = B::new(3, h0, h0);
        b.block("C1");
        match res {
            InputRes::Imagenet => {
                b.conv("conv1", 64, 7, 2, 3);
                b.pool(3, 2);
            }
            InputRes::Cifar => {
                b.conv("conv1", 64, 3, 1, 1);
            }
        }
        resnet_bottleneck_stage(&mut b, "B1", 64, 3, 1);
        resnet_bottleneck_stage(&mut b, "B2", 128, 4, 2);
        resnet_bottleneck_stage(&mut b, "B3", 256, 6, 2);
        resnet_bottleneck_stage(&mut b, "B4", 512, 3, 2);
        b.global_pool();
        b.block("FC");
        b.fc("fc", classes);
        b.finish("ResNet-50", (3, h0, h0), classes)
    }

    /// ResNet-32 for CIFAR (the Section II noise-study network): 3 stages of
    /// 5 basic blocks at widths 16/32/64.
    pub fn resnet32_cifar() -> NetworkTopology {
        let mut b = B::new(3, 32, 32);
        b.block("C1");
        b.conv("conv1", 16, 3, 1, 1);
        resnet_basic_stage(&mut b, "B1", 16, 5, 1);
        resnet_basic_stage(&mut b, "B2", 32, 5, 2);
        resnet_basic_stage(&mut b, "B3", 64, 5, 2);
        b.global_pool();
        b.block("FC");
        b.fc("fc", 10);
        b.finish("ResNet-32", (3, 32, 32), 10)
    }

    /// One Inception-A module at 35×35 (branches: 1×1; 1×1→5×5; 1×1→3×3→3×3;
    /// pool→1×1).
    fn inception_a(b: &mut B, idx: usize, in_c: usize, h: usize, pool_proj: usize) -> usize {
        let blk = format!("IA{idx}");
        b.block(&blk);
        b.branch_conv(&format!("{blk}_1x1"), in_c, h, h, 64, 1, 1, 0);
        b.branch_conv(&format!("{blk}_5x5r"), in_c, h, h, 48, 1, 1, 0);
        b.branch_conv(&format!("{blk}_5x5"), 48, h, h, 64, 5, 1, 2);
        b.branch_conv(&format!("{blk}_3x3r"), in_c, h, h, 64, 1, 1, 0);
        b.branch_conv(&format!("{blk}_3x3a"), 64, h, h, 96, 3, 1, 1);
        b.branch_conv(&format!("{blk}_3x3b"), 96, h, h, 96, 3, 1, 1);
        b.branch_conv(&format!("{blk}_poolp"), in_c, h, h, pool_proj, 1, 1, 0);
        64 + 64 + 96 + pool_proj
    }

    /// One Inception-B module at 17×17 with factorized 7×1/1×7 convolutions.
    fn inception_b(b: &mut B, idx: usize, in_c: usize, h: usize, mid: usize) -> usize {
        let blk = format!("IB{idx}");
        b.block(&blk);
        b.branch_conv(&format!("{blk}_1x1"), in_c, h, h, 192, 1, 1, 0);
        // 1x7 then 7x1 factorized branch.
        b.branch_conv(&format!("{blk}_7r"), in_c, h, h, mid, 1, 1, 0);
        b.layers.push(
            ConvLayerSpec::conv(&format!("{blk}_1x7"), &b.block, mid, h, h, mid, 1, 7, 1, 0)
                .with_pads(0, 3),
        );
        b.layers.push(
            ConvLayerSpec::conv(&format!("{blk}_7x1"), &b.block, mid, h, h, 192, 7, 1, 1, 0)
                .with_pads(3, 0),
        );
        // Double factorized branch.
        b.branch_conv(&format!("{blk}_d7r"), in_c, h, h, mid, 1, 1, 0);
        for (i, (kh, kw, out)) in [(7, 1, mid), (1, 7, mid), (7, 1, mid), (1, 7, 192)]
            .iter()
            .enumerate()
        {
            b.layers.push(
                ConvLayerSpec::conv(
                    &format!("{blk}_d7_{i}"),
                    &b.block,
                    mid,
                    h,
                    h,
                    *out,
                    *kh,
                    *kw,
                    1,
                    0,
                )
                .with_pads((*kh - 1) / 2, (*kw - 1) / 2),
            );
        }
        b.branch_conv(&format!("{blk}_poolp"), in_c, h, h, 192, 1, 1, 0);
        192 * 4
    }

    /// Inception-v3 (Szegedy et al.), 299×299 native input. The module
    /// structure (stem, 3×A at 35², reduction, 4×B at 17², reduction,
    /// 2×C at 8²) follows the original; branch concatenations are modeled
    /// as parallel layer specs reading the same input.
    pub fn inception_v3(res: InputRes) -> NetworkTopology {
        let classes = res.classes();
        match res {
            InputRes::Imagenet => {
                let mut b = B::new(3, 299, 299);
                b.block("stem");
                b.conv("conv1", 32, 3, 2, 0); // 149
                b.conv("conv2", 32, 3, 1, 0); // 147
                b.conv("conv3", 64, 3, 1, 1); // 147
                b.pool(3, 2); // 73
                b.conv("conv4", 80, 1, 1, 0);
                b.conv("conv5", 192, 3, 1, 0); // 71
                b.pool(3, 2); // 35
                let mut c = 192;
                for (i, pp) in [32usize, 64, 64].iter().enumerate() {
                    c = inception_a(&mut b, i + 1, c, 35, *pp);
                }
                // Reduction A: 35 -> 17.
                b.block("RA");
                b.branch_conv("ra_3x3", c, 35, 35, 384, 3, 2, 0);
                b.branch_conv("ra_dr", c, 35, 35, 64, 1, 1, 0);
                b.branch_conv("ra_da", 64, 35, 35, 96, 3, 1, 1);
                b.branch_conv("ra_db", 96, 35, 35, 96, 3, 2, 0);
                c += 384 + 96; // plus pooled passthrough
                b.c = c;
                b.h = 17;
                b.w = 17;
                for (i, mid) in [128usize, 160, 160, 192].iter().enumerate() {
                    c = inception_b(&mut b, i + 1, c, 17, *mid);
                    b.c = c;
                }
                // Reduction B: 17 -> 8.
                b.block("RB");
                b.branch_conv("rb_3r", c, 17, 17, 192, 1, 1, 0);
                b.branch_conv("rb_3", 192, 17, 17, 320, 3, 2, 0);
                b.branch_conv("rb_7r", c, 17, 17, 192, 1, 1, 0);
                b.layers.push(
                    ConvLayerSpec::conv("rb_1x7", "RB", 192, 17, 17, 192, 1, 7, 1, 0)
                        .with_pads(0, 3),
                );
                b.layers.push(
                    ConvLayerSpec::conv("rb_7x1", "RB", 192, 17, 17, 192, 7, 1, 1, 0)
                        .with_pads(3, 0),
                );
                b.branch_conv("rb_3b", 192, 17, 17, 192, 3, 2, 0);
                c += 320 + 192;
                b.c = c;
                b.h = 8;
                b.w = 8;
                // Two Inception-C modules at 8x8.
                for i in 1..=2 {
                    let blk = format!("IC{i}");
                    b.block(&blk);
                    b.branch_conv(&format!("{blk}_1x1"), c, 8, 8, 320, 1, 1, 0);
                    b.branch_conv(&format!("{blk}_3r"), c, 8, 8, 384, 1, 1, 0);
                    b.layers.push(
                        ConvLayerSpec::conv(&format!("{blk}_1x3"), &b.block, 384, 8, 8, 384, 1, 3, 1, 0)
                            .with_pads(0, 1),
                    );
                    b.layers.push(
                        ConvLayerSpec::conv(&format!("{blk}_3x1"), &b.block, 384, 8, 8, 384, 3, 1, 1, 0)
                            .with_pads(1, 0),
                    );
                    b.branch_conv(&format!("{blk}_dr"), c, 8, 8, 448, 1, 1, 0);
                    b.layers.push(ConvLayerSpec::conv(&format!("{blk}_d3"), &b.block, 448, 8, 8, 384, 3, 3, 1, 1));
                    b.layers.push(
                        ConvLayerSpec::conv(&format!("{blk}_d1x3"), &b.block, 384, 8, 8, 384, 1, 3, 1, 0)
                            .with_pads(0, 1),
                    );
                    b.layers.push(
                        ConvLayerSpec::conv(&format!("{blk}_d3x1"), &b.block, 384, 8, 8, 384, 3, 1, 1, 0)
                            .with_pads(1, 0),
                    );
                    b.branch_conv(&format!("{blk}_poolp"), c, 8, 8, 192, 1, 1, 0);
                    c = 320 + 768 + 768 + 192; // 2048
                    b.c = c;
                }
                b.global_pool();
                b.block("FC");
                b.fc("fc", classes);
                b.finish("Inception-v3", (3, 299, 299), classes)
            }
            InputRes::Cifar => {
                // CIFAR adaptation: same module stack at reduced depth and
                // resolution (stem without aggressive striding).
                let mut b = B::new(3, 32, 32);
                b.block("stem");
                b.conv("conv1", 32, 3, 1, 1);
                b.conv("conv2", 64, 3, 1, 1);
                b.conv("conv3", 192, 3, 1, 1);
                let mut c = 192;
                for (i, pp) in [32usize, 64].iter().enumerate() {
                    c = inception_a(&mut b, i + 1, c, 32, *pp);
                    b.c = c;
                }
                b.block("RA");
                b.branch_conv("ra_3x3", c, 32, 32, 384, 3, 2, 0);
                c += 384;
                b.c = c;
                b.h = 15;
                b.w = 15;
                c = inception_b(&mut b, 1, c, 15, 128);
                b.c = c;
                b.global_pool();
                b.block("FC");
                b.fc("fc", classes);
                b.finish("Inception-v3", (3, 32, 32), classes)
            }
        }
    }

    /// MobileNet-v2 (Sandler et al.): inverted residual bottlenecks with
    /// depthwise 3×3 convolutions.
    pub fn mobilenet_v2(res: InputRes) -> NetworkTopology {
        let (h0, classes) = match res {
            InputRes::Imagenet => (224, 1000),
            InputRes::Cifar => (32, 10),
        };
        let mut b = B::new(3, h0, h0);
        b.block("C1");
        match res {
            InputRes::Imagenet => b.conv("conv1", 32, 3, 2, 1),
            InputRes::Cifar => b.conv("conv1", 32, 3, 1, 1),
        }
        // (expansion t, out channels c, repeats n, first stride s)
        let cfg: [(usize, usize, usize, usize); 7] = [
            (1, 16, 1, 1),
            (6, 24, 2, 2),
            (6, 32, 3, 2),
            (6, 64, 4, 2),
            (6, 96, 3, 1),
            (6, 160, 3, 2),
            (6, 320, 1, 1),
        ];
        for (stage, &(t, c_out, n, s)) in cfg.iter().enumerate() {
            b.block(&format!("IR{}", stage + 1));
            for i in 0..n {
                let stride = if i == 0 {
                    // CIFAR keeps more resolution: skip the first two
                    // down-samplings.
                    if res == InputRes::Cifar && stage < 2 { 1 } else { s }
                } else {
                    1
                };
                let in_c = b.c;
                let exp = in_c * t;
                if t != 1 {
                    b.conv(&format!("ir{}_{}_expand", stage + 1, i + 1), exp, 1, 1, 0);
                }
                b.dw(&format!("ir{}_{}_dw", stage + 1, i + 1), 3, stride, 1);
                b.conv(&format!("ir{}_{}_project", stage + 1, i + 1), c_out, 1, 1, 0);
            }
        }
        b.block("head");
        b.conv("conv_last", 1280, 1, 1, 0);
        b.global_pool();
        b.fc("fc", classes);
        b.finish("MobileNet-v2", (3, h0, h0), classes)
    }

    /// LeNet-5 (LeCun et al.) for 28×28 inputs — the Fig. 3 visualization
    /// network.
    pub fn lenet5() -> NetworkTopology {
        let mut b = B::new(1, 28, 28);
        b.block("C1");
        b.conv("conv1", 6, 5, 1, 2);
        b.pool(2, 2);
        b.block("C2");
        b.conv("conv2", 16, 5, 1, 0);
        b.pool(2, 2);
        b.block("FC");
        b.fc("fc1", 120);
        b.fc("fc2", 84);
        b.fc("fc3", 10);
        b.finish("LeNet-5", (1, 28, 28), 10)
    }

    /// The six networks of the paper's Fig. 11–13 evaluation, in paper order.
    pub fn paper_six(res: InputRes) -> Vec<NetworkTopology> {
        vec![
            alexnet(res),
            vgg16(res),
            resnet18(res),
            resnet50(res),
            inception_v3(res),
            mobilenet_v2(res),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::zoo::{self, InputRes};
    use super::*;

    #[test]
    fn all_topologies_validate() {
        for res in [InputRes::Imagenet, InputRes::Cifar] {
            for net in zoo::paper_six(res) {
                net.validate().unwrap_or_else(|e| panic!("{} ({res:?}): {e}", net.name));
            }
        }
        zoo::lenet5().validate().unwrap();
        zoo::resnet32_cifar().validate().unwrap();
    }

    #[test]
    fn mac_counts_match_published_orders_of_magnitude() {
        // Known single-image MAC counts (±35 % tolerance; published figures
        // vary slightly with input-size conventions).
        let cases = [
            (zoo::alexnet(InputRes::Imagenet), 0.72e9),
            (zoo::vgg16(InputRes::Imagenet), 15.5e9),
            (zoo::resnet18(InputRes::Imagenet), 1.8e9),
            (zoo::resnet50(InputRes::Imagenet), 4.1e9),
            (zoo::inception_v3(InputRes::Imagenet), 5.7e9),
            (zoo::mobilenet_v2(InputRes::Imagenet), 0.3e9),
        ];
        for (net, expected) in cases {
            let macs = net.total_macs() as f64;
            assert!(
                macs > expected * 0.65 && macs < expected * 1.35,
                "{}: {macs:.3e} vs expected {expected:.3e}",
                net.name
            );
        }
    }

    #[test]
    fn weight_counts_match_published_orders() {
        let vgg = zoo::vgg16(InputRes::Imagenet);
        // VGG16 has ~138 M parameters (weights dominate).
        let w = vgg.total_weights() as f64;
        assert!(w > 120e6 && w < 150e6, "VGG16 weights {w:.3e}");
        let mob = zoo::mobilenet_v2(InputRes::Imagenet);
        let w = mob.total_weights() as f64;
        assert!(w > 2e6 && w < 5e6, "MobileNet-v2 weights {w:.3e}");
    }

    #[test]
    fn resnet18_has_paper_blocks() {
        let net = zoo::resnet18(InputRes::Imagenet);
        let blocks = net.blocks();
        assert!(blocks.starts_with(&[
            "C1".to_string(),
            "B1".to_string(),
            "B2".to_string(),
            "B3".to_string(),
            "B4".to_string()
        ]));
        // 17 convs (1 stem + 16 in blocks) + 3 projections + 1 fc = 21.
        assert_eq!(net.layers.len(), 21);
        assert_eq!(net.layers.iter().filter(|l| l.op == LayerOp::Conv).count(), 20);
    }

    #[test]
    fn depthwise_layers_have_full_groups() {
        let net = zoo::mobilenet_v2(InputRes::Imagenet);
        let dw: Vec<_> = net.layers.iter().filter(|l| l.groups > 1).collect();
        assert!(!dw.is_empty());
        for l in dw {
            assert_eq!(l.groups, l.in_c, "{} should be depthwise", l.name);
            assert_eq!(l.in_c, l.out_c);
        }
    }

    #[test]
    fn cifar_variants_shrink_compute() {
        for (img, cif) in zoo::paper_six(InputRes::Imagenet)
            .into_iter()
            .zip(zoo::paper_six(InputRes::Cifar))
        {
            assert!(
                cif.total_macs() < img.total_macs(),
                "{}: CIFAR should be cheaper",
                img.name
            );
            assert_eq!(cif.classes, 10);
            assert_eq!(img.classes, 1000);
        }
    }

    #[test]
    fn lenet_shapes_match_reference() {
        let net = zoo::lenet5();
        assert_eq!(net.layers[0].out_h(), 28);
        assert_eq!(net.layers[1].in_h, 14);
        assert_eq!(net.layers[1].out_h(), 10);
        // FC1 input = 16 * 5 * 5.
        assert_eq!(net.layers[2].in_c, 400);
    }

    #[test]
    fn rectangular_kernels_appear_in_inception() {
        let net = zoo::inception_v3(InputRes::Imagenet);
        assert!(net.layers.iter().any(|l| l.kh != l.kw));
    }

    #[test]
    fn display_is_informative() {
        let l = ConvLayerSpec::conv("c", "B1", 3, 8, 8, 16, 3, 3, 1, 1);
        let s = l.to_string();
        assert!(s.contains("B1") && s.contains("3x8x8"));
    }
}
