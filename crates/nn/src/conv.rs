//! 2-D convolution with full backward pass.

use crate::NnError;
use drq_tensor::{
    col2im_accumulate_into, gemm, he_normal, im2col_into, parallel, Im2ColLayout, Rhs, Shape4,
    Tensor, XorShiftRng,
};

/// A 2-D convolution layer (NCHW, square kernels, symmetric stride/padding,
/// optional channel groups for depthwise convolutions).
///
/// Weights are stored `[out_c, in_c/groups, k, k]`, bias `[out_c]`. Forward
/// uses im2col + matmul — the same decomposition the DRQ accelerator's
/// im2col/pack engine applies in hardware (Section IV-B of the paper).
///
/// # Examples
///
/// ```
/// use drq_nn::Conv2d;
/// use drq_tensor::Tensor;
///
/// let mut conv = Conv2d::new(3, 8, 3, 1, 1, 42);
/// let y = conv.forward(&Tensor::zeros(&[1, 3, 16, 16]), false);
/// assert_eq!(y.shape(), &[1, 8, 16, 16]);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Conv2d {
    in_c: usize,
    out_c: usize,
    k: usize,
    stride: usize,
    pad: usize,
    groups: usize,
    weight: Tensor<f32>,
    bias: Tensor<f32>,
    grad_weight: Tensor<f32>,
    grad_bias: Tensor<f32>,
    cached_input: Option<Tensor<f32>>,
}

impl Conv2d {
    /// Creates a convolution with He-normal weights seeded by `seed`.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0` or `stride == 0` (delegates to [`Conv2d::try_new`]).
    pub fn new(in_c: usize, out_c: usize, k: usize, stride: usize, pad: usize, seed: u64) -> Self {
        Self::with_groups(in_c, out_c, k, stride, pad, 1, seed)
    }

    /// Fallible variant of [`Conv2d::new`] returning a typed error instead
    /// of panicking.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InvalidLayer`] if `k == 0` or `stride == 0`.
    pub fn try_new(
        in_c: usize,
        out_c: usize,
        k: usize,
        stride: usize,
        pad: usize,
        seed: u64,
    ) -> Result<Self, NnError> {
        Self::try_with_groups(in_c, out_c, k, stride, pad, 1, seed)
    }

    /// Creates a grouped convolution; `groups == in_c == out_c` gives a
    /// depthwise convolution (MobileNet-v2 style).
    ///
    /// # Panics
    ///
    /// Panics if channel counts are not divisible by `groups` (delegates
    /// to [`Conv2d::try_with_groups`], preserving the message text).
    pub fn with_groups(
        in_c: usize,
        out_c: usize,
        k: usize,
        stride: usize,
        pad: usize,
        groups: usize,
        seed: u64,
    ) -> Self {
        Self::try_with_groups(in_c, out_c, k, stride, pad, groups, seed)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible variant of [`Conv2d::with_groups`] returning a typed error
    /// instead of panicking.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InvalidLayer`] on a zero kernel/stride or channel
    /// counts that do not divide the group count.
    pub fn try_with_groups(
        in_c: usize,
        out_c: usize,
        k: usize,
        stride: usize,
        pad: usize,
        groups: usize,
        seed: u64,
    ) -> Result<Self, NnError> {
        if k == 0 || stride == 0 {
            return Err(NnError::InvalidLayer {
                context: "conv2d",
                detail: "kernel and stride must be positive".to_string(),
            });
        }
        if groups == 0 || !in_c.is_multiple_of(groups) || !out_c.is_multiple_of(groups) {
            return Err(NnError::InvalidLayer {
                context: "conv2d",
                detail: format!("channels ({in_c} -> {out_c}) must divide groups ({groups})"),
            });
        }
        let mut rng = XorShiftRng::new(seed);
        let cpg = in_c / groups;
        let fan_in = cpg * k * k;
        let weight = he_normal(&[out_c, cpg, k, k], fan_in, &mut rng);
        Ok(Self {
            in_c,
            out_c,
            k,
            stride,
            pad,
            groups,
            grad_weight: Tensor::zeros(weight.shape()),
            weight,
            bias: Tensor::zeros(&[out_c]),
            grad_bias: Tensor::zeros(&[out_c]),
            cached_input: None,
        })
    }

    /// Input channel count.
    pub fn in_channels(&self) -> usize {
        self.in_c
    }

    /// Output channel count.
    pub fn out_channels(&self) -> usize {
        self.out_c
    }

    /// Kernel extent (square).
    pub fn kernel(&self) -> usize {
        self.k
    }

    /// Stride.
    pub fn stride(&self) -> usize {
        self.stride
    }

    /// Zero padding.
    pub fn padding(&self) -> usize {
        self.pad
    }

    /// Number of channel groups.
    pub fn groups(&self) -> usize {
        self.groups
    }

    /// Immutable weight tensor `[out_c, in_c/groups, k, k]`.
    pub fn weight(&self) -> &Tensor<f32> {
        &self.weight
    }

    /// Mutable weight tensor (used by quantization-aware fine-tuning).
    pub fn weight_mut(&mut self) -> &mut Tensor<f32> {
        &mut self.weight
    }

    /// Immutable bias tensor `[out_c]`.
    pub fn bias(&self) -> &Tensor<f32> {
        &self.bias
    }

    /// Multiply-accumulate count for one forward pass over `input` shape.
    pub fn mac_count(&self, input: Shape4) -> u64 {
        let layout = self.layout(input);
        let per_image = self.out_c * layout.cols() * (self.in_c / self.groups) * self.k * self.k;
        per_image as u64 * input.n as u64
    }

    /// The im2col layout this convolution induces over `input`.
    ///
    /// # Panics
    ///
    /// Panics if the kernel does not fit in the padded input.
    pub fn layout(&self, input: Shape4) -> Im2ColLayout {
        Im2ColLayout::new(input, self.k, self.k, self.stride, self.pad)
    }

    /// Output shape for a given input shape.
    pub fn output_shape(&self, input: Shape4) -> Shape4 {
        let layout = self.layout(input);
        Shape4::new(input.n, self.out_c, layout.out_h, layout.out_w)
    }

    /// Forward pass. With `train == true` the input is cached for
    /// [`Self::backward`].
    ///
    /// # Panics
    ///
    /// Panics if `x` is not rank 4 or its channel count mismatches.
    pub fn forward(&mut self, x: &Tensor<f32>, train: bool) -> Tensor<f32> {
        let s = x.shape4().expect("conv input must be rank 4");
        assert_eq!(s.c, self.in_c, "conv expects {} input channels, got {}", self.in_c, s.c);
        let out = self.forward_with_weights(x, &self.weight);
        if train {
            self.cached_input = Some(x.clone());
        }
        out
    }

    /// Forward pass using externally supplied weights of the same shape.
    ///
    /// This is the hook the quantization crates use: they pass fake-quantized
    /// or mixed-precision weight tensors through the identical compute path.
    ///
    /// Per image and channel group, the GEMM of the group's weight rows and
    /// column-matrix rows writes straight into the output rows, and the bias
    /// is added in place. Batches shard across threads (one worker per
    /// image); a single image instead parallelizes inside the im2col/GEMM
    /// kernels. Outputs are bit-identical for every thread count and batch
    /// split.
    ///
    /// # Panics
    ///
    /// Panics on any shape mismatch.
    pub fn forward_with_weights(&self, x: &Tensor<f32>, weight: &Tensor<f32>) -> Tensor<f32> {
        assert_eq!(weight.shape(), self.weight.shape(), "weight shape mismatch");
        let s = x.shape4().expect("conv input must be rank 4");
        let layout = self.layout(s);
        let mut out = Tensor::<f32>::zeros(&self.output_shape(s).as_array());
        let (cpg_out, taps, ncols) = self.group_dims(&layout);
        let img_len = self.out_c * ncols;
        if img_len == 0 || s.n == 0 {
            return out;
        }
        let in_len = s.c * s.h * s.w;
        let (xv, wv, bv) = (x.as_slice(), weight.as_slice(), self.bias.as_slice());
        parallel::for_each_chunk_mut(out.as_mut_slice(), img_len, |n, oimg| {
            let mut cols = vec![0.0f32; layout.rows() * ncols];
            im2col_into(&xv[n * in_len..][..in_len], &layout, &mut cols);
            for g in 0..self.groups {
                let y = &mut oimg[g * cpg_out * ncols..][..cpg_out * ncols];
                let w = &wv[g * cpg_out * taps..][..cpg_out * taps];
                let gcols = &cols[g * taps * ncols..][..taps * ncols];
                gemm(cpg_out, taps, ncols, w, gcols, Rhs::Plain, y);
                for (yrow, &b) in y.chunks_exact_mut(ncols).zip(&bv[g * cpg_out..]) {
                    yrow.iter_mut().for_each(|v| *v += b);
                }
            }
        });
        out
    }

    /// Backward pass: accumulates weight/bias gradients and returns the
    /// input gradient.
    ///
    /// Images are independent work items, so the batch shards across threads.
    /// Each worker writes its image's input gradient into that image's slab
    /// of the result and produces its weight and bias gradients privately;
    /// the calling thread reduces those in batch order. Gradients are
    /// therefore bit-identical for every thread count.
    ///
    /// # Panics
    ///
    /// Panics if called before a training-mode forward pass.
    pub fn backward(&mut self, grad_out: &Tensor<f32>) -> Tensor<f32> {
        let x = self
            .cached_input
            .take()
            .expect("conv backward without cached forward input");
        let s = x.shape4().expect("cached input rank");
        let layout = self.layout(s);
        let out_shape = self.output_shape(s);
        assert_eq!(grad_out.shape(), &out_shape.as_array(), "grad_out shape mismatch");
        let (cpg_out, taps, ncols) = self.group_dims(&layout);
        let mut grad_in = Tensor::<f32>::zeros(x.shape());
        let (in_len, out_len) = (s.c * s.h * s.w, self.out_c * ncols);
        let (wv, xv, gv) = (self.weight.as_slice(), x.as_slice(), grad_out.as_slice());

        // Transposed weight matrix per group, built once and shared by every
        // image: W_gᵀ [taps, cpg_out], group-major.
        let mut wt = vec![0.0f32; wv.len()];
        for g in 0..self.groups {
            let base = g * cpg_out * taps;
            for oc in 0..cpg_out {
                for r in 0..taps {
                    wt[base + r * cpg_out + oc] = wv[base + oc * taps + r];
                }
            }
        }

        // One work item per image: its slab of the input gradient plus its
        // private weight and bias gradients.
        let mut items = Vec::with_capacity(s.n);
        let mut slabs = grad_in.as_mut_slice();
        for _ in 0..s.n {
            let (slab, rest) = std::mem::take(&mut slabs).split_at_mut(in_len);
            slabs = rest;
            items.push((slab, vec![0.0f32; wv.len()], vec![0.0f32; self.out_c]));
        }
        parallel::for_each_chunk_mut(&mut items, 1, |n, item| {
            let (grad_img, gw_img, gb_img) = &mut item[0];
            let mut cols = vec![0.0f32; layout.rows() * ncols];
            im2col_into(&xv[n * in_len..][..in_len], &layout, &mut cols);
            for g in 0..self.groups {
                let gy = &gv[n * out_len + g * cpg_out * ncols..][..cpg_out * ncols];
                let gcols = &mut cols[g * taps * ncols..][..taps * ncols];
                // Bias gradient: row sums of the group's output gradient.
                for (b, gyrow) in gb_img[g * cpg_out..].iter_mut().zip(gy.chunks_exact(ncols)) {
                    *b += gyrow.iter().sum::<f32>();
                }
                // Weight gradient: gy [cpg_out, ncols] · colsᵀ, with the
                // group's column rows as the transposed operand.
                let gw = &mut gw_img[g * cpg_out * taps..][..cpg_out * taps];
                gemm(cpg_out, ncols, taps, gy, gcols, Rhs::Transposed, gw);
                // Column gradient: W_gᵀ [taps, cpg_out] · gy. It overwrites
                // the group's column rows, which nothing reads any more.
                let wtg = &wt[g * taps * cpg_out..][..taps * cpg_out];
                gemm(taps, cpg_out, ncols, wtg, gy, Rhs::Plain, gcols);
            }
            col2im_accumulate_into(&cols, &layout, grad_img);
        });

        // Fixed-order reduction on the calling thread: image contributions
        // land in batch order, matching the sequential execution exactly.
        for (_, gw_img, gb_img) in &items {
            for (a, g) in self.grad_weight.as_mut_slice().iter_mut().zip(gw_img) {
                *a += g;
            }
            for (a, g) in self.grad_bias.as_mut_slice().iter_mut().zip(gb_img) {
                *a += g;
            }
        }
        grad_in
    }

    /// Per channel group: output channels, column-matrix rows (the GEMM
    /// depth of the forward pass) and output positions.
    fn group_dims(&self, layout: &Im2ColLayout) -> (usize, usize, usize) {
        let taps = self.in_c / self.groups * self.k * self.k;
        (self.out_c / self.groups, taps, layout.cols())
    }

    /// Zeroes accumulated gradients.
    pub fn zero_grad(&mut self) {
        self.grad_weight.map_inplace(|_| 0.0);
        self.grad_bias.map_inplace(|_| 0.0);
    }

    /// Visits `(param, grad)` pairs in a stable order (weight then bias).
    pub fn visit_params(&mut self, f: &mut dyn FnMut(&mut Tensor<f32>, &mut Tensor<f32>)) {
        f(&mut self.weight, &mut self.grad_weight);
        f(&mut self.bias, &mut self.grad_bias);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn finite_diff_check(conv: &mut Conv2d, x: &Tensor<f32>) {
        // Loss = sum(forward(x)); analytic dL/dx vs central differences.
        let y = conv.forward(x, true);
        let ones = Tensor::<f32>::full(y.shape(), 1.0);
        let gx = conv.backward(&ones);
        let eps = 1e-3;
        for probe in [0usize, x.len() / 2, x.len() - 1] {
            let mut xp = x.clone();
            xp.as_mut_slice()[probe] += eps;
            let mut xm = x.clone();
            xm.as_mut_slice()[probe] -= eps;
            let lp = conv.forward(&xp, false).sum();
            let lm = conv.forward(&xm, false).sum();
            let numeric = (lp - lm) / (2.0 * eps);
            let analytic = gx.as_slice()[probe];
            assert!(
                (numeric - analytic).abs() < 2e-2_f32.max(numeric.abs() * 0.05),
                "input grad mismatch at {probe}: {numeric} vs {analytic}"
            );
        }
    }

    #[test]
    fn output_shape_matches_formula() {
        let conv = Conv2d::new(3, 16, 3, 2, 1, 1);
        let out = conv.output_shape(Shape4::new(2, 3, 32, 32));
        assert_eq!(out, Shape4::new(2, 16, 16, 16));
    }

    #[test]
    fn known_convolution_result() {
        // 1x1 input channel, 2x2 kernel of all ones over a 2x2 image = sum.
        let mut conv = Conv2d::new(1, 1, 2, 1, 0, 1);
        conv.weight_mut().map_inplace(|_| 1.0);
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[1, 1, 2, 2]).unwrap();
        let y = conv.forward(&x, false);
        assert_eq!(y.as_slice(), &[10.0]);
    }

    #[test]
    fn bias_is_added_per_channel() {
        let mut conv = Conv2d::new(1, 2, 1, 1, 0, 1);
        conv.weight_mut().map_inplace(|_| 0.0);
        conv.bias.as_mut_slice().copy_from_slice(&[1.5, -2.5]);
        let y = conv.forward(&Tensor::zeros(&[1, 1, 2, 2]), false);
        assert_eq!(&y.as_slice()[..4], &[1.5; 4]);
        assert_eq!(&y.as_slice()[4..], &[-2.5; 4]);
    }

    #[test]
    fn input_gradient_matches_finite_differences() {
        let mut conv = Conv2d::new(2, 3, 3, 1, 1, 5);
        let mut rng = XorShiftRng::new(17);
        let x = Tensor::from_fn(&[1, 2, 5, 5], |_| rng.next_f32() - 0.5);
        finite_diff_check(&mut conv, &x);
    }

    #[test]
    fn strided_input_gradient_matches_finite_differences() {
        let mut conv = Conv2d::new(1, 2, 3, 2, 1, 6);
        let mut rng = XorShiftRng::new(19);
        let x = Tensor::from_fn(&[1, 1, 6, 6], |_| rng.next_f32() - 0.5);
        finite_diff_check(&mut conv, &x);
    }

    #[test]
    fn weight_gradient_matches_finite_differences() {
        let mut conv = Conv2d::new(1, 1, 3, 1, 0, 3);
        let mut rng = XorShiftRng::new(23);
        let x = Tensor::from_fn(&[1, 1, 4, 4], |_| rng.next_f32() - 0.5);
        let _y = conv.forward(&x, true);
        let ones = Tensor::<f32>::full(&[1, 1, 2, 2], 1.0);
        let _ = conv.backward(&ones);
        let analytic = conv.grad_weight.clone();
        let eps = 1e-3;
        for probe in [0usize, 4, 8] {
            let loss = |delta: f32| {
                let mut w = conv.weight.clone();
                w.as_mut_slice()[probe] += delta;
                conv.forward_with_weights(&x, &w).sum()
            };
            let numeric = (loss(eps) - loss(-eps)) / (2.0 * eps);
            assert!(
                (numeric - analytic.as_slice()[probe]).abs() < 2e-2,
                "weight grad mismatch at {probe}"
            );
        }
    }

    #[test]
    fn depthwise_groups_keep_channels_separate() {
        // Depthwise conv: channel 1 of the input must not influence output
        // channel 0.
        let mut conv = Conv2d::with_groups(2, 2, 3, 1, 1, 2, 9);
        let mut x = Tensor::<f32>::zeros(&[1, 2, 4, 4]);
        // Put energy only in channel 1.
        for h in 0..4 {
            for w in 0..4 {
                x[[0, 1, h, w]] = 1.0;
            }
        }
        let y = conv.forward(&x, false);
        let s = y.shape4().unwrap();
        for h in 0..s.h {
            for w in 0..s.w {
                assert_eq!(y[[0, 0, h, w]], 0.0, "cross-group leakage");
            }
        }
    }

    #[test]
    fn grouped_backward_matches_finite_differences() {
        let mut conv = Conv2d::with_groups(4, 4, 3, 1, 1, 2, 31);
        let mut rng = XorShiftRng::new(37);
        let x = Tensor::from_fn(&[1, 4, 4, 4], |_| rng.next_f32() - 0.5);
        finite_diff_check(&mut conv, &x);
    }

    #[test]
    fn mac_count_matches_hand_computation() {
        let conv = Conv2d::new(3, 8, 3, 1, 1, 1);
        // 8 output channels * 16x16 positions * 3 channels * 9 taps.
        assert_eq!(
            conv.mac_count(Shape4::new(1, 3, 16, 16)),
            8 * 256 * 3 * 9
        );
        // Batch scales linearly.
        assert_eq!(
            conv.mac_count(Shape4::new(2, 3, 16, 16)),
            2 * 8 * 256 * 3 * 9
        );
    }

    #[test]
    fn zero_grad_clears_accumulators() {
        let mut conv = Conv2d::new(1, 1, 1, 1, 0, 2);
        let x = Tensor::<f32>::full(&[1, 1, 2, 2], 1.0);
        let _ = conv.forward(&x, true);
        let _ = conv.backward(&Tensor::<f32>::full(&[1, 1, 2, 2], 1.0));
        assert!(conv.grad_weight.as_slice().iter().any(|&v| v != 0.0));
        conv.zero_grad();
        assert!(conv.grad_weight.as_slice().iter().all(|&v| v == 0.0));
        assert!(conv.grad_bias.as_slice().iter().all(|&v| v == 0.0));
    }

    #[test]
    #[should_panic(expected = "input channels")]
    fn rejects_wrong_channel_count() {
        let mut conv = Conv2d::new(3, 4, 3, 1, 1, 1);
        let _ = conv.forward(&Tensor::zeros(&[1, 2, 8, 8]), false);
    }
}
