//! Mixed-precision convolution (Section III-C).

use crate::MaskMap;
use drq_nn::Conv2d;
use drq_quant::{analyze_gemm, AccumWidth, Precision, QuantParams, Quantizer};
use drq_telemetry::counter_add;
use drq_tensor::{
    int4_matmul, int8_matmul, int8_matmul_wide, parallel, Int4Packed, Shape4, Tensor,
};

/// MAC-operation counts of one convolution execution, split by precision.
///
/// # Examples
///
/// ```
/// use drq_core::ConvOpCounts;
///
/// let c = ConvOpCounts { int4_macs: 75, int8_macs: 25 };
/// assert_eq!(c.total(), 100);
/// assert!((c.int4_fraction() - 0.75).abs() < 1e-12);
/// // INT8 MACs cost four INT4-equivalent cycles on the DRQ PE.
/// assert_eq!(c.int4_equivalent_ops(), 75 + 4 * 25);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ConvOpCounts {
    /// MACs executed in INT4 mode.
    pub int4_macs: u64,
    /// MACs executed in INT8 mode.
    pub int8_macs: u64,
}

impl ConvOpCounts {
    /// Total MAC count.
    pub fn total(&self) -> u64 {
        self.int4_macs + self.int8_macs
    }

    /// Fraction of MACs executed at 4 bits (the paper's "4-bit percentage").
    pub fn int4_fraction(&self) -> f64 {
        let t = self.total();
        if t == 0 {
            0.0
        } else {
            self.int4_macs as f64 / t as f64
        }
    }

    /// Work expressed in INT4 sub-operations: an INT8 MAC decomposes into
    /// four 4-bit sub-MACs on the time-multiplexed PE (Section IV-C1).
    pub fn int4_equivalent_ops(&self) -> u64 {
        self.int4_macs + self.int8_macs * Precision::Int8.int4_subops() as u64
    }

    /// Accumulates another count into this one.
    pub fn merge(&mut self, other: ConvOpCounts) {
        self.int4_macs += other.int4_macs;
        self.int8_macs += other.int8_macs;
    }
}

/// Prepared, input-independent state for one convolution: the INT8
/// weight calibration, the packed i8 panels and nibble-packed INT4 planes
/// per channel group, and the accumulator-width proofs.
///
/// Preparing a plan is the expensive, weight-only half of
/// [`MixedPrecisionConv::forward`]; reusing one across requests (the
/// serving plan cache) skips the re-quantization and re-packing without
/// changing a single output bit, because the plan holds exactly the values
/// an unplanned call recomputes.
///
/// # Examples
///
/// ```
/// use drq_core::{uniform_masks, CoalesceInput, ConvPlan, MixedPrecisionConv};
/// use drq_nn::Conv2d;
/// use drq_tensor::Tensor;
///
/// let conv = Conv2d::new(2, 3, 3, 1, 1, 7);
/// let x = Tensor::from_fn(&[1, 2, 8, 8], |i| (i % 5) as f32);
/// let masks = uniform_masks(x.shape4().unwrap(), true);
/// let inputs = [CoalesceInput { x: &x, masks: &masks }];
/// let plan = ConvPlan::prepare(&conv);
/// let planned = MixedPrecisionConv::forward(&conv, Some(&plan), &inputs);
/// let unplanned = MixedPrecisionConv::forward(&conv, None, &inputs);
/// assert_eq!(planned, unplanned);
/// ```
#[derive(Debug, Clone)]
pub struct ConvPlan {
    wq8: QuantParams,
    w8_groups: Vec<Tensor<i8>>,
    w4_groups: Vec<Int4Packed>,
    wide8: bool,
    wide4: bool,
    wtaps: usize,
}

impl ConvPlan {
    /// Quantizes, packs and range-analyzes `conv`'s weights.
    ///
    /// # Panics
    ///
    /// Panics if `conv`'s channel counts are not divisible by its groups
    /// (impossible for a well-formed `Conv2d`).
    pub fn prepare(conv: &Conv2d) -> Self {
        let wq8 = QuantParams::fit(conv.weight().as_slice(), Precision::Int8);
        let w8_t = Quantizer::quantize(&wq8, conv.weight());
        let w8 = w8_t.as_slice();
        let k = conv.kernel();
        let groups = conv.groups();
        let cpg_in = conv.in_channels() / groups;
        let cpg_out = conv.out_channels() / groups;
        let wtaps = cpg_in * k * k;
        // INT8 codes are i8-range by construction; the INT4 plane is the
        // arithmetic high nibble, stored nibble-packed (the at-rest INT4
        // form the paper's PE consumes).
        let mut w8_groups = Vec::with_capacity(groups);
        let mut w4_groups = Vec::with_capacity(groups);
        for g in 0..groups {
            let codes = &w8[g * cpg_out * wtaps..(g + 1) * cpg_out * wtaps];
            let w8_g: Tensor<i8> = Tensor::from_fn(&[cpg_out, wtaps], |i| codes[i] as i8);
            let w4_g = Int4Packed::pack(&w8_g.map(|v| v >> 4));
            w8_groups.push(w8_g);
            w4_groups.push(w4_g);
        }
        // Static range analysis (SIRA-style): prove once per layer that
        // wrapping-i32 accumulation over `wtaps` MACs cannot lose bits; no
        // per-MAC saturation checks run on the proven path.
        let proof8 = analyze_gemm(Precision::Int8, Precision::Int8, wtaps);
        let proof4 = analyze_gemm(Precision::Int4, Precision::Int4, wtaps);
        Self {
            wq8,
            w8_groups,
            w4_groups,
            wide8: proof8.width == AccumWidth::I64,
            wide4: proof4.width == AccumWidth::I64,
            wtaps,
        }
    }

    /// Bytes held by the packed weight panels (plan-cache accounting).
    pub fn packed_bytes(&self) -> usize {
        let b8: usize = self.w8_groups.iter().map(|t| t.len()).sum();
        let b4: usize = self.w4_groups.iter().map(Int4Packed::packed_bytes).sum();
        b8 + b4
    }
}

/// One request of a [`MixedPrecisionConv::forward`] call: its input
/// feature map and its per-image, per-channel sensitivity masks.
#[derive(Debug, Clone, Copy)]
pub struct CoalesceInput<'a> {
    /// Input feature map, `[n, c, h, w]`.
    pub x: &'a Tensor<f32>,
    /// `masks[n][c]` — the mask of channel `c` of image `n`, as produced
    /// by [`crate::SensitivityPredictor::predict_image`] on this input.
    pub masks: &'a [Vec<MaskMap>],
}

/// The sensitivity-aware mixed-precision convolution.
///
/// Weights are always stored INT8 (max-abs calibrated). Per input tap:
///
/// * tap over a **sensitive** region → INT8 weight × INT8 activation
///   (case 1 of Fig. 5);
/// * tap over an **insensitive** region → both operands clipped to their
///   high 4 bits and multiplied as INT4 (case 2 of Fig. 5).
///
/// Accumulation happens in one integer domain (INT4 products carry a
/// 2⁴·2⁴ = 256 weight, mirroring the shift-accumulate of the
/// multi-precision PE in Fig. 8), then is dequantized once per output.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MixedPrecisionConv;

impl MixedPrecisionConv {
    /// Runs the mixed-precision convolution for a group of independent
    /// requests; a single request is a group of one. `plan` is `conv`'s
    /// prepared weights, or `None` to prepare them here.
    ///
    /// Activation quantization is fit **per request**, so each request
    /// gets exactly the codes (and the output bits) it would get alone.
    /// The work list is flat over every (request, image) pair and runs in
    /// parallel. Per item and channel group, the input codes expand into
    /// two masked im2col operand matrices over the same
    /// `(ic, ky, kx) × (oy, ox)` index space:
    ///
    /// * `X8` — INT8 codes where the source pixel is sensitive, else 0;
    /// * `X4` — INT4 codes (`q >> 4`) where it is insensitive (padding
    ///   included as zero), else 0.
    ///
    /// Each tap is sensitive XOR insensitive, so the two products
    /// partition the tap-by-tap sum exactly: `acc = W8·X8 + 256·(W4·X4)`,
    /// with `W4 = W8 >> 4` nibble-packed. The INT8 product runs on the
    /// i8×i8 kernel and the INT4 product on the nibble-INT4 kernel; both
    /// accumulate in wrapping i32 when the range analysis proves the depth
    /// safe (see `drq_quant::analyze_gemm`) and in i64 otherwise, so the
    /// sum is always exact. The output is `acc as f32 · dequant + bias`.
    /// The scalar tap loop in `drq_testkit::reference` is the bit-exact
    /// oracle for all of it.
    ///
    /// Returns one `(output, counts)` pair per input, in order. Zero-padding
    /// taps are counted as INT4 (the line buffer packs padding as
    /// insensitive zeros).
    ///
    /// # Panics
    ///
    /// Panics on any shape inconsistency between `conv`, an input and its
    /// masks, or if `plan` was prepared for a different convolution
    /// geometry.
    pub fn forward(
        conv: &Conv2d,
        plan: Option<&ConvPlan>,
        inputs: &[CoalesceInput<'_>],
    ) -> Vec<(Tensor<f32>, ConvOpCounts)> {
        let prepared;
        let plan = match plan {
            Some(p) => p,
            None => {
                prepared = ConvPlan::prepare(conv);
                &prepared
            }
        };
        let shapes: Vec<Shape4> = inputs.iter().map(|i| validate(conv, i.x, i.masks)).collect();
        let wtaps = conv.in_channels() / conv.groups() * conv.kernel() * conv.kernel();
        assert_eq!(wtaps, plan.wtaps, "plan prepared for a different conv geometry");
        // Per-request activation calibration and codes (the bit-identity
        // anchor), then the flat (request, image) work list.
        let aqs: Vec<QuantParams> = inputs
            .iter()
            .map(|i| QuantParams::fit(i.x.as_slice(), Precision::Int8))
            .collect();
        let x8s: Vec<Tensor<i32>> = inputs
            .iter()
            .zip(&aqs)
            .map(|(i, aq)| Quantizer::quantize(aq, i.x))
            .collect();
        let items: Vec<(usize, usize)> = shapes
            .iter()
            .enumerate()
            .flat_map(|(r, s)| (0..s.n).map(move |n| (r, n)))
            .collect();
        let mut per_item = parallel::par_map(items.len(), |j| {
            let (r, n) = items[j];
            let dequant = aqs[r].scale() * plan.wq8.scale();
            image(conv, plan, shapes[r], x8s[r].as_slice(), n, &inputs[r].masks[n], dequant)
        })
        .into_iter();
        shapes
            .iter()
            .map(|&s| {
                let out_shape = conv.output_shape(s);
                let img_len = out_shape.c * out_shape.h * out_shape.w;
                let mut out = Tensor::<f32>::zeros(&out_shape.as_array());
                let mut counts = ConvOpCounts::default();
                for oimg in out.as_mut_slice().chunks_exact_mut(img_len) {
                    let (img, c) = per_item.next().expect("one result per work item");
                    oimg.copy_from_slice(&img);
                    counts.merge(c);
                }
                (out, counts)
            })
            .collect()
    }
}

/// Shape/mask validation of one input.
fn validate(conv: &Conv2d, x: &Tensor<f32>, masks: &[Vec<MaskMap>]) -> Shape4 {
    let s = x.shape4().expect("conv input must be rank 4");
    assert_eq!(s.c, conv.in_channels(), "channel mismatch");
    assert_eq!(masks.len(), s.n, "need one mask set per image");
    for (n, per_channel) in masks.iter().enumerate() {
        assert_eq!(per_channel.len(), s.c, "image {n}: need one mask per channel");
        for m in per_channel {
            assert_eq!(
                (m.grid().height(), m.grid().width()),
                (s.h, s.w),
                "mask grid does not cover the feature map"
            );
        }
    }
    s
}

/// One work item: image `n` of an input of shape `s` with INT8 codes
/// `x8`. Per channel group, fills the masked im2col operands once, runs
/// the INT8 and INT4 GEMMs and dequantizes. Returns the image's output
/// (`[c_out, oh, ow]`, flattened) and its MAC split.
fn image(
    conv: &Conv2d,
    plan: &ConvPlan,
    s: Shape4,
    x8: &[i32],
    n: usize,
    masks: &[MaskMap],
    dequant: f32,
) -> (Vec<f32>, ConvOpCounts) {
    let k = conv.kernel();
    let stride = conv.stride();
    let pad = conv.padding() as isize;
    let groups = conv.groups();
    let cpg_in = s.c / groups;
    let cpg_out = conv.out_channels() / groups;
    let bias = conv.bias().as_slice();
    let wtaps = plan.wtaps;
    let out_shape = conv.output_shape(s);
    let npix = out_shape.h * out_shape.w;
    let plane = s.h * s.w;

    // Per-channel sensitivity bitmap: one byte per pixel beats a region
    // lookup (divisions) in the innermost loop.
    let mut sens = vec![0u8; s.c * plane];
    for (c, mask) in masks.iter().enumerate() {
        for iy in 0..s.h {
            for ix in 0..s.w {
                sens[c * plane + iy * s.w + ix] = u8::from(mask.pixel_sensitive(iy, ix));
            }
        }
    }
    let mut oimg = vec![0.0f32; conv.out_channels() * npix];
    let mut counts = ConvOpCounts::default();
    for g in 0..groups {
        let mut x8_mat = vec![0i8; wtaps * npix];
        let mut x4_mat = vec![0i8; wtaps * npix];
        // Masked im2col: one pass over the tap index space fills both
        // operand matrices and tallies the per-tap precision split
        // (identical for every output channel of the group, so the group's
        // counts are the per-tap counts × cpg_out).
        let (mut c8, mut c4) = (0u64, 0u64);
        for ic_local in 0..cpg_in {
            let ic = g * cpg_in + ic_local;
            let sens_c = &sens[ic * plane..(ic + 1) * plane];
            for ky in 0..k {
                for kx in 0..k {
                    let rbase = ((ic_local * k + ky) * k + kx) * npix;
                    for oy in 0..out_shape.h {
                        let iy = (oy * stride + ky) as isize - pad;
                        for ox in 0..out_shape.w {
                            let ix = (ox * stride + kx) as isize - pad;
                            let inside =
                                iy >= 0 && (iy as usize) < s.h && ix >= 0 && (ix as usize) < s.w;
                            if !inside {
                                // Padding: zero INT4 operand.
                                c4 += 1;
                                continue;
                            }
                            let (iy, ix) = (iy as usize, ix as usize);
                            let q_x = x8[s.offset(n, ic, iy, ix)] as i8;
                            let col = rbase + oy * out_shape.w + ox;
                            if sens_c[iy * s.w + ix] == 1 {
                                c8 += 1;
                                x8_mat[col] = q_x;
                            } else {
                                c4 += 1;
                                x4_mat[col] = q_x >> 4;
                            }
                        }
                    }
                }
            }
        }
        counts.int8_macs += c8 * cpg_out as u64;
        counts.int4_macs += c4 * cpg_out as u64;

        let x8_g = Tensor::from_vec(x8_mat, &[wtaps, npix]).expect("im2col operand shape");
        let x4_g = Tensor::from_vec(x4_mat, &[wtaps, npix]).expect("im2col operand shape");
        let macs = (cpg_out * wtaps * npix) as u64;
        counter_add!("kernel/int8_gemm_calls", 1);
        counter_add!("kernel/int8_gemm_macs", macs);
        let acc8: Vec<i64> = if plan.wide8 {
            counter_add!("kernel/int8_gemm_wide_fallbacks", 1);
            int8_matmul_wide(&plan.w8_groups[g], &x8_g).into_vec()
        } else {
            int8_matmul(&plan.w8_groups[g], &x8_g).as_slice().iter().map(|&v| v as i64).collect()
        };
        counter_add!("kernel/int4_gemm_calls", 1);
        counter_add!("kernel/int4_gemm_macs", macs);
        let acc4: Vec<i64> = if plan.wide4 {
            counter_add!("kernel/int4_gemm_wide_fallbacks", 1);
            int8_matmul_wide(&plan.w4_groups[g].unpack(), &x4_g).into_vec()
        } else {
            int4_matmul(&plan.w4_groups[g], &x4_g).as_slice().iter().map(|&v| v as i64).collect()
        };
        // Dequantize once per output with fused bias.
        let group_out = &mut oimg[g * cpg_out * npix..(g + 1) * cpg_out * npix];
        for (oc_local, orow) in group_out.chunks_exact_mut(npix).enumerate() {
            let b = bias[g * cpg_out + oc_local];
            let rows = acc8[oc_local * npix..].iter().zip(&acc4[oc_local * npix..]);
            for (o, (&a8, &a4)) in orow.iter_mut().zip(rows) {
                *o = (a8 + 256 * a4) as f32 * dequant + b;
            }
        }
    }
    (oimg, counts)
}

/// Builds per-image, per-channel masks that are uniformly sensitive (all
/// INT8) or uniformly insensitive (all INT4) over an input `shape` — the
/// degenerate mask sets that turn [`MixedPrecisionConv`] into a uniform
/// quantized convolution.
///
/// # Examples
///
/// ```
/// use drq_core::uniform_masks;
/// use drq_tensor::Shape4;
///
/// let masks = uniform_masks(Shape4::new(2, 3, 8, 8), false);
/// assert_eq!(masks.len(), 2);
/// assert_eq!(masks[0].len(), 3);
/// assert_eq!(masks[0][0].sensitive_count(), 0);
/// ```
pub fn uniform_masks(shape: Shape4, sensitive: bool) -> Vec<Vec<MaskMap>> {
    let grid = crate::RegionGrid::new(shape.h, shape.w, crate::RegionSize::new(shape.h, shape.w));
    let mask = if sensitive {
        MaskMap::all_sensitive(grid)
    } else {
        MaskMap::all_insensitive(grid)
    };
    (0..shape.n)
        .map(|_| (0..shape.c).map(|_| mask.clone()).collect())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{RegionGrid, RegionSize, SensitivityPredictor};
    use drq_tensor::XorShiftRng;

    /// A group of one.
    fn run(conv: &Conv2d, x: &Tensor<f32>, masks: &[Vec<MaskMap>]) -> (Tensor<f32>, ConvOpCounts) {
        MixedPrecisionConv::forward(conv, None, &[CoalesceInput { x, masks }]).remove(0)
    }

    fn random_conv_and_input(seed: u64) -> (Conv2d, Tensor<f32>) {
        let conv = Conv2d::new(2, 3, 3, 1, 1, seed);
        let mut rng = XorShiftRng::new(seed + 100);
        // Post-ReLU-like input: non-negative, sparse large values.
        let x = Tensor::from_fn(&[1, 2, 8, 8], |_| {
            let v = rng.next_normal();
            if v > 1.0 {
                v
            } else {
                (v * 0.05).max(0.0)
            }
        });
        (conv, x)
    }

    /// Taps of a 3x3/s1/p1 conv that fall into the zero padding (these are
    /// always counted as INT4, regardless of the masks).
    fn padding_taps(conv: &Conv2d, s: drq_tensor::Shape4) -> u64 {
        let k = conv.kernel() as isize;
        let pad = conv.padding() as isize;
        let stride = conv.stride() as isize;
        let out = conv.output_shape(s);
        let mut outside = 0u64;
        for oy in 0..out.h as isize {
            for ox in 0..out.w as isize {
                for ky in 0..k {
                    for kx in 0..k {
                        let iy = oy * stride + ky - pad;
                        let ix = ox * stride + kx - pad;
                        if iy < 0 || iy >= s.h as isize || ix < 0 || ix >= s.w as isize {
                            outside += 1;
                        }
                    }
                }
            }
        }
        outside * (s.n * conv.out_channels() * (s.c / conv.groups())) as u64
    }

    #[test]
    fn all_sensitive_matches_int8_reference() {
        // With every region sensitive, the mixed conv is a plain INT8 conv;
        // its output must track the float conv within quantization error.
        let (mut conv, x) = random_conv_and_input(1);
        let masks = uniform_masks(x.shape4().unwrap(), true);
        let (y_mixed, counts) = run(&conv, &x, &masks);
        let y_ref = conv.forward(&x, false);
        // Only the zero-padding taps run INT4.
        assert_eq!(counts.int4_macs, padding_taps(&conv, x.shape4().unwrap()));
        let denom = y_ref.max_abs().max(1e-6);
        for (a, b) in y_mixed.as_slice().iter().zip(y_ref.as_slice()) {
            assert!((a - b).abs() / denom < 0.05, "{a} vs {b}");
        }
    }

    #[test]
    fn all_insensitive_is_coarser_but_correlated() {
        let (mut conv, x) = random_conv_and_input(2);
        let masks4 = uniform_masks(x.shape4().unwrap(), false);
        let (y4, c4) = run(&conv, &x, &masks4);
        let y_ref = conv.forward(&x, false);
        assert_eq!(c4.int8_macs, 0);
        // INT4 output correlates strongly with the float output.
        let dot: f32 = y4
            .as_slice()
            .iter()
            .zip(y_ref.as_slice())
            .map(|(a, b)| a * b)
            .sum();
        let n4: f32 = y4.as_slice().iter().map(|v| v * v).sum::<f32>().sqrt();
        let nr: f32 = y_ref.as_slice().iter().map(|v| v * v).sum::<f32>().sqrt();
        let corr = dot / (n4 * nr).max(1e-9);
        assert!(corr > 0.8, "correlation {corr}");
    }

    #[test]
    fn mixed_error_between_extremes() {
        // Error(all-INT8) <= Error(mixed) <= Error(all-INT4), measured
        // against the float reference.
        let (mut conv, x) = random_conv_and_input(3);
        let y_ref = conv.forward(&x, false);
        let err = |y: &Tensor<f32>| {
            y.as_slice()
                .iter()
                .zip(y_ref.as_slice())
                .map(|(a, b)| (a - b).powi(2))
                .sum::<f32>()
        };
        let predictor = SensitivityPredictor::new(RegionSize::new(4, 4), 5.0);
        let dyn_masks = vec![predictor.predict_image(&x, 0)];
        let (y8, _) = run(&conv, &x, &uniform_masks(x.shape4().unwrap(), true));
        let (ym, cm) = run(&conv, &x, &dyn_masks);
        let (y4, _) = run(&conv, &x, &uniform_masks(x.shape4().unwrap(), false));
        assert!(cm.int4_macs > 0 && cm.int8_macs > 0, "mask is degenerate: {cm:?}");
        assert!(err(&y8) <= err(&ym) + 1e-3, "{} vs {}", err(&y8), err(&ym));
        assert!(err(&ym) <= err(&y4) + 1e-3, "{} vs {}", err(&ym), err(&y4));
    }

    #[test]
    fn op_counts_cover_every_tap() {
        let (conv, x) = random_conv_and_input(4);
        let masks = uniform_masks(x.shape4().unwrap(), false);
        let (_, counts) = run(&conv, &x, &masks);
        // Total taps = out_c * OH * OW * in_c * k * k (padding included).
        assert_eq!(counts.total(), 3 * 8 * 8 * 2 * 9);
        assert_eq!(counts.total(), conv.mac_count(x.shape4().unwrap()));
    }

    #[test]
    fn sensitive_blob_triggers_int8_only_near_blob() {
        // One bright region; taps near it run INT8, the far corner runs INT4.
        let conv = Conv2d::new(1, 1, 3, 1, 1, 5);
        let mut x = Tensor::<f32>::zeros(&[1, 1, 8, 8]);
        for h in 0..4 {
            for w in 0..4 {
                x[[0, 0, h, w]] = 1.0;
            }
        }
        let grid = RegionGrid::new(8, 8, RegionSize::new(4, 4));
        let mut mask = MaskMap::all_insensitive(grid);
        mask.set(0, 0, true);
        let (_, counts) = run(&conv, &x, &[vec![mask]]);
        assert!(counts.int8_macs > 0);
        assert!(counts.int4_macs > counts.int8_macs, "{counts:?}");
        // 16 sensitive pixels, each touched by up to 9 kernel positions.
        assert!(counts.int8_macs <= 16 * 9);
    }

    #[test]
    fn int4_equivalent_ops_weighting() {
        let counts = ConvOpCounts { int4_macs: 10, int8_macs: 10 };
        assert_eq!(counts.int4_equivalent_ops(), 50);
    }

    #[test]
    fn batched_forward_bits_stable_across_thread_counts() {
        // Batch of 3 (doesn't divide the worker counts) with per-image
        // dynamic masks; output and op counts must be bit-identical for
        // every thread count.
        let conv = Conv2d::new(2, 3, 3, 2, 1, 13);
        let mut rng = XorShiftRng::new(29);
        let x = Tensor::from_fn(&[3, 2, 9, 7], |_| rng.next_normal().max(0.0));
        let predictor = SensitivityPredictor::new(RegionSize::new(3, 3), 10.0);
        let masks: Vec<Vec<MaskMap>> = (0..3).map(|n| predictor.predict_image(&x, n)).collect();
        drq_tensor::parallel::set_max_threads(1);
        let (y1, c1) = run(&conv, &x, &masks);
        for t in [2, 8] {
            drq_tensor::parallel::set_max_threads(t);
            let (yt, ct) = run(&conv, &x, &masks);
            assert_eq!(yt, y1, "output changed at {t} threads");
            assert_eq!(ct, c1, "op counts changed at {t} threads");
        }
        drq_tensor::parallel::set_max_threads(0);
    }

    #[test]
    fn group_members_equal_their_solo_runs() {
        // Grouped, strided conv; two requests of different batch sizes and
        // activation scales. Each member keeps its own bits, with or
        // without a prepared plan.
        let conv = Conv2d::with_groups(4, 6, 3, 2, 1, 2, 31);
        let predictor = SensitivityPredictor::new(RegionSize::new(3, 3), 8.0);
        let mut rng = XorShiftRng::new(41);
        let xs: Vec<Tensor<f32>> = [2usize, 1]
            .iter()
            .zip([1.0f32, 9.0])
            .map(|(&n, scale)| Tensor::from_fn(&[n, 4, 9, 7], |_| rng.next_normal() * scale))
            .collect();
        let masks: Vec<Vec<Vec<MaskMap>>> = xs
            .iter()
            .map(|x| (0..x.shape4().unwrap().n).map(|i| predictor.predict_image(x, i)).collect())
            .collect();
        let inputs: Vec<CoalesceInput<'_>> =
            xs.iter().zip(&masks).map(|(x, m)| CoalesceInput { x, masks: m }).collect();
        let plan = ConvPlan::prepare(&conv);
        assert!(plan.packed_bytes() > 0);
        let grouped = MixedPrecisionConv::forward(&conv, Some(&plan), &inputs);
        assert_eq!(grouped, MixedPrecisionConv::forward(&conv, None, &inputs));
        for (input, out) in inputs.iter().zip(&grouped) {
            assert_eq!(out, &run(&conv, input.x, input.masks));
        }
    }

    #[test]
    #[should_panic(expected = "mask grid")]
    fn rejects_mismatched_mask_grid() {
        let (conv, x) = random_conv_and_input(7);
        let bad_grid = RegionGrid::new(4, 4, RegionSize::new(2, 2));
        let masks = vec![vec![
            MaskMap::all_sensitive(bad_grid),
            MaskMap::all_sensitive(bad_grid),
        ]];
        let _ = run(&conv, &x, &masks);
    }
}
