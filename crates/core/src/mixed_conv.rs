//! Mixed-precision convolution (Section III-C).

use crate::MaskMap;
use drq_nn::Conv2d;
use drq_quant::{analyze_gemm, AccumWidth, Precision, QuantParams, Quantizer};
use drq_telemetry::counter_add;
use drq_tensor::{
    int4_matmul, int8_matmul, int8_matmul_wide, parallel, Int4Packed, Shape4, Tensor,
};
use std::ops::Range;

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
    /// parallel; each item quantizes its image straight to `i8` codes. Per
    /// item and channel group, the codes expand into two masked im2col
    /// operand matrices over the same `(ic, ky, kx) × (oy, ox)` index
    /// space:
    ///
    /// * `X8` — INT8 codes where the source pixel is sensitive, else 0;
    /// * `X4` — INT4 codes (`q >> 4`) where it is insensitive (padding
    ///   included as zero), else 0.
    ///
    /// The fill copies row slices: each channel is split once into a
    /// sensitive and an insensitive plane (regions found through a
    /// column-to-region table), and each tap row copies the in-bounds
    /// output-column interval of every in-bounds output row from them.
    /// Padding taps are never visited, and the INT8 tap count comes from
    /// per-region usage sums.
    ///
    /// Each tap is sensitive XOR insensitive, so the two products
    /// partition the tap-by-tap sum exactly: `acc = W8·X8 + 256·(W4·X4)`,
    /// with `W4 = W8 >> 4` nibble-packed. The INT8 product runs on the
    /// i8×i8 kernel and the INT4 product on the nibble-INT4 kernel; both
    /// accumulate in wrapping i32 when the range analysis proves the depth
    /// safe (see `drq_quant::analyze_gemm`) and in i64 otherwise, so the
    /// sum is always exact. A group with no sensitive tap has `X8 = 0`, so
    /// its INT8 GEMM is skipped: `kernel/int8_gemm_calls` and
    /// `kernel/int8_gemm_macs` count only the INT8 GEMMs that ran, while
    /// the INT4 counters record one call per item and group. The output is
    /// `acc as f32 · dequant + bias`. The scalar tap loop in
    /// `drq_testkit::reference` is the bit-exact oracle for all of it.
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
        // Per-request activation calibration (the bit-identity anchor),
        // then the flat (request, image) work list.
        let aqs: Vec<QuantParams> = inputs
            .iter()
            .map(|i| QuantParams::fit(i.x.as_slice(), Precision::Int8))
            .collect();
        let items: Vec<(usize, usize)> = shapes
            .iter()
            .enumerate()
            .flat_map(|(r, s)| (0..s.n).map(move |n| (r, n)))
            .collect();
        let mut per_item = parallel::par_map(items.len(), |j| {
            let (r, n) = items[j];
            let s = shapes[r];
            let img_len = s.c * s.h * s.w;
            let img = &inputs[r].x.as_slice()[n * img_len..(n + 1) * img_len];
            image(conv, plan, s, img, &aqs[r], &inputs[r].masks[n])
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

/// Valid output positions along one axis, per kernel offset: output `o`
/// in `spans[kk]` reads input `o·stride + kk − pad`, which lies inside
/// `[0, len)`. Every other output position reads zero padding.
fn valid_spans(len: usize, out: usize, k: usize, stride: usize, pad: usize) -> Vec<Range<usize>> {
    (0..k)
        .map(|kk| {
            let hi = (len + pad).saturating_sub(kk).div_ceil(stride).min(out);
            pad.saturating_sub(kk).div_ceil(stride).min(hi)..hi
        })
        .collect()
}

/// How many in-bounds taps read each input position along one axis.
fn axis_uses(len: usize, spans: &[Range<usize>], stride: usize, pad: usize) -> Vec<u64> {
    let mut uses = vec![0u64; len];
    for (kk, span) in spans.iter().enumerate() {
        for o in span.clone() {
            uses[o * stride + kk - pad] += 1;
        }
    }
    uses
}

/// One input channel's INT8 codes split by its mask, refilled per channel.
struct SplitPlanes {
    /// Code of each sensitive pixel, zero elsewhere (`[h, w]`).
    p8: Vec<i8>,
    /// INT4 code (`q >> 4`) of each insensitive pixel, zero elsewhere.
    p4: Vec<i8>,
    /// Per input row: does it hold a sensitive pixel?
    any8: Vec<bool>,
    /// Per input row: does it hold an insensitive pixel?
    any4: Vec<bool>,
}

impl SplitPlanes {
    fn new(h: usize, w: usize) -> Self {
        Self {
            p8: vec![0; h * w],
            p4: vec![0; h * w],
            any8: vec![false; h],
            any4: vec![false; h],
        }
    }

    /// Quantizes channel `x` under `aq` and splits it by `mask`. Pixels
    /// map to regions through a column-to-region table and one region-row
    /// slice per input row.
    ///
    /// Returns the channel's INT8 tap count. The taps reading pixel
    /// `(iy, ix)` number `yuses[iy] · xuses[ix]`, so each sensitive region
    /// adds the product of its row and column usage sums.
    fn split(
        &mut self,
        x: &[f32],
        aq: &QuantParams,
        mask: &MaskMap,
        (xuses, yuses): (&[u64], &[u64]),
    ) -> u64 {
        let grid = mask.grid();
        let (w, cols) = (grid.width(), grid.cols());
        let col_region: Vec<usize> = (0..w).map(|xx| grid.region_of(0, xx).1).collect();
        let mut col_uses = vec![0u64; cols];
        for (&rc, &u) in col_region.iter().zip(xuses) {
            col_uses[rc] += u;
        }
        let mut row_uses = vec![0u64; grid.rows()];
        for (y, &u) in yuses.iter().enumerate() {
            row_uses[grid.region_of(y, 0).0] += u;
        }
        let bits = mask.bits();
        let planes = self.p8.chunks_exact_mut(w).zip(self.p4.chunks_exact_mut(w));
        for (y, (row, (row8, row4))) in x.chunks_exact(w).zip(planes).enumerate() {
            let region_row = &bits[grid.region_of(y, 0).0 * cols..][..cols];
            self.any8[y] = region_row.contains(&true);
            self.any4[y] = region_row.contains(&false);
            for (((&v, d8), d4), &rc) in row.iter().zip(row8).zip(row4).zip(&col_region) {
                let q = aq.quantize_value(v) as i8;
                let sensitive = region_row[rc];
                *d8 = if sensitive { q } else { 0 };
                *d4 = if sensitive { 0 } else { q >> 4 };
            }
        }
        bits.iter()
            .enumerate()
            .filter(|&(_, &b)| b)
            .map(|(i, _)| row_uses[i / cols] * col_uses[i % cols])
            .sum()
    }
}

/// `dst[j] = src[j · stride]`: a plain slice copy at stride 1.
fn gather(dst: &mut [i8], src: &[i8], stride: usize) {
    if stride == 1 {
        dst.copy_from_slice(&src[..dst.len()]);
    } else {
        for (d, &v) in dst.iter_mut().zip(src.iter().step_by(stride)) {
            *d = v;
        }
    }
}

/// The i64 copy of an i32 GEMM result, for the past-the-proof combine.
fn widen(acc: &Tensor<i32>) -> Vec<i64> {
    acc.as_slice().iter().map(|&v| v.into()).collect()
}

/// Dequantizes one group's accumulators with fused bias:
/// `(a8 + 256·a4) as f32 · dequant + b`, with `a8 = 0` when the INT8
/// GEMM was skipped.
fn dequantize<A: Copy + Into<i64>>(
    out: &mut [f32],
    acc8: Option<&[A]>,
    acc4: &[A],
    bias: &[f32],
    dequant: f32,
) {
    let npix = out.len() / bias.len();
    let rows = out.chunks_exact_mut(npix).zip(acc4.chunks_exact(npix)).zip(bias);
    for (oc, ((orow, a4row), &b)) in rows.enumerate() {
        let a8row = acc8.map(|acc8| &acc8[oc * npix..(oc + 1) * npix]);
        for (j, (o, &a4)) in orow.iter_mut().zip(a4row).enumerate() {
            let a8 = a8row.map_or(0, |a8row| a8row[j].into());
            *o = (a8 + 256 * a4.into()) as f32 * dequant + b;
        }
    }
}

/// One work item: one image `x` (`[c, h, w]`) of an input of shape `s`,
/// its request's activation parameters `aq` and its per-channel masks.
/// Per channel group, quantizes and splits each channel, fills the masked
/// im2col operands by row slices, runs the INT4 GEMM and (if any tap is
/// sensitive) the INT8 GEMM, and dequantizes. Returns the image's output
/// (`[c_out, oh, ow]`, flattened) and its MAC split.
fn image(
    conv: &Conv2d,
    plan: &ConvPlan,
    s: Shape4,
    x: &[f32],
    aq: &QuantParams,
    masks: &[MaskMap],
) -> (Vec<f32>, ConvOpCounts) {
    let k = conv.kernel();
    let stride = conv.stride();
    let pad = conv.padding();
    let groups = conv.groups();
    let cpg_in = s.c / groups;
    let cpg_out = conv.out_channels() / groups;
    let bias = conv.bias().as_slice();
    let dequant = aq.scale() * plan.wq8.scale();
    let wtaps = plan.wtaps;
    let out_shape = conv.output_shape(s);
    let (oh, ow) = (out_shape.h, out_shape.w);
    let npix = oh * ow;
    let plane = s.h * s.w;
    let xspans = valid_spans(s.w, ow, k, stride, pad);
    let yspans = valid_spans(s.h, oh, k, stride, pad);
    let xuses = axis_uses(s.w, &xspans, stride, pad);
    let yuses = axis_uses(s.h, &yspans, stride, pad);

    let mut x8_g = Tensor::<i8>::zeros(&[wtaps, npix]);
    let mut x4_g = Tensor::<i8>::zeros(&[wtaps, npix]);
    let mut planes = SplitPlanes::new(s.h, s.w);
    let mut oimg = vec![0.0f32; conv.out_channels() * npix];
    let mut counts = ConvOpCounts::default();
    let macs = (cpg_out * wtaps * npix) as u64;
    for g in 0..groups {
        if g > 0 {
            x8_g.as_mut_slice().fill(0);
            x4_g.as_mut_slice().fill(0);
        }
        // Masked im2col: per (ic, ky, kx) tap row, copy the in-bounds
        // output-column interval of each in-bounds output row from the
        // channel's split planes. Padding taps stay zero in both operands
        // and count as INT4; a source row with no pixel of a class adds
        // nothing to that class's operand, so its copy is skipped.
        let mut c8 = 0u64;
        let (x8s, x4s) = (x8_g.as_mut_slice(), x4_g.as_mut_slice());
        for ic_local in 0..cpg_in {
            let ic = g * cpg_in + ic_local;
            let xc = &x[ic * plane..(ic + 1) * plane];
            c8 += planes.split(xc, aq, &masks[ic], (&xuses, &yuses));
            for (ky, ys) in yspans.iter().enumerate() {
                for (kx, xs) in xspans.iter().enumerate().filter(|(_, xs)| !xs.is_empty()) {
                    let row = ((ic_local * k + ky) * k + kx) * npix;
                    let ix0 = xs.start * stride + kx - pad;
                    for oy in ys.clone() {
                        let iy = oy * stride + ky - pad;
                        let src = iy * s.w + ix0;
                        let dst = row + oy * ow + xs.start..row + oy * ow + xs.end;
                        if planes.any8[iy] {
                            gather(&mut x8s[dst.clone()], &planes.p8[src..], stride);
                        }
                        if planes.any4[iy] {
                            gather(&mut x4s[dst], &planes.p4[src..], stride);
                        }
                    }
                }
            }
        }
        counts.int8_macs += c8 * cpg_out as u64;
        counts.int4_macs += ((wtaps * npix) as u64 - c8) * cpg_out as u64;

        // An all-zero X8 has an exactly-zero product: skip its GEMM. The
        // GEMM counters record only the calls that run.
        let run8 = c8 > 0;
        if run8 {
            counter_add!("kernel/int8_gemm_calls", 1);
            counter_add!("kernel/int8_gemm_macs", macs);
        }
        counter_add!("kernel/int4_gemm_calls", 1);
        counter_add!("kernel/int4_gemm_macs", macs);
        let group_out = &mut oimg[g * cpg_out * npix..(g + 1) * cpg_out * npix];
        let group_bias = &bias[g * cpg_out..(g + 1) * cpg_out];
        if plan.wide8 || plan.wide4 {
            // Depth past the range proof: exact i64 accumulation.
            let acc8 = run8.then(|| {
                if plan.wide8 {
                    counter_add!("kernel/int8_gemm_wide_fallbacks", 1);
                    int8_matmul_wide(&plan.w8_groups[g], &x8_g).into_vec()
                } else {
                    widen(&int8_matmul(&plan.w8_groups[g], &x8_g))
                }
            });
            let acc4: Vec<i64> = if plan.wide4 {
                counter_add!("kernel/int4_gemm_wide_fallbacks", 1);
                int8_matmul_wide(&plan.w4_groups[g].unpack(), &x4_g).into_vec()
            } else {
                widen(&int4_matmul(&plan.w4_groups[g], &x4_g))
            };
            dequantize(group_out, acc8.as_deref(), &acc4, group_bias, dequant);
        } else {
            // Proven i32-safe: dequantize straight from the i32 results.
            let acc8 = run8.then(|| int8_matmul(&plan.w8_groups[g], &x8_g));
            let acc4 = int4_matmul(&plan.w4_groups[g], &x4_g);
            let acc8 = acc8.as_ref().map(Tensor::as_slice);
            dequantize(group_out, acc8, acc4.as_slice(), group_bias, dequant);
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
