//! Mixed-precision convolution (Section III-C).

use crate::{MaskMap, RegionGrid};
use drq_nn::Conv2d;
use drq_quant::{analyze_gemm, AccumWidth, Precision, QuantParams};
use drq_telemetry::counter_add;
use drq_tensor::{int_gemm_indirect, int_gemm_indirect_wide, parallel, PackedLhs, Shape4, Tensor};
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
/// weight calibration, the INT8 and INT4 weights of each channel group
/// packed into the integer kernel's tiles, and the accumulator-width
/// proofs.
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
#[derive(Debug, Clone, PartialEq)]
pub struct ConvPlan {
    wq8: QuantParams,
    /// Per group, `W8` as kernel tiles over the reduction index (tap,
    /// channel): k-pair `tap · ⌈cpg_in / 2⌉ + c / 2` holds channels `c`
    /// and `c + 1` at one tap, and an odd `cpg_in` pairs its last channel
    /// with a zero one.
    w8_groups: Vec<PackedLhs>,
    /// `W4 = W8 >> 4`, in the same order.
    w4_groups: Vec<PackedLhs>,
    /// The INT8 product's depth is past the i32 range proof. The INT4
    /// bound (about 33.5M taps) is the looser one, so this decides both.
    wide8: bool,
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
        let weight = conv.weight().as_slice();
        let wq8 = QuantParams::fit(weight, Precision::Int8);
        let w8: Vec<i8> = weight.iter().map(|&v| wq8.quantize_value(v) as i8).collect();
        let taps = conv.kernel() * conv.kernel();
        let groups = conv.groups();
        let cpg_in = conv.in_channels() / groups;
        let cpg_out = conv.out_channels() / groups;
        let wtaps = cpg_in * taps;
        // Reorder each filter's codes from (channel, tap) to (tap, channel
        // pair); the zero channel of an odd `cpg_in` is never written. INT8
        // codes are i8-range by construction; the INT4 weight is the
        // arithmetic high nibble.
        let ncp = cpg_in.div_ceil(2);
        let depth = taps * ncp * 2;
        let mut codes = vec![0i8; cpg_out * depth];
        let mut w8_groups = Vec::with_capacity(groups);
        let mut w4_groups = Vec::with_capacity(groups);
        for filters in w8.chunks_exact(cpg_out * wtaps) {
            for (filter, row) in filters.chunks_exact(wtaps).zip(codes.chunks_exact_mut(depth)) {
                for (c, per_tap) in filter.chunks_exact(taps).enumerate() {
                    for (tap, &v) in per_tap.iter().enumerate() {
                        row[(tap * ncp + c / 2) * 2 + c % 2] = v;
                    }
                }
            }
            let w8 = PackedLhs::pack(&codes, cpg_out, depth);
            w4_groups.push(w8.shr(4));
            w8_groups.push(w8);
        }
        // Static range analysis (SIRA-style): prove once per layer that
        // wrapping-i32 accumulation over `wtaps` MACs cannot lose bits; no
        // per-MAC saturation checks run on the proven path.
        let proof8 = analyze_gemm(Precision::Int8, Precision::Int8, wtaps);
        Self {
            wq8,
            w8_groups,
            w4_groups,
            wide8: proof8.width == AccumWidth::I64,
            wtaps,
        }
    }

    /// Bytes held by the packed weight tiles (plan-cache accounting).
    pub fn packed_bytes(&self) -> usize {
        self.w8_groups.iter().chain(&self.w4_groups).map(PackedLhs::packed_bytes).sum()
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
    /// parallel. Per item and channel group, each input channel is
    /// quantized and split straight into two zero-padded planes of i16
    /// codes, with channels interleaved in pairs:
    ///
    /// * `P8` — INT8 codes where the pixel is sensitive, else 0;
    /// * `P4` — INT4 codes (`q >> 4`) where it is insensitive, else 0
    ///   (padding is 0 in both and counts as INT4).
    ///
    /// A pixel finds its class through one column mask per region row, with
    /// no per-pixel region lookup and no branch. Each plane is stored as
    /// `s²` stride-phase sub-planes (`s` the stride; only the phases some
    /// tap reads are filled), so kernel tap `(ky, kx)` reads phase
    /// `(ky mod s, kx mod s)` at the fixed offset `(ky div s)·Wq + kx div s`
    /// from output lane `j = oy·Wq + ox`, `Wq` being the phase width. There
    /// is no im2col: the integer GEMM ([`drq_tensor::int_gemm_indirect`])
    /// reads the planes through one offset per (tap, channel pair). Lanes
    /// with `ox ≥ ow` are computed and never read back.
    ///
    /// Each tap is sensitive XOR insensitive, so the two products
    /// partition the tap-by-tap sum exactly: `acc = W8·P8 + 256·(W4·P4)`,
    /// with `W4 = W8 >> 4`, both packed once in the [`ConvPlan`] over the
    /// same (tap, channel) order. Both accumulate in wrapping i32 when the
    /// range analysis proves the depth safe (see `drq_quant::analyze_gemm`)
    /// and in i64 otherwise, so the sum is always exact and the reduction
    /// order does not matter. The INT8 tap count comes from per-region
    /// usage sums. A group with no sensitive tap has `P8 = 0` under every
    /// tap, so its INT8 GEMM is skipped: `kernel/int8_gemm_calls` and
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
        // Per-request activation calibration (the bit-identity anchor) and
        // plane geometry, then the flat (request, image) work list.
        let aqs: Vec<QuantParams> = inputs
            .iter()
            .map(|i| QuantParams::fit(i.x.as_slice(), Precision::Int8))
            .collect();
        let geos: Vec<PlaneGeometry> = shapes.iter().map(|&s| PlaneGeometry::new(conv, s)).collect();
        let items: Vec<(usize, usize)> = shapes
            .iter()
            .enumerate()
            .flat_map(|(r, s)| (0..s.n).map(move |n| (r, n)))
            .collect();
        // One slot per item: its image's slice of the request's output and
        // its MAC split.
        let mut outs: Vec<Tensor<f32>> = shapes
            .iter()
            .map(|&s| Tensor::zeros(&conv.output_shape(s).as_array()))
            .collect();
        let mut slots: Vec<(&mut [f32], ConvOpCounts)> = outs
            .iter_mut()
            .zip(&shapes)
            .flat_map(|(out, &s)| {
                let o = conv.output_shape(s);
                out.as_mut_slice().chunks_exact_mut(o.c * o.h * o.w)
            })
            .map(|o| (o, ConvOpCounts::default()))
            .collect();
        // A call too small to repay a helper's wake-up runs on the caller.
        let macs: u64 = shapes.iter().map(|&s| conv.mac_count(s)).sum();
        let workers = parallel::workers_for_macs(macs as usize);
        parallel::for_each_chunk_capped(&mut slots, 1, workers, |j, slot| {
            let (r, n) = items[j];
            let s = shapes[r];
            let img_len = s.c * s.h * s.w;
            let img = &inputs[r].x.as_slice()[n * img_len..(n + 1) * img_len];
            let (out, counts) = &mut slot[0];
            *counts = image(conv, plan, &geos[r], img, &aqs[r], &inputs[r].masks[n], out);
        });
        let per_item: Vec<ConvOpCounts> = slots.into_iter().map(|(_, c)| c).collect();
        let mut per_item = per_item.into_iter();
        outs.into_iter()
            .zip(&shapes)
            .map(|(out, s)| {
                let mut counts = ConvOpCounts::default();
                for c in per_item.by_ref().take(s.n) {
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

/// Where one input shape's split planes keep each pixel, and the k-pair
/// offsets through which the GEMM reads them.
///
/// A plane holds channel pairs; each pair holds `phases²` stride-phase
/// sub-planes of `plen` lanes (two i16 codes, one per channel, per lane).
/// Phase `(ry, rx)` keeps padded pixel `(py·s + ry, px·s + rx)` at lane
/// `py·wq + px`, so output `(oy, ox)` at tap `(ky, kx)` reads lane
/// `(oy·wq + ox) + (ky div s)·wq + kx div s` of phase `(ky mod s, kx mod s)`.
/// `wq = ow + (k − 1) div s` covers every valid read of a phase row, and
/// `plen` adds the rows and lanes that the skipped lanes `ox ≥ ow` run
/// into. Lanes no pixel lands on stay zero: the padding.
struct PlaneGeometry {
    /// Input height and width.
    h: usize,
    w: usize,
    stride: usize,
    pad: usize,
    /// Phases per axis that some tap reads: `min(k, s)`.
    phases: usize,
    /// Lanes per phase row.
    wq: usize,
    /// Phase rows that some valid output reads.
    hq: usize,
    /// Lanes per (channel pair, phase) sub-plane.
    plen: usize,
    /// Output lanes: `oh · wq`.
    lanes: usize,
    ow: usize,
    /// i16 elements of one plane.
    plane_len: usize,
    /// Per k-pair `tap · ⌈cpg_in / 2⌉ + channel pair`, the i16 index of its
    /// lane 0 (the [`ConvPlan`] reduction order).
    offsets: Vec<usize>,
    /// Taps reading each input column / row (for the INT8 tap count).
    xuses: Vec<u64>,
    yuses: Vec<u64>,
}

impl PlaneGeometry {
    fn new(conv: &Conv2d, s: Shape4) -> Self {
        let (k, stride, pad) = (conv.kernel(), conv.stride(), conv.padding());
        let out = conv.output_shape(s);
        let (oh, ow) = (out.h, out.w);
        let kd = (k - 1) / stride;
        let phases = k.min(stride);
        let (wq, hq) = (ow + kd, oh + kd);
        let plen = hq * wq + kd;
        let ncp = (s.c / conv.groups()).div_ceil(2);
        let sub_planes = phases * phases;
        let offsets = (0..k * k)
            .flat_map(|tap| {
                let (ky, kx) = (tap / k, tap % k);
                let phase = (ky % stride) * phases + kx % stride;
                let shift = (ky / stride) * wq + kx / stride;
                (0..ncp).map(move |cp| ((cp * sub_planes + phase) * plen + shift) * 2)
            })
            .collect();
        let xspans = valid_spans(s.w, ow, k, stride, pad);
        let yspans = valid_spans(s.h, oh, k, stride, pad);
        Self {
            h: s.h,
            w: s.w,
            stride,
            pad,
            phases,
            wq,
            hq,
            plen,
            lanes: oh * wq,
            ow,
            plane_len: ncp * sub_planes * plen * 2,
            offsets,
            xuses: axis_uses(s.w, &xspans, stride, pad),
            yuses: axis_uses(s.h, &yspans, stride, pad),
        }
    }
}

/// A mask grid's tables for one plane geometry: the region row of each
/// input row and the region column of each input column, and the usage
/// sums of each region row and column (taps reading its pixels).
struct GridTables {
    grid: RegionGrid,
    row_region: Vec<usize>,
    col_region: Vec<usize>,
    row_uses: Vec<u64>,
    col_uses: Vec<u64>,
}

impl GridTables {
    fn new(grid: RegionGrid, geo: &PlaneGeometry) -> Self {
        let row_region: Vec<usize> = (0..grid.height()).map(|y| grid.region_of(y, 0).0).collect();
        let col_region: Vec<usize> = (0..grid.width()).map(|x| grid.region_of(0, x).1).collect();
        let mut row_uses = vec![0u64; grid.rows()];
        for (&rr, &u) in row_region.iter().zip(&geo.yuses) {
            row_uses[rr] += u;
        }
        let mut col_uses = vec![0u64; grid.cols()];
        for (&rc, &u) in col_region.iter().zip(&geo.xuses) {
            col_uses[rc] += u;
        }
        Self { grid, row_region, col_region, row_uses, col_uses }
    }

    /// The INT8 tap count of a channel under `mask`. The taps reading pixel
    /// `(iy, ix)` number `yuses[iy] · xuses[ix]`, so each sensitive region
    /// adds the product of its row and column usage sums.
    fn int8_taps(&self, mask: &MaskMap) -> u64 {
        let cols = self.grid.cols();
        mask.bits()
            .iter()
            .enumerate()
            .filter(|&(_, &b)| b)
            .map(|(i, _)| self.row_uses[i / cols] * self.col_uses[i % cols])
            .sum()
    }
}

/// One work item's buffers, reused across its channel groups.
struct ItemBuffers {
    /// `P8`: INT8 code of each sensitive pixel, zero elsewhere.
    p8: Vec<i16>,
    /// `P4`: INT4 code (`q >> 4`) of each insensitive pixel, zero elsewhere.
    p4: Vec<i16>,
    acc8: Vec<i32>,
    acc4: Vec<i32>,
    /// The codes of each channel of a pair (`[h, w]`).
    codes: [Vec<i16>; 2],
    /// Per channel of a pair, the current region row's column mask: −1
    /// (all ones) where sensitive, 0 elsewhere.
    sensitive: [Vec<i16>; 2],
    /// Tables of the mask grids seen in the current item.
    tables: Vec<GridTables>,
}

impl ItemBuffers {
    /// Buffers for one item of geometry `geo` and `cpg_out` output channels
    /// per group. The planes start zeroed: a lane no pixel lands on is
    /// padding and must read zero.
    fn new(geo: &PlaneGeometry, cpg_out: usize) -> Self {
        let (h, w) = (geo.h, geo.w);
        Self {
            p8: vec![0; geo.plane_len],
            p4: vec![0; geo.plane_len],
            acc8: vec![0; cpg_out * geo.lanes],
            acc4: vec![0; cpg_out * geo.lanes],
            codes: [vec![0; h * w], vec![0; h * w]],
            sensitive: [vec![0; w], vec![0; w]],
            tables: Vec::new(),
        }
    }

    /// Index into `tables` of `grid`'s tables, built on first use.
    fn tables_for(&mut self, grid: RegionGrid, geo: &PlaneGeometry) -> usize {
        match self.tables.iter().position(|t| t.grid == grid) {
            Some(i) => i,
            None => {
                self.tables.push(GridTables::new(grid, geo));
                self.tables.len() - 1
            }
        }
    }

    /// Quantizes the channels of pair `cp` (`chans[1]` is `None` for the
    /// zero channel of an odd group) under `aq`, splits each by its mask
    /// and writes both into the pair's lanes of `P8` and `P4`. Every lane a
    /// pixel lands on is rewritten, so the planes need no clearing between
    /// groups. Returns the pair's INT8 tap count.
    fn split_pair(
        &mut self,
        geo: &PlaneGeometry,
        aq: &QuantParams,
        cp: usize,
        chans: [Option<(&[f32], &MaskMap)>; 2],
    ) -> u64 {
        let (s, pad, phases, w) = (geo.stride, geo.pad, geo.phases, geo.w);
        let mut tables = [0usize; 2];
        // The region row each `sensitive` mask was built for.
        let mut mask_row = [usize::MAX; 2];
        let mut c8 = 0;
        for (e, chan) in chans.iter().enumerate() {
            match chan {
                Some((x, mask)) => {
                    tables[e] = self.tables_for(mask.grid(), geo);
                    c8 += self.tables[tables[e]].int8_taps(mask);
                    for (q, &v) in self.codes[e].iter_mut().zip(*x) {
                        *q = aq.quantize_value(v) as i16;
                    }
                }
                None => {
                    self.codes[e].fill(0);
                    self.sensitive[e].fill(0);
                }
            }
        }
        let pair_base = cp * phases * phases * geo.plen;
        for iy in 0..geo.h {
            let (py, ry) = ((iy + pad) / s, (iy + pad) % s);
            if ry >= phases || py >= geo.hq {
                continue; // no tap reads this row
            }
            for (e, chan) in chans.iter().enumerate() {
                let Some((_, mask)) = chan else { continue };
                let t = &self.tables[tables[e]];
                let rr = t.row_region[iy];
                if rr != mask_row[e] {
                    mask_row[e] = rr;
                    let row_bits = &mask.bits()[rr * t.grid.cols()..][..t.grid.cols()];
                    for (m, &rc) in self.sensitive[e].iter_mut().zip(&t.col_region) {
                        *m = -i16::from(row_bits[rc]);
                    }
                }
            }
            let row = |e: usize| (&self.codes[e][iy * w..(iy + 1) * w], &self.sensitive[e][..]);
            let src = [row(0), row(1)];
            for rx in 0..phases {
                // Columns `ix = px·s + rx − pad` for `px` in `px0..px1`.
                let px0 = pad.saturating_sub(rx).div_ceil(s);
                let px1 = (w + pad).saturating_sub(rx).div_ceil(s).min(geo.wq);
                if px0 >= px1 {
                    continue;
                }
                let ix0 = px0 * s + rx - pad;
                let lane0 = pair_base + (ry * phases + rx) * geo.plen + py * geo.wq + px0;
                let lanes = 2 * lane0..2 * (lane0 + px1 - px0);
                let src = src.map(|(q, m)| (&q[ix0..], &m[ix0..]));
                scatter(&mut self.p8[lanes.clone()], &mut self.p4[lanes], src, s);
            }
        }
        c8
    }
}

/// Writes the codes `q` of a channel pair, one column every `step`, into
/// the pair's `P8` lanes where the mask `m` is −1 (sensitive) and their
/// `>> 4` into its `P4` lanes where it is 0, and zero into the other.
fn scatter(p8: &mut [i16], p4: &mut [i16], [(q0, m0), (q1, m1)]: [(&[i16], &[i16]); 2], step: usize) {
    let lanes = p8.chunks_exact_mut(2).zip(p4.chunks_exact_mut(2));
    let split = |(d8, d4): (&mut [i16], &mut [i16]), [q0, m0, q1, m1]: [i16; 4]| {
        d8[0] = q0 & m0;
        d8[1] = q1 & m1;
        d4[0] = (q0 >> 4) & !m0;
        d4[1] = (q1 >> 4) & !m1;
    };
    if step == 1 {
        let src = q0.iter().zip(m0).zip(q1.iter().zip(m1));
        for (lane, ((&q0, &m0), (&q1, &m1))) in lanes.zip(src) {
            split(lane, [q0, m0, q1, m1]);
        }
    } else {
        for (i, lane) in lanes.enumerate() {
            let j = i * step;
            split(lane, [q0[j], m0[j], q1[j], m1[j]]);
        }
    }
}

/// Dequantizes one group's accumulators with fused bias:
/// `(a8 + 256·a4) as f32 · dequant + b`, with `a8 = 0` when the INT8
/// GEMM was skipped. Accumulator rows are `oh · wq` lanes, of which each
/// output row keeps its first `ow`.
fn dequantize<A: Copy + Into<i64>>(
    out: &mut [f32],
    acc8: Option<&[A]>,
    acc4: &[A],
    bias: &[f32],
    dequant: f32,
    geo: &PlaneGeometry,
) {
    let (ow, wq) = (geo.ow, geo.wq);
    let npix = out.len() / bias.len();
    let rows = out.chunks_exact_mut(npix).zip(acc4.chunks_exact(geo.lanes)).zip(bias);
    for (oc, ((orow, a4row), &b)) in rows.enumerate() {
        let a8row = acc8.map(|acc8| &acc8[oc * geo.lanes..][..geo.lanes]);
        for (oy, o) in orow.chunks_exact_mut(ow).enumerate() {
            let a4 = &a4row[oy * wq..][..ow];
            match a8row {
                Some(a8row) => {
                    let a8 = &a8row[oy * wq..][..ow];
                    for ((o, &x8), &x4) in o.iter_mut().zip(a8).zip(a4) {
                        *o = (x8.into() + 256 * x4.into()) as f32 * dequant + b;
                    }
                }
                None => {
                    for (o, &x4) in o.iter_mut().zip(a4) {
                        *o = (256 * x4.into()) as f32 * dequant + b;
                    }
                }
            }
        }
    }
}

/// One work item: one image `x` (`[c, h, w]`), its request's plane
/// geometry `geo` and activation parameters `aq`, and its per-channel
/// masks. Per channel group, quantizes and splits each channel pair into
/// the planes, runs the INT4 GEMM and (if any tap is sensitive) the INT8
/// GEMM through the plane offsets, and dequantizes into `out`
/// (`[c_out, oh, ow]`, flattened). Returns the image's MAC split.
fn image(
    conv: &Conv2d,
    plan: &ConvPlan,
    geo: &PlaneGeometry,
    x: &[f32],
    aq: &QuantParams,
    masks: &[MaskMap],
    out: &mut [f32],
) -> ConvOpCounts {
    let groups = conv.groups();
    let cpg_in = conv.in_channels() / groups;
    let cpg_out = conv.out_channels() / groups;
    let bias = conv.bias().as_slice();
    let dequant = aq.scale() * plan.wq8.scale();
    let wtaps = plan.wtaps;
    let npix = out.len() / conv.out_channels();
    let plane = x.len() / conv.in_channels();
    let n = geo.lanes;
    let macs = (cpg_out * wtaps * npix) as u64;
    let mut counts = ConvOpCounts::default();
    let mut bufs = ItemBuffers::new(geo, cpg_out);
    for g in 0..groups {
        let chan = |c: usize| {
            let ic = g * cpg_in + c;
            (c < cpg_in).then(|| (&x[ic * plane..(ic + 1) * plane], &masks[ic]))
        };
        let c8: u64 = (0..cpg_in.div_ceil(2))
            .map(|cp| bufs.split_pair(geo, aq, cp, [chan(2 * cp), chan(2 * cp + 1)]))
            .sum();
        counts.int8_macs += c8 * cpg_out as u64;
        counts.int4_macs += ((wtaps * npix) as u64 - c8) * cpg_out as u64;

        // No sensitive tap means `P8` is zero under every tap: skip its
        // GEMM. The GEMM counters record only the calls that run.
        let run8 = c8 > 0;
        if run8 {
            counter_add!("kernel/int8_gemm_calls", 1);
            counter_add!("kernel/int8_gemm_macs", macs);
        }
        counter_add!("kernel/int4_gemm_calls", 1);
        counter_add!("kernel/int4_gemm_macs", macs);
        let group_out = &mut out[g * cpg_out * npix..(g + 1) * cpg_out * npix];
        let group_bias = &bias[g * cpg_out..(g + 1) * cpg_out];
        let (w8, w4) = (&plan.w8_groups[g], &plan.w4_groups[g]);
        if plan.wide8 {
            // Depth past the range proof: exact i64 accumulation.
            let acc8 = run8.then(|| {
                counter_add!("kernel/int8_gemm_wide_fallbacks", 1);
                let mut acc = vec![0i64; cpg_out * n];
                int_gemm_indirect_wide(w8, &bufs.p8, &geo.offsets, n, &mut acc);
                acc
            });
            counter_add!("kernel/int4_gemm_wide_fallbacks", 1);
            let mut acc4 = vec![0i64; cpg_out * n];
            int_gemm_indirect_wide(w4, &bufs.p4, &geo.offsets, n, &mut acc4);
            dequantize(group_out, acc8.as_deref(), &acc4, group_bias, dequant, geo);
        } else {
            // Proven i32-safe: dequantize straight from the i32 results.
            int_gemm_indirect(w4, &bufs.p4, &geo.offsets, n, &mut bufs.acc4);
            if run8 {
                int_gemm_indirect(w8, &bufs.p8, &geo.offsets, n, &mut bufs.acc8);
            }
            let acc8 = run8.then_some(&bufs.acc8[..]);
            dequantize(group_out, acc8, &bufs.acc4, group_bias, dequant, geo);
        }
    }
    counts
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
