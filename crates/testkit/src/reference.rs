//! Reference oracles: slow, obviously-correct implementations and
//! closed-form models to diff the production code against.
//!
//! # Bit-exactness contract
//!
//! [`matmul_naive`], [`conv2d_naive`] and [`conv2d_backward_naive`]
//! accumulate in *exactly* the order the production kernels do — per output
//! element, over the inner dimension (or the `(in_channel, ky, kx)` tap
//! order, padding zeros included) — so comparisons can demand
//! `f32::to_bits` equality rather than a tolerance, **provided every GEMM
//! depth fits one cache panel** (`k ≤ 256`): beyond one panel the blocked
//! kernel accumulates panel-partial sums in a different association and
//! only tolerance comparisons are valid. Case generators enforce the depth
//! cap for the bit-exact tiers.

use crate::exact::StreamElement;
use drq_core::{ConvOpCounts, MaskMap, RegionGrid, SensitivityPredictor};
use drq_models::{ConvLayerSpec, FeatureMapSynthesizer, LayerOp};
use drq_nn::Conv2d;
use drq_quant::{quantize, Precision, QuantParams};
use drq_sim::{LayerCycleModel, LayerCycles};
use drq_tensor::{Tensor, XorShiftRng};

/// Naive triple-loop matrix multiply, accumulating over `k` in index order
/// per output element — the i-k-j association of the in-tree simple kernel.
///
/// # Panics
///
/// Panics if the inputs are not rank 2 or inner dimensions disagree.
///
/// # Examples
///
/// ```
/// use drq_testkit::reference::matmul_naive;
/// use drq_tensor::{matmul, Tensor};
///
/// let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]).unwrap();
/// let b = Tensor::from_vec(vec![5.0, 6.0, 7.0, 8.0], &[2, 2]).unwrap();
/// assert_eq!(matmul_naive(&a, &b).as_slice(), matmul(&a, &b).as_slice());
/// ```
pub fn matmul_naive(a: &Tensor<f32>, b: &Tensor<f32>) -> Tensor<f32> {
    assert_eq!(a.rank(), 2, "lhs must be rank 2");
    assert_eq!(b.rank(), 2, "rhs must be rank 2");
    let (m, k) = (a.shape()[0], a.shape()[1]);
    let (k2, n) = (b.shape()[0], b.shape()[1]);
    assert_eq!(k, k2, "inner dimension mismatch");
    let av = a.as_slice();
    let bv = b.as_slice();
    Tensor::from_fn(&[m, n], |idx| {
        let (i, j) = (idx / n, idx % n);
        let mut acc = 0.0f32;
        for kk in 0..k {
            acc += av[i * k + kk] * bv[kk * n + j];
        }
        acc
    })
}

/// Naive direct convolution matching `Conv2d::forward` exactly: per output
/// pixel, taps accumulate in `(in_channel, ky, kx)` order *including* the
/// zero products contributed by padding (the im2col path materializes the
/// padding zeros and multiplies through them), then bias is added once.
///
/// Bit-identical to the im2col/GEMM path whenever the tap count per group
/// (`in_c/groups * k * k`, the GEMM depth) is at most 256.
///
/// # Panics
///
/// Panics if `x` is not rank 4 or the channel count mismatches.
pub fn conv2d_naive(conv: &Conv2d, x: &Tensor<f32>) -> Tensor<f32> {
    let s = x.shape4().expect("conv input must be rank 4");
    assert_eq!(s.c, conv.in_channels(), "channel mismatch");
    let out_shape = conv.output_shape(s);
    let k = conv.kernel();
    let stride = conv.stride();
    let pad = conv.padding() as isize;
    let groups = conv.groups();
    let cpg_in = s.c / groups;
    let cpg_out = conv.out_channels() / groups;
    let wv = conv.weight().as_slice();
    let bv = conv.bias().as_slice();
    let xv = x.as_slice();
    let wtaps = cpg_in * k * k;

    let mut out = Tensor::<f32>::zeros(&out_shape.as_array());
    let ov = out.as_mut_slice();
    for n in 0..s.n {
        for g in 0..groups {
            for oc_local in 0..cpg_out {
                let oc = g * cpg_out + oc_local;
                for oy in 0..out_shape.h {
                    for ox in 0..out_shape.w {
                        let mut acc = 0.0f32;
                        for ic_local in 0..cpg_in {
                            let ic = g * cpg_in + ic_local;
                            for ky in 0..k {
                                let iy = (oy * stride + ky) as isize - pad;
                                for kx in 0..k {
                                    let ix = (ox * stride + kx) as isize - pad;
                                    let w = wv[oc * wtaps + (ic_local * k + ky) * k + kx];
                                    let inside = iy >= 0
                                        && (iy as usize) < s.h
                                        && ix >= 0
                                        && (ix as usize) < s.w;
                                    let xval = if inside {
                                        xv[s.offset(n, ic, iy as usize, ix as usize)]
                                    } else {
                                        0.0
                                    };
                                    acc += w * xval;
                                }
                            }
                        }
                        ov[out_shape.offset(n, oc, oy, ox)] = acc + bv[oc];
                    }
                }
            }
        }
    }
    out
}

/// Naive convolution backward matching `Conv2d::backward` exactly on a
/// layer whose gradient accumulators are zero: returns
/// `(grad_input, grad_weight, grad_bias)` for input `x` and output
/// gradient `grad_out`, in the production association:
///
/// - *grad input*: each pixel adds its in-bounds taps onto `0.0` in
///   `(ky, kx, oy, ox)` order; a tap's column gradient is
///   `Σ w[oc, tap]·gy[oc, oy, ox]` over the group's output channels in
///   order, from `0.0`;
/// - *grad weight*: per image, `Σ gy[oc, oy, ox]·col[tap, oy, ox]` over
///   output positions in order from `0.0`, padding taps contributing
///   their zero products; images add onto `0.0` in batch order;
/// - *grad bias*: per image, the `Iterator::sum` of the channel's
///   output-gradient row added to `0.0`; images add onto `0.0` in batch
///   order.
///
/// Bit-identical to the im2col/GEMM backward whenever its two GEMM depths
/// — output positions per image (`oh·ow`) and output channels per group —
/// are at most 256.
///
/// # Panics
///
/// Panics if `x` is not rank 4, its channel count mismatches, or
/// `grad_out` does not have the layer's output shape for `x`.
pub fn conv2d_backward_naive(
    conv: &Conv2d,
    x: &Tensor<f32>,
    grad_out: &Tensor<f32>,
) -> (Tensor<f32>, Tensor<f32>, Tensor<f32>) {
    let s = x.shape4().expect("conv input must be rank 4");
    assert_eq!(s.c, conv.in_channels(), "channel mismatch");
    let os = conv.output_shape(s);
    assert_eq!(grad_out.shape(), &os.as_array(), "grad_out shape mismatch");
    let k = conv.kernel();
    let stride = conv.stride();
    let pad = conv.padding() as isize;
    let cpg_in = s.c / conv.groups();
    let cpg_out = conv.out_channels() / conv.groups();
    let wtaps = cpg_in * k * k;
    let (wv, xv, gv) = (conv.weight().as_slice(), x.as_slice(), grad_out.as_slice());
    // The input pixel a tap reads at an output position; None in padding.
    let pixel = |ky: usize, kx: usize, oy: usize, ox: usize| {
        let iy = (oy * stride + ky) as isize - pad;
        let ix = (ox * stride + kx) as isize - pad;
        let inside = iy >= 0 && (iy as usize) < s.h && ix >= 0 && (ix as usize) < s.w;
        inside.then_some((iy as usize, ix as usize))
    };

    let mut gx = Tensor::<f32>::zeros(x.shape());
    let mut gw = Tensor::<f32>::zeros(conv.weight().shape());
    let mut gb = Tensor::<f32>::zeros(&[conv.out_channels()]);
    for n in 0..s.n {
        for oc in 0..conv.out_channels() {
            let g = oc / cpg_out;
            let row = &gv[os.offset(n, oc, 0, 0)..][..os.h * os.w];
            gb.as_mut_slice()[oc] += 0.0 + row.iter().sum::<f32>();
            for ic_local in 0..cpg_in {
                for ky in 0..k {
                    for kx in 0..k {
                        let mut acc = 0.0f32;
                        for oy in 0..os.h {
                            for ox in 0..os.w {
                                let xval = pixel(ky, kx, oy, ox).map_or(0.0, |(iy, ix)| {
                                    xv[s.offset(n, g * cpg_in + ic_local, iy, ix)]
                                });
                                acc += gv[os.offset(n, oc, oy, ox)] * xval;
                            }
                        }
                        gw.as_mut_slice()[oc * wtaps + (ic_local * k + ky) * k + kx] += acc;
                    }
                }
            }
        }
        for c in 0..s.c {
            let (g, ic_local) = (c / cpg_in, c % cpg_in);
            for ky in 0..k {
                for kx in 0..k {
                    let tap = (ic_local * k + ky) * k + kx;
                    for oy in 0..os.h {
                        for ox in 0..os.w {
                            let Some((iy, ix)) = pixel(ky, kx, oy, ox) else { continue };
                            let mut col = 0.0f32;
                            for oc in g * cpg_out..(g + 1) * cpg_out {
                                col += wv[oc * wtaps + tap] * gv[os.offset(n, oc, oy, ox)];
                            }
                            gx.as_mut_slice()[s.offset(n, c, iy, ix)] += col;
                        }
                    }
                }
            }
        }
    }
    (gx, gw, gb)
}

/// Exact integer matrix multiply: `i8 × i8` operands accumulated in `i64`,
/// which cannot overflow for any representable shape (`k ≤ usize::MAX`
/// would need `k > 2^49` to escape `i64` at the `(−128)·(−128)` extreme).
/// This is the ground truth the narrower accumulator views below and the
/// production integer tier are judged against.
///
/// # Panics
///
/// Panics if the inputs are not rank 2 or inner dimensions disagree.
///
/// # Examples
///
/// ```
/// use drq_testkit::reference::int_matmul_exact;
/// use drq_tensor::Tensor;
///
/// let a = Tensor::from_vec(vec![127i8, -128], &[1, 2]).unwrap();
/// let b = Tensor::from_vec(vec![-128i8, -128], &[2, 1]).unwrap();
/// assert_eq!(int_matmul_exact(&a, &b).as_slice(), &[127 * -128 + 128 * 128]);
/// ```
pub fn int_matmul_exact(a: &Tensor<i8>, b: &Tensor<i8>) -> Tensor<i64> {
    assert_eq!(a.rank(), 2, "lhs must be rank 2");
    assert_eq!(b.rank(), 2, "rhs must be rank 2");
    let (m, k) = (a.shape()[0], a.shape()[1]);
    let (k2, n) = (b.shape()[0], b.shape()[1]);
    assert_eq!(k, k2, "inner dimension mismatch");
    let av = a.as_slice();
    let bv = b.as_slice();
    Tensor::from_fn(&[m, n], |idx| {
        let (i, j) = (idx / n, idx % n);
        let mut acc = 0i64;
        for kk in 0..k {
            acc += av[i * k + kk] as i64 * bv[kk * n + j] as i64;
        }
        acc
    })
}

/// The exact sum truncated to `i32` — i.e. taken modulo 2³².
///
/// **This is the production tier's overflow semantics.** Wrapping `i32`
/// addition is associative and commutative modulo 2³², so truncating the
/// exact sum equals accumulating in wrapping `i32` in *any* order: blocked,
/// SIMD and threaded kernels are all bit-identical to this view by
/// construction, at every depth `k`. The result equals [`int_matmul_exact`]
/// whenever the true sum fits `i32`, which `drq_quant::analyze_gemm` proves
/// a priori from the operand precisions and `k`.
pub fn int_matmul_wrapping(a: &Tensor<i8>, b: &Tensor<i8>) -> Tensor<i32> {
    int_matmul_exact(a, b).map(|v| v as i32)
}

/// The exact sum clamped to `[i32::MIN, i32::MAX]` — classical DSP
/// saturation semantics, documented here for contrast.
///
/// The production tier deliberately does **not** saturate: saturation is
/// order-dependent (clamping a partial sum loses information the remaining
/// terms cannot restore), which would break bit-identity across blocking
/// and thread counts. Instead the range-analysis pass routes any GEMM whose
/// worst-case sum exceeds `i32` to the `i64` wide path, where this view and
/// the wrapping one coincide with the exact sum.
pub fn int_matmul_saturating(a: &Tensor<i8>, b: &Tensor<i8>) -> Tensor<i32> {
    int_matmul_exact(a, b).map(|v| v.clamp(i32::MIN as i64, i32::MAX as i64) as i32)
}

/// The mixed-precision convolution as a scalar tap loop: the bit-exact
/// oracle for `MixedPrecisionConv::forward` on one input.
///
/// Per output pixel, every tap of the `(in_channel, ky, kx)` window reads
/// the INT8 activation and weight codes (max-abs calibrated over `x` and
/// the weights). A tap whose source pixel is sensitive adds `q_w · q_x`;
/// any other tap adds `(q_w >> 4) · (q_x >> 4) · 256`, the INT4 product
/// shifted back to the INT8 scale. Padding taps add nothing and count as
/// INT4. The exact `i64` sum is dequantized once, `acc as f32 · s_x · s_w
/// + bias`. Images run one after another on the calling thread.
///
/// # Panics
///
/// Panics on shape inconsistencies between `conv`, `x` and `masks`.
pub fn mixed_conv_naive(
    conv: &Conv2d,
    x: &Tensor<f32>,
    masks: &[Vec<MaskMap>],
) -> (Tensor<f32>, ConvOpCounts) {
    let s = x.shape4().expect("conv input must be rank 4");
    assert_eq!(s.c, conv.in_channels(), "channel mismatch");
    assert_eq!(masks.len(), s.n, "need one mask set per image");
    let aq8 = QuantParams::fit(x.as_slice(), Precision::Int8);
    let wq8 = QuantParams::fit(conv.weight().as_slice(), Precision::Int8);
    let x8_t = quantize(x, &aq8);
    let w8_t = quantize(conv.weight(), &wq8);
    let (x8, w8) = (x8_t.as_slice(), w8_t.as_slice());
    let dequant = aq8.scale() * wq8.scale();

    let out_shape = conv.output_shape(s);
    let k = conv.kernel();
    let stride = conv.stride();
    let pad = conv.padding() as isize;
    let groups = conv.groups();
    let cpg_in = s.c / groups;
    let cpg_out = conv.out_channels() / groups;
    let bias = conv.bias().as_slice();
    let wtaps = cpg_in * k * k;

    let mut out = Tensor::<f32>::zeros(&out_shape.as_array());
    let mut counts = ConvOpCounts::default();
    for n in 0..s.n {
        for g in 0..groups {
            for oc_local in 0..cpg_out {
                let oc = g * cpg_out + oc_local;
                for oy in 0..out_shape.h {
                    for ox in 0..out_shape.w {
                        let mut acc: i64 = 0;
                        for ic_local in 0..cpg_in {
                            let ic = g * cpg_in + ic_local;
                            for ky in 0..k {
                                let iy = (oy * stride + ky) as isize - pad;
                                for kx in 0..k {
                                    let ix = (ox * stride + kx) as isize - pad;
                                    let inside = iy >= 0
                                        && (iy as usize) < s.h
                                        && ix >= 0
                                        && (ix as usize) < s.w;
                                    if !inside {
                                        counts.int4_macs += 1;
                                        continue;
                                    }
                                    let (iy, ix) = (iy as usize, ix as usize);
                                    let q_x = x8[s.offset(n, ic, iy, ix)] as i64;
                                    let q_w = w8[oc * wtaps + (ic_local * k + ky) * k + kx] as i64;
                                    if masks[n][ic].pixel_sensitive(iy, ix) {
                                        counts.int8_macs += 1;
                                        acc += q_w * q_x;
                                    } else {
                                        counts.int4_macs += 1;
                                        acc += (q_w >> 4) * (q_x >> 4) * 256;
                                    }
                                }
                            }
                        }
                        out[[n, oc, oy, ox]] = acc as f32 * dequant + bias[oc];
                    }
                }
            }
        }
    }
    (out, counts)
}

/// Per-output-element error bound for `MixedPrecisionConv::forward` against
/// the fp32 convolution, from the paper's quantization-error model.
///
/// Per tap, with activation scale `s_x` and weight scale `s_w` (both from
/// INT8 max-abs calibration):
///
/// * **sensitive** (INT8) tap: operand errors are at most half a step,
///   `δ = s/2`;
/// * **insensitive** (INT4) tap: the INT8 code's low nibble is discarded by
///   an arithmetic shift (floor), losing up to 15 codes, on top of the
///   half-step rounding — `δ = 15.5·s`.
///
/// The product error per tap is `δ_w·|x| + δ_x·|w| + δ_w·δ_x`; padding taps
/// contribute exactly zero. A float-arithmetic slack term (the fp32
/// reference accumulates in `f32`; the mixed path dequantizes an exact
/// integer sum) of `(taps + 8)·ε₃₂·(Σ|w·x| + |bias|)` is added so the bound
/// never fails on accumulation rounding alone. All arithmetic is `f64`.
///
/// # Panics
///
/// Panics on shape inconsistencies between `conv`, `x` and `masks`.
pub fn mixed_conv_error_bound(
    conv: &Conv2d,
    x: &Tensor<f32>,
    masks: &[Vec<MaskMap>],
) -> Vec<f64> {
    let s = x.shape4().expect("conv input must be rank 4");
    assert_eq!(s.c, conv.in_channels(), "channel mismatch");
    assert_eq!(masks.len(), s.n, "need one mask set per image");
    let aq8 = QuantParams::fit(x.as_slice(), Precision::Int8);
    let wq8 = QuantParams::fit(conv.weight().as_slice(), Precision::Int8);
    let sx = aq8.scale() as f64;
    let sw = wq8.scale() as f64;
    // INT8 round-off vs INT4 round-off + 4-bit floor truncation.
    let (d8x, d8w) = (sx / 2.0, sw / 2.0);
    let (d4x, d4w) = (15.5 * sx, 15.5 * sw);

    let out_shape = conv.output_shape(s);
    let k = conv.kernel();
    let stride = conv.stride();
    let pad = conv.padding() as isize;
    let groups = conv.groups();
    let cpg_in = s.c / groups;
    let cpg_out = conv.out_channels() / groups;
    let wv = conv.weight().as_slice();
    let bv = conv.bias().as_slice();
    let xv = x.as_slice();
    let wtaps = cpg_in * k * k;
    let eps = f32::EPSILON as f64;

    let mut bounds = vec![0.0f64; out_shape.n * out_shape.c * out_shape.h * out_shape.w];
    for n in 0..s.n {
        for g in 0..groups {
            for oc_local in 0..cpg_out {
                let oc = g * cpg_out + oc_local;
                for oy in 0..out_shape.h {
                    for ox in 0..out_shape.w {
                        let mut quant = 0.0f64;
                        let mut sum_abs = 0.0f64;
                        for ic_local in 0..cpg_in {
                            let ic = g * cpg_in + ic_local;
                            for ky in 0..k {
                                let iy = (oy * stride + ky) as isize - pad;
                                for kx in 0..k {
                                    let ix = (ox * stride + kx) as isize - pad;
                                    let inside = iy >= 0
                                        && (iy as usize) < s.h
                                        && ix >= 0
                                        && (ix as usize) < s.w;
                                    if !inside {
                                        continue;
                                    }
                                    let (iy, ix) = (iy as usize, ix as usize);
                                    let w =
                                        wv[oc * wtaps + (ic_local * k + ky) * k + kx] as f64;
                                    let xval = xv[s.offset(n, ic, iy, ix)] as f64;
                                    let sensitive = masks[n][ic].pixel_sensitive(iy, ix);
                                    let (dw, dx) = if sensitive {
                                        (d8w, d8x)
                                    } else {
                                        (d4w, d4x)
                                    };
                                    quant += dw * xval.abs() + dx * w.abs() + dw * dx;
                                    sum_abs += (w * xval).abs();
                                }
                            }
                        }
                        let slack = (wtaps as f64 + 8.0) * eps * (sum_abs + bv[oc].abs() as f64);
                        // The (1 + 1e-6) factor absorbs fp32 rounding *of the
                        // quantization error itself* (acc→f32, scale product),
                        // which the sum_abs slack does not see.
                        bounds[out_shape.offset(n, oc, oy, ox)] =
                            quant * (1.0 + 1e-6) + slack + 1e-9;
                    }
                }
            }
        }
    }
    bounds
}

/// What the closed-form model predicts for one systolic-array tile.
#[derive(Debug, Clone, PartialEq)]
pub struct AnalyticTrace {
    /// Total cycles: `Σ step_costs + (cols − 1) + rows` (0 for no steps).
    pub cycles: u64,
    /// Steps with at least one sensitive row (4-cycle INT8 schedule).
    pub int8_steps: u64,
    /// Stall-free 1-cycle steps.
    pub int4_steps: u64,
    /// `3 · Σ (rows − sensitive_rows)` over INT8 steps, times `cols`.
    pub stall_pe_cycles: u64,
    /// Per-column, per-step dot products: sensitive taps at full INT8
    /// (`w·v`), insensitive taps on high nibbles (`((w>>4)·(v>>4))·256`).
    pub outputs: Vec<Vec<i64>>,
}

/// The closed-form cycle/stall/output model of the variable-speed systolic
/// array, derived independently from the paper's Fig. 7 schedule:
///
/// * a step costs 4 cycles if any row's element is sensitive (the whole
///   column takes the time-multiplexed INT8 path), else 1;
/// * columns pipeline with one cycle of lag and never reorder steps, so the
///   total is `Σ costs + (cols − 1) + rows` drain cycles;
/// * each INT4-receiving PE in an INT8 step stalls 3 cycles.
///
/// The cycle-accurate simulator must agree exactly on every workload — the
/// start-time recurrence `start[j][t] = max(finish[j][t-1], start[j-1][t]+1)`
/// collapses to the closed form whenever all step costs are ≥ 1, which they
/// are by construction.
///
/// # Panics
///
/// Panics if `weights` is empty/ragged or `streams` disagree with it.
pub fn systolic_analytic(
    weights: &[Vec<i32>],
    streams: &[Vec<StreamElement>],
) -> AnalyticTrace {
    assert!(!weights.is_empty() && !weights[0].is_empty(), "empty weight matrix");
    let rows = weights.len();
    let cols = weights[0].len();
    assert!(weights.iter().all(|r| r.len() == cols), "ragged weights");
    assert_eq!(streams.len(), rows, "need one stream per row");
    let steps = streams.first().map(Vec::len).unwrap_or(0);
    assert!(streams.iter().all(|s| s.len() == steps), "ragged streams");

    if steps == 0 {
        return AnalyticTrace {
            cycles: 0,
            int8_steps: 0,
            int4_steps: 0,
            stall_pe_cycles: 0,
            outputs: vec![Vec::new(); cols],
        };
    }

    let mut int8_steps = 0u64;
    let mut stall_per_col = 0u64;
    let mut cost_sum = 0u64;
    for t in 0..steps {
        let sensitive_rows = streams.iter().filter(|s| s[t].sensitive).count() as u64;
        if sensitive_rows > 0 {
            int8_steps += 1;
            stall_per_col += 3 * (rows as u64 - sensitive_rows);
            cost_sum += 4;
        } else {
            cost_sum += 1;
        }
    }

    let outputs = (0..cols)
        .map(|j| {
            (0..steps)
                .map(|t| {
                    streams
                        .iter()
                        .enumerate()
                        .map(|(i, s)| {
                            let e = s[t];
                            let w = weights[i][j] as i64;
                            if e.sensitive {
                                w * e.value as i64
                            } else {
                                ((w >> 4) * ((e.value as i64) >> 4)) << 8
                            }
                        })
                        .sum()
                })
                .collect()
        })
        .collect();

    AnalyticTrace {
        cycles: cost_sum + (cols as u64 - 1) + rows as u64,
        int8_steps,
        int4_steps: steps as u64 - int8_steps,
        stall_pe_cycles: stall_per_col * cols as u64,
        outputs,
    }
}

/// Per-pixel feature-map synthesis: the oracle for
/// [`FeatureMapSynthesizer::synthesize`]. Draws the same RNG stream in the
/// same order — the blob count and centres, then per channel one
/// `next_normal().max(0.0)` background value per pixel followed by each
/// blob's inclusion draw, jitter and amplitude — and stamps every blob
/// pixel by pixel with its own bounds check and `exp`, so the production
/// path's tables and clipped row slices must reproduce it bit for bit.
///
/// # Panics
///
/// Panics if any dimension is zero.
pub fn synthesize_naive(
    synth: &FeatureMapSynthesizer,
    c: usize,
    h: usize,
    w: usize,
    rng: &mut XorShiftRng,
) -> Tensor<f32> {
    assert!(c > 0 && h > 0 && w > 0, "dimensions must be positive");
    let mut x = Tensor::<f32>::zeros(&[1, c, h, w]);
    let s = x.shape4().expect("rank 4 by construction");
    let radius = (((h * w) as f64).sqrt() * synth.blob_radius_frac).max(1.0);
    let inclusion_prob = synth.channel_inclusion.clamp(0.05, 1.0);
    let expected_millis =
        (synth.blobs_per_kilopixel * (h * w) as f64 / inclusion_prob).max(1.0) as usize;
    let mut image_blobs = expected_millis / 1000;
    if rng.next_below(1000) < expected_millis % 1000 {
        image_blobs += 1;
    }
    let centers: Vec<(usize, usize)> = (0..image_blobs.max(1))
        .map(|_| (rng.next_below(h), rng.next_below(w)))
        .collect();
    let jitter = (radius * 0.25).ceil() as usize + 1;
    let xs = x.as_mut_slice();
    for ch in 0..c {
        for y in 0..h {
            for xx in 0..w {
                xs[s.offset(0, ch, y, xx)] = rng.next_normal().max(0.0) * synth.base_level;
            }
        }
        for &(by, bx) in &centers {
            if rng.next_f64() >= inclusion_prob {
                continue;
            }
            let cy = (by + rng.next_below(jitter)).min(h - 1) as f64;
            let cx = (bx + rng.next_below(jitter)).min(w - 1) as f64;
            let amp = synth.blob_amplitude * (0.5 + rng.next_f32());
            let r2 = (radius * radius) as f32;
            let reach = (radius * 2.5).ceil() as isize;
            for dy in -reach..=reach {
                let y = cy as isize + dy;
                if y < 0 || y >= h as isize {
                    continue;
                }
                for dx in -reach..=reach {
                    let xx = cx as isize + dx;
                    if xx < 0 || xx >= w as isize {
                        continue;
                    }
                    let d2 = (dy * dy + dx * dx) as f32;
                    xs[s.offset(0, ch, y as usize, xx as usize)] +=
                        amp * (-d2 / (2.0 * r2)).exp();
                }
            }
        }
    }
    x
}

/// Per-pixel region mean filter: the oracle for
/// [`SensitivityPredictor::predict_image`]. Fits the batch-wide INT8
/// parameters, then for every channel and region sums the quantized codes
/// pixel by pixel through `region_bounds` and compares the mean with the
/// threshold.
///
/// # Panics
///
/// Panics if `x` is not rank 4 or `n` is out of range.
pub fn predict_image_naive(
    predictor: &SensitivityPredictor,
    x: &Tensor<f32>,
    n: usize,
) -> Vec<MaskMap> {
    let s = x.shape4().expect("predictor input must be rank 4");
    assert!(n < s.n, "image index out of range");
    let params = SensitivityPredictor::activation_params(x);
    let grid = RegionGrid::new(s.h, s.w, predictor.region());
    let xs = x.as_slice();
    (0..s.c)
        .map(|c| {
            let mut bits = Vec::with_capacity(grid.region_count());
            for r in 0..grid.rows() {
                for col in 0..grid.cols() {
                    let (ys, xcols) = grid.region_bounds(r, col);
                    let mut sum = 0i64;
                    let mut count = 0usize;
                    for y in ys {
                        for xx in xcols.clone() {
                            sum += params.quantize_value(xs[s.offset(n, c, y, xx)]) as i64;
                            count += 1;
                        }
                    }
                    let mean = sum as f32 / count.max(1) as f32;
                    bits.push(mean > predictor.threshold());
                }
            }
            MaskMap::from_bits(grid, bits)
        })
        .collect()
}

/// Pixel-by-pixel layer cycle model: the oracle for
/// [`LayerCycleModel::simulate_layer`]. Tests every output window's
/// sensitivity region by region, sums sensitive taps pixel by pixel, and
/// decides each row tile's step costs by scanning the covered channels'
/// windows step by step — the production model's bitsets, region spans
/// and region-level tap sums must agree on every [`LayerCycles`] field.
///
/// # Panics
///
/// Panics if `masks.len() != spec.in_c` or a mask grid does not cover the
/// layer's input extent.
pub fn layer_cycles_naive(
    model: &LayerCycleModel,
    spec: &ConvLayerSpec,
    masks: &[MaskMap],
) -> LayerCycles {
    let (rows, cols, pages) = (model.rows(), model.cols(), model.pages());
    assert_eq!(masks.len(), spec.in_c, "need one mask per input channel");
    for m in masks {
        assert_eq!(
            (m.grid().height(), m.grid().width()),
            (spec.in_h, spec.in_w),
            "mask grid does not cover the feature map"
        );
    }
    let total_pes = (rows * cols * pages) as u64;
    if spec.op == LayerOp::Fc {
        let macs = spec.macs();
        let sensitive_inputs = masks.iter().filter(|m| m.pixel_sensitive(0, 0)).count() as u64;
        let int8_macs = sensitive_inputs * spec.out_c as u64;
        let int4_macs = macs - int8_macs.min(macs);
        let compute = (int4_macs + 4 * int8_macs).div_ceil(total_pes);
        let weight_stream = spec.weight_count().div_ceil((rows * pages) as u64);
        let compute_cycles = compute.max(weight_stream);
        let fill_cycles = (rows + cols - 1) as u64;
        return LayerCycles {
            int4_steps: int4_macs.div_ceil(total_pes),
            int8_steps: int8_macs.div_ceil(total_pes),
            compute_cycles,
            fill_cycles,
            weight_load_cycles: 0,
            weight_load_raw_cycles: weight_stream,
            stall_pe_cycles: 0,
            int4_macs,
            int8_macs,
            pe_cycles: (compute_cycles + fill_cycles) * (rows * cols) as u64,
        };
    }
    let (out_h, out_w) = (spec.out_h(), spec.out_w());
    let steps_per_pass = out_h * out_w;
    let cpg = spec.in_c / spec.groups;
    let filters_per_group = spec.out_c / spec.groups;
    let taps = cpg * spec.kh * spec.kw;
    let filter_tiles = filters_per_group.div_ceil(cols);
    let row_tiles = taps.div_ceil(rows);
    let stack = if spec.groups > pages {
        (rows / taps.max(1)).max(1).min((cols / filters_per_group.max(1)).max(1))
    } else {
        1
    };
    let group_jobs = spec.groups.div_ceil(stack);
    let rounds = (group_jobs * row_tiles * filter_tiles).div_ceil(pages) as u64;

    // Does output (oy, ox)'s window over channel c touch a sensitive region?
    let win = |c: usize, oy: usize, ox: usize| -> bool {
        let y0 = (oy * spec.stride).saturating_sub(spec.pad_h);
        let x0 = (ox * spec.stride).saturating_sub(spec.pad_w);
        let y1 = (oy * spec.stride + spec.kh).saturating_sub(spec.pad_h + 1).min(spec.in_h - 1);
        let x1 = (ox * spec.stride + spec.kw).saturating_sub(spec.pad_w + 1).min(spec.in_w - 1);
        if y0 > y1 || x0 > x1 {
            return false;
        }
        let g = masks[c].grid();
        let (r0, c0) = g.region_of(y0, x0);
        let (r1, c1) = g.region_of(y1, x1);
        (r0..=r1).any(|rr| (c0..=c1).any(|cc| masks[c].is_sensitive(rr, cc)))
    };
    let window_sensitive: Vec<Vec<bool>> = (0..cpg)
        .map(|c| {
            (0..steps_per_pass).map(|step| win(c, step / out_w, step % out_w)).collect()
        })
        .collect();

    // How many (output, kernel tap) pairs read each input coordinate.
    let usage_1d = |len: usize, out_len: usize, k: usize, pad: usize| -> Vec<u64> {
        let mut cnt = vec![0u64; len];
        for o in 0..out_len {
            for kk in 0..k {
                let i = o * spec.stride + kk;
                if i >= pad && i - pad < len {
                    cnt[i - pad] += 1;
                }
            }
        }
        cnt
    };
    let cnt_y = usage_1d(spec.in_h, out_h, spec.kh, spec.pad_h);
    let cnt_x = usage_1d(spec.in_w, out_w, spec.kw, spec.pad_w);
    let sensitive_taps_per_channel: Vec<u64> = masks
        .iter()
        .map(|m| {
            let mut acc = 0u64;
            for (y, &cy) in cnt_y.iter().enumerate() {
                for (x, &cx) in cnt_x.iter().enumerate() {
                    if m.pixel_sensitive(y, x) {
                        acc += cy * cx;
                    }
                }
            }
            acc
        })
        .collect();

    let total_macs = spec.macs();
    let int8_macs: u64 =
        sensitive_taps_per_channel.iter().map(|&t| t * filters_per_group as u64).sum();
    let int4_macs = total_macs - int8_macs.min(total_macs);

    let kk = spec.kh * spec.kw;
    let (mut int4_steps, mut int8_steps, mut stall) = (0u64, 0u64, 0u64);
    let (mut compute_per_coltile, mut max_job_cycles) = (0u64, 0u64);
    for rt in 0..row_tiles {
        let tap_lo = rt * rows;
        let tap_hi = (tap_lo + rows).min(taps);
        let (c_lo, c_hi) = (tap_lo / kk, (tap_hi - 1) / kk);
        let tile_int8_steps = (0..steps_per_pass)
            .filter(|&step| (c_lo..=c_hi).any(|c| window_sensitive[c][step]))
            .count() as u64;
        int8_steps += tile_int8_steps;
        int4_steps += steps_per_pass as u64 - tile_int8_steps;
        let tile_cycles = tile_int8_steps * 4 + (steps_per_pass as u64 - tile_int8_steps);
        compute_per_coltile += tile_cycles;
        max_job_cycles = max_job_cycles.max(tile_cycles);
        let tile_sensitive_taps: u64 = (c_lo..=c_hi)
            .map(|c| {
                let overlap = tap_hi.min(c * kk + kk).saturating_sub(tap_lo.max(c * kk));
                sensitive_taps_per_channel[c] * overlap as u64 / kk as u64
            })
            .sum();
        let rows_used = (tap_hi - tap_lo) as u64;
        stall += 3 * (rows_used * tile_int8_steps).saturating_sub(tile_sensitive_taps);
    }

    let per_tile_scale = (group_jobs * filter_tiles) as u64;
    let compute_cycles =
        (compute_per_coltile * per_tile_scale).div_ceil(pages as u64).max(max_job_cycles);
    let raw_load = rows as u64;
    let raw_fill = (rows + cols - 1) as u64;
    let avg_compute = compute_cycles / rounds.max(1);
    let residual = |raw: u64| raw + rounds.saturating_sub(1) * (raw - avg_compute.min(raw));
    let fill_cycles = residual(raw_fill);
    let weight_load_cycles = residual(raw_load);
    let pages = pages as u64;
    LayerCycles {
        int4_steps: (int4_steps * per_tile_scale).div_ceil(pages),
        int8_steps: (int8_steps * per_tile_scale).div_ceil(pages),
        compute_cycles,
        fill_cycles,
        weight_load_cycles,
        weight_load_raw_cycles: rounds * raw_load,
        stall_pe_cycles: (stall * per_tile_scale * cols as u64).div_ceil(pages),
        int4_macs,
        int8_macs,
        pe_cycles: (compute_cycles + fill_cycles + weight_load_cycles) * (rows * cols) as u64,
    }
}

/// Naive O(n²) Pareto front: the indices of every point no other point
/// [`drq_dse::dominates`] — the oracle `drq_dse::ParetoFront` is diffed
/// against in `tests/pareto.rs`.
///
/// Exact-objective duplicates dominate nothing (dominance needs one strict
/// axis), so all copies survive — matching the incremental front's
/// tie-keeping rule.
///
/// # Examples
///
/// ```
/// use drq_dse::Objectives;
/// use drq_testkit::reference::naive_pareto_front;
///
/// let o = |acc: f64, lat: u64, e: f64| Objectives {
///     accuracy: acc,
///     latency_cycles: lat,
///     energy_pj: e,
/// };
/// // Point 1 dominates point 0; point 2 trades latency for energy.
/// let front = naive_pareto_front(&[o(0.5, 100, 9.0), o(0.5, 90, 9.0), o(0.5, 95, 1.0)]);
/// assert_eq!(front, vec![1, 2]);
/// ```
pub fn naive_pareto_front(points: &[drq_dse::Objectives]) -> Vec<usize> {
    naive_pareto_front_by(points, drq_dse::dominates)
}

/// [`naive_pareto_front`] under an arbitrary dominance relation — the
/// mutation-smoke hook: feeding a deliberately broken comparator (e.g. one
/// whose strict-inequality requirement is flipped) must make the oracle
/// disagree with the real front on tie-heavy inputs.
pub fn naive_pareto_front_by(
    points: &[drq_dse::Objectives],
    dominates: impl Fn(&drq_dse::Objectives, &drq_dse::Objectives) -> bool,
) -> Vec<usize> {
    (0..points.len())
        .filter(|&i| {
            !points
                .iter()
                .enumerate()
                .any(|(j, p)| j != i && dominates(p, &points[i]))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use drq_tensor::{matmul, XorShiftRng};

    #[test]
    fn naive_matmul_bit_matches_kernel_within_one_panel() {
        let mut rng = XorShiftRng::new(11);
        // Big enough to take the blocked path (m*k*n >= 16384), depth <= 256.
        let a = Tensor::from_fn(&[40, 96], |_| rng.next_normal());
        let b = Tensor::from_fn(&[96, 24], |_| rng.next_normal());
        let fast = matmul(&a, &b);
        let slow = matmul_naive(&a, &b);
        for (x, y) in fast.as_slice().iter().zip(slow.as_slice()) {
            assert_eq!(x.to_bits(), y.to_bits(), "{x} vs {y}");
        }
    }

    #[test]
    fn naive_conv_bit_matches_forward() {
        let mut conv = Conv2d::new(3, 4, 3, 2, 1, 7);
        let mut rng = XorShiftRng::new(8);
        let x = Tensor::from_fn(&[2, 3, 9, 7], |_| rng.next_normal());
        let fast = conv.forward(&x, false);
        let slow = conv2d_naive(&conv, &x);
        assert_eq!(fast.shape(), slow.shape());
        for (a, b) in fast.as_slice().iter().zip(slow.as_slice()) {
            assert_eq!(a.to_bits(), b.to_bits(), "{a} vs {b}");
        }
    }

    #[test]
    fn integer_oracle_views_are_consistent() {
        let mut rng = XorShiftRng::new(5);
        let a = Tensor::from_fn(&[7, 300], |_| (rng.next_u64() & 0xff) as u8 as i8);
        let b = Tensor::from_fn(&[300, 9], |_| (rng.next_u64() & 0xff) as u8 as i8);
        let exact = int_matmul_exact(&a, &b);
        let wrap = int_matmul_wrapping(&a, &b);
        let sat = int_matmul_saturating(&a, &b);
        // k = 300 full-range i8 cannot overflow i32, so all three agree.
        for ((e, w), s) in exact.as_slice().iter().zip(wrap.as_slice()).zip(sat.as_slice()) {
            assert_eq!(*e, *w as i64);
            assert_eq!(*w, *s);
        }
        // Force an overflowing sum: the views must now diverge as
        // documented (wrap = exact mod 2^32, sat = clamp).
        let ones = Tensor::from_vec(vec![-128i8; 200_000], &[1, 200_000]).unwrap();
        let col = Tensor::from_vec(vec![-128i8; 200_000], &[200_000, 1]).unwrap();
        let e = int_matmul_exact(&ones, &col).as_slice()[0];
        assert_eq!(e, 200_000 * 16384);
        assert_eq!(int_matmul_wrapping(&ones, &col).as_slice()[0] as i64, e - (1i64 << 32));
        assert_eq!(int_matmul_saturating(&ones, &col).as_slice()[0], i32::MAX);
    }

    #[test]
    fn integer_oracle_agrees_with_in_tree_reference() {
        // Two independently written oracles (this crate's exact-i64
        // truncation and drq-tensor's naive wrapping-i32 loop) must agree
        // bit-for-bit — a cross-check that neither encodes the same bug.
        let mut rng = XorShiftRng::new(6);
        let a = Tensor::from_fn(&[13, 77], |_| (rng.next_u64() & 0xff) as u8 as i8);
        let b = Tensor::from_fn(&[77, 11], |_| (rng.next_u64() & 0xff) as u8 as i8);
        assert_eq!(
            int_matmul_wrapping(&a, &b).as_slice(),
            drq_tensor::int8_matmul_reference(&a, &b).as_slice()
        );
    }

    #[test]
    fn error_bound_holds_on_uniform_masks() {
        use drq_core::{uniform_masks, CoalesceInput, Int8Codes, MixedPrecisionConv};
        let mut conv = Conv2d::new(2, 3, 3, 1, 1, 3);
        let mut rng = XorShiftRng::new(4);
        let x = Tensor::from_fn(&[1, 2, 8, 8], |_| rng.next_normal().max(0.0));
        let y_ref = conv.forward(&x, false);
        let codes = Int8Codes::quantize(&x);
        for sensitive in [true, false] {
            let masks = uniform_masks(x.shape4().unwrap(), sensitive);
            let input = CoalesceInput { codes: &codes, masks: &masks };
            let (y, _) = MixedPrecisionConv::forward(&conv, None, &[input]).remove(0);
            let bounds = mixed_conv_error_bound(&conv, &x, &masks);
            for ((a, b), bound) in y.as_slice().iter().zip(y_ref.as_slice()).zip(&bounds) {
                let err = (*a as f64 - *b as f64).abs();
                assert!(err <= *bound, "err {err} > bound {bound} (sensitive={sensitive})");
            }
        }
    }

    #[test]
    fn analytic_trace_matches_exact_simulator() {
        use crate::exact::SystolicArray;
        let mut rng = XorShiftRng::new(21);
        let weights: Vec<Vec<i32>> = (0..4)
            .map(|_| (0..3).map(|_| rng.next_below(255) as i32 - 127).collect())
            .collect();
        let streams: Vec<Vec<StreamElement>> = (0..4)
            .map(|_| {
                (0..9)
                    .map(|_| {
                        StreamElement::new(
                            rng.next_below(255) as i32 - 127,
                            rng.next_f64() < 0.3,
                        )
                    })
                    .collect()
            })
            .collect();
        let exact = SystolicArray::new(weights.clone()).simulate(&streams);
        let model = systolic_analytic(&weights, &streams);
        assert_eq!(exact.cycles, model.cycles);
        assert_eq!(exact.int8_steps, model.int8_steps);
        assert_eq!(exact.int4_steps, model.int4_steps);
        assert_eq!(exact.stall_pe_cycles, model.stall_pe_cycles);
        assert_eq!(exact.outputs, model.outputs);
    }

    #[test]
    fn analytic_trace_handles_empty_streams() {
        let t = systolic_analytic(&[vec![1], vec![2]], &[Vec::new(), Vec::new()]);
        assert_eq!(t.cycles, 0);
        assert_eq!(t.outputs, vec![Vec::<i64>::new()]);
    }
}
