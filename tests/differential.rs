//! Property-based differential test suite: the production kernels, the
//! mixed-precision datapath, the quantizers, the cycle-accurate simulator,
//! the sensitivity predictor and the simulator's host kernels (feature-map
//! synthesis, batched prediction, the layer cycle model), each diffed
//! against an independent reference oracle from `drq-testkit`.
//!
//! Case count is `DRQ_TESTKIT_CASES` (default 64; CI runs 256). Any failure
//! prints a shrunk counterexample plus a `DRQ_TESTKIT_SEED=…` prefix that
//! replays it exactly — see the report emitted by `TestKit::check`.

use drq::core::{
    CoalesceInput, ConvOpCounts, DrqConfig, MaskMap, MixedPrecisionConv, RegionSize,
    SensitivityPredictor,
};
use drq::models::zoo::{self, InputRes};
use drq::models::FeatureMapSynthesizer;
use drq::quant::{MaxAbsQuantizer, PerChannelQuantizer, QuantParams, Quantizer};
use drq::sim::{LayerCycleModel, LayerCycles};
use drq::tensor::{
    gemm, int4_matmul, int8_matmul, int8_matmul_wide, matmul, parallel, Int4Packed, Rhs, Tensor,
    XorShiftRng,
};
use drq_testkit::cases::{
    ConvCase, GemmCase, IntGemmCase, LayerCycleCase, MixedConvCase, PredictBatchCase,
    PredictorCase, QuantCase, StreamCase, SynthCase,
};
use drq_testkit::exact::SystolicArray;
use drq_testkit::reference::{
    conv2d_backward_naive, conv2d_naive, int_matmul_exact, int_matmul_wrapping, layer_cycles_naive,
    matmul_naive, mixed_conv_error_bound, mixed_conv_naive, predict_image_naive, synthesize_naive,
    systolic_analytic,
};
use drq_testkit::{thread_count_lock, TestKit};

fn kit() -> TestKit {
    TestKit::from_env("differential")
}

/// Bitwise tensor comparison, reporting the first mismatching element.
fn assert_bits_eq(fast: &Tensor<f32>, slow: &Tensor<f32>, what: &str) -> Result<(), String> {
    if fast.shape() != slow.shape() {
        return Err(format!(
            "{what}: shape {:?} vs reference {:?}",
            fast.shape(),
            slow.shape()
        ));
    }
    for (i, (a, b)) in fast.as_slice().iter().zip(slow.as_slice()).zip(0..).map(|(p, i)| (i, p)) {
        if a.to_bits() != b.to_bits() {
            return Err(format!(
                "{what}: element {i}: {a} (0x{:08x}) vs reference {b} (0x{:08x})",
                a.to_bits(),
                b.to_bits()
            ));
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Family 1: blocked/parallel GEMM and im2col conv vs naive references
// ---------------------------------------------------------------------------

#[test]
fn gemm_matches_naive_bitwise_across_thread_counts() {
    let _serial = thread_count_lock();
    kit().check(
        "gemm bitwise vs naive",
        GemmCase::arbitrary,
        GemmCase::shrink,
        |c| {
            let (a, b) = c.operands();
            let want = matmul_naive(&a, &b);
            for threads in [1usize, 2, 0] {
                parallel::set_max_threads(threads);
                let got = matmul(&a, &b);
                assert_bits_eq(&got, &want, &format!("matmul, {threads} threads"))?;
            }
            Ok(())
        },
    );
    parallel::set_max_threads(0);
}

#[test]
fn gemm_deep_k_within_float_tolerance() {
    // Beyond one KC panel the blocked kernel re-associates partial sums, so
    // only a forward-error bound is valid: both results lie within
    // (k + 8)·ε of the exact sum, elementwise against Σ|a·b|.
    kit().check(
        "gemm deep-k tolerance vs naive",
        GemmCase::arbitrary_deep,
        GemmCase::shrink,
        |c| {
            let (a, b) = c.operands();
            let got = matmul(&a, &b);
            let want = matmul_naive(&a, &b);
            let (av, bv) = (a.as_slice(), b.as_slice());
            let eps = f32::EPSILON as f64;
            for i in 0..c.m {
                for j in 0..c.n {
                    let sum_abs: f64 = (0..c.k)
                        .map(|kk| (av[i * c.k + kk] as f64 * bv[kk * c.n + j] as f64).abs())
                        .sum();
                    let bound = 2.0 * (c.k as f64 + 8.0) * eps * sum_abs + 1e-12;
                    let idx = i * c.n + j;
                    let err = (got.as_slice()[idx] as f64 - want.as_slice()[idx] as f64).abs();
                    if err > bound {
                        return Err(format!(
                            "({i},{j}): |{} - {}| = {err:.3e} > bound {bound:.3e}",
                            got.as_slice()[idx],
                            want.as_slice()[idx]
                        ));
                    }
                }
            }
            Ok(())
        },
    );
}

#[test]
fn conv_forward_matches_naive_bitwise_across_thread_counts() {
    let _serial = thread_count_lock();
    kit().check(
        "conv bitwise vs naive",
        ConvCase::arbitrary,
        ConvCase::shrink,
        |c| {
            let (mut conv, x) = c.build();
            let want = conv2d_naive(&conv, &x);
            for threads in [1usize, 2, 0] {
                parallel::set_max_threads(threads);
                let got = conv.forward(&x, false);
                assert_bits_eq(&got, &want, &format!("conv forward, {threads} threads"))?;
            }
            Ok(())
        },
    );
    parallel::set_max_threads(0);
}

#[test]
fn conv_backward_matches_naive_bitwise_across_thread_counts() {
    // Input, weight and bias gradients of a fresh layer, bit for bit, at
    // 1, 2 and all threads: batches of 1 to 3 images (2 threads do not
    // divide 3), groups, strides up to 3, padding and 1x1 kernels, with
    // both GEMMs of the backward pass in their small and blocked kernels.
    let _serial = thread_count_lock();
    kit().check(
        "conv backward bitwise vs naive",
        ConvCase::arbitrary_backward,
        ConvCase::shrink_backward,
        |c| {
            let (mut conv, x, gy) = c.build_backward();
            let (want_gx, want_gw, want_gb) = conv2d_backward_naive(&conv, &x, &gy);
            for threads in [1usize, 2, 0] {
                parallel::set_max_threads(threads);
                conv.zero_grad();
                conv.forward(&x, true);
                let gx = conv.backward(&gy);
                let mut grads = Vec::new();
                conv.visit_params(&mut |_, g| grads.push(g.clone()));
                assert_bits_eq(&gx, &want_gx, &format!("grad input, {threads} threads"))?;
                assert_bits_eq(&grads[0], &want_gw, &format!("grad weight, {threads} threads"))?;
                assert_bits_eq(&grads[1], &want_gb, &format!("grad bias, {threads} threads"))?;
            }
            Ok(())
        },
    );
    parallel::set_max_threads(0);
}

#[test]
fn f32_gemm_transposed_rhs_matches_matmul_bitwise_at_every_depth() {
    // The transposed-operand GEMM against `matmul` on the materialized
    // transpose, into a destination that starts as NaN: shapes cross the
    // small-product cutoff, the KC panel depth, the 8- and 4-row tiles and
    // the 16-wide strips, where no naive oracle is bit-exact.
    let _serial = thread_count_lock();
    kit().check(
        "f32 gemm transposed rhs vs matmul",
        GemmCase::arbitrary_short,
        GemmCase::shrink,
        |c| {
            let (a, b) = c.operands();
            let bt = Tensor::from_fn(&[c.n, c.k], |i| b.as_slice()[(i % c.k) * c.n + i / c.k]);
            for threads in [1usize, 2, 0] {
                parallel::set_max_threads(threads);
                let want = matmul(&a, &b);
                let mut got = Tensor::<f32>::full(&[c.m, c.n], f32::NAN);
                let (av, btv) = (a.as_slice(), bt.as_slice());
                gemm(c.m, c.k, c.n, av, btv, Rhs::Transposed, got.as_mut_slice());
                assert_bits_eq(&got, &want, &format!("transposed gemm, {threads} threads"))?;
            }
            Ok(())
        },
    );
    parallel::set_max_threads(0);
}

#[test]
fn zero_sized_padded_inputs_are_shape_errors_not_panics() {
    // Regression for a latent im2col edge case: a zero-height/width input
    // with enough padding to "fit" the kernel used to pass the output-dim
    // formula (`(0 + 2·pad − k)/s + 1`) and then panic in the im2col
    // gather, which indexes `input − 1`. The shape layer now rejects the
    // empty extent up front, for every pad/stride combination.
    use drq::tensor::{try_conv_out_dim, Im2ColLayout, Shape4};
    for pad in 0..3usize {
        for stride in 1..3usize {
            assert!(
                try_conv_out_dim(0, 1, stride, pad).is_err(),
                "zero input accepted at pad {pad} stride {stride}"
            );
            assert!(Im2ColLayout::try_new(Shape4::new(1, 1, 0, 4), 1, 1, stride, pad).is_err());
            assert!(Im2ColLayout::try_new(Shape4::new(1, 1, 4, 0), 1, 1, stride, pad).is_err());
        }
    }
    // The error is typed and descriptive, not a generic unwrap message.
    let err = try_conv_out_dim(0, 1, 1, 1).unwrap_err();
    assert!(err.to_string().contains("input extent must be positive"), "{err}");
    // Non-degenerate geometries still pass through untouched.
    assert_eq!(try_conv_out_dim(32, 3, 1, 1), Ok(32));
}

// ---------------------------------------------------------------------------
// Family 1b: integer GEMM kernels vs the exact-i64 oracle
// ---------------------------------------------------------------------------

/// Bitwise `i32` tensor comparison.
fn assert_i32_eq(fast: &Tensor<i32>, slow: &Tensor<i32>, what: &str) -> Result<(), String> {
    if fast.shape() != slow.shape() {
        return Err(format!("{what}: shape {:?} vs reference {:?}", fast.shape(), slow.shape()));
    }
    for (i, (a, b)) in fast.as_slice().iter().zip(slow.as_slice()).enumerate() {
        if a != b {
            return Err(format!("{what}: element {i}: {a} vs reference {b}"));
        }
    }
    Ok(())
}

#[test]
fn int8_gemm_matches_wrapping_oracle_bitwise_across_thread_counts() {
    // Unlike the f32 family there is no depth cap and no tolerance tier:
    // wrapping-i32 accumulation is order-independent, so the blocked,
    // SIMD and threaded kernels must equal the truncated exact sum
    // bit-for-bit at every k.
    let _serial = thread_count_lock();
    kit().check(
        "int8 gemm bitwise vs exact oracle",
        IntGemmCase::arbitrary,
        IntGemmCase::shrink,
        |c| {
            let (a, b) = c.operands();
            let want = int_matmul_wrapping(&a, &b);
            for threads in [1usize, 2, 0] {
                parallel::set_max_threads(threads);
                let got = int8_matmul(&a, &b);
                assert_i32_eq(&got, &want, &format!("int8_matmul, {threads} threads"))?;
            }
            // The i64 wide path must carry the untruncated exact sum.
            let wide = int8_matmul_wide(&a, &b);
            for (i, (g, w)) in
                wide.as_slice().iter().zip(int_matmul_exact(&a, &b).as_slice()).enumerate()
            {
                if g != w {
                    return Err(format!("int8_matmul_wide: element {i}: {g} vs exact {w}"));
                }
            }
            Ok(())
        },
    );
    parallel::set_max_threads(0);
}

#[test]
fn int8_gemm_wraps_exactly_at_overflow_depths() {
    // Skinny-but-deep extreme operands genuinely overflow i32; the tier's
    // contract is wrap-mod-2^32 (never saturate), matching the oracle's
    // truncated view, while the wide path keeps the exact value.
    kit().check(
        "int8 gemm wrap semantics past i32",
        IntGemmCase::arbitrary_wrapping,
        IntGemmCase::shrink,
        |c| {
            let (a, b) = c.operands();
            let exact = int_matmul_exact(&a, &b);
            assert_i32_eq(&int8_matmul(&a, &b), &exact.map(|v| v as i32), "wrap view")?;
            if int8_matmul_wide(&a, &b).as_slice() != exact.as_slice() {
                return Err("wide path lost the exact sum".into());
            }
            Ok(())
        },
    );
}

#[test]
fn int4_gemm_matches_oracle_through_nibble_packing() {
    // INT4-range left operands survive the nibble pack/unpack round trip
    // and multiply exactly like their i8 embedding.
    let _serial = thread_count_lock();
    kit().check(
        "int4 gemm bitwise vs exact oracle",
        IntGemmCase::arbitrary,
        IntGemmCase::shrink,
        |c| {
            let (a, b) = c.operands();
            // Fold any operand into the INT4 code range the packer accepts
            // (arithmetic >>4 is the mixed conv's own INT4 lowering).
            let a4 = a.map(|v| v >> 4);
            let packed = Int4Packed::pack(&a4);
            let want = int_matmul_wrapping(&a4, &b);
            for threads in [1usize, 2, 0] {
                parallel::set_max_threads(threads);
                let got = int4_matmul(&packed, &b);
                assert_i32_eq(&got, &want, &format!("int4_matmul, {threads} threads"))?;
            }
            Ok(())
        },
    );
    parallel::set_max_threads(0);
}

// ---------------------------------------------------------------------------
// Family 2: mixed-precision conv vs fp32 under the paper's error bound, and
// vs the scalar tap-loop oracle bit for bit
// ---------------------------------------------------------------------------

/// The production mixed conv on a single input (a group of one).
fn mixed_conv(
    conv: &drq::nn::Conv2d,
    x: &Tensor<f32>,
    masks: &[Vec<MaskMap>],
) -> (Tensor<f32>, ConvOpCounts) {
    MixedPrecisionConv::forward(conv, None, &[CoalesceInput { x, masks }]).remove(0)
}

/// A mixed-conv implementation on one input: production or oracle.
type MixedConvFn = fn(&drq::nn::Conv2d, &Tensor<f32>, &[Vec<MaskMap>]) -> (Tensor<f32>, ConvOpCounts);

/// The paper's INT4/INT8 error bound against the fp32 reference.
fn check_error_bound(c: &MixedConvCase, run: MixedConvFn) -> Result<(), String> {
    let (mut conv, x) = c.conv.build();
    let masks = c.build_masks(c.conv.input_shape());
    let y_ref = conv.forward(&x, false);
    let (y, _) = run(&conv, &x, &masks);
    let bounds = mixed_conv_error_bound(&conv, &x, &masks);
    for (i, ((a, b), bound)) in y.as_slice().iter().zip(y_ref.as_slice()).zip(&bounds).enumerate() {
        let err = (*a as f64 - *b as f64).abs();
        if err > *bound {
            return Err(format!("output {i}: |{a} - {b}| = {err:.3e} > bound {bound:.3e}"));
        }
    }
    Ok(())
}

/// Every tap (padding included) counted in exactly one precision class,
/// and no INT8 MAC under an all-insensitive mask.
fn check_op_counts(c: &MixedConvCase, run: MixedConvFn) -> Result<(), String> {
    let (conv, x) = c.conv.build();
    let s = c.conv.input_shape();
    let (_, counts) = run(&conv, &x, &c.build_masks(s));
    let macs = conv.mac_count(s);
    if counts.total() != macs {
        return Err(format!(
            "int4 {} + int8 {} = {} != mac_count {macs}",
            counts.int4_macs,
            counts.int8_macs,
            counts.total()
        ));
    }
    let (_, quiet) = run(&conv, &x, &drq::core::uniform_masks(s, false));
    if quiet.int8_macs != 0 {
        return Err(format!("all-insensitive masks ran {} INT8 MACs", quiet.int8_macs));
    }
    Ok(())
}

#[test]
fn mixed_conv_error_within_paper_bound() {
    kit().check(
        "mixed conv error bound",
        MixedConvCase::arbitrary,
        MixedConvCase::shrink,
        |c| check_error_bound(c, mixed_conv),
    );
}

#[test]
fn mixed_conv_op_counts_are_exhaustive() {
    kit().check(
        "mixed conv op counts",
        MixedConvCase::arbitrary,
        MixedConvCase::shrink,
        |c| check_op_counts(c, mixed_conv),
    );
}

#[test]
fn mixed_conv_oracle_honors_paper_bound_and_op_count_claims() {
    // The tap-loop oracle is audited against the Section III claims on its
    // own, so a bug it shared with the production path could not hide
    // behind their bitwise agreement.
    kit().check(
        "mixed conv oracle paper bound and op counts",
        MixedConvCase::arbitrary,
        MixedConvCase::shrink,
        |c| {
            check_error_bound(c, mixed_conv_naive)?;
            check_op_counts(c, mixed_conv_naive)
        },
    );
}

/// Runs `f` at 1, 2 and the default thread count.
fn at_thread_counts(mut f: impl FnMut(usize) -> Result<(), String>) -> Result<(), String> {
    for threads in [1usize, 2, 0] {
        parallel::set_max_threads(threads);
        f(threads)?;
    }
    Ok(())
}

/// Bitwise output and exact op-count agreement with the oracle.
fn assert_matches_oracle(
    got: &(Tensor<f32>, ConvOpCounts),
    want: &(Tensor<f32>, ConvOpCounts),
    what: &str,
) -> Result<(), String> {
    assert_bits_eq(&got.0, &want.0, what)?;
    if got.1 != want.1 {
        return Err(format!("{what}: op counts {:?} vs oracle {:?}", got.1, want.1));
    }
    Ok(())
}

#[test]
fn mixed_conv_matches_oracle_bitwise_across_thread_counts() {
    // The integer lowering partitions the oracle's tap-by-tap sum exactly
    // and dequantizes with the same scale product, so output bits and the
    // INT4/INT8 split must agree at every thread count.
    let _serial = thread_count_lock();
    kit().check(
        "mixed conv == tap-loop oracle",
        MixedConvCase::arbitrary,
        MixedConvCase::shrink,
        |c| {
            let (conv, x) = c.conv.build();
            let masks = c.build_masks(c.conv.input_shape());
            let want = mixed_conv_naive(&conv, &x, &masks);
            at_thread_counts(|threads| {
                let got = mixed_conv(&conv, &x, &masks);
                assert_matches_oracle(&got, &want, &format!("{threads} threads"))
            })
        },
    );
    parallel::set_max_threads(0);
}

#[test]
fn mixed_conv_group_members_match_their_own_oracle() {
    // A group of 3-4 requests sharing one layer, with different batch
    // sizes and activation scales: activation quantization is fit per
    // request, so each member must equal the oracle run on it alone. A
    // prepared plan and an unplanned call give the same bits.
    let _serial = thread_count_lock();
    kit().check(
        "mixed conv group members == per-member oracle",
        MixedConvCase::arbitrary,
        MixedConvCase::shrink,
        |c| {
            let (conv, _) = c.conv.build();
            let k = 3 + (c.mask_seed % 2) as usize;
            let members: Vec<MixedConvCase> = (0..k)
                .map(|i| {
                    let conv_case = ConvCase {
                        batch: 1 + (c.conv.batch + i) % 3,
                        data_seed: c.conv.data_seed.wrapping_add(i as u64),
                        ..c.conv
                    };
                    MixedConvCase { conv: conv_case, mask_seed: c.mask_seed ^ i as u64, ..*c }
                })
                .collect();
            let xs: Vec<Tensor<f32>> = members
                .iter()
                .enumerate()
                .map(|(i, m)| m.conv.build().1.map(|v| v * (1.0 + 7.5 * i as f32)))
                .collect();
            let masks: Vec<Vec<Vec<MaskMap>>> =
                members.iter().map(|m| m.build_masks(m.conv.input_shape())).collect();
            let inputs: Vec<CoalesceInput<'_>> =
                xs.iter().zip(&masks).map(|(x, masks)| CoalesceInput { x, masks }).collect();
            let want: Vec<_> = inputs.iter().map(|i| mixed_conv_naive(&conv, i.x, i.masks)).collect();
            let plan = drq::core::ConvPlan::prepare(&conv);
            at_thread_counts(|threads| {
                for (plan, label) in [(None, "unplanned"), (Some(&plan), "planned")] {
                    let got = MixedPrecisionConv::forward(&conv, plan, &inputs);
                    if got.len() != k {
                        return Err(format!("{} outputs for {k} members", got.len()));
                    }
                    for (j, (g, w)) in got.iter().zip(&want).enumerate() {
                        let what = format!("member {j} of {k}, {label}, {threads} threads");
                        assert_matches_oracle(g, w, &what)?;
                    }
                }
                Ok(())
            })
        },
    );
    parallel::set_max_threads(0);
}

#[test]
fn wide_channel_conv_matches_oracle_bitwise_across_thread_counts() {
    // `MixedConvCase::arbitrary` draws 1-3 channels per group; these cases
    // draw up to 40 in and 20 out (odd counts included), so reduction
    // depths cross the kernel's 256-deep panels, full 4-row tiles meet
    // grouped and stride-3 layers, and rows cross a 32-lane strip.
    let _serial = thread_count_lock();
    kit().check(
        "wide channel groups == tap-loop oracle",
        MixedConvCase::arbitrary_wide,
        MixedConvCase::shrink_wide,
        |c| {
            let (conv, x) = c.conv.build();
            let masks = c.build_masks(c.conv.input_shape());
            let want = mixed_conv_naive(&conv, &x, &masks);
            at_thread_counts(|threads| {
                let got = mixed_conv(&conv, &x, &masks);
                assert_matches_oracle(&got, &want, &format!("{threads} threads"))
            })
        },
    );
    parallel::set_max_threads(0);
}

#[test]
fn mixed_conv_i64_path_matches_oracle_past_the_i32_proof() {
    // A 1x1 conv over 196,608 input channels on a 2x3 map: past the INT8
    // proof's 131,071-deep bound, so both products accumulate in i64.
    // Image 0 is constant and output channel 0's weights are all equal, so
    // every code there is 127 and an all-sensitive sum (196,608·127²)
    // overflows i32: a wrapping path could not match the oracle.
    let depth = 3 << 16;
    assert_eq!(
        drq::quant::analyze_gemm(drq::quant::Precision::Int8, drq::quant::Precision::Int8, depth).width,
        drq::quant::AccumWidth::I64
    );
    let mut conv = drq::nn::Conv2d::new(depth, 2, 1, 1, 0, 61);
    conv.weight_mut().as_mut_slice()[..depth].fill(0.5);
    let mut rng = XorShiftRng::new(62);
    let x = Tensor::from_fn(&[2, depth, 2, 3], |i| if i < depth * 6 { 1.0 } else { rng.next_f32() });
    let s = x.shape4().unwrap();
    let grid = drq::core::RegionGrid::new(2, 3, RegionSize::new(1, 1));
    let alternating: Vec<Vec<MaskMap>> = (0..2)
        .map(|n| {
            (0..depth)
                .map(|c| MaskMap::from_bits(grid, (0..6).map(|p| (p + c + n) % 3 == 0).collect()))
                .collect()
        })
        .collect();
    for (label, masks) in [
        ("all sensitive", drq::core::uniform_masks(s, true)),
        ("all insensitive", drq::core::uniform_masks(s, false)),
        ("mixed", alternating),
    ] {
        let want = mixed_conv_naive(&conv, &x, &masks);
        let got = mixed_conv(&conv, &x, &masks);
        assert_matches_oracle(&got, &want, label).unwrap_or_else(|e| panic!("{e}"));
    }
}

/// A post-ReLU-like activation with brighter blobs, so that 4×4 region
/// means land on both sides of the predictor threshold.
fn blobby_activation(shape: [usize; 4], seed: u64) -> Tensor<f32> {
    let mut rng = XorShiftRng::new(seed);
    let [_, _, h, w] = shape;
    Tensor::from_fn(&shape, |i| {
        let (y, x) = ((i / w) % h, i % w);
        let gain = if (y / 6 + x / 5) % 3 == 0 { 4.0 } else { 1.0 };
        (rng.next_normal() * gain).max(0.0)
    })
}

#[test]
fn mixed_conv_matches_oracle_at_stand_in_layer_shapes() {
    // `ConvCase` draws maps of at most about 12×12, so the wide stride-1
    // slice copies meet the oracle at real widths only here: the
    // stand-ins' own conv geometries, with predictor masks over 4×4
    // regions. The last case is a batch of 3 whose middle image is
    // all-insensitive, which skips that item's INT8 GEMM.
    let _serial = thread_count_lock();
    let predictor = SensitivityPredictor::new(RegionSize::new(4, 4), 8.0);
    // (name, in_c, out_c, k, stride, pad, input side)
    let layers = [
        ("ResNet-8 stem 3->16 3x3 s1 p1", 3, 16, 3, 1, 1, 32),
        ("ResNet-8 block 16->16 3x3 s1 p1", 16, 16, 3, 1, 1, 32),
        ("ResNet-8 down 16->32 3x3 s2 p1", 16, 32, 3, 2, 1, 32),
        ("ResNet-8 shortcut 16->32 1x1 s2 p0", 16, 32, 1, 2, 0, 32),
        ("LeNet-5 conv1 1->6 5x5 p2 at 16x16", 1, 6, 5, 1, 2, 16),
        ("LeNet-5 conv1 1->6 5x5 p2 at 28x28", 1, 6, 5, 1, 2, 28),
    ];
    let check = |name: &str, conv: &drq::nn::Conv2d, x: &Tensor<f32>, masks: &[Vec<MaskMap>]| {
        let want = mixed_conv_naive(conv, x, masks);
        assert!(
            want.1.int8_macs > 0 && want.1.int4_macs > 0,
            "{name}: masks are degenerate ({:?})",
            want.1
        );
        at_thread_counts(|threads| {
            let got = mixed_conv(conv, x, masks);
            assert_matches_oracle(&got, &want, &format!("{name}, {threads} threads"))
        })
        .unwrap_or_else(|e| panic!("{e}"));
    };
    for (&(name, ic, oc, k, stride, pad, hw), i) in layers.iter().zip(0u64..) {
        let conv = drq::nn::Conv2d::new(ic, oc, k, stride, pad, 100 + i);
        let x = blobby_activation([1, ic, hw, hw], 7 + i);
        check(name, &conv, &x, &predictor.predict_batch(&x));
    }
    let conv = drq::nn::Conv2d::new(16, 16, 3, 1, 1, 200);
    let x = blobby_activation([3, 16, 32, 32], 201);
    let mut masks = predictor.predict_batch(&x);
    masks[1] = drq::core::uniform_masks(drq::tensor::Shape4::new(1, 16, 32, 32), false).remove(0);
    check("batch 3, image 1 all-insensitive", &conv, &x, &masks);
    parallel::set_max_threads(0);
}

// ---------------------------------------------------------------------------
// Family 3: quantize→dequantize round trips and Quantizer-trait invariants
// ---------------------------------------------------------------------------

#[test]
fn quant_round_trip_error_bounded_by_half_step() {
    kit().check(
        "round trip within half step",
        QuantCase::arbitrary,
        QuantCase::shrink,
        |c| {
            let values = c.values();
            let p = QuantParams::fit(&values, c.precision);
            let s = p.scale() as f64;
            // Half a step, plus fp32 slack on the divide/round/multiply.
            let q_max = values
                .iter()
                .fold(0.0f64, |m, v| m.max((*v as f64 / s).abs()));
            let bound = 0.5 * s + 4.0 * f32::EPSILON as f64 * s * (q_max + 1.0);
            for &v in &values {
                let rt = p.fake_quantize_value(v) as f64;
                let err = (rt - v as f64).abs();
                if err > bound {
                    return Err(format!(
                        "value {v}: round trip {rt} err {err:.3e} > {bound:.3e} (scale {s:.3e})"
                    ));
                }
            }
            Ok(())
        },
    );
}

#[test]
fn quant_codes_are_monotone_in_value() {
    kit().check(
        "codes monotone",
        QuantCase::arbitrary,
        QuantCase::shrink,
        |c| {
            let mut values = c.values();
            values.sort_by(f32::total_cmp);
            let p = QuantParams::fit(&values, c.precision);
            let codes: Vec<i32> = values.iter().map(|&v| p.quantize_value(v)).collect();
            for (w, pair) in codes.windows(2).enumerate() {
                if pair[0] > pair[1] {
                    return Err(format!(
                        "codes not monotone: q({}) = {} > q({}) = {}",
                        values[w],
                        pair[0],
                        values[w + 1],
                        pair[1]
                    ));
                }
            }
            Ok(())
        },
    );
}

#[test]
fn quant_zero_point_is_exact() {
    kit().check(
        "zero maps to code 0 and back",
        QuantCase::arbitrary,
        QuantCase::shrink,
        |c| {
            let p = QuantParams::fit(&c.values(), c.precision);
            if p.quantize_value(0.0) != 0 {
                return Err(format!("quantize(0.0) = {}", p.quantize_value(0.0)));
            }
            if p.dequantize_value(0) != 0.0 {
                return Err(format!("dequantize(0) = {}", p.dequantize_value(0)));
            }
            Ok(())
        },
    );
}

#[test]
fn quant_fit_codes_are_sign_antisymmetric() {
    // Max-abs calibration keeps every in-population |code| ≤ q_max, so
    // negation must map codes to their exact negatives (round() is
    // half-away-from-zero, hence odd).
    kit().check(
        "codes antisymmetric under negation",
        QuantCase::arbitrary,
        QuantCase::shrink,
        |c| {
            let values = c.values();
            let p = QuantParams::fit(&values, c.precision);
            for &v in &values {
                let (q, qn) = (p.quantize_value(v), p.quantize_value(-v));
                if qn != -q {
                    return Err(format!("q({v}) = {q} but q({}) = {qn}", -v));
                }
            }
            Ok(())
        },
    );
}

#[test]
fn per_channel_agrees_with_per_tensor_on_uniform_channels() {
    // When every output channel holds identical data, per-channel max-abs
    // calibration degenerates to per-tensor calibration: codes and decoded
    // floats must agree bitwise.
    kit().check(
        "per-channel == per-tensor on uniform channels",
        QuantCase::arbitrary,
        QuantCase::shrink,
        |c| {
            let mut channel = c.values();
            if channel.is_empty() {
                channel.push(0.0);
            }
            let out_c = 3;
            let data: Vec<f32> =
                std::iter::repeat(channel.clone()).take(out_c).flatten().collect();
            let t = Tensor::from_vec(data, &[out_c, channel.len(), 1, 1])
                .expect("shape covers data");
            let per_channel = PerChannelQuantizer::new(c.precision);
            let per_tensor = MaxAbsQuantizer::new(c.precision);
            let (qc, qt) = (per_channel.quantize(&t), per_tensor.quantize(&t));
            if qc.as_slice() != qt.as_slice() {
                return Err("codes disagree on uniform channels".into());
            }
            assert_bits_eq(
                &per_channel.dequantize(&qc, &t),
                &per_tensor.dequantize(&qt, &t),
                "dequantized",
            )
        },
    );
}

// ---------------------------------------------------------------------------
// Family 4: cycle-accurate systolic simulator vs closed-form model
// ---------------------------------------------------------------------------

#[test]
fn systolic_simulator_matches_closed_form_model() {
    // StreamCase patterns span stall-free (AllInsensitive), uniformly slow
    // (AllSensitive) and pathological-stall (SingleRowAlways: 3·(rows−1)
    // stall PE-cycles per step per column) workloads.
    kit().check(
        "systolic exact vs analytic",
        StreamCase::arbitrary,
        StreamCase::shrink,
        |c| {
            let (weights, streams) = c.build();
            let exact = SystolicArray::new(weights.clone()).simulate(&streams);
            let model = systolic_analytic(&weights, &streams);
            let mismatches = [
                ("cycles", exact.cycles, model.cycles),
                ("int8_steps", exact.int8_steps, model.int8_steps),
                ("int4_steps", exact.int4_steps, model.int4_steps),
                ("stall_pe_cycles", exact.stall_pe_cycles, model.stall_pe_cycles),
            ];
            for (field, got, want) in mismatches {
                if got != want {
                    return Err(format!("{field}: simulator {got} vs model {want}"));
                }
            }
            if exact.outputs != model.outputs {
                return Err("per-column outputs disagree with the analytic dot products".into());
            }
            Ok(())
        },
    );
}

// ---------------------------------------------------------------------------
// Family 5: metamorphic properties of the sensitivity predictor
// ---------------------------------------------------------------------------

fn mask_bits(masks: &[drq::core::MaskMap]) -> Vec<Vec<bool>> {
    masks.iter().map(|m| m.bits().to_vec()).collect()
}

#[test]
fn predictor_masks_invariant_under_pow2_scaling() {
    // Scaling the feature map by a power of two scales the max-abs INT8
    // grid identically, so every code — and therefore every region mask —
    // is bit-for-bit unchanged.
    kit().check(
        "mask invariant under ×4 scaling",
        PredictorCase::arbitrary,
        PredictorCase::shrink,
        |c| {
            let x = c.build();
            let scaled = Tensor::from_vec(
                x.as_slice().iter().map(|v| v * 4.0).collect(),
                x.shape(),
            )
            .expect("same shape");
            let p = SensitivityPredictor::new(c.region(), c.threshold);
            if mask_bits(&p.predict(&x)) != mask_bits(&p.predict(&scaled)) {
                return Err("×4 scaling changed the region mask".into());
            }
            Ok(())
        },
    );
}

#[test]
fn predictor_masks_equivariant_under_channel_permutation() {
    kit().check(
        "mask equivariant under channel reversal",
        PredictorCase::arbitrary,
        PredictorCase::shrink,
        |c| {
            let x = c.build();
            let xs = x.as_slice();
            let plane = c.h * c.w;
            let reversed = Tensor::from_vec(
                (0..c.c * plane)
                    .map(|i| xs[(c.c - 1 - i / plane) * plane + i % plane])
                    .collect(),
                x.shape(),
            )
            .expect("same shape");
            let p = SensitivityPredictor::new(c.region(), c.threshold);
            let mut want = mask_bits(&p.predict(&x));
            want.reverse();
            if mask_bits(&p.predict(&reversed)) != want {
                return Err("channel reversal did not permute the masks".into());
            }
            Ok(())
        },
    );
}

#[test]
fn predictor_masks_shift_with_zero_row_padding() {
    // Prepending one region-height of zero rows must shift every mask row
    // down by exactly one grid row and mark the new top row insensitive
    // (zero regions have mean code 0, never above a non-negative
    // threshold). Zeros cannot change the max-abs calibration.
    kit().check(
        "mask shift-equivariant under zero-row padding",
        PredictorCase::arbitrary,
        PredictorCase::shrink,
        |c| {
            let x = c.build();
            let xs = x.as_slice();
            let (h2, plane, plane2) = (c.h + c.region_x, c.h * c.w, (c.h + c.region_x) * c.w);
            let embedded = Tensor::from_vec(
                (0..c.c * plane2)
                    .map(|i| {
                        let (ch, rest) = (i / plane2, i % plane2);
                        let (iy, ix) = (rest / c.w, rest % c.w);
                        if iy < c.region_x {
                            0.0
                        } else {
                            xs[ch * plane + (iy - c.region_x) * c.w + ix]
                        }
                    })
                    .collect(),
                &[1, c.c, h2, c.w],
            )
            .expect("shape covers data");
            let p = SensitivityPredictor::new(c.region(), c.threshold);
            let grid_cols = c.w.div_ceil(c.region_y);
            for (ch, (orig, shifted)) in
                p.predict(&x).iter().zip(p.predict(&embedded).iter()).enumerate()
            {
                let bits = shifted.bits();
                if bits[..grid_cols].iter().any(|&b| b) {
                    return Err(format!("channel {ch}: zero-padded top row marked sensitive"));
                }
                if &bits[grid_cols..] != orig.bits() {
                    return Err(format!("channel {ch}: mask body did not shift by one row"));
                }
            }
            Ok(())
        },
    );
}

#[test]
fn predictor_masks_monotone_in_threshold() {
    kit().check(
        "mask monotone in threshold",
        PredictorCase::arbitrary,
        PredictorCase::shrink,
        |c| {
            let x = c.build();
            let lo = SensitivityPredictor::new(c.region(), c.threshold);
            let hi = lo.with_threshold(c.threshold * 2.0 + 1.0);
            for (ch, (m_lo, m_hi)) in
                lo.predict(&x).iter().zip(hi.predict(&x).iter()).enumerate()
            {
                for (r, (&b_lo, &b_hi)) in
                    m_lo.bits().iter().zip(m_hi.bits()).enumerate()
                {
                    if b_hi && !b_lo {
                        return Err(format!(
                            "channel {ch} region {r}: sensitive at the higher threshold only"
                        ));
                    }
                }
            }
            Ok(())
        },
    );
}

// ---------------------------------------------------------------------------
// Family 6: simulator host kernels (feature-map synthesis, the batched
// predictor, the layer cycle model) vs their pixel-by-pixel oracles
// ---------------------------------------------------------------------------

#[test]
fn sim_host_synthesis_matches_oracle_bitwise() {
    kit().check(
        "synthesis bitwise vs per-pixel oracle",
        SynthCase::arbitrary,
        SynthCase::shrink,
        |c| {
            let synth = c.synthesizer();
            let (mut fast_rng, mut slow_rng) = (XorShiftRng::new(c.seed), XorShiftRng::new(c.seed));
            let fast = synth.synthesize(c.c, c.h, c.w, &mut fast_rng);
            let slow = synthesize_naive(&synth, c.c, c.h, c.w, &mut slow_rng);
            assert_bits_eq(&fast, &slow, "synthesize")?;
            if fast_rng.next_u64() != slow_rng.next_u64() {
                return Err("synthesis left the RNG stream at a different position".into());
            }
            Ok(())
        },
    );
}

/// An RNG whose second `next_f64` draw is `u2` (its top 53 bits) and whose
/// first draw is whatever the xorshift inverse implies; `salt` fills the
/// 11 output bits `next_f64` discards, varying the first draw.
fn rng_with_second_draw(u2: f64, salt: u64) -> XorShiftRng {
    const MUL: u64 = 0x2545_F491_4F6C_DD1D;
    // Inverse of MUL modulo 2^64 by Newton iteration.
    let mut inv = MUL;
    for _ in 0..6 {
        inv = inv.wrapping_mul(2u64.wrapping_sub(MUL.wrapping_mul(inv)));
    }
    let unshift_left = |y: u64, k: u32| (0..64 / k).fold(y, |x, _| y ^ (x << k));
    let unshift_right = |y: u64, k: u32| (0..64 / k).fold(y, |x, _| y ^ (x >> k));
    // Undoes `x ^= x << 13; x ^= x >> 7; x ^= x << 17`.
    let unstep = |x: u64| unshift_left(unshift_right(unshift_left(x, 17), 7), 13);
    let out = ((u2 * (1u64 << 53) as f64) as u64) << 11 | (salt & 0x7ff);
    let second_state = out.wrapping_mul(inv);
    let seed = unstep(unstep(second_state));
    assert_ne!(seed, 0, "the crafted seed hit the zero remap");
    let mut rng = XorShiftRng::new(seed);
    let _ = rng.next_f64();
    assert_eq!(rng.next_f64(), u2, "crafted stream does not draw u2 second");
    XorShiftRng::new(seed)
}

#[test]
fn sim_host_half_normal_matches_next_normal_at_quarter_turns() {
    // `fill_half_normal` returns 0 without any transcendental call for
    // u2 in (0.2501, 0.7499) and recomputes cosines near zero with the
    // scalar formula; pin it against `next_normal().max(0.0)` on a dense
    // grid straddling both ends of that interval, including the exact
    // boundaries and their neighbours.
    let mut u2s: Vec<f64> = Vec::new();
    for (lo, hi) in [(0.2499f64, 0.2501f64), (0.7499, 0.7501)] {
        u2s.extend((0..=2000).map(|i| lo + (hi - lo) * i as f64 / 2000.0));
    }
    for edge in [0.25f64, 0.75, 0.2501, 0.7499] {
        u2s.extend([f64::from_bits(edge.to_bits() - 1), edge, f64::from_bits(edge.to_bits() + 1)]);
    }
    for (i, &u2) in u2s.iter().enumerate() {
        // Truncate to the 53-bit grid `next_f64` can produce.
        let u2 = ((u2 * (1u64 << 53) as f64) as u64) as f64 / (1u64 << 53) as f64;
        for salt in [i as u64, 0x7ff - i as u64 % 0x800] {
            let mut fast = rng_with_second_draw(u2, salt);
            let mut slow = rng_with_second_draw(u2, salt);
            let mut got = [0.0f32];
            fast.fill_half_normal(&mut got);
            let (got, want) = (got[0], slow.next_normal().max(0.0));
            assert_eq!(got.to_bits(), want.to_bits(), "u2 = {u2:e}, salt {salt}: {got} vs {want}");
            assert_eq!(fast.next_u64(), slow.next_u64(), "u2 = {u2:e}: draw counts differ");
        }
    }
    // And on an unconstrained stream.
    let (mut fast, mut slow) = (XorShiftRng::new(77), XorShiftRng::new(77));
    let mut got = vec![0.0f32; 100_000];
    fast.fill_half_normal(&mut got);
    for v in got {
        assert_eq!(v.to_bits(), slow.next_normal().max(0.0).to_bits());
    }
    assert_eq!(fast, slow);
}

#[test]
fn sim_host_predictor_matches_oracle_bitwise() {
    kit().check(
        "predictor masks vs per-pixel oracle, batch vs per image",
        PredictBatchCase::arbitrary,
        PredictBatchCase::shrink,
        |c| {
            let x = c.build();
            let p = SensitivityPredictor::new(c.region(), c.threshold);
            let batch = p.predict_batch(&x);
            if batch.len() != c.n {
                return Err(format!("predict_batch returned {} images of {}", batch.len(), c.n));
            }
            for (n, masks) in batch.iter().enumerate() {
                let want = predict_image_naive(&p, &x, n);
                if mask_bits(&p.predict_image(&x, n)) != mask_bits(&want) {
                    return Err(format!("image {n}: predict_image differs from the oracle"));
                }
                if masks != &want {
                    return Err(format!("image {n}: predict_batch differs from the oracle"));
                }
            }
            Ok(())
        },
    );
}

fn assert_cycles_eq(got: &LayerCycles, want: &LayerCycles) -> Result<(), String> {
    if got == want {
        Ok(())
    } else {
        Err(format!("cycle model {got:?}\n    oracle {want:?}"))
    }
}

#[test]
fn sim_host_layer_cycles_match_oracle_on_every_field() {
    kit().check(
        "layer cycles vs per-pixel oracle",
        LayerCycleCase::arbitrary,
        LayerCycleCase::shrink,
        |c| {
            let (spec, masks) = (c.spec(), c.build_masks());
            let model = LayerCycleModel::new(c.rows, c.cols, c.pages);
            assert_cycles_eq(
                &model.simulate_layer(&spec, &masks),
                &layer_cycles_naive(&model, &spec, &masks),
            )
        },
    );
}

#[test]
fn sim_host_zoo_layers_match_oracles() {
    // Every layer of the CIFAR-sized zoo, on synthesized maps at the
    // layer's depth: the production synthesis → predictor → cycle model
    // chain against the oracle chain, on the paper's array.
    let model = LayerCycleModel::new(18, 11, 16);
    let config = DrqConfig::new(RegionSize::new(4, 8), 19.0);
    let synth = FeatureMapSynthesizer::default();
    for net in zoo::paper_six(InputRes::Cifar) {
        let n_layers = net.layers.len();
        for (i, spec) in net.layers.iter().enumerate() {
            let depth = i as f64 / n_layers as f64;
            let at_depth = synth.for_depth(depth);
            let seed = 0x5EED ^ i as u64;
            let x = at_depth.synthesize_layer_input(spec, &mut XorShiftRng::new(seed));
            let x_naive = synthesize_naive(
                &at_depth,
                spec.in_c,
                spec.in_h,
                spec.in_w,
                &mut XorShiftRng::new(seed),
            );
            let what = format!("{} layer {}", net.name, spec.name);
            assert_bits_eq(&x, &x_naive, &what).unwrap();
            let cfg = config.for_layer(spec.in_h, spec.in_w, depth);
            let p = SensitivityPredictor::new(cfg.region, cfg.threshold);
            let masks = p.predict(&x);
            assert_eq!(masks, predict_image_naive(&p, &x, 0), "{what}: masks");
            assert_cycles_eq(
                &model.simulate_layer(spec, &masks),
                &layer_cycles_naive(&model, spec, &masks),
            )
            .unwrap_or_else(|e| panic!("{what}: {e}"));
        }
    }
}

// ---------------------------------------------------------------------------
// Mutation smoke check: the harness must catch a deliberately broken kernel
// ---------------------------------------------------------------------------

#[test]
fn harness_catches_a_broken_kernel_with_shrunk_replayable_counterexample() {
    // A GEMM that silently drops the last inner-product term whenever
    // k ≥ 2 — the kind of off-by-one a blocking refactor could introduce.
    fn broken_matmul(a: &Tensor<f32>, b: &Tensor<f32>) -> Tensor<f32> {
        let (m, k) = (a.shape()[0], a.shape()[1]);
        let n = b.shape()[1];
        let (av, bv) = (a.as_slice(), b.as_slice());
        let k_eff = if k >= 2 { k - 1 } else { k };
        Tensor::from_fn(&[m, n], |idx| {
            let (i, j) = (idx / n, idx % n);
            (0..k_eff).map(|kk| av[i * k + kk] * bv[kk * n + j]).sum()
        })
    }

    let property = |c: &GemmCase| {
        let (a, b) = c.operands();
        assert_bits_eq(&broken_matmul(&a, &b), &matmul_naive(&a, &b), "broken matmul")
    };

    // Env-independent config so this meta-test is deterministic even under
    // a pinned replay seed for the suite above.
    let ce = TestKit::with_config("mutation-smoke", 64, 0xB0B0_CAFE)
        .try_check("broken gemm is caught", GemmCase::arbitrary, GemmCase::shrink, property)
        .expect_err("the harness failed to catch a kernel that drops a term");

    assert!(ce.shrink_steps > 0, "counterexample was not shrunk: {}", ce.report());
    assert!(
        ce.case_debug.contains("GemmCase"),
        "report lost the case: {}",
        ce.report()
    );
    assert!(
        ce.replay_command().contains("DRQ_TESTKIT_SEED="),
        "report lost the replay seed"
    );
    // The reported seed must regenerate a case that still fails.
    let replayed = GemmCase::arbitrary(&mut XorShiftRng::new(ce.seed));
    assert!(
        property(&replayed).is_err(),
        "replay seed {} does not reproduce the failure",
        ce.seed
    );
}

// ---------------------------------------------------------------------------
// Serving scale-out: coalesced execution vs sequential reference
// ---------------------------------------------------------------------------

/// A random mix of mutually-compatible inference requests — each entry is
/// (heavier dataset?, sample seed, batch size) — plus the worker count the
/// coalesced run executes behind (0 → 1 worker, 1 → 2 workers,
/// 2 → autodetected parallelism).
#[derive(Debug, Clone)]
struct ServeMixCase {
    requests: Vec<(bool, u64, usize)>,
    workers_sel: u8,
}

impl ServeMixCase {
    fn arbitrary(rng: &mut XorShiftRng) -> Self {
        let len = 2 + (rng.next_u64() % 3) as usize; // 2..=4
        let requests = (0..len)
            .map(|_| {
                (
                    rng.next_u64() % 4 == 0,
                    rng.next_u64() % 8,
                    1 + (rng.next_u64() % 2) as usize,
                )
            })
            .collect();
        Self { requests, workers_sel: (rng.next_u64() % 3) as u8 }
    }

    fn workers(&self) -> usize {
        match self.workers_sel {
            0 => 1,
            1 => 2,
            _ => std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1),
        }
    }

    fn shrink(&self) -> Vec<Self> {
        let mut out = Vec::new();
        if self.requests.len() > 2 {
            for drop in 0..self.requests.len() {
                let mut r = self.requests.clone();
                r.remove(drop);
                out.push(Self { requests: r, workers_sel: self.workers_sel });
            }
        }
        if self.workers_sel != 0 {
            out.push(Self { requests: self.requests.clone(), workers_sel: 0 });
        }
        for (i, &(shapes, seed, batch)) in self.requests.iter().enumerate() {
            for simpler in [(false, seed, batch), (shapes, 0, batch), (shapes, seed, 1)] {
                if simpler != (shapes, seed, batch) {
                    let mut r = self.requests.clone();
                    r[i] = simpler;
                    out.push(Self { requests: r, workers_sel: self.workers_sel });
                }
            }
        }
        out
    }

    fn build(&self) -> Vec<drq::serve::InferRequest> {
        self.requests
            .iter()
            .enumerate()
            .map(|(i, &(shapes, sample_seed, batch))| drq::serve::InferRequest {
                id: format!("m{i:02}"),
                dataset: if shapes {
                    drq::models::DatasetKind::Shapes
                } else {
                    drq::models::DatasetKind::Digits
                },
                sample_seed,
                batch,
                deadline_cycles: None,
                poison: false,
            })
            .collect()
    }
}

/// Serve config with load-shedding disabled, so every request executes
/// mixed-precision regardless of momentary queue depth (shed behavior has
/// its own tests; this property is about coalescing).
fn steady_serve_config(workers: usize, coalesce: usize) -> drq::serve::ServeConfig {
    drq::serve::ServeConfig {
        workers,
        coalesce,
        capacity: 64,
        shed: drq::serve::ShedPolicy {
            degrade_enter_depth: 2.0,
            shed_enter_depth: 2.0,
            degrade_enter_misses: usize::MAX,
            ..drq::serve::ShedPolicy::default()
        },
        ..drq::serve::ServeConfig::default()
    }
}

/// Continuous batching is invisible in the responses: a random compatible
/// mix executed coalesced — behind a shard router at 1, 2, and
/// autodetected worker counts — produces byte-identical response lines
/// (predictions, int4 fraction, *and* cycle accounting) to the same mix
/// executed strictly one-request-at-a-time.
#[test]
fn coalesced_serving_bit_equals_sequential_across_worker_counts() {
    use std::sync::mpsc;

    let property = |case: &ServeMixCase| -> Result<(), String> {
        let requests = case.build();

        // Sequential reference: a one-worker router, coalescing disabled, and each
        // request fully answered before the next is submitted.
        let sequential = drq::serve::ShardRouter::start(steady_serve_config(1, 1));
        let mut reference: Vec<(String, String)> = Vec::new();
        for req in &requests {
            let (tx, rx) = mpsc::channel();
            sequential.submit(req.clone(), Box::new(move |r| { let _ = tx.send(r); }));
            let resp = rx.recv().map_err(|e| format!("reference lost a response: {e}"))?;
            reference.push((req.id.clone(), resp.to_json_line()));
        }
        sequential.shutdown(5_000);

        let workers = case.workers();
        let router = drq::serve::ShardRouter::start(steady_serve_config(workers, 8));
        // Pause every worker so the whole mix queues up, then release:
        // maximal coalescing pressure, deterministically.
        router.pause_workers();
        let (tx, rx) = mpsc::channel();
        for req in &requests {
            let tx = tx.clone();
            router.submit(req.clone(), Box::new(move |r| { let _ = tx.send(r); }));
        }
        drop(tx);
        router.resume_workers();
        let mut got: Vec<(String, String)> = rx
            .iter()
            .take(requests.len())
            .map(|r| (r.id.clone().unwrap_or_default(), r.to_json_line()))
            .collect();
        router.shutdown(5_000);
        got.sort();
        let mut want = reference;
        want.sort();
        if got != want {
            return Err(format!(
                "coalesced responses diverged from sequential at {workers} workers:\n\
                 sequential: {want:?}\ncoalesced:  {got:?}"
            ));
        }
        Ok(())
    };

    kit().check(
        "coalesced serving ≡ sequential",
        ServeMixCase::arbitrary,
        ServeMixCase::shrink,
        property,
    );
}

// ---------------------------------------------------------------------------
// Adversarial report parsing
// ---------------------------------------------------------------------------

#[test]
fn report_parser_rejects_corrupted_documents_with_typed_errors() {
    use drq::telemetry::{Report, ReportParseError};
    use drq_testkit::cases::{ReportCorruption, ReportCorruptionCase};

    let mut report = Report::new("chaos_probe");
    report.push("alpha", 1u64).push("beta", "text").push("gamma", 2.5f64);
    let valid = report.to_json_string();
    assert!(Report::from_json_str(&valid).is_ok(), "baseline document must parse");

    kit().check(
        "corrupted report documents yield the matching typed parse error",
        ReportCorruptionCase::arbitrary,
        ReportCorruptionCase::shrink,
        |c| {
            let doc = c.apply(&valid);
            let outcome = Report::from_json_str(&doc);
            match (c.kind(), outcome) {
                // A flipped bit may land in a value and keep the document
                // healthy; the only obligation is a non-panicking answer.
                (ReportCorruption::FlipBit, _) => Ok(()),
                (kind, Ok(_)) => Err(format!("parser accepted a {kind:?} document")),
                (kind, Err(e)) => {
                    let matches_kind = matches!(
                        (kind, &e),
                        (
                            ReportCorruption::Empty | ReportCorruption::Truncate,
                            ReportParseError::Malformed { .. }
                        ) | (
                            ReportCorruption::WrongSchema,
                            ReportParseError::WrongSchema { .. }
                        ) | (
                            ReportCorruption::WrongVersion,
                            ReportParseError::WrongVersion { .. }
                        ) | (
                            ReportCorruption::NotAnObject,
                            ReportParseError::NotAnObject { .. }
                        )
                    );
                    if matches_kind {
                        Ok(())
                    } else {
                        Err(format!("{kind:?} corruption produced the wrong variant: {e:?}"))
                    }
                }
            }
        },
    );
}
