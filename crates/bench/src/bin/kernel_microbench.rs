//! Kernel micro-benchmarks for the compute backend hot path.
//!
//! Times the three kernels that dominate DRQ training and calibration —
//! GEMM, im2col and the conv forward/backward pair — with
//! `std::time::Instant`, and prints one line of JSON so the numbers can be
//! tracked across commits (`BENCH_*.json` trajectory files).
//!
//! The GEMM shape (256x1152x196) is a ResNet conv layer lowered through
//! im2col: 256 output channels, 128*3*3 = 1152 reduction, 14x14 spatial.
//! Three variants are measured:
//!
//! - `gemm_naive_ms`    — the seed's reference triple loop
//!   ([`drq::tensor::matmul_reference`]);
//! - `gemm_blocked_1t_ms` — the cache-blocked kernel pinned to one thread
//!   (isolates the blocking/packing win);
//! - `gemm_blocked_ms`  — the same kernel at full `DRQ_THREADS`.
//!
//! `im2col_ms` and `col2im_ms` time the column-matrix transform and its
//! adjoint for 8 images of 32×56×56 (3×3, stride 1, pad 1), each image
//! into one reused buffer, as the convolutions run them.
//!
//! Two fp32 conv rows time `Conv2d::forward` (training mode) and
//! `Conv2d::backward` separately, each backward after its own untimed
//! forward (backward consumes the input the forward caches):
//! `conv_forward_ms`/`conv_backward_ms` for 32->64 3x3 on a batch of 8
//! 28x28 maps, and `conv16_forward_ms`/`conv16_backward_ms` for 16->16
//! 3x3 on a batch of 16 32x32 maps, the shape that dominates the Shapes
//! ResNet-8's fine-tuning steps.
//!
//! Three mixed-precision conv rows time `MixedPrecisionConv::forward`
//! with a prepared `ConvPlan` and predictor masks (4×4 regions, threshold
//! 8) over post-ReLU inputs with bright blobs, so both precisions run:
//! `mixed_conv16_b1_ms` and `mixed_conv16_b16_ms` for 16->16 3x3 s1 p1 on
//! 32x32 maps at batch 1 and 16, and `mixed_conv32to64_s2_ms` for 32->64
//! 3x3 s2 p1 on a batch of 8 16x16 maps. `mixed_conv16_int4_frac` is the
//! 16->16 batch-16 row's share of INT4 MACs.
//!
//! `parallel_section_us` is the median cost in microseconds of one
//! parallel section on two workers whose two chunks do nothing but wait
//! for each other, so the second chunk must run on another thread: what a
//! kernel pays to hand work to a second thread and have it back.
//!
//! `train_step_b16_ms` times one fp32 training step of the Shapes ResNet-8
//! stand-in at batch 16 (`Network::forward_train`, the loss,
//! `Network::backward_train` and an SGD step), and `train_step_minflt` is
//! the median count of minor page faults per step, from
//! `/proc/self/stat` (0 where that cannot be read).
//!
//! Run with `--release`; debug timings are meaningless.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use drq::core::{
    CoalesceInput, ConvPlan, Int8Codes, MixedPrecisionConv, RegionSize, SensitivityPredictor,
};
use drq::models::{default_standin, Dataset, DatasetKind};
use drq::nn::{Conv2d, CrossEntropyLoss, Sgd};
use drq::telemetry::Report;
use drq::tensor::{
    col2im_accumulate_into, im2col_into, int4_matmul, int8_matmul, int8_matmul_reference,
    int_kernel_name, matmul, matmul_reference, parallel, Im2ColLayout, Int4Packed, Shape4, Tensor,
    XorShiftRng,
};
use drq_bench::ObservabilityArgs;

/// Median-of-`reps` wall time in milliseconds for `f`.
fn time_ms<F: FnMut()>(reps: usize, mut f: F) -> f64 {
    // One untimed warm-up to populate caches and spawn nothing lazily.
    f();
    median(
        (0..reps)
            .map(|_| {
                let t0 = Instant::now();
                f();
                t0.elapsed().as_secs_f64() * 1e3
            })
            .collect(),
    )
}

fn median(mut samples: Vec<f64>) -> f64 {
    samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
    samples[samples.len() / 2]
}

/// Median-of-`reps` forward and backward wall times in milliseconds of
/// `conv` on `x` with output gradient `gy`. Each backward is timed on its
/// own, after an untimed training-mode forward that caches its input.
fn conv_ms(reps: usize, conv: &mut Conv2d, x: &Tensor<f32>, gy: &Tensor<f32>) -> (f64, f64) {
    let forward_ms = time_ms(reps, || {
        std::hint::black_box(conv.forward(x, true));
    });
    // Pass 0 is the untimed warm-up.
    let mut samples = Vec::with_capacity(reps);
    for pass in 0..=reps {
        conv.forward(x, true);
        let t0 = Instant::now();
        std::hint::black_box(conv.backward(gy));
        if pass > 0 {
            samples.push(t0.elapsed().as_secs_f64() * 1e3);
        }
    }
    (forward_ms, median(samples))
}

/// A post-ReLU activation whose every third 6×5 block is four times
/// brighter, so 4×4 region means land on both sides of the predictor
/// threshold.
fn blobby(shape: [usize; 4], rng: &mut XorShiftRng) -> Tensor<f32> {
    let [_, _, h, w] = shape;
    Tensor::from_fn(&shape, |i| {
        let (y, x) = ((i / w) % h, i % w);
        let gain = if (y / 6 + x / 5) % 3 == 0 { 4.0 } else { 1.0 };
        (rng.next_normal() * gain).max(0.0)
    })
}

/// Median-of-`reps` wall time in milliseconds of quantizing `x` and
/// running the mixed-precision conv `conv` on its codes with a prepared
/// plan and predictor masks, and the INT4 share of its MACs.
fn mixed_conv_ms(reps: usize, conv: &Conv2d, x: &Tensor<f32>) -> (f64, f64) {
    let masks = SensitivityPredictor::new(RegionSize::new(4, 4), 8.0).predict_batch(x);
    let plan = ConvPlan::prepare(conv);
    let run = || {
        let codes = Int8Codes::quantize(x);
        let inputs = [CoalesceInput { codes: &codes, masks: &masks }];
        MixedPrecisionConv::forward(conv, Some(&plan), &inputs).remove(0)
    };
    let ms = time_ms(reps, || {
        std::hint::black_box(run());
    });
    (ms, run().1.int4_fraction())
}

/// Median wall microseconds of one two-worker parallel section whose two
/// chunks spin until both have started. A chunk stops waiting after 10 ms,
/// so a section that runs inline still ends (and reads about 10,000 µs).
fn parallel_section_us() -> f64 {
    parallel::set_max_threads(2);
    let mut slots = [0u8; 2];
    let started = AtomicUsize::new(0);
    let mut section = || {
        started.store(0, Ordering::Relaxed);
        parallel::for_each_chunk_mut(&mut slots, 1, |_, _| {
            started.fetch_add(1, Ordering::AcqRel);
            let t0 = Instant::now();
            while started.load(Ordering::Acquire) < 2 && t0.elapsed() < Duration::from_millis(10) {
                std::hint::spin_loop();
            }
        });
    };
    section();
    let samples = (0..2001)
        .map(|_| {
            let t0 = Instant::now();
            section();
            t0.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    parallel::set_max_threads(0);
    median(samples)
}

/// This process's minor page faults so far (field 10 of
/// `/proc/self/stat`), or `None` where that cannot be read.
fn minor_faults() -> Option<u64> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    // Fields after the parenthesized command name, which may hold spaces.
    let rest = &stat[stat.rfind(')')? + 1..];
    rest.split_whitespace().nth(7)?.parse().ok()
}

/// Median wall milliseconds and minor faults of one fp32 training step of
/// the Shapes ResNet-8 at batch 16, after one untimed warm-up step.
fn train_step(reps: usize) -> (f64, u64) {
    let data = Dataset::generate(DatasetKind::Shapes, 16, 5);
    let (x, targets) = data.batch(0, 16);
    let mut net = default_standin(DatasetKind::Shapes, 5);
    let mut opt = Sgd::new(0.005).momentum(0.9);
    let (mut ms, mut faults) = (Vec::new(), Vec::new());
    for pass in 0..=reps {
        let f0 = minor_faults();
        let t0 = Instant::now();
        let (_, grad) = CrossEntropyLoss::evaluate(net.forward_train(&x), &targets);
        net.backward_train(&grad);
        opt.step(&mut net);
        if pass > 0 {
            ms.push(t0.elapsed().as_secs_f64() * 1e3);
            faults.push(f0.zip(minor_faults()).map_or(0, |(a, b)| b - a));
        }
    }
    faults.sort_unstable();
    (median(ms), faults[faults.len() / 2])
}

fn main() {
    let obs = ObservabilityArgs::from_env_args();
    let reps: usize = std::env::var("DRQ_BENCH_REPS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(5);
    let threads = parallel::max_threads();

    let mut rng = XorShiftRng::new(99);
    // GEMM: 256x1152 * 1152x196 (ResNet-ish im2col'd conv layer).
    let (m, k, n) = (256usize, 1152usize, 196usize);
    let a = Tensor::from_fn(&[m, k], |_| rng.next_f32() - 0.5);
    let b = Tensor::from_fn(&[k, n], |_| rng.next_f32() - 0.5);

    let gemm_naive_ms = time_ms(reps, || {
        std::hint::black_box(matmul_reference(&a, &b));
    });
    parallel::set_max_threads(1);
    let gemm_blocked_1t_ms = time_ms(reps, || {
        std::hint::black_box(matmul(&a, &b));
    });
    parallel::set_max_threads(0);
    let gemm_blocked_ms = time_ms(reps, || {
        std::hint::black_box(matmul(&a, &b));
    });

    // Correctness guard: the timed kernel must agree with the oracle up to
    // reassociation error (blocking changes the f32 accumulation order).
    let want = matmul_reference(&a, &b);
    let got = matmul(&a, &b);
    let tol = 1e-4 * (k as f32).sqrt();
    for (w, g) in want.as_slice().iter().zip(got.as_slice()) {
        assert!((w - g).abs() <= tol, "blocked GEMM diverged from reference: {w} vs {g}");
    }

    // Integer tier on the same shape: full-range i8 codes, plus the
    // nibble-packed INT4 left operand the mixed conv's insensitive
    // regions use. 1-thread timings are the tier-vs-tier comparison CI
    // gates on (single-core speedup, no parallel scaling mixed in).
    let ai = Tensor::from_fn(&[m, k], |_| (rng.next_u64() & 0xff) as u8 as i8);
    let bi = Tensor::from_fn(&[k, n], |_| (rng.next_u64() & 0xff) as u8 as i8);
    let a4 = Int4Packed::pack(&Tensor::from_fn(&[m, k], |_| ((rng.next_u64() % 16) as i64 - 8) as i8));
    parallel::set_max_threads(1);
    let int8_gemm_1t_ms = time_ms(reps, || {
        std::hint::black_box(int8_matmul(&ai, &bi));
    });
    let int4_gemm_1t_ms = time_ms(reps, || {
        std::hint::black_box(int4_matmul(&a4, &bi));
    });
    parallel::set_max_threads(0);
    let int8_gemm_ms = time_ms(reps, || {
        std::hint::black_box(int8_matmul(&ai, &bi));
    });

    // Integer guard is exact: blocked tier must match the naive wrapping
    // oracle bit-for-bit.
    assert_eq!(
        int8_matmul(&ai, &bi).as_slice(),
        int8_matmul_reference(&ai, &bi).as_slice(),
        "int8 GEMM tier diverged from the integer oracle"
    );

    // im2col: batch of 8 32-channel 56x56 images, 3x3 stride-1 pad-1.
    let shape = Shape4::new(8, 32, 56, 56);
    let layout = Im2ColLayout::new(shape, 3, 3, 1, 1);
    let x = Tensor::from_fn(&[8, 32, 56, 56], |_| rng.next_f32() - 0.5);
    let img_len = 32 * 56 * 56;
    let mut cols = vec![0.0f32; layout.rows() * layout.cols()];
    let im2col_ms = time_ms(reps, || {
        for img in x.as_slice().chunks_exact(img_len) {
            im2col_into(img, &layout, &mut cols);
            std::hint::black_box(&cols);
        }
    });
    let mut grad = vec![0.0f32; img_len];
    let col2im_ms = time_ms(reps, || {
        for _ in 0..8 {
            col2im_accumulate_into(&cols, &layout, &mut grad);
            std::hint::black_box(&grad);
        }
    });

    // Conv forward/backward: 32->64 3x3 on a batch of 8 28x28 images, then
    // 16->16 3x3 on a batch of 16 32x32 images.
    let mut conv = Conv2d::new(32, 64, 3, 1, 1, 7);
    let cx = Tensor::from_fn(&[8, 32, 28, 28], |_| rng.next_f32() - 0.5);
    let gy = Tensor::from_fn(&[8, 64, 28, 28], |_| rng.next_f32() - 0.5);
    let (conv_forward_ms, conv_backward_ms) = conv_ms(reps, &mut conv, &cx, &gy);
    let mut conv16 = Conv2d::new(16, 16, 3, 1, 1, 8);
    let cx16 = Tensor::from_fn(&[16, 16, 32, 32], |_| rng.next_f32() - 0.5);
    let gy16 = Tensor::from_fn(&[16, 16, 32, 32], |_| rng.next_f32() - 0.5);
    let (conv16_forward_ms, conv16_backward_ms) = conv_ms(reps, &mut conv16, &cx16, &gy16);

    // Mixed-precision conv: the integer path every DRQ forward and every
    // served `shapes` request runs.
    let conv16 = Conv2d::new(16, 16, 3, 1, 1, 9);
    let (mixed_conv16_b1_ms, _) = mixed_conv_ms(reps, &conv16, &blobby([1, 16, 32, 32], &mut rng));
    let (mixed_conv16_b16_ms, mixed_conv16_int4_frac) =
        mixed_conv_ms(reps, &conv16, &blobby([16, 16, 32, 32], &mut rng));
    let conv_s2 = Conv2d::new(32, 64, 3, 2, 1, 10);
    let (mixed_conv32to64_s2_ms, _) = mixed_conv_ms(reps, &conv_s2, &blobby([8, 32, 16, 16], &mut rng));

    let (train_step_b16_ms, train_step_minflt) = train_step(reps);
    let parallel_section_us = parallel_section_us();

    let speedup_1t = gemm_naive_ms / gemm_blocked_1t_ms;
    let speedup = gemm_naive_ms / gemm_blocked_ms;
    // Tier comparison: int8 packed GEMM vs the f32 blocked GEMM, both
    // single-threaded on the standard shape (the CI gate and the issue's
    // >= 1.5x acceptance bar).
    let int8_speedup_vs_f32_1t = gemm_blocked_1t_ms / int8_gemm_1t_ms;
    let int8_speedup_vs_f32 = gemm_blocked_ms / int8_gemm_ms;
    let int_kernel = int_kernel_name();
    // The one-line stdout format (keyed on "bench") is what the trajectory
    // tooling greps for; keep it stable independently of --metrics. The
    // "tier" field marks that both compute tiers are covered.
    println!(
        "{{\"bench\":\"kernel_microbench\",\"tier\":\"f32+int\",\"threads\":{threads},\
         \"reps\":{reps},\
         \"gemm_m\":{m},\"gemm_k\":{k},\"gemm_n\":{n},\
         \"gemm_naive_ms\":{gemm_naive_ms:.3},\
         \"gemm_blocked_1t_ms\":{gemm_blocked_1t_ms:.3},\
         \"gemm_blocked_ms\":{gemm_blocked_ms:.3},\
         \"gemm_speedup_1t\":{speedup_1t:.2},\"gemm_speedup\":{speedup:.2},\
         \"int_kernel\":\"{int_kernel}\",\
         \"int8_gemm_1t_ms\":{int8_gemm_1t_ms:.3},\
         \"int8_gemm_ms\":{int8_gemm_ms:.3},\
         \"int4_gemm_1t_ms\":{int4_gemm_1t_ms:.3},\
         \"int8_speedup_vs_f32_1t\":{int8_speedup_vs_f32_1t:.2},\
         \"int8_speedup_vs_f32\":{int8_speedup_vs_f32:.2},\
         \"im2col_ms\":{im2col_ms:.3},\
         \"col2im_ms\":{col2im_ms:.3},\
         \"conv_forward_ms\":{conv_forward_ms:.3},\
         \"conv_backward_ms\":{conv_backward_ms:.3},\
         \"conv16_forward_ms\":{conv16_forward_ms:.3},\
         \"conv16_backward_ms\":{conv16_backward_ms:.3},\
         \"mixed_conv16_b1_ms\":{mixed_conv16_b1_ms:.3},\
         \"mixed_conv16_b16_ms\":{mixed_conv16_b16_ms:.3},\
         \"mixed_conv32to64_s2_ms\":{mixed_conv32to64_s2_ms:.3},\
         \"mixed_conv16_int4_frac\":{mixed_conv16_int4_frac:.3},\
         \"train_step_b16_ms\":{train_step_b16_ms:.3},\
         \"train_step_minflt\":{train_step_minflt},\
         \"parallel_section_us\":{parallel_section_us:.2}}}"
    );

    let mut report = Report::new("kernel_microbench");
    report
        .push("tier", "f32+int")
        .push("threads", threads)
        .push("reps", reps)
        .push("gemm_m", m)
        .push("gemm_k", k)
        .push("gemm_n", n)
        .push("gemm_naive_ms", gemm_naive_ms)
        .push("gemm_blocked_1t_ms", gemm_blocked_1t_ms)
        .push("gemm_blocked_ms", gemm_blocked_ms)
        .push("gemm_speedup_1t", speedup_1t)
        .push("gemm_speedup", speedup)
        .push("int_kernel", int_kernel)
        .push("int8_gemm_1t_ms", int8_gemm_1t_ms)
        .push("int8_gemm_ms", int8_gemm_ms)
        .push("int4_gemm_1t_ms", int4_gemm_1t_ms)
        .push("int8_speedup_vs_f32_1t", int8_speedup_vs_f32_1t)
        .push("int8_speedup_vs_f32", int8_speedup_vs_f32)
        .push("im2col_ms", im2col_ms)
        .push("col2im_ms", col2im_ms)
        .push("conv_forward_ms", conv_forward_ms)
        .push("conv_backward_ms", conv_backward_ms)
        .push("conv16_forward_ms", conv16_forward_ms)
        .push("conv16_backward_ms", conv16_backward_ms)
        .push("mixed_conv16_b1_ms", mixed_conv16_b1_ms)
        .push("mixed_conv16_b16_ms", mixed_conv16_b16_ms)
        .push("mixed_conv32to64_s2_ms", mixed_conv32to64_s2_ms)
        .push("mixed_conv16_int4_frac", mixed_conv16_int4_frac)
        .push("train_step_b16_ms", train_step_b16_ms)
        .push("train_step_minflt", train_step_minflt)
        .push("parallel_section_us", parallel_section_us);
    obs.write_report(report).expect("writing --metrics output");
}
