//! Bit pins for every fake-quantization scheme the accuracy experiments
//! use, and for the scheme accuracies of Figs. 11 and 13 built on them.
//!
//! Each pin is the 64-bit FNV-1a digest of the output's f32 bits on a
//! seeded heavy-tailed tensor (a normal over a uniform, so a few values sit
//! far out and set the max-abs scales), or the exact f64 bits of
//! `evaluate_scheme`'s accuracy and INT4 share on a seeded LeNet-5 trained
//! for one epoch, short enough that quantization still flips predictions.
//! A refactor of the quantizers that moves one rounding decision fails here.

use drq::baselines::{evaluate_scheme, QuantScheme};
use drq::core::{DrqConfig, RegionSize};
use drq::models::{lenet5, train, Dataset, DatasetKind, TrainConfig};
use drq::quant::{fake_quantize, fake_quantize_per_channel, OutlierQuantizer, Precision, QuantParams};
use drq::tensor::{Tensor, XorShiftRng};

/// 64-bit FNV-1a over the little-endian bits of `t`.
fn digest(t: &Tensor<f32>) -> u64 {
    t.as_slice()
        .iter()
        .flat_map(|v| v.to_bits().to_le_bytes())
        .fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        })
}

fn heavy_tailed(shape: &[usize], seed: u64) -> Tensor<f32> {
    let mut rng = XorShiftRng::new(seed);
    Tensor::from_fn(shape, |_| rng.next_normal() / (rng.next_f32() + 0.05))
}

#[test]
fn per_channel_weights_are_pinned() {
    let w = heavy_tailed(&[12, 6, 3, 3], 41);
    let got: Vec<u64> = [Precision::Int4, Precision::Int8, Precision::Int16]
        .into_iter()
        .map(|p| digest(&fake_quantize_per_channel(&w, p)))
        .collect();
    assert_eq!(
        got,
        [0xe19d_0086_fc06_039e, 0xaf43_e20a_2fb3_86ba, 0x210a_5e73_c34a_d8e8],
        "{got:#018x?}"
    );
}

#[test]
fn outlier_weights_are_pinned() {
    let w = heavy_tailed(&[16, 8, 3, 3], 42);
    let (out, stats) = OutlierQuantizer::olaccel_default().apply(&w);
    assert_eq!(digest(&out), 0xd9b8_c16f_c9f5_d149, "{:#018x}", digest(&out));
    assert_eq!(stats.outliers, 35, "{stats:?}");
}

#[test]
fn fitted_activations_are_pinned() {
    let x = heavy_tailed(&[2, 6, 10, 10], 43);
    let got: Vec<u64> = [Precision::Int4, Precision::Int8, Precision::Int16]
        .into_iter()
        .map(|p| digest(&fake_quantize(&x, &QuantParams::fit(x.as_slice(), p))))
        .collect();
    assert_eq!(
        got,
        [0x5342_5293_e606_7939, 0xa553_16b0_ee66_197a, 0x5f42_ee53_47ef_1e2e],
        "{got:#018x?}"
    );
}

#[test]
fn scheme_accuracies_are_pinned() {
    let train_set = Dataset::generate(DatasetKind::Digits, 240, 51);
    let eval_set = Dataset::generate(DatasetKind::Digits, 200, 52);
    let mut net = lenet5(53);
    let cfg = TrainConfig { epochs: 1, ..TrainConfig::default() };
    train(&mut net, &train_set, &eval_set, &cfg);
    let schemes = [
        QuantScheme::Fp32,
        QuantScheme::Eyeriss,
        QuantScheme::BitFusion,
        QuantScheme::OlAccel,
        QuantScheme::Drq(DrqConfig::new(RegionSize::new(4, 4), 20.0)),
    ];
    let got: Vec<(u64, u64)> = schemes
        .iter()
        .map(|s| {
            let r = evaluate_scheme(&mut net, s, &eval_set, 20);
            (r.accuracy.to_bits(), r.int4_fraction.to_bits())
        })
        .collect();
    let want = [
        (0x3fe4_28f5_c28f_5c29, 0x0000_0000_0000_0000),
        (0x3fe4_28f5_c28f_5c29, 0x0000_0000_0000_0000),
        (0x3fe4_7ae1_47ae_147b, 0x0000_0000_0000_0000),
        (0x3fe3_ae14_7ae1_47ae, 0x3fef_0a3d_70a3_d70a),
        (0x3fe3_0a3d_70a3_d70a, 0x3fea_1964_d7f0_ed3e),
    ];
    assert_eq!(got, want, "{got:#018x?}");
}
