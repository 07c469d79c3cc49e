//! Per-layer threshold calibration.
//!
//! Table III's thresholds are *averages*: "the thresholds are set to
//! different integer numbers for different layers". This module derives
//! those per-layer integer thresholds from calibration data — sample
//! feature maps observed at each convolution input — by choosing, per
//! layer, the smallest integer threshold whose sensitive-region fraction
//! does not exceed a target. Holding the sensitive fraction (rather than
//! the threshold) constant across layers is what keeps the INT4 percentage
//! stable as activation statistics drift with depth.

use crate::{DrqConfig, Int8Codes, RegionSize, RegionSums};
use drq_nn::Network;
use drq_tensor::Tensor;

/// A calibrated per-layer threshold schedule.
///
/// # Examples
///
/// ```
/// use drq_core::{LayerThresholds, RegionSize};
///
/// let t = LayerThresholds::new(RegionSize::new(4, 4), vec![24.0, 18.0, 5.0]);
/// assert_eq!(t.threshold_for(1), 18.0);
/// // Layers beyond the calibrated set reuse the last threshold.
/// assert_eq!(t.threshold_for(9), 5.0);
/// assert!((t.average() - (24.0 + 18.0 + 5.0) / 3.0).abs() < 1e-6);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct LayerThresholds {
    region: RegionSize,
    thresholds: Vec<f32>,
}

impl LayerThresholds {
    /// Creates a schedule from explicit per-layer thresholds.
    ///
    /// # Panics
    ///
    /// Panics if `thresholds` is empty or contains a negative value.
    pub fn new(region: RegionSize, thresholds: Vec<f32>) -> Self {
        assert!(!thresholds.is_empty(), "need at least one layer threshold");
        assert!(
            thresholds.iter().all(|t| t.is_finite() && *t >= 0.0),
            "thresholds must be non-negative"
        );
        Self { region, thresholds }
    }

    /// The region size the schedule was calibrated for.
    pub fn region(&self) -> RegionSize {
        self.region
    }

    /// Threshold for convolution layer `index` (clamped to the last
    /// calibrated layer).
    pub fn threshold_for(&self, index: usize) -> f32 {
        self.thresholds[index.min(self.thresholds.len() - 1)]
    }

    /// All calibrated thresholds in layer order.
    pub fn thresholds(&self) -> &[f32] {
        &self.thresholds
    }

    /// The average threshold — the quantity Table III reports per network.
    pub fn average(&self) -> f32 {
        self.thresholds.iter().sum::<f32>() / self.thresholds.len() as f32
    }

    /// Collapses the schedule to a uniform [`DrqConfig`] at the average
    /// threshold (useful when a consumer only supports one threshold).
    pub fn to_uniform_config(&self) -> DrqConfig {
        DrqConfig::new(self.region, self.average())
    }
}

/// Calibrates per-layer integer thresholds on a trained network.
///
/// For each convolution input observed while running `samples` through
/// `net`, the smallest integer threshold in `[0, 127]` whose mean
/// sensitive-region fraction is at most `target_sensitive_fraction` is
/// selected (binary search over the integer domain — the step activation
/// makes the fraction monotone in the threshold).
///
/// # Panics
///
/// Panics if the target is outside `(0, 1]`, `samples` is empty, or the
/// network has no convolutions.
///
/// # Examples
///
/// ```
/// use drq_core::{calibrate_thresholds, RegionSize};
/// use drq_nn::{Conv2d, Layer, Network, ReLU};
/// use drq_tensor::Tensor;
///
/// let mut net = Network::new(vec![
///     Layer::from(Conv2d::new(1, 2, 3, 1, 1, 1)),
///     Layer::from(ReLU::new()),
/// ]);
/// let samples = Tensor::from_fn(&[2, 1, 8, 8], |i| (i % 7) as f32 * 0.1);
/// let schedule = calibrate_thresholds(&mut net, &samples, RegionSize::new(4, 4), 0.25);
/// assert_eq!(schedule.thresholds().len(), 1);
/// ```
pub fn calibrate_thresholds(
    net: &mut Network,
    samples: &Tensor<f32>,
    region: RegionSize,
    target_sensitive_fraction: f64,
) -> LayerThresholds {
    assert!(
        target_sensitive_fraction > 0.0 && target_sensitive_fraction <= 1.0,
        "target fraction must be in (0, 1]"
    );
    assert!(!samples.is_empty(), "need calibration samples");
    let conv_count = net.conv_count();
    assert!(conv_count > 0, "network has no convolutions");

    // Collect every conv input once.
    let mut inputs: Vec<Tensor<f32>> = Vec::with_capacity(conv_count);
    let _ = net.forward_conv_override(samples, &mut |_, conv, input| {
        inputs.push(input.clone());
        conv.forward_with_weights(input, conv.weight())
    });

    let thresholds = inputs
        .iter()
        .map(|x| {
            let s = x.shape4().expect("conv input rank");
            // The region sums do not depend on the threshold: build them
            // once per image, and each search probe is a compare pass.
            let sums = RegionSums::batch(&Int8Codes::quantize(x), region.clamped_to(s.h, s.w));
            let frac_at = |t: f32| -> f64 {
                let mut acc = 0.0;
                for image in &sums {
                    acc += image.sensitive_fraction(t);
                }
                acc / s.n as f64
            };
            // Binary search the smallest integer threshold meeting the
            // target (fraction is non-increasing in the threshold).
            let (mut lo, mut hi) = (0u32, 127u32);
            if frac_at(0.0) <= target_sensitive_fraction {
                return 0.0;
            }
            while lo + 1 < hi {
                let mid = (lo + hi) / 2;
                if frac_at(mid as f32) <= target_sensitive_fraction {
                    hi = mid;
                } else {
                    lo = mid;
                }
            }
            hi as f32
        })
        .collect();
    LayerThresholds::new(region, thresholds)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predictor::single_pass_masks;
    use crate::{MaskMap, SensitivityPredictor};
    use drq_nn::{Conv2d, Layer, Pool2d, PoolKind, ReLU};
    use drq_tensor::XorShiftRng;

    fn two_conv_net(seed: u64) -> Network {
        Network::new(vec![
            Layer::from(Conv2d::new(1, 4, 3, 1, 1, seed)),
            Layer::from(ReLU::new()),
            Layer::from(Pool2d::new(PoolKind::Avg, 2, 2)),
            Layer::from(Conv2d::new(4, 4, 3, 1, 1, seed + 1)),
        ])
    }

    fn blobby_batch(seed: u64) -> Tensor<f32> {
        let mut rng = XorShiftRng::new(seed);
        Tensor::from_fn(&[4, 1, 16, 16], |i| {
            let p = i % 256;
            let (h, w) = (p / 16, p % 16);
            if h < 5 && w < 5 {
                0.8 + 0.2 * rng.next_f32()
            } else {
                0.02 * rng.next_f32()
            }
        })
    }

    #[test]
    fn calibration_meets_the_target() {
        let mut net = two_conv_net(3);
        let x = blobby_batch(4);
        let target = 0.15;
        let schedule = calibrate_thresholds(&mut net, &x, RegionSize::new(4, 4), target);
        assert_eq!(schedule.thresholds().len(), 2);
        // Verify: at the chosen thresholds, the sensitive fraction is at or
        // under target for every layer.
        let mut layer = 0;
        let thresholds = schedule.thresholds().to_vec();
        let _ = net.forward_conv_override(&x, &mut |_, conv, input| {
            let s = input.shape4().unwrap();
            let p = SensitivityPredictor::new(
                RegionSize::new(4, 4).clamped_to(s.h, s.w),
                thresholds[layer],
            );
            let mut acc = 0.0;
            for masks in p.predict_batch(input) {
                acc += masks.iter().map(MaskMap::sensitive_fraction).sum::<f64>() / s.c as f64;
            }
            assert!(
                acc / s.n as f64 <= target + 1e-9,
                "layer {layer} exceeds target"
            );
            layer += 1;
            conv.forward_with_weights(input, conv.weight())
        });
    }

    #[test]
    fn tighter_targets_need_higher_thresholds() {
        let mut net = two_conv_net(5);
        let x = blobby_batch(6);
        let loose = calibrate_thresholds(&mut net, &x, RegionSize::new(4, 4), 0.5);
        let tight = calibrate_thresholds(&mut net, &x, RegionSize::new(4, 4), 0.05);
        for (a, b) in tight.thresholds().iter().zip(loose.thresholds()) {
            assert!(a >= b, "tight {a} < loose {b}");
        }
    }

    #[test]
    fn trivial_target_yields_zero_thresholds() {
        let mut net = two_conv_net(7);
        let x = blobby_batch(8);
        let schedule = calibrate_thresholds(&mut net, &x, RegionSize::new(4, 4), 1.0);
        assert!(schedule.thresholds().iter().all(|&t| t == 0.0));
        assert_eq!(schedule.average(), 0.0);
    }

    #[test]
    fn uniform_config_uses_average() {
        let t = LayerThresholds::new(RegionSize::new(4, 16), vec![10.0, 30.0]);
        let cfg = t.to_uniform_config();
        assert_eq!(cfg.base_threshold(), 20.0);
        assert_eq!(cfg.base_region(), RegionSize::new(4, 16));
    }

    #[test]
    #[should_panic(expected = "target fraction")]
    fn rejects_zero_target() {
        let mut net = two_conv_net(9);
        let x = blobby_batch(10);
        let _ = calibrate_thresholds(&mut net, &x, RegionSize::new(4, 4), 0.0);
    }

    /// The schedule as calibration computed it before the predictor was
    /// split: at every probe, full masks per image from the single-pass
    /// predictor, averaged per image over channels and then over images.
    fn single_pass_schedule(
        net: &mut Network,
        x: &Tensor<f32>,
        region: RegionSize,
        target: f64,
    ) -> Vec<f32> {
        let mut inputs = Vec::new();
        let _ = net.forward_conv_override(x, &mut |_, conv, input| {
            inputs.push(input.clone());
            conv.forward_with_weights(input, conv.weight())
        });
        inputs
            .iter()
            .map(|x| {
                let s = x.shape4().unwrap();
                let layer_region = region.clamped_to(s.h, s.w);
                let frac_at = |t: f32| -> f64 {
                    let mut acc = 0.0;
                    for n in 0..s.n {
                        let masks = single_pass_masks(x, n, layer_region, t);
                        acc += masks.iter().map(MaskMap::sensitive_fraction).sum::<f64>()
                            / s.c as f64;
                    }
                    acc / s.n as f64
                };
                let (mut lo, mut hi) = (0u32, 127u32);
                if frac_at(0.0) <= target {
                    return 0.0;
                }
                while lo + 1 < hi {
                    let mid = (lo + hi) / 2;
                    if frac_at(mid as f32) <= target {
                        hi = mid;
                    } else {
                        lo = mid;
                    }
                }
                hi as f32
            })
            .collect()
    }

    #[test]
    fn schedules_equal_the_single_pass_formula() {
        for seed in [11, 12] {
            let mut net = two_conv_net(seed);
            let x = blobby_batch(seed + 100);
            for (region, target) in [(RegionSize::new(4, 4), 0.15), (RegionSize::new(3, 5), 0.4)] {
                let got = calibrate_thresholds(&mut net, &x, region, target);
                let want = single_pass_schedule(&mut net, &x, region, target);
                assert!(want.iter().any(|&t| t > 0.0 && t < 127.0), "{want:?} is degenerate");
                let bits = |t: &[f32]| t.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(got.thresholds()), bits(&want), "seed {seed}, {region}, {target}");
            }
        }
    }
}
