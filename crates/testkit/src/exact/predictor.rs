//! The pooling-fused sensitivity predictor of Figs. 9–10, run value by
//! value. `drq_sim::PredictorUnit` keeps the storage and op-count formulas
//! the energy model uses; this is the datapath those formulas describe.

use drq_core::{MaskMap, RegionSize, SensitivityPredictor};
use drq_sim::PredictorUnit;
use drq_tensor::Tensor;

/// Runs the pooling-fused prediction of Figs. 9–10: average-pool the
/// feature map with an n×n window, then sum pooling outputs inside each
/// x×y prediction window and apply the step threshold. The produced
/// mask covers the *pooled* map (the next layer's input) with regions
/// of `(x/n) × (y/n)` pooled pixels.
///
/// `unit` supplies the region and the pooling window `n`. Because
/// averaging is associative, this equals running the plain
/// [`SensitivityPredictor`] directly on the pooled map with the scaled
/// region — the equivalence the hardware reuse relies on, asserted by this
/// module's tests.
///
/// # Panics
///
/// Panics if `x` is not rank 4, the image index is out of range, or the
/// region is not a multiple of the pooling window.
pub fn predict_via_pooling(
    unit: &PredictorUnit,
    x: &Tensor<f32>,
    image: usize,
    threshold: f32,
) -> Vec<MaskMap> {
    let s = x.shape4().expect("predictor input must be rank 4");
    assert!(image < s.n, "image index out of range");
    let n = unit.pool_n();
    assert!(
        unit.region().x.is_multiple_of(n) && unit.region().y.is_multiple_of(n),
        "prediction window must contain whole pooling windows"
    );
    // Average pooling (floor semantics on ragged edges).
    let (ph, pw) = (s.h / n, s.w / n);
    assert!(ph > 0 && pw > 0, "pooling window larger than the map");
    let mut pooled = Tensor::<f32>::zeros(&[1, s.c, ph, pw]);
    {
        let xs = x.as_slice();
        let ps = pooled.shape4().expect("pooled rank");
        let pv = pooled.as_mut_slice();
        for c in 0..s.c {
            for py in 0..ph {
                for px in 0..pw {
                    let mut sum = 0.0;
                    for dy in 0..n {
                        for dx in 0..n {
                            sum += xs[s.offset(image, c, py * n + dy, px * n + dx)];
                        }
                    }
                    pv[ps.offset(0, c, py, px)] = sum / (n * n) as f32;
                }
            }
        }
    }
    // Prediction on the pooled map with the scaled region: identical
    // region means, hence identical masks.
    let scaled = RegionSize::new(unit.region().x / n, unit.region().y / n);
    SensitivityPredictor::new(scaled, threshold).predict(&pooled)
}

#[cfg(test)]
mod tests {
    use super::*;
    use drq_tensor::XorShiftRng;

    #[test]
    fn pooling_fused_prediction_matches_direct_prediction() {
        // The Fig. 9 reuse is exact: summing n×n average-pooling outputs
        // inside an x×y window equals mean-filtering the pooled map with an
        // (x/n)×(y/n) window. Verify mask-for-mask on structured inputs
        // where region means sit well away from the threshold (the two
        // paths quantize at slightly different scales, so knife-edge means
        // could legitimately flip).
        let mut rng = XorShiftRng::new(5);
        let x = Tensor::from_fn(&[1, 3, 16, 16], |i| {
            let p = i % 256;
            let (h, w) = (p / 16, p % 16);
            if h < 8 && w < 8 {
                0.9 + 0.1 * rng.next_f32()
            } else {
                0.01 * rng.next_f32()
            }
        });
        let unit = PredictorUnit::new(RegionSize::new(4, 4), 2);
        let fused = predict_via_pooling(&unit, &x, 0, 20.0);
        // Direct path: pool by hand, then plain predictor at 2x2 regions.
        let mut pooled = Tensor::<f32>::zeros(&[1, 3, 8, 8]);
        for c in 0..3 {
            for py in 0..8 {
                for px in 0..8 {
                    let mut sum = 0.0;
                    for dy in 0..2 {
                        for dx in 0..2 {
                            sum += x[[0, c, py * 2 + dy, px * 2 + dx]];
                        }
                    }
                    pooled[[0, c, py, px]] = sum / 4.0;
                }
            }
        }
        let direct = SensitivityPredictor::new(RegionSize::new(2, 2), 20.0).predict(&pooled);
        assert_eq!(fused.len(), direct.len());
        for (a, b) in fused.iter().zip(&direct) {
            assert_eq!(a.bits(), b.bits());
        }
    }

    #[test]
    #[should_panic(expected = "whole pooling windows")]
    fn fused_prediction_requires_aligned_windows() {
        let unit = PredictorUnit::new(RegionSize::new(3, 3), 2);
        let x = Tensor::<f32>::zeros(&[1, 1, 8, 8]);
        let _ = predict_via_pooling(&unit, &x, 0, 10.0);
    }
}
