//! The just-in-time sensitivity predictor (Section III-B).

use crate::{MaskMap, RegionGrid, RegionSize};
use drq_quant::{Precision, QuantParams};
use drq_tensor::Tensor;

/// Predicts sensitive regions of a feature map by mean filtering each
/// x×y region and comparing against a threshold (a step activation).
///
/// Following the paper, the feature map is first quantized to INT8 and the
/// threshold is expressed in integer (INT8-code) units — Table III reports
/// per-network average thresholds of 17–25 on that scale. The predictor
/// emits one binary [`MaskMap`] per input channel.
///
/// # Examples
///
/// ```
/// use drq_core::{RegionSize, SensitivityPredictor};
/// use drq_tensor::Tensor;
///
/// // Bright 4x4 blob in an otherwise-dark 8x8 map.
/// let x = Tensor::from_fn(&[1, 1, 8, 8], |i| {
///     let (h, w) = (i / 8, i % 8);
///     if h < 4 && w < 4 { 1.0 } else { 0.0 }
/// });
/// let p = SensitivityPredictor::new(RegionSize::new(4, 4), 32.0);
/// let masks = p.predict(&x);
/// assert!(masks[0].is_sensitive(0, 0));
/// assert!(!masks[0].is_sensitive(1, 1));
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SensitivityPredictor {
    region: RegionSize,
    threshold: f32,
}

impl SensitivityPredictor {
    /// Creates a predictor with a region size and an integer-domain
    /// threshold (compared against the mean of INT8 codes in a region).
    ///
    /// # Panics
    ///
    /// Panics if the threshold is negative or not finite.
    pub fn new(region: RegionSize, threshold: f32) -> Self {
        assert!(threshold.is_finite() && threshold >= 0.0, "threshold must be non-negative");
        Self { region, threshold }
    }

    /// The region size.
    pub fn region(&self) -> RegionSize {
        self.region
    }

    /// The integer-domain threshold.
    pub fn threshold(&self) -> f32 {
        self.threshold
    }

    /// Returns a predictor with the same region and a new threshold.
    pub fn with_threshold(&self, threshold: f32) -> Self {
        Self::new(self.region, threshold)
    }

    /// The INT8 activation quantization parameters used for `x` (max-abs
    /// calibration, matching Section III-B's FP32→INT8 step).
    pub fn activation_params(x: &Tensor<f32>) -> QuantParams {
        QuantParams::fit(x.as_slice(), Precision::Int8)
    }

    /// Predicts masks for every channel of image `n` of an NCHW tensor.
    /// The INT8 parameters are fitted over the whole batch `x`; to predict
    /// every image of a batch, [`Self::predict_batch`] fits them once.
    ///
    /// # Panics
    ///
    /// Panics if `x` is not rank 4 or `n` is out of range.
    pub fn predict_image(&self, x: &Tensor<f32>, n: usize) -> Vec<MaskMap> {
        self.predict_with(x, n, &Self::activation_params(x))
    }

    /// Predicts masks for every image of an NCHW batch: `result[n]` equals
    /// `predict_image(x, n)` bit for bit, with the batch-wide INT8
    /// parameters fitted once instead of once per image.
    ///
    /// # Panics
    ///
    /// Panics if `x` is not rank 4.
    pub fn predict_batch(&self, x: &Tensor<f32>) -> Vec<Vec<MaskMap>> {
        let s = x.shape4().expect("predictor input must be rank 4");
        let params = Self::activation_params(x);
        (0..s.n).map(|n| self.predict_with(x, n, &params)).collect()
    }

    /// The mean filter + step activation of image `n` under `params`.
    /// Region sums accumulate from contiguous row slices through a
    /// column-to-region table; integer sums are order-independent, so the
    /// masks equal a pixel-by-pixel region walk exactly.
    fn predict_with(&self, x: &Tensor<f32>, n: usize, params: &QuantParams) -> Vec<MaskMap> {
        let s = x.shape4().expect("predictor input must be rank 4");
        assert!(n < s.n, "image index out of range");
        let grid = RegionGrid::new(s.h, s.w, self.region);
        let (rows, cols) = (grid.rows(), grid.cols());
        let col_region: Vec<usize> = (0..s.w).map(|xx| grid.region_of(0, xx).1).collect();
        let counts: Vec<usize> = (0..rows * cols)
            .map(|i| {
                let (ys, xs) = grid.region_bounds(i / cols, i % cols);
                ys.len() * xs.len()
            })
            .collect();
        let plane = s.h * s.w;
        let image = &x.as_slice()[n * s.c * plane..(n + 1) * s.c * plane];
        let mut sums = vec![0i64; rows * cols];
        image
            .chunks_exact(plane)
            .map(|channel| {
                sums.fill(0);
                for (y, row) in channel.chunks_exact(s.w).enumerate() {
                    let region_row = &mut sums[grid.region_of(y, 0).0 * cols..][..cols];
                    for (&v, &rc) in row.iter().zip(&col_region) {
                        region_row[rc] += i64::from(params.quantize_value(v));
                    }
                }
                // Mean filtering followed by the step activation.
                let bits = sums
                    .iter()
                    .zip(&counts)
                    .map(|(&sum, &count)| sum as f32 / count.max(1) as f32 > self.threshold)
                    .collect();
                MaskMap::from_bits(grid, bits)
            })
            .collect()
    }

    /// Predicts masks for the first image of a batch (the common
    /// single-image inference case).
    pub fn predict(&self, x: &Tensor<f32>) -> Vec<MaskMap> {
        self.predict_image(x, 0)
    }

    /// Mean sensitive-region fraction across channels for image `n` —
    /// the quantity the threshold sweep of Fig. 14 trades against accuracy.
    pub fn sensitive_fraction(&self, x: &Tensor<f32>, n: usize) -> f64 {
        let masks = self.predict_image(x, n);
        if masks.is_empty() {
            return 0.0;
        }
        masks.iter().map(MaskMap::sensitive_fraction).sum::<f64>() / masks.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use drq_tensor::XorShiftRng;

    fn blob_map() -> Tensor<f32> {
        // Two channels: channel 0 has a bright top-left blob, channel 1 is flat.
        Tensor::from_fn(&[1, 2, 8, 8], |i| {
            let c = i / 64;
            let p = i % 64;
            let (h, w) = (p / 8, p % 8);
            if c == 0 && h < 4 && w < 4 {
                2.0
            } else {
                0.01
            }
        })
    }

    #[test]
    fn per_channel_masks_are_independent() {
        let p = SensitivityPredictor::new(RegionSize::new(4, 4), 10.0);
        let masks = p.predict(&blob_map());
        assert_eq!(masks.len(), 2);
        assert!(masks[0].is_sensitive(0, 0));
        assert_eq!(masks[1].sensitive_count(), 0);
    }

    #[test]
    fn zero_threshold_marks_everything_with_positive_mean() {
        let p = SensitivityPredictor::new(RegionSize::new(4, 4), 0.0);
        let masks = p.predict(&blob_map());
        // Every region has strictly positive mean, so all are sensitive.
        assert_eq!(masks[0].sensitive_count(), 4);
    }

    #[test]
    fn huge_threshold_marks_nothing() {
        let p = SensitivityPredictor::new(RegionSize::new(4, 4), 127.0);
        let masks = p.predict(&blob_map());
        assert_eq!(masks[0].sensitive_count() + masks[1].sensitive_count(), 0);
    }

    #[test]
    fn sensitive_fraction_decreases_with_threshold() {
        // Monotonicity of the step activation in the threshold.
        let mut rng = XorShiftRng::new(5);
        let x = Tensor::from_fn(&[1, 3, 16, 16], |_| rng.next_f32().max(0.0));
        let fractions: Vec<f64> = [0.0f32, 10.0, 30.0, 60.0, 127.0]
            .iter()
            .map(|&t| {
                SensitivityPredictor::new(RegionSize::new(4, 4), t).sensitive_fraction(&x, 0)
            })
            .collect();
        for w in fractions.windows(2) {
            assert!(w[1] <= w[0] + 1e-12, "{fractions:?}");
        }
        assert_eq!(*fractions.last().unwrap(), 0.0);
    }

    #[test]
    fn mean_filter_uses_region_mean_not_sum() {
        // A large region with one bright pixel must not trip a threshold the
        // bright pixel alone would exceed if summed.
        let mut x = Tensor::<f32>::zeros(&[1, 1, 8, 8]);
        x[[0, 0, 0, 0]] = 1.0; // quantizes to 127
        let p = SensitivityPredictor::new(RegionSize::new(8, 8), 10.0);
        let masks = p.predict(&x);
        // Mean is 127/64 ≈ 2 < 10: insensitive.
        assert_eq!(masks[0].sensitive_count(), 0);
        // But a per-pixel region grid flags it.
        let p1 = SensitivityPredictor::new(RegionSize::new(1, 1), 10.0);
        assert_eq!(p1.predict(&x)[0].sensitive_count(), 1);
    }

    #[test]
    fn batch_images_predict_independently() {
        let mut x = Tensor::<f32>::zeros(&[2, 1, 4, 4]);
        for h in 0..4 {
            for w in 0..4 {
                x[[1, 0, h, w]] = 1.0;
            }
        }
        let p = SensitivityPredictor::new(RegionSize::new(4, 4), 50.0);
        assert_eq!(p.predict_image(&x, 0)[0].sensitive_count(), 0);
        assert_eq!(p.predict_image(&x, 1)[0].sensitive_count(), 1);
    }

    #[test]
    fn predict_batch_equals_per_image_predictions() {
        // Images with different peaks: the batch-wide fit must be the one
        // every image shares, as `predict_image` uses.
        let mut rng = XorShiftRng::new(8);
        let x = Tensor::from_fn(&[3, 2, 7, 9], |i| rng.next_f32() * (1 + i / 126) as f32);
        let p = SensitivityPredictor::new(RegionSize::new(3, 4), 20.0);
        let batch = p.predict_batch(&x);
        assert_eq!(batch.len(), 3);
        for (n, masks) in batch.iter().enumerate() {
            assert_eq!(masks, &p.predict_image(&x, n), "image {n}");
        }
    }
}
