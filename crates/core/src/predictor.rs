//! The just-in-time sensitivity predictor (Section III-B), split into its
//! two stages: [`RegionSums`], the threshold-independent region filter, and
//! [`RegionSums::step`], the comparison against a threshold.
//! [`SensitivityPredictor`] composes the two.

use crate::{Int8Codes, MaskMap, RegionGrid, RegionSize};
use drq_quant::{Precision, QuantParams};
use drq_tensor::Tensor;

/// The threshold-independent stage of the predictor: for every channel of
/// one image, the `i32` sum of its INT8 codes ([`Int8Codes`]) in each
/// region of a [`RegionGrid`].
///
/// Dividing a sum by its region's pixel count is the paper's mean filter;
/// [`Self::step`] does that division and the step activation, so one set of
/// sums serves every threshold. The rows of each region row are added
/// column by column into one row of `i32`, whose region-width chunks then
/// give the region row's sums; integer sums are order-independent, so they
/// equal a pixel-by-pixel region walk exactly.
///
/// # Examples
///
/// ```
/// use drq_core::{Int8Codes, RegionSize, RegionSums};
/// use drq_tensor::Tensor;
///
/// // The top half of an 8x8 map is bright, the bottom half dark.
/// let x = Tensor::from_fn(&[1, 1, 8, 8], |i| if i < 32 { 1.0 } else { 0.0 });
/// let sums = RegionSums::new(&Int8Codes::quantize(&x), 0, RegionSize::new(4, 4));
/// // The top regions average 127 codes, the bottom ones 0.
/// let masks = sums.step(100.0);
/// assert!(masks[0].is_sensitive(0, 1));
/// assert!(!masks[0].is_sensitive(1, 0));
/// assert_eq!(sums.sensitive_fraction(100.0), 0.5);
/// assert_eq!(sums.sensitive_fraction(127.0), 0.0);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RegionSums {
    grid: RegionGrid,
    /// Channel `c`'s region `r` is `sums[c * grid.region_count() + r]`.
    sums: Vec<i32>,
}

impl RegionSums {
    /// Sums the codes of image `n` over the grid `region` induces on the
    /// map.
    ///
    /// # Panics
    ///
    /// Panics if `n` is out of range, or a region holds so many pixels
    /// (over 16M) that its sum could overflow `i32`.
    pub fn new(codes: &Int8Codes, n: usize, region: RegionSize) -> Self {
        let s = codes.shape();
        assert!(n < s.n, "image index out of range");
        let grid = RegionGrid::new(s.h, s.w, region);
        assert!(
            grid.region().area() <= (i32::MAX / 128) as usize,
            "region too large for i32 code sums"
        );
        let (regions, region) = (grid.region_count(), grid.region());
        let mut sums = vec![0i32; s.c * regions];
        let mut columns = vec![0i32; s.w];
        let image = codes.image(n);
        for (channel, out) in image.chunks_exact(s.h * s.w).zip(sums.chunks_exact_mut(regions)) {
            let region_rows = channel.chunks(region.x * s.w).zip(out.chunks_exact_mut(grid.cols()));
            for (rows, region_row) in region_rows {
                columns.fill(0);
                for row in rows.chunks_exact(s.w) {
                    for (c, &q) in columns.iter_mut().zip(row) {
                        *c += i32::from(q);
                    }
                }
                for (sum, chunk) in region_row.iter_mut().zip(columns.chunks(region.y)) {
                    *sum = chunk.iter().sum();
                }
            }
        }
        Self { grid, sums }
    }

    /// The sums of every image of `codes`.
    pub fn batch(codes: &Int8Codes, region: RegionSize) -> Vec<Self> {
        (0..codes.shape().n).map(|n| Self::new(codes, n, region)).collect()
    }

    /// The grid the sums cover.
    pub fn grid(&self) -> RegionGrid {
        self.grid
    }

    /// The step stage: one [`MaskMap`] per channel, a region sensitive
    /// when the mean of its codes exceeds `threshold` (INT8-code units).
    pub fn step(&self, threshold: f32) -> Vec<MaskMap> {
        let pixels = self.region_pixels();
        self.sums
            .chunks_exact(pixels.len())
            .map(|channel| {
                let bits = channel
                    .iter()
                    .zip(&pixels)
                    .map(|(&sum, &count)| exceeds(sum, count, threshold))
                    .collect();
                MaskMap::from_bits(self.grid, bits)
            })
            .collect()
    }

    /// The mean over channels of the sensitive-region fraction at
    /// `threshold`: equal, bit for bit, to the mean of
    /// [`MaskMap::sensitive_fraction`] over [`Self::step`]'s masks, without
    /// building them (0 for a map with no channels).
    pub fn sensitive_fraction(&self, threshold: f32) -> f64 {
        let pixels = self.region_pixels();
        let channels = self.sums.len() / pixels.len();
        if channels == 0 {
            return 0.0;
        }
        self.sums
            .chunks_exact(pixels.len())
            .map(|channel| {
                let sensitive = channel
                    .iter()
                    .zip(&pixels)
                    .filter(|&(&sum, &count)| exceeds(sum, count, threshold))
                    .count();
                sensitive as f64 / pixels.len() as f64
            })
            .sum::<f64>()
            / channels as f64
    }

    /// Each region's pixel count, row-major (edge regions may be partial).
    fn region_pixels(&self) -> Vec<f32> {
        let cols = self.grid.cols();
        (0..self.grid.region_count())
            .map(|i| {
                let (ys, xs) = self.grid.region_bounds(i / cols, i % cols);
                (ys.len() * xs.len()) as f32
            })
            .collect()
    }
}

/// Mean filtering followed by the step activation, for one region.
#[inline]
fn exceeds(sum: i32, pixels: f32, threshold: f32) -> bool {
    sum as f32 / pixels > threshold
}

/// Predicts sensitive regions of a feature map by mean filtering each
/// x×y region and comparing against a threshold (a step activation).
///
/// Following the paper, the feature map is first quantized to INT8
/// ([`Int8Codes`]) and the threshold is expressed in integer (INT8-code)
/// units — Table III reports per-network average thresholds of 17–25 on
/// that scale. The predictor emits one binary [`MaskMap`] per input
/// channel. Each prediction is [`RegionSums`] followed by
/// [`RegionSums::step`]; a caller that tries many thresholds on one map can
/// keep the sums and step them itself.
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
        self.sums(x, n).step(self.threshold)
    }

    /// Predicts masks for every image of an NCHW batch: `result[n]` equals
    /// `predict_image(x, n)` bit for bit, with the batch quantized once
    /// instead of once per image.
    ///
    /// # Panics
    ///
    /// Panics if `x` is not rank 4.
    pub fn predict_batch(&self, x: &Tensor<f32>) -> Vec<Vec<MaskMap>> {
        self.predict_codes(&Int8Codes::quantize(x))
    }

    /// Predicts masks for every image of already-quantized maps:
    /// [`Self::predict_batch`] on the tensor `codes` was quantized from.
    pub fn predict_codes(&self, codes: &Int8Codes) -> Vec<Vec<MaskMap>> {
        RegionSums::batch(codes, self.region).iter().map(|sums| sums.step(self.threshold)).collect()
    }

    /// Predicts masks for the first image of a batch (the common
    /// single-image inference case).
    pub fn predict(&self, x: &Tensor<f32>) -> Vec<MaskMap> {
        self.predict_image(x, 0)
    }

    /// Mean sensitive-region fraction across channels for image `n` —
    /// the quantity the threshold sweep of Fig. 14 trades against accuracy.
    pub fn sensitive_fraction(&self, x: &Tensor<f32>, n: usize) -> f64 {
        self.sums(x, n).sensitive_fraction(self.threshold)
    }

    /// Image `n`'s region sums under the batch-wide INT8 parameters.
    fn sums(&self, x: &Tensor<f32>, n: usize) -> RegionSums {
        RegionSums::new(&Int8Codes::quantize_images(x, n..n + 1), 0, self.region)
    }
}

/// The single-pass predictor as a pixel-by-pixel region walk — quantize,
/// sum, divide, compare in one loop — the oracle the split stages are
/// checked against (masks for image `n` under the batch-wide parameters).
#[cfg(test)]
pub(crate) fn single_pass_masks(
    x: &Tensor<f32>,
    n: usize,
    region: RegionSize,
    threshold: f32,
) -> Vec<MaskMap> {
    let s = x.shape4().unwrap();
    let params = SensitivityPredictor::activation_params(x);
    let grid = RegionGrid::new(s.h, s.w, region);
    (0..s.c)
        .map(|c| {
            let mut bits = Vec::with_capacity(grid.region_count());
            for r in 0..grid.rows() {
                for col in 0..grid.cols() {
                    let (ys, xs) = grid.region_bounds(r, col);
                    let (mut sum, mut count) = (0i64, 0usize);
                    for y in ys {
                        for xx in xs.clone() {
                            sum += i64::from(params.quantize_value(x[[n, c, y, xx]]));
                            count += 1;
                        }
                    }
                    bits.push(sum as f32 / count as f32 > threshold);
                }
            }
            MaskMap::from_bits(grid, bits)
        })
        .collect()
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

    #[test]
    fn sums_then_step_equals_the_single_pass_predictor() {
        const THRESHOLDS: [f32; 8] = [0.0, 0.5, 2.0, 10.0, 21.0, 40.0, 80.0, 127.0];
        let mut rng = XorShiftRng::new(21);
        let cases: Vec<(&str, Tensor<f32>, RegionSize)> = vec![
            // 7x9 under 3x4 regions: partial edge regions on both axes.
            (
                "partial edges",
                Tensor::from_fn(&[2, 3, 7, 9], |_| rng.next_f32().max(0.0) * 2.0),
                RegionSize::new(3, 4),
            ),
            // Signed inputs: codes reach -127, so sums and means go negative.
            (
                "negative inputs",
                Tensor::from_fn(&[2, 2, 10, 6], |_| rng.next_f32() * 2.0 - 1.0),
                RegionSize::new(4, 4),
            ),
            // One 64x64 region of codes pinned at +127 / -127: |sum| is
            // 64 * 64 * 127 = 520,192, past any 16-bit sum type.
            (
                "saturated full map",
                Tensor::from_fn(&[1, 2, 64, 64], |i| if i < 4096 { 1.0 } else { -1.0 }),
                RegionSize::new(64, 64),
            ),
        ];
        // The row chunks of `RegionSums::new` end in a partial chunk.
        assert!(cases.iter().any(|(_, x, r)| x.shape4().unwrap().w % r.y != 0));
        for (name, x, region) in &cases {
            let s = x.shape4().unwrap();
            let batch = RegionSums::batch(&Int8Codes::quantize(x), *region);
            assert_eq!(batch.len(), s.n, "{name}");
            for (n, sums) in batch.iter().enumerate() {
                for t in THRESHOLDS {
                    let want = single_pass_masks(x, n, *region, t);
                    assert_eq!(sums.step(t), want, "{name}: image {n}, threshold {t}");
                    let mean = want.iter().map(MaskMap::sensitive_fraction).sum::<f64>()
                        / want.len() as f64;
                    assert_eq!(
                        sums.sensitive_fraction(t).to_bits(),
                        mean.to_bits(),
                        "{name}: image {n}, threshold {t}"
                    );
                    let p = SensitivityPredictor::new(*region, t);
                    assert_eq!(p.predict_image(x, n), want, "{name}: image {n}, threshold {t}");
                }
            }
        }
        // The saturated map: every threshold below 127 flags the positive
        // channel's one region and never the negative channel's.
        let sums = RegionSums::batch(&Int8Codes::quantize(&cases[2].1), RegionSize::new(64, 64));
        assert_eq!(sums[0].grid().region_count(), 1);
        let counts: Vec<usize> = sums[0].step(80.0).iter().map(MaskMap::sensitive_count).collect();
        assert_eq!(counts, [1, 0]);
    }
}
