//! Outlier-aware weight quantization (the OLAccel baseline).
//!
//! OLAccel (Park et al., ISCA 2018 — reference 26 of the DRQ paper) keeps
//! a small fraction of large-magnitude *weights* at high precision and
//! quantizes the dense remainder to INT4. This module reimplements that
//! static scheme so the DRQ evaluation can compare against it: the
//! quantization is decided entirely from the weight distribution before any
//! input is seen, which is precisely the property DRQ improves upon.

use crate::{Precision, QuantParams};
use drq_tensor::{percentile, Tensor};

/// Statistics of one outlier-aware quantization pass.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OutlierStats {
    /// Total number of weights.
    pub total: usize,
    /// Number classified as outliers (kept high-precision).
    pub outliers: usize,
    /// Magnitude threshold above which a weight is an outlier.
    pub threshold: f32,
}

impl OutlierStats {
    /// Fraction of weights that are outliers.
    pub fn outlier_fraction(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.outliers as f64 / self.total as f64
        }
    }
}

/// Outlier-aware quantizer: dense values at `low` precision, the top
/// `outlier_ratio` fraction by magnitude at `high` precision.
///
/// # Examples
///
/// ```
/// use drq_quant::{OutlierQuantizer, Precision};
/// use drq_tensor::Tensor;
///
/// let q = OutlierQuantizer::new(0.03, Precision::Int4, Precision::Int16);
/// let w = Tensor::from_vec(vec![0.01, -0.02, 5.0, 0.015], &[1, 1, 2, 2]).unwrap();
/// let (wq, stats) = q.apply(&w);
/// assert_eq!(stats.outliers, 1); // only the 5.0
/// assert!((wq.as_slice()[2] - 5.0).abs() < 0.01); // outlier kept accurately
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OutlierQuantizer {
    outlier_ratio: f64,
    low: Precision,
    high: Precision,
}

impl OutlierQuantizer {
    /// Creates a quantizer keeping the top `outlier_ratio` (in `[0, 0.5]`)
    /// of magnitudes at `high` precision.
    ///
    /// # Panics
    ///
    /// Panics if the ratio is outside `[0, 0.5]` or `high <= low`.
    pub fn new(outlier_ratio: f64, low: Precision, high: Precision) -> Self {
        assert!((0.0..=0.5).contains(&outlier_ratio), "outlier ratio out of range");
        assert!(high > low, "high precision must exceed low precision");
        Self { outlier_ratio, low, high }
    }

    /// The OLAccel paper's configuration: ~3 % outliers, INT4 dense values,
    /// INT16 outliers.
    pub fn olaccel_default() -> Self {
        Self::new(0.03, Precision::Int4, Precision::Int16)
    }

    /// Fake-quantizes a weight tensor: outliers round-trip at the high
    /// precision, everything else at the low precision calibrated to the
    /// *dense* (non-outlier) range.
    pub fn apply(&self, w: &Tensor<f32>) -> (Tensor<f32>, OutlierStats) {
        if w.is_empty() {
            return (
                w.clone(),
                OutlierStats { total: 0, outliers: 0, threshold: 0.0 },
            );
        }
        let mags: Vec<f32> = w.as_slice().iter().map(|v| v.abs()).collect();
        let threshold = if self.outlier_ratio == 0.0 {
            f32::INFINITY
        } else {
            percentile(&mags, 1.0 - self.outlier_ratio)
        };
        // The dense scale fits the sub-threshold range only: the key trick
        // that keeps the dense INT4 grid fine.
        let dense_max = mags
            .iter()
            .copied()
            .filter(|&m| m <= threshold)
            .fold(0.0f32, f32::max);
        let dense_params = if dense_max > 0.0 {
            QuantParams::new(dense_max / self.low.q_max() as f32, self.low)
        } else {
            QuantParams::new(1.0, self.low)
        };
        let high_params = QuantParams::fit(w.as_slice(), self.high);
        let mut outliers = 0usize;
        let out = w.map(|v| {
            if v.abs() > threshold {
                outliers += 1;
                high_params.fake_quantize_value(v)
            } else {
                dense_params.fake_quantize_value(v)
            }
        });
        (
            out,
            OutlierStats { total: w.len(), outliers, threshold },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use drq_tensor::XorShiftRng;

    fn heavy_tailed(n: usize, seed: u64) -> Tensor<f32> {
        // Mostly small Gaussian weights plus a few large outliers — the
        // weight distribution shape OLAccel exploits.
        let mut rng = XorShiftRng::new(seed);
        Tensor::from_fn(&[n], |i| {
            if i % 37 == 0 {
                rng.next_normal() * 3.0
            } else {
                rng.next_normal() * 0.1
            }
        })
    }

    #[test]
    fn outlier_fraction_matches_ratio() {
        let w = heavy_tailed(10_000, 1);
        let (_, stats) = OutlierQuantizer::olaccel_default().apply(&w);
        assert!((stats.outlier_fraction() - 0.03).abs() < 0.01, "{stats:?}");
    }

    #[test]
    fn outlier_aware_beats_plain_int4() {
        let w = heavy_tailed(4096, 2);
        let (ol, _) = OutlierQuantizer::olaccel_default().apply(&w);
        let plain = {
            let p = QuantParams::fit(w.as_slice(), Precision::Int4);
            crate::fake_quantize(&w, &p)
        };
        let mse = |a: &Tensor<f32>| {
            w.as_slice()
                .iter()
                .zip(a.as_slice())
                .map(|(x, y)| (x - y).powi(2))
                .sum::<f32>()
        };
        assert!(
            mse(&ol) < mse(&plain) * 0.5,
            "outlier-aware {} vs plain {}",
            mse(&ol),
            mse(&plain)
        );
    }

    #[test]
    fn zero_ratio_quantizes_everything_low() {
        let w = heavy_tailed(512, 3);
        let q = OutlierQuantizer::new(0.0, Precision::Int4, Precision::Int16);
        let (_, stats) = q.apply(&w);
        assert_eq!(stats.outliers, 0);
    }

    #[test]
    fn empty_tensor_is_handled() {
        let w = Tensor::<f32>::zeros(&[0]);
        let (out, stats) = OutlierQuantizer::olaccel_default().apply(&w);
        assert!(out.is_empty());
        assert_eq!(stats.total, 0);
        assert_eq!(stats.outlier_fraction(), 0.0);
    }

    #[test]
    #[should_panic(expected = "high precision")]
    fn rejects_inverted_precisions() {
        let _ = OutlierQuantizer::new(0.03, Precision::Int8, Precision::Int4);
    }

    #[test]
    fn dense_values_snap_to_dense_grid() {
        let q = OutlierQuantizer::new(0.1, Precision::Int4, Precision::Int16);
        let w = Tensor::from_vec(vec![0.1, 0.2, -0.15, 0.05, 10.0], &[5]).unwrap();
        let (wq, stats) = q.apply(&w);
        assert_eq!(stats.outliers, 1);
        // Dense scale ≈ 0.2/7; every dense output is a multiple of it.
        let step = 0.2 / 7.0;
        for &v in &wq.as_slice()[..4] {
            let k = v / step;
            assert!((k - k.round()).abs() < 1e-3, "{v} not on grid");
        }
    }
}
