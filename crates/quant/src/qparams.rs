//! Symmetric linear quantization parameters.

use crate::Precision;

/// `1.5·2^23`: adding it to an integer `q` with `|q| < 2^22` is exact and
/// leaves the sum in `[2^23, 2^24)`, where the unit in the last place is 1.
const INT_BIAS: f32 = 12_582_912.0;

/// Parameters of a symmetric linear quantizer: `q = round(x / scale)`,
/// clamped to the precision's range, and `x ≈ q * scale`.
///
/// Symmetric (zero-point-free) quantization is what integer MAC arrays such
/// as the DRQ PE implement naturally, and is the scheme the paper assumes
/// ("we first quantize the input feature map from FP32 to INT8",
/// Section III-B).
///
/// # Examples
///
/// ```
/// use drq_quant::{Precision, QuantParams};
///
/// let p = QuantParams::new(0.5, Precision::Int4);
/// assert_eq!(p.quantize_value(1.2), 2);   // 1.2 / 0.5 = 2.4 -> 2
/// assert_eq!(p.quantize_value(100.0), 7); // clamped to q_max
/// assert_eq!(p.dequantize_value(2), 1.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QuantParams {
    scale: f32,
    precision: Precision,
}

impl QuantParams {
    /// Creates parameters with an explicit scale.
    ///
    /// # Panics
    ///
    /// Panics if `scale` is not finite and positive.
    pub fn new(scale: f32, precision: Precision) -> Self {
        assert!(scale.is_finite() && scale > 0.0, "scale must be positive, got {scale}");
        Self { scale, precision }
    }

    /// Calibrates the scale so the largest magnitude in `values` maps to
    /// `q_max`. An all-zero (or empty) input yields a scale of 1.
    pub fn fit(values: &[f32], precision: Precision) -> Self {
        let max_abs = values.iter().fold(0.0f32, |m, v| m.max(v.abs()));
        let scale = if max_abs > 0.0 {
            max_abs / precision.q_max() as f32
        } else {
            1.0
        };
        Self::new(scale, precision)
    }

    /// The quantization step size.
    pub fn scale(&self) -> f32 {
        self.scale
    }

    /// The target precision.
    pub fn precision(&self) -> Precision {
        self.precision
    }

    /// Quantizes one value: round to nearest (ties away from zero), clamp
    /// to the precision's range; NaN maps to 0.
    #[inline]
    pub fn quantize_value(&self, x: f32) -> i32 {
        let (lo, hi) = (self.precision.q_min() as f32, self.precision.q_max() as f32);
        let y = x / self.scale;
        // Clamping before rounding gives the same code as rounding first,
        // since the bounds are integers and rounding is monotone.
        let q = if y.is_nan() { 0.0 } else { y }.max(lo).min(hi).round();
        // `q` is an integer below 2^22 in magnitude, so its code is the
        // difference of the biased sum's bits and the bias's: a conversion
        // that, unlike a saturating `as i32`, vectorizes.
        (q + INT_BIAS).to_bits() as i32 - INT_BIAS.to_bits() as i32
    }

    /// Dequantizes one value.
    pub fn dequantize_value(&self, q: i32) -> f32 {
        q as f32 * self.scale
    }

    /// Round-trips one value through the quantizer (fake quantization).
    pub fn fake_quantize_value(&self, x: f32) -> f32 {
        self.dequantize_value(self.quantize_value(x))
    }

    /// Re-targets these parameters at a lower precision by widening the
    /// step so the representable range is preserved. This is exactly the
    /// paper's "clip the precision of the kernel weights to INT4"
    /// (Section III-C, case 2): the INT8 value's upper bits are kept.
    pub fn clip_to(&self, precision: Precision) -> QuantParams {
        let ratio = (self.precision.q_max() as f32 + 1.0) / (precision.q_max() as f32 + 1.0);
        QuantParams::new(self.scale * ratio, precision)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fit_maps_extreme_to_qmax() {
        let p = QuantParams::fit(&[0.3, -1.6, 0.9], Precision::Int8);
        assert_eq!(p.quantize_value(-1.6), -127);
        assert_eq!(p.quantize_value(1.6), 127);
    }

    #[test]
    fn fit_of_zeros_is_identityish() {
        let p = QuantParams::fit(&[0.0, 0.0], Precision::Int8);
        assert_eq!(p.scale(), 1.0);
        assert_eq!(p.quantize_value(0.0), 0);
    }

    #[test]
    fn round_trip_error_bounded_by_half_step() {
        let p = QuantParams::fit(&[2.0], Precision::Int8);
        for i in -20..=20 {
            let x = i as f32 * 0.1;
            let err = (p.fake_quantize_value(x) - x).abs();
            assert!(err <= p.scale() / 2.0 + 1e-6, "x={x} err={err}");
        }
    }

    #[test]
    fn clamping_saturates() {
        let p = QuantParams::new(1.0, Precision::Int4);
        assert_eq!(p.quantize_value(1000.0), 7);
        assert_eq!(p.quantize_value(-1000.0), -8);
    }

    #[test]
    fn clip_to_int4_preserves_range() {
        let p8 = QuantParams::fit(&[4.0], Precision::Int8);
        let p4 = p8.clip_to(Precision::Int4);
        // The representable maxima should be approximately equal.
        let max8 = p8.dequantize_value(p8.precision().q_max());
        let max4 = p4.dequantize_value(p4.precision().q_max());
        assert!((max8 - max4).abs() / max8 < 0.15, "{max8} vs {max4}");
        // INT4 step is coarser.
        assert!(p4.scale() > p8.scale());
    }

    #[test]
    fn clip_matches_bit_truncation_semantics() {
        // Dropping the low 4 bits of an INT8 code divides it by 16; the
        // widened scale must compensate so magnitudes survive.
        let p8 = QuantParams::new(0.01, Precision::Int8);
        let p4 = p8.clip_to(Precision::Int4);
        assert!((p4.scale() / p8.scale() - 16.0).abs() < 1e-5);
    }

    /// `quantize_value` as round-then-clamp in `i64` with a saturating
    /// cast: the oracle its vectorizable body must equal on every `f32`.
    fn quantize_reference(p: &QuantParams, x: f32) -> i32 {
        let q = (x / p.scale()).round() as i64;
        q.clamp(p.precision().q_min() as i64, p.precision().q_max() as i64) as i32
    }

    fn assert_matches_reference(p: &QuantParams, x: f32) {
        let (got, want) = (p.quantize_value(x), quantize_reference(p, x));
        assert_eq!(got, want, "{p:?}, x = {x:e} ({:#010x})", x.to_bits());
    }

    #[test]
    fn quantize_value_edge_cases() {
        // Dyadic scales keep `half * scale / scale` an exact half-step.
        for scale in [1.0f32, 0.125, 0.0078125] {
            let p = QuantParams::new(scale, Precision::Int8);
            for (y, want) in [
                (0.0f32, 0),
                (-0.0, 0),
                (0.5, 1),
                (-0.5, -1),
                (126.5, 127),
                (127.5, 127),
                (-127.5, -128),
                (-128.5, -128),
                (1e6, 127),
                (-1e6, -128),
            ] {
                assert_eq!(p.quantize_value(y * scale), want, "{y} steps at scale {scale}");
                assert_matches_reference(&p, y * scale);
            }
            for x in [f32::NAN, -f32::NAN, f32::INFINITY, f32::NEG_INFINITY, f32::MAX, f32::MIN] {
                assert_matches_reference(&p, x);
            }
            assert_eq!(p.quantize_value(f32::NAN), 0);
            assert_eq!(p.quantize_value(f32::INFINITY), 127);
            assert_eq!(p.quantize_value(f32::NEG_INFINITY), -128);
        }
    }

    #[test]
    fn quantize_value_matches_reference_on_a_bit_pattern_sweep() {
        // Every 4099th bit pattern (about a million values, NaNs, infinities
        // and subnormals included) under every precision.
        for precision in Precision::ALL {
            for scale in [1.0f32, 0.01, 0.37, 3.0e-5] {
                let p = QuantParams::new(scale, precision);
                for bits in (0..=u32::MAX).step_by(4099) {
                    assert_matches_reference(&p, f32::from_bits(bits));
                }
            }
        }
    }

    /// Every `f32` bit pattern under INT8 (`scripts/ci.sh` runs it).
    #[test]
    #[ignore = "2^32 values; run in release mode"]
    fn quantize_value_matches_reference_on_every_f32() {
        let p = QuantParams::new(0.01, Precision::Int8);
        for bits in 0..=u32::MAX {
            assert_matches_reference(&p, f32::from_bits(bits));
        }
    }

    #[test]
    #[should_panic(expected = "scale must be positive")]
    fn rejects_bad_scale() {
        let _ = QuantParams::new(0.0, Precision::Int8);
    }
}
