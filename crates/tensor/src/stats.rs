//! Value-distribution statistics.
//!
//! The segment analysis of Section II classifies feature-map values by
//! magnitude percentile (the paper's thresholds at 20 % and 80 % of the value
//! distribution).

/// Returns the `q`-quantile (`0.0..=1.0`) of `values` using linear
/// interpolation between order statistics.
///
/// # Panics
///
/// Panics if `values` is empty or `q` is outside `[0, 1]`.
///
/// # Examples
///
/// ```
/// use drq_tensor::percentile;
///
/// let v = [1.0, 2.0, 3.0, 4.0, 5.0];
/// assert_eq!(percentile(&v, 0.0), 1.0);
/// assert_eq!(percentile(&v, 0.5), 3.0);
/// assert_eq!(percentile(&v, 1.0), 5.0);
/// ```
pub fn percentile(values: &[f32], q: f64) -> f32 {
    assert!(!values.is_empty(), "percentile of empty slice");
    assert!((0.0..=1.0).contains(&q), "quantile {q} outside [0, 1]");
    let mut sorted: Vec<f32> = values.to_vec();
    // IEEE total order: NaNs sort deterministically after +inf instead of
    // poisoning the comparator, so adversarial inputs cannot panic here.
    sorted.sort_by(f32::total_cmp);
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    if lo == hi {
        sorted[lo]
    } else {
        let frac = (pos - lo as f64) as f32;
        sorted[lo] * (1.0 - frac) + sorted[hi] * frac
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates() {
        let v = [0.0, 10.0];
        assert_eq!(percentile(&v, 0.25), 2.5);
        assert_eq!(percentile(&v, 0.75), 7.5);
    }

    #[test]
    fn percentile_handles_single_element() {
        assert_eq!(percentile(&[42.0], 0.0), 42.0);
        assert_eq!(percentile(&[42.0], 1.0), 42.0);
        assert_eq!(percentile(&[42.0], 0.3), 42.0);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn percentile_rejects_empty() {
        percentile(&[], 0.5);
    }

    #[test]
    fn paper_segment_thresholds() {
        // The 20 %/80 % thresholds of Section II-A: segment 0 should catch
        // exactly the top 20 % of a uniform ramp.
        let values: Vec<f32> = (0..1000).map(|i| i as f32).collect();
        let t80 = percentile(&values, 0.8);
        let above = values.iter().filter(|&&v| v > t80).count();
        assert!((above as f64 / 1000.0 - 0.2).abs() < 0.01);
    }
}
