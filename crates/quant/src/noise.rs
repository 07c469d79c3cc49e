//! Segment-based noise injection (Section II-A of the paper).
//!
//! The paper classifies the values of a feature map into magnitude segments
//! using percentile thresholds (e.g. 20 % / 80 % of the value distribution:
//! segment 0 holds the largest 20 % of values, segment 1 the middle 60 %,
//! segment 2 the smallest 20 %), then perturbs chosen segments with noise of
//! magnitude `u` and measures the accuracy impact. Patterns are written as
//! strings of `T`/`F` per segment — "TFF" adds noise only to segment 0.

use drq_tensor::{percentile, Tensor, XorShiftRng};
use std::fmt;
use std::str::FromStr;

/// A partition of feature-map values into magnitude segments.
///
/// Built from the empirical value distribution with quantile cut points.
/// Segment 0 always contains the *largest* values.
///
/// # Examples
///
/// ```
/// use drq_quant::SegmentSplit;
///
/// let values: Vec<f32> = (0..100).map(|i| i as f32).collect();
/// // Paper default: thresholds at 20 % and 80 % of the distribution.
/// let split = SegmentSplit::from_values(&values, &[0.8, 0.2]);
/// assert_eq!(split.segment_of(99.0), 0);
/// assert_eq!(split.segment_of(50.0), 1);
/// assert_eq!(split.segment_of(1.0), 2);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SegmentSplit {
    /// Descending value thresholds; values above `thresholds[i]` belong to a
    /// segment `<= i`.
    thresholds: Vec<f32>,
}

impl SegmentSplit {
    /// Builds a split from data using quantiles (each in `(0, 1)`),
    /// interpreted as cut points of the value distribution; they are sorted
    /// descending internally.
    ///
    /// # Panics
    ///
    /// Panics if `values` is empty, `quantiles` is empty, or a quantile is
    /// outside `(0, 1)`.
    pub fn from_values(values: &[f32], quantiles: &[f64]) -> Self {
        assert!(!quantiles.is_empty(), "need at least one quantile");
        let mut qs: Vec<f64> = quantiles.to_vec();
        for &q in &qs {
            assert!(q > 0.0 && q < 1.0, "quantile {q} outside (0, 1)");
        }
        qs.sort_by(|a, b| b.partial_cmp(a).expect("NaN quantile"));
        let thresholds = qs.iter().map(|&q| percentile(values, q)).collect();
        Self { thresholds }
    }

    /// The paper's default three-segment split (cut points at 20 %/80 %).
    pub fn paper_default(values: &[f32]) -> Self {
        Self::from_values(values, &[0.8, 0.2])
    }

    /// Number of segments (`thresholds.len() + 1`).
    pub fn segments(&self) -> usize {
        self.thresholds.len() + 1
    }

    /// The descending thresholds.
    pub fn thresholds(&self) -> &[f32] {
        &self.thresholds
    }

    /// Segment index of a value: 0 for the largest values.
    pub fn segment_of(&self, v: f32) -> usize {
        for (i, &t) in self.thresholds.iter().enumerate() {
            if v > t {
                return i;
            }
        }
        self.thresholds.len()
    }

    /// Per-segment element counts over a slice.
    pub fn census(&self, values: &[f32]) -> Vec<usize> {
        let mut counts = vec![0usize; self.segments()];
        for &v in values {
            counts[self.segment_of(v)] += 1;
        }
        counts
    }
}

/// Which segments receive noise: `pattern[i] == true` ⇒ segment `i` is
/// perturbed. Parsed from strings like `"TFF"`.
///
/// # Examples
///
/// ```
/// use drq_quant::SegmentPattern;
///
/// let p: SegmentPattern = "TFT".parse().unwrap();
/// assert!(p.affects(0) && !p.affects(1) && p.affects(2));
/// assert_eq!(p.to_string(), "TFT");
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct SegmentPattern {
    flags: Vec<bool>,
}

impl SegmentPattern {
    /// Creates a pattern from per-segment flags.
    ///
    /// # Panics
    ///
    /// Panics if `flags` is empty.
    pub fn new(flags: Vec<bool>) -> Self {
        assert!(!flags.is_empty(), "pattern must cover at least one segment");
        Self { flags }
    }

    /// All 7 non-trivial three-segment patterns in the paper's Fig. 2 order.
    pub fn figure2_patterns() -> Vec<SegmentPattern> {
        ["TFF", "FTF", "FFT", "TTF", "TFT", "FTT", "TTT"]
            .iter()
            .map(|s| s.parse().expect("static pattern"))
            .collect()
    }

    /// Whether segment `i` is perturbed (out-of-range segments are not).
    pub fn affects(&self, segment: usize) -> bool {
        self.flags.get(segment).copied().unwrap_or(false)
    }

    /// Number of segments the pattern describes.
    pub fn len(&self) -> usize {
        self.flags.len()
    }

    /// Whether the pattern covers zero segments (never true for constructed
    /// patterns).
    pub fn is_empty(&self) -> bool {
        self.flags.is_empty()
    }
}

impl FromStr for SegmentPattern {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        if s.is_empty() {
            return Err("empty pattern".to_string());
        }
        let flags = s
            .chars()
            .map(|c| match c {
                'T' | 't' => Ok(true),
                'F' | 'f' => Ok(false),
                other => Err(format!("invalid pattern character {other:?}")),
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Self { flags })
    }
}

impl fmt::Display for SegmentPattern {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for &b in &self.flags {
            write!(f, "{}", if b { 'T' } else { 'F' })?;
        }
        Ok(())
    }
}

/// Injects noise of magnitude `u` into the segments a pattern selects.
///
/// The perturbation is relative: `x' = x * (1 + u * r)` with `r ~ N(0, 1)`,
/// so `u` is the dimensionless noise factor of the paper. Relative noise
/// reproduces Fig. 2's characteristic shape: perturbing the large values
/// ("TFF") distorts the features that carry information and degrades
/// accuracy at small `u`, while perturbing the near-zero values ("FFT")
/// leaves them near zero until `u` becomes very large — the paper's
/// observation 3.
///
/// # Examples
///
/// ```
/// use drq_quant::{NoiseInjector, SegmentSplit};
/// use drq_tensor::{Tensor, XorShiftRng};
///
/// let x = Tensor::from_vec((0..100).map(|i| i as f32).collect(), &[100]).unwrap();
/// let split = SegmentSplit::paper_default(x.as_slice());
/// let inj = NoiseInjector::new("FFT".parse().unwrap(), 0.5);
/// let mut rng = XorShiftRng::new(1);
/// let y = inj.apply(&x, &split, &mut rng);
/// // Large values (segment 0) are untouched by the FFT pattern.
/// assert_eq!(y.as_slice()[99], 99.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct NoiseInjector {
    pattern: SegmentPattern,
    u: f32,
}

impl NoiseInjector {
    /// Creates an injector for a pattern and noise factor `u >= 0`.
    ///
    /// # Panics
    ///
    /// Panics if `u` is negative or not finite.
    pub fn new(pattern: SegmentPattern, u: f32) -> Self {
        assert!(u.is_finite() && u >= 0.0, "noise factor must be non-negative");
        Self { pattern, u }
    }

    /// The noise factor.
    pub fn u(&self) -> f32 {
        self.u
    }

    /// The segment pattern.
    pub fn pattern(&self) -> &SegmentPattern {
        &self.pattern
    }

    /// Applies the noise to a tensor given a segment split.
    pub fn apply(
        &self,
        x: &Tensor<f32>,
        split: &SegmentSplit,
        rng: &mut XorShiftRng,
    ) -> Tensor<f32> {
        if self.u == 0.0 {
            return x.clone();
        }
        x.map(|v| {
            if self.pattern.affects(split.segment_of(v)) {
                v * (1.0 + self.u * rng.next_normal())
            } else {
                v
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp() -> Tensor<f32> {
        Tensor::from_vec((0..1000).map(|i| i as f32).collect(), &[1000]).unwrap()
    }

    #[test]
    fn default_split_has_paper_fractions() {
        let x = ramp();
        let split = SegmentSplit::paper_default(x.as_slice());
        let census = split.census(x.as_slice());
        assert_eq!(census.len(), 3);
        // ~20 % largest, ~60 % middle, ~20 % smallest.
        assert!((census[0] as f64 / 1000.0 - 0.2).abs() < 0.02, "{census:?}");
        assert!((census[1] as f64 / 1000.0 - 0.6).abs() < 0.02, "{census:?}");
        assert!((census[2] as f64 / 1000.0 - 0.2).abs() < 0.02, "{census:?}");
    }

    #[test]
    fn pattern_parse_round_trip() {
        for s in ["TFF", "FTF", "FFT", "TTT", "F"] {
            let p: SegmentPattern = s.parse().unwrap();
            assert_eq!(p.to_string(), s);
        }
        assert!("TXF".parse::<SegmentPattern>().is_err());
        assert!("".parse::<SegmentPattern>().is_err());
    }

    #[test]
    fn figure2_lists_seven_patterns() {
        let ps = SegmentPattern::figure2_patterns();
        assert_eq!(ps.len(), 7);
        assert_eq!(ps[0].to_string(), "TFF");
        assert_eq!(ps[6].to_string(), "TTT");
    }

    #[test]
    fn zero_u_is_identity() {
        let x = ramp();
        let split = SegmentSplit::paper_default(x.as_slice());
        let inj = NoiseInjector::new("TTT".parse().unwrap(), 0.0);
        let mut rng = XorShiftRng::new(1);
        assert_eq!(inj.apply(&x, &split, &mut rng), x);
    }

    #[test]
    fn only_selected_segments_change() {
        let x = ramp();
        let split = SegmentSplit::paper_default(x.as_slice());
        let inj = NoiseInjector::new("TFF".parse().unwrap(), 1.0);
        let mut rng = XorShiftRng::new(2);
        let y = inj.apply(&x, &split, &mut rng);
        for (i, (&a, &b)) in x.as_slice().iter().zip(y.as_slice()).enumerate() {
            match split.segment_of(a) {
                0 => {} // may change
                _ => assert_eq!(a, b, "untouched segment changed at {i}"),
            }
        }
        // Segment 0 should almost surely have changed somewhere.
        let changed = x
            .as_slice()
            .iter()
            .zip(y.as_slice())
            .filter(|(a, b)| a != b)
            .count();
        assert!(changed > 100, "noise did not land: {changed}");
    }

    #[test]
    fn noise_scales_with_u() {
        let x = ramp();
        let split = SegmentSplit::paper_default(x.as_slice());
        let l2 = |u: f32, seed: u64| {
            let inj = NoiseInjector::new("TTT".parse().unwrap(), u);
            let mut rng = XorShiftRng::new(seed);
            let y = inj.apply(&x, &split, &mut rng);
            x.as_slice()
                .iter()
                .zip(y.as_slice())
                .map(|(a, b)| (a - b).powi(2))
                .sum::<f32>()
                .sqrt()
        };
        assert!(l2(1.0, 3) > l2(0.01, 3) * 10.0);
    }

    #[test]
    fn segment_census_partitions_everything() {
        let x = ramp();
        let split = SegmentSplit::from_values(x.as_slice(), &[0.5]);
        let census = split.census(x.as_slice());
        assert_eq!(census.iter().sum::<usize>(), 1000);
        assert_eq!(census.len(), 2);
    }
}
