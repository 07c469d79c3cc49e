//! Statistical synthesis of post-BN+ReLU feature maps.
//!
//! Running real ImageNet images through full-size ResNet-50/Inception-v3 is
//! outside this repository's substrate, but the accelerator simulation only
//! needs each layer's *binary sensitivity masks* — which depend on the
//! spatial statistics of the activations, not their semantic content.
//! Section II of the paper establishes those statistics: after BN+ReLU the
//! majority of values are (near) zero while a small set of large values
//! aggregates into spatial blobs. This synthesizer reproduces exactly that
//! structure so the simulators can be driven at full network scale.

use crate::topology::ConvLayerSpec;
use drq_core::{DrqConfig, MaskMap, RegionSize, RegionSums, SensitivityPredictor};
use drq_tensor::{Tensor, XorShiftRng};

/// Generates sparse, blob-structured activation maps.
///
/// # Examples
///
/// ```
/// use drq_models::FeatureMapSynthesizer;
/// use drq_tensor::XorShiftRng;
///
/// let synth = FeatureMapSynthesizer::default();
/// let mut rng = XorShiftRng::new(1);
/// let x = synth.synthesize(8, 32, 32, &mut rng);
/// assert_eq!(x.shape(), &[1, 8, 32, 32]);
/// // Post-ReLU: non-negative everywhere.
/// assert!(x.as_slice().iter().all(|&v| v >= 0.0));
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FeatureMapSynthesizer {
    /// Scale of the near-zero background activations.
    pub base_level: f32,
    /// Peak amplitude of sensitive blobs.
    pub blob_amplitude: f32,
    /// Expected number of blobs per 1000 pixels per channel.
    pub blobs_per_kilopixel: f64,
    /// Blob radius as a fraction of `sqrt(h*w)`.
    pub blob_radius_frac: f64,
    /// Probability that a channel participates in a given image-level blob
    /// (deep layers are class-selective: few channels activate strongly).
    pub channel_inclusion: f64,
}

impl Default for FeatureMapSynthesizer {
    fn default() -> Self {
        // Tuned so that at the paper's typical thresholds (Table III:
        // 17–25 INT8 codes) roughly 85–95 % of computation lands in INT4,
        // matching the bit-mix the paper reports in Fig. 11.
        Self {
            base_level: 0.035,
            blob_amplitude: 1.0,
            blobs_per_kilopixel: 0.45,
            blob_radius_frac: 0.13,
            channel_inclusion: 0.85,
        }
    }
}

impl FeatureMapSynthesizer {
    /// Variant tuned for depth `t ∈ [0, 1]` through the network: deeper
    /// layers (Section VI-B2) have activations aggregating toward zero,
    /// i.e. sparser, smaller blobs.
    pub fn for_depth(&self, t: f64) -> Self {
        let t = t.clamp(0.0, 1.0);
        Self {
            base_level: self.base_level * (1.0 - 0.6 * t as f32),
            blob_amplitude: self.blob_amplitude,
            blobs_per_kilopixel: self.blobs_per_kilopixel * (1.0 - 0.75 * t),
            blob_radius_frac: self.blob_radius_frac * (1.0 - 0.45 * t),
            channel_inclusion: self.channel_inclusion * (1.0 - 0.72 * t),
        }
    }

    /// Synthesizes one image's activations of shape `[1, c, h, w]`.
    ///
    /// Blob *locations* are drawn once per image and shared across channels
    /// (with per-channel inclusion sampling and positional jitter): in real
    /// CNNs the spatial support of strong activations is highly correlated
    /// across channels, because many filters respond to the same salient
    /// image content. This correlation matters to the architecture — the
    /// variable-speed column enters INT8 mode when *any* row (channel tap)
    /// is sensitive, so spatially aligned sensitivity is what keeps the
    /// INT8 step fraction near the per-channel sensitive fraction.
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero.
    pub fn synthesize(&self, c: usize, h: usize, w: usize, rng: &mut XorShiftRng) -> Tensor<f32> {
        assert!(c > 0 && h > 0 && w > 0, "dimensions must be positive");
        let mut x = Tensor::<f32>::zeros(&[1, c, h, w]);
        let radius = ((h * w) as f64).sqrt() * self.blob_radius_frac;
        let radius = radius.max(1.0);
        // Image-level candidate blob set (expected count = kpx * px / 1000,
        // inflated so per-channel subsampling keeps the target density).
        let inclusion_prob = self.channel_inclusion.clamp(0.05, 1.0);
        let expected_millis =
            (self.blobs_per_kilopixel * (h * w) as f64 / inclusion_prob).max(1.0) as usize;
        let mut image_blobs = expected_millis / 1000;
        if rng.next_below(1000) < expected_millis % 1000 {
            image_blobs += 1;
        }
        let centers: Vec<(usize, usize)> = (0..image_blobs.max(1))
            .map(|_| (rng.next_below(h), rng.next_below(w)))
            .collect();
        let jitter = (radius * 0.25).ceil() as usize + 1;
        // Every blob has the same Gaussian profile: tabulate
        // `exp(-d²/2r²)` once over the `(2·reach+1)²` stamp, row-major in
        // `(dy, dx)`.
        let r2 = (radius * radius) as f32;
        let reach = (radius * 2.5).ceil() as usize;
        let span = 2 * reach + 1;
        let stamp: Vec<f32> = (0..span * span)
            .map(|i| {
                let dy = (i / span) as isize - reach as isize;
                let dx = (i % span) as isize - reach as isize;
                let d2 = (dy * dy + dx * dx) as f32;
                (-d2 / (2.0 * r2)).exp()
            })
            .collect();
        for plane in x.as_mut_slice().chunks_exact_mut(h * w) {
            // Background: half-normal small values (post-ReLU tail).
            for v in plane.iter_mut() {
                *v = rng.next_half_normal() * self.base_level;
            }
            for &(by, bx) in &centers {
                if rng.next_f64() >= inclusion_prob {
                    continue;
                }
                // Small per-channel positional jitter around the shared
                // centre.
                let cy = (by + rng.next_below(jitter)).min(h - 1);
                let cx = (bx + rng.next_below(jitter)).min(w - 1);
                let amp = self.blob_amplitude * (0.5 + rng.next_f32());
                // The stamp clipped to the map, one row slice at a time.
                let (y0, y1) = (cy.saturating_sub(reach), (cy + reach).min(h - 1));
                let (x0, x1) = (cx.saturating_sub(reach), (cx + reach).min(w - 1));
                for y in y0..=y1 {
                    let row = &mut plane[y * w + x0..=y * w + x1];
                    let s0 = (y + reach - cy) * span + (x0 + reach - cx);
                    for (v, &e) in row.iter_mut().zip(&stamp[s0..]) {
                        *v += amp * e;
                    }
                }
            }
        }
        x
    }

    /// Synthesizes the input feature map of a topology layer.
    pub fn synthesize_layer_input(
        &self,
        spec: &ConvLayerSpec,
        rng: &mut XorShiftRng,
    ) -> Tensor<f32> {
        self.synthesize(spec.in_c, spec.in_h, spec.in_w, rng)
    }

    /// Synthesizes a layer input and reduces it to region sums: the
    /// threshold-independent stage of the sensitivity predictor, under the
    /// map's own max-abs INT8 parameters. Every threshold at `region` can
    /// then be applied with [`RegionSums::step`] without synthesizing again.
    pub fn region_sums_for_layer(
        &self,
        spec: &ConvLayerSpec,
        region: RegionSize,
        rng: &mut XorShiftRng,
    ) -> RegionSums {
        let x = self.synthesize_layer_input(spec, rng);
        RegionSums::new(&x, 0, region, &SensitivityPredictor::activation_params(&x))
    }

    /// Synthesizes a layer input and runs the sensitivity predictor on it,
    /// returning the per-channel masks and the mean sensitive fraction.
    /// `depth` is the layer's position through the network in `[0, 1]`
    /// (drives both the synthesizer's depth profile carried in `self` and
    /// the deep-layer threshold rule).
    pub fn masks_for_layer(
        &self,
        spec: &ConvLayerSpec,
        config: &DrqConfig,
        depth: f64,
        rng: &mut XorShiftRng,
    ) -> (Vec<MaskMap>, f64) {
        let layer_cfg = config.for_layer(spec.in_h, spec.in_w, depth);
        let sums = self.region_sums_for_layer(spec, layer_cfg.region, rng);
        (sums.step(layer_cfg.threshold), sums.sensitive_fraction(layer_cfg.threshold))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use drq_core::segments::{aggregation_score, segment_map};
    use drq_quant::SegmentSplit;

    #[test]
    fn activations_are_sparse_and_heavy_tailed() {
        let synth = FeatureMapSynthesizer::default();
        let mut rng = XorShiftRng::new(1);
        let x = synth.synthesize(16, 32, 32, &mut rng);
        let vals = x.as_slice();
        let max = vals.iter().cloned().fold(0.0f32, f32::max);
        // Majority of values are small relative to the peak — the paper's
        // Section II observation.
        let small = vals.iter().filter(|&&v| v < max * 0.1).count();
        assert!(
            small as f64 / vals.len() as f64 > 0.7,
            "not sparse: {}",
            small as f64 / vals.len() as f64
        );
    }

    #[test]
    fn sensitive_values_aggregate_spatially() {
        // The strongly sensitive values (top 5 %) must form spatial blobs:
        // their aggregation score should beat a random re-scatter of the
        // same pixel count by a wide margin.
        let synth = FeatureMapSynthesizer::default();
        let mut rng = XorShiftRng::new(2);
        let x = synth.synthesize(4, 32, 32, &mut rng);
        let split = SegmentSplit::from_values(x.as_slice(), &[0.95, 0.2]);
        let mut blob_score = 0.0;
        let mut control_score = 0.0;
        for c in 0..4 {
            let map = segment_map(&x, 0, c, &split);
            blob_score += aggregation_score(&map);
            // Control: same number of segment-0 pixels, uniformly scattered.
            let zeros = map.iter().flatten().filter(|&&s| s == 0).count();
            let mut scattered = vec![vec![2usize; 32]; 32];
            let mut placed = 0;
            while placed < zeros {
                let (y, xx) = (rng.next_below(32), rng.next_below(32));
                if scattered[y][xx] != 0 {
                    scattered[y][xx] = 0;
                    placed += 1;
                }
            }
            control_score += aggregation_score(&scattered);
        }
        assert!(
            blob_score > 0.75 * 4.0,
            "sensitive values not aggregated: {}",
            blob_score / 4.0
        );
        assert!(
            blob_score > control_score + 0.3,
            "blobs ({blob_score}) not distinguishable from scatter ({control_score})"
        );
    }

    #[test]
    fn masks_have_plausible_sensitive_fraction() {
        let synth = FeatureMapSynthesizer::default();
        let mut rng = XorShiftRng::new(3);
        let spec = ConvLayerSpec::conv("t", "B1", 32, 56, 56, 32, 3, 3, 1, 1);
        let config = DrqConfig::new(RegionSize::new(4, 16), 20.0);
        let (masks, frac) = synth.masks_for_layer(&spec, &config, 0.0, &mut rng);
        assert_eq!(masks.len(), 32);
        // The paper reports ~85-95 % INT4, i.e. sensitive fractions well
        // under half but not zero.
        assert!(frac > 0.005 && frac < 0.5, "sensitive fraction {frac}");
    }

    #[test]
    fn depth_scaling_reduces_blob_density() {
        let base = FeatureMapSynthesizer::default();
        let deep = base.for_depth(1.0);
        assert!(deep.blobs_per_kilopixel < base.blobs_per_kilopixel);
        assert!(deep.base_level < base.base_level);
        // Deep layers are class-selective: fewer participating channels.
        assert!(deep.channel_inclusion < base.channel_inclusion * 0.5);
    }

    #[test]
    fn synthesis_is_deterministic_per_seed() {
        let synth = FeatureMapSynthesizer::default();
        let a = synth.synthesize(2, 16, 16, &mut XorShiftRng::new(9));
        let b = synth.synthesize(2, 16, 16, &mut XorShiftRng::new(9));
        assert_eq!(a, b);
    }

    #[test]
    fn tiny_maps_are_supported() {
        let synth = FeatureMapSynthesizer::default();
        let mut rng = XorShiftRng::new(4);
        let x = synth.synthesize(1, 1, 1, &mut rng);
        assert_eq!(x.len(), 1);
    }
}
