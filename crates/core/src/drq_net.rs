//! Running a whole network under dynamic region-based quantization.

use crate::{
    CoalesceInput, ConvOpCounts, DrqConfig, LayerThresholds, MixedPrecisionConv,
    SensitivityPredictor,
};
use drq_nn::Network;
use drq_tensor::Tensor;

/// Per-convolution-layer statistics of one DRQ inference pass.
#[derive(Debug, Clone, PartialEq)]
pub struct DrqLayerStats {
    /// Convolution index in execution order.
    pub conv_index: usize,
    /// Input feature-map shape `[n, c, h, w]`.
    pub input_shape: Vec<usize>,
    /// INT4/INT8 MAC split.
    pub counts: ConvOpCounts,
    /// Mean fraction of regions flagged sensitive across channels/images.
    pub sensitive_fraction: f64,
    /// Effective threshold used at this layer (after deep-layer scaling).
    pub threshold: f32,
    /// Effective region used (after clamping), as `(x, y)`.
    pub region: (usize, usize),
    /// Mask-buffer footprint in bits for one image.
    pub mask_storage_bits: usize,
}

/// Aggregated statistics of one DRQ inference pass.
///
/// # Examples
///
/// ```
/// use drq_core::{ConvOpCounts, DrqRunStats, DrqLayerStats};
///
/// let stats = DrqRunStats {
///     layers: vec![DrqLayerStats {
///         conv_index: 0,
///         input_shape: vec![1, 1, 8, 8],
///         counts: ConvOpCounts { int4_macs: 90, int8_macs: 10 },
///         sensitive_fraction: 0.1,
///         threshold: 20.0,
///         region: (4, 4),
///         mask_storage_bits: 4,
///     }],
/// };
/// assert!((stats.int4_fraction() - 0.9).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DrqRunStats {
    /// Per-layer breakdown in execution order.
    pub layers: Vec<DrqLayerStats>,
}

impl DrqRunStats {
    /// Total MAC counts across all convolutions.
    pub fn totals(&self) -> ConvOpCounts {
        let mut acc = ConvOpCounts::default();
        for l in &self.layers {
            acc.merge(l.counts);
        }
        acc
    }

    /// Overall 4-bit computation percentage (the paper's Fig. 11 metric).
    pub fn int4_fraction(&self) -> f64 {
        self.totals().int4_fraction()
    }

    /// Mean sensitive-region fraction across layers (unweighted).
    pub fn mean_sensitive_fraction(&self) -> f64 {
        if self.layers.is_empty() {
            return 0.0;
        }
        self.layers.iter().map(|l| l.sensitive_fraction).sum::<f64>() / self.layers.len() as f64
    }

    /// Merges another run's statistics layer-by-layer (for dataset-level
    /// aggregation).
    ///
    /// # Panics
    ///
    /// Panics if layer counts differ.
    pub fn merge(&mut self, other: &DrqRunStats) {
        if self.layers.is_empty() {
            self.layers = other.layers.clone();
            return;
        }
        assert_eq!(self.layers.len(), other.layers.len(), "layer count mismatch");
        for (a, b) in self.layers.iter_mut().zip(&other.layers) {
            a.counts.merge(b.counts);
            a.sensitive_fraction = (a.sensitive_fraction + b.sensitive_fraction) / 2.0;
        }
    }
}

/// A network wrapper that executes every convolution under dynamic
/// region-based quantization.
///
/// For each convolution, the wrapper (1) resolves the layer's effective
/// region/threshold from the [`DrqConfig`] (deep-layer rules included),
/// (2) runs the [`SensitivityPredictor`] on the layer's input feature map —
/// the dynamic, per-image step no static scheme has — and (3) executes the
/// [`MixedPrecisionConv`] under the resulting masks.
///
/// # Examples
///
/// ```
/// use drq_core::{DrqConfig, DrqNetwork, RegionSize};
/// use drq_nn::{Conv2d, Layer, Network, ReLU};
/// use drq_tensor::Tensor;
///
/// let net = Network::new(vec![
///     Layer::from(Conv2d::new(1, 2, 3, 1, 1, 1)),
///     Layer::from(ReLU::new()),
/// ]);
/// let mut drq = DrqNetwork::new(net, DrqConfig::new(RegionSize::new(4, 4), 20.0));
/// let (y, stats) = drq.forward(&Tensor::zeros(&[1, 1, 8, 8]));
/// assert_eq!(y.shape(), &[1, 2, 8, 8]);
/// assert_eq!(stats.layers.len(), 1);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct DrqNetwork {
    network: Network,
    config: DrqConfig,
    schedule: Option<LayerThresholds>,
}

impl DrqNetwork {
    /// Wraps a trained network with a DRQ configuration.
    pub fn new(network: Network, config: DrqConfig) -> Self {
        Self { network, config, schedule: None }
    }

    /// Wraps a trained network with a calibrated per-layer threshold
    /// schedule (from [`crate::calibrate_thresholds`]). Regions still follow
    /// the schedule's region with the usual per-map clamping; thresholds
    /// come from the schedule instead of the uniform base value.
    pub fn with_schedule(network: Network, schedule: LayerThresholds) -> Self {
        let config = schedule.to_uniform_config();
        Self { network, config, schedule: Some(schedule) }
    }

    /// The per-layer schedule, if one is installed.
    pub fn schedule(&self) -> Option<&LayerThresholds> {
        self.schedule.as_ref()
    }

    /// The wrapped network.
    pub fn network(&self) -> &Network {
        &self.network
    }

    /// The DRQ configuration.
    pub fn config(&self) -> DrqConfig {
        self.config
    }

    /// Runs DRQ inference, returning the output and per-layer statistics.
    pub fn forward(&mut self, x: &Tensor<f32>) -> (Tensor<f32>, DrqRunStats) {
        let config = self.config;
        let total_convs = self.network.conv_count().max(1);
        let mut stats = DrqRunStats::default();
        let schedule = self.schedule.clone();
        let out = self.network.forward_conv_override(x, &mut |idx, conv, input| {
            let s = input.shape4().expect("conv input rank");
            let depth = idx as f64 / total_convs as f64;
            let mut layer_cfg = config.for_layer(s.h, s.w, depth);
            if let Some(sched) = &schedule {
                // Calibrated per-layer thresholds replace both the uniform
                // base and the deep-layer divisor (calibration already saw
                // the deep layers' statistics directly).
                layer_cfg.threshold = sched.threshold_for(idx);
            }
            let predictor = SensitivityPredictor::new(layer_cfg.region, layer_cfg.threshold);
            let masks = predictor.predict_batch(input);
            let sensitive_fraction = {
                let mut acc = 0.0;
                let mut cnt = 0usize;
                for per_image in &masks {
                    for m in per_image {
                        acc += m.sensitive_fraction();
                        cnt += 1;
                    }
                }
                if cnt == 0 { 0.0 } else { acc / cnt as f64 }
            };
            let mask_storage_bits = masks
                .first()
                .map(|ms| ms.iter().map(|m| m.storage_bits()).sum())
                .unwrap_or(0);
            let (y, counts) =
                MixedPrecisionConv::forward(conv, None, &[CoalesceInput { x: input, masks: &masks }])
                    .remove(0);
            stats.layers.push(DrqLayerStats {
                conv_index: idx,
                input_shape: input.shape().to_vec(),
                counts,
                sensitive_fraction,
                threshold: layer_cfg.threshold,
                region: (layer_cfg.region.x, layer_cfg.region.y),
                mask_storage_bits,
            });
            y
        });
        (out, stats)
    }

    /// Classifies a batch and reports top-1 accuracy plus merged statistics.
    ///
    /// # Panics
    ///
    /// Panics if `targets.len()` differs from the batch size.
    pub fn evaluate(&mut self, x: &Tensor<f32>, targets: &[usize]) -> (f64, DrqRunStats) {
        let (logits, stats) = self.forward(x);
        (drq_nn::accuracy(&logits, targets), stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::RegionSize;
    use drq_nn::{BatchNorm2d, Conv2d, Flatten, Layer, Linear, Pool2d, PoolKind, ReLU};
    use drq_tensor::XorShiftRng;

    fn small_net(seed: u64) -> Network {
        Network::new(vec![
            Layer::from(Conv2d::new(1, 4, 3, 1, 1, seed)),
            Layer::from(BatchNorm2d::new(4)),
            Layer::from(ReLU::new()),
            Layer::from(Conv2d::new(4, 4, 3, 1, 1, seed + 1)),
            Layer::from(ReLU::new()),
            Layer::from(Pool2d::new(PoolKind::Avg, 2, 2)),
            Layer::from(Flatten::new()),
            Layer::from(Linear::new(4 * 8 * 8, 4, seed + 2)),
        ])
    }

    fn sparse_input(seed: u64) -> Tensor<f32> {
        let mut rng = XorShiftRng::new(seed);
        Tensor::from_fn(&[1, 1, 16, 16], |i| {
            let (h, w) = ((i % 256) / 16, i % 16);
            // Bright blob top-left, tiny noise elsewhere.
            if h < 5 && w < 5 {
                1.0 + rng.next_f32()
            } else {
                0.02 * rng.next_f32()
            }
        })
    }

    #[test]
    fn stats_cover_every_conv() {
        let mut drq = DrqNetwork::new(small_net(1), DrqConfig::new(RegionSize::new(4, 4), 20.0));
        let (_, stats) = drq.forward(&sparse_input(2));
        assert_eq!(stats.layers.len(), 2);
        assert_eq!(stats.layers[0].conv_index, 0);
        assert_eq!(stats.layers[1].conv_index, 1);
        assert!(stats.totals().total() > 0);
    }

    #[test]
    fn mostly_int4_on_sparse_inputs() {
        // The defining behaviour: sparse feature maps run mostly INT4 with a
        // small INT8 share where the blob is.
        let mut drq = DrqNetwork::new(small_net(3), DrqConfig::new(RegionSize::new(4, 4), 20.0));
        let (_, stats) = drq.forward(&sparse_input(4));
        let frac = stats.int4_fraction();
        assert!(frac > 0.5, "int4 fraction {frac}");
        assert!(stats.totals().int8_macs > 0, "no sensitive regions found");
    }

    #[test]
    fn threshold_controls_bit_mix() {
        let x = sparse_input(5);
        let frac_at = |t: f32| {
            let mut drq =
                DrqNetwork::new(small_net(6), DrqConfig::new(RegionSize::new(4, 4), t));
            let (_, stats) = drq.forward(&x);
            stats.int4_fraction()
        };
        // Higher threshold ⇒ fewer sensitive regions ⇒ more INT4.
        assert!(frac_at(100.0) >= frac_at(5.0));
        assert!(frac_at(0.0) <= frac_at(5.0));
    }

    #[test]
    fn output_tracks_float_reference() {
        let mut net = small_net(7);
        let x = sparse_input(8);
        let y_ref = net.forward(&x, false);
        let mut drq = DrqNetwork::new(net, DrqConfig::new(RegionSize::new(4, 4), 10.0));
        let (y, _) = drq.forward(&x);
        // Cosine similarity of logits should be high.
        let dot: f32 = y.as_slice().iter().zip(y_ref.as_slice()).map(|(a, b)| a * b).sum();
        let na: f32 = y.as_slice().iter().map(|v| v * v).sum::<f32>().sqrt();
        let nb: f32 = y_ref.as_slice().iter().map(|v| v * v).sum::<f32>().sqrt();
        assert!(dot / (na * nb).max(1e-9) > 0.85, "cos {}", dot / (na * nb));
    }

    #[test]
    fn evaluate_reports_accuracy() {
        let mut drq = DrqNetwork::new(small_net(9), DrqConfig::new(RegionSize::new(4, 4), 20.0));
        let x = sparse_input(10);
        let (acc, stats) = drq.evaluate(&x, &[0]);
        assert!((0.0..=1.0).contains(&acc));
        assert_eq!(stats.layers.len(), 2);
    }

    #[test]
    fn calibrated_schedule_drives_per_layer_thresholds() {
        use crate::calibrate_thresholds;
        let mut net = small_net(21);
        let x = sparse_input(22);
        let schedule = calibrate_thresholds(&mut net, &x, RegionSize::new(4, 4), 0.15);
        assert_eq!(schedule.thresholds().len(), 2);
        let mut drq = DrqNetwork::with_schedule(net, schedule.clone());
        assert_eq!(drq.schedule(), Some(&schedule));
        let (_, stats) = drq.forward(&x);
        // Each layer's reported threshold must be the calibrated one.
        for (i, layer) in stats.layers.iter().enumerate() {
            assert_eq!(layer.threshold, schedule.threshold_for(i), "layer {i}");
        }
        // And the calibration target carries through: mean sensitive
        // fraction at or under the 15% target (within quantizer wiggle).
        assert!(stats.mean_sensitive_fraction() <= 0.20, "{}", stats.mean_sensitive_fraction());
    }

    #[test]
    fn merge_accumulates_mac_counts() {
        let mut drq = DrqNetwork::new(small_net(11), DrqConfig::new(RegionSize::new(4, 4), 20.0));
        let (_, s1) = drq.forward(&sparse_input(12));
        let (_, s2) = drq.forward(&sparse_input(13));
        let mut merged = s1.clone();
        merged.merge(&s2);
        assert_eq!(
            merged.totals().total(),
            s1.totals().total() + s2.totals().total()
        );
    }
}
