//! Running a whole network under dynamic region-based quantization.

use crate::{
    CoalesceInput, ConvOpCounts, ConvPlan, DrqConfig, LayerDrqConfig, LayerThresholds, MaskMap,
    MixedPrecisionConv, SensitivityPredictor,
};
use drq_nn::{Conv2d, Group, GroupWalk, Network};
use drq_tensor::Tensor;
use std::sync::Arc;

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
    /// The network's conv plans, prepared once: nothing reachable from
    /// here changes its weights.
    plans: Vec<ConvPlan>,
}

impl DrqNetwork {
    /// Wraps a trained network with a DRQ configuration.
    pub fn new(network: Network, config: DrqConfig) -> Self {
        let plans = prepare_plans(&network);
        Self { network, config, schedule: None, plans }
    }

    /// Wraps a trained network with a calibrated per-layer threshold
    /// schedule (from [`crate::calibrate_thresholds`]). Regions still follow
    /// the schedule's region with the usual per-map clamping; thresholds
    /// come from the schedule instead of the uniform base value.
    pub fn with_schedule(network: Network, schedule: LayerThresholds) -> Self {
        let config = schedule.to_uniform_config();
        Self { schedule: Some(schedule), ..Self::new(network, config) }
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
        let exec = DrqExecutor::new(self.config, self.schedule.as_ref(), &self.plans);
        exec.forward(&mut self.network, x)
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

/// One prepared [`ConvPlan`] per convolution of `network`, in the order
/// [`Network::walk_group`] runs them.
pub fn prepare_plans(network: &Network) -> Vec<ConvPlan> {
    network.convs().into_iter().map(ConvPlan::prepare).collect()
}

/// Where a [`DrqExecutor`] takes each member's masks from:
/// `(conv_index, member, layer, input) -> masks[n][c]`, with `layer` the
/// conv's resolved region and threshold.
pub type MaskSource<'a> =
    dyn FnMut(usize, usize, &LayerDrqConfig, &Tensor<f32>) -> Arc<Vec<Vec<MaskMap>>> + 'a;

/// The DRQ executor of [`Network::walk_group`].
///
/// At each convolution it resolves the layer's region and threshold from
/// the [`DrqConfig`] (deep-layer rules included, a schedule's threshold in
/// place of the uniform one), takes every live member's masks from its
/// mask source (by default the [`SensitivityPredictor`] on the member's
/// own input) and runs one [`MixedPrecisionConv::forward`] call over all
/// of them with the conv's prepared plan. Each member gets its own
/// [`DrqRunStats`].
pub struct DrqExecutor<'a> {
    config: DrqConfig,
    schedule: Option<&'a LayerThresholds>,
    plans: &'a [ConvPlan],
    masks: Box<MaskSource<'a>>,
    /// Statistics per member, in group order; a member no convolution
    /// ran on may have no entry.
    pub stats: Vec<DrqRunStats>,
}

impl<'a> DrqExecutor<'a> {
    /// An executor over `plans`, which [`prepare_plans`] made from the
    /// network it walks, predicting every mask.
    pub fn new(
        config: DrqConfig,
        schedule: Option<&'a LayerThresholds>,
        plans: &'a [ConvPlan],
    ) -> Self {
        let predict = |_: usize, _: usize, layer: &LayerDrqConfig, x: &Tensor<f32>| {
            Arc::new(SensitivityPredictor::new(layer.region, layer.threshold).predict_batch(x))
        };
        Self { config, schedule, plans, masks: Box::new(predict), stats: Vec::new() }
    }

    /// Takes the masks from `source` instead of the predictor.
    pub fn with_masks(self, source: Box<MaskSource<'a>>) -> Self {
        Self { masks: source, ..self }
    }

    /// Runs `x` through `network` as a group of one, returning the output
    /// and its statistics. The non-conv layers run in evaluation mode, so
    /// the network's training workspaces are left as they are.
    pub fn forward(
        mut self,
        network: &mut Network,
        x: &Tensor<f32>,
    ) -> (Tensor<f32>, DrqRunStats) {
        let out = network.walk_group(vec![Some(x.clone())], &mut self);
        let y = out.unwrap_or_else(|e| panic!("{e}")).pop().flatten();
        (y.expect("the executor drops no member"), self.stats.pop().unwrap_or_default())
    }
}

impl GroupWalk for DrqExecutor<'_> {
    fn conv(&mut self, conv_index: usize, conv: &Conv2d, group: &[Option<Tensor<f32>>]) -> Group {
        let mut out: Group = group.iter().map(|_| None).collect();
        let live: Vec<(usize, &Tensor<f32>)> =
            group.iter().enumerate().filter_map(|(i, x)| Some((i, x.as_ref()?))).collect();
        let Some(s) = live.first().map(|(_, x)| x.shape4().expect("conv input rank")) else {
            return out;
        };
        let depth = conv_index as f64 / self.plans.len().max(1) as f64;
        let mut layer = self.config.for_layer(s.h, s.w, depth);
        if let Some(sched) = self.schedule {
            // Calibrated per-layer thresholds replace both the uniform
            // base and the deep-layer divisor (calibration already saw
            // the deep layers' statistics directly).
            layer.threshold = sched.threshold_for(conv_index);
        }
        let masks: Vec<_> =
            live.iter().map(|&(i, x)| (self.masks)(conv_index, i, &layer, x)).collect();
        let inputs: Vec<CoalesceInput<'_>> =
            live.iter().zip(&masks).map(|(&(_, x), m)| CoalesceInput { x, masks: m }).collect();
        let outputs = MixedPrecisionConv::forward(conv, Some(&self.plans[conv_index]), &inputs);
        if self.stats.len() < group.len() {
            let convs = self.plans.len();
            let fresh = || DrqRunStats { layers: Vec::with_capacity(convs) };
            self.stats.resize_with(group.len(), fresh);
        }
        for ((&(i, x), masks), (y, counts)) in live.iter().zip(&masks).zip(outputs) {
            let all = masks.iter().flatten();
            let n = all.clone().count();
            let sensitive: f64 = all.map(MaskMap::sensitive_fraction).sum();
            let first_image = masks.first().map_or(&[][..], Vec::as_slice);
            self.stats[i].layers.push(DrqLayerStats {
                conv_index,
                input_shape: x.shape().to_vec(),
                counts,
                sensitive_fraction: if n == 0 { 0.0 } else { sensitive / n as f64 },
                threshold: layer.threshold,
                region: (layer.region.x, layer.region.y),
                mask_storage_bits: first_image.iter().map(MaskMap::storage_bits).sum(),
            });
            out[i] = Some(y);
        }
        out
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
}
