//! Accuracy evaluation of each accelerator's quantization scheme
//! (the accuracy axis of Figs. 11 and 13).
//!
//! Each scheme is applied to a *trained* stand-in network via the
//! convolution-override execution path, so every scheme shares the exact
//! same surrounding layers (BN, ReLU, pooling, residual sums) and differs
//! only in how convolutions quantize weights and activations — matching the
//! paper's methodology of swapping the quantizer inside one TensorFlow
//! graph. A static scheme is one drq-quant fake-quantization call per
//! tensor: `fake_quantize_per_channel` or `OutlierQuantizer::apply` for the
//! weights, `fake_quantize` after `QuantParams::fit` for each conv input.

use drq_core::{DrqConfig, DrqNetwork, LayerThresholds};
use drq_models::Dataset;
use drq_nn::{accuracy, Network};
use drq_quant::{fake_quantize, fake_quantize_per_channel, OutlierQuantizer, Precision, QuantParams};
use drq_tensor::Tensor;

/// A quantization scheme under accuracy evaluation.
#[derive(Debug, Clone, PartialEq)]
pub enum QuantScheme {
    /// Unquantized float reference.
    Fp32,
    /// Eyeriss: INT16 weights and activations throughout.
    Eyeriss,
    /// BitFusion (as compared in the paper): INT8 throughout.
    BitFusion,
    /// OLAccel: static outlier-aware weights (INT4 dense + INT16 outliers),
    /// INT4 activations except the first layer.
    OlAccel,
    /// DRQ with the given configuration (dynamic region-based INT8/INT4).
    Drq(DrqConfig),
    /// DRQ with calibrated per-layer thresholds (the paper's actual
    /// deployment: "the thresholds are set to different integer numbers for
    /// different layers", Section VI-B2).
    DrqCalibrated(LayerThresholds),
}

impl QuantScheme {
    /// Display name matching the paper's figures.
    pub fn name(&self) -> &'static str {
        match self {
            QuantScheme::Fp32 => "FP32",
            QuantScheme::Eyeriss => "Eyeriss",
            QuantScheme::BitFusion => "BitFusion",
            QuantScheme::OlAccel => "OLAccel",
            QuantScheme::Drq(_) | QuantScheme::DrqCalibrated(_) => "DRQ",
        }
    }
}

/// Outcome of evaluating one scheme on one dataset.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SchemeResult {
    /// Top-1 accuracy in `[0, 1]`.
    pub accuracy: f64,
    /// Fraction of convolution MACs executed at 4 bits.
    pub int4_fraction: f64,
}

/// Runs `net` with every convolution's weights fake-quantized by
/// `weight_fq` and its input fake-quantized at `act_prec(layer_idx)` with a
/// max-abs scale fitted to that input. Every static baseline scheme is one
/// call of this function.
fn quantized_forward(
    net: &mut Network,
    x: &Tensor<f32>,
    weight_fq: impl Fn(&Tensor<f32>) -> Tensor<f32>,
    act_prec: impl Fn(usize) -> Precision,
) -> Tensor<f32> {
    net.forward_conv_override(x, &mut |idx, conv, input| {
        let wq = weight_fq(conv.weight());
        let xq = fake_quantize(input, &QuantParams::fit(input.as_slice(), act_prec(idx)));
        conv.forward_with_weights(&xq, &wq)
    })
}

fn uniform_forward(
    net: &mut Network,
    x: &Tensor<f32>,
    weight_prec: Precision,
    act_prec: Precision,
) -> Tensor<f32> {
    quantized_forward(
        net,
        x,
        |w| fake_quantize_per_channel(w, weight_prec),
        |_idx| act_prec,
    )
}

fn olaccel_forward(net: &mut Network, x: &Tensor<f32>) -> Tensor<f32> {
    // First layer runs on the INT16 units; later layers see INT4
    // activations (statically, blind to feature-map geometry — the
    // property DRQ improves on).
    let outlier = OutlierQuantizer::olaccel_default();
    quantized_forward(
        net,
        x,
        |w| outlier.apply(w).0,
        |idx| if idx == 0 { Precision::Int16 } else { Precision::Int4 },
    )
}

/// Evaluates a scheme over a dataset, returning accuracy and the 4-bit MAC
/// fraction.
///
/// The network is not mutated (weights are fake-quantized per batch on the
/// fly).
///
/// # Panics
///
/// Panics if `batch_size == 0`.
///
/// # Examples
///
/// ```no_run
/// use drq_baselines::{evaluate_scheme, QuantScheme};
/// use drq_models::{lenet5, Dataset, DatasetKind};
///
/// let data = Dataset::generate(DatasetKind::Digits, 50, 1);
/// let mut net = lenet5(2);
/// let r = evaluate_scheme(&mut net, &QuantScheme::BitFusion, &data, 10);
/// assert!(r.accuracy <= 1.0);
/// ```
pub fn evaluate_scheme(
    net: &mut Network,
    scheme: &QuantScheme,
    data: &Dataset,
    batch_size: usize,
) -> SchemeResult {
    assert!(batch_size > 0, "batch size must be positive");
    match scheme {
        QuantScheme::Drq(_) | QuantScheme::DrqCalibrated(_) => {
            let mut drq = match scheme {
                QuantScheme::Drq(config) => DrqNetwork::new(net.clone(), *config),
                QuantScheme::DrqCalibrated(schedule) => {
                    DrqNetwork::with_schedule(net.clone(), schedule.clone())
                }
                _ => unreachable!(),
            };
            let mut correct = 0.0;
            let mut total = 0usize;
            let mut int4 = 0u64;
            let mut all = 0u64;
            for b in 0..data.batch_count(batch_size) {
                let (x, y) = data.batch(b, batch_size);
                let (acc, stats) = drq.evaluate(&x, &y);
                correct += acc * y.len() as f64;
                total += y.len();
                let t = stats.totals();
                int4 += t.int4_macs;
                all += t.total();
            }
            SchemeResult {
                accuracy: if total == 0 { 0.0 } else { correct / total as f64 },
                int4_fraction: if all == 0 { 0.0 } else { int4 as f64 / all as f64 },
            }
        }
        other => {
            let mut correct = 0.0;
            let mut total = 0usize;
            for b in 0..data.batch_count(batch_size) {
                let (x, y) = data.batch(b, batch_size);
                let logits = match other {
                    QuantScheme::Fp32 => net.forward(&x, false),
                    QuantScheme::Eyeriss => {
                        uniform_forward(net, &x, Precision::Int16, Precision::Int16)
                    }
                    QuantScheme::BitFusion => {
                        uniform_forward(net, &x, Precision::Int8, Precision::Int8)
                    }
                    QuantScheme::OlAccel => olaccel_forward(net, &x),
                    QuantScheme::Drq(_) | QuantScheme::DrqCalibrated(_) => unreachable!(),
                };
                correct += accuracy(&logits, &y) * y.len() as f64;
                total += y.len();
            }
            let int4_fraction = match other {
                QuantScheme::OlAccel => 0.97,
                _ => 0.0,
            };
            SchemeResult {
                accuracy: if total == 0 { 0.0 } else { correct / total as f64 },
                int4_fraction,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use drq_core::RegionSize;
    use drq_models::{lenet5, train, Dataset, DatasetKind, TrainConfig};

    fn trained_lenet() -> (Network, Dataset) {
        let train_set = Dataset::generate(DatasetKind::Digits, 240, 31);
        let eval_set = Dataset::generate(DatasetKind::Digits, 40, 32);
        let mut net = lenet5(8);
        let cfg = TrainConfig { epochs: 5, ..TrainConfig::default() };
        let report = train(&mut net, &train_set, &eval_set, &cfg);
        assert!(report.eval_accuracy > 0.8, "stand-in failed to train");
        (net, eval_set)
    }

    #[test]
    fn scheme_accuracy_ordering_matches_paper() {
        // Fig. 11/13: Eyeriss ≈ BitFusion ≈ FP32 ≥ DRQ > OLAccel.
        let (mut net, eval_set) = trained_lenet();
        let fp = evaluate_scheme(&mut net, &QuantScheme::Fp32, &eval_set, 20);
        let ey = evaluate_scheme(&mut net, &QuantScheme::Eyeriss, &eval_set, 20);
        let bf = evaluate_scheme(&mut net, &QuantScheme::BitFusion, &eval_set, 20);
        let drq = evaluate_scheme(
            &mut net,
            &QuantScheme::Drq(DrqConfig::new(RegionSize::new(4, 4), 30.0)),
            &eval_set,
            20,
        );
        // INT16/INT8 are accuracy-neutral on the reference.
        assert!((ey.accuracy - fp.accuracy).abs() < 0.05);
        assert!((bf.accuracy - fp.accuracy).abs() < 0.05);
        // DRQ stays within a few points of the reference while running
        // mostly INT4.
        assert!(fp.accuracy - drq.accuracy < 0.10, "DRQ lost too much: {drq:?} vs {fp:?}");
        assert!(drq.int4_fraction > 0.5, "DRQ not mostly INT4: {drq:?}");
    }

    #[test]
    fn olaccel_degrades_more_than_drq() {
        let (mut net, eval_set) = trained_lenet();
        let ol = evaluate_scheme(&mut net, &QuantScheme::OlAccel, &eval_set, 20);
        let drq = evaluate_scheme(
            &mut net,
            &QuantScheme::Drq(DrqConfig::new(RegionSize::new(4, 4), 15.0)),
            &eval_set,
            20,
        );
        assert!(
            drq.accuracy >= ol.accuracy - 0.01,
            "DRQ {:.3} should not trail OLAccel {:.3}",
            drq.accuracy,
            ol.accuracy
        );
    }

    #[test]
    fn scheme_names_are_stable() {
        let names: Vec<&str> = [
            QuantScheme::Eyeriss,
            QuantScheme::BitFusion,
            QuantScheme::OlAccel,
            QuantScheme::Drq(DrqConfig::new(RegionSize::new(4, 16), 20.0)),
        ]
        .iter()
        .map(QuantScheme::name)
        .collect();
        assert_eq!(names, ["Eyeriss", "BitFusion", "OLAccel", "DRQ"]);
    }
}
