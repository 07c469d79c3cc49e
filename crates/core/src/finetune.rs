//! Sensitivity-aware fine-tuning (Section III-D).
//!
//! "We retrain the model for guaranteed accuracy, during which we will
//! apply the mix-precision convolution in the forward propagation, but
//! full-precision backward propagation for weight updating" — the standard
//! straight-through-estimator recipe. One fine-tuning step:
//!
//! 1. run the *mixed-precision* forward pass to obtain the quantized
//!    logits (what the accelerator would compute);
//! 2. evaluate the loss gradient at those logits;
//! 3. backpropagate that gradient through the *full-precision* network
//!    (whose layer caches come from an FP32 forward pass on the same
//!    batch), and update the weights.

use crate::{prepare_plans, DrqConfig, DrqExecutor, DrqRunStats};
use drq_nn::{CrossEntropyLoss, Network, Sgd};
use drq_tensor::Tensor;

/// One quantization-aware fine-tuning step. Returns the loss measured at
/// the mixed-precision logits and the DRQ statistics of the forward pass.
///
/// # Panics
///
/// Panics if `targets.len()` differs from the batch size.
///
/// # Examples
///
/// ```no_run
/// use drq_core::{finetune_step, DrqConfig, RegionSize};
/// use drq_nn::{Conv2d, Flatten, Layer, Linear, Network, ReLU, Sgd};
/// use drq_tensor::Tensor;
///
/// let mut net = Network::new(vec![
///     Layer::from(Conv2d::new(1, 2, 3, 1, 1, 1)),
///     Layer::from(ReLU::new()),
///     Layer::from(Flatten::new()),
///     Layer::from(Linear::new(2 * 64, 4, 2)),
/// ]);
/// let mut opt = Sgd::new(0.01);
/// let cfg = DrqConfig::new(RegionSize::new(4, 4), 20.0);
/// let x = Tensor::zeros(&[2, 1, 8, 8]);
/// let (loss, _stats) = finetune_step(&mut net, &cfg, &x, &[0, 1], &mut opt);
/// assert!(loss.is_finite());
/// ```
pub fn finetune_step(
    net: &mut Network,
    config: &DrqConfig,
    x: &Tensor<f32>,
    targets: &[usize],
    opt: &mut Sgd,
) -> (f32, DrqRunStats) {
    // Mixed-precision forward: the logits the quantized hardware produces,
    // on plans of this step's weights.
    let plans = prepare_plans(net);
    let (q_logits, stats) = DrqExecutor::new(*config, None, &plans).forward(net, x);
    let (loss, grad) = CrossEntropyLoss::evaluate(&q_logits, targets);
    // Full-precision forward (to populate layer caches) + backward with the
    // quantized-loss gradient: the straight-through estimator. Both walk the
    // network's training workspaces, so a step allocates no layer buffers.
    net.forward_train(x);
    net.backward_train(&grad);
    opt.step(net);
    (loss, stats)
}

/// Runs `epochs` of fine-tuning over `(x, targets)` batches produced by
/// `batches`, returning the per-epoch mean losses.
pub fn finetune<'a, I>(
    net: &mut Network,
    config: &DrqConfig,
    epochs: usize,
    opt: &mut Sgd,
    batches: impl Fn() -> I,
) -> Vec<f32>
where
    I: Iterator<Item = (Tensor<f32>, Vec<usize>)> + 'a,
{
    let mut losses = Vec::with_capacity(epochs);
    for _ in 0..epochs {
        let mut sum = 0.0;
        let mut n = 0usize;
        for (x, y) in batches() {
            let (loss, _) = finetune_step(net, config, &x, &y, opt);
            sum += loss;
            n += 1;
        }
        losses.push(if n == 0 { 0.0 } else { sum / n as f32 });
    }
    losses
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DrqNetwork, RegionSize};
    use drq_nn::{accuracy, BatchNorm2d, Conv2d, Flatten, Layer, Linear, Pool2d, PoolKind, ReLU};
    use drq_tensor::XorShiftRng;

    /// Tiny 3-class problem: blob position decides the class.
    fn make_batch(rng: &mut XorShiftRng, n: usize) -> (Tensor<f32>, Vec<usize>) {
        let mut x = Tensor::<f32>::zeros(&[n, 1, 12, 12]);
        let mut t = Vec::with_capacity(n);
        for i in 0..n {
            let class = i % 3;
            let (cy, cx) = match class {
                0 => (3, 3),
                1 => (3, 8),
                _ => (8, 3),
            };
            for dy in 0..3 {
                for dx in 0..3 {
                    x[[i, 0, cy + dy, cx + dx]] = 0.8 + 0.2 * rng.next_f32();
                }
            }
            t.push(class);
        }
        (x, t)
    }

    fn tiny_net(seed: u64) -> Network {
        Network::new(vec![
            Layer::from(Conv2d::new(1, 4, 3, 1, 1, seed)),
            Layer::from(BatchNorm2d::new(4)),
            Layer::from(ReLU::new()),
            Layer::from(Pool2d::new(PoolKind::Avg, 2, 2)),
            Layer::from(Flatten::new()),
            Layer::from(Linear::new(4 * 36, 3, seed + 1)),
        ])
    }

    #[test]
    fn finetuning_reduces_quantized_loss() {
        let mut net = tiny_net(5);
        let cfg = DrqConfig::new(RegionSize::new(4, 4), 35.0);
        let mut opt = Sgd::new(0.05).momentum(0.9);
        let mut rng = XorShiftRng::new(6);
        let mut first = None;
        let mut last = 0.0;
        for _ in 0..30 {
            let (x, y) = make_batch(&mut rng, 9);
            let (loss, _) = finetune_step(&mut net, &cfg, &x, &y, &mut opt);
            first.get_or_insert(loss);
            last = loss;
        }
        assert!(
            last < first.unwrap() * 0.6,
            "quantized loss did not improve: {last} vs {first:?}"
        );
    }

    #[test]
    fn finetuned_network_classifies_under_drq() {
        let mut net = tiny_net(7);
        let cfg = DrqConfig::new(RegionSize::new(4, 4), 35.0);
        let mut opt = Sgd::new(0.05).momentum(0.9);
        let mut rng = XorShiftRng::new(8);
        for _ in 0..40 {
            let (x, y) = make_batch(&mut rng, 9);
            let _ = finetune_step(&mut net, &cfg, &x, &y, &mut opt);
        }
        // Evaluate with the mixed-precision forward pass (the deployment
        // condition): it should now be accurate.
        let (x, y) = make_batch(&mut rng, 9);
        let mut drq = DrqNetwork::new(net, cfg);
        let (logits, stats) = drq.forward(&x);
        let acc = accuracy(&logits, &y);
        assert!(acc > 0.8, "quantized accuracy after fine-tuning: {acc}");
        assert!(stats.totals().total() > 0);
    }

    #[test]
    fn finetune_helper_reports_epoch_losses() {
        let mut net = tiny_net(9);
        let cfg = DrqConfig::new(RegionSize::new(4, 4), 35.0);
        let mut opt = Sgd::new(0.05).momentum(0.9);
        let losses = finetune(&mut net, &cfg, 3, &mut opt, || {
            let mut rng = XorShiftRng::new(10);
            (0..5).map(move |_| make_batch(&mut rng, 9)).collect::<Vec<_>>().into_iter()
        });
        assert_eq!(losses.len(), 3);
        assert!(losses[2] <= losses[0], "losses {losses:?}");
    }
}
