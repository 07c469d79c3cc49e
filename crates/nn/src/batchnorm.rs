//! 2-D batch normalization.

use crate::workspace::{give_tensor, hold, lend_tensor, Workspace};
use crate::NnError;
use drq_tensor::Tensor;

/// Per-channel batch normalization over NCHW tensors.
///
/// Training mode normalizes with batch statistics and updates running
/// estimates (exponential moving average); evaluation mode uses the running
/// estimates. This matches the "after batch normalization and ReLU" setting
/// in which the paper studies feature-map value distributions (Section II).
///
/// # Examples
///
/// ```
/// use drq_nn::BatchNorm2d;
/// use drq_tensor::Tensor;
///
/// let mut bn = BatchNorm2d::new(3);
/// let y = bn.forward(&Tensor::zeros(&[2, 3, 4, 4]), false);
/// assert_eq!(y.shape(), &[2, 3, 4, 4]);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct BatchNorm2d {
    channels: usize,
    eps: f32,
    momentum: f32,
    gamma: Tensor<f32>,
    beta: Tensor<f32>,
    grad_gamma: Tensor<f32>,
    grad_beta: Tensor<f32>,
    running_mean: Tensor<f32>,
    running_var: Tensor<f32>,
    ws: Workspace<BnWs>,
}

/// The batch norm's training workspace: what the backward pass reads.
#[derive(Default)]
struct BnWs {
    /// The normalized input, until the backward pass reads it.
    x_hat: Option<Tensor<f32>>,
    /// Per channel, `1 / sqrt(var + eps)`.
    inv_std: Vec<f32>,
}

impl BatchNorm2d {
    /// Creates a batch-norm layer over `channels` channels with default
    /// `eps = 1e-5` and `momentum = 0.1`.
    ///
    /// # Panics
    ///
    /// Panics if `channels == 0` (delegates to [`BatchNorm2d::try_new`],
    /// preserving the message text).
    pub fn new(channels: usize) -> Self {
        Self::try_new(channels).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible variant of [`BatchNorm2d::new`] returning a typed error
    /// instead of panicking.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InvalidLayer`] if `channels == 0`.
    pub fn try_new(channels: usize) -> Result<Self, NnError> {
        if channels == 0 {
            return Err(NnError::InvalidLayer {
                context: "batchnorm2d",
                detail: "channel count must be positive".to_string(),
            });
        }
        Ok(Self {
            channels,
            eps: 1e-5,
            momentum: 0.1,
            gamma: Tensor::full(&[channels], 1.0),
            beta: Tensor::zeros(&[channels]),
            grad_gamma: Tensor::zeros(&[channels]),
            grad_beta: Tensor::zeros(&[channels]),
            running_mean: Tensor::zeros(&[channels]),
            running_var: Tensor::full(&[channels], 1.0),
            ws: Workspace::default(),
        })
    }

    /// Channel count this layer normalizes.
    pub fn channels(&self) -> usize {
        self.channels
    }

    /// Per-channel scale parameters.
    pub fn gamma(&self) -> &Tensor<f32> {
        &self.gamma
    }

    /// Per-channel shift parameters.
    pub fn beta(&self) -> &Tensor<f32> {
        &self.beta
    }

    /// Forward pass.
    ///
    /// # Panics
    ///
    /// Panics if `x` is not rank 4 or its channel count mismatches.
    pub fn forward(&mut self, x: &Tensor<f32>, train: bool) -> Tensor<f32> {
        let mut out = Tensor::default();
        self.forward_into(x, train, &mut out);
        out
    }

    /// [`Self::forward`] into `out`, which is resized to the input shape.
    /// Training mode keeps the normalized input for the backward pass.
    pub(crate) fn forward_into(&mut self, x: &Tensor<f32>, train: bool, out: &mut Tensor<f32>) {
        let s = x.shape4().expect("batchnorm input must be rank 4");
        assert_eq!(s.c, self.channels, "channel count mismatch");
        let per_channel = s.n * s.h * s.w;
        out.resize(x.shape());
        let (means, vars) = if train {
            let mut means = vec![0.0f32; s.c];
            let mut vars = vec![0.0f32; s.c];
            let xs = x.as_slice();
            for c in 0..s.c {
                let mut sum = 0.0;
                for n in 0..s.n {
                    let base = s.offset(n, c, 0, 0);
                    sum += xs[base..base + s.h * s.w].iter().sum::<f32>();
                }
                means[c] = sum / per_channel as f32;
                let mut var = 0.0;
                for n in 0..s.n {
                    let base = s.offset(n, c, 0, 0);
                    var += xs[base..base + s.h * s.w]
                        .iter()
                        .map(|v| (v - means[c]).powi(2))
                        .sum::<f32>();
                }
                vars[c] = var / per_channel as f32;
            }
            for c in 0..s.c {
                let rm = self.running_mean.as_mut_slice();
                rm[c] = (1.0 - self.momentum) * rm[c] + self.momentum * means[c];
                let rv = self.running_var.as_mut_slice();
                rv[c] = (1.0 - self.momentum) * rv[c] + self.momentum * vars[c];
            }
            (means, vars)
        } else {
            (
                self.running_mean.as_slice().to_vec(),
                self.running_var.as_slice().to_vec(),
            )
        };
        // Training keeps the normalized input, in lent storage the layer
        // holds for its backward pass; evaluation keeps nothing.
        let mut x_hat = if train { lend_tensor(x.shape()) } else { Tensor::default() };
        let mut eval_inv_std = Vec::new();
        let inv_std = if train { &mut self.ws.inv_std } else { &mut eval_inv_std };
        inv_std.resize(s.c, 0.0);
        let xs = x.as_slice();
        let xh = x_hat.as_mut_slice();
        let ov = out.as_mut_slice();
        let g = self.gamma.as_slice();
        let b = self.beta.as_slice();
        for c in 0..s.c {
            inv_std[c] = 1.0 / (vars[c] + self.eps).sqrt();
            for n in 0..s.n {
                let base = s.offset(n, c, 0, 0);
                for p in 0..s.h * s.w {
                    let xn = (xs[base + p] - means[c]) * inv_std[c];
                    if train {
                        xh[base + p] = xn;
                    }
                    ov[base + p] = g[c] * xn + b[c];
                }
            }
        }
        if train {
            hold(&mut self.ws.x_hat, x_hat);
        }
    }

    /// Backward pass; returns the input gradient.
    ///
    /// # Panics
    ///
    /// Panics if called before a training-mode forward pass.
    pub fn backward(&mut self, grad_out: &Tensor<f32>) -> Tensor<f32> {
        let mut grad_in = Tensor::default();
        self.backward_into(grad_out, &mut grad_in);
        grad_in
    }

    /// [`Self::backward`] into `grad_in`, which is resized to the gradient
    /// shape.
    #[allow(clippy::needless_range_loop)] // per-channel strided access
    pub(crate) fn backward_into(&mut self, grad_out: &Tensor<f32>, grad_in: &mut Tensor<f32>) {
        let x_hat = self.ws.x_hat.take().expect("batchnorm backward without cached forward");
        let s = grad_out.shape4().expect("grad rank");
        assert_eq!(grad_out.shape(), x_hat.shape(), "grad shape mismatch");
        let m = (s.n * s.h * s.w) as f32;
        grad_in.resize(grad_out.shape());
        let go = grad_out.as_slice();
        let xh = x_hat.as_slice();
        let gi = grad_in.as_mut_slice();
        let g = self.gamma.as_slice();
        for c in 0..s.c {
            let mut sum_gy = 0.0f32;
            let mut sum_gy_xh = 0.0f32;
            for n in 0..s.n {
                let base = s.offset(n, c, 0, 0);
                for p in 0..s.h * s.w {
                    sum_gy += go[base + p];
                    sum_gy_xh += go[base + p] * xh[base + p];
                }
            }
            self.grad_beta.as_mut_slice()[c] += sum_gy;
            self.grad_gamma.as_mut_slice()[c] += sum_gy_xh;
            let k = g[c] * self.ws.inv_std[c] / m;
            for n in 0..s.n {
                let base = s.offset(n, c, 0, 0);
                for p in 0..s.h * s.w {
                    gi[base + p] = k * (m * go[base + p] - sum_gy - xh[base + p] * sum_gy_xh);
                }
            }
        }
        give_tensor(x_hat);
    }

    /// Zeroes accumulated gradients.
    pub fn zero_grad(&mut self) {
        self.grad_gamma.map_inplace(|_| 0.0);
        self.grad_beta.map_inplace(|_| 0.0);
    }

    /// Visits `(param, grad)` pairs in a stable order (gamma then beta).
    pub fn visit_params(&mut self, f: &mut dyn FnMut(&mut Tensor<f32>, &mut Tensor<f32>)) {
        f(&mut self.gamma, &mut self.grad_gamma);
        f(&mut self.beta, &mut self.grad_beta);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use drq_tensor::XorShiftRng;

    #[test]
    fn training_forward_normalizes_each_channel() {
        let mut bn = BatchNorm2d::new(2);
        let mut rng = XorShiftRng::new(1);
        let x = Tensor::from_fn(&[4, 2, 3, 3], |_| rng.next_normal() * 3.0 + 1.0);
        let y = bn.forward(&x, true);
        let s = y.shape4().unwrap();
        for c in 0..2 {
            let mut vals = Vec::new();
            for n in 0..s.n {
                for h in 0..s.h {
                    for w in 0..s.w {
                        vals.push(y[[n, c, h, w]]);
                    }
                }
            }
            let mean = vals.iter().sum::<f32>() / vals.len() as f32;
            let var = vals.iter().map(|v| (v - mean).powi(2)).sum::<f32>() / vals.len() as f32;
            assert!(mean.abs() < 1e-4, "mean {mean}");
            assert!((var - 1.0).abs() < 1e-2, "var {var}");
        }
    }

    #[test]
    fn eval_uses_running_statistics() {
        let mut bn = BatchNorm2d::new(1);
        let mut rng = XorShiftRng::new(2);
        // Run several training batches with mean ~5 to move the EMA.
        for _ in 0..50 {
            let x = Tensor::from_fn(&[8, 1, 2, 2], |_| rng.next_normal() + 5.0);
            let _ = bn.forward(&x, true);
        }
        // At eval, an input equal to the running mean maps near beta (=0).
        let rm = bn.running_mean.as_slice()[0];
        let x = Tensor::full(&[1, 1, 1, 1], rm);
        let y = bn.forward(&x, false);
        assert!(y.as_slice()[0].abs() < 0.05, "{}", y.as_slice()[0]);
    }

    #[test]
    fn backward_matches_finite_differences() {
        let mut bn = BatchNorm2d::new(2);
        let mut rng = XorShiftRng::new(3);
        let x = Tensor::from_fn(&[2, 2, 2, 2], |_| rng.next_f32() * 2.0 - 1.0);
        // Use a non-uniform upstream gradient: sum of y_i * w_i.
        let wvec: Vec<f32> = (0..x.len()).map(|i| (i as f32 * 0.37).sin()).collect();
        let loss = |bn: &mut BatchNorm2d, x: &Tensor<f32>| {
            let y = bn.forward(x, true);
            bn.ws.x_hat = None; // discard cache from probe passes
            y.as_slice().iter().zip(&wvec).map(|(a, b)| a * b).sum::<f32>()
        };
        let _ = bn.forward(&x, true);
        let gvec = Tensor::from_vec(wvec.clone(), x.shape()).unwrap();
        let gx = bn.backward(&gvec);
        let eps = 1e-3;
        for probe in [0usize, 5, 15] {
            let mut xp = x.clone();
            xp.as_mut_slice()[probe] += eps;
            let mut xm = x.clone();
            xm.as_mut_slice()[probe] -= eps;
            let num = (loss(&mut bn, &xp) - loss(&mut bn, &xm)) / (2.0 * eps);
            let ana = gx.as_slice()[probe];
            assert!((num - ana).abs() < 2e-2, "probe {probe}: {num} vs {ana}");
        }
    }

    #[test]
    fn gamma_beta_gradients_accumulate() {
        let mut bn = BatchNorm2d::new(1);
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[1, 1, 2, 2]).unwrap();
        let _ = bn.forward(&x, true);
        let _ = bn.backward(&Tensor::full(&[1, 1, 2, 2], 1.0));
        // grad_beta is the sum of upstream grads = 4.
        assert!((bn.grad_beta.as_slice()[0] - 4.0).abs() < 1e-5);
        // grad_gamma is sum(gy * x_hat) = sum(x_hat) = 0 for all-ones gy.
        assert!(bn.grad_gamma.as_slice()[0].abs() < 1e-4);
        bn.zero_grad();
        assert_eq!(bn.grad_beta.as_slice()[0], 0.0);
    }
}
