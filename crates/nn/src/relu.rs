//! Rectified linear activation.

use crate::workspace::{give_tensor, hold, lend_tensor, Workspace};
use drq_tensor::Tensor;

/// The ReLU activation, `y = max(0, x)`.
///
/// Section II of the paper observes that post-BN+ReLU feature maps are
/// dominated by values at or near zero with a small set of large sensitive
/// values — this layer is what produces that distribution.
///
/// # Examples
///
/// ```
/// use drq_nn::ReLU;
/// use drq_tensor::Tensor;
///
/// let mut relu = ReLU::new();
/// let x = Tensor::from_vec(vec![-1.0, 2.0], &[2]).unwrap();
/// assert_eq!(relu.forward(&x, false).as_slice(), &[0.0, 2.0]);
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ReLU {
    /// 1 where the training forward's input was positive, until the
    /// backward pass reads it.
    ws: Workspace<Option<Tensor<u8>>>,
}

impl ReLU {
    /// Creates a ReLU layer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Forward pass; caches the activity mask when `train` is set.
    pub fn forward(&mut self, x: &Tensor<f32>, train: bool) -> Tensor<f32> {
        let mut out = Tensor::default();
        self.forward_into(x, train, &mut out);
        out
    }

    /// [`Self::forward`] into `out`, which is resized to the input shape.
    pub(crate) fn forward_into(&mut self, x: &Tensor<f32>, train: bool, out: &mut Tensor<f32>) {
        out.resize(x.shape());
        for (o, &v) in out.as_mut_slice().iter_mut().zip(x.as_slice()) {
            *o = v.max(0.0);
        }
        if train {
            let mut mask = lend_tensor(x.shape());
            for (m, &v) in mask.as_mut_slice().iter_mut().zip(x.as_slice()) {
                *m = u8::from(v > 0.0);
            }
            hold(&mut self.ws, mask);
        }
    }

    /// Backward pass: zeroes gradient where the input was non-positive.
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
    pub(crate) fn backward_into(&mut self, grad_out: &Tensor<f32>, grad_in: &mut Tensor<f32>) {
        let mask = self.ws.take().expect("relu backward without cached forward mask");
        assert_eq!(grad_out.shape(), mask.shape(), "relu mask shape mismatch");
        grad_in.resize(grad_out.shape());
        let gi = grad_in.as_mut_slice().iter_mut();
        for ((d, &g), &m) in gi.zip(grad_out.as_slice()).zip(mask.as_slice()) {
            *d = if m == 1 { g } else { 0.0 };
        }
        give_tensor(mask);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clamps_negatives_only() {
        let mut r = ReLU::new();
        let x = Tensor::from_vec(vec![-3.0, 0.0, 5.0], &[3]).unwrap();
        assert_eq!(r.forward(&x, false).as_slice(), &[0.0, 0.0, 5.0]);
    }

    #[test]
    fn gradient_is_gated_by_sign() {
        let mut r = ReLU::new();
        let x = Tensor::from_vec(vec![-1.0, 2.0, 0.0], &[3]).unwrap();
        let _ = r.forward(&x, true);
        let g = r.backward(&Tensor::from_vec(vec![10.0, 10.0, 10.0], &[3]).unwrap());
        // Gradient passes only where x > 0; exactly-zero input gets zero grad.
        assert_eq!(g.as_slice(), &[0.0, 10.0, 0.0]);
    }

    #[test]
    #[should_panic(expected = "without cached")]
    fn backward_requires_training_forward() {
        let mut r = ReLU::new();
        let x = Tensor::<f32>::zeros(&[2]);
        let _ = r.forward(&x, false);
        let _ = r.backward(&x);
    }
}
