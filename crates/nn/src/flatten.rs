//! Flatten layer (NCHW → matrix).

use crate::workspace::Workspace;
use drq_tensor::Tensor;

/// Flattens a rank-4 tensor to `[n, c*h*w]` for fully connected heads.
///
/// # Examples
///
/// ```
/// use drq_nn::Flatten;
/// use drq_tensor::Tensor;
///
/// let mut f = Flatten::new();
/// let y = f.forward(&Tensor::zeros(&[2, 3, 4, 4]), false);
/// assert_eq!(y.shape(), &[2, 48]);
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Flatten {
    ws: Workspace<FlattenWs>,
}

/// The flatten layer's training workspace.
#[derive(Default)]
struct FlattenWs {
    /// The training forward's input shape.
    shape: Vec<usize>,
    /// Whether `shape` belongs to a forward no backward has consumed yet.
    cached: bool,
}

impl Flatten {
    /// Creates a flatten layer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Forward pass; remembers the input shape when `train` is set.
    ///
    /// # Panics
    ///
    /// Panics if the input has rank < 2.
    pub fn forward(&mut self, x: &Tensor<f32>, train: bool) -> Tensor<f32> {
        let mut out = Tensor::default();
        self.forward_into(x, train, &mut out);
        out
    }

    /// [`Self::forward`] into `out`, which is resized to `[n, c*h*w]`.
    pub(crate) fn forward_into(&mut self, x: &Tensor<f32>, train: bool, out: &mut Tensor<f32>) {
        assert!(x.rank() >= 2, "flatten needs at least rank 2");
        if train {
            self.ws.shape.clear();
            self.ws.shape.extend_from_slice(x.shape());
            self.ws.cached = true;
        }
        let n = x.shape()[0];
        let rest = x.len() / n.max(1);
        out.resize(&[n, rest]);
        out.as_mut_slice().copy_from_slice(x.as_slice());
    }

    /// Backward pass: restores the original shape.
    ///
    /// # Panics
    ///
    /// Panics if called before a training-mode forward pass.
    pub fn backward(&mut self, grad_out: &Tensor<f32>) -> Tensor<f32> {
        let mut grad_in = Tensor::default();
        self.backward_into(grad_out, &mut grad_in);
        grad_in
    }

    /// [`Self::backward`] into `grad_in`, which is resized to the input
    /// shape.
    pub(crate) fn backward_into(&mut self, grad_out: &Tensor<f32>, grad_in: &mut Tensor<f32>) {
        let ws = &mut *self.ws;
        assert!(std::mem::take(&mut ws.cached), "flatten backward without cached forward");
        assert_eq!(ws.shape.iter().product::<usize>(), grad_out.len(), "unflatten reshape");
        grad_in.resize(&ws.shape);
        grad_in.as_mut_slice().copy_from_slice(grad_out.as_slice());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_shapes() {
        let mut f = Flatten::new();
        let x = Tensor::<f32>::from_fn(&[2, 3, 2, 2], |i| i as f32);
        let y = f.forward(&x, true);
        assert_eq!(y.shape(), &[2, 12]);
        let g = f.backward(&y);
        assert_eq!(g.shape(), x.shape());
        assert_eq!(g.as_slice(), x.as_slice());
    }

    #[test]
    #[should_panic(expected = "without cached")]
    fn backward_requires_forward() {
        let mut f = Flatten::new();
        let _ = f.backward(&Tensor::<f32>::zeros(&[1, 4]));
    }
}
