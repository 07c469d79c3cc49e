//! Residual blocks (ResNet-style skip connections).

use crate::layer::chain;
use crate::workspace::{WalkBufs, Workspace};
use crate::{Layer, NnError};
use drq_tensor::Tensor;

/// A residual block: `y = main(x) + shortcut(x)`.
///
/// The shortcut is the identity when empty, or a projection (typically a
/// strided 1×1 convolution plus batch norm) when the main path changes shape.
/// ResNet-18/-50 and the ResNet-8 training stand-in are built from these.
///
/// # Examples
///
/// ```
/// use drq_nn::{Conv2d, Layer, ResidualBlock, ReLU, BatchNorm2d};
/// use drq_tensor::Tensor;
///
/// let block = ResidualBlock::new(
///     vec![
///         Layer::from(Conv2d::new(4, 4, 3, 1, 1, 1)),
///         Layer::from(BatchNorm2d::new(4)),
///         Layer::from(ReLU::new()),
///         Layer::from(Conv2d::new(4, 4, 3, 1, 1, 2)),
///         Layer::from(BatchNorm2d::new(4)),
///     ],
///     vec![],
/// );
/// let mut layer = Layer::from(block);
/// let y = layer.forward(&Tensor::zeros(&[1, 4, 8, 8]), false);
/// assert_eq!(y.shape(), &[1, 4, 8, 8]);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ResidualBlock {
    main: Vec<Layer>,
    shortcut: Vec<Layer>,
    /// Capacities of the walk buffers the last training walk needed.
    ws: Workspace<[usize; 3]>,
}

/// Adds a residual block's shortcut result onto its main path's, in place,
/// surfacing shape mismatches as the typed error the `try_*` forward
/// variants propagate.
pub(crate) fn merge_residual(main: &mut Tensor<f32>, short: &Tensor<f32>) -> Result<(), NnError> {
    if main.shape() != short.shape() {
        return Err(NnError::ShapeMismatch {
            context: "residual shape mismatch",
            detail: format!("{:?} vs {:?}", main.shape(), short.shape()),
        });
    }
    for (a, &b) in main.as_mut_slice().iter_mut().zip(short.as_slice()) {
        *a += b;
    }
    Ok(())
}

impl ResidualBlock {
    /// Creates a block from a main path and a (possibly empty) shortcut path.
    pub fn new(main: Vec<Layer>, shortcut: Vec<Layer>) -> Self {
        Self { main, shortcut, ws: Workspace::default() }
    }

    /// The main-path layers.
    pub fn main(&self) -> &[Layer] {
        &self.main
    }

    /// Mutable access to the main-path layers.
    pub fn main_mut(&mut self) -> &mut [Layer] {
        &mut self.main
    }

    /// The shortcut-path layers (empty = identity).
    pub fn shortcut(&self) -> &[Layer] {
        &self.shortcut
    }

    /// Mutable access to the shortcut-path layers.
    pub fn shortcut_mut(&mut self) -> &mut [Layer] {
        &mut self.shortcut
    }

    /// Forward pass: main path plus shortcut, elementwise.
    ///
    /// # Panics
    ///
    /// Panics if the two paths produce different shapes.
    pub fn forward(&mut self, x: &Tensor<f32>, train: bool) -> Tensor<f32> {
        let mut out = Tensor::default();
        self.forward_into(x, train, &mut out);
        out
    }

    /// [`Self::forward`] into `out`: the main path writes `out`, and the
    /// shortcut's result (the input itself when the shortcut is empty) is
    /// added onto it. The shortcut walk runs after the main one and reuses
    /// its intermediate buffers, which training mode borrows from the
    /// thread's scratch.
    pub(crate) fn forward_into(&mut self, x: &Tensor<f32>, train: bool, out: &mut Tensor<f32>) {
        let mut walk = WalkBufs::lend(*self.ws, train);
        let step = |l: &mut Layer, x: &Tensor<f32>, y: &mut Tensor<f32>| l.forward_into(x, train, y);
        chain(self.main.iter_mut(), x, &mut walk.bufs, out, step);
        let short = if self.shortcut.is_empty() {
            x
        } else {
            chain(self.shortcut.iter_mut(), x, &mut walk.bufs, &mut walk.extra, step);
            &walk.extra
        };
        merge_residual(out, short).expect("residual paths must produce identical shapes");
        if train {
            *self.ws = walk.give();
        }
    }

    /// Backward pass; sums gradients from both paths.
    pub fn backward(&mut self, grad_out: &Tensor<f32>) -> Tensor<f32> {
        let mut grad_in = Tensor::default();
        self.backward_into(grad_out, &mut grad_in);
        grad_in
    }

    /// [`Self::backward`] into `grad_in`, on buffers borrowed from the
    /// thread's scratch.
    pub(crate) fn backward_into(&mut self, grad_out: &Tensor<f32>, grad_in: &mut Tensor<f32>) {
        let mut walk = WalkBufs::lend(*self.ws, true);
        let step = |l: &mut Layer, g: &Tensor<f32>, d: &mut Tensor<f32>| l.backward_into(g, d);
        chain(self.main.iter_mut().rev(), grad_out, &mut walk.bufs, grad_in, step);
        let short = if self.shortcut.is_empty() {
            grad_out
        } else {
            let main = self.shortcut.iter_mut().rev();
            chain(main, grad_out, &mut walk.bufs, &mut walk.extra, step);
            &walk.extra
        };
        merge_residual(grad_in, short).expect("residual gradient shape mismatch");
        *self.ws = walk.give();
    }

    /// Zeroes accumulated gradients on both paths.
    pub fn zero_grad(&mut self) {
        for l in self.main.iter_mut().chain(self.shortcut.iter_mut()) {
            l.zero_grad();
        }
    }

    /// Visits parameters on the main path then the shortcut path.
    pub fn visit_params(&mut self, f: &mut dyn FnMut(&mut Tensor<f32>, &mut Tensor<f32>)) {
        for l in self.main.iter_mut().chain(self.shortcut.iter_mut()) {
            l.visit_params(f);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BatchNorm2d, Conv2d, ReLU};
    use drq_tensor::XorShiftRng;

    #[test]
    fn identity_shortcut_adds_input() {
        // Main path of a single zeroed conv => y == x.
        let mut conv = Conv2d::new(2, 2, 3, 1, 1, 1);
        conv.weight_mut().map_inplace(|_| 0.0);
        let mut block = ResidualBlock::new(vec![Layer::from(conv)], vec![]);
        let x = Tensor::from_fn(&[1, 2, 4, 4], |i| i as f32);
        let y = block.forward(&x, false);
        assert_eq!(y.as_slice(), x.as_slice());
    }

    #[test]
    fn projection_shortcut_changes_shape() {
        let block = ResidualBlock::new(
            vec![
                Layer::from(Conv2d::new(2, 4, 3, 2, 1, 1)),
                Layer::from(BatchNorm2d::new(4)),
            ],
            vec![
                Layer::from(Conv2d::new(2, 4, 1, 2, 0, 2)),
                Layer::from(BatchNorm2d::new(4)),
            ],
        );
        let mut layer = Layer::from(block);
        let y = layer.forward(&Tensor::zeros(&[1, 2, 8, 8]), false);
        assert_eq!(y.shape(), &[1, 4, 4, 4]);
    }

    #[test]
    fn backward_matches_finite_differences() {
        let mut block = ResidualBlock::new(
            vec![
                Layer::from(Conv2d::new(2, 2, 3, 1, 1, 11)),
                Layer::from(ReLU::new()),
            ],
            vec![],
        );
        let mut rng = XorShiftRng::new(13);
        let x = Tensor::from_fn(&[1, 2, 4, 4], |_| rng.next_f32() - 0.5);
        let _ = block.forward(&x, true);
        let ones = Tensor::<f32>::full(&[1, 2, 4, 4], 1.0);
        let gx = block.backward(&ones);
        let eps = 1e-3;
        for probe in [0usize, 10, 31] {
            let mut xp = x.clone();
            xp.as_mut_slice()[probe] += eps;
            let mut xm = x.clone();
            xm.as_mut_slice()[probe] -= eps;
            let num = (block.forward(&xp, false).sum() - block.forward(&xm, false).sum())
                / (2.0 * eps);
            let ana = gx.as_slice()[probe];
            assert!((num - ana).abs() < 2e-2, "probe {probe}: {num} vs {ana}");
        }
    }

    #[test]
    fn param_visit_covers_both_paths() {
        let mut block = ResidualBlock::new(
            vec![Layer::from(Conv2d::new(2, 2, 3, 1, 1, 1))],
            vec![Layer::from(Conv2d::new(2, 2, 1, 1, 0, 2))],
        );
        let mut count = 0;
        block.visit_params(&mut |_, _| count += 1);
        assert_eq!(count, 4); // two convs x (weight + bias)
    }
}
