//! Sequential network container with convolution taps.

use crate::layer::chain;
use crate::residual::merge_residual;
use crate::workspace::{WalkBufs, Workspace};
use crate::{Conv2d, Layer, NnError};
use drq_tensor::Tensor;

/// Callback executing one convolution: `(conv_index, layer, input) -> output`.
pub type ConvExecutor<'a> = dyn FnMut(usize, &Conv2d, &Tensor<f32>) -> Tensor<f32> + 'a;

/// Where in a group walk [`GroupWalk::hook`] runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WalkPoint {
    /// Before each layer, and after the last layer of the network, of a
    /// residual main path and of a shortcut.
    Boundary,
    /// After a layer other than a convolution, and after a residual sum.
    Layer,
}

/// The slots of a group walk's members: each holds its member's current
/// activation, or `None` once the hook has dropped the member.
pub type Group = Vec<Option<Tensor<f32>>>;

/// The caller's side of [`Network::walk_group`]: a convolution executor
/// and a per-layer hook.
pub trait GroupWalk {
    /// Runs convolution `conv_index` (execution order, residual main paths
    /// before shortcuts) in one call over every live member of `group`,
    /// returning each member's output in its slot.
    fn conv(&mut self, conv_index: usize, conv: &Conv2d, group: &[Option<Tensor<f32>>]) -> Group;

    /// Runs at `point` with the group; may drop members by emptying their
    /// slots. Does nothing by default.
    fn hook(&mut self, point: WalkPoint, group: &mut [Option<Tensor<f32>>]) {
        let _ = (point, group);
    }
}

/// A closure is a walk with no hook.
impl<F: FnMut(usize, &Conv2d, &[Option<Tensor<f32>>]) -> Group> GroupWalk for F {
    fn conv(&mut self, conv_index: usize, conv: &Conv2d, group: &[Option<Tensor<f32>>]) -> Group {
        self(conv_index, conv, group)
    }
}

/// A sequential network of [`Layer`]s (residual blocks nest inside).
///
/// Besides plain forward/backward, the network supports *convolution taps*:
/// [`Network::forward_tapped`] invokes a callback with every convolution
/// layer's input feature map, exactly the observation point the DRQ
/// sensitivity predictor sits at (the input feature map of the next
/// convolution layer, Section III-B of the paper).
///
/// # Examples
///
/// ```
/// use drq_nn::{Conv2d, Layer, Network, ReLU};
/// use drq_tensor::Tensor;
///
/// let mut net = Network::new(vec![
///     Layer::from(Conv2d::new(1, 2, 3, 1, 1, 1)),
///     Layer::from(ReLU::new()),
/// ]);
/// let mut taps = 0;
/// let _ = net.forward_tapped(&Tensor::zeros(&[1, 1, 4, 4]), &mut |_tap| taps += 1);
/// assert_eq!(taps, 1);
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Network {
    layers: Vec<Layer>,
    ws: Workspace<Walk>,
}

/// The network's training workspace: the result of the last training
/// walk, and the capacities of the buffers its intermediate results took.
#[derive(Default)]
struct Walk {
    out: Tensor<f32>,
    caps: [usize; 3],
}

/// Information handed to a convolution tap: which conv (in network order,
/// counting convs inside residual blocks) and its input feature map.
#[derive(Debug)]
pub struct ConvTap<'a> {
    /// Zero-based index among all convolution layers in execution order.
    pub conv_index: usize,
    /// The input feature map about to enter this convolution.
    pub input: &'a Tensor<f32>,
    /// The convolution layer itself.
    pub conv: &'a crate::Conv2d,
}

impl Network {
    /// Creates a network from layers executed in order.
    pub fn new(layers: Vec<Layer>) -> Self {
        Self { layers, ws: Workspace::default() }
    }

    /// The network's layers.
    pub fn layers(&self) -> &[Layer] {
        &self.layers
    }

    /// Mutable access to the layers.
    pub fn layers_mut(&mut self) -> &mut [Layer] {
        &mut self.layers
    }

    /// Number of convolution layers, including those inside residual blocks.
    pub fn conv_count(&self) -> usize {
        self.convs().len()
    }

    /// Total trainable parameter count.
    pub fn param_count(&mut self) -> usize {
        let mut n = 0;
        self.visit_params(&mut |p, _| n += p.len());
        n
    }

    /// Forward pass through all layers. Training mode is
    /// [`Self::forward_train`] with its result copied out; evaluation keeps
    /// no buffers.
    pub fn forward(&mut self, x: &Tensor<f32>, train: bool) -> Tensor<f32> {
        if train {
            return self.forward_train(x).clone();
        }
        let (mut bufs, mut out) = (<[Tensor<f32>; 2]>::default(), Tensor::default());
        let step = |l: &mut Layer, x: &Tensor<f32>, y: &mut Tensor<f32>| l.forward_into(x, false, y);
        chain(self.layers.iter_mut(), x, &mut bufs, &mut out, step);
        out
    }

    /// Training-mode forward pass: every layer caches what its backward
    /// pass reads in buffers it keeps, and the activations pass through
    /// buffers borrowed from the thread's scratch. A second step of the
    /// same input shape allocates no buffer. Returns the output, which the
    /// next training walk overwrites.
    pub fn forward_train(&mut self, x: &Tensor<f32>) -> &Tensor<f32> {
        let ws = &mut *self.ws;
        let mut walk = WalkBufs::lend(ws.caps, true);
        let step = |l: &mut Layer, x: &Tensor<f32>, y: &mut Tensor<f32>| l.forward_into(x, true, y);
        chain(self.layers.iter_mut(), x, &mut walk.bufs, &mut ws.out, step);
        ws.caps = walk.give();
        &ws.out
    }

    /// Forward pass invoking `tap` with every convolution's input: an
    /// observer over [`Network::forward_conv_override`] whose executor runs
    /// each convolution unchanged.
    ///
    /// Residual blocks are traversed (main path first, then shortcut), so
    /// `conv_index` enumerates every convolution in the network.
    ///
    /// # Panics
    ///
    /// Panics on a residual shape mismatch.
    pub fn forward_tapped(
        &mut self,
        x: &Tensor<f32>,
        tap: &mut dyn FnMut(ConvTap<'_>),
    ) -> Tensor<f32> {
        self.forward_conv_override(x, &mut |conv_index, conv, input| {
            tap(ConvTap { conv_index, input, conv });
            conv.forward_with_weights(input, conv.weight())
        })
    }

    /// Forward pass in which every convolution is *executed by* `exec`
    /// instead of the layer itself. `exec` receives the running convolution
    /// index, the layer, and its input feature map, and must return the
    /// layer's output.
    ///
    /// This is the substitution point for quantized and mixed-precision
    /// execution: the surrounding layers (BN, ReLU, pooling, residual sums)
    /// run normally while convolutions go through the caller's datapath.
    ///
    /// It is [`Network::walk_group`] over a group of one.
    ///
    /// # Panics
    ///
    /// Panics on a residual shape mismatch, with the
    /// [`NnError::ShapeMismatch`] message.
    pub fn forward_conv_override(
        &mut self,
        x: &Tensor<f32>,
        exec: &mut ConvExecutor<'_>,
    ) -> Tensor<f32> {
        let mut each = |i, conv: &Conv2d, group: &[Option<Tensor<f32>>]| -> Group {
            group.iter().map(|x| x.as_ref().map(|x| exec(i, conv, x))).collect()
        };
        let out = self.walk_group(vec![Some(x.clone())], &mut each);
        let y = out.unwrap_or_else(|e| panic!("{e}")).pop().flatten();
        y.expect("this walk drops no member")
    }

    /// The inference walk: runs every member of `group` through the
    /// network together, in evaluation mode.
    ///
    /// Each convolution is one [`GroupWalk::conv`] call over every live
    /// member. The other layers run per member. A residual block runs its
    /// main path, then its shortcut on each member's block input, and adds
    /// the two. [`GroupWalk::hook`] runs before every layer, after the
    /// last layer of each layer list and after every other layer or
    /// residual sum; it may drop members. Once every member is dropped
    /// the walk runs no more layers. Returns each member's output in its
    /// slot, `None` for a dropped member.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::ShapeMismatch`] if a residual block's main and
    /// shortcut paths produce different shapes.
    pub fn walk_group(
        &mut self,
        mut group: Group,
        walk: &mut dyn GroupWalk,
    ) -> Result<Group, NnError> {
        Ok(walk_layers(&mut self.layers, &mut group, &mut 0, walk)?.unwrap_or(group))
    }

    /// Every convolution layer, in the order [`Network::walk_group`] runs
    /// them: residual main paths before their shortcuts.
    pub fn convs(&self) -> Vec<&Conv2d> {
        fn collect<'a>(layers: &'a [Layer], out: &mut Vec<&'a Conv2d>) {
            for l in layers {
                match l {
                    Layer::Conv2d(c) => out.push(c),
                    Layer::Residual(r) => {
                        collect(r.main(), out);
                        collect(r.shortcut(), out);
                    }
                    _ => {}
                }
            }
        }
        let mut out = Vec::new();
        collect(&self.layers, &mut out);
        out
    }

    /// Backward pass; returns the gradient w.r.t. the network input
    /// ([`Self::backward_train`], copied out).
    pub fn backward(&mut self, grad_out: &Tensor<f32>) -> Tensor<f32> {
        self.backward_train(grad_out).clone()
    }

    /// Backward pass on the network's workspaces, the counterpart of
    /// [`Self::forward_train`]. Returns the gradient w.r.t. the network
    /// input, which the next training walk overwrites.
    ///
    /// # Panics
    ///
    /// Panics unless a training-mode forward pass ran since the last
    /// backward pass.
    pub fn backward_train(&mut self, grad_out: &Tensor<f32>) -> &Tensor<f32> {
        let ws = &mut *self.ws;
        let mut walk = WalkBufs::lend(ws.caps, true);
        let step = |l: &mut Layer, g: &Tensor<f32>, d: &mut Tensor<f32>| l.backward_into(g, d);
        chain(self.layers.iter_mut().rev(), grad_out, &mut walk.bufs, &mut ws.out, step);
        ws.caps = walk.give();
        &ws.out
    }

    /// Zeroes all accumulated gradients.
    pub fn zero_grad(&mut self) {
        for l in &mut self.layers {
            l.zero_grad();
        }
    }

    /// Visits every `(param, grad)` pair in stable order.
    pub fn visit_params(&mut self, f: &mut dyn FnMut(&mut Tensor<f32>, &mut Tensor<f32>)) {
        for l in &mut self.layers {
            l.visit_params(f);
        }
    }
}

/// Runs the group `x` through `layers` (see [`Network::walk_group`]) and
/// returns the outputs, or `None` if no layer ran, in which case `x` is
/// the output. The walk drops members from `x` but leaves its tensors as
/// they are, so a residual block reads its input after the main path ran.
/// `conv_index` counts the convolutions run so far.
fn walk_layers(
    layers: &mut [Layer],
    x: &mut [Option<Tensor<f32>>],
    conv_index: &mut usize,
    walk: &mut dyn GroupWalk,
) -> Result<Option<Group>, NnError> {
    let mut y: Option<Group> = None;
    for l in layers.iter_mut() {
        let cur = match y.as_mut() {
            Some(y) => y.as_mut_slice(),
            None => &mut *x,
        };
        walk.hook(WalkPoint::Boundary, cur);
        if cur.iter().all(Option::is_none) {
            return Ok(y);
        }
        let mut next = match l {
            Layer::Conv2d(c) => {
                let out = walk.conv(*conv_index, c, cur);
                *conv_index += 1;
                y = Some(out);
                continue;
            }
            Layer::Residual(r) => {
                let mut main = walk_layers(r.main_mut(), cur, conv_index, walk)?
                    .unwrap_or_else(|| cur.to_vec());
                // Members the main path dropped skip the shortcut.
                let dropped = cur.iter_mut().zip(&main).filter(|(_, m)| m.is_none());
                dropped.for_each(|(input, _)| *input = None);
                let short = if r.shortcut().is_empty() {
                    None
                } else {
                    walk_layers(r.shortcut_mut(), cur, conv_index, walk)?
                };
                for (m, s) in main.iter_mut().zip(short.as_deref().unwrap_or(cur)) {
                    match (m.as_mut(), s) {
                        (Some(m), Some(s)) => merge_residual(m, s)?,
                        _ => *m = None,
                    }
                }
                main
            }
            // The first layer of a list reads `x`, which a residual block
            // adds after its main path; later layers replace their input.
            other => match y.take() {
                Some(mut owned) => {
                    owned.iter_mut().flatten().for_each(|t| *t = other.forward(t, false));
                    owned
                }
                None => x.iter().map(|t| t.as_ref().map(|t| other.forward(t, false))).collect(),
            },
        };
        walk.hook(WalkPoint::Layer, &mut next);
        y = Some(next);
    }
    walk.hook(WalkPoint::Boundary, y.as_deref_mut().unwrap_or(x));
    Ok(y)
}

impl FromIterator<Layer> for Network {
    fn from_iter<I: IntoIterator<Item = Layer>>(iter: I) -> Self {
        Self::new(iter.into_iter().collect())
    }
}

impl Extend<Layer> for Network {
    fn extend<I: IntoIterator<Item = Layer>>(&mut self, iter: I) {
        self.layers.extend(iter);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BatchNorm2d, Conv2d, CrossEntropyLoss, Flatten, Linear, Pool2d, PoolKind, ReLU, ResidualBlock, Sgd};
    use drq_tensor::XorShiftRng;

    fn tiny_cnn(seed: u64) -> Network {
        Network::new(vec![
            Layer::from(Conv2d::new(1, 4, 3, 1, 1, seed)),
            Layer::from(BatchNorm2d::new(4)),
            Layer::from(ReLU::new()),
            Layer::from(Pool2d::new(PoolKind::Max, 2, 2)),
            Layer::from(Flatten::new()),
            Layer::from(Linear::new(4 * 4 * 4, 3, seed + 1)),
        ])
    }

    #[test]
    fn forward_shape_end_to_end() {
        let mut net = tiny_cnn(1);
        let y = net.forward(&Tensor::zeros(&[2, 1, 8, 8]), false);
        assert_eq!(y.shape(), &[2, 3]);
    }

    #[test]
    fn conv_count_traverses_residuals() {
        let mut layers = vec![Layer::from(Conv2d::new(1, 2, 3, 1, 1, 1))];
        layers.push(Layer::from(ResidualBlock::new(
            vec![Layer::from(Conv2d::new(2, 2, 3, 1, 1, 2))],
            vec![Layer::from(Conv2d::new(2, 2, 1, 1, 0, 3))],
        )));
        let net = Network::new(layers);
        assert_eq!(net.conv_count(), 3);
    }

    #[test]
    fn tapped_forward_sees_every_conv_input() {
        let mut net = Network::new(vec![
            Layer::from(Conv2d::new(1, 2, 3, 1, 1, 1)),
            Layer::from(ReLU::new()),
            Layer::from(ResidualBlock::new(
                vec![Layer::from(Conv2d::new(2, 2, 3, 1, 1, 2))],
                vec![],
            )),
        ]);
        let mut seen = Vec::new();
        let _ = net.forward_tapped(&Tensor::zeros(&[1, 1, 6, 6]), &mut |tap| {
            seen.push((tap.conv_index, tap.input.shape().to_vec()));
        });
        assert_eq!(seen.len(), 2);
        assert_eq!(seen[0], (0, vec![1, 1, 6, 6]));
        assert_eq!(seen[1], (1, vec![1, 2, 6, 6]));
    }

    #[test]
    fn tapped_forward_matches_plain_forward() {
        let mut net = tiny_cnn(5);
        let mut rng = XorShiftRng::new(6);
        let x = Tensor::from_fn(&[1, 1, 8, 8], |_| rng.next_f32());
        let y1 = net.forward(&x, false);
        let y2 = net.forward_tapped(&x, &mut |_| {});
        for (a, b) in y1.as_slice().iter().zip(y2.as_slice()) {
            assert!((a - b).abs() < 1e-6);
        }
    }

    #[test]
    fn training_reduces_loss_on_tiny_task() {
        // 3-class toy images: class = quadrant of the bright blob.
        let mut net = tiny_cnn(11);
        let mut opt = Sgd::new(0.05).momentum(0.9);
        let mut rng = XorShiftRng::new(12);
        let make_batch = |rng: &mut XorShiftRng| {
            let n = 12;
            let mut x = Tensor::<f32>::zeros(&[n, 1, 8, 8]);
            let mut t = Vec::with_capacity(n);
            for i in 0..n {
                let class = i % 3;
                let (cy, cx) = match class {
                    0 => (2, 2),
                    1 => (2, 5),
                    _ => (5, 2),
                };
                for dy in 0..2 {
                    for dx in 0..2 {
                        x[[i, 0, cy + dy, cx + dx]] = 1.0 + 0.1 * rng.next_normal();
                    }
                }
                t.push(class);
            }
            (x, t)
        };
        let mut first = None;
        let mut last = 0.0;
        for _ in 0..40 {
            let (x, t) = make_batch(&mut rng);
            let logits = net.forward(&x, true);
            let (loss, grad) = CrossEntropyLoss::evaluate(&logits, &t);
            net.backward(&grad);
            opt.step(&mut net);
            first.get_or_insert(loss);
            last = loss;
        }
        assert!(last < first.unwrap() * 0.5, "training failed: {last} vs {first:?}");
    }

    #[test]
    fn conv_override_substitutes_execution() {
        let mut net = tiny_cnn(7);
        let mut rng = XorShiftRng::new(8);
        let x = Tensor::from_fn(&[1, 1, 8, 8], |_| rng.next_f32());
        // Identity override: behaves like plain forward.
        let y_plain = net.forward(&x, false);
        let y_over = net.forward_conv_override(&x, &mut |_, conv, input| {
            conv.forward_with_weights(input, conv.weight())
        });
        for (a, b) in y_plain.as_slice().iter().zip(y_over.as_slice()) {
            assert!((a - b).abs() < 1e-6);
        }
        // Zeroing override changes the result.
        let y_zero = net.forward_conv_override(&x, &mut |_, conv, input| {
            let w = Tensor::zeros(conv.weight().shape());
            conv.forward_with_weights(input, &w)
        });
        assert!(y_zero
            .as_slice()
            .iter()
            .zip(y_plain.as_slice())
            .any(|(a, b)| (a - b).abs() > 1e-6));
    }

    /// Stem conv, an identity block, a strided block with a projection
    /// shortcut, and a pooled dense head: every layer kind the training
    /// walk keeps memory for.
    fn small_resnet(seed: u64) -> Network {
        let block = |cin: usize, cout: usize, stride: usize, seed: u64| {
            let main = vec![
                Layer::from(Conv2d::new(cin, cout, 3, stride, 1, seed)),
                Layer::from(BatchNorm2d::new(cout)),
                Layer::from(ReLU::new()),
                Layer::from(Conv2d::new(cout, cout, 3, 1, 1, seed + 1)),
                Layer::from(BatchNorm2d::new(cout)),
            ];
            let shortcut = if stride == 1 && cin == cout {
                vec![]
            } else {
                vec![
                    Layer::from(Conv2d::new(cin, cout, 1, stride, 0, seed + 2)),
                    Layer::from(BatchNorm2d::new(cout)),
                ]
            };
            Layer::from(ResidualBlock::new(main, shortcut))
        };
        Network::new(vec![
            Layer::from(Conv2d::new(3, 4, 3, 1, 1, seed)),
            Layer::from(BatchNorm2d::new(4)),
            Layer::from(ReLU::new()),
            Layer::from(Pool2d::new(PoolKind::Max, 2, 2)),
            block(4, 4, 1, seed + 10),
            Layer::from(ReLU::new()),
            block(4, 8, 2, seed + 20),
            Layer::from(ReLU::new()),
            Layer::from(Pool2d::global_avg()),
            Layer::from(Flatten::new()),
            Layer::from(Linear::new(8, 3, seed + 30)),
        ])
    }

    fn batch(n: usize, seed: u64) -> (Tensor<f32>, Vec<usize>) {
        let mut rng = XorShiftRng::new(seed);
        let x = Tensor::from_fn(&[n, 3, 12, 12], |_| rng.next_f32() - 0.5);
        (x, (0..n).map(|i| i % 3).collect())
    }

    /// One training step on the workspaces; returns the loss.
    fn step(net: &mut Network, opt: &mut Sgd, x: &Tensor<f32>, t: &[usize]) -> f32 {
        let (loss, grad) = CrossEntropyLoss::evaluate(net.forward_train(x), t);
        net.backward_train(&grad);
        opt.step(net);
        loss
    }

    fn bits(net: &mut Network) -> (Vec<u32>, Vec<u32>) {
        let (mut params, mut grads) = (Vec::new(), Vec::new());
        net.visit_params(&mut |p, g| {
            params.extend(p.as_slice().iter().map(|v| v.to_bits()));
            grads.extend(g.as_slice().iter().map(|v| v.to_bits()));
        });
        (params, grads)
    }

    #[test]
    fn a_second_same_shape_step_allocates_no_buffer() {
        // Every buffer a step borrows goes back to the thread's scratch, and
        // the second step borrows the very same buffers (address and
        // capacity) without adding one.
        let mut net = small_resnet(3);
        let mut opt = Sgd::new(0.01).momentum(0.9);
        let (x, t) = batch(4, 5);
        step(&mut net, &mut opt, &x, &t);
        let after_first = crate::workspace::scratch_buffers();
        assert!(!after_first.is_empty());
        for _ in 0..2 {
            step(&mut net, &mut opt, &x, &t);
            assert_eq!(crate::workspace::scratch_buffers(), after_first);
        }
        // A training forward holds its caches until the backward pass.
        net.forward_train(&x);
        assert!(crate::workspace::scratch_buffers().len() < after_first.len());
    }

    #[test]
    fn steps_at_changing_batch_sizes_match_a_fresh_clone_bitwise() {
        // Batch 16, then 4, then 16 again: the workspaces shrink and grow,
        // and each step matches the same step on a clone whose workspaces
        // start empty, in loss, every gradient and every parameter.
        let mut net = small_resnet(7);
        let mut opt = Sgd::new(0.05).momentum(0.9);
        for (i, n) in [16, 4, 16].into_iter().enumerate() {
            let (x, t) = batch(n, 11 + i as u64);
            let (mut fresh, mut fresh_opt) = (net.clone(), opt.clone());
            net.zero_grad();
            fresh.zero_grad();
            let loss = step(&mut net, &mut opt, &x, &t);
            let want = step(&mut fresh, &mut fresh_opt, &x, &t);
            assert_eq!(loss.to_bits(), want.to_bits(), "loss, batch {n}");
            assert_eq!(bits(&mut net), bits(&mut fresh), "params and grads, batch {n}");
        }
    }

    #[test]
    fn the_scratch_keeps_what_its_thread_outgrew() {
        // Each sequence runs on a thread of its own, whose scratch starts
        // empty. A smaller step between two large ones borrows the large
        // step's buffers and adds none; a larger step after a smaller one
        // cannot use the smaller buffers for its own requests, and the
        // scratch keeps them.
        fn scratch_after(batches: &'static [usize]) -> Vec<Vec<(usize, usize)>> {
            std::thread::spawn(move || {
                let mut net = small_resnet(12);
                let mut opt = Sgd::new(0.01);
                let steps = batches.iter().map(|&n| {
                    let (x, t) = batch(n, n as u64);
                    step(&mut net, &mut opt, &x, &t);
                    crate::workspace::scratch_buffers()
                });
                steps.collect()
            })
            .join()
            .unwrap()
        }
        let held = |s: &[(usize, usize)]| s.iter().map(|&(_, cap)| cap).sum::<usize>();
        let down_up = scratch_after(&[16, 4, 16]);
        assert_eq!(down_up[1], down_up[0], "a batch-4 step after batch 16");
        assert_eq!(down_up[2], down_up[0], "batch 16 again");
        let up = scratch_after(&[4, 16]);
        assert!(held(&up[1]) > held(&down_up[0]), "batch 16 after batch 4 holds more than batch 16");
    }

    #[test]
    fn training_walk_matches_the_public_layer_calls_bitwise() {
        // The walk on lent buffers against each layer's own forward and
        // backward, which allocate their results.
        let (mut walked, mut called) = (small_resnet(9), small_resnet(9));
        let (x, t) = batch(5, 13);
        let logits = walked.forward_train(&x).clone();
        let mut y = x.clone();
        for l in called.layers_mut() {
            y = l.forward(&y, true);
        }
        assert_eq!(logits, y);
        let (_, grad) = CrossEntropyLoss::evaluate(&logits, &t);
        let gx = walked.backward_train(&grad).clone();
        let mut g = grad;
        for l in called.layers_mut().iter_mut().rev() {
            g = l.backward(&g);
        }
        assert_eq!(gx, g);
        assert_eq!(bits(&mut walked), bits(&mut called));
    }

    #[test]
    fn an_evaluation_forward_leaves_the_training_caches_alone() {
        // Fine-tuning runs the DRQ forward, which evaluates the same layers,
        // on the network it trains; between a training forward and its
        // backward pass that must change no gradient.
        let (x, t) = batch(3, 8);
        let mut plain = small_resnet(6);
        let mut interleaved = plain.clone();
        let (_, grad) = CrossEntropyLoss::evaluate(plain.forward_train(&x), &t);
        plain.backward_train(&grad);
        interleaved.forward_train(&x);
        let _ = interleaved.forward(&x, false);
        interleaved.backward_train(&grad);
        assert_eq!(bits(&mut plain), bits(&mut interleaved));
    }

    #[test]
    fn clones_and_equality_ignore_the_workspace() {
        let mut net = small_resnet(4);
        let (x, t) = batch(2, 6);
        let (_, grad) = CrossEntropyLoss::evaluate(net.forward_train(&x), &t);
        // Caches held by the forward pass neither travel with a clone nor
        // make the network compare unequal to it.
        let mut clone = net.clone();
        assert_eq!(clone, net);
        let no_cache = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            clone.backward_train(&grad);
        }));
        assert!(no_cache.is_err(), "a clone must not carry the forward's caches");
        net.backward_train(&grad);
    }

    #[test]
    fn a_group_walk_drops_members_and_runs_the_rest_as_groups_of_one() {
        // A hook that drops member 1 at the seventh boundary, between the
        // first residual block's two main-path convolutions.
        struct DropOne(usize, Vec<(usize, usize)>);
        impl GroupWalk for DropOne {
            fn conv(&mut self, i: usize, conv: &Conv2d, group: &[Option<Tensor<f32>>]) -> Group {
                self.1.push((i, group.iter().flatten().count()));
                let run = |x: &Tensor<f32>| conv.forward_with_weights(x, conv.weight());
                group.iter().map(|x| x.as_ref().map(run)).collect()
            }
            fn hook(&mut self, point: WalkPoint, group: &mut [Option<Tensor<f32>>]) {
                self.0 += (point == WalkPoint::Boundary) as usize;
                if self.0 == 7 {
                    group[1] = None;
                }
            }
        }
        let mut net = small_resnet(2);
        let xs: Vec<Tensor<f32>> = (0..3).map(|i| batch(1 + i, 20 + i as u64).0).collect();
        let mut walk = DropOne(0, Vec::new());
        let group = net.walk_group(xs.iter().cloned().map(Some).collect(), &mut walk).unwrap();
        assert!(group[1].is_none());
        for i in [0, 2] {
            let alone = net.forward_tapped(&xs[i], &mut |_| {});
            assert_eq!(group[i].as_ref(), Some(&alone), "member {i}");
        }
        let live: Vec<usize> = walk.1.iter().map(|&(_, n)| n).collect();
        assert_eq!(live, [3, 3, 2, 2, 2, 2]);
        assert!(walk.1.iter().enumerate().all(|(i, &(c, _))| c == i));
    }

    #[test]
    fn convs_are_listed_in_walk_order() {
        let mut net = small_resnet(3);
        let mut walked = Vec::new();
        let mut tap = |tap: ConvTap<'_>| walked.push(tap.conv as *const Conv2d);
        let _ = net.forward_tapped(&batch(1, 4).0, &mut tap);
        let listed: Vec<_> = net.convs().into_iter().map(|c| c as *const Conv2d).collect();
        assert_eq!(listed, walked);
        assert_eq!(net.conv_count(), 6);
    }

    #[test]
    fn param_count_is_positive_and_stable() {
        let mut net = tiny_cnn(2);
        let a = net.param_count();
        let b = net.param_count();
        assert_eq!(a, b);
        assert!(a > 0);
    }
}
