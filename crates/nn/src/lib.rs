//! Minimal CNN training and inference framework for the DRQ reproduction.
//!
//! The DRQ paper (ISCA 2020) trains and fine-tunes its networks in
//! TensorFlow; this crate is the from-scratch Rust substitute. It implements
//! exactly the operator set the paper's workloads need — convolution
//! (including grouped/depthwise), batch normalization, ReLU, max/average
//! pooling, global average pooling, fully connected layers and residual
//! blocks — with full backward passes so the stand-in networks used by the
//! accuracy experiments can be trained to convergence, and with a forward
//! hook mechanism so the DRQ algorithm can observe every convolution input
//! feature map at inference time.
//!
//! # Examples
//!
//! Build and run a tiny network:
//!
//! ```
//! use drq_nn::{Conv2d, Layer, Network, ReLU};
//! use drq_tensor::Tensor;
//!
//! let mut net = Network::new(vec![
//!     Layer::from(Conv2d::new(1, 4, 3, 1, 1, 7)),
//!     Layer::from(ReLU::new()),
//! ]);
//! let x = Tensor::zeros(&[2, 1, 8, 8]);
//! let y = net.forward(&x, false);
//! assert_eq!(y.shape(), &[2, 4, 8, 8]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod batchnorm;
mod conv;
mod error;
mod flatten;
mod layer;
mod linear;
mod loss;
mod metrics;
mod network;
mod optimizer;
mod pool;
mod relu;
mod residual;
mod serialize;
mod workspace;

pub use batchnorm::BatchNorm2d;
pub use conv::Conv2d;
pub use error::NnError;
pub use flatten::Flatten;
pub use layer::{Layer, LayerKind};
pub use linear::Linear;
pub use loss::{softmax, CrossEntropyLoss};
pub use metrics::accuracy;
pub use network::{ConvExecutor, ConvTap, Group, GroupWalk, Network, WalkPoint};
pub use optimizer::Sgd;
pub use pool::{Pool2d, PoolKind};
pub use relu::ReLU;
pub use serialize::{load_weights_durable, save_weights_durable, DurableWeights};
pub use residual::ResidualBlock;
