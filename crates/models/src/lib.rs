//! Workloads for the DRQ reproduction: network topologies, synthetic
//! datasets, trainable stand-in networks and feature-map synthesis.
//!
//! The paper evaluates six ImageNet-class networks (AlexNet, VGG16,
//! ResNet-18, ResNet-50, Inception-v3, MobileNet-v2) on CIFAR-10 and
//! ILSVRC-2012. This crate supplies:
//!
//! * [`topology`] — exact layer-shape models of all six topologies (plus
//!   LeNet-5), the input the cycle/energy simulators consume; cycles and
//!   energy depend only on these shapes and the sensitivity masks, not on
//!   trained weights;
//! * [`dataset`] — procedurally generated datasets standing in for MNIST
//!   (`digits`), CIFAR-10 (`shapes`) and ILSVRC-2012 (`textures`), which are
//!   not redistributable here; they reproduce the property DRQ exploits —
//!   sparse post-ReLU activations whose large values cluster spatially;
//! * [`standins`] — small trainable networks (LeNet-5, TinyConvNet,
//!   ResNet-8) used for the accuracy experiments;
//! * [`synth`] — a statistical synthesizer of post-BN+ReLU feature maps with
//!   spatially aggregated sensitive regions, used to drive the simulators
//!   at full network scale.
//!
//! # Examples
//!
//! ```
//! use drq_models::topology::zoo;
//!
//! let net = zoo::resnet18(zoo::InputRes::Imagenet);
//! assert_eq!(net.name, "ResNet-18");
//! assert!(net.total_macs() > 1_000_000_000);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod dataset;
pub mod export;
pub mod standins;
pub mod synth;
pub mod topology;

pub use dataset::{Dataset, DatasetKind};
pub use standins::{
    default_standin, evaluate, lenet5, resnet8, tiny_convnet, train, TrainConfig, TrainReport,
};
pub use synth::FeatureMapSynthesizer;
pub use topology::{zoo, ConvLayerSpec, LayerOp, NetworkTopology};
