//! The DRQ algorithm (Section III of the paper).
//!
//! This crate implements the paper's primary algorithmic contribution:
//!
//! * [`RegionSize`]/[`RegionGrid`] — the x×y rectangles that partition each
//!   feature map into regions (Section II-B);
//! * [`SensitivityPredictor`] — mean filtering over each region plus a step
//!   threshold, producing a binary [`MaskMap`] per channel (Section III-B).
//!   Its two stages are public: [`RegionSums`] holds the
//!   threshold-independent region sums of a map's [`Int8Codes`], and
//!   [`RegionSums::step`] applies a threshold to them;
//! * [`MixedPrecisionConv`] — the sensitivity-aware convolution that runs
//!   INT8 over sensitive regions and INT4 (with weights clipped from INT8)
//!   over insensitive ones (Section III-C), with exact INT4/INT8 MAC
//!   accounting;
//! * [`DrqNetwork`] — a wrapper that runs a `drq-nn` network with dynamic
//!   per-image region quantization at every convolution, including the
//!   deep-layer scaling rules of Section VI-B2 ([`DrqConfig::for_layer`]);
//! * [`segments`] — visualization of sensitive regions (Fig. 3).
//!
//! The Section III-D search for each network's region size and threshold
//! lives in `drq-dse` (`drq_dse::explore`), beside the Pareto search.
//!
//! # Examples
//!
//! ```
//! use drq_core::{RegionSize, SensitivityPredictor};
//! use drq_tensor::Tensor;
//!
//! let x = Tensor::from_fn(&[1, 1, 8, 8], |i| if i < 16 { 3.0 } else { 0.0 });
//! let predictor = SensitivityPredictor::new(RegionSize::new(4, 4), 1.0);
//! let masks = predictor.predict(&x);
//! // Top-left blob makes the first region row sensitive.
//! assert!(masks[0].is_sensitive(0, 0));
//! assert!(!masks[0].is_sensitive(1, 1));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod calibration;
mod codes;
mod config;
mod drq_net;
mod error;
mod finetune;
mod mask;
mod mixed_conv;
mod predictor;
mod region;
pub mod segments;

pub use calibration::{calibrate_thresholds, LayerThresholds};
pub use codes::Int8Codes;
pub use config::{DrqConfig, LayerDrqConfig};
pub use drq_net::{prepare_plans, DrqExecutor, DrqLayerStats, DrqNetwork, DrqRunStats};
pub use error::DrqError;
pub use finetune::{finetune, finetune_step};
pub use mask::MaskMap;
pub use mixed_conv::{uniform_masks, CoalesceInput, ConvOpCounts, ConvPlan, MixedPrecisionConv};
pub use predictor::{RegionSums, SensitivityPredictor};
pub use region::{RegionGrid, RegionSize};
