//! # DRQ: Dynamic Region-based Quantization — full reproduction
//!
//! This crate is the umbrella facade over the DRQ reproduction workspace
//! (Song et al., *DRQ: Dynamic Region-based Quantization for Deep Neural
//! Network Acceleration*, ISCA 2020). It re-exports every subsystem:
//!
//! | Module | Contents |
//! |---|---|
//! | [`tensor`] | dense NCHW tensors, im2col, percentiles |
//! | [`nn`] | CNN layers, training, inference, conv taps |
//! | [`quant`] | INT4/8/16 quantizers, segment noise, outlier-aware quant |
//! | [`core`] | the DRQ algorithm: predictor, masks, mixed-precision conv, fine-tuning |
//! | [`models`] | the six paper topologies, synthetic datasets, stand-ins |
//! | [`sim`] | cycle-accurate DRQ accelerator simulator + energy/area models |
//! | [`dse`] | design-space exploration: the Section III-D loop and the resumable Pareto search |
//! | [`baselines`] | Eyeriss, BitFusion, OLAccel models and quant schemes |
//! | [`telemetry`] | metrics registry, span/event tracer, versioned report schema |
//! | [`serve`] | batch-inference serving: admission control, deadlines, degradation |
//! | [`store`] | crash-safe artifact store: atomic commits, framed generations, fault injection |
//!
//! # Quickstart
//!
//! Run a trained network under dynamic region-based quantization:
//!
//! ```
//! use drq::core::{DrqConfig, DrqNetwork, RegionSize};
//! use drq::models::{lenet5, Dataset, DatasetKind};
//!
//! let data = Dataset::generate(DatasetKind::Digits, 10, 7);
//! let net = lenet5(1);
//! let mut drq = DrqNetwork::new(net, DrqConfig::new(RegionSize::new(4, 4), 25.0));
//! let (batch, labels) = data.batch(0, 10);
//! let (acc, stats) = drq.evaluate(&batch, &labels);
//! assert!(acc <= 1.0);
//! println!("4-bit computation share: {:.1}%", 100.0 * stats.int4_fraction());
//! ```
//!
//! Simulate the accelerator lineup of the paper's Fig. 12:
//!
//! ```
//! use drq::baselines::paper_lineup;
//! use drq::models::zoo;
//!
//! let net = zoo::lenet5();
//! for accel in paper_lineup() {
//!     let r = accel.simulate(&net, 1);
//!     println!("{:>10}: {} cycles", r.accelerator, r.total_cycles);
//! }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use drq_baselines as baselines;
pub use drq_core as core;
pub use drq_dse as dse;
pub use drq_models as models;
pub use drq_nn as nn;
pub use drq_quant as quant;
pub use drq_serve as serve;
pub use drq_sim as sim;
pub use drq_store as store;
pub use drq_telemetry as telemetry;
pub use drq_tensor as tensor;

/// Commonly used items, importable with `use drq::prelude::*;`.
pub mod prelude {
    pub use drq_baselines::{evaluate_scheme, AccelReport, Accelerator, QuantScheme};
    pub use drq_core::{
        DrqConfig, DrqNetwork, DrqRunStats, MaskMap, MixedPrecisionConv, RegionGrid, RegionSize,
        SensitivityPredictor,
    };
    pub use drq_dse::{CandidateSpace, ParetoFront, ParetoSearch, SimSpaceEval};
    pub use drq_models::{zoo, Dataset, DatasetKind, FeatureMapSynthesizer, NetworkTopology};
    pub use drq_nn::{Conv2d, Layer, Network};
    pub use drq_quant::{Precision, QuantParams};
    pub use drq_sim::{ArchBuilder, ArchConfig, DrqAccelerator, EnergyModel};
    pub use drq_telemetry::{Json, Report, Tracer};
    pub use drq_tensor::{Shape4, Tensor, XorShiftRng};
}

#[cfg(test)]
mod tests {
    #[test]
    fn prelude_compiles_and_names_resolve() {
        use crate::prelude::*;
        let _ = ArchConfig::paper_default();
        let _ = RegionSize::new(4, 16);
        let _ = Tensor::<f32>::zeros(&[1]);
    }
}
