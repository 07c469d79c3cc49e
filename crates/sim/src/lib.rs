//! Cycle-accurate simulator of the DRQ accelerator (Section IV of the
//! paper).
//!
//! The architecture under simulation: 16 PE pages, each an 18×11 systolic
//! array of multi-precision PEs (3168 INT4 MACs total, iso-area with the
//! baselines of Table II), fed by line buffers with densely packed 4/8-bit
//! activations, draining into output buffers with an accumulation unit, and
//! closing the loop through an activation/pooling unit fused with the
//! sensitivity predictor.
//!
//! One cycle model simulates the array: [`LayerCycleModel`], a per-layer
//! analytic model (steps × per-step cost + pipeline fill + weight loads)
//! that runs the full six-network evaluation in seconds. The PE-level
//! exact tier it is checked against — a register-transfer simulator of the
//! variable-speed array of Fig. 7(b), including the 4-cycle
//! time-multiplexed INT8 MAC of Fig. 8 and the stall propagation between
//! columns — lives in `drq_testkit::exact` as a test oracle.
//!
//! Supporting models: [`AreaModel`] (Table II MAC areas and iso-area PE
//! budgets), [`EnergyModel`] (per-MAC, buffer and DRAM energies with the
//! weight-stationary accounting of Section VI-A) and [`PredictorUnit`]
//! (pooling-reuse predictor storage of Section IV-E).
//!
//! Network-level simulation goes through one entry point: the
//! [`SimSession`] builder. Every session runs its layers as a per-layer
//! work queue on the `drq_tensor::parallel` worker pool (at most
//! [`Partitions`] workers) and merges the per-layer results in layer order
//! with a prefix sum of their cycles ([`partition`]), so reports and traces
//! are byte-identical at any worker or thread count.
//!
//! For reliability studies, the [`faults`] module injects seeded,
//! replayable faults (bit flips, stuck-at bits, dropped DRAM bursts,
//! spurious stalls) under a [`FaultPlan`] — `drq-store`'s fault-plan
//! engine over the hardware [`FaultSite`]s; arming one on a session
//! (`.faults(plan)`) yields a structured [`ReliabilityReport`].
//! User-reachable construction paths report typed [`SimError`]s via
//! `try_*` counterparts of their panicking constructors.
//!
//! # Examples
//!
//! ```
//! use drq_sim::{ArchConfig, DrqAccelerator, SimSession};
//! use drq_models::zoo::{self, InputRes};
//!
//! let accel = DrqAccelerator::new(ArchConfig::paper_default());
//! let net = zoo::lenet5();
//! let run = SimSession::new(&accel, &net).seed(42).run().unwrap();
//! assert!(run.report().total_cycles() > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod accelerator;
mod area;
pub mod metrics;
mod dram;
mod energy;
mod error;
pub mod faults;
mod memo;
pub mod partition;
mod predictor_unit;
mod session;
mod timing;

pub use accelerator::{
    ArchBuilder, ArchConfig, DrqAccelerator, LayerReport, NetworkSimReport, ReliabilityReport,
};
pub use error::SimError;
pub use partition::Partitions;
pub use session::{SharedSession, SimRun, SimSession};
pub use faults::{smoke_fault_plan, FaultCounters, FaultInjector, FaultPlan, FaultRule, FaultSite};
pub use area::AreaModel;
pub use dram::{bandwidth_report, BandwidthReport, DramModel};
pub use energy::{dram_activation_bytes, EnergyBreakdown, EnergyModel};
pub use predictor_unit::PredictorUnit;
pub use timing::{LayerCycleModel, LayerCycles};
