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
//! Two models are provided and differentially tested against each other:
//!
//! * [`SystolicArray`] — an **exact** PE-level simulator that executes every
//!   register transfer of the variable-speed array of Fig. 7(b), including
//!   the 4-cycle time-multiplexed INT8 MAC of Fig. 8 and the stall
//!   propagation between columns;
//! * [`LayerCycleModel`] — a **fast** per-layer analytic model (steps ×
//!   per-step cost + pipeline fill + weight loads) used to simulate the full
//!   six-network evaluation in seconds. Its equivalence with the exact
//!   simulator on small layers is asserted by tests.
//!
//! Supporting models: [`AreaModel`] (Table II MAC areas and iso-area PE
//! budgets), [`EnergyModel`] (per-MAC, buffer and DRAM energies with the
//! weight-stationary accounting of Section VI-A), [`PredictorUnit`]
//! (pooling-reuse predictor storage of Section IV-E), and [`LineBuffer`]
//! (dense 4/8-bit packing of Section IV-B).
//!
//! Network-level simulation goes through one entry point: the
//! [`SimSession`] builder. Every session is **statically partitioned**
//! ([`partition`]) into cost-balanced contiguous layer shards that run
//! concurrently on the `drq_tensor::parallel` scoped-thread pool with
//! per-shard virtual clocks; shard event streams merge deterministically,
//! so reports and traces are byte-identical at any shard or thread count.
//!
//! For reliability studies, the [`faults`] module injects seeded,
//! replayable faults (bit flips, stuck-at bits, dropped DRAM bursts,
//! spurious stalls) under a [`FaultPlan`]; arming one on a session
//! (`.faults(plan)`) yields a structured [`ReliabilityReport`].
//! User-reachable construction paths report typed [`SimError`]s via
//! `try_*` counterparts of every panicking constructor.
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
mod dataflow;
mod dram;
mod energy;
mod error;
pub mod faults;
mod im2col_engine;
mod line_buffer;
mod memo;
mod output_buffer;
mod page;
pub mod partition;
mod pe;
mod predictor_unit;
mod session;
mod systolic;
mod timing;

pub use accelerator::{
    ArchBuilder, ArchConfig, BatchSimSummary, DrqAccelerator, LayerReport, NetworkSimReport,
    ReliabilityReport,
};
pub use error::SimError;
pub use partition::{PartitionPlan, Partitions};
pub use session::{SharedSession, SimRun, SimSession};
pub use faults::{FaultCounters, FaultInjector, FaultPlan, FaultRule, FaultSite};
pub use area::AreaModel;
pub use dataflow::{compare_dataflows, estimate_traffic, Dataflow, TrafficReport, OUTPUT_BUFFER_POSITIONS};
pub use dram::{bandwidth_report, BandwidthReport, DramModel};
pub use im2col_engine::Im2ColEngine;
pub use output_buffer::{OutputBuffer, SubKernelPlan};
pub use page::{PageSimulator, PageTrace};
pub use energy::{dram_activation_bytes, EnergyBreakdown, EnergyModel};
pub use line_buffer::{LineBuffer, PackedStream};
pub use pe::MultiPrecisionPe;
pub use predictor_unit::PredictorUnit;
pub use systolic::{SimTrace, StreamElement, SystolicArray};
pub use timing::{LayerCycleModel, LayerCycles};
