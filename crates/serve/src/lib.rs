//! `drq-serve` — robust batch-inference serving over the DRQ stack.
//!
//! One long-running engine, [`ShardRouter`], accepts line-delimited JSON
//! inference requests (over TCP or stdin), routes each to one of its
//! single-thread shards, executes it on the DRQ mixed INT4/INT8 datapath,
//! and keeps five robustness promises:
//!
//! 1. **Bounded admission.** Each shard's queue has a hard capacity; a full
//!    queue answers `queue_full` with a `retry_after_ms` hint instead of
//!    growing without bound (the crate-private `AdmissionQueue`).
//! 2. **Deadlines.** Each request carries a cycle budget measured on its
//!    shard's virtual clock ([`CycleClock`]). Expired work is cancelled
//!    between layer boundaries, never mid-layer.
//! 3. **Panic isolation.** Workers execute under `catch_unwind`; a panic
//!    becomes a typed [`ServeError::WorkerPanic`] response, the worker
//!    restarts with fresh state, and `serve/worker_restarts` counts it.
//! 4. **Graceful degradation.** A hysteresis load-shed state machine
//!    ([`ShedMachine`]) downgrades execution from mixed INT4/INT8 to
//!    uniform INT8 under pressure (DRQ's own quality/throughput knob)
//!    and sheds admissions when overloaded. Every response reports the
//!    state it ran under.
//! 5. **Exactly-one-response.** Every submitted request produces exactly
//!    one response — success, typed error, rejection, or shutdown
//!    cancellation — even when a shard is killed mid-flight.
//!
//! A one-worker router is the single-engine configuration; a one-worker,
//! coalesce-1 router is the sequential reference the differential suites
//! compare against.
//!
//! ```
//! use drq_serve::{ServeConfig, ShardRouter, InferRequest, Response};
//! use drq_models::DatasetKind;
//! use std::sync::mpsc;
//!
//! let router = ShardRouter::start(ServeConfig { workers: 1, ..Default::default() });
//! let (tx, rx) = mpsc::channel::<Response>();
//! router.submit(
//!     InferRequest {
//!         id: "r1".into(),
//!         dataset: DatasetKind::Digits,
//!         sample_seed: 7,
//!         batch: 1,
//!         deadline_cycles: None,
//!         poison: false,
//!     },
//!     Box::new(move |resp| { let _ = tx.send(resp); }),
//! );
//! let response = rx.recv().unwrap();
//! assert_eq!(response.id.as_deref(), Some("r1"));
//! router.shutdown(1_000);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod batcher;
mod clock;
mod engine;
mod error;
mod plan_cache;
mod queue;
mod router;
mod shed;

pub mod client;
pub mod protocol;
pub mod server;
pub mod soak;

pub use clock::CycleClock;
pub use engine::{DrainReport, ServeConfig, ServeStats};
pub use error::ServeError;
pub use plan_cache::{PlanBundle, PlanCache, PlanCacheStats};
pub use protocol::{
    parse_request, ExecMode, InferReply, InferRequest, Outcome, ParsedResponse, RequestBody,
    Response,
};
pub use queue::Responder;
pub use router::{RouterStats, ShardRouter};
pub use shed::{ShedMachine, ShedPolicy, ShedState};
