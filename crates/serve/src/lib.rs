//! `drq-serve` — robust batch-inference serving over the DRQ stack.
//!
//! A long-running engine that accepts line-delimited JSON inference
//! requests (over TCP or stdin), executes them on the DRQ mixed
//! INT4/INT8 datapath, and keeps five robustness promises:
//!
//! 1. **Bounded admission.** The queue has a hard capacity; a full queue
//!    answers `queue_full` with a `retry_after_ms` hint instead of
//!    growing without bound ([`queue::AdmissionQueue`]).
//! 2. **Deadlines.** Each request carries a cycle budget measured on the
//!    engine's virtual clock ([`CycleClock`]). Expired work is cancelled
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
//!    cancellation.
//!
//! ```
//! use drq_serve::{ServeConfig, ServeEngine, InferRequest, Response};
//! use drq_models::DatasetKind;
//! use std::sync::mpsc;
//!
//! let engine = ServeEngine::start(ServeConfig { workers: 1, ..Default::default() });
//! let (tx, rx) = mpsc::channel::<Response>();
//! engine.submit(
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
//! engine.shutdown(1_000);
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
pub use engine::{DrainReport, ServeConfig, ServeEngine, ServeStats};
pub use error::ServeError;
pub use plan_cache::{config_fingerprint, PlanBundle, PlanCache, PlanCacheStats};
pub use protocol::{
    parse_request, ExecMode, InferReply, InferRequest, Outcome, ParsedResponse, RequestBody,
    Response,
};
pub use queue::Responder;
pub use router::{RouterStats, ShardRouter};
pub use shed::{ShedMachine, ShedPolicy, ShedState};
