//! # drq-store — the crash-safe artifact store
//!
//! Every durable byte of the DRQ reproduction — Pareto checkpoints, serve
//! weight checkpoints, soak canonical transcripts, metrics reports, trace
//! exports — used to reach disk through bare `std::fs::write` /
//! `File::create` calls, so a crash mid-write tore exactly the files that
//! `drq pareto --resume` and the CI byte-gates depend on. This crate closes
//! that hole with one commit discipline and one recovery contract:
//!
//! * **Atomic commits.** [`ArtifactStore::commit_atomic`] writes a temp
//!   file, fsyncs it, and renames it over the destination. A reader (or a
//!   crash) sees either the old bytes or the new bytes, never a torn
//!   hybrid. Plain artifacts (reports, traces, transcripts) use this mode:
//!   the committed bytes are exactly the payload, so external `cmp`/`grep`
//!   gates keep working unchanged.
//! * **Generational framed commits.** [`ArtifactStore::commit`] wraps the
//!   payload in a text-safe frame — a header line carrying a generation
//!   number and the payload length, then the payload, then a text-encoded
//!   IEEE CRC32 footer — and rotates the previous good generation to
//!   `<path>.prev` before renaming the new frame into place. A corrupt or
//!   truncated primary is detected by frame/CRC validation and
//!   [`ArtifactStore::load`] falls back to the previous generation,
//!   reporting exactly what was salvaged. Checkpoints that must survive
//!   crashes *and* bit rot (Pareto search state, trained weights) use this
//!   mode.
//! * **Injectable I/O.** All I/O goes through the [`Storage`] trait. The
//!   real implementation is [`FsStorage`]; tests drive the same store
//!   through a seeded [`FaultyStorage`] — torn writes at byte offsets,
//!   silent short reads, bit rot, ENOSPC, rename and fsync failures, each
//!   governed by per-site rate rules of the seeded [`FaultPlan`] engine
//!   that the simulator's hardware faults also use (see [`IoFaultPlan`])
//!   — so every failure mode replays bit-for-bit from a seed.
//!
//! ## The recovery invariant
//!
//! After any prefix of a commit sequence, interrupted anywhere (process
//! kill, injected fault), a reader observes either generation *N* (the last
//! successful commit) or generation *N−1*, each byte-exact, or a typed
//! [`StoreError`] naming both failure reasons. It never observes a torn
//! frame as valid data: the rotation step only runs after the current
//! primary re-validates, so a torn primary can never overwrite the last
//! good copy, and a single flipped bit always fails the CRC32.
//!
//! ```
//! use drq_store::{ArtifactStore, MemStorage};
//!
//! let store = ArtifactStore::new(MemStorage::new());
//! store.commit("front.json", b"{\"gen\":1}").unwrap();
//! store.commit("front.json", b"{\"gen\":2}").unwrap();
//! let got = store.load("front.json").unwrap();
//! assert_eq!(got.payload, b"{\"gen\":2}");
//! assert_eq!(got.generation, 2);
//! assert!(got.salvaged.is_none());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod fault_plan;
mod faults;
mod storage;
mod store;

pub use fault_plan::{
    FaultCounters, FaultInjector, FaultPlan, FaultPlanError, FaultRule, FaultSiteKind,
};
pub use faults::{
    FaultyStorage, IoFaultCounters, IoFaultPlan, IoFaultRule, IoFaultSite,
};
pub use storage::{FsStorage, MemStorage, Storage};
pub use store::{ArtifactStore, LoadOutcome, StoreError, PREV_SUFFIX, TMP_SUFFIX};
