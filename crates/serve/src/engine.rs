//! One serve shard: admission, scheduling, execution, drain.
//!
//! A [`ServeEngine`] is the crash-able unit behind a [`crate::ShardRouter`]:
//! its own bounded queue, virtual clock and shed machine, and one worker
//! thread. The router owns everything that outlives a shard — the shared
//! [`PlanCache`], the one counter set, and each slot's trace — and hands
//! them to every engine it starts or restarts.
//!
//! Invariant the whole module is built around: **every submitted request
//! gets exactly one response** — whether it executes, expires, is bounced
//! by backpressure, dies with a panicking worker, or is cancelled by the
//! shutdown hard deadline. Tests count responses against submissions to
//! hold the engine to it.
//!
//! The worker pops *groups* of compatible requests and runs them as one
//! coalesced execution (see [`crate::batcher`]); [`ServeEngine::crash`]
//! simulates a worker-process death, returning every unanswered admitted
//! request so the router can reroute it (the exactly-one-response
//! invariant spans the death).

use crate::batcher::{Crashed, GroupRun, Member};
use crate::clock::CycleClock;
use crate::plan_cache::PlanCache;
use crate::protocol::{ExecMode, InferRequest, InferReply, Outcome, Response};
use crate::queue::{AdmissionQueue, Job, Responder};
use crate::{ServeError, ShedMachine, ShedPolicy, ShedState};
use drq_core::{DrqConfig, DrqExecutor, RegionSize};
use drq_models::{Dataset, DatasetKind};
use drq_nn::Network;
use drq_tensor::Tensor;
use drq_telemetry::{counter_add, gauge_set, Json, Tracer};
use std::collections::HashMap;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, Once};
use std::thread;
use std::time::{Duration, Instant};

/// Configuration for a [`crate::ShardRouter`] and each of its shards.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Shard count; each shard runs one worker thread.
    pub workers: usize,
    /// Admission queue capacity per shard (hard bound).
    pub capacity: usize,
    /// Maximum batch size a request may ask for.
    pub max_batch: usize,
    /// Cycle budget applied when a request carries no deadline.
    pub default_deadline_cycles: u64,
    /// DRQ parameters for the mixed-precision (healthy) path.
    pub drq: DrqConfig,
    /// Seed for the per-worker stand-in models.
    pub model_seed: u64,
    /// Load-shed thresholds.
    pub shed: ShedPolicy,
    /// Continuous-batching width: the maximum total *images* a worker may
    /// coalesce into one group (same dataset, never poison). `1` disables
    /// coalescing; groups never change response bytes either way.
    pub coalesce: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            workers: 2,
            capacity: 64,
            max_batch: 8,
            // Generous: a lenet-scale request costs ~10k virtual cycles.
            default_deadline_cycles: 1 << 40,
            drq: DrqConfig::new(RegionSize::new(4, 4), 20.0),
            model_seed: 42,
            shed: ShedPolicy::default(),
            coalesce: 1,
        }
    }
}

/// Retry hint attached to backpressure rejections, in milliseconds.
const RETRY_AFTER_MS: u64 = 2;

/// Monotonic counters describing serve activity. A router creates one set
/// and every shard it starts or restarts counts into it, so a kill never
/// makes completed work disappear from reports.
#[derive(Debug, Default)]
pub(crate) struct EngineCounters {
    admitted: AtomicU64,
    completed: AtomicU64,
    cancelled: AtomicU64,
    rejected_full: AtomicU64,
    rejected_shed: AtomicU64,
    rejected_oversized: AtomicU64,
    deadline_miss: AtomicU64,
    worker_restarts: AtomicU64,
    degraded_responses: AtomicU64,
    batch_groups: AtomicU64,
    batch_coalesced: AtomicU64,
}

impl EngineCounters {
    /// Point-in-time snapshot of every counter.
    pub(crate) fn snapshot(&self) -> ServeStats {
        ServeStats {
            admitted: self.admitted.load(Ordering::SeqCst),
            completed: self.completed.load(Ordering::SeqCst),
            cancelled: self.cancelled.load(Ordering::SeqCst),
            rejected_full: self.rejected_full.load(Ordering::SeqCst),
            rejected_shed: self.rejected_shed.load(Ordering::SeqCst),
            rejected_oversized: self.rejected_oversized.load(Ordering::SeqCst),
            deadline_miss: self.deadline_miss.load(Ordering::SeqCst),
            worker_restarts: self.worker_restarts.load(Ordering::SeqCst),
            degraded_responses: self.degraded_responses.load(Ordering::SeqCst),
            batch_groups: self.batch_groups.load(Ordering::SeqCst),
            batch_coalesced: self.batch_coalesced.load(Ordering::SeqCst),
        }
    }
}

/// A point-in-time snapshot of a router's counters, summed over every
/// shard it ever ran.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServeStats {
    /// Requests accepted into the queue.
    pub admitted: u64,
    /// Requests that got a worker-produced response (ok or error).
    pub completed: u64,
    /// Requests cancelled by the shutdown hard deadline.
    pub cancelled: u64,
    /// Rejections because the queue was full.
    pub rejected_full: u64,
    /// Rejections because the engine was shedding load.
    pub rejected_shed: u64,
    /// Rejections because the batch exceeded `max_batch`.
    pub rejected_oversized: u64,
    /// Requests whose cycle budget expired.
    pub deadline_miss: u64,
    /// Worker panics caught and converted (each restarts the worker).
    pub worker_restarts: u64,
    /// Successful responses that ran on the uniform-INT8 fallback.
    pub degraded_responses: u64,
    /// Execution groups popped by workers (a singleton is a group of 1).
    pub batch_groups: u64,
    /// Requests that ran inside a multi-request group.
    pub batch_coalesced: u64,
}

/// Result of a graceful shutdown.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DrainReport {
    /// Requests completed over the router's lifetime.
    pub served: u64,
    /// Requests cancelled because the drain hit its hard deadline.
    pub cancelled: u64,
    /// Worker restarts over the router's lifetime.
    pub worker_restarts: u64,
}

/// Worker-thread name (the quiet panic hook keys on it).
const WORKER_NAME: &str = "drq-serve-worker";

/// Installs a process-wide panic hook, once, that silences panics from
/// engine worker threads (they are caught and surfaced as typed responses,
/// and the default hook's stderr spew would drown soak output) while
/// delegating everything else to the previous hook.
fn install_quiet_panic_hook() {
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        let previous = panic::take_hook();
        panic::set_hook(Box::new(move |info| {
            if thread::current().name() != Some(WORKER_NAME) {
                previous(info);
            }
        }));
    });
}

/// Extracts the human-readable message from a caught panic payload.
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// One single-thread shard. The router creates it with
/// [`ServeEngine::start`], feeds it with [`ServeEngine::submit`], and
/// stops it with [`ServeEngine::shutdown`] or [`ServeEngine::crash`].
pub(crate) struct ServeEngine {
    config: ServeConfig,
    clock: CycleClock,
    queue: AdmissionQueue,
    shed: Mutex<ShedMachine>,
    counters: Arc<EngineCounters>,
    seq: AtomicU64,
    hard_stop: AtomicBool,
    /// Set by [`ServeEngine::crash`]: in-flight groups abort at their next
    /// layer boundary and park their jobs in `salvage` instead of replying.
    crashed: AtomicBool,
    salvage: Mutex<Vec<(InferRequest, Responder)>>,
    plans: Arc<PlanCache>,
    worker: Mutex<Option<thread::JoinHandle<()>>>,
    /// The owning slot's trace: it outlives this engine, so a kill keeps
    /// the spans recorded here.
    tracer: Arc<Mutex<Tracer>>,
}

impl ServeEngine {
    /// Starts the engine's worker thread. `plans`, `counters` and `tracer`
    /// belong to the router and outlive the engine.
    pub(crate) fn start(
        config: ServeConfig,
        plans: Arc<PlanCache>,
        counters: Arc<EngineCounters>,
        tracer: Arc<Mutex<Tracer>>,
    ) -> Arc<Self> {
        install_quiet_panic_hook();
        let engine = Arc::new(Self {
            clock: CycleClock::new(),
            queue: AdmissionQueue::new(config.capacity),
            shed: Mutex::new(ShedMachine::new(config.shed)),
            counters,
            seq: AtomicU64::new(0),
            hard_stop: AtomicBool::new(false),
            crashed: AtomicBool::new(false),
            salvage: Mutex::new(Vec::new()),
            plans,
            worker: Mutex::new(None),
            tracer,
            config,
        });
        let e = Arc::clone(&engine);
        let handle = thread::Builder::new()
            .name(WORKER_NAME.to_string())
            .spawn(move || e.worker_loop())
            .expect("spawn serve worker");
        *engine.worker.lock().unwrap() = Some(handle);
        engine
    }

    /// The engine's virtual clock reading.
    pub(crate) fn now(&self) -> u64 {
        self.clock.now()
    }

    /// Current load-shed state.
    pub(crate) fn state(&self) -> ShedState {
        self.shed.lock().unwrap().state()
    }

    /// Holds the worker at the queue (deterministic tests fill the queue
    /// to an exact depth this way). Pair with [`ServeEngine::resume_workers`].
    pub(crate) fn pause_workers(&self) {
        self.queue.set_held(true);
    }

    /// Releases a worker held by [`ServeEngine::pause_workers`].
    pub(crate) fn resume_workers(&self) {
        self.queue.set_held(false);
    }

    /// Submits one request. The responder fires exactly once — possibly
    /// synchronously (rejections) or later from the worker thread.
    pub(crate) fn submit(&self, request: InferRequest, respond: Responder) {
        // Validation gate: oversized batches never reach the queue.
        if request.batch > self.config.max_batch {
            self.counters.rejected_oversized.fetch_add(1, Ordering::SeqCst);
            counter_add!("serve/rejected_oversized", 1);
            respond(Response {
                id: Some(request.id),
                outcome: Outcome::Error {
                    error: ServeError::Oversized {
                        batch: request.batch,
                        max_batch: self.config.max_batch,
                    },
                },
            });
            return;
        }
        // Admission gate: consult the shed machine at the current depth.
        let depth_fraction = self.queue.len() as f64 / self.queue.capacity() as f64;
        let state = self.shed.lock().unwrap().observe(depth_fraction);
        if state == ShedState::Shedding {
            self.counters.rejected_shed.fetch_add(1, Ordering::SeqCst);
            counter_add!("serve/rejected_shed", 1);
            respond(Response {
                id: Some(request.id),
                outcome: Outcome::Rejected {
                    error: ServeError::Shedding {
                        retry_after_ms: RETRY_AFTER_MS,
                    },
                    state,
                },
            });
            return;
        }
        let budget = request
            .deadline_cycles
            .unwrap_or(self.config.default_deadline_cycles);
        let job = Job {
            seq: self.seq.fetch_add(1, Ordering::SeqCst),
            expiry_cycle: self.clock.now().saturating_add(budget),
            request,
            respond,
        };
        match self.queue.push(job) {
            Ok(depth) => {
                self.counters.admitted.fetch_add(1, Ordering::SeqCst);
                counter_add!("serve/admitted", 1);
                gauge_set!("serve/queue_depth", depth as f64);
            }
            Err(job) => {
                let error = if self.queue.is_closed() {
                    ServeError::ShuttingDown
                } else {
                    self.counters.rejected_full.fetch_add(1, Ordering::SeqCst);
                    counter_add!("serve/rejected_full", 1);
                    ServeError::QueueFull {
                        retry_after_ms: RETRY_AFTER_MS,
                    }
                };
                (job.respond)(Response {
                    id: Some(job.request.id),
                    outcome: Outcome::Rejected { error, state },
                });
            }
        }
    }

    /// Gracefully shuts down: stops admissions, waits up to `drain_ms`
    /// wall milliseconds for queued work to drain, cancels whatever is
    /// left (each cancelled request still gets its one response), and
    /// joins the worker.
    pub(crate) fn shutdown(&self, drain_ms: u64) {
        self.queue.close();
        let deadline = Instant::now() + Duration::from_millis(drain_ms);
        if drain_ms > 0 {
            self.resume_workers();
            while self.queue.len() > 0 && Instant::now() < deadline {
                thread::sleep(Duration::from_millis(1));
            }
        }
        if self.queue.len() > 0 {
            // Hard deadline: cancel queued work and tell in-flight requests
            // to stop at their next layer boundary.
            self.hard_stop.store(true, Ordering::SeqCst);
            for job in self.queue.drain_remaining() {
                self.counters.cancelled.fetch_add(1, Ordering::SeqCst);
                counter_add!("serve/cancelled", 1);
                (job.respond)(Response {
                    id: Some(job.request.id),
                    outcome: Outcome::Error {
                        error: ServeError::Cancelled {
                            detail: "shutdown drain deadline".to_string(),
                        },
                    },
                });
            }
        }
        // Release a still-held worker so it observes closed+empty and
        // exits; only then join.
        self.resume_workers();
        self.join_worker();
        gauge_set!("serve/queue_depth", 0.0);
    }

    /// Kills this engine as if its process died mid-flight: stops
    /// admissions, aborts in-flight groups at their next layer boundary,
    /// joins the workers, and returns every admitted-but-unanswered
    /// request. Salvaged requests have **not** been responded to — the
    /// caller (the router) resubmits them to a surviving engine, so the
    /// exactly-one-response invariant holds across the death.
    pub(crate) fn crash(&self) -> Vec<(InferRequest, Responder)> {
        self.crashed.store(true, Ordering::SeqCst);
        self.queue.close();
        self.resume_workers();
        self.join_worker();
        let mut salvaged: Vec<_> = self.salvage.lock().unwrap().drain(..).collect();
        for job in self.queue.drain_remaining() {
            salvaged.push((job.request, job.respond));
        }
        salvaged
    }

    fn join_worker(&self) {
        if let Some(handle) = self.worker.lock().unwrap().take() {
            let _ = handle.join();
        }
    }

    /// The worker: pop a compatible group → drop queue-expired members →
    /// execute the rest as one coalesced run under `catch_unwind` →
    /// respond per member. A caught panic discards the worker's model
    /// state (the "restart"), counts `serve/worker_restarts`, and the loop
    /// continues with a clean slate — one poisoned request cannot take the
    /// engine down or corrupt its neighbors (poison requests are never
    /// coalesced, so a poison panic's blast radius is itself).
    fn worker_loop(&self) {
        let mut models: HashMap<DatasetKind, Network> = HashMap::new();
        let coalesce = self.config.coalesce.max(1);
        let compatible = |a: &InferRequest, b: &InferRequest| {
            a.dataset == b.dataset && !a.poison && !b.poison
        };
        while let Some((jobs, depth)) = self.queue.pop_group(coalesce, compatible) {
            if self.crashed.load(Ordering::SeqCst) {
                // The engine died while this group sat in the queue:
                // salvage, never respond.
                let mut salvage = self.salvage.lock().unwrap();
                salvage.extend(jobs.into_iter().map(|j| (j.request, j.respond)));
                continue;
            }
            gauge_set!("serve/queue_depth", depth as f64);
            let depth_fraction = depth as f64 / self.queue.capacity() as f64;
            let state = self.shed.lock().unwrap().observe(depth_fraction);
            let mode = match state {
                ShedState::Healthy => ExecMode::Mixed,
                ShedState::Degraded | ShedState::Shedding => ExecMode::Uniform8,
            };
            // Expired while queued: cancel before burning the worker.
            let now = self.clock.now();
            let mut pending: Vec<(InferRequest, u64)> = Vec::new();
            let mut responders: Vec<Responder> = Vec::new();
            for job in jobs {
                if now > job.expiry_cycle {
                    self.finish_missed(job.respond, job.request.id, "queue");
                } else {
                    pending.push((job.request, job.expiry_cycle));
                    responders.push(job.respond);
                }
            }
            if pending.is_empty() {
                continue;
            }
            self.counters.batch_groups.fetch_add(1, Ordering::SeqCst);
            counter_add!("serve/batch/groups", 1);
            if pending.len() > 1 {
                self.counters
                    .batch_coalesced
                    .fetch_add(pending.len() as u64, Ordering::SeqCst);
                counter_add!("serve/batch/coalesced_requests", pending.len() as u64);
            }
            // Spans are kept in memory until the trace is exported, so they
            // are recorded only while telemetry is on (the CLI turns it on
            // for `--metrics`/`--trace`); otherwise a long-running server
            // would grow by one span pair per request.
            let traced = drq_telemetry::enabled();
            if traced {
                let mut tracer = self.tracer.lock().unwrap();
                for (request, _) in &pending {
                    tracer.span_begin(
                        self.clock.now(),
                        "serve/request",
                        [
                            ("id", Json::from(request.id.as_str())),
                            ("mode", Json::from(mode.as_str())),
                            ("state", Json::from(state.as_str())),
                            ("group", Json::from(pending.len() as u64)),
                        ],
                    );
                }
            }
            let result = panic::catch_unwind(AssertUnwindSafe(|| {
                self.execute_group(&mut models, &pending, mode)
            }));
            if traced {
                let mut tracer = self.tracer.lock().unwrap();
                for (i, (request, _)) in pending.iter().enumerate() {
                    let outcome_name = match &result {
                        Ok(Ok(outcomes)) => match &outcomes[i] {
                            Ok(_) => "ok",
                            Err(e) => e.code(),
                        },
                        Ok(Err(Crashed)) => "salvaged",
                        Err(_) => "worker_panic",
                    };
                    tracer.span_end(
                        self.clock.now(),
                        "serve/request",
                        [
                            ("id", Json::from(request.id.as_str())),
                            ("outcome", Json::from(outcome_name)),
                        ],
                    );
                }
            }
            match result {
                Ok(Ok(outcomes)) => {
                    for ((outcome, respond), (request, _)) in
                        outcomes.into_iter().zip(responders).zip(&pending)
                    {
                        let id = request.id.clone();
                        match outcome {
                            Ok(reply) => {
                                if reply.mode == ExecMode::Uniform8 {
                                    self.counters
                                        .degraded_responses
                                        .fetch_add(1, Ordering::SeqCst);
                                    counter_add!("serve/degraded_responses", 1);
                                }
                                self.counters.completed.fetch_add(1, Ordering::SeqCst);
                                counter_add!("serve/completed", 1);
                                self.shed.lock().unwrap().record_outcome(false);
                                respond(Response { id: Some(id), outcome: Outcome::Ok(reply) });
                            }
                            Err(error) => {
                                if let ServeError::DeadlineExpired { .. } = &error {
                                    self.counters.deadline_miss.fetch_add(1, Ordering::SeqCst);
                                    counter_add!("serve/deadline_miss", 1);
                                    self.shed.lock().unwrap().record_outcome(true);
                                } else {
                                    self.shed.lock().unwrap().record_outcome(false);
                                }
                                self.counters.completed.fetch_add(1, Ordering::SeqCst);
                                counter_add!("serve/completed", 1);
                                respond(Response {
                                    id: Some(id),
                                    outcome: Outcome::Error { error },
                                });
                            }
                        }
                    }
                }
                Ok(Err(Crashed)) => {
                    // Aborted mid-group by crash(): park for rerouting.
                    let mut salvage = self.salvage.lock().unwrap();
                    salvage.extend(
                        pending.into_iter().map(|(request, _)| request).zip(responders),
                    );
                }
                Err(payload) => {
                    // Restart: throw away all worker-local state. Every
                    // member of the group dies with the worker (poison is
                    // never coalesced, so in practice this is a group of 1
                    // unless a non-poison input finds a genuine bug).
                    models.clear();
                    self.counters.worker_restarts.fetch_add(1, Ordering::SeqCst);
                    counter_add!("serve/worker_restarts", 1);
                    let detail = panic_message(payload);
                    for (respond, (request, _)) in responders.into_iter().zip(&pending) {
                        self.counters.completed.fetch_add(1, Ordering::SeqCst);
                        counter_add!("serve/completed", 1);
                        self.shed.lock().unwrap().record_outcome(false);
                        respond(Response {
                            id: Some(request.id.clone()),
                            outcome: Outcome::Error {
                                error: ServeError::WorkerPanic { detail: detail.clone() },
                            },
                        });
                    }
                }
            }
        }
    }

    fn finish_missed(&self, respond: Responder, id: String, phase: &'static str) {
        self.counters.deadline_miss.fetch_add(1, Ordering::SeqCst);
        counter_add!("serve/deadline_miss", 1);
        self.counters.completed.fetch_add(1, Ordering::SeqCst);
        counter_add!("serve/completed", 1);
        self.shed.lock().unwrap().record_outcome(true);
        respond(Response {
            id: Some(id),
            outcome: Outcome::Error {
                error: ServeError::DeadlineExpired { phase },
            },
        });
    }

    /// Executes one group layer-by-layer (convolutions coalesced into one
    /// GEMM invocation per layer), advancing the virtual clock by the
    /// group's total cost while each member's reply carries only its own —
    /// so response bytes are identical at any worker count or group shape.
    fn execute_group(
        &self,
        models: &mut HashMap<DatasetKind, Network>,
        pending: &[(InferRequest, u64)],
        mode: ExecMode,
    ) -> Result<Vec<Result<InferReply, ServeError>>, Crashed> {
        for (request, _) in pending {
            if request.poison {
                panic!("poison request {}", request.id);
            }
        }
        let dataset = pending[0].0.dataset;
        let bundle = self.plans.model(dataset, self.config.model_seed);
        let net = models
            .entry(dataset)
            .or_insert_with(|| bundle.network.clone());
        let (group, members): (Vec<_>, Vec<_>) = pending
            .iter()
            .map(|(request, expiry)| {
                let data = Dataset::generate(request.dataset, request.batch, request.sample_seed);
                let member = Member { expiry_cycle: *expiry, ..Member::default() };
                (Some(data.batch(0, request.batch).0), member)
            })
            .unzip();
        let exec = DrqExecutor::new(self.config.drq, None, &bundle.plans);
        let mut walk = GroupRun {
            members,
            exec: match mode {
                ExecMode::Mixed => exec,
                ExecMode::Uniform8 => exec.all_int8(),
            },
            clock: &self.clock,
            hard_stop: &self.hard_stop,
            crashed: &self.crashed,
            stopped: false,
        };
        let group = net.walk_group(group, &mut walk).unwrap_or_else(|e| panic!("{e}"));
        if walk.stopped {
            return Err(Crashed);
        }
        let classes = dataset.classes();
        Ok(walk
            .members
            .into_iter()
            .zip(group)
            .zip(pending)
            .map(|((m, y), (request, _))| {
                if let Some(error) = m.failed {
                    return Err(error);
                }
                let y = y.expect("a member that did not fail has an output");
                let predictions = argmax_rows(&y, request.batch, classes);
                // The raw counts tally padding taps as INT4 even under
                // uniform masks; the protocol reports the DRQ regioning
                // effect, which is zero by definition on the fallback.
                let int4_fraction = match mode {
                    ExecMode::Mixed => m.counts.int4_fraction(),
                    ExecMode::Uniform8 => 0.0,
                };
                Ok(InferReply {
                    mode,
                    state: self.state(),
                    predictions,
                    int4_fraction,
                    cycles: m.cost,
                })
            })
            .collect())
    }
}

/// Row-wise argmax over a `[n, classes]` logits tensor.
fn argmax_rows(y: &Tensor<f32>, n: usize, classes: usize) -> Vec<usize> {
    let ys = y.as_slice();
    (0..n)
        .map(|row| {
            let base = row * classes;
            let mut best = 0usize;
            for c in 1..classes.min(ys.len().saturating_sub(base)) {
                if ys[base + c] > ys[base + best] {
                    best = c;
                }
            }
            best
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;

    fn quick_config() -> ServeConfig {
        ServeConfig {
            capacity: 8,
            max_batch: 4,
            ..ServeConfig::default()
        }
    }

    /// A standalone shard with its own cache, counters and trace.
    fn start(config: ServeConfig) -> Arc<ServeEngine> {
        ServeEngine::start(
            config,
            Arc::new(PlanCache::new()),
            Arc::default(),
            Arc::default(),
        )
    }

    fn infer(id: &str) -> InferRequest {
        InferRequest {
            id: id.to_string(),
            dataset: DatasetKind::Digits,
            sample_seed: 7,
            batch: 1,
            deadline_cycles: None,
            poison: false,
        }
    }

    fn submit_collect(
        engine: &ServeEngine,
        req: InferRequest,
    ) -> mpsc::Receiver<Response> {
        let (tx, rx) = mpsc::channel();
        engine.submit(req, Box::new(move |r| {
            let _ = tx.send(r);
        }));
        rx
    }

    #[test]
    fn healthy_request_runs_mixed_and_deterministically() {
        let engine = start(quick_config());
        let rx_a = submit_collect(&engine, infer("a"));
        let a = rx_a.recv().unwrap();
        let rx_b = submit_collect(&engine, infer("b"));
        let b = rx_b.recv().unwrap();
        engine.shutdown(1_000);
        let (Outcome::Ok(ra), Outcome::Ok(rb)) = (&a.outcome, &b.outcome) else {
            panic!("expected two ok responses, got {a:?} / {b:?}");
        };
        assert_eq!(ra.mode, ExecMode::Mixed);
        // Same request twice → identical predictions and int4 fraction.
        assert_eq!(ra.predictions, rb.predictions);
        assert_eq!(ra.int4_fraction, rb.int4_fraction);
        assert!(ra.int4_fraction > 0.0, "mixed mode should use some INT4");
    }

    #[test]
    fn coalesced_group_is_byte_identical_to_singletons() {
        // Reference: no coalescing, one request at a time.
        let solo = start(quick_config());
        let mut reference = Vec::new();
        for (i, seed) in [7u64, 11, 13].iter().enumerate() {
            let mut req = infer(&format!("r{i}"));
            req.sample_seed = *seed;
            req.batch = 1 + i % 2;
            reference.push(submit_collect(&solo, req).recv().unwrap());
        }
        solo.shutdown(1_000);
        // Same requests coalesced into one group on a paused engine.
        let grouped = start(ServeConfig {
            coalesce: 8,
            ..quick_config()
        });
        grouped.pause_workers();
        let rxs: Vec<_> = [7u64, 11, 13]
            .iter()
            .enumerate()
            .map(|(i, seed)| {
                let mut req = infer(&format!("r{i}"));
                req.sample_seed = *seed;
                req.batch = 1 + i % 2;
                submit_collect(&grouped, req)
            })
            .collect();
        grouped.resume_workers();
        let got: Vec<Response> = rxs.iter().map(|rx| rx.recv().unwrap()).collect();
        let stats = grouped.counters.snapshot();
        grouped.shutdown(1_000);
        assert_eq!(stats.batch_groups, 1, "expected one coalesced group");
        assert_eq!(stats.batch_coalesced, 3);
        for (want, got) in reference.iter().zip(&got) {
            let (Outcome::Ok(a), Outcome::Ok(b)) = (&want.outcome, &got.outcome) else {
                panic!("expected ok responses, got {want:?} / {got:?}");
            };
            assert_eq!(a.predictions, b.predictions);
            assert_eq!(a.int4_fraction, b.int4_fraction);
            assert_eq!(a.cycles, b.cycles, "per-member cost must not see the group");
        }
    }

    #[test]
    fn crash_salvages_unanswered_requests() {
        let engine = start(quick_config());
        engine.pause_workers();
        let rx_a = submit_collect(&engine, infer("a"));
        let rx_b = submit_collect(&engine, infer("b"));
        let salvaged = engine.crash();
        assert_eq!(salvaged.len(), 2, "both queued requests must be salvaged");
        // Salvaged requests were never responded to.
        assert!(rx_a.try_recv().is_err());
        assert!(rx_b.try_recv().is_err());
        // The responders still work exactly once (the router's reroute).
        for (request, respond) in salvaged {
            respond(Response {
                id: Some(request.id),
                outcome: Outcome::Error { error: ServeError::ShuttingDown },
            });
        }
        assert!(rx_a.recv().is_ok());
        assert!(rx_b.recv().is_ok());
    }

    #[test]
    fn oversized_batch_is_rejected_before_admission() {
        let engine = start(quick_config());
        let mut req = infer("big");
        req.batch = 99;
        let rx = submit_collect(&engine, req);
        let resp = rx.recv().unwrap();
        assert!(matches!(
            resp.outcome,
            Outcome::Error { error: ServeError::Oversized { batch: 99, max_batch: 4 } }
        ));
        let s = engine.counters.snapshot();
        assert_eq!(s.rejected_oversized, 1);
        assert_eq!(s.admitted, 0);
        engine.shutdown(100);
    }

    #[test]
    fn zero_budget_requests_expire_not_crash() {
        let engine = start(quick_config());
        let mut req = infer("rushed");
        req.deadline_cycles = Some(0);
        let rx = submit_collect(&engine, req);
        let resp = rx.recv().unwrap();
        assert!(
            matches!(
                resp.outcome,
                Outcome::Error { error: ServeError::DeadlineExpired { .. } }
            ),
            "got {resp:?}"
        );
        assert_eq!(engine.counters.snapshot().deadline_miss, 1);
        engine.shutdown(100);
    }
}
