//! Horizontal scale-out: the one serve engine, a shard router over N
//! single-thread shards.
//!
//! Each *shard* is a crate-private [`ServeEngine`] (its own queue, clock,
//! shed machine, and one worker thread) — the crash-able unit. The router
//! owns everything that outlives a shard: one [`PlanCache`], one counter
//! set, and each slot's trace. It:
//!
//! * **Routes** each request to a shard by rendezvous (highest-random-
//!   weight) hashing of the request id against the shard *slot* index.
//!   Routing is consistent: the same id lands on the same slot at any
//!   point in time, and because the hash is salted by slot index — not by
//!   engine identity — a restarted shard reclaims exactly the keys its
//!   predecessor owned. No key ever moves because an unrelated shard
//!   died.
//! * **Rebalances on death.** [`ShardRouter::kill_worker`] crashes a
//!   shard as a process death would: admissions stop, in-flight groups
//!   abort at their next layer boundary, and every admitted-but-unanswered
//!   request is salvaged and resubmitted to a live shard. Salvaged
//!   requests have never been responded to, so the exactly-one-response
//!   invariant holds across the death; and because response payloads are
//!   deterministic (predictions, int4 fraction, and per-request cost are
//!   pure functions of the request), a rerouted request's response is
//!   byte-identical to the one the dead shard would have sent.
//! * **Shares one [`PlanCache`]** across all shards, so a model prepared
//!   anywhere is a hit everywhere — including on shards restarted after
//!   a kill (the cache is not shard state and cannot be poisoned by one).
//! * **Keeps what a kill must not lose.** Every shard counts into the
//!   router's one counter set, and each slot owns the trace its successive
//!   shards write to, so stats and spans survive kills.
//!
//! All submissions and kills serialize on the slot table, which closes the
//! route-to-dead-shard race: a kill cannot begin while a submission holds
//! the table, and by the time the kill releases it the slot already holds
//! the restarted engine.

use crate::engine::{DrainReport, EngineCounters, ServeConfig, ServeEngine, ServeStats};
use crate::plan_cache::{fnv1a, PlanCache, PlanCacheStats};
use crate::protocol::InferRequest;
use crate::queue::Responder;
use crate::ShedState;
use drq_telemetry::{counter_add, gauge_set, Report, Tracer};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread;

/// One shard slot: the live engine, how many engines have occupied the
/// slot (generation 0 is the original, each kill+restart bumps it), and
/// the trace every engine in the slot records into.
struct Slot {
    engine: Arc<ServeEngine>,
    generation: u64,
    tracer: Arc<Mutex<Tracer>>,
}

/// Aggregate statistics for a router and its shards (live and killed).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RouterStats {
    /// Shard slot count.
    pub workers: usize,
    /// Requests routed to a shard (first submission only).
    pub routed: u64,
    /// Salvaged requests resubmitted after a shard kill.
    pub rerouted: u64,
    /// Shard kills injected.
    pub kills: u64,
    /// Shards restarted into a killed slot.
    pub restarts: u64,
    /// The router's counter set, shared by every shard it ever ran.
    pub serve: ServeStats,
}

/// The serve engine: a shard router spreading requests over `workers`
/// single-thread shards that share one [`PlanCache`] and one counter set.
pub struct ShardRouter {
    config: ServeConfig,
    plans: Arc<PlanCache>,
    counters: Arc<EngineCounters>,
    slots: Mutex<Vec<Slot>>,
    routed: AtomicU64,
    rerouted: AtomicU64,
    kills: AtomicU64,
    restarts: AtomicU64,
}

/// Rendezvous pick: the slot whose salted hash of `key` is highest. The
/// key hash is finalized per slot with a full-avalanche mixer — a plain
/// seeded FNV keeps slot scores nearly ordered by slot index, starving
/// the high slots.
fn pick_slot(slots: usize, key: &str) -> usize {
    let key_hash = fnv1a(key.bytes(), 0);
    (0..slots)
        .max_by_key(|&i| {
            let mut z = key_hash ^ (i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            (z ^ (z >> 31), i)
        })
        .unwrap_or(0)
}

impl ShardRouter {
    /// Starts `config.workers` shards (each running one worker thread,
    /// with `config.capacity` queue slots of its own) behind a router.
    pub fn start(config: ServeConfig) -> Arc<Self> {
        // Pre-touch every serve/* metric so the keys appear in reports
        // even when an event never fires (CI greps for zeros).
        counter_add!("serve/admitted", 0);
        counter_add!("serve/completed", 0);
        counter_add!("serve/cancelled", 0);
        counter_add!("serve/rejected_full", 0);
        counter_add!("serve/rejected_shed", 0);
        counter_add!("serve/rejected_oversized", 0);
        counter_add!("serve/rejected_invalid", 0);
        counter_add!("serve/deadline_miss", 0);
        counter_add!("serve/worker_restarts", 0);
        counter_add!("serve/degraded_responses", 0);
        counter_add!("serve/batch/groups", 0);
        counter_add!("serve/batch/coalesced_requests", 0);
        counter_add!("serve/plan/model_hits", 0);
        counter_add!("serve/plan/model_misses", 0);
        gauge_set!("serve/queue_depth", 0.0);
        counter_add!("serve/router/routed", 0);
        counter_add!("serve/router/rerouted", 0);
        counter_add!("serve/router/kills", 0);
        counter_add!("serve/router/restarts", 0);
        let mut router = Self {
            config,
            plans: Arc::new(PlanCache::new()),
            counters: Arc::default(),
            slots: Mutex::new(Vec::new()),
            routed: AtomicU64::new(0),
            rerouted: AtomicU64::new(0),
            kills: AtomicU64::new(0),
            restarts: AtomicU64::new(0),
        };
        let slots = (0..router.config.workers.max(1))
            .map(|_| {
                let tracer = Arc::default();
                Slot { engine: router.start_shard(&tracer), generation: 0, tracer }
            })
            .collect();
        *router.slots.get_mut().unwrap() = slots;
        Arc::new(router)
    }

    /// Starts one shard on the router's shared cache and counters,
    /// recording into `tracer`.
    fn start_shard(&self, tracer: &Arc<Mutex<Tracer>>) -> Arc<ServeEngine> {
        ServeEngine::start(
            self.config.clone(),
            Arc::clone(&self.plans),
            Arc::clone(&self.counters),
            Arc::clone(tracer),
        )
    }

    /// The plan cache shared by every shard (live and future).
    pub fn plan_cache(&self) -> Arc<PlanCache> {
        Arc::clone(&self.plans)
    }

    /// The generation of each slot (how many times it was restarted).
    pub fn generations(&self) -> Vec<u64> {
        self.slots.lock().unwrap().iter().map(|s| s.generation).collect()
    }

    /// Holds every live shard's worker at its queue, so tests can queue
    /// work to an exact depth. A shard restarted by
    /// [`ShardRouter::kill_worker`] starts unheld. Pair with
    /// [`ShardRouter::resume_workers`].
    pub fn pause_workers(&self) {
        for slot in self.slots.lock().unwrap().iter() {
            slot.engine.pause_workers();
        }
    }

    /// Releases the workers held by [`ShardRouter::pause_workers`].
    pub fn resume_workers(&self) {
        for slot in self.slots.lock().unwrap().iter() {
            slot.engine.resume_workers();
        }
    }

    /// Routes one request to its rendezvous shard. The responder fires
    /// exactly once, even if the chosen shard is later killed (the
    /// request is then salvaged and rerouted, never double-answered).
    pub fn submit(&self, request: InferRequest, respond: Responder) {
        let slots = self.slots.lock().unwrap();
        let target = pick_slot(slots.len(), &request.id);
        self.routed.fetch_add(1, Ordering::SeqCst);
        counter_add!("serve/router/routed", 1);
        slots[target].engine.submit(request, respond);
    }

    /// Kills the shard in `slot` (mod the slot count) as a process death
    /// would, restarts a fresh engine into the slot, and resubmits every
    /// salvaged request to the current slot table. Returns the number of
    /// requests that were salvaged and rerouted.
    pub fn kill_worker(&self, slot: usize) -> usize {
        let mut slots = self.slots.lock().unwrap();
        let index = slot % slots.len();
        self.kills.fetch_add(1, Ordering::SeqCst);
        counter_add!("serve/router/kills", 1);
        let salvaged = slots[index].engine.crash();
        // Restart in place before rerouting: the slot count never changes,
        // so every key keeps its rendezvous owner and the restarted shard
        // reclaims the dead one's share immediately.
        slots[index].engine = self.start_shard(&slots[index].tracer);
        slots[index].generation += 1;
        self.restarts.fetch_add(1, Ordering::SeqCst);
        counter_add!("serve/router/restarts", 1);
        let rerouted = salvaged.len();
        for (request, respond) in salvaged {
            self.rerouted.fetch_add(1, Ordering::SeqCst);
            counter_add!("serve/router/rerouted", 1);
            let target = pick_slot(slots.len(), &request.id);
            slots[target].engine.submit(request, respond);
        }
        rerouted
    }

    /// Router counters plus the shared shard counter set.
    pub fn stats(&self) -> RouterStats {
        RouterStats {
            workers: self.slots.lock().unwrap().len(),
            routed: self.routed.load(Ordering::SeqCst),
            rerouted: self.rerouted.load(Ordering::SeqCst),
            kills: self.kills.load(Ordering::SeqCst),
            restarts: self.restarts.load(Ordering::SeqCst),
            serve: self.counters.snapshot(),
        }
    }

    /// Worst shed state across live shards (shedding > degraded >
    /// healthy) — the fleet is only as healthy as its hottest shard.
    pub fn state(&self) -> ShedState {
        self.slots
            .lock()
            .unwrap()
            .iter()
            .map(|s| s.engine.state())
            .max_by_key(|s| match s {
                ShedState::Healthy => 0,
                ShedState::Degraded => 1,
                ShedState::Shedding => 2,
            })
            .unwrap_or(ShedState::Healthy)
    }

    /// Per-request trace lines of every shard the router ever ran, slot
    /// order (within a slot, a killed shard's spans precede its
    /// successor's).
    pub fn trace_jsonl(&self) -> String {
        self.slots
            .lock()
            .unwrap()
            .iter()
            .map(|s| s.tracer.lock().unwrap().to_jsonl())
            .collect()
    }

    /// Structured report (`kind: "serve"`) aggregating shards, router
    /// counters, and plan-cache effectiveness.
    pub fn report(&self) -> Report {
        let s = self.stats();
        let p = self.plans.stats();
        let mut r = Report::new("serve");
        r.push("workers", s.workers);
        r.push("capacity", self.config.capacity);
        r.push("max_batch", self.config.max_batch);
        r.push("coalesce", self.config.coalesce.max(1));
        r.push("admitted", s.serve.admitted);
        r.push("completed", s.serve.completed);
        r.push("cancelled", s.serve.cancelled);
        r.push("rejected_full", s.serve.rejected_full);
        r.push("rejected_shed", s.serve.rejected_shed);
        r.push("rejected_oversized", s.serve.rejected_oversized);
        r.push("deadline_miss", s.serve.deadline_miss);
        r.push("worker_restarts", s.serve.worker_restarts);
        r.push("degraded_responses", s.serve.degraded_responses);
        r.push("batch_groups", s.serve.batch_groups);
        r.push("batch_coalesced", s.serve.batch_coalesced);
        r.push("router_routed", s.routed);
        r.push("router_rerouted", s.rerouted);
        r.push("router_kills", s.kills);
        r.push("router_restarts", s.restarts);
        r.push("plan_model_hits", p.model_hits);
        r.push("plan_model_misses", p.model_misses);
        r.push("plan_hit_rate", p.hit_rate());
        r.push("final_state", self.state().as_str());
        let final_cycle: u64 = self.slots.lock().unwrap().iter().map(|s| s.engine.now()).sum();
        r.push("final_cycle", final_cycle);
        r
    }

    /// Plan-cache effectiveness snapshot.
    pub fn plan_stats(&self) -> PlanCacheStats {
        self.plans.stats()
    }

    /// Gracefully shuts down every shard in parallel (each drains with
    /// the same wall budget) and reports the router's lifetime totals,
    /// including work completed by shards killed before the shutdown.
    pub fn shutdown(&self, drain_ms: u64) -> DrainReport {
        let engines: Vec<Arc<ServeEngine>> =
            self.slots.lock().unwrap().iter().map(|s| Arc::clone(&s.engine)).collect();
        thread::scope(|scope| {
            for engine in &engines {
                scope.spawn(move || engine.shutdown(drain_ms));
            }
        });
        let s = self.counters.snapshot();
        DrainReport {
            served: s.completed,
            cancelled: s.cancelled,
            worker_restarts: s.worker_restarts,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{Outcome, Response};
    use drq_models::DatasetKind;
    use std::sync::mpsc;

    fn request(id: &str, seed: u64) -> InferRequest {
        InferRequest {
            id: id.to_string(),
            dataset: DatasetKind::Digits,
            sample_seed: seed,
            batch: 1,
            deadline_cycles: None,
            poison: false,
        }
    }

    fn config(workers: usize) -> ServeConfig {
        ServeConfig { workers, capacity: 32, max_batch: 4, ..ServeConfig::default() }
    }

    #[test]
    fn routing_is_consistent_and_survives_restart() {
        // Pure function of (slot count, key): same answer before and
        // after any slot's engine is replaced.
        let a = pick_slot(4, "req-17");
        let b = pick_slot(4, "req-17");
        assert_eq!(a, b);
        assert!(a < 4);
        // Different keys spread: over many keys every slot gets some.
        let mut hit = [false; 4];
        for i in 0..64 {
            hit[pick_slot(4, &format!("key-{i}"))] = true;
        }
        assert!(hit.iter().all(|&h| h), "rendezvous must use all slots: {hit:?}");
    }

    #[test]
    fn kill_reroutes_salvaged_requests_exactly_once() {
        let router = ShardRouter::start(config(2));
        // Hold every shard so submissions stay queued, then kill one.
        router.pause_workers();
        let (tx, rx) = mpsc::channel::<Response>();
        let total = 8;
        for i in 0..total {
            let tx = tx.clone();
            router.submit(
                request(&format!("r{i}"), i as u64),
                Box::new(move |resp| {
                    let _ = tx.send(resp);
                }),
            );
        }
        let rerouted = router.kill_worker(0);
        assert!(rerouted > 0, "paused worker 0 must have had queued work");
        assert_eq!(router.generations()[0], 1);
        router.resume_workers();
        let mut seen = std::collections::HashMap::<String, usize>::new();
        for _ in 0..total {
            let resp = rx.recv_timeout(std::time::Duration::from_secs(30)).unwrap();
            assert!(matches!(resp.outcome, Outcome::Ok(_)), "got {resp:?}");
            *seen.entry(resp.id.unwrap()).or_default() += 1;
        }
        assert!(seen.values().all(|&c| c == 1), "duplicate responses: {seen:?}");
        assert_eq!(seen.len(), total);
        let stats = router.stats();
        assert_eq!(stats.kills, 1);
        assert_eq!(stats.restarts, 1);
        assert_eq!(stats.rerouted, rerouted as u64);
        router.shutdown(1_000);
    }

    #[test]
    fn workers_share_one_plan_cache() {
        let router = ShardRouter::start(config(3));
        let (tx, rx) = mpsc::channel::<Response>();
        for i in 0..6 {
            let tx = tx.clone();
            router.submit(
                request(&format!("r{i}"), 7),
                Box::new(move |resp| {
                    let _ = tx.send(resp);
                }),
            );
        }
        for _ in 0..6 {
            rx.recv_timeout(std::time::Duration::from_secs(30)).unwrap();
        }
        let p = router.plan_stats();
        // One dataset → exactly one model build no matter which workers
        // served the traffic; everything else hit the shared cache.
        assert_eq!(p.model_misses, 1, "stats: {p:?}");
        assert_eq!(p.models, 1);
        router.shutdown(1_000);
    }
}
