//! Seeded crash-recovery soak harness.
//!
//! Drives a seeded request stream through a [`ShardRouter`], killing and
//! restarting workers at deterministic points mid-stream, and checks the
//! scale-out contract:
//!
//! * **Exactly one response** per submitted request — kills salvage and
//!   reroute, they never drop or double-answer.
//! * **Byte-identical outputs.** The canonical transcript (sorted response
//!   lines) is a pure function of the seed: the same seed at 1 worker with
//!   no kills and at N workers with kills mid-stream must produce the same
//!   bytes. CI `cmp`s the two files.
//!
//! The request *stream* is drawn from its own RNG, and kill victims from a
//! separate one, so changing `workers`/`kills` cannot perturb the stream —
//! that independence is what makes the cross-configuration byte-gate
//! meaningful. Load shedding is disabled for the run: shed state depends
//! on momentary queue depth, which legitimately differs across worker
//! counts, and the gate requires every request to execute mixed-precision.
//! (Shed behavior has its own tests; the soak is about scale-out.)
//!
//! A failing run is replayable: [`replay_hint`] prints the exact `drq
//! soak` invocation, mirroring drq-testkit's seed-hint convention.

use crate::engine::ServeConfig;
use crate::plan_cache::PlanCacheStats;
use crate::protocol::{InferRequest, Outcome, Response};
use crate::router::ShardRouter;
use crate::ShedPolicy;
use drq_models::DatasetKind;
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// Parameters of one soak run. The canonical transcript depends only on
/// `requests`, `seed`, `max_batch`, and `model_seed` — not on `workers`,
/// `kills`, or `coalesce` (that invariance is the point).
#[derive(Debug, Clone)]
pub struct SoakConfig {
    /// Single-thread shards behind the router.
    pub workers: usize,
    /// Requests in the stream.
    pub requests: usize,
    /// Seed for the request stream (and, xored, the kill schedule).
    pub seed: u64,
    /// Worker kills injected at evenly-spaced points mid-stream.
    pub kills: usize,
    /// Continuous-batching width handed to each worker.
    pub coalesce: usize,
    /// Largest request batch the stream draws.
    pub max_batch: usize,
    /// Stand-in model seed.
    pub model_seed: u64,
    /// Drain budget for the final shutdown, wall milliseconds.
    pub drain_ms: u64,
}

impl Default for SoakConfig {
    fn default() -> Self {
        Self {
            workers: 1,
            requests: 64,
            seed: 42,
            kills: 0,
            coalesce: 1,
            max_batch: 4,
            model_seed: 42,
            drain_ms: 10_000,
        }
    }
}

/// What a soak run observed.
#[derive(Debug, Clone)]
pub struct SoakOutcome {
    /// Requests submitted.
    pub requests: u64,
    /// Responses received (of any status).
    pub responses: u64,
    /// Responses with `status: ok`.
    pub ok: u64,
    /// Request ids that received more than one response.
    pub duplicates: u64,
    /// Requests that never received a response within the wait budget.
    pub missing: u64,
    /// Worker kills injected.
    pub kills: u64,
    /// Salvaged requests rerouted to surviving workers.
    pub rerouted: u64,
    /// Execution groups run by workers.
    pub batch_groups: u64,
    /// Requests that ran inside a multi-request group.
    pub batch_coalesced: u64,
    /// Fraction of completed requests that ran coalesced.
    pub coalesce_rate: f64,
    /// Plan-cache effectiveness over the run.
    pub plan: PlanCacheStats,
    /// Wall time from first submission to last response.
    pub elapsed_ms: u64,
    /// Responses per wall second.
    pub throughput_rps: f64,
    /// Sorted response lines — the cross-configuration byte-gate artifact.
    pub canonical: String,
    /// The router's per-request trace (JSON lines; empty unless telemetry
    /// was enabled), taken after the last response and before shutdown.
    pub trace: String,
}

impl SoakOutcome {
    /// True when the run upheld the contract: every request answered
    /// exactly once, successfully.
    pub fn clean(&self) -> bool {
        self.responses == self.requests
            && self.duplicates == 0
            && self.missing == 0
            && self.ok == self.responses
    }
}

/// The exact command that replays a run (drq-testkit's seed-hint idiom).
pub fn replay_hint(cfg: &SoakConfig) -> String {
    format!(
        "replay: drq soak --workers {} --requests {} --seed {} --kills {} --coalesce {}",
        cfg.workers, cfg.requests, cfg.seed, cfg.kills, cfg.coalesce
    )
}

/// SplitMix64 — the stream/schedule RNG (stable, dependency-free).
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

/// The `index`-th request of the stream — a pure function of
/// `(seed, index, max_batch)`, exposed so tests can cross-check that the
/// stream is independent of worker/kill/coalesce configuration.
pub fn stream_request(seed: u64, index: usize, max_batch: usize) -> InferRequest {
    let mut rng = SplitMix(seed ^ (index as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15));
    // Mostly the light dataset with an occasional heavier one: enough
    // model diversity to exercise the plan cache without making the soak
    // crawl on small runners.
    let dataset = if rng.next() % 4 == 0 { DatasetKind::Shapes } else { DatasetKind::Digits };
    InferRequest {
        // Zero-padded ids sort the canonical transcript in stream order.
        id: format!("r{index:05}"),
        dataset,
        sample_seed: rng.next() % 16,
        batch: 1 + (rng.next() as usize) % max_batch.max(1),
        deadline_cycles: None,
        poison: false,
    }
}

/// Runs one seeded soak. See the module docs for the contract it checks;
/// the caller asserts on the returned [`SoakOutcome`].
pub fn run_soak(cfg: &SoakConfig) -> SoakOutcome {
    let router = ShardRouter::start(ServeConfig {
        workers: cfg.workers,
        capacity: cfg.requests.max(8),
        max_batch: cfg.max_batch.max(1),
        coalesce: cfg.coalesce,
        model_seed: cfg.model_seed,
        // Disable shedding/degradation (see module docs): enter depths
        // above any reachable fraction, miss-triggered entry off.
        shed: ShedPolicy {
            degrade_enter_depth: 2.0,
            shed_enter_depth: 2.0,
            degrade_enter_misses: usize::MAX,
            ..ShedPolicy::default()
        },
        ..ServeConfig::default()
    });
    // Kill schedule: evenly spaced submission indices; victims drawn from
    // a schedule RNG disjoint from the stream RNG.
    let mut schedule_rng = SplitMix(cfg.seed ^ 0x6b79_6c6c_7363_6864); // "kyllschd"
    let mut kill_at: Vec<(usize, usize)> = (0..cfg.kills)
        .map(|k| {
            let at = (k + 1) * cfg.requests / (cfg.kills + 1);
            let victim = (schedule_rng.next() as usize) % cfg.workers.max(1);
            (at, victim)
        })
        .collect();
    kill_at.reverse(); // pop() from the front of the schedule
    let (tx, rx) = mpsc::channel::<Response>();
    let started = Instant::now();
    let mut rerouted = 0u64;
    for i in 0..cfg.requests {
        while kill_at.last().is_some_and(|&(at, _)| at == i) {
            let (_, victim) = kill_at.pop().unwrap();
            rerouted += router.kill_worker(victim) as u64;
        }
        let request = stream_request(cfg.seed, i, cfg.max_batch);
        let tx = tx.clone();
        router.submit(
            request,
            Box::new(move |resp| {
                let _ = tx.send(resp);
            }),
        );
    }
    drop(tx);
    // Collect exactly one response per request (bounded wait so a lost
    // response fails the run instead of hanging it).
    let mut lines: Vec<String> = Vec::with_capacity(cfg.requests);
    let mut ids: std::collections::HashMap<String, u64> = std::collections::HashMap::new();
    let mut ok = 0u64;
    let deadline = Instant::now() + Duration::from_secs(120);
    while lines.len() < cfg.requests {
        let now = Instant::now();
        let Some(budget) = deadline.checked_duration_since(now).filter(|d| !d.is_zero()) else {
            break;
        };
        match rx.recv_timeout(budget) {
            Ok(resp) => {
                if matches!(resp.outcome, Outcome::Ok(_)) {
                    ok += 1;
                }
                if let Some(id) = &resp.id {
                    *ids.entry(id.clone()).or_default() += 1;
                }
                lines.push(resp.to_json_line());
            }
            Err(_) => break,
        }
    }
    let elapsed = started.elapsed();
    let responses = lines.len() as u64;
    let stats = router.stats();
    let plan = router.plan_stats();
    let trace = router.trace_jsonl();
    router.shutdown(cfg.drain_ms);
    lines.sort();
    let mut canonical = lines.join("\n");
    canonical.push('\n');
    let completed = stats.serve.completed.max(1);
    SoakOutcome {
        requests: cfg.requests as u64,
        responses,
        ok,
        duplicates: ids.values().filter(|&&c| c > 1).count() as u64,
        missing: (cfg.requests as u64).saturating_sub(responses),
        kills: stats.kills,
        rerouted,
        batch_groups: stats.serve.batch_groups,
        batch_coalesced: stats.serve.batch_coalesced,
        coalesce_rate: stats.serve.batch_coalesced as f64 / completed as f64,
        plan,
        elapsed_ms: elapsed.as_millis() as u64,
        throughput_rps: responses as f64 / elapsed.as_secs_f64().max(1e-9),
        canonical,
        trace,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stream_is_a_pure_function_of_seed_and_index() {
        for i in 0..32 {
            assert_eq!(stream_request(9, i, 4), stream_request(9, i, 4));
        }
        assert_ne!(stream_request(9, 0, 4), stream_request(10, 0, 4));
    }

    #[test]
    fn small_soak_is_clean_and_replay_hint_is_exact() {
        let cfg = SoakConfig { requests: 6, workers: 2, coalesce: 4, ..SoakConfig::default() };
        let outcome = run_soak(&cfg);
        assert!(outcome.clean(), "soak not clean: {outcome:?}\n{}", replay_hint(&cfg));
        assert_eq!(
            replay_hint(&cfg),
            "replay: drq soak --workers 2 --requests 6 --seed 42 --kills 0 --coalesce 4"
        );
    }
}
