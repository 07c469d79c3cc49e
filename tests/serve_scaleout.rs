//! Chaos suite for multi-worker serving scale-out.
//!
//! The scale-out contract under test: a shard router spreading requests
//! over N single-thread shards must (a) answer every submitted request exactly
//! once even when workers are killed and restarted mid-stream, (b) produce
//! responses byte-identical to a single sequential worker at every worker
//! count, kill schedule, and coalesce width, and (c) share one execution
//! plan cache across workers and across restarts.
//!
//! Every test is seeded. A failing soak prints the exact `drq soak`
//! invocation that replays it (the drq-testkit seed-hint convention).

use drq::core::DrqNetwork;
use drq::models::{default_standin, Dataset, DatasetKind};
use drq::serve::soak::{replay_hint, run_soak, stream_request, SoakConfig};
use drq::serve::{InferRequest, Outcome, Response, ServeConfig, ShardRouter, ShedPolicy};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::sync::Arc;

fn infer(id: &str, sample_seed: u64) -> InferRequest {
    InferRequest {
        id: id.to_string(),
        dataset: drq::models::DatasetKind::Digits,
        sample_seed,
        batch: 1,
        deadline_cycles: None,
        poison: false,
    }
}

/// Router config with load shedding disabled: shed state depends on
/// momentary queue depth, which legitimately differs across worker counts,
/// and these tests assert byte-identical mixed-precision replies.
fn steady_config(workers: usize, coalesce: usize, capacity: usize) -> ServeConfig {
    ServeConfig {
        workers,
        coalesce,
        capacity,
        shed: ShedPolicy {
            degrade_enter_depth: 2.0,
            shed_enter_depth: 2.0,
            degrade_enter_misses: usize::MAX,
            ..ShedPolicy::default()
        },
        ..ServeConfig::default()
    }
}

/// The headline gate: a seeded soak that kills (and restarts) two workers
/// mid-stream at 4 workers with aggressive coalescing produces the exact
/// same canonical transcript bytes as one worker, no kills, no coalescing.
#[test]
fn killed_and_restarted_workers_match_single_worker_reference_bitwise() {
    let reference = SoakConfig {
        workers: 1,
        kills: 0,
        coalesce: 1,
        requests: 40,
        seed: 1042,
        ..SoakConfig::default()
    };
    let chaos = SoakConfig {
        workers: 4,
        kills: 2,
        coalesce: 8,
        ..reference.clone()
    };
    let ref_outcome = run_soak(&reference);
    assert!(
        ref_outcome.clean(),
        "reference soak not clean: {ref_outcome:?}\n{}",
        replay_hint(&reference)
    );
    let chaos_outcome = run_soak(&chaos);
    assert!(
        chaos_outcome.clean(),
        "chaos soak not clean: {chaos_outcome:?}\n{}",
        replay_hint(&chaos)
    );
    assert_eq!(chaos_outcome.kills, 2, "both scheduled kills must fire");
    assert_eq!(
        ref_outcome.canonical, chaos_outcome.canonical,
        "transcripts diverged between 1 worker/0 kills and 4 workers/2 kills\n{}\n{}",
        replay_hint(&reference),
        replay_hint(&chaos)
    );
}

/// The soak's request stream is independent of worker count, kill
/// schedule, and coalesce width — the independence that makes the
/// cross-configuration byte-gate meaningful.
#[test]
fn soak_stream_is_independent_of_scaleout_configuration() {
    for i in 0..24 {
        let a = stream_request(7, i, 4);
        let b = stream_request(7, i, 4);
        assert_eq!(a, b, "stream must be a pure function of (seed, index)");
    }
    // Ids sort in stream order, so the canonical transcript's order is
    // submission order regardless of completion interleaving.
    let ids: Vec<String> = (0..12).map(|i| stream_request(7, i, 4).id).collect();
    let mut sorted = ids.clone();
    sorted.sort();
    assert_eq!(ids, sorted, "zero-padded ids must sort in stream order");
}

/// Killing a worker while its queue holds admitted-but-unexecuted requests
/// salvages them onto surviving workers: every responder fires exactly
/// once, with no drops and no duplicates, through the kill and the final
/// drain.
#[test]
fn drain_under_rebalance_answers_every_request_exactly_once() {
    let router = ShardRouter::start(steady_config(2, 4, 64));
    router.pause_workers();
    let counters: Vec<Arc<AtomicUsize>> = (0..12).map(|_| Arc::new(AtomicUsize::new(0))).collect();
    let (tx, rx) = mpsc::channel::<Response>();
    for (i, counter) in counters.iter().enumerate() {
        let counter = Arc::clone(counter);
        let tx = tx.clone();
        router.submit(
            infer(&format!("reb{i:02}"), i as u64),
            Box::new(move |resp| {
                counter.fetch_add(1, Ordering::SeqCst);
                let _ = tx.send(resp);
            }),
        );
    }
    drop(tx);
    // Kill slot 0 while everything is still queued: its jobs are salvaged
    // and rerouted (some back to the restarted slot 0, paused no longer).
    let rerouted = router.kill_worker(0);
    assert!(rerouted > 0, "the paused worker's queue must have held jobs to salvage");
    router.resume_workers();
    let responses: Vec<Response> = rx.iter().take(12).collect();
    assert_eq!(responses.len(), 12, "every request answered");
    router.shutdown(10_000);
    for (i, counter) in counters.iter().enumerate() {
        assert_eq!(
            counter.load(Ordering::SeqCst),
            1,
            "request reb{i:02} must be answered exactly once across the kill"
        );
    }
    let stats = router.stats();
    assert_eq!(stats.kills, 1);
    assert_eq!(stats.restarts, 1);
    assert_eq!(stats.rerouted, rerouted as u64);
}

/// Plan-cache invariants across workers and restarts: one shared cache
/// means one model build per distinct dataset no matter how many workers
/// execute it — and a restarted worker rejoins the same cache instead of
/// rebuilding.
#[test]
fn plan_cache_is_shared_across_workers_and_survives_restarts() {
    let router = ShardRouter::start(steady_config(3, 1, 64));
    let (tx, rx) = mpsc::channel::<Response>();
    let submit = |id: &str, dataset: drq::models::DatasetKind, sample_seed: u64| {
        let tx = tx.clone();
        router.submit(
            InferRequest {
                id: id.to_string(),
                dataset,
                sample_seed,
                batch: 1,
                deadline_cycles: None,
                poison: false,
            },
            Box::new(move |resp| {
                let _ = tx.send(resp);
            }),
        );
    };
    // Two datasets spread over ids that land on different shards.
    for i in 0..6 {
        let dataset = if i % 2 == 0 {
            drq::models::DatasetKind::Digits
        } else {
            drq::models::DatasetKind::Shapes
        };
        submit(&format!("pc{i}"), dataset, i as u64);
    }
    let _: Vec<Response> = rx.iter().take(6).collect();
    let before = router.plan_stats();
    assert_eq!(before.model_misses, 2, "exactly one build per distinct dataset");
    assert_eq!(before.model_hits + before.model_misses, 6, "one lookup per request");
    // A killed-and-restarted worker rejoins the shared cache: more hits,
    // zero new model builds.
    router.kill_worker(1);
    for i in 0..4 {
        submit(&format!("pk{i}"), drq::models::DatasetKind::Digits, 20 + i as u64);
    }
    let _: Vec<Response> = rx.iter().take(4).collect();
    let after = router.plan_stats();
    assert_eq!(after.model_misses, 2, "restart must not rebuild any model");
    assert!(after.model_hits >= before.model_hits + 4);
    router.shutdown(10_000);
}

/// A kill storm — more kills than workers, so some slots die repeatedly —
/// still never drops or duplicates a response. The duplicate detector is
/// the soak's per-id response count.
#[test]
fn kill_storm_produces_no_duplicate_and_no_missing_responses() {
    let cfg = SoakConfig {
        workers: 3,
        kills: 4,
        coalesce: 4,
        requests: 32,
        seed: 9,
        ..SoakConfig::default()
    };
    let outcome = run_soak(&cfg);
    assert_eq!(outcome.duplicates, 0, "duplicate responses detected\n{}", replay_hint(&cfg));
    assert_eq!(outcome.missing, 0, "dropped responses detected\n{}", replay_hint(&cfg));
    assert!(outcome.clean(), "soak not clean: {outcome:?}\n{}", replay_hint(&cfg));
    assert_eq!(outcome.kills, 4);
}

/// Each slot owns its trace, so killing a shard keeps every span it
/// recorded: after the kill the router's trace still holds one `ok`
/// span end per executed request.
#[test]
fn killed_shard_keeps_its_trace_spans() {
    // Spans are recorded only while telemetry is on. No other test in
    // this binary reads the switch, so it is left on.
    drq::telemetry::enable();
    let router = ShardRouter::start(steady_config(2, 4, 64));
    // Rendezvous spreads these ids over both slots (3 on slot 0, 5 on
    // slot 1), so each kill below discards a shard that did some work.
    let total = 8;
    router.pause_workers();
    let (tx, rx) = mpsc::channel::<Response>();
    for i in 0..total {
        let tx = tx.clone();
        router.submit(
            infer(&format!("span{i}"), i as u64),
            Box::new(move |resp| {
                let _ = tx.send(resp);
            }),
        );
    }
    drop(tx);
    router.resume_workers();
    let responses: Vec<Response> = rx.iter().take(total).collect();
    assert_eq!(responses.len(), total, "every request answered");
    let ok_span_ends = |trace: &str| {
        trace
            .lines()
            .filter(|l| {
                l.contains(r#""kind":"span_end","name":"serve/request""#)
                    && l.contains(r#""outcome":"ok""#)
            })
            .count()
    };
    for slot in 0..2 {
        assert_eq!(router.kill_worker(slot), 0, "nothing was left to salvage");
        let trace = router.trace_jsonl();
        assert_eq!(
            ok_span_ends(&trace),
            total,
            "spans lost after killing slot {slot}:\n{trace}"
        );
    }
    assert_eq!(router.generations(), vec![1, 1]);
    router.shutdown(10_000);
}

/// serve and `DrqNetwork::forward` run the same DRQ walk (drq-nn's group
/// walk with drq-core's executor), serve with its own mask source and
/// plan bundle: a 1-worker router must reply with the predictions and
/// INT4 share the direct forward pass computes on the same batch.
#[test]
fn router_replies_match_drq_network_forward() {
    let config = ServeConfig { workers: 1, ..ServeConfig::default() };
    let router = ShardRouter::start(config.clone());
    for dataset in [DatasetKind::Digits, DatasetKind::Shapes] {
        let mut direct = DrqNetwork::new(default_standin(dataset, config.model_seed), config.drq);
        for sample_seed in 0..=5u64 {
            for batch in 1..=4usize {
                let id = format!("{dataset:?}-{sample_seed}-{batch}");
                // Closed loop: one request in flight, so load shedding
                // never degrades the router to uniform INT8.
                let (tx, rx) = mpsc::channel::<Response>();
                router.submit(
                    InferRequest {
                        id: id.clone(),
                        dataset,
                        sample_seed,
                        batch,
                        deadline_cycles: None,
                        poison: false,
                    },
                    Box::new(move |resp| {
                        let _ = tx.send(resp);
                    }),
                );
                let reply = match rx.recv().expect("one response").outcome {
                    Outcome::Ok(reply) => reply,
                    other => panic!("{id}: {other:?}"),
                };
                let (x, _labels) = Dataset::generate(dataset, batch, sample_seed).batch(0, batch);
                let (logits, stats) = direct.forward(&x);
                let classes = dataset.classes();
                let predictions: Vec<usize> = logits
                    .as_slice()
                    .chunks(classes)
                    .map(|row| {
                        let mut best = 0;
                        for c in 1..row.len() {
                            if row[c] > row[best] {
                                best = c;
                            }
                        }
                        best
                    })
                    .collect();
                assert_eq!(reply.predictions, predictions, "{id}: predictions");
                assert_eq!(reply.int4_fraction, stats.int4_fraction(), "{id}: int4 share");
            }
        }
    }
    router.shutdown(10_000);
}
