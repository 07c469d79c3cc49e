//! Robustness suite for the batch-inference serving layer.
//!
//! Exercises the five promises of `drq-serve` end to end: bounded
//! admission with backpressure, cycle-budget deadlines, panic isolation
//! with worker restart, hysteresis load-shedding with uniform-INT8
//! degradation, and graceful shutdown — all under the exactly-one-response
//! invariant, with seeded determinism throughout.

use drq::serve::client::{run_load, ClientConfig};
use drq::serve::server::TcpServer;
use drq::serve::{
    ExecMode, InferRequest, Outcome, Response, ServeConfig, ServeEngine, ServeError, ShardRouter,
    ShedMachine, ShedPolicy, ShedState,
};
use std::sync::mpsc;
use std::thread;

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

fn submit_channel(engine: &ServeEngine, req: InferRequest) -> mpsc::Receiver<Response> {
    let (tx, rx) = mpsc::channel();
    engine.submit(
        req,
        Box::new(move |resp| {
            let _ = tx.send(resp);
        }),
    );
    rx
}

/// The hysteresis machine honors its documented thresholds exactly:
/// degrade at 0.60 (exit 0.25), shed at 0.90 (exit 0.50), and a
/// miss-pressure edge at 4 misses per 32-outcome window.
#[test]
fn load_shed_hysteresis_at_documented_thresholds() {
    let p = ShedPolicy::default();
    assert_eq!((p.degrade_enter_depth, p.degrade_exit_depth), (0.60, 0.25));
    assert_eq!((p.shed_enter_depth, p.shed_exit_depth), (0.90, 0.50));
    assert_eq!((p.degrade_enter_misses, p.miss_window), (4, 32));

    let mut m = ShedMachine::new(p);
    // Just below the enter edge: still healthy.
    assert_eq!(m.observe(0.59), ShedState::Healthy);
    assert_eq!(m.observe(0.60), ShedState::Degraded);
    // The dead band between exit and enter holds the state.
    for depth in [0.59, 0.45, 0.30, 0.26] {
        assert_eq!(m.observe(depth), ShedState::Degraded, "depth {depth}");
    }
    assert_eq!(m.observe(0.25), ShedState::Healthy);
    // The shed edge, with its own dead band.
    m.observe(0.89);
    assert_eq!(m.state(), ShedState::Degraded);
    assert_eq!(m.observe(0.90), ShedState::Shedding);
    for depth in [0.89, 0.70, 0.51] {
        assert_eq!(m.observe(depth), ShedState::Shedding, "depth {depth}");
    }
    assert_eq!(m.observe(0.50), ShedState::Degraded);
    // Miss pressure degrades even an empty queue.
    let mut m = ShedMachine::new(p);
    for _ in 0..3 {
        m.record_outcome(true);
    }
    assert_eq!(m.observe(0.0), ShedState::Healthy, "3 misses is below the edge");
    m.record_outcome(true);
    assert_eq!(m.observe(0.0), ShedState::Degraded, "4 misses crosses it");
}

/// Poisoned requests panic the worker mid-execution; the panic is caught,
/// typed, and answered, the worker restarts, and every surrounding request
/// still gets its response.
#[test]
fn poison_requests_are_isolated_and_workers_restart() {
    let engine = ServeEngine::start(ServeConfig {
        workers: 2,
        ..ServeConfig::default()
    });
    let mut receivers = Vec::new();
    for i in 0..20 {
        let mut req = infer(&format!("r{i}"), i as u64);
        // Two poison pills scattered among normal work.
        req.poison = i == 5 || i == 13;
        receivers.push((i, submit_channel(&engine, req)));
    }
    let mut ok = 0;
    let mut panics = 0;
    for (i, rx) in receivers {
        let resp = rx.recv().expect("every request must be answered");
        match resp.outcome {
            Outcome::Ok(_) => ok += 1,
            Outcome::Error {
                error: ServeError::WorkerPanic { ref detail },
            } => {
                panics += 1;
                assert!(
                    detail.contains(&format!("poison request r{i}")),
                    "panic detail should carry the poisoned id: {detail:?}"
                );
            }
            other => panic!("unexpected outcome for r{i}: {other:?}"),
        }
    }
    assert_eq!(ok, 18, "all non-poisoned requests succeed");
    assert_eq!(panics, 2, "both poison pills answered with worker_panic");
    let stats = engine.stats();
    assert_eq!(stats.worker_restarts, 2);
    let report = engine.shutdown(1_000);
    assert_eq!(report.worker_restarts, 2);
    assert_eq!(report.served, 20, "no response lost to the panics");
}

/// Filling the bounded queue while workers are held produces queue-full
/// and shedding rejections with retry hints — never unbounded growth.
#[test]
fn backpressure_rejects_when_the_queue_is_full() {
    let engine = ServeEngine::start(ServeConfig {
        workers: 1,
        capacity: 4,
        ..ServeConfig::default()
    });
    engine.pause_workers();
    let mut receivers = Vec::new();
    for i in 0..12 {
        receivers.push(submit_channel(&engine, infer(&format!("q{i}"), 1)));
    }
    // With workers held, exactly `capacity` requests can be queued; the
    // rest are rejected synchronously (shedding kicks in at 0.90 depth).
    let mut rejected = 0;
    let mut retry_hints = 0;
    for rx in &receivers {
        if let Ok(resp) = rx.try_recv() {
            match resp.outcome {
                Outcome::Rejected { error, .. } => {
                    rejected += 1;
                    match error {
                        ServeError::QueueFull { retry_after_ms }
                        | ServeError::Shedding { retry_after_ms } => {
                            assert!(retry_after_ms > 0);
                            retry_hints += 1;
                        }
                        other => panic!("unexpected rejection {other:?}"),
                    }
                }
                other => panic!("expected rejection, got {other:?}"),
            }
        }
    }
    assert_eq!(rejected, 8, "12 submitted, 4 queued, 8 bounced");
    assert_eq!(retry_hints, rejected, "every rejection carries a retry hint");
    assert_eq!(engine.queue_depth(), 4);
    engine.resume_workers();
    let report = engine.shutdown(10_000);
    assert_eq!(report.served + report.cancelled, 4);
}

/// Degradation end to end: pressure flips execution to uniform INT8
/// (reported in each response), recovery restores mixed precision.
#[test]
fn degradation_switches_to_uniform_int8_and_recovers() {
    let engine = ServeEngine::start(ServeConfig {
        workers: 1,
        capacity: 8,
        ..ServeConfig::default()
    });
    engine.pause_workers();
    // Fill the queue to its brim: depth fraction 8/8 = 1.0 → Shedding.
    let mut receivers = Vec::new();
    for i in 0..8 {
        receivers.push(submit_channel(&engine, infer(&format!("d{i}"), i as u64)));
    }
    assert_eq!(engine.queue_depth(), 8);
    // Fill-time observations top out at 7/8 = 0.875, so the machine sits
    // in Degraded; the 9th submission observes 8/8 = 1.0, crosses the
    // 0.90 shed edge, and is rejected.
    assert_eq!(engine.state(), ShedState::Degraded);
    let shed_rx = submit_channel(&engine, infer("extra", 0));
    let shed_resp = shed_rx.try_recv().expect("shed rejection is synchronous");
    assert!(matches!(
        shed_resp.outcome,
        Outcome::Rejected { error: ServeError::Shedding { .. }, state: ShedState::Shedding }
    ));
    assert_eq!(engine.state(), ShedState::Shedding);
    // Release the worker. Pop-time depth observations walk 7/8 → 0/8:
    // 7/8, 6/8, 5/8 ≥ 0.50 keep Shedding; 4/8 = 0.50 exits to Degraded;
    // 3/8 holds Degraded; 2/8 = 0.25 exits to Healthy — so the first five
    // run uniform-INT8 and the last three run mixed.
    engine.resume_workers();
    let mut modes = Vec::new();
    for rx in &receivers {
        match rx.recv().expect("queued request must be answered").outcome {
            Outcome::Ok(reply) => {
                if reply.mode == ExecMode::Uniform8 {
                    assert_eq!(reply.int4_fraction, 0.0, "uniform INT8 runs no INT4 MACs");
                } else {
                    assert!(reply.int4_fraction > 0.0, "mixed mode uses INT4 regions");
                }
                modes.push(reply.mode);
            }
            other => panic!("unexpected outcome {other:?}"),
        }
    }
    // EDF order is admission order here (equal budgets, seq tie-break),
    // and the single worker serializes, so the mode sequence is exact.
    assert_eq!(
        modes,
        vec![
            ExecMode::Uniform8,
            ExecMode::Uniform8,
            ExecMode::Uniform8,
            ExecMode::Uniform8,
            ExecMode::Uniform8,
            ExecMode::Mixed,
            ExecMode::Mixed,
            ExecMode::Mixed,
        ]
    );
    assert_eq!(engine.state(), ShedState::Healthy, "recovered after the drain");
    assert_eq!(engine.stats().degraded_responses, 5);
    engine.shutdown(1_000);
}

/// Graceful shutdown, soft path: everything queued before close drains to
/// a normal response.
#[test]
fn shutdown_drains_in_flight_requests() {
    let engine = ServeEngine::start(ServeConfig {
        workers: 2,
        ..ServeConfig::default()
    });
    let receivers: Vec<_> = (0..6)
        .map(|i| submit_channel(&engine, infer(&format!("s{i}"), i as u64)))
        .collect();
    let report = engine.shutdown(10_000);
    assert_eq!(report.served, 6);
    assert_eq!(report.cancelled, 0);
    for rx in receivers {
        let resp = rx.recv().expect("drained request must be answered");
        assert!(matches!(resp.outcome, Outcome::Ok(_)), "got {resp:?}");
    }
}

/// Graceful shutdown, hard path: a zero drain budget cancels queued work,
/// and each cancelled request still gets exactly one (typed) response.
#[test]
fn shutdown_hard_deadline_cancels_with_exactly_one_response() {
    let engine = ServeEngine::start(ServeConfig {
        workers: 1,
        capacity: 8,
        shed: ShedPolicy {
            // Keep the machine quiet so this test is purely about drain.
            degrade_enter_depth: 2.0,
            shed_enter_depth: 2.0,
            ..ShedPolicy::default()
        },
        ..ServeConfig::default()
    });
    engine.pause_workers();
    let receivers: Vec<_> = (0..5)
        .map(|i| submit_channel(&engine, infer(&format!("h{i}"), i as u64)))
        .collect();
    let report = engine.shutdown(0);
    assert_eq!(report.cancelled, 5, "zero budget cancels everything queued");
    for rx in receivers {
        let resp = rx.recv().expect("cancelled request must still be answered");
        assert!(
            matches!(resp.outcome, Outcome::Error { error: ServeError::Cancelled { .. } }),
            "got {resp:?}"
        );
        assert!(
            rx.try_recv().is_err(),
            "exactly one response per request, even under cancellation"
        );
    }
}

/// The full TCP soak: N seeded clients hammer a loopback server with a mix
/// of valid, malformed, oversized, poisoned and expired requests. Zero
/// responses lost, zero duplicated, and the adversarial categories land in
/// the right buckets.
#[test]
fn tcp_soak_with_adversarial_mix_loses_nothing() {
    let router = ShardRouter::start(ServeConfig {
        workers: 2,
        capacity: 64,
        ..ServeConfig::default()
    });
    let server = TcpServer::bind(router, "127.0.0.1:0").expect("bind");
    let addr = server.local_addr().expect("local addr");
    let server_thread = thread::spawn(move || server.run());

    let config = ClientConfig {
        addr: addr.to_string(),
        clients: 4,
        requests: 12,
        seed: 0xD1CE,
        poison: 1,
        malformed: 2,
        oversized: 1,
        expired: 1,
        shutdown: true,
        drain_ms: 10_000,
        ..ClientConfig::default()
    };
    let summary = run_load(&config).expect("load run");
    let report = server_thread.join().expect("server thread");

    assert_eq!(summary.sent, 48);
    assert_eq!(summary.received, 48, "every line answered");
    assert_eq!(summary.lost, 0);
    assert_eq!(summary.duplicated, 0);
    // Category accounting: 4 clients × quotas.
    assert_eq!(summary.errors.get("worker_panic"), Some(&4));
    assert_eq!(summary.errors.get("bad_request"), Some(&8));
    assert_eq!(summary.errors.get("oversized"), Some(&4));
    assert_eq!(summary.errors.get("deadline_expired"), Some(&4));
    // 7 valid requests per client succeed (backpressure may degrade but
    // capacity 64 ≫ 28 in-flight, so none are rejected).
    assert_eq!(summary.ok, 28);
    assert_eq!(summary.rejected, 0);
    assert_eq!(report.worker_restarts, 4);
    // Exactly-once accounting carried through the drain.
    assert_eq!(report.cancelled, 0);
}

/// The same seeded soak twice gives byte-identical aggregate behavior —
/// the serving layer inherits the repo-wide determinism contract.
#[test]
fn seeded_soak_is_deterministic() {
    let mut summaries = Vec::new();
    for _ in 0..2 {
        let router = ShardRouter::start(ServeConfig {
            workers: 1,
            ..ServeConfig::default()
        });
        let server = TcpServer::bind(router, "127.0.0.1:0").expect("bind");
        let addr = server.local_addr().expect("local addr");
        let server_thread = thread::spawn(move || server.run());
        let config = ClientConfig {
            addr: addr.to_string(),
            clients: 2,
            requests: 8,
            seed: 77,
            poison: 1,
            malformed: 1,
            shutdown: true,
            drain_ms: 10_000,
            ..ClientConfig::default()
        };
        let summary = run_load(&config).expect("load run");
        server_thread.join().expect("server thread");
        summaries.push(summary);
    }
    assert_eq!(summaries[0], summaries[1]);
}
