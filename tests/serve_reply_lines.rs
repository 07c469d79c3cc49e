//! Full reply lines of the serve path, pinned byte for byte.
//!
//! A fixed mix over both serving datasets and batches 1–4 runs through a
//! one-worker router in both execution modes, once request by request and
//! once coalesced into groups; every reply line (predictions, INT4 share
//! and `cycles`) must equal the recorded value. A third test coalesces a
//! group in which one member's deadline expires between layers: that
//! member alone fails, and the others reply exactly as they do alone.

use drq::models::DatasetKind;
use drq::serve::{InferRequest, Response, ServeConfig, ShardRouter, ShedPolicy};
use std::sync::{mpsc, Arc};

/// Load shedding off: every request runs the mixed-precision path.
fn healthy() -> ShedPolicy {
    ShedPolicy {
        degrade_enter_depth: 2.0,
        shed_enter_depth: 2.0,
        degrade_enter_misses: usize::MAX,
        ..ShedPolicy::default()
    }
}

/// Degraded from the first observation on and never recovering or
/// shedding: every request runs the uniform-INT8 fallback.
fn degraded() -> ShedPolicy {
    ShedPolicy {
        degrade_enter_depth: 0.0,
        degrade_exit_depth: -1.0,
        shed_enter_depth: 2.0,
        ..ShedPolicy::default()
    }
}

fn router(shed: ShedPolicy, coalesce: usize) -> Arc<ShardRouter> {
    ShardRouter::start(ServeConfig {
        workers: 1,
        coalesce,
        shed,
        ..ServeConfig::default()
    })
}

fn request(id: &str, dataset: DatasetKind, sample_seed: u64, batch: usize) -> InferRequest {
    InferRequest {
        id: id.to_string(),
        dataset,
        sample_seed,
        batch,
        deadline_cycles: None,
        poison: false,
    }
}

/// Both datasets at batches 1 to 4, each at its own sample seed.
fn mix() -> Vec<InferRequest> {
    let mut out = Vec::new();
    for (dataset, name, seed) in [
        (DatasetKind::Digits, "digits", 100),
        (DatasetKind::Shapes, "shapes", 200),
    ] {
        for batch in 1..=4 {
            out.push(request(
                &format!("{name}-b{batch}"),
                dataset,
                seed + batch as u64,
                batch,
            ));
        }
    }
    out
}

/// Each request answered before the next is submitted.
fn solo_lines(router: &ShardRouter, requests: &[InferRequest]) -> Vec<String> {
    requests
        .iter()
        .map(|req| {
            let (tx, rx) = mpsc::channel::<Response>();
            router.submit(req.clone(), Box::new(move |r| drop(tx.send(r))));
            rx.recv().expect("one response").to_json_line()
        })
        .collect()
}

/// Every request queued on a paused worker, then released together, so
/// compatible requests coalesce. Lines come back in `requests` order.
fn grouped_lines(router: &ShardRouter, requests: &[InferRequest]) -> Vec<String> {
    router.pause_workers();
    let rxs: Vec<_> = requests
        .iter()
        .map(|req| {
            let (tx, rx) = mpsc::channel::<Response>();
            router.submit(req.clone(), Box::new(move |r| drop(tx.send(r))));
            rx
        })
        .collect();
    router.resume_workers();
    rxs.iter()
        .map(|rx| rx.recv().expect("one response").to_json_line())
        .collect()
}

fn assert_lines(got: &[String], want: &[&str], what: &str) {
    let want: Vec<String> = want.iter().map(|s| s.to_string()).collect();
    assert_eq!(
        got,
        want.as_slice(),
        "{what}: reply lines drifted; got:\n{}",
        got.join("\n")
    );
}

const MIXED: [&str; 8] = [
    r#"{"id":"digits-b1","status":"ok","state":"healthy","mode":"mixed","degraded":false,"predictions":[5],"int4_fraction":0.6866041666666667,"cycles":5886}"#,
    r#"{"id":"digits-b2","status":"ok","state":"healthy","mode":"mixed","degraded":false,"predictions":[5,6],"int4_fraction":0.690859375,"cycles":11686}"#,
    r#"{"id":"digits-b3","status":"ok","state":"healthy","mode":"mixed","degraded":false,"predictions":[5,1,6],"int4_fraction":0.731,"cycles":16440}"#,
    r#"{"id":"digits-b4","status":"ok","state":"healthy","mode":"mixed","degraded":false,"predictions":[5,5,5,5],"int4_fraction":0.69746875,"cycles":23127}"#,
    r#"{"id":"shapes-b1","status":"ok","state":"healthy","mode":"mixed","degraded":false,"predictions":[2],"int4_fraction":0.9704599442988204,"cycles":215615}"#,
    r#"{"id":"shapes-b2","status":"ok","state":"healthy","mode":"mixed","degraded":false,"predictions":[2,2],"int4_fraction":0.9663028342070773,"cycles":436071}"#,
    r#"{"id":"shapes-b3","status":"ok","state":"healthy","mode":"mixed","degraded":false,"predictions":[2,2,1],"int4_fraction":0.9720265399737876,"cycles":644029}"#,
    r#"{"id":"shapes-b4","status":"ok","state":"healthy","mode":"mixed","degraded":false,"predictions":[2,2,1,2],"int4_fraction":0.9726946469528178,"cycles":857129}"#,
];

const UNIFORM8: [&str; 8] = [
    r#"{"id":"digits-b1","status":"ok","state":"degraded","mode":"uniform8","degraded":true,"predictions":[5],"int4_fraction":0,"cycles":9808}"#,
    r#"{"id":"digits-b2","status":"ok","state":"degraded","mode":"uniform8","degraded":true,"predictions":[5,6],"int4_fraction":0,"cycles":19606}"#,
    r#"{"id":"digits-b3","status":"ok","state":"degraded","mode":"uniform8","degraded":true,"predictions":[5,1,7],"int4_fraction":0,"cycles":29404}"#,
    r#"{"id":"digits-b4","status":"ok","state":"degraded","mode":"uniform8","degraded":true,"predictions":[5,5,5,5],"int4_fraction":0,"cycles":39204}"#,
    r#"{"id":"shapes-b1","status":"ok","state":"degraded","mode":"uniform8","degraded":true,"predictions":[2],"int4_fraction":0,"cycles":740834}"#,
    r#"{"id":"shapes-b2","status":"ok","state":"degraded","mode":"uniform8","degraded":true,"predictions":[2,2],"int4_fraction":0,"cycles":1481637}"#,
    r#"{"id":"shapes-b3","status":"ok","state":"degraded","mode":"uniform8","degraded":true,"predictions":[2,2,2],"int4_fraction":0,"cycles":2222440}"#,
    r#"{"id":"shapes-b4","status":"ok","state":"degraded","mode":"uniform8","degraded":true,"predictions":[2,2,2,2],"int4_fraction":0,"cycles":2963243}"#,
];

#[test]
fn mixed_mode_reply_lines_are_pinned_solo_and_coalesced() {
    let router = router(healthy(), 16);
    assert_lines(&solo_lines(&router, &mix()), &MIXED, "mixed, one at a time");
    assert_lines(&grouped_lines(&router, &mix()), &MIXED, "mixed, coalesced");
    let serve = router.stats().serve;
    router.shutdown(10_000);
    // Eight solo groups, then one group per dataset.
    assert_eq!((serve.batch_groups, serve.batch_coalesced), (10, 8));
}

#[test]
fn uniform8_reply_lines_are_pinned_solo_and_coalesced() {
    let router = router(degraded(), 16);
    assert_lines(
        &solo_lines(&router, &mix()),
        &UNIFORM8,
        "uniform8, one at a time",
    );
    assert_lines(
        &grouped_lines(&router, &mix()),
        &UNIFORM8,
        "uniform8, coalesced",
    );
    let serve = router.stats().serve;
    router.shutdown(10_000);
    assert_eq!((serve.batch_groups, serve.batch_coalesced), (10, 8));
    assert_eq!(serve.degraded_responses, 16);
}

#[test]
fn a_member_expiring_between_layers_leaves_the_others_as_they_run_alone() {
    // One cycle of budget passes the queue check and the first layer
    // boundary at the fresh worker's clock of 0, and runs out as soon as
    // the first convolution advances the clock.
    let mut rushed = request("rushed", DatasetKind::Shapes, 301, 1);
    rushed.deadline_cycles = Some(1);
    let group = [
        request("calm-a", DatasetKind::Shapes, 302, 2),
        rushed,
        request("calm-b", DatasetKind::Shapes, 303, 3),
    ];
    let router = router(healthy(), 8);
    let got = grouped_lines(&router, &group);
    let serve = router.stats().serve;
    router.shutdown(10_000);
    assert_eq!(
        (
            serve.batch_groups,
            serve.batch_coalesced,
            serve.deadline_miss
        ),
        (1, 3, 1)
    );
    assert_lines(
        &got,
        &[
            r#"{"id":"calm-a","status":"ok","state":"healthy","mode":"mixed","degraded":false,"predictions":[2,2],"int4_fraction":0.9669274246395806,"cycles":435339}"#,
            r#"{"id":"rushed","status":"error","error":"deadline_expired","detail":"deadline expired in layer"}"#,
            r#"{"id":"calm-b","status":"ok","state":"healthy","mode":"mixed","degraded":false,"predictions":[2,2,2],"int4_fraction":0.9728968709043251,"cycles":642499}"#,
        ],
        "group with a member expiring mid-walk",
    );
    // The members that finished reply exactly as they do alone.
    let alone = router_solo(&[&group[0], &group[2]]);
    assert_eq!(
        [got[0].clone(), got[2].clone()],
        [alone[0].clone(), alone[1].clone()]
    );
}

fn router_solo(requests: &[&InferRequest]) -> Vec<String> {
    let router = router(healthy(), 1);
    let requests: Vec<InferRequest> = requests.iter().map(|r| (*r).clone()).collect();
    let lines = solo_lines(&router, &requests);
    router.shutdown(10_000);
    lines
}
