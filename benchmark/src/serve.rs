//! `serve-closed`: a closed loop of seeded inference requests through the
//! shard router configured with `drq serve`'s defaults.
//!
//! One thread keeps one request in flight and sends the next as soon as it
//! is answered. Requests come from `soak::stream_request` (see
//! [`Requests`]): three in four ask LeNet-5 on `digits`, one in four
//! ResNet-8 on `shapes`, in batches of 1 to 4. The router routes each
//! request to a worker, caches model plans and input masks, and runs the
//! mixed-precision convolutions of `core` (whose kernels use the machine's
//! CPUs); `sim` and `dse` are not involved. Two requests in flight on the
//! two-CPU reference machine put a second worker and its kernel threads on
//! CPUs that were already busy: which requests met on one worker then
//! depended on timing, and throughput spread 25-34% over ten seeds against
//! 8% with one request in flight. An open loop is left out for the same
//! reason: its p99 varied by almost 2x between identical 15 s runs.

use crate::spans::Spans;
use crate::stats::{fnv1a, median, median_block_rate, ratio, FNV_OFFSET};
use crate::workload::{repeated_setup, Ctx, Outcome, Scale};
use drq::core::DrqNetwork;
use drq::models::{default_standin, Dataset, DatasetKind};
use drq::serve::soak::stream_request;
use drq::serve::{InferRequest, Outcome as Reply, PlanCache, Response, ServeConfig, ShardRouter};
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

/// Percentile reported as the tail latency: a full run answers 350 to 650
/// requests, enough for ten beyond the 95th percentile but not the 99th.
pub fn tail_pct(scale: Scale) -> f64 {
    match scale {
        Scale::Full => 95.0,
        Scale::Smoke => 50.0,
    }
}

/// Requests kept in flight by the one client thread.
const IN_FLIGHT: usize = 1;

/// Length of the repeating (dataset, batch) pattern of the request sequence.
const PATTERN: usize = 4 * MAX_BATCH_DRAWN;

/// Largest batch the request stream draws (the router admits up to 8).
const MAX_BATCH_DRAWN: usize = 4;

/// How long a silent router may keep a request before it counts as lost.
const LOST_AFTER: Duration = Duration::from_secs(30);

/// `drq serve`'s defaults: 2 workers, 64 queue slots each, batches up to 8,
/// coalescing up to 4 images.
fn config() -> ServeConfig {
    ServeConfig {
        coalesce: 4,
        ..ServeConfig::default()
    }
}

/// Requests whose responses must match a 1-worker, coalesce-1 router.
fn reference_ids(scale: Scale) -> usize {
    match scale {
        Scale::Full => 32,
        Scale::Smoke => 8,
    }
}

/// The run's request sequence: `soak::stream_request(seed, i, 4)` taken in
/// stream order, but regrouped into a repeating pattern of [`PATTERN`]
/// (dataset, batch) slots: every fourth request asks `shapes` and the rest
/// `digits`, and each batch size from 1 to 4 comes once per four requests
/// of a dataset. The stream draws dataset and batch at random; a `shapes`
/// request costs some 50 times a `digits` one and a batch of 4 four times
/// a batch of 1, so a mix left to chance changes the work per request from
/// seed to seed (throughput spread 30% over ten seeds with the dataset
/// share left to chance). The seed still picks every request's inputs and
/// id.
struct Requests {
    seed: u64,
    /// Stream indices drawn so far.
    scanned: usize,
    /// Drawn but not yet issued, per (dataset, batch) class: the `digits`
    /// batches 1 to 4 first, then the `shapes` ones.
    queued: [VecDeque<InferRequest>; 2 * MAX_BATCH_DRAWN],
    issued: Vec<InferRequest>,
}

impl Requests {
    fn new(seed: u64) -> Self {
        Self {
            seed,
            scanned: 0,
            queued: Default::default(),
            issued: Vec::new(),
        }
    }

    fn class(shapes: bool, batch: usize) -> usize {
        usize::from(shapes) * MAX_BATCH_DRAWN + batch - 1
    }

    /// The request at run position `k`.
    fn get(&mut self, k: usize) -> InferRequest {
        while self.issued.len() <= k {
            let slot = self.issued.len() % PATTERN;
            let want = Self::class(slot % 4 == 3, 1 + slot / 4);
            while self.queued[want].is_empty() {
                let r = stream_request(self.seed, self.scanned, MAX_BATCH_DRAWN);
                self.scanned += 1;
                self.queued[Self::class(r.dataset == DatasetKind::Shapes, r.batch)].push_back(r);
            }
            let next = self.queued[want]
                .pop_front()
                .expect("queue was just filled");
            self.issued.push(next);
        }
        self.issued[k].clone()
    }
}

struct Done {
    index: usize,
    response: Response,
    at: Instant,
}

/// What one closed-loop phase observed.
#[derive(Default)]
struct LoopRun {
    /// Latency (ms) of every ok response, in completion order.
    latencies_ms: Vec<f64>,
    /// Request index and latency of every ok response.
    answered: Vec<(usize, f64)>,
    /// Seconds from the loop's start to every ok response.
    done_s: Vec<f64>,
    /// Wall time of each `ShardRouter::submit` call (ms).
    submit_ms: Vec<f64>,
    wall_s: f64,
    submitted: u64,
    failures: Vec<String>,
    /// Response lines of the requests below the reference cut-off.
    lines: BTreeMap<usize, String>,
    next_index: usize,
}

/// Runs the closed loop from run position `first` until `seconds` have
/// passed, then waits for the requests still in flight.
fn closed_loop(
    router: &ShardRouter,
    requests: &mut Requests,
    first: usize,
    seconds: f64,
    keep_lines_below: usize,
    spans: Option<&Spans>,
) -> LoopRun {
    let (tx, rx) = mpsc::channel::<Done>();
    let mut run = LoopRun {
        next_index: first,
        ..LoopRun::default()
    };
    // Run position -> (submit start, submit end).
    let mut in_flight: HashMap<usize, (Instant, Instant)> = HashMap::new();
    let submit = |run: &mut LoopRun,
                  in_flight: &mut HashMap<usize, (Instant, Instant)>,
                  requests: &mut Requests| {
        let index = run.next_index;
        run.next_index += 1;
        let request = requests.get(index);
        run.submitted += 1;
        let tx = tx.clone();
        let start = Instant::now();
        router.submit(
            request,
            Box::new(move |response| {
                let _ = tx.send(Done {
                    index,
                    response,
                    at: Instant::now(),
                });
            }),
        );
        let end = Instant::now();
        run.submit_ms.push((end - start).as_secs_f64() * 1e3);
        in_flight.insert(index, (start, end));
    };
    let started = Instant::now();
    let deadline = started + Duration::from_secs_f64(seconds.max(0.0));
    for _ in 0..IN_FLIGHT {
        submit(&mut run, &mut in_flight, requests);
    }
    while !in_flight.is_empty() {
        let Ok(done) = rx.recv_timeout(LOST_AFTER) else {
            run.failures
                .push(format!("{} requests never answered", in_flight.len()));
            break;
        };
        let Some((start, submit_end)) = in_flight.remove(&done.index) else {
            run.failures
                .push(format!("request {} answered twice", done.index));
            continue;
        };
        let ms = (done.at - start).as_secs_f64() * 1e3;
        if let Reply::Ok(_) = done.response.outcome {
            run.latencies_ms.push(ms);
            run.answered.push((done.index, ms));
            run.done_s
                .push(done.at.saturating_duration_since(started).as_secs_f64());
        } else {
            run.failures
                .push(format!("not ok: {}", done.response.to_json_line()));
        }
        if let Some(spans) = spans {
            let id = spans.record("serve.request", None, done.index as u64, start, done.at);
            spans.record(
                "serve.submit",
                Some(id),
                done.index as u64,
                start,
                submit_end,
            );
        }
        if done.index < keep_lines_below {
            run.lines.insert(done.index, done.response.to_json_line());
        }
        if Instant::now() < deadline {
            submit(&mut run, &mut in_flight, requests);
        }
    }
    run.wall_s = started.elapsed().as_secs_f64();
    // A response arriving after its request was answered is a duplicate.
    while let Ok(done) = rx.try_recv() {
        run.failures
            .push(format!("request {} answered twice", done.index));
    }
    run
}

/// Starts a router and builds both models' plans in its shared plan cache,
/// as the first request for each model would; each router has a cache of
/// its own, so every set-up repetition builds them afresh.
fn start_warm() -> Arc<ShardRouter> {
    let router = ShardRouter::start(config());
    let cache = router.plan_cache();
    for dataset in [DatasetKind::Digits, DatasetKind::Shapes] {
        let _ = cache.model(dataset, config().model_seed);
    }
    router
}

/// Response lines of the run's first `n` requests from a 1-worker,
/// coalesce-1 router: the bytes the measured router must reproduce.
fn reference_lines(seed: u64, n: usize) -> Vec<Option<String>> {
    let router = ShardRouter::start(ServeConfig {
        workers: 1,
        coalesce: 1,
        ..config()
    });
    let (tx, rx) = mpsc::channel::<(usize, String)>();
    let mut requests = Requests::new(seed);
    for index in 0..n {
        let tx = tx.clone();
        router.submit(
            requests.get(index),
            Box::new(move |r| {
                let _ = tx.send((index, r.to_json_line()));
            }),
        );
    }
    let mut lines = vec![None; n];
    for _ in 0..n {
        match rx.recv_timeout(LOST_AFTER) {
            Ok((index, line)) => lines[index] = Some(line),
            Err(_) => break,
        }
    }
    router.shutdown(10_000);
    lines
}

pub fn run(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    let (router, setup_s) = repeated_setup(
        ctx,
        |_| start_warm(),
        |stale| {
            stale.shutdown(10_000);
        },
    );
    out.setup_s = setup_s;
    let n_ref = reference_ids(ctx.scale);
    let reference = reference_lines(ctx.seed, n_ref);

    let mut requests = Requests::new(ctx.seed);
    let measured = closed_loop(
        &router,
        &mut requests,
        0,
        ctx.untraced_seconds(),
        n_ref,
        None,
    );
    out.latencies_ms = measured.latencies_ms.clone();
    out.measured_s = measured.wall_s;
    // Each block of one request pattern asks the same work.
    out.throughput_ops_s = Some(median_block_rate(&measured.done_s, PATTERN));
    record_failures(&mut out, &measured);
    // Gate: sharding never changes response bytes.
    let mut digest = FNV_OFFSET;
    for (index, expected) in reference.iter().enumerate() {
        let got = measured.lines.get(&index);
        if index < measured.next_index {
            out.check(expected.is_some() && got == expected.as_ref(), || {
                format!("request {index}: response differs from the 1-worker reference")
            });
        }
        digest = fnv1a(digest, expected.as_deref().unwrap_or("lost").as_bytes());
    }
    out.digest = digest;

    if let Some(spans) = &ctx.spans {
        let loop_s = ctx.traced_seconds() * 0.75;
        let first = measured.next_index;
        let traced = closed_loop(&router, &mut requests, first, loop_s, 0, Some(spans));
        record_failures(&mut out, &traced);
        per_layer(ctx, spans, &router, &traced, &mut out);
        replay_service(ctx, spans, &mut requests, &traced, &mut out);
        out.traced_latencies_ms = traced.latencies_ms;
    }
    router.shutdown(10_000);
    out
}

fn record_failures(out: &mut Outcome, run: &LoopRun) {
    out.attempted += run.submitted;
    out.failed += run.failures.len() as u64;
    out.failures.extend(run.failures.iter().take(8).cloned());
}

/// Router and plan-cache counters, the `submit` call's own time, and a cold
/// plan build. With one request in flight nothing is ever coalesced, so the
/// batcher's counters are left out.
fn per_layer(ctx: &Ctx, spans: &Spans, router: &ShardRouter, traced: &LoopRun, out: &mut Outcome) {
    let stats = router.stats();
    let plan = router.plan_stats();
    let s = stats.serve;
    let (_, build_ms) = spans.scope("serve.plan_build", None, ctx.seed, |_| {
        let cache = PlanCache::new();
        for dataset in [DatasetKind::Digits, DatasetKind::Shapes] {
            let _ = cache.model(dataset, config().model_seed);
        }
    });
    out.layer("serve.submit_us_p50", median(&traced.submit_ms) * 1e3);
    out.layer(
        "serve.model_hit_rate",
        ratio(
            plan.model_hits as f64,
            (plan.model_hits + plan.model_misses) as f64,
        ),
    );
    out.layer(
        "serve.mask_hit_rate",
        ratio(
            plan.mask_hits as f64,
            (plan.mask_hits + plan.mask_misses) as f64,
        ),
    );
    let rejected = s.rejected_full + s.rejected_shed + s.rejected_oversized;
    out.layer(
        "serve.rejected_frac",
        ratio(rejected as f64, stats.routed as f64),
    );
    out.layer("serve.worker_restarts", s.worker_restarts as f64);
    out.layer("serve.plan_build_ms", build_ms);
}

/// Runs answered requests again through `DrqNetwork::forward` on the
/// request's model and batch, called directly, to split each request's
/// latency into model service time and everything else.
fn replay_service(
    ctx: &Ctx,
    spans: &Spans,
    requests: &mut Requests,
    traced: &LoopRun,
    out: &mut Outcome,
) {
    let cfg = config();
    let mut nets: HashMap<DatasetKind, DrqNetwork> = HashMap::new();
    let mut service: HashMap<DatasetKind, Vec<f64>> = HashMap::new();
    let (mut service_sum, mut latency_sum) = (0.0, 0.0);
    let budget = Duration::from_secs_f64(ctx.traced_seconds() * 0.25);
    let started = Instant::now();
    for &(index, latency_ms) in &traced.answered {
        let both_seen = service.len() == 2;
        if both_seen && started.elapsed() >= budget {
            break;
        }
        let request = requests.get(index);
        let net = nets.entry(request.dataset).or_insert_with(|| {
            DrqNetwork::new(default_standin(request.dataset, cfg.model_seed), cfg.drq)
        });
        let (x, _) = Dataset::generate(request.dataset, request.batch, request.sample_seed)
            .batch(0, request.batch);
        let (_, ms) = spans.scope("core.drq_forward", None, index as u64, |_| net.forward(&x));
        service.entry(request.dataset).or_default().push(ms);
        service_sum += ms;
        latency_sum += latency_ms;
    }
    let p50 = |kind| service.get(&kind).map_or(0.0, |v| median(v));
    out.layer("core.service_ms_digits_p50", p50(DatasetKind::Digits));
    out.layer("core.service_ms_shapes_p50", p50(DatasetKind::Shapes));
    out.layer(
        "serve.unexplained_frac",
        1.0 - ratio(service_sum, latency_sum),
    );
}
