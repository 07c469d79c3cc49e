//! `adapt-shapes`: sensitivity-aware fine-tuning of the Shapes ResNet-8
//! stand-in.
//!
//! Set-up generates the data, builds the model and calibrates per-layer
//! thresholds on 64 images. One operation is one `finetune_step` on a batch
//! of 16: a mixed-precision `DrqNetwork::forward`, then an fp32 forward and
//! backward pass and an SGD step in `nn`. It uses `core` differently from
//! serving (large training batches) and touches neither `sim` nor `serve`.
//! The traced phase replays each step as the public calls `finetune_step`
//! makes, so the split between `core` and `nn` can be read per call.

use crate::spans::{timed, SpanId, Spans};
use crate::stats::{fnv1a, median, FNV_OFFSET};
use crate::workload::{repeated_setup, timed_loop, Ctx, Outcome, Scale};
use drq::core::{
    calibrate_thresholds, finetune_step, DrqConfig, DrqNetwork, DrqRunStats, LayerThresholds,
    RegionSize, SensitivityPredictor,
};
use drq::models::{default_standin, Dataset, DatasetKind};
use drq::nn::{CrossEntropyLoss, Network, Sgd};
use drq::telemetry::Json;
use drq::tensor::Tensor;
use std::time::Instant;

/// Percentile reported as the tail latency: about twenty steps per run
/// leave no percentile above the median with ten samples beyond it.
pub const TAIL_PCT: f64 = 50.0;

/// Calibration target sensitive fraction (`drq calibrate`'s default, with
/// its 4x4 regions).
const TARGET_SENSITIVE: f64 = 0.1;
const LR: f32 = 0.005;
const MOMENTUM: f32 = 0.9;

struct Sizes {
    calib: usize,
    train: usize,
    batch: usize,
    eval: usize,
}

fn sizes(scale: Scale) -> Sizes {
    match scale {
        Scale::Full => Sizes {
            calib: 64,
            train: 256,
            batch: 16,
            eval: 32,
        },
        Scale::Smoke => Sizes {
            calib: 8,
            train: 8,
            batch: 4,
            eval: 4,
        },
    }
}

struct State {
    train: Dataset,
    eval: Dataset,
    net: Network,
    schedule: LayerThresholds,
    /// When calibration started and ended.
    calibrate: (Instant, Instant),
}

fn setup(seed: u64, s: &Sizes) -> State {
    let calib = Dataset::generate(DatasetKind::Shapes, s.calib, seed);
    let train = Dataset::generate(DatasetKind::Shapes, s.train, seed.wrapping_add(1));
    let eval = Dataset::generate(DatasetKind::Shapes, s.eval, seed.wrapping_add(2));
    let mut net = default_standin(DatasetKind::Shapes, seed);
    let (x, _) = calib.batch(0, s.calib);
    let start = Instant::now();
    let schedule = calibrate_thresholds(&mut net, &x, RegionSize::new(4, 4), TARGET_SENSITIVE);
    State {
        train,
        eval,
        net,
        schedule,
        calibrate: (start, Instant::now()),
    }
}

/// Wall milliseconds of the five calls of one step.
#[derive(Default)]
struct Phases {
    drq_forward: Vec<f64>,
    loss: Vec<f64>,
    forward_train: Vec<f64>,
    backward: Vec<f64>,
    sgd_step: Vec<f64>,
}

/// One `finetune_step`, replayed as the public calls it makes (each in a
/// span when traced). Returns the loss and the forward pass's statistics.
#[allow(clippy::too_many_arguments)]
fn replay_step(
    net: &mut Network,
    cfg: &DrqConfig,
    x: &Tensor<f32>,
    y: &[usize],
    opt: &mut Sgd,
    spans: Option<&Spans>,
    parent: Option<SpanId>,
    rid: u64,
    phases: &mut Phases,
) -> (f32, DrqRunStats) {
    let ((logits, stats), ms) = timed(spans, "core.drq_forward", parent, rid, |_| {
        DrqNetwork::new(net.clone(), *cfg).forward(x)
    });
    phases.drq_forward.push(ms);
    let ((loss, grad), ms) = timed(spans, "nn.loss", parent, rid, |_| {
        CrossEntropyLoss::evaluate(&logits, y)
    });
    phases.loss.push(ms);
    let (_, ms) = timed(spans, "nn.forward_train", parent, rid, |_| {
        net.forward(x, true)
    });
    phases.forward_train.push(ms);
    let (_, ms) = timed(spans, "nn.backward", parent, rid, |_| net.backward(&grad));
    phases.backward.push(ms);
    let (_, ms) = timed(spans, "nn.sgd_step", parent, rid, |_| opt.step(net));
    phases.sgd_step.push(ms);
    (loss, stats)
}

/// Runs the sensitivity predictor alone over every convolution input of
/// `x` (taken from an fp32 forward pass), at the layer configuration the
/// DRQ forward uses. Returns each convolution's predictor milliseconds.
fn predictor_replay(
    net: &Network,
    cfg: &DrqConfig,
    x: &Tensor<f32>,
    spans: &Spans,
    rid: u64,
) -> Vec<f64> {
    let mut inputs = Vec::new();
    net.clone()
        .forward_tapped(x, &mut |tap| inputs.push(tap.input.clone()));
    let total = inputs.len().max(1);
    inputs
        .iter()
        .enumerate()
        .map(|(idx, input)| {
            let s = input.shape4().expect("convolution inputs are rank 4");
            let layer = cfg.for_layer(s.h, s.w, idx as f64 / total as f64);
            let predictor = SensitivityPredictor::new(layer.region, layer.threshold);
            spans
                .scope("core.predictor", None, rid, |_| {
                    for n in 0..s.n {
                        std::hint::black_box(predictor.predict_image(input, n));
                    }
                })
                .1
        })
        .collect()
}

fn param_digest(net: &mut Network) -> u64 {
    let mut hash = FNV_OFFSET;
    net.visit_params(&mut |p, _| {
        for v in p.as_slice() {
            hash = fnv1a(hash, &v.to_bits().to_le_bytes());
        }
    });
    hash
}

pub fn run(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    let s = sizes(ctx.scale);
    let (mut st, setup_s) = repeated_setup(ctx, |seed| setup(seed, &s), drop);
    out.setup_s = setup_s;
    let cfg = st.schedule.to_uniform_config();
    let mut opt = Sgd::new(LR).momentum(MOMENTUM);
    let batches = st.train.batch_count(s.batch);

    // Gate: the replayed step is `finetune_step` bit for bit.
    let (x, y) = st.train.batch(0, s.batch);
    let (mut net_a, mut opt_a) = (st.net.clone(), opt.clone());
    let (loss_a, stats_a) = finetune_step(&mut net_a, &cfg, &x, &y, &mut opt_a);
    let (loss_b, _) = replay_step(
        &mut st.net,
        &cfg,
        &x,
        &y,
        &mut opt,
        None,
        None,
        0,
        &mut Phases::default(),
    );
    let (digest_a, digest_b) = (param_digest(&mut net_a), param_digest(&mut st.net));
    out.check(loss_a.is_finite(), || format!("step 0: loss {loss_a}"));
    out.check(
        loss_a.to_bits() == loss_b.to_bits() && digest_a == digest_b,
        || format!("step 0: replayed loss {loss_b} / weights differ from finetune_step's {loss_a}"),
    );
    out.digest = fnv1a(
        fnv1a(FNV_OFFSET, &loss_a.to_bits().to_le_bytes()),
        &digest_a.to_le_bytes(),
    );
    out.layer("core.int4_mac_frac", stats_a.int4_fraction());
    out.layer("core.sensitive_frac", stats_a.mean_sensitive_fraction());

    let (latencies, measured_s) = timed_loop(ctx.untraced_seconds(), |i| {
        let (x, y) = st.train.batch((1 + i) % batches, s.batch);
        let (loss, _) = finetune_step(&mut st.net, &cfg, &x, &y, &mut opt);
        out.check(loss.is_finite(), || format!("step {}: loss {loss}", 1 + i));
    });
    out.latencies_ms = latencies;
    out.measured_s = measured_s;

    if let Some(spans) = &ctx.spans {
        let (start, end) = st.calibrate;
        spans.record("core.calibrate", None, ctx.seed, start, end);
        out.layer("core.calibrate_ms", (end - start).as_secs_f64() * 1e3);
        let first_step = 1 + out.latencies_ms.len();
        let mut phases = Phases::default();
        let (mut predictor, mut traced) = (Vec::new(), Vec::new());
        timed_loop(ctx.traced_seconds() * 0.8, |i| {
            let step = (first_step + i) as u64;
            let (x, y) = st.train.batch((first_step + i) % batches, s.batch);
            // Only the step itself is the traced operation; the predictor
            // replay below is extra work of the traced run.
            let ((loss, stats), op_ms) = spans.scope("bench.op", None, step, |op| {
                replay_step(
                    &mut st.net,
                    &cfg,
                    &x,
                    &y,
                    &mut opt,
                    Some(spans),
                    Some(op),
                    step,
                    &mut phases,
                )
            });
            traced.push(op_ms);
            out.check(loss.is_finite(), || format!("step {step}: loss {loss}"));
            let per_conv = predictor_replay(&st.net, &cfg, &x, spans, step);
            predictor.push(per_conv.iter().sum::<f64>());
            if out.table.is_empty() {
                out.table = conv_table(&stats, &per_conv);
            }
        });
        out.layer("core.drq_forward_ms", median(&phases.drq_forward));
        out.layer("nn.loss_ms", median(&phases.loss));
        out.layer("nn.forward_train_ms", median(&phases.forward_train));
        out.layer("nn.backward_ms", median(&phases.backward));
        out.layer("nn.sgd_step_ms", median(&phases.sgd_step));
        out.layer("core.predictor_ms", median(&predictor));
        out.traced_latencies_ms = traced;

        let (ex, ey) = st.eval.batch(0, s.eval);
        let mut drq = DrqNetwork::with_schedule(st.net.clone(), st.schedule.clone());
        let ((accuracy, _), eval_ms) =
            spans.scope("core.evaluate", None, ctx.seed, |_| drq.evaluate(&ex, &ey));
        out.check((0.0..=1.0).contains(&accuracy), || {
            format!("accuracy {accuracy}")
        });
        out.layer("core.eval_ms", eval_ms);
    }
    out
}

/// Per-convolution table: input shape, MAC split and sensitive share of the
/// DRQ forward, and the predictor's own time.
fn conv_table(stats: &DrqRunStats, predictor_ms: &[f64]) -> Vec<Json> {
    stats
        .layers
        .iter()
        .map(|l| {
            Json::obj([
                ("conv", Json::U64(l.conv_index as u64)),
                (
                    "input_shape",
                    Json::arr(l.input_shape.iter().map(|&d| Json::U64(d as u64))),
                ),
                ("int4_macs", Json::U64(l.counts.int4_macs)),
                ("int8_macs", Json::U64(l.counts.int8_macs)),
                ("sensitive_fraction", Json::F64(l.sensitive_fraction)),
                (
                    "predictor_ms",
                    Json::F64(predictor_ms.get(l.conv_index).copied().unwrap_or(0.0)),
                ),
            ])
        })
        .collect()
}
