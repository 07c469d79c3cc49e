//! `sim-resnet50`: whole-network simulations of ResNet-50 on the DRQ
//! accelerator at its Table III operating point.
//!
//! One operation is one `SimSession::run` (automatic partitioning) at a
//! seed no other operation uses, so no result can be reused. The traced
//! phase also runs each network single-shard and replays it layer by layer
//! through the public calls a session makes — feature-map synthesis, the
//! sensitivity predictor, and `DrqAccelerator::simulate_layer` — to split
//! host time between the `models`, `core` and `sim` layers.

use crate::spans::{SpanId, Spans};
use crate::stats::{fnv1a, median, ratio, FNV_OFFSET};
use crate::workload::{repeated_setup, timed_loop, Ctx, Outcome, Scale};
use drq::core::{DrqConfig, MaskMap, RegionSize, SensitivityPredictor};
use drq::models::zoo::{self, InputRes};
use drq::models::{FeatureMapSynthesizer, NetworkTopology};
use drq::sim::partition::stream_seed;
use drq::sim::{ArchConfig, DrqAccelerator, EnergyModel, NetworkSimReport, Partitions, SimSession};
use drq::telemetry::Json;
use drq::tensor::XorShiftRng;

/// Percentile reported as the tail latency: about 30 simulations per run
/// leave no percentile above the median with ten samples beyond it.
pub const TAIL_PCT: f64 = 50.0;

/// Offset that keeps warm-up seeds away from the measured seeds.
const WARMUP_SEED_BIT: u64 = 1 << 63;

fn network(scale: Scale) -> NetworkTopology {
    match scale {
        Scale::Full => zoo::resnet50(InputRes::Imagenet),
        Scale::Smoke => zoo::resnet18(InputRes::Cifar),
    }
}

/// ResNet-50's Table III operating point: 4x8 regions, threshold 19.
fn drq_config() -> DrqConfig {
    DrqConfig::new(RegionSize::new(4, 8), 19.0)
}

fn simulate(
    accel: &DrqAccelerator,
    net: &NetworkTopology,
    seed: u64,
    partitions: Partitions,
) -> NetworkSimReport {
    SimSession::new(accel, net)
        .seed(seed)
        .partitions(partitions)
        .run()
        .expect("a simulation without a fault plan cannot fail")
        .into_report()
}

pub fn run(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    let ((net, accel), setup_s) = repeated_setup(
        ctx,
        |seed| {
            let net = network(ctx.scale);
            let accel = ArchConfig::builder().drq(drq_config()).build();
            simulate(&accel, &net, seed | WARMUP_SEED_BIT, Partitions::Auto);
            (net, accel)
        },
        drop,
    );
    out.setup_s = setup_s;

    let mut first: Option<NetworkSimReport> = None;
    let (latencies, measured_s) = timed_loop(ctx.untraced_seconds(), |i| {
        let report = simulate(&accel, &net, ctx.seed + i as u64, Partitions::Auto);
        if i == 0 {
            first = Some(report);
        }
    });
    out.latencies_ms = latencies;
    out.measured_s = measured_s;
    out.attempted += out.latencies_ms.len() as u64;

    // Gate: partitioning never changes the report bytes.
    let first = first.expect("the loop runs at least once");
    let bytes = first.to_report().to_json_string();
    let single = simulate(&accel, &net, ctx.seed, Partitions::Single)
        .to_report()
        .to_json_string();
    out.check(single == bytes, || {
        format!(
            "seed {}: report differs between partitions 1 and auto",
            ctx.seed
        )
    });
    out.digest = fnv1a(FNV_OFFSET, bytes.as_bytes());

    if let Some(spans) = &ctx.spans {
        traced(ctx, spans, &net, &accel, &mut out);
        exact_counts(ctx, &net, &accel, &mut out);
    }
    out
}

/// Host time of one layer-by-layer replay, summed over the network.
#[derive(Default)]
struct Replay {
    synth_ms: f64,
    predictor_ms: f64,
    cycle_model_ms: f64,
    cycles: u64,
    table: Vec<Json>,
}

fn traced(
    ctx: &Ctx,
    spans: &Spans,
    net: &NetworkTopology,
    accel: &DrqAccelerator,
    out: &mut Outcome,
) {
    let first_seed = ctx.seed + out.latencies_ms.len() as u64;
    let (mut auto_ms, mut single_ms, mut overhead_ms, mut ns_per_cycle) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let (mut synth, mut predictor, mut cycle_model) = (Vec::new(), Vec::new(), Vec::new());
    let (ops, _) = timed_loop(ctx.traced_seconds(), |i| {
        let seed = first_seed + i as u64;
        spans.scope("bench.op", None, seed, |op| {
            let (auto, a_ms) = spans.scope("sim.session_run", Some(op), seed, |_| {
                simulate(accel, net, seed, Partitions::Auto)
            });
            let (single, s_ms) = spans.scope("sim.session_run_single", Some(op), seed, |_| {
                simulate(accel, net, seed, Partitions::Single)
            });
            let replay = replay(spans, op, net, accel, seed);
            out.check(replay.cycles == auto.total_cycles(), || {
                format!(
                    "seed {seed}: simulate_layer cycles sum to {} but the session reports {}",
                    replay.cycles,
                    auto.total_cycles()
                )
            });
            out.check(single == auto, || {
                format!("seed {seed}: partitions 1 and auto differ")
            });
            auto_ms.push(a_ms);
            single_ms.push(s_ms);
            ns_per_cycle.push(ratio(a_ms * 1e6, auto.total_cycles() as f64));
            overhead_ms.push(s_ms - replay.synth_ms - replay.predictor_ms - replay.cycle_model_ms);
            synth.push(replay.synth_ms);
            predictor.push(replay.predictor_ms);
            cycle_model.push(replay.cycle_model_ms);
            if out.table.is_empty() {
                out.table = replay.table;
            }
        });
    });
    out.attempted += ops.len() as u64;
    out.layer("models.synth_ms", median(&synth));
    out.layer("core.predictor_ms", median(&predictor));
    out.layer("sim.cycle_model_ms", median(&cycle_model));
    out.layer("sim.session_overhead_ms", median(&overhead_ms));
    out.layer(
        "sim.partition_speedup",
        ratio(median(&single_ms), median(&auto_ms)),
    );
    out.layer("sim.host_ns_per_sim_cycle", median(&ns_per_cycle));
    out.traced_latencies_ms = auto_ms;
}

/// Replays one network simulation through the public per-layer calls a
/// session makes, on the same per-layer RNG substreams.
fn replay(
    spans: &Spans,
    parent: SpanId,
    net: &NetworkTopology,
    accel: &DrqAccelerator,
    seed: u64,
) -> Replay {
    let synth = FeatureMapSynthesizer::default();
    let drq = accel.config().drq;
    let dram_pj_per_byte = EnergyModel::tsmc45().dram_pj_per_byte();
    let n_layers = net.layers.len().max(1);
    let mut r = Replay::default();
    for (i, spec) in net.layers.iter().enumerate() {
        let depth = i as f64 / n_layers as f64;
        let mut rng = XorShiftRng::new(stream_seed(seed, i as u64));
        let (x, synth_ms) =
            spans.scope("models.synthesize_layer_input", Some(parent), seed, |_| {
                synth
                    .for_depth(depth)
                    .synthesize_layer_input(spec, &mut rng)
            });
        let layer_cfg = drq.for_layer(spec.in_h, spec.in_w, depth);
        let (masks, predictor_ms) = spans.scope("core.predict", Some(parent), seed, |_| {
            SensitivityPredictor::new(layer_cfg.region, layer_cfg.threshold).predict(&x)
        });
        let frac = if masks.is_empty() {
            0.0
        } else {
            masks.iter().map(MaskMap::sensitive_fraction).sum::<f64>() / masks.len() as f64
        };
        let (report, cycle_ms) = spans.scope("sim.simulate_layer", Some(parent), seed, |_| {
            accel.simulate_layer(spec, &masks, frac)
        });
        r.synth_ms += synth_ms;
        r.predictor_ms += predictor_ms;
        r.cycle_model_ms += cycle_ms;
        r.cycles += report.cycles.total_cycles();
        r.table.push(Json::obj([
            ("layer", Json::str(&spec.name)),
            ("synth_ms", Json::F64(synth_ms)),
            ("predictor_ms", Json::F64(predictor_ms)),
            ("cycle_model_ms", Json::F64(cycle_ms)),
            ("cycles", Json::U64(report.cycles.total_cycles())),
            (
                "macs",
                Json::U64(report.cycles.int4_macs + report.cycles.int8_macs),
            ),
            (
                "dram_bytes",
                Json::F64(report.energy.dram_pj / dram_pj_per_byte),
            ),
        ]));
    }
    r
}

/// Simulated statistics at the run seed: they depend only on the seed and
/// the model, so a change that only speeds up the host must not move them.
fn exact_counts(ctx: &Ctx, net: &NetworkTopology, accel: &DrqAccelerator, out: &mut Outcome) {
    drq::telemetry::reset();
    drq::telemetry::enable();
    let report = simulate(accel, net, ctx.seed, Partitions::Auto);
    let dram_bytes = drq::telemetry::snapshot().counter("sim/bytes/dram");
    drq::telemetry::disable();
    drq::telemetry::reset();
    let totals = report.total_layer_cycles();
    let macs = (totals.int4_macs + totals.int8_macs) as f64;
    out.layer("sim.cycles", report.total_cycles() as f64);
    out.layer("sim.int4_mac_frac", report.int4_fraction());
    out.layer("sim.stall_frac", report.stall_ratio());
    out.layer("sim.dram_bytes_per_mac", ratio(dram_bytes as f64, macs));
}
