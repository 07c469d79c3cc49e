//! The CLI subcommands.

use crate::args::{ArgsError, ParsedArgs};
use drq::baselines::{evaluate_scheme, paper_lineup, QuantScheme};
use drq::core::{calibrate_thresholds, DrqConfig, RegionSize};
use drq::dse::{CandidateSpace, ParetoSearch, SearchStatus, SimSpaceEval};
use drq::core::segments::{render_ascii, segment_map};
use drq::models::zoo::{self, InputRes};
use drq::models::{
    default_standin, evaluate, train, Dataset, DatasetKind, NetworkTopology, TrainConfig,
};
use drq::models::TrainReport;
use drq::nn::{load_weights_durable, save_weights_durable, Network};
use drq::quant::SegmentSplit;
use drq::serve::client::{run_load, ClientConfig};
use drq::serve::server::{serve_stdio, TcpServer};
use drq::serve::soak::{replay_hint, run_soak, SoakConfig};
use drq::serve::{ServeConfig, ShardRouter};
use drq::sim::{ArchConfig, DrqAccelerator, smoke_fault_plan, FaultPlan, FaultSite, Partitions, SimSession};
use drq::store::ArtifactStore;
use drq::telemetry::{Json, Report, Tracer};
use std::error::Error;
use std::sync::Arc;

/// Runs the parsed command; returns its exit status.
pub fn run(args: &ParsedArgs) -> Result<(), Box<dyn Error>> {
    // Global option: worker-thread cap for all parallel kernels. Every
    // kernel is bit-deterministic in the thread count, so this only
    // changes wall-clock time, never results.
    let threads = args.get_usize("threads", 0)?;
    if threads > 0 {
        drq::tensor::parallel::set_max_threads(threads);
    }
    // Global options: structured observability. Recording is write-only —
    // enabling it never changes simulated cycles or trained weights.
    if args.get_opt("metrics").is_some() || args.get_opt("trace").is_some() {
        drq::telemetry::reset();
        drq::telemetry::enable();
    }
    match args.command.as_str() {
        "train" => cmd_train(args),
        "eval" => cmd_eval(args),
        "simulate" | "sim" => cmd_simulate(args),
        "serve" => cmd_serve(args),
        "client" => cmd_client(args),
        "soak" => cmd_soak(args),
        "faults" => cmd_faults(args),
        "sweep" => cmd_sweep(args),
        "pareto" => cmd_pareto(args),
        "store" => cmd_store(args),
        "calibrate" => cmd_calibrate(args),
        "visualize" => cmd_visualize(args),
        "export" => cmd_export(args),
        "help" | "--help" | "-h" => {
            print!("{}", usage());
            Ok(())
        }
        other => Err(format!("unknown subcommand {other:?}\n\n{}", usage()).into()),
    }
}

/// Writes the `--metrics` and `--trace` outputs a command produced.
///
/// `report` is the command's primary [`Report`]; commands without a natural
/// one fall back to a `"session"` report. Either way the global metrics
/// registry snapshot rides along under a `"metrics"` key so counters from
/// every subsystem (sim, train, dse) land in the same file.
///
/// Both files are committed atomically (temp file + fsync + rename), so a
/// crash mid-export leaves any previous report intact instead of a torn
/// file; the committed bytes are exactly the payload, unchanged from when
/// these were bare `std::fs::write` calls.
fn write_observability(
    args: &ParsedArgs,
    report: Option<Report>,
    trace_jsonl: Option<String>,
) -> Result<(), Box<dyn Error>> {
    let store = ArtifactStore::fs();
    if let Some(path) = args.get_opt("metrics") {
        let mut report = report.unwrap_or_else(|| {
            let mut r = Report::new("session");
            r.push("command", args.command.as_str());
            r
        });
        let registry = drq::telemetry::snapshot();
        if !registry.is_empty() {
            report.push("metrics", registry.to_json());
        }
        let mut line = report.to_json_string();
        line.push('\n');
        store.commit_atomic(path, line.as_bytes())?;
        println!("metrics written to {path}");
    }
    if let Some(path) = args.get_opt("trace") {
        store.commit_atomic(path, trace_jsonl.unwrap_or_default().as_bytes())?;
        println!("trace written to {path}");
    }
    Ok(())
}

/// The full usage text.
pub fn usage() -> String {
    "\
drq — dynamic region-based quantization toolkit

USAGE: drq <command> [--key value ...]

GLOBAL OPTIONS (valid with every command)
  --threads N   cap the worker threads used by the parallel compute
                kernels (default: DRQ_THREADS env var, else all cores).
                Results are bit-identical for any value.
  --metrics F   write a schema-versioned metrics JSON report to F
                (kind depends on the command: network_sim, train, ...).
                Recording never changes results.
  --trace F     write a JSON-lines event trace with cycle timestamps
                to F (simulate emits per-layer and per-block events).

COMMANDS
  train      train a stand-in network on a synthetic dataset
               --dataset digits|shapes|textures (digits)
               --samples N (300)  --epochs N (6)  --seed N (1)
               --out weights.bin (optional: save trained weights)
  eval       evaluate a quantization scheme on a trained stand-in
               --dataset ... --samples N --epochs N --seed N
               --weights FILE (skip training, load instead)
               --scheme fp32|eyeriss|bitfusion|olaccel|drq|drq-calibrated (drq)
               --threshold T (25)  --region HxW (4x4)
               --target F (0.1, drq-calibrated only)
  simulate   cycle/energy simulation of a paper topology (alias: sim)
               --network alexnet|vgg16|resnet18|resnet50|inception|mobilenet|lenet5 (resnet18)
               --res imagenet|cifar (imagenet)
               --accel all|drq|eyeriss|bitfusion|olaccel (all)
               --threshold T  --region HxW  --seed N (42)
               --partitions auto|single|N (auto) — at most N workers
                 pull layers from a per-layer queue (single = one worker,
                 layers in order); reports and traces are byte-identical
                 at every value
               --fault-plan F (JSON fault plan; a non-empty plan makes
                 --metrics emit a kind:\"reliability\" report, an empty
                 plan is byte-identical to omitting the flag)
  faults     deterministic fault-injection run (reliability report)
               --plan F (JSON fault plan; default: built-in smoke plan)
               --network ... --res ... (lenet5, imagenet)
               --threshold T  --region HxW  --seed N (42)
  sweep      threshold sweep on a topology (Fig. 14 style)
               --network ... --res ... --region HxW
  pareto     resumable Pareto-frontier design-space search (accuracy /
             latency-cycles / energy-pJ) over geometry × region ×
             threshold × buffer candidates
               --network ... --res ... (lenet5, imagenet)
               --seed N (42) — drives the evaluator and the (result-
                 invariant) exploration order
               --batch N (16) — candidates evaluated per parallel leaf
               --budget N (0 = run to convergence) — max evaluations
                 this invocation; a paused search checkpoints and
                 resumes to byte-identical convergence
               --partitions auto|single|N (auto) — worker cap of each
                 candidate's per-layer simulation queue
               --out F (pareto_front.json) — kind:\"pareto\" artifact,
                 committed through the crash-safe store (atomic rename,
                 CRC-framed generations, last good copy kept at F.prev)
               --checkpoint-every N (0 = only at the end) — commit a
                 checkpoint generation every N evaluations, so a killed
                 run resumes from the latest durable generation
               --resume F — continue from a checkpoint artifact
                 (space/seed/batch/network travel inside it; other
                 flags except --budget/--out/--partitions are ignored);
                 falls back to F.prev when F is corrupt, truncated or
                 unframed
  calibrate  per-layer integer thresholds for a trained stand-in
               --dataset ... --target F (0.1) --region HxW (4x4)
  visualize  ASCII segment map of a synthetic sample (Fig. 3 style)
               --dataset digits|shapes|textures (digits) --seed N (1)
  export     write PGM/PPM images: a dataset sample and its sensitivity
             mask overlay
               --dataset ... --seed N --threshold T (20) --region HxW (4x4)
               --out PREFIX (drq_export)
  serve      long-running batch-inference server (line-delimited JSON)
               --port N (7411; 0 picks a free port)
               --stdin true (serve stdin/stdout instead of TCP)
               --workers N (2) — shard engines behind a rendezvous-hash
                 router; replies are byte-identical at every worker count
               --capacity N (64, per worker)  --max-batch N (8)
               --coalesce N (4) — continuous batching: compatible queued
                 requests run as one mixed-conv call per layer
                 (1 disables; replies stay byte-identical at any width)
               --deadline-cycles N (default budget per request)
               --threshold T (20)  --region HxW (4x4)  --seed N (42)
               prints \"listening on HOST:PORT\" once ready; a client
               {\"kind\":\"shutdown\"} line drains in-flight work and exits
  client     seeded load driver for a running serve instance
               --addr HOST:PORT (127.0.0.1:7411)
               --clients N (4)  --requests N (16, per client)  --seed N (42)
               --poison N  --malformed N  --oversized N  --expired N
                 (per-client counts of adversarial requests)
               --shutdown true (send a shutdown command when done)
               --drain-ms N (2000)
  soak       seeded crash-recovery soak of the multi-worker server
               --workers N (1)  --requests N (64)  --seed N (42)
               --kills N (0; workers killed and restarted mid-stream)
               --coalesce N (1)  --max-batch N (4)
               --model-seed N (42)  --drain-ms N (10000)
               --canonical F (write the sorted response transcript to F;
                 a pure function of --seed/--requests/--max-batch/
                 --model-seed — byte-identical across workers/kills, so
                 CI can cmp two runs)
               exits nonzero with a replay hint if any request is
               dropped, duplicated, or errored
  store      inspect crash-safe store artifacts (exactly one mode)
               --cat F     write the latest good payload bytes to stdout
                 (byte-identical across runs even though the frame's
                 generation header differs — CI compares payloads)
               --verify F  validate the frame CRC and print the
                 generation; exits nonzero when no generation is readable
               --info F    one-line JSON: generation, payload_bytes,
                 salvaged
               all modes fall back to F.prev when F is corrupt or
               unframed; with no readable generation they exit 1
  help       this text
"
    .to_string()
}

fn dataset_kind(name: &str) -> Result<DatasetKind, ArgsError> {
    match name {
        "digits" => Ok(DatasetKind::Digits),
        "shapes" => Ok(DatasetKind::Shapes),
        "textures" => Ok(DatasetKind::Textures),
        other => Err(ArgsError::BadValue {
            key: "dataset".into(),
            value: other.into(),
            expected: "digits|shapes|textures",
        }),
    }
}

fn topology(name: &str, res: InputRes) -> Result<NetworkTopology, ArgsError> {
    Ok(match name {
        "alexnet" => zoo::alexnet(res),
        "vgg16" => zoo::vgg16(res),
        "resnet18" => zoo::resnet18(res),
        "resnet50" => zoo::resnet50(res),
        "inception" | "inception-v3" => zoo::inception_v3(res),
        "mobilenet" | "mobilenet-v2" => zoo::mobilenet_v2(res),
        "lenet5" => zoo::lenet5(),
        "resnet32" => zoo::resnet32_cifar(),
        other => {
            return Err(ArgsError::BadValue {
                key: "network".into(),
                value: other.into(),
                expected: "alexnet|vgg16|resnet18|resnet50|inception|mobilenet|lenet5|resnet32",
            })
        }
    })
}

fn input_res(name: &str) -> Result<InputRes, ArgsError> {
    match name {
        "imagenet" | "ilsvrc" => Ok(InputRes::Imagenet),
        "cifar" => Ok(InputRes::Cifar),
        other => Err(ArgsError::BadValue {
            key: "res".into(),
            value: other.into(),
            expected: "imagenet|cifar",
        }),
    }
}

/// Trains (or loads) a stand-in per the shared training options. The
/// [`TrainReport`] is `None` when weights were loaded instead of trained.
fn obtain_network(
    args: &ParsedArgs,
) -> Result<(Network, Dataset, Dataset, Option<TrainReport>), Box<dyn Error>> {
    let kind = dataset_kind(&args.get_str("dataset", "digits"))?;
    let samples = args.get_positive("samples", 300)?;
    let epochs = args.get_usize("epochs", 6)?;
    let seed = args.get_usize("seed", 1)? as u64;
    let train_set = Dataset::generate(kind, samples, seed);
    let eval_set = Dataset::generate(kind, (samples / 5).max(10), seed + 1);
    let mut net = default_standin(kind, seed + 2);
    let mut train_report = None;
    if let Some(path) = args.get_opt("weights") {
        // Durable load: falls back to `<path>.prev` when the primary is
        // corrupt or unframed.
        let info = load_weights_durable(&mut net, &ArtifactStore::fs(), path)?;
        if let Some(why) = &info.salvaged {
            eprintln!(
                "warning: weight checkpoint {path} was corrupt ({why}); \
                 loaded previous generation {}",
                info.generation
            );
        }
        println!("loaded weights from {path}");
    } else {
        let cfg = TrainConfig { epochs, ..TrainConfig::default() };
        let report = train(&mut net, &train_set, &eval_set, &cfg);
        println!(
            "trained {} epochs; FP32 accuracy {:.1}%",
            epochs,
            report.eval_accuracy * 100.0
        );
        train_report = Some(report);
    }
    Ok((net, train_set, eval_set, train_report))
}

fn cmd_train(args: &ParsedArgs) -> Result<(), Box<dyn Error>> {
    args.restrict(&["dataset", "samples", "epochs", "seed", "out", "threads", "metrics", "trace"])?;
    let (mut net, _train_set, eval_set, train_report) = obtain_network(args)?;
    let acc = evaluate(&mut net, &eval_set, 20);
    println!("final evaluation accuracy: {:.1}%", acc * 100.0);
    if let Some(path) = args.get_opt("out") {
        // Committed through the store: a failed save can no longer leave a
        // zero-length file behind — the previous checkpoint stays intact.
        let generation = save_weights_durable(&mut net, &ArtifactStore::fs(), path)?;
        println!("weights saved to {path} (generation {generation})");
    }
    write_observability(args, train_report.as_ref().map(TrainReport::to_report), None)
}

fn cmd_eval(args: &ParsedArgs) -> Result<(), Box<dyn Error>> {
    args.restrict(&[
        "dataset", "samples", "epochs", "seed", "weights", "scheme", "threshold", "region",
        "target", "threads", "metrics", "trace",
    ])?;
    let (rx, ry) = args.get_region("region", (4, 4))?;
    let threshold = args.get_threshold("threshold", 25.0)?;
    let target = args.get_fraction("target", 0.1)?;
    let (mut net, train_set, eval_set, _) = obtain_network(args)?;
    let scheme = match args.get_str("scheme", "drq").as_str() {
        "fp32" => QuantScheme::Fp32,
        "eyeriss" => QuantScheme::Eyeriss,
        "bitfusion" => QuantScheme::BitFusion,
        "olaccel" => QuantScheme::OlAccel,
        "drq" => QuantScheme::Drq(DrqConfig::new(RegionSize::new(rx, ry), threshold)),
        "drq-calibrated" => {
            let (x, _) = train_set.batch(0, train_set.len().min(32));
            let schedule = calibrate_thresholds(&mut net, &x, RegionSize::new(rx, ry), target);
            println!(
                "calibrated per-layer thresholds (avg {:.1})",
                schedule.average()
            );
            QuantScheme::DrqCalibrated(schedule)
        }
        other => {
            return Err(format!("unknown scheme {other:?}").into());
        }
    };
    let r = evaluate_scheme(&mut net, &scheme, &eval_set, 20);
    println!(
        "{}: accuracy {:.1}%, 4-bit MACs {:.1}%",
        scheme.name(),
        r.accuracy * 100.0,
        r.int4_fraction * 100.0
    );
    let mut report = Report::new("scheme_eval");
    report
        .push("scheme", scheme.name())
        .push("accuracy", r.accuracy)
        .push("int4_fraction", r.int4_fraction);
    write_observability(args, Some(report), None)
}

/// Reads and validates a fault plan from a `--fault-plan`/`--plan` path.
fn load_fault_plan(path: &str) -> Result<FaultPlan, Box<dyn Error>> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("reading fault plan {path}: {e}"))?;
    Ok(FaultPlan::parse(&text).map_err(|e| format!("fault plan {path}: {e}"))?)
}

fn cmd_simulate(args: &ParsedArgs) -> Result<(), Box<dyn Error>> {
    args.restrict(&[
        "network", "res", "accel", "threshold", "region", "seed", "threads", "metrics", "trace",
        "fault-plan", "partitions",
    ])?;
    let res = input_res(&args.get_str("res", "imagenet"))?;
    let net = topology(&args.get_str("network", "resnet18"), res)?;
    let seed = args.get_usize("seed", 42)? as u64;
    let (rx, ry) = args.get_region("region", (4, 16))?;
    let threshold = args.get_threshold("threshold", 21.0)?;
    let partitions = Partitions::parse(&args.get_str("partitions", "auto"))?;
    let which = args.get_str("accel", "all");
    // Parse (and reject) the fault plan before simulating anything, so a
    // typo'd plan fails fast instead of after the whole lineup has run.
    let fault_plan = match args.get_opt("fault-plan") {
        Some(path) => Some(load_fault_plan(path)?),
        None => None,
    };
    println!(
        "{} ({:.2} GMACs/image), DRQ config: region {rx}x{ry}, threshold {threshold}\n",
        net.name,
        net.total_macs() as f64 / 1e9
    );
    let drq_cfg = ArchConfig::builder()
        .drq(DrqConfig::new(RegionSize::new(rx, ry), threshold))
        .config();
    for accel in paper_lineup() {
        let name = accel.name().to_lowercase();
        if which != "all" && which != name {
            continue;
        }
        let report = if name == "drq" {
            use drq::baselines::Accelerator;
            DrqAccelerator::new(drq_cfg).simulate(&net, seed)
        } else {
            accel.simulate(&net, seed)
        };
        println!(
            "{:>10}: {:>12} cycles  {:>8.2} ms @500MHz  {:>8.1} uJ",
            report.accelerator,
            report.total_cycles,
            report.ms_at(500.0),
            report.energy.total_pj() / 1e6
        );
    }
    // One SimSession covers every structured-output combination: a
    // non-empty --fault-plan arms injection (switching the report to the
    // reliability schema), --trace attaches a tracer, and both ride the
    // same partitioned baseline run — no more separate re-simulations per
    // output kind.
    let plan = fault_plan.filter(|p| !p.is_empty());
    let want_output = plan.is_some()
        || args.get_opt("metrics").is_some()
        || args.get_opt("trace").is_some();
    if want_output {
        let accel = DrqAccelerator::new(drq_cfg);
        let mut tracer = args.get_opt("trace").map(|_| Tracer::new());
        let mut session = SimSession::new(&accel, &net).seed(seed).partitions(partitions);
        if let Some(t) = tracer.as_mut() {
            session = session.trace(t);
        }
        if let Some(plan) = plan {
            session = session.faults(plan);
        }
        let run = session.run()?;
        if let Some(rel) = run.reliability() {
            println!(
                "\nfault injection (seed {}): {} events, {} stall cycles, slowdown {:.6}x, extra DRAM {:.1} pJ",
                rel.plan.seed,
                rel.counters.total(),
                rel.counters.count(FaultSite::StallCycle),
                rel.slowdown(),
                rel.extra_dram_pj
            );
        }
        write_observability(args, Some(run.to_report()), tracer.as_ref().map(Tracer::to_jsonl))?;
    }
    Ok(())
}

fn cmd_serve(args: &ParsedArgs) -> Result<(), Box<dyn Error>> {
    args.restrict(&[
        "port", "stdin", "workers", "capacity", "max-batch", "coalesce", "deadline-cycles",
        "threshold", "region", "seed", "threads", "metrics", "trace",
    ])?;
    let (rh, rw) = args.get_region("region", (4, 4))?;
    let threshold = args.get_threshold("threshold", 20.0)?;
    let config = ServeConfig {
        workers: args.get_usize("workers", 2)?.max(1),
        capacity: args.get_usize("capacity", 64)?,
        max_batch: args.get_usize("max-batch", 8)?,
        coalesce: args.get_usize("coalesce", 4)?.max(1),
        default_deadline_cycles: args.get_usize("deadline-cycles", 1 << 40)? as u64,
        drq: DrqConfig::new(RegionSize::new(rh, rw), threshold),
        model_seed: args.get_usize("seed", 42)? as u64,
        ..ServeConfig::default()
    };
    // --workers N scales out as N sharded engines behind a router (one
    // worker thread each, shared plan cache); responses are byte-identical
    // at every worker count and coalesce width.
    let router = ShardRouter::start(config);
    let report = if args.get_bool("stdin", false)? {
        serve_stdio(Arc::clone(&router))
    } else {
        let port = args.get_usize("port", 7411)?;
        let server = TcpServer::bind(Arc::clone(&router), &format!("127.0.0.1:{port}"))?;
        let addr = server.local_addr()?;
        // The load driver (and ci.sh) scrapes this exact line for the
        // resolved port, so print and flush it before accepting.
        println!("listening on {addr}");
        std::io::Write::flush(&mut std::io::stdout())?;
        server.run()
    };
    println!(
        "drained: served {} cancelled {} worker_restarts {}",
        report.served, report.cancelled, report.worker_restarts
    );
    write_observability(args, Some(router.report()), Some(router.trace_jsonl()))?;
    Ok(())
}

fn cmd_soak(args: &ParsedArgs) -> Result<(), Box<dyn Error>> {
    args.restrict(&[
        "workers", "requests", "seed", "kills", "coalesce", "max-batch", "model-seed",
        "drain-ms", "canonical", "threads", "metrics", "trace",
    ])?;
    let cfg = SoakConfig {
        workers: args.get_usize("workers", 1)?.max(1),
        requests: args.get_usize("requests", 64)?,
        seed: args.get_usize("seed", 42)? as u64,
        kills: args.get_usize("kills", 0)?,
        coalesce: args.get_usize("coalesce", 1)?.max(1),
        max_batch: args.get_usize("max-batch", 4)?.max(1),
        model_seed: args.get_usize("model-seed", 42)? as u64,
        drain_ms: args.get_usize("drain-ms", 10_000)? as u64,
    };
    let outcome = run_soak(&cfg);
    if let Some(path) = args.get_opt("canonical") {
        // Atomic, unframed: the transcript is a byte-identity artifact
        // (ci.sh cmps two runs), so the payload must hit disk unmodified.
        ArtifactStore::fs().commit_atomic(path, outcome.canonical.as_bytes())?;
        println!("canonical transcript written to {path}");
    }
    println!(
        "soak: {} requests -> {} responses ({} ok, {} duplicates, {} missing); {} kills, {} rerouted",
        outcome.requests,
        outcome.responses,
        outcome.ok,
        outcome.duplicates,
        outcome.missing,
        outcome.kills,
        outcome.rerouted,
    );
    println!(
        "      {:.1} req/s over {} ms; coalesce rate {:.3} ({} coalesced across {} groups); plan hit rate {:.3}",
        outcome.throughput_rps,
        outcome.elapsed_ms,
        outcome.coalesce_rate,
        outcome.batch_coalesced,
        outcome.batch_groups,
        outcome.plan.hit_rate(),
    );
    let mut report = Report::new("soak");
    report.push("workers", cfg.workers);
    report.push("requests", cfg.requests);
    report.push("seed", cfg.seed);
    report.push("kills", outcome.kills);
    report.push("coalesce", cfg.coalesce);
    report.push("responses", outcome.responses);
    report.push("ok", outcome.ok);
    report.push("duplicates", outcome.duplicates);
    report.push("missing", outcome.missing);
    report.push("rerouted", outcome.rerouted);
    report.push("batch_groups", outcome.batch_groups);
    report.push("batch_coalesced", outcome.batch_coalesced);
    report.push("coalesce_rate", outcome.coalesce_rate);
    report.push("throughput_rps", outcome.throughput_rps);
    report.push("elapsed_ms", outcome.elapsed_ms);
    report.push("plan_model_hits", outcome.plan.model_hits);
    report.push("plan_model_misses", outcome.plan.model_misses);
    report.push("plan_mask_hits", outcome.plan.mask_hits);
    report.push("plan_mask_misses", outcome.plan.mask_misses);
    report.push("plan_hit_rate", outcome.plan.hit_rate());
    write_observability(args, Some(report), None)?;
    if !outcome.clean() {
        return Err(format!(
            "soak contract violated: {} responses for {} requests ({} ok, {} duplicates, {} missing)\n{}",
            outcome.responses,
            outcome.requests,
            outcome.ok,
            outcome.duplicates,
            outcome.missing,
            replay_hint(&cfg),
        )
        .into());
    }
    Ok(())
}

fn cmd_client(args: &ParsedArgs) -> Result<(), Box<dyn Error>> {
    args.restrict(&[
        "addr", "clients", "requests", "seed", "poison", "malformed", "oversized", "expired",
        "deadline-cycles", "shutdown", "drain-ms", "threads", "metrics", "trace",
    ])?;
    let config = ClientConfig {
        addr: args.get_str("addr", "127.0.0.1:7411"),
        clients: args.get_usize("clients", 4)?.max(1),
        requests: args.get_usize("requests", 16)?,
        seed: args.get_usize("seed", 42)? as u64,
        poison: args.get_usize("poison", 0)?,
        malformed: args.get_usize("malformed", 0)?,
        oversized: args.get_usize("oversized", 0)?,
        expired: args.get_usize("expired", 0)?,
        deadline_cycles: args.get_usize("deadline-cycles", 1 << 40)? as u64,
        shutdown: args.get_bool("shutdown", false)?,
        drain_ms: args.get_usize("drain-ms", 2_000)? as u64,
    };
    let summary = run_load(&config)?;
    println!(
        "sent {} received {} ok {} (degraded {}) rejected {} errors {} lost {} duplicated {}",
        summary.sent,
        summary.received,
        summary.ok,
        summary.degraded_ok,
        summary.rejected,
        summary.error_total(),
        summary.lost,
        summary.duplicated,
    );
    let mut report = Report::new("serve_client");
    report.push("sent", summary.sent);
    report.push("received", summary.received);
    report.push("ok", summary.ok);
    report.push("degraded_ok", summary.degraded_ok);
    report.push("rejected", summary.rejected);
    report.push(
        "errors",
        Json::Object(
            summary
                .errors
                .iter()
                .map(|(k, v)| (k.clone(), Json::U64(*v)))
                .collect(),
        ),
    );
    report.push("lost", summary.lost);
    report.push("duplicated", summary.duplicated);
    write_observability(args, Some(report), None)?;
    if summary.lost > 0 || summary.duplicated > 0 {
        return Err(format!(
            "response accounting violated: {} lost, {} duplicated",
            summary.lost, summary.duplicated
        )
        .into());
    }
    Ok(())
}

fn cmd_faults(args: &ParsedArgs) -> Result<(), Box<dyn Error>> {
    args.restrict(&[
        "plan", "network", "res", "threshold", "region", "seed", "threads", "metrics", "trace",
    ])?;
    let res = input_res(&args.get_str("res", "imagenet"))?;
    let net = topology(&args.get_str("network", "lenet5"), res)?;
    let seed = args.get_usize("seed", 42)? as u64;
    let (rx, ry) = args.get_region("region", (4, 16))?;
    let threshold = args.get_threshold("threshold", 21.0)?;
    let plan = match args.get_opt("plan") {
        Some(path) => load_fault_plan(path)?,
        None => smoke_fault_plan(),
    };
    let accel = ArchConfig::builder()
        .drq(DrqConfig::new(RegionSize::new(rx, ry), threshold))
        .build();
    let rel = accel
        .session(&net)
        .seed(seed)
        .faults(plan)
        .run()?
        .into_reliability()
        .expect("armed fault plan yields a reliability view");
    println!(
        "fault-injected {} (fault seed {}, {} rules)",
        net.name,
        rel.plan.seed,
        rel.plan.rules.len()
    );
    for site in FaultSite::ALL {
        println!("{:>24}: {:>8} events", site.name(), rel.counters.count(site));
    }
    println!(
        "{:>24}: {:>8}\n{:>24}: {:>12} -> {} ({:.6}x)\n{:>24}: {:>8.1} pJ",
        "total",
        rel.counters.total(),
        "cycles",
        rel.baseline_cycles,
        rel.degraded_cycles,
        rel.slowdown(),
        "extra DRAM",
        rel.extra_dram_pj
    );
    write_observability(args, Some(rel.to_report()), None)
}

fn cmd_sweep(args: &ParsedArgs) -> Result<(), Box<dyn Error>> {
    args.restrict(&["network", "res", "region", "seed", "threads", "metrics", "trace"])?;
    let res = input_res(&args.get_str("res", "imagenet"))?;
    let net = topology(&args.get_str("network", "resnet18"), res)?;
    let (rx, ry) = args.get_region("region", (4, 16))?;
    let seed = args.get_usize("seed", 42)? as u64;
    println!("threshold sweep on {} (region {rx}x{ry})\n", net.name);
    println!("{:>9}  {:>8}  {:>11}  {:>12}", "threshold", "INT4 %", "stall %", "cycles");
    // The legacy grid is a degenerate candidate space routed through the
    // same shared-session evaluator as `drq pareto`: every threshold
    // reuses its session and memo. Candidates are
    // independent simulations: evaluate them concurrently, print in order.
    let thresholds = [0.5f32, 1.0, 2.0, 5.0, 10.0, 21.0, 40.0, 80.0, 127.0];
    let space = CandidateSpace::sweep_grid(RegionSize::new(rx, ry), &thresholds)?;
    let eval = SimSpaceEval::new(&net, Partitions::Auto, seed);
    let reports = drq::tensor::parallel::par_map(space.len(), |i| {
        eval.simulate(&space.candidate(i))
    });
    for (t, report) in thresholds.iter().zip(&reports) {
        println!(
            "{t:>9}  {:>7.1}%  {:>10.2}%  {:>12}",
            report.int4_fraction() * 100.0,
            report.stall_ratio() * 100.0,
            report.total_cycles()
        );
    }
    let mut sweep = Report::new("sim_sweep");
    sweep
        .push("network", net.name.as_str())
        .push("axis", "threshold")
        .push("region", format!("{rx}x{ry}"))
        .push("seed", seed)
        .push(
            "points",
            Json::Array(
                thresholds
                    .iter()
                    .zip(&reports)
                    .map(|(&t, r)| {
                        Json::obj([
                            ("threshold", Json::from(t)),
                            ("total_cycles", Json::from(r.total_cycles())),
                            ("stall_ratio", Json::from(r.stall_ratio())),
                            ("int4_fraction", Json::from(r.int4_fraction())),
                        ])
                    })
                    .collect(),
            ),
        );
    write_observability(args, Some(sweep), None)
}

fn cmd_pareto(args: &ParsedArgs) -> Result<(), Box<dyn Error>> {
    args.restrict(&[
        "network", "res", "seed", "batch", "budget", "checkpoint-every", "partitions", "out",
        "resume", "threads", "metrics", "trace",
    ])?;
    let partitions_spec = args.get_str("partitions", "auto");
    let partitions = Partitions::parse(&partitions_spec)?;
    let budget = match args.get_usize("budget", 0)? {
        0 => None,
        n => Some(n as u64),
    };
    let every = args.get_usize("checkpoint-every", 0)? as u64;
    let out = args.get_str("out", "pareto_front.json");
    let store = ArtifactStore::fs();

    // A resumed search carries its own space, seed, batch, and evaluator
    // description — only --budget/--out/--partitions/--threads apply.
    let mut search = match args.get_opt("resume") {
        Some(path) => {
            let resumed = ParetoSearch::resume_from(&store, path)?;
            if let Some(why) = &resumed.salvaged {
                eprintln!(
                    "warning: fell back to previous checkpoint generation {}: {why}",
                    resumed.generation
                );
            }
            resumed.search
        }
        None => {
            let res_name = args.get_str("res", "imagenet");
            let net_name = args.get_str("network", "lenet5");
            let seed = args.get_usize("seed", 42)? as u64;
            let batch = args.get_usize("batch", 16)?.max(1);
            let meta = Json::obj([
                ("network", Json::str(&net_name)),
                ("res", Json::str(&res_name)),
            ]);
            ParetoSearch::new(CandidateSpace::paper_grid(), seed, batch).meta(meta)
        }
    };
    let meta = search.evaluator_meta().clone();
    let meta_str = |k: &str| {
        meta.get(k)
            .and_then(Json::as_str)
            .map(str::to_string)
            .ok_or_else(|| format!("artifact evaluator is missing {k:?}"))
    };
    let res = input_res(&meta_str("res")?)?;
    let net = topology(&meta_str("network")?, res)?;
    let eval = SimSpaceEval::new(&net, partitions, search.seed());

    println!(
        "pareto search on {} — {} candidates (seed {}, batch {}{})",
        net.name,
        search.space().len(),
        search.seed(),
        search.batch(),
        budget.map_or(String::new(), |b| format!(", budget {b}")),
    );
    // Every checkpoint goes through the crash-safe store: the previous
    // good generation survives at `<out>.prev` until the new one is fully
    // on disk, so a SIGKILL at any instant leaves a resumable artifact.
    let status = if every == 0 {
        let status = search.run(&eval, budget)?;
        search.checkpoint_to(&store, &out)?;
        status
    } else {
        let mut spent = 0u64;
        loop {
            let chunk = match budget {
                Some(b) => {
                    let remaining = b.saturating_sub(spent);
                    if remaining == 0 {
                        break SearchStatus::Paused;
                    }
                    remaining.min(every)
                }
                None => every,
            };
            let before = search.evaluated();
            let status = search.run(&eval, Some(chunk))?;
            spent += search.evaluated() - before;
            let generation = search.checkpoint_to(&store, &out)?;
            println!(
                "checkpoint generation {generation} → {out} ({} evaluated)",
                search.evaluated()
            );
            if status == SearchStatus::Complete {
                break SearchStatus::Complete;
            }
        }
    };
    let report = search.to_report();

    println!(
        "\n{} evaluated, {} pruned ({} dominated + {} region-cut), front size {}",
        search.evaluated(),
        search.dominated_pruned() + search.region_pruned(),
        search.dominated_pruned(),
        search.region_pruned(),
        search.front().len(),
    );
    println!(
        "{:>6}  {:>9}  {:>6}  {:>9}  {:>10}  {:>8}  {:>12}  {:>14}",
        "index", "geometry", "region", "threshold", "buffer", "accuracy", "cycles", "energy pJ"
    );
    for m in search.front().members() {
        let c = search.space().candidate(m.candidate_index as usize);
        println!(
            "{:>6}  {:>9}  {:>6}  {:>9}  {:>10}  {:>8.4}  {:>12}  {:>14.1}",
            c.index,
            c.geometry.to_string(),
            c.region.to_string(),
            c.threshold,
            c.buffer_bytes,
            m.objectives.accuracy,
            m.objectives.latency_cycles,
            m.objectives.energy_pj,
        );
    }
    match status {
        SearchStatus::Complete => println!("\nconverged; front artifact written to {out}"),
        SearchStatus::Paused => println!(
            "\nbudget exhausted with boxes pending; checkpoint written to {out} — \
             continue with `drq pareto --resume {out}`"
        ),
    }
    write_observability(args, Some(report), None)
}

fn cmd_store(args: &ParsedArgs) -> Result<(), Box<dyn Error>> {
    args.restrict(&["cat", "verify", "info", "threads", "metrics", "trace"])?;
    let cat = args.get_opt("cat");
    let verify = args.get_opt("verify");
    let info = args.get_opt("info");
    let given = [&cat, &verify, &info].iter().filter(|o| o.is_some()).count();
    if given != 1 {
        return Err("store needs exactly one of --cat FILE, --verify FILE, --info FILE".into());
    }
    let store = ArtifactStore::fs();
    let path = cat.or(verify).or(info).expect("one mode is set");
    let outcome = store.load(path)?;
    if let Some(why) = &outcome.salvaged {
        eprintln!(
            "warning: fell back to previous checkpoint generation {}: {why}",
            outcome.generation
        );
    }
    if cat.is_some() {
        // Raw payload bytes only — byte-identical to what was committed,
        // so CI can `cmp` payloads across runs whose generations differ.
        use std::io::Write;
        std::io::stdout().write_all(&outcome.payload)?;
    } else if verify.is_some() {
        println!(
            "{path}: generation {} OK — {} payload bytes",
            outcome.generation,
            outcome.payload.len(),
        );
    } else {
        let obj = Json::obj([
            ("path", Json::str(path)),
            ("generation", Json::from(outcome.generation)),
            ("payload_bytes", Json::from(outcome.payload.len())),
            (
                "salvaged",
                outcome.salvaged.as_deref().map_or(Json::Null, Json::str),
            ),
        ]);
        println!("{obj}");
    }
    Ok(())
}

fn cmd_calibrate(args: &ParsedArgs) -> Result<(), Box<dyn Error>> {
    args.restrict(&[
        "dataset", "samples", "epochs", "seed", "weights", "target", "region", "threads",
        "metrics", "trace",
    ])?;
    let target = args.get_fraction("target", 0.1)?;
    let (rx, ry) = args.get_region("region", (4, 4))?;
    let (mut net, train_set, _eval, _) = obtain_network(args)?;
    let (x, _) = train_set.batch(0, train_set.len().min(32));
    let schedule = calibrate_thresholds(&mut net, &x, RegionSize::new(rx, ry), target);
    println!("per-layer thresholds targeting {:.0}% sensitive regions:", target * 100.0);
    for (i, t) in schedule.thresholds().iter().enumerate() {
        println!("  conv {i}: {t:.0}");
    }
    println!("average (the Table III quantity): {:.1}", schedule.average());
    // Run the calibrated schedule end to end.
    let mut drq = drq::core::DrqNetwork::with_schedule(net, schedule);
    let data = Dataset::generate(dataset_kind(&args.get_str("dataset", "digits"))?, 40, 909);
    let (ex, ey) = data.batch(0, 40);
    let (acc, stats) = drq.evaluate(&ex, &ey);
    println!(
        "with the calibrated schedule: accuracy {:.1}%, INT4 MACs {:.1}%",
        acc * 100.0,
        stats.int4_fraction() * 100.0
    );
    write_observability(args, None, None)
}

fn cmd_export(args: &ParsedArgs) -> Result<(), Box<dyn Error>> {
    use drq::core::SensitivityPredictor;
    use drq::models::export::{channel_to_pgm, image_to_ppm, mask_overlay_to_ppm};
    args.restrict(&["dataset", "seed", "threshold", "region", "out", "threads", "metrics", "trace"])?;
    let kind = dataset_kind(&args.get_str("dataset", "digits"))?;
    let seed = args.get_usize("seed", 1)? as u64;
    let threshold = args.get_threshold("threshold", 20.0)?;
    let (rx, ry) = args.get_region("region", (4, 4))?;
    let prefix = args.get_str("out", "drq_export");
    let data = Dataset::generate(kind, 4, seed);
    let (x, y) = data.batch(0, 1);
    let predictor = SensitivityPredictor::new(RegionSize::new(rx, ry), threshold);
    let masks = predictor.predict(&x);

    let store = ArtifactStore::fs();
    let gray = format!("{prefix}_channel0.pgm");
    store.commit_atomic(&gray, channel_to_pgm(&x, 0, 0).as_bytes())?;
    println!("wrote {gray} (class {})", y[0]);
    let overlay = format!("{prefix}_mask_overlay.ppm");
    store.commit_atomic(&overlay, mask_overlay_to_ppm(&x, 0, 0, &masks[0]).as_bytes())?;
    println!(
        "wrote {overlay} ({:.0}% of regions sensitive)",
        masks[0].sensitive_fraction() * 100.0
    );
    if x.shape()[1] >= 3 {
        let rgb = format!("{prefix}_rgb.ppm");
        store.commit_atomic(&rgb, image_to_ppm(&x, 0).as_bytes())?;
        println!("wrote {rgb}");
    }
    write_observability(args, None, None)
}

fn cmd_visualize(args: &ParsedArgs) -> Result<(), Box<dyn Error>> {
    args.restrict(&["dataset", "seed", "threads", "metrics", "trace"])?;
    let kind = dataset_kind(&args.get_str("dataset", "digits"))?;
    let seed = args.get_usize("seed", 1)? as u64;
    let data = Dataset::generate(kind, 4, seed);
    let (x, y) = data.batch(0, 1);
    let split = SegmentSplit::paper_default(x.as_slice());
    println!(
        "sample of class {} ('#' = largest 20% of values, '+', '.'):\n",
        y[0]
    );
    let map = segment_map(&x, 0, 0, &split);
    print!("{}", render_ascii(&map));
    write_observability(args, None, None)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parsed(parts: &[&str]) -> ParsedArgs {
        ParsedArgs::parse(parts.iter().map(|s| s.to_string())).unwrap()
    }

    /// Serializes tests that enable the global telemetry registry
    /// (`--metrics`/`--trace` runs), so concurrent tests cannot leak
    /// counters into each other's snapshots.
    fn obs_lock() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
        LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn usage_mentions_every_command() {
        let u = usage();
        for c in [
            "train", "eval", "simulate", "serve", "client", "soak", "faults", "sweep",
            "pareto", "store", "calibrate", "visualize", "export",
        ] {
            assert!(u.contains(c), "usage missing {c}");
        }
    }

    #[test]
    fn unknown_command_is_an_error() {
        let e = run(&parsed(&["frobnicate"])).unwrap_err();
        assert!(e.to_string().contains("frobnicate"));
    }

    #[test]
    fn help_succeeds() {
        run(&parsed(&["help"])).unwrap();
    }

    #[test]
    fn visualize_runs_end_to_end() {
        run(&parsed(&["visualize", "--dataset", "digits", "--seed", "3"])).unwrap();
    }

    #[test]
    fn export_writes_image_files() {
        let dir = std::env::temp_dir().join("drq_cli_export_test");
        let _ = std::fs::create_dir_all(&dir);
        let prefix = dir.join("sample").to_string_lossy().to_string();
        run(&parsed(&["export", "--dataset", "shapes", "--out", &prefix])).unwrap();
        let pgm = std::fs::read_to_string(format!("{prefix}_channel0.pgm")).unwrap();
        assert!(pgm.starts_with("P2"));
        let ppm = std::fs::read_to_string(format!("{prefix}_mask_overlay.ppm")).unwrap();
        assert!(ppm.starts_with("P3"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn simulate_lenet_runs_end_to_end() {
        run(&parsed(&["simulate", "--network", "lenet5", "--accel", "drq"])).unwrap();
    }

    #[test]
    fn pareto_budgeted_resume_is_byte_identical_to_one_shot() {
        let dir = std::env::temp_dir().join("drq_cli_pareto_test");
        let _ = std::fs::create_dir_all(&dir);
        let full = dir.join("full.json").to_string_lossy().to_string();
        let resumed = dir.join("resumed.json").to_string_lossy().to_string();
        run(&parsed(&["pareto", "--network", "lenet5", "--seed", "7", "--out", &full])).unwrap();
        // The frame is text-safe, so the payload stays grep-able in place.
        let full_bytes = std::fs::read_to_string(&full).unwrap();
        assert!(full_bytes.contains("\"kind\":\"pareto\""));
        assert!(full_bytes.contains("\"status\":\"complete\""));
        let store = ArtifactStore::fs();
        let full_payload = store.load(&full).unwrap().payload;

        // Interrupt after ~40 evaluations, then resume to convergence.
        // Generations differ between the files (1 vs 2), so compare the
        // committed payloads, which must be byte-identical.
        run(&parsed(&[
            "pareto", "--network", "lenet5", "--seed", "7", "--budget", "40", "--out", &resumed,
        ]))
        .unwrap();
        let paused = std::fs::read_to_string(&resumed).unwrap();
        assert!(paused.contains("\"status\":\"paused\""), "budget must pause the search");
        run(&parsed(&["pareto", "--resume", &resumed, "--out", &resumed])).unwrap();
        let out = store.load(&resumed).unwrap();
        assert_eq!(out.payload, full_payload);
        assert_eq!(out.generation, 2, "resume must commit the next generation");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn pareto_checkpoint_every_is_byte_identical_and_store_inspects_it() {
        let dir = std::env::temp_dir().join("drq_cli_pareto_ckpt_test");
        let _ = std::fs::create_dir_all(&dir);
        let full = dir.join("full.json").to_string_lossy().to_string();
        let chunked = dir.join("chunked.json").to_string_lossy().to_string();
        run(&parsed(&["pareto", "--network", "lenet5", "--seed", "7", "--out", &full])).unwrap();
        run(&parsed(&[
            "pareto", "--network", "lenet5", "--seed", "7", "--checkpoint-every", "25", "--out",
            &chunked,
        ]))
        .unwrap();
        let store = ArtifactStore::fs();
        let one_shot = store.load(&full).unwrap();
        let out = store.load(&chunked).unwrap();
        assert_eq!(out.payload, one_shot.payload, "chunked run must converge identically");
        assert!(out.generation > 1, "periodic checkpoints must advance the generation");
        // The previous generation survives alongside the final one.
        assert!(std::path::Path::new(&format!("{chunked}.prev")).exists());
        // The store subcommand reads both modes; exactly one mode is required.
        run(&parsed(&["store", "--verify", &chunked])).unwrap();
        run(&parsed(&["store", "--info", &chunked])).unwrap();
        let err = run(&parsed(&["store"])).unwrap_err();
        assert!(err.to_string().contains("exactly one"), "{err}");
        let err = run(&parsed(&["store", "--cat", &chunked, "--info", &chunked])).unwrap_err();
        assert!(err.to_string().contains("exactly one"), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn pareto_rejects_foreign_resume_artifacts() {
        let dir = std::env::temp_dir().join("drq_cli_pareto_reject_test");
        let _ = std::fs::create_dir_all(&dir);
        let path = dir.join("bogus.json").to_string_lossy().to_string();
        std::fs::write(&path, "{\"schema\":\"drq-metrics\",\"schema_version\":1,\"kind\":\"train\"}\n")
            .unwrap();
        let err = run(&parsed(&["pareto", "--resume", &path])).unwrap_err();
        assert!(err.to_string().contains("pareto"), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn sim_alias_writes_metrics_and_trace() {
        let _obs = obs_lock();
        let dir = std::env::temp_dir().join("drq_cli_metrics_test");
        let _ = std::fs::create_dir_all(&dir);
        let metrics = dir.join("out.json").to_string_lossy().to_string();
        let trace = dir.join("out.jsonl").to_string_lossy().to_string();
        run(&parsed(&[
            "sim", "--network", "lenet5", "--accel", "drq", "--metrics", &metrics, "--trace",
            &trace,
        ]))
        .unwrap();
        let json = std::fs::read_to_string(&metrics).unwrap();
        assert!(json.starts_with(
            r#"{"schema":"drq-metrics","schema_version":1,"kind":"network_sim""#
        ));
        for key in ["total_cycles", "stall_ratio", "int4_fraction", "energy_pj", "layers"] {
            assert!(json.contains(&format!("\"{key}\":")), "metrics missing {key}");
        }
        let jsonl = std::fs::read_to_string(&trace).unwrap();
        assert!(jsonl.lines().count() > 2, "trace should hold run + layer events");
        assert!(jsonl.lines().all(|l| l.starts_with("{\"cycle\":")));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn empty_fault_plan_metrics_are_byte_identical() {
        let _obs = obs_lock();
        let dir = std::env::temp_dir().join("drq_cli_fault_empty_test");
        let _ = std::fs::create_dir_all(&dir);
        let plain = dir.join("plain.json").to_string_lossy().to_string();
        let faulted = dir.join("faulted.json").to_string_lossy().to_string();
        let plan = dir.join("empty_plan.json");
        std::fs::write(&plan, "{\"seed\": 0, \"rules\": []}\n").unwrap();
        run(&parsed(&[
            "sim", "--network", "lenet5", "--accel", "drq", "--metrics", &plain,
        ]))
        .unwrap();
        run(&parsed(&[
            "sim", "--network", "lenet5", "--accel", "drq", "--metrics", &faulted,
            "--fault-plan", &plan.to_string_lossy(),
        ]))
        .unwrap();
        let a = std::fs::read(&plain).unwrap();
        let b = std::fs::read(&faulted).unwrap();
        assert_eq!(a, b, "empty fault plan must be byte-identical");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn fault_plan_switches_sim_metrics_to_reliability() {
        let _obs = obs_lock();
        let dir = std::env::temp_dir().join("drq_cli_fault_rel_test");
        let _ = std::fs::create_dir_all(&dir);
        let metrics = dir.join("rel.json").to_string_lossy().to_string();
        let plan = dir.join("plan.json");
        std::fs::write(
            &plan,
            "{\"seed\": 7, \"rules\": [{\"site\": \"stall_cycle\", \"rate\": 0.01}]}",
        )
        .unwrap();
        run(&parsed(&[
            "sim", "--network", "lenet5", "--accel", "drq", "--metrics", &metrics,
            "--fault-plan", &plan.to_string_lossy(),
        ]))
        .unwrap();
        let json = std::fs::read_to_string(&metrics).unwrap();
        assert!(json.starts_with(
            r#"{"schema":"drq-metrics","schema_version":1,"kind":"reliability""#
        ));
        for key in ["fault_seed", "baseline_cycles", "degraded_cycles", "slowdown", "faults"] {
            assert!(json.contains(&format!("\"{key}\":")), "metrics missing {key}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn faults_command_writes_a_reliability_report() {
        let _obs = obs_lock();
        let dir = std::env::temp_dir().join("drq_cli_faults_cmd_test");
        let _ = std::fs::create_dir_all(&dir);
        let metrics = dir.join("rel.json").to_string_lossy().to_string();
        run(&parsed(&["faults", "--network", "lenet5", "--metrics", &metrics])).unwrap();
        let json = std::fs::read_to_string(&metrics).unwrap();
        assert!(json.contains(r#""kind":"reliability""#));
        assert!(json.contains(r#""stall_cycle":"#));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn malformed_fault_plans_are_rejected_with_context() {
        let dir = std::env::temp_dir().join("drq_cli_fault_bad_test");
        let _ = std::fs::create_dir_all(&dir);
        let plan = dir.join("bad.json");
        std::fs::write(&plan, "{\"seed\": 1, \"rules\": [{\"site\": \"warp_core\", \"rate\": 0.1}]}")
            .unwrap();
        let e = run(&parsed(&[
            "sim", "--network", "lenet5", "--accel", "drq",
            "--fault-plan", &plan.to_string_lossy(),
        ]))
        .unwrap_err();
        assert!(e.to_string().contains("warp_core"), "{e}");
        let e = run(&parsed(&["faults", "--plan", "/no/such/file.json"])).unwrap_err();
        assert!(e.to_string().contains("/no/such/file.json"), "{e}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn simulate_rejects_unknown_network() {
        let e = run(&parsed(&["simulate", "--network", "transformer"])).unwrap_err();
        assert!(e.to_string().contains("network"));
    }

    #[test]
    fn eval_rejects_unknown_scheme() {
        // Fails fast on the scheme check only after training a tiny model,
        // so use minimal samples/epochs.
        let e = run(&parsed(&[
            "eval", "--samples", "20", "--epochs", "1", "--scheme", "int2",
        ]))
        .unwrap_err();
        assert!(e.to_string().contains("int2"));
    }

    #[test]
    fn option_typos_are_rejected() {
        let e = run(&parsed(&["simulate", "--netwrok", "lenet5"])).unwrap_err();
        assert!(e.to_string().contains("netwrok"));
    }
}
