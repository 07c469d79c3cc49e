//! `drq_benchmark` — the repository's end-to-end and per-layer benchmark.
//!
//! ```text
//! drq_benchmark --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//!               [--trace-out PATH]
//! drq_benchmark run [--seed N] [--seconds S] [--repeat K] [--traced] [--out PATH]
//! drq_benchmark compare PARENT.json CHANGE.json [--bounds BENCHMARK.json]
//! ```
//!
//! The first form runs one workload for `--seconds` of measurement and
//! prints a detail line and then, as the last line, the result:
//! `{"correct":..,"attempted":..,"failed":..,"metrics":{..}}`. With
//! `--trace 0` the metrics are the end-to-end metrics; with `--trace 1`
//! they are the per-layer metrics, and the spans go to a JSON-lines file.
//! `run` runs every workload that way, each in its own child process, and
//! writes one `kind:"bench"` report; `compare` diffs two such reports
//! against the bounds in `BENCHMARK.json`. A failed check makes the exit
//! code non-zero. See `README.md` next to this package for the workloads
//! and the metric dictionary.

mod adapt;
mod dse;
mod serve;
mod sim;
mod spans;
mod stats;
mod suite;
mod workload;

use spans::Spans;
use stats::{median, peak_rss_mb, percentile, ratio, tail_percentile};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use workload::{Ctx, Outcome, Scale};

use drq::telemetry::Json;

/// The workloads, in the order `run` executes them.
pub const WORKLOADS: [&str; 4] = [
    "sim-resnet50",
    "dse-resnet18",
    "serve-closed",
    "adapt-shapes",
];

pub const DEFAULT_SEED: u64 = 11;
pub const DEFAULT_SECONDS: f64 = 20.0;

/// End-to-end metrics (printed with `--trace 0`): name, unit.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("throughput_ops_s", "ops/s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics (printed with `--trace 1`): name, unit. Every traced
/// run prints all of them; a metric of a layer the workload does not run
/// reads 0.
pub const PER_LAYER: [(&str, &str); 38] = [
    ("trace_overhead_frac", "frac"),
    ("models.synth_ms", "ms"),
    ("core.predictor_ms", "ms"),
    ("sim.cycle_model_ms", "ms"),
    ("sim.session_overhead_ms", "ms"),
    ("sim.partition_speedup", "x"),
    ("sim.host_ns_per_sim_cycle", "ns"),
    ("sim.cycles", "cycles"),
    ("sim.int4_mac_frac", "frac"),
    ("sim.stall_frac", "frac"),
    ("sim.dram_bytes_per_mac", "B/MAC"),
    ("dse.evaluated", "count"),
    ("dse.dominated_pruned", "count"),
    ("dse.region_pruned", "count"),
    ("dse.front_size", "count"),
    ("dse.useful_frac", "frac"),
    ("dse.eval_ms_p50", "ms"),
    ("dse.eval_busy_frac", "frac"),
    ("store.checkpoint_ms", "ms"),
    ("store.resume_ms", "ms"),
    ("serve.submit_us_p50", "us"),
    ("serve.model_hit_rate", "frac"),
    ("serve.mask_hit_rate", "frac"),
    ("serve.rejected_frac", "frac"),
    ("serve.worker_restarts", "count"),
    ("serve.plan_build_ms", "ms"),
    ("core.service_ms_digits_p50", "ms"),
    ("core.service_ms_shapes_p50", "ms"),
    ("serve.unexplained_frac", "frac"),
    ("core.calibrate_ms", "ms"),
    ("core.eval_ms", "ms"),
    ("core.drq_forward_ms", "ms"),
    ("nn.loss_ms", "ms"),
    ("nn.forward_train_ms", "ms"),
    ("nn.backward_ms", "ms"),
    ("nn.sgd_step_ms", "ms"),
    ("core.int4_mac_frac", "frac"),
    ("core.sensitive_frac", "frac"),
];

/// Per-layer metrics that are exact counts of the modelled work: they
/// depend only on the seed, so any change in them is a change in results.
pub const EXACT: [&str; 11] = [
    "sim.cycles",
    "sim.int4_mac_frac",
    "sim.stall_frac",
    "sim.dram_bytes_per_mac",
    "dse.evaluated",
    "dse.dominated_pruned",
    "dse.region_pruned",
    "dse.front_size",
    "dse.useful_frac",
    "core.int4_mac_frac",
    "core.sensitive_frac",
];

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("run") => suite::run(&args[1..]),
        Some("compare") => suite::compare(&args[1..]),
        _ => workload_main(&args),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}

/// `--key value` flags plus bare `--switch`es and positional arguments.
pub struct Flags {
    values: BTreeMap<String, String>,
    switches: Vec<String>,
    pub positional: Vec<String>,
}

impl Flags {
    /// Parses `args`, accepting only the listed keys and switches.
    pub fn parse(args: &[String], keys: &[&str], switches: &[&str]) -> Result<Self, String> {
        let mut flags = Flags {
            values: BTreeMap::new(),
            switches: Vec::new(),
            positional: Vec::new(),
        };
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            let Some(key) = arg.strip_prefix("--") else {
                flags.positional.push(arg.clone());
                continue;
            };
            if switches.contains(&key) {
                flags.switches.push(key.to_string());
            } else if keys.contains(&key) {
                let value = it.next().ok_or_else(|| format!("--{key} needs a value"))?;
                flags.values.insert(key.to_string(), value.clone());
            } else {
                return Err(format!("unknown flag --{key}"));
            }
        }
        Ok(flags)
    }

    pub fn get(&self, key: &str) -> Option<&str> {
        self.values.get(key).map(String::as_str)
    }

    pub fn switch(&self, key: &str) -> bool {
        self.switches.iter().any(|s| s == key)
    }

    pub fn seed(&self) -> Result<u64, String> {
        self.get("seed").map_or(Ok(DEFAULT_SEED), |v| {
            v.parse()
                .map_err(|_| format!("--seed wants a non-negative integer, got {v:?}"))
        })
    }

    pub fn seconds(&self) -> Result<f64, String> {
        let Some(v) = self.get("seconds") else {
            return Ok(DEFAULT_SECONDS);
        };
        match v.parse::<f64>() {
            Ok(s) if s.is_finite() && s > 0.0 && s <= 600.0 => Ok(s),
            _ => Err(format!("--seconds wants a number in (0, 600], got {v:?}")),
        }
    }
}

fn workload_main(args: &[String]) -> Result<bool, String> {
    let flags = Flags::parse(
        args,
        &["workload", "seed", "seconds", "trace", "trace-out"],
        &[],
    )?;
    let name = flags
        .get("workload")
        .ok_or("missing --workload (or a run/compare command)")?;
    if !WORKLOADS.contains(&name) {
        return Err(format!(
            "unknown workload {name:?} (want one of {})",
            WORKLOADS.join(", ")
        ));
    }
    let traced = match flags.get("trace").unwrap_or("0") {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace wants 0 or 1, got {other:?}")),
    };
    let ctx = Ctx {
        seed: flags.seed()?,
        seconds: flags.seconds()?,
        scale: Scale::Full,
        spans: traced.then(Spans::new),
    };
    let outcome = run_workload(name, &ctx);
    if let Some(spans) = &ctx.spans {
        let path = flags
            .get("trace-out")
            .map(PathBuf::from)
            .unwrap_or_else(|| {
                workload::exe_dir()
                    .join("drq_benchmark-traces")
                    .join(format!("{name}-seed{}.jsonl", ctx.seed))
            });
        write_trace(&path, spans)?;
        eprintln!("trace written to {}", path.display());
    }
    let (detail, result) = render(name, &ctx, &outcome);
    println!("{}", Json::obj([("detail", detail)]));
    println!("{result}");
    Ok(outcome.failed == 0)
}

/// Runs one workload in this process.
pub fn run_workload(name: &str, ctx: &Ctx) -> Outcome {
    match name {
        "sim-resnet50" => sim::run(ctx),
        "dse-resnet18" => dse::run(ctx),
        "serve-closed" => serve::run(ctx),
        "adapt-shapes" => adapt::run(ctx),
        other => unreachable!("workload names are validated before dispatch: {other}"),
    }
}

fn tail_pct(name: &str, scale: Scale) -> f64 {
    match name {
        "sim-resnet50" => sim::TAIL_PCT,
        "dse-resnet18" => dse::TAIL_PCT,
        "serve-closed" => serve::tail_pct(scale),
        _ => adapt::TAIL_PCT,
    }
}

fn write_trace(path: &std::path::Path, spans: &Spans) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    }
    std::fs::write(path, spans.to_jsonl())
        .map_err(|e| format!("cannot write {}: {e}", path.display()))
}

fn metric(value: f64, unit: &str) -> Json {
    // Keep reports valid JSON: a ratio over nothing reads 0, never NaN.
    let value = if value.is_finite() { value } else { 0.0 };
    Json::obj([("value", Json::F64(value)), ("unit", Json::str(unit))])
}

/// The detail object and the result line of one workload run.
pub fn render(name: &str, ctx: &Ctx, o: &Outcome) -> (Json, Json) {
    let lat = &o.latencies_ms;
    let tail = tail_pct(name, ctx.scale);
    let metrics: Vec<(String, Json)> = if ctx.spans.is_some() {
        let overhead = if o.traced_latencies_ms.is_empty() || lat.is_empty() {
            0.0
        } else {
            ratio(median(&o.traced_latencies_ms), median(lat)) - 1.0
        };
        PER_LAYER
            .iter()
            .map(|&(metric_name, unit)| {
                let value = if metric_name == "trace_overhead_frac" {
                    overhead
                } else {
                    o.layers
                        .iter()
                        .find(|(n, _)| *n == metric_name)
                        .map_or(0.0, |&(_, v)| v)
                };
                (metric_name.to_string(), metric(value, unit))
            })
            .collect()
    } else {
        let values = [
            median(&o.setup_s),
            o.throughput_ops_s
                .unwrap_or_else(|| ratio(lat.len() as f64, o.measured_s)),
            median(lat),
            percentile(lat, tail),
            peak_rss_mb().unwrap_or(0.0),
        ];
        END_TO_END
            .iter()
            .zip(values)
            .map(|(&(metric_name, unit), v)| (metric_name.to_string(), metric(v, unit)))
            .collect()
    };
    let result = Json::obj([
        ("correct", Json::Bool(o.failed == 0)),
        ("attempted", Json::U64(o.attempted.max(1))),
        ("failed", Json::U64(o.failed)),
        ("metrics", Json::Object(metrics)),
    ]);

    let mut detail = vec![
        ("workload", Json::str(name)),
        ("seed", Json::U64(ctx.seed)),
        ("seconds", Json::F64(ctx.seconds)),
        ("traced", Json::Bool(ctx.spans.is_some())),
        ("ops", Json::U64(lat.len() as u64)),
        ("measured_s", Json::F64(o.measured_s)),
        ("tail_pct", Json::F64(tail)),
        ("tail_supported_pct", Json::F64(tail_percentile(lat.len()))),
        (
            "setup_s",
            Json::arr(o.setup_s.iter().map(|&s| Json::F64(s))),
        ),
        ("output_digest", Json::str(format!("{:016x}", o.digest))),
        ("failures", Json::arr(o.failures.iter().map(Json::str))),
    ];
    if let Some(spans) = &ctx.spans {
        let by_layer = spans.self_ms_by_layer();
        let mut ranked: Vec<(&String, &f64)> = by_layer.iter().collect();
        ranked.sort_by(|a, b| b.1.total_cmp(a.1));
        detail.push((
            "self_ms_by_layer",
            Json::obj(by_layer.iter().map(|(k, v)| (k.clone(), Json::F64(*v)))),
        ));
        detail.push((
            "top_layers",
            Json::arr(ranked.iter().take(3).map(|(k, _)| Json::str(*k))),
        ));
        detail.push(("table", Json::arr(o.table.iter().cloned())));
    }
    (Json::obj(detail), result)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Smoke-size runs of every workload, untraced and traced: each
    /// must pass its checks and print every metric the contract names.
    #[test]
    fn smoke_runs_pass_their_checks_and_print_every_metric() {
        for name in WORKLOADS {
            for traced in [false, true] {
                let ctx = Ctx {
                    seed: DEFAULT_SEED,
                    seconds: 0.2,
                    scale: Scale::Smoke,
                    spans: traced.then(Spans::new),
                };
                let outcome = run_workload(name, &ctx);
                assert_eq!(
                    outcome.failed, 0,
                    "{name} traced={traced}: {:?}",
                    outcome.failures
                );
                let (_, result) = render(name, &ctx, &outcome);
                assert_eq!(result.get("correct"), Some(&Json::Bool(true)));
                let metrics = result.get("metrics").expect("metrics object");
                let expected: Vec<&str> = if traced {
                    PER_LAYER.iter().map(|m| m.0).collect()
                } else {
                    END_TO_END.iter().map(|m| m.0).collect()
                };
                for m in expected {
                    let v = metrics
                        .get(m)
                        .and_then(|v| v.get("value"))
                        .and_then(Json::as_f64);
                    assert!(v.is_some_and(f64::is_finite), "{name}: {m} missing");
                }
                if !traced {
                    for (m, _) in END_TO_END {
                        let v = metrics
                            .get(m)
                            .and_then(|v| v.get("value"))
                            .and_then(Json::as_f64);
                        assert!(v.unwrap() > 0.0, "{name}: end-to-end metric {m} is zero");
                    }
                }
            }
        }
    }

    #[test]
    fn digests_repeat_for_a_seed() {
        let run = |name| {
            let ctx = Ctx {
                seed: 5,
                seconds: 0.05,
                scale: Scale::Smoke,
                spans: None,
            };
            run_workload(name, &ctx).digest
        };
        for name in ["sim-resnet50", "adapt-shapes"] {
            assert_eq!(run(name), run(name), "{name}");
        }
    }

    #[test]
    fn benchmark_json_matches_the_metric_tables() {
        let text = include_str!("../../BENCHMARK.json");
        let spec = Json::parse(text).expect("BENCHMARK.json parses");
        let names = |key: &str| -> Vec<(String, String)> {
            spec.get(key)
                .and_then(Json::as_array)
                .unwrap_or_else(|| panic!("BENCHMARK.json lacks {key}"))
                .iter()
                .map(|m| {
                    let field = |f| {
                        m.get(f)
                            .and_then(Json::as_str)
                            .unwrap_or_default()
                            .to_string()
                    };
                    (field("name"), field("unit"))
                })
                .collect()
        };
        let own = |table: &[(&str, &str)]| -> Vec<(String, String)> {
            table
                .iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(names("end_to_end"), own(&END_TO_END));
        assert_eq!(names("per_layer"), own(&PER_LAYER));
        let workloads: Vec<String> = spec
            .get("workloads")
            .and_then(Json::as_array)
            .expect("workloads")
            .iter()
            .filter_map(|w| w.get("name").and_then(Json::as_str).map(str::to_string))
            .collect();
        assert_eq!(workloads, WORKLOADS);
        for exact in EXACT {
            assert!(PER_LAYER.iter().any(|(n, _)| *n == exact), "{exact}");
        }
    }

    #[test]
    fn flags_reject_unknown_and_malformed_input() {
        let args = |v: &[&str]| v.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        let keys = ["seed", "seconds"];
        assert!(Flags::parse(&args(&["--bogus", "1"]), &keys, &[]).is_err());
        assert!(Flags::parse(&args(&["--seed"]), &keys, &[]).is_err());
        let f = Flags::parse(&args(&["--seed", "x"]), &keys, &[]).unwrap();
        assert!(f.seed().is_err());
        let f = Flags::parse(&args(&["--seconds", "-1"]), &keys, &[]).unwrap();
        assert!(f.seconds().is_err());
        let f = Flags::parse(&args(&["a.json", "--seed", "7"]), &keys, &[]).unwrap();
        assert_eq!(f.seed(), Ok(7));
        assert_eq!(f.positional, ["a.json"]);
    }
}
