//! `run`: every workload in its own child process, gathered into one
//! `kind:"bench"` report. `compare`: two such reports against the bounds
//! in `BENCHMARK.json`.

use crate::stats::{median, outside_bound, quartiles, relative_change, relative_spread};
use crate::{Flags, END_TO_END, EXACT, WORKLOADS};
use drq::telemetry::{Json, Report};
use std::path::PathBuf;
use std::process::{Command, Stdio};

/// Version of the `kind:"bench"` payload layout.
const BENCH_VERSION: u64 = 1;

/// How `run` starts one workload run: this executable, in a child process.
struct Child {
    exe: PathBuf,
    seed: u64,
    seconds: f64,
}

impl Child {
    /// Runs `name` once and returns whether it passed and its result object
    /// with the detail object folded in.
    fn run(&self, name: &str, traced: bool) -> Result<(bool, Json), String> {
        eprintln!("running {name} (trace {})", u8::from(traced));
        let output = Command::new(&self.exe)
            .args([
                "--workload",
                name,
                "--seed",
                &self.seed.to_string(),
                "--seconds",
                &self.seconds.to_string(),
            ])
            .args(["--trace", if traced { "1" } else { "0" }])
            .stdin(Stdio::null())
            .stderr(Stdio::inherit())
            .output()
            .map_err(|e| format!("cannot start {name}: {e}"))?;
        let stdout = String::from_utf8_lossy(&output.stdout);
        let (detail, result) = parse_child(&stdout)
            .ok_or_else(|| format!("{name}: no result line (exit {})", output.status))?;
        let correct = result.get("correct") == Some(&Json::Bool(true)) && output.status.success();
        print_result(name, traced, &result);
        let Json::Object(mut fields) = result else {
            unreachable!("parse_child returns objects")
        };
        fields.push(("detail".into(), detail));
        Ok((correct, Json::Object(fields)))
    }
}

pub fn run(args: &[String]) -> Result<bool, String> {
    let flags = Flags::parse(args, &["seed", "seconds", "out", "repeat"], &["traced"])?;
    let child = Child {
        exe: std::env::current_exe().map_err(|e| format!("cannot locate own executable: {e}"))?,
        seed: flags.seed()?,
        seconds: flags.seconds()?,
    };
    let repeat = match flags.get("repeat") {
        None => 1,
        Some(v) => v
            .parse::<usize>()
            .ok()
            .filter(|n| (1..=50).contains(n))
            .ok_or_else(|| format!("--repeat wants a count in 1..=50, got {v:?}"))?,
    };
    let out_path = flags.get("out").unwrap_or("bench.json");

    let mut all_correct = true;
    let mut entries = Vec::new();
    for name in WORKLOADS {
        let mut runs = Vec::with_capacity(repeat);
        for _ in 0..repeat {
            let (correct, result) = child.run(name, false)?;
            all_correct &= correct;
            runs.push(result);
        }
        let mut entry = vec![
            ("name", Json::str(name)),
            ("summary", summary(&runs)),
            ("untraced", runs[0].clone()),
        ];
        if repeat > 1 {
            entry.push(("repeats", Json::arr(runs[1..].iter().cloned())));
        }
        if flags.switch("traced") {
            let (correct, result) = child.run(name, true)?;
            all_correct &= correct;
            entry.push(("traced", result));
        }
        entries.push(Json::obj(entry));
    }

    let mut report = Report::new("bench");
    report
        .push("bench_version", BENCH_VERSION)
        .push("seed", child.seed)
        .push("seconds", child.seconds)
        .push("repeat", repeat as u64)
        .push(
            "cpus",
            std::thread::available_parallelism().map_or(1, |n| n.get()) as u64,
        )
        .push("threads", drq::tensor::parallel::max_threads() as u64)
        .push("int_kernel", drq::tensor::int_kernel_name())
        .push("workloads", Json::Array(entries));
    let mut text = report.to_json_string();
    text.push('\n');
    std::fs::write(out_path, text).map_err(|e| format!("cannot write {out_path}: {e}"))?;
    eprintln!("wrote {out_path}");
    Ok(all_correct)
}

/// Min, quartiles, median, max and relative spread of every end-to-end
/// metric over the untraced runs of one workload.
fn summary(runs: &[Json]) -> Json {
    Json::obj(END_TO_END.iter().map(|&(metric, _)| {
        let values: Vec<f64> = runs
            .iter()
            .filter_map(|r| metric_value(r, metric))
            .collect();
        let (q1, q3) = quartiles(&values).unwrap_or((median(&values), median(&values)));
        let fold = |f: fn(f64, f64) -> f64| values.iter().copied().reduce(f).unwrap_or(0.0);
        let stats = Json::obj([
            ("min", Json::F64(fold(f64::min))),
            ("q1", Json::F64(q1)),
            ("median", Json::F64(median(&values))),
            ("q3", Json::F64(q3)),
            ("max", Json::F64(fold(f64::max))),
            ("spread", Json::F64(relative_spread(&values).unwrap_or(0.0))),
        ]);
        (metric, stats)
    }))
}

fn metric_value(result: &Json, metric: &str) -> Option<f64> {
    result.get("metrics")?.get(metric)?.get("value")?.as_f64()
}

/// The detail object and result object of a child's standard output (its
/// last two non-empty lines).
fn parse_child(stdout: &str) -> Option<(Json, Json)> {
    let mut lines = stdout.lines().filter(|l| !l.trim().is_empty()).rev();
    let result = Json::parse(lines.next()?).ok()?;
    let detail = Json::parse(lines.next()?).ok()?.get("detail")?.clone();
    matches!(result, Json::Object(_)).then_some((detail, result))
}

fn print_result(name: &str, traced: bool, result: &Json) {
    let correct = result.get("correct") == Some(&Json::Bool(true));
    println!(
        "{name} ({}): {}",
        if traced { "traced" } else { "untraced" },
        if correct { "ok" } else { "FAILED" }
    );
    if let Some(Json::Object(metrics)) = result.get("metrics") {
        for (metric, v) in metrics {
            let value = v.get("value").and_then(Json::as_f64).unwrap_or(f64::NAN);
            let unit = v.get("unit").and_then(Json::as_str).unwrap_or("");
            println!("  {metric:<28} {value:>14.4} {unit}");
        }
    }
}

/// A metric's bound and direction from `BENCHMARK.json`.
struct Bound {
    name: String,
    bound: f64,
    higher_is_better: bool,
}

fn bounds(spec: &Json, key: &str) -> Result<Vec<Bound>, String> {
    spec.get(key)
        .and_then(Json::as_array)
        .ok_or_else(|| format!("bounds file lacks {key}"))?
        .iter()
        .map(|m| {
            let name = m
                .get("name")
                .and_then(Json::as_str)
                .ok_or("metric without a name")?;
            Ok(Bound {
                name: name.to_string(),
                bound: m.get("bound").and_then(Json::as_f64).unwrap_or(0.0),
                higher_is_better: m.get("better").and_then(Json::as_str) == Some("higher"),
            })
        })
        .collect()
}

fn load_report(path: &str) -> Result<Report, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let report = Report::from_json_str(&text).map_err(|e| format!("{path}: {e}"))?;
    if report.kind() != "bench" {
        return Err(format!(
            "{path}: expected a kind \"bench\" report, got {:?}",
            report.kind()
        ));
    }
    Ok(report)
}

fn workload<'a>(report: &'a Report, name: &str) -> Option<&'a Json> {
    report
        .get("workloads")?
        .as_array()?
        .iter()
        .find(|w| w.get("name").and_then(Json::as_str) == Some(name))
}

fn value(w: &Json, section: &str, metric: &str) -> Option<f64> {
    metric_value(w.get(section)?, metric)
}

/// An end-to-end metric of a workload: the median over its repeated runs
/// when the report has them, else its one untraced run.
fn e2e_value(w: &Json, metric: &str) -> Option<f64> {
    let from_summary = || w.get("summary")?.get(metric)?.get("median")?.as_f64();
    from_summary().or_else(|| value(w, "untraced", metric))
}

fn digest(w: &Json, section: &str) -> Option<String> {
    Some(
        w.get(section)?
            .get("detail")?
            .get("output_digest")?
            .as_str()?
            .to_string(),
    )
}

pub fn compare(args: &[String]) -> Result<bool, String> {
    let flags = Flags::parse(args, &["bounds"], &[])?;
    let [parent_path, change_path] = flags.positional.as_slice() else {
        return Err("compare wants two report files: PARENT.json CHANGE.json".into());
    };
    let (parent, change) = (load_report(parent_path)?, load_report(change_path)?);
    let bounds_path = flags.get("bounds").unwrap_or("BENCHMARK.json");
    let spec_text = std::fs::read_to_string(bounds_path)
        .map_err(|e| format!("cannot read {bounds_path}: {e}"))?;
    let spec = Json::parse(&spec_text).map_err(|e| format!("{bounds_path}: {e}"))?;
    let (e2e, layers) = (bounds(&spec, "end_to_end")?, bounds(&spec, "per_layer")?);
    if e2e.len() != END_TO_END.len() {
        eprintln!("warning: {bounds_path} and this benchmark list different end-to-end metrics");
    }

    let mut flagged = 0usize;
    for name in WORKLOADS {
        let Some(c) = workload(&change, name) else {
            flagged += 1;
            println!("{name}\n  FLAG: missing from {change_path}");
            continue;
        };
        println!("{name}");
        for (run, failed) in failed_runs(c) {
            flagged += 1;
            println!("  FLAG: {run} run failed {failed} check(s)");
        }
        let Some(p) = workload(&parent, name) else {
            continue;
        };
        let mut regressed = false;
        for b in &e2e {
            let (Some(pv), Some(cv)) = (e2e_value(p, &b.name), e2e_value(c, &b.name)) else {
                continue;
            };
            let out = outside_bound(pv, cv, b.bound, b.higher_is_better);
            regressed |= out;
            println!(
                "  {:<20} {:>14.4} -> {:>14.4}  {:>+8.2}%  bound {:>5.1}%{}",
                b.name,
                pv,
                cv,
                100.0 * relative_change(pv, cv),
                100.0 * b.bound,
                if out { "  FLAG: worse than bound" } else { "" }
            );
        }
        if regressed {
            flagged += 1;
            if let Some((metric, change)) = worst_layer(p, c, &layers) {
                println!(
                    "  largest per-layer worsening: {metric} ({:+.1}%)",
                    100.0 * change
                );
            }
        }
        for metric in EXACT {
            let (pv, cv) = (value(p, "traced", metric), value(c, "traced", metric));
            if pv.is_some() && cv.is_some() && pv != cv {
                flagged += 1;
                println!("  FLAG: exact count {metric} changed: {pv:?} -> {cv:?}");
            }
        }
        for section in ["untraced", "traced"] {
            let (pd, cd) = (digest(p, section), digest(c, section));
            if pd.is_some() && cd.is_some() && pd != cd {
                flagged += 1;
                println!("  FLAG: {section} output_digest changed: {pd:?} -> {cd:?}");
            }
        }
    }
    println!("{flagged} flag(s)");
    Ok(flagged == 0)
}

/// The runs of a workload entry that failed a check: label and `failed`
/// count. A run that is not `correct` counts even with `failed` at 0.
fn failed_runs(w: &Json) -> Vec<(String, u64)> {
    let repeats = w.get("repeats").and_then(Json::as_array).unwrap_or(&[]);
    ["untraced", "traced"]
        .into_iter()
        .filter_map(|section| Some((section.to_string(), w.get(section)?)))
        .chain(
            repeats
                .iter()
                .enumerate()
                .map(|(i, r)| (format!("repeat {}", i + 2), r)),
        )
        .filter_map(|(label, r)| {
            let failed = r.get("failed").and_then(Json::as_u64).unwrap_or(0);
            (failed > 0 || r.get("correct") != Some(&Json::Bool(true))).then_some((label, failed))
        })
        .collect()
}

/// The per-layer metric that got relatively worst from parent to change, in
/// the direction `BENCHMARK.json` calls worse. Exact counts are flagged on
/// their own, and the tracing overhead (a difference near zero) is no
/// layer's metric.
fn worst_layer(p: &Json, c: &Json, layers: &[Bound]) -> Option<(String, f64)> {
    layers
        .iter()
        .filter(|b| !EXACT.contains(&b.name.as_str()) && b.name != "trace_overhead_frac")
        .filter_map(|b| {
            let change =
                relative_change(value(p, "traced", &b.name)?, value(c, "traced", &b.name)?);
            let worsening = if b.higher_is_better { -change } else { change };
            worsening.is_finite().then(|| (b.name.clone(), worsening))
        })
        .max_by(|a, b| a.1.total_cmp(&b.1))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn child_output_parses_from_its_last_two_lines() {
        let out = "noise\n{\"detail\":{\"ops\":3}}\n{\"correct\":true,\"attempted\":3,\"failed\":0,\"metrics\":{}}\n\n";
        let (detail, result) = parse_child(out).unwrap();
        assert_eq!(detail.get("ops").and_then(Json::as_u64), Some(3));
        assert_eq!(result.get("attempted").and_then(Json::as_u64), Some(3));
        assert!(parse_child("{\"correct\":true}").is_none());
    }

    #[test]
    fn failed_runs_names_every_run_that_failed_or_is_not_correct() {
        let run = |correct: bool, failed: u64| {
            Json::obj([
                ("correct", Json::Bool(correct)),
                ("failed", Json::U64(failed)),
            ])
        };
        let entry = Json::obj([
            ("untraced", run(true, 0)),
            ("repeats", Json::arr([run(true, 0), run(false, 2)])),
            ("traced", run(false, 0)),
        ]);
        assert_eq!(
            failed_runs(&entry),
            [("traced".to_string(), 0), ("repeat 3".to_string(), 2)]
        );
        assert!(failed_runs(&Json::obj([("untraced", run(true, 0))])).is_empty());
    }

    #[test]
    fn worst_layer_follows_each_metric_direction() {
        let section = |a: f64, b: f64| {
            Json::obj([(
                "traced",
                Json::obj([(
                    "metrics",
                    Json::obj([
                        ("x.ms", Json::obj([("value", Json::F64(a))])),
                        ("y.rate", Json::obj([("value", Json::F64(b))])),
                    ]),
                )]),
            )])
        };
        let layers = [
            Bound {
                name: "x.ms".into(),
                bound: 0.0,
                higher_is_better: false,
            },
            Bound {
                name: "y.rate".into(),
                bound: 0.0,
                higher_is_better: true,
            },
        ];
        // x got 10% slower, y lost half its rate: y is the worst.
        let (name, w) = worst_layer(&section(10.0, 1.0), &section(11.0, 0.5), &layers).unwrap();
        assert_eq!(name, "y.rate");
        assert!((w - 0.5).abs() < 1e-12);
    }
}
