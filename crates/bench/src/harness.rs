//! Shared utilities for the figure/table binaries.

use drq::baselines::{evaluate_scheme, QuantScheme};
use drq::core::{calibrate_thresholds, DrqConfig, LayerThresholds, RegionSize};
use drq::models::zoo::{self, InputRes};
use drq::models::{Dataset, NetworkTopology};
use drq::nn::Network;
use drq::telemetry::{Report, Tracer};
use drq::tensor::Tensor;

/// The `--metrics <path>` / `--trace <path>` flags shared by every harness
/// binary (the same global options the `drq` CLI accepts). Parsing is
/// lenient: unknown arguments are ignored so binaries stay zero-config.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ObservabilityArgs {
    /// Where to write the schema-versioned metrics JSON, if requested.
    pub metrics: Option<String>,
    /// Where to write the JSON-lines event trace, if requested.
    pub trace: Option<String>,
}

impl ObservabilityArgs {
    /// Parses the process arguments and enables telemetry recording when
    /// either flag is present.
    pub fn from_env_args() -> Self {
        Self::parse(std::env::args().skip(1))
    }

    /// Parses `--metrics`/`--trace` out of an argument stream.
    pub fn parse<I: IntoIterator<Item = String>>(args: I) -> Self {
        let mut out = Self::default();
        let mut it = args.into_iter();
        while let Some(a) = it.next() {
            match a.as_str() {
                "--metrics" => out.metrics = it.next(),
                "--trace" => out.trace = it.next(),
                _ => {}
            }
        }
        if out.metrics.is_some() || out.trace.is_some() {
            drq::telemetry::reset();
            drq::telemetry::enable();
        }
        out
    }

    /// Writes `report` to the `--metrics` path (no-op when the flag is
    /// absent). The global registry snapshot rides along under `"metrics"`.
    pub fn write_report(&self, mut report: Report) -> std::io::Result<()> {
        if let Some(path) = &self.metrics {
            let registry = drq::telemetry::snapshot();
            if !registry.is_empty() {
                report.push("metrics", registry.to_json());
            }
            report.write_to_file(path)?;
            eprintln!("metrics written to {path}");
        }
        Ok(())
    }

    /// Writes the tracer's JSON-lines to the `--trace` path (no-op when the
    /// flag is absent).
    pub fn write_trace(&self, tracer: &Tracer) -> std::io::Result<()> {
        if let Some(path) = &self.trace {
            std::fs::write(path, tracer.to_jsonl())?;
            eprintln!("trace written to {path}");
        }
        Ok(())
    }
}

/// How much work a harness binary should do. Controlled by the
/// `DRQ_SCALE` environment variable (`quick` or `full`, default `quick`).
/// `quick` keeps every binary under a couple of minutes; `full` uses larger
/// datasets and more training epochs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunScale {
    /// Small datasets, few epochs; CI-friendly.
    Quick,
    /// Paper-scale sweeps.
    Full,
}

impl RunScale {
    /// Reads the scale from the environment.
    pub fn from_env() -> Self {
        match std::env::var("DRQ_SCALE").as_deref() {
            Ok("full") | Ok("FULL") => RunScale::Full,
            _ => RunScale::Quick,
        }
    }

    /// Training-set size for stand-in training.
    pub fn train_size(self) -> usize {
        match self {
            RunScale::Quick => 300,
            RunScale::Full => 1200,
        }
    }

    /// Evaluation-set size.
    pub fn eval_size(self) -> usize {
        match self {
            RunScale::Quick => 60,
            RunScale::Full => 240,
        }
    }

    /// Training epochs.
    pub fn epochs(self) -> usize {
        match self {
            RunScale::Quick => 5,
            RunScale::Full => 12,
        }
    }
}

/// The per-network DRQ operating points of Table III (region size and
/// average integer threshold).
///
/// # Examples
///
/// ```
/// use drq_bench::network_operating_point;
///
/// let cfg = network_operating_point("ResNet-18");
/// assert_eq!(cfg.base_region().to_string(), "4x16");
/// ```
pub fn network_operating_point(name: &str) -> DrqConfig {
    let (region, threshold) = match name {
        "AlexNet" => (RegionSize::new(2, 4), 18.0),
        "VGG16" => (RegionSize::new(2, 4), 17.0),
        "ResNet-18" => (RegionSize::new(4, 16), 21.0),
        "ResNet-50" => (RegionSize::new(4, 8), 19.0),
        "Inception-v3" => (RegionSize::new(4, 8), 23.0),
        "MobileNet-v2" | "MobileNet" => (RegionSize::new(2, 4), 25.0),
        // Anything else (LeNet-5, ResNet-32, custom nets) gets the
        // ResNet-18 defaults.
        _ => (RegionSize::new(4, 16), 21.0),
    };
    DrqConfig::new(region, threshold)
}

/// Chooses DRQ's calibrated per-layer thresholds for the accuracy figures
/// (11 and 13), DSE-style: calibrate at each of a few sensitive-fraction
/// targets on `calib_x`, evaluate each schedule on `eval_set`, and keep the
/// one with the largest INT4 share among those whose accuracy reaches
/// `floor`. If none reaches it, keep the most accurate.
pub fn select_schedule(
    net: &mut Network,
    calib_x: &Tensor<f32>,
    eval_set: &Dataset,
    floor: f64,
) -> LayerThresholds {
    let mut best: Option<(f64, f64, LayerThresholds)> = None;
    for target in [0.1, 0.2, 0.35, 0.5, 0.7, 0.85, 0.95] {
        let schedule = calibrate_thresholds(net, calib_x, RegionSize::new(4, 4), target);
        let r = evaluate_scheme(net, &QuantScheme::DrqCalibrated(schedule.clone()), eval_set, 20);
        let better = match &best {
            None => true,
            Some((acc, int4, _)) => match (r.accuracy >= floor, *acc >= floor) {
                (true, true) => r.int4_fraction > *int4,
                (true, false) => true,
                (false, _) => r.accuracy > *acc,
            },
        };
        if better {
            best = Some((r.accuracy, r.int4_fraction, schedule));
        }
    }
    best.expect("at least one target evaluated").2
}

/// The six evaluated networks at the given resolution, in paper order.
pub fn paper_networks(res: InputRes) -> Vec<NetworkTopology> {
    zoo::paper_six(res)
}

/// Renders an aligned plain-text table (the harness output format recorded
/// in `EXPERIMENTS.md`).
///
/// # Examples
///
/// ```
/// use drq_bench::render_table;
///
/// let t = render_table(&["net", "cycles"], &[vec!["LeNet".into(), "123".into()]]);
/// assert!(t.contains("LeNet"));
/// assert!(t.lines().count() >= 3);
/// ```
pub fn render_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let cols = headers.len();
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        assert_eq!(row.len(), cols, "row width mismatch");
        for (i, cell) in row.iter().enumerate() {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let mut out = String::new();
    let line = |out: &mut String, cells: Vec<String>| {
        let mut parts = Vec::with_capacity(cols);
        for (i, c) in cells.iter().enumerate() {
            parts.push(format!("{:>width$}", c, width = widths[i]));
        }
        out.push_str(&parts.join("  "));
        out.push('\n');
    };
    line(&mut out, headers.iter().map(|s| s.to_string()).collect());
    line(
        &mut out,
        widths.iter().map(|w| "-".repeat(*w)).collect(),
    );
    for row in rows {
        line(&mut out, row.clone());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table3_operating_points_match_paper() {
        assert_eq!(network_operating_point("AlexNet").base_threshold(), 18.0);
        assert_eq!(network_operating_point("VGG16").base_threshold(), 17.0);
        assert_eq!(
            network_operating_point("ResNet-50").base_region(),
            RegionSize::new(4, 8)
        );
        assert_eq!(network_operating_point("MobileNet-v2").base_threshold(), 25.0);
    }

    #[test]
    fn unknown_network_gets_defaults() {
        let cfg = network_operating_point("LeNet-5");
        assert_eq!(cfg.base_region(), RegionSize::new(4, 16));
    }

    #[test]
    fn six_networks_in_paper_order() {
        let nets = paper_networks(InputRes::Cifar);
        let names: Vec<&str> = nets.iter().map(|n| n.name.as_str()).collect();
        assert_eq!(
            names,
            ["AlexNet", "VGG16", "ResNet-18", "ResNet-50", "Inception-v3", "MobileNet-v2"]
        );
    }

    #[test]
    fn render_table_aligns_columns() {
        let t = render_table(
            &["a", "bbbb"],
            &[vec!["xx".into(), "1".into()], vec!["y".into(), "22".into()]],
        );
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 4);
        let width = lines[0].len();
        assert!(lines.iter().all(|l| l.len() == width));
    }

    #[test]
    fn scale_defaults_to_quick() {
        // Without the env var set, from_env is quick (tests run without it).
        if std::env::var("DRQ_SCALE").is_err() {
            assert_eq!(RunScale::from_env(), RunScale::Quick);
        }
        assert!(RunScale::Full.train_size() > RunScale::Quick.train_size());
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn render_table_validates_rows() {
        let _ = render_table(&["a", "b"], &[vec!["only-one".into()]]);
    }

    #[test]
    fn observability_args_parse_and_ignore_unknown() {
        let args = ["--foo", "1", "--metrics", "m.json", "--trace", "t.jsonl"];
        let o = ObservabilityArgs::parse(args.iter().map(|s| s.to_string()));
        assert_eq!(o.metrics.as_deref(), Some("m.json"));
        assert_eq!(o.trace.as_deref(), Some("t.jsonl"));
        let none = ObservabilityArgs::parse(std::iter::empty());
        assert_eq!(none, ObservabilityArgs::default());
        // Absent flags make the writers no-ops.
        none.write_report(Report::new("session")).unwrap();
        none.write_trace(&Tracer::new()).unwrap();
    }
}
