//! Sweep points of the Fig. 14/15 binaries and their `dse_sweep` report.

use drq::core::RegionSize;
use drq::telemetry::{Json, Report};

/// One evaluated point of a threshold or region sweep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SweepPoint {
    /// The threshold evaluated.
    pub threshold: f32,
    /// The region evaluated.
    pub region: RegionSize,
    /// Measured top-1 accuracy in `[0, 1]`.
    pub accuracy: f64,
    /// Measured 4-bit computation fraction in `[0, 1]`.
    pub int4_fraction: f64,
}

impl SweepPoint {
    /// Serializes the point for the unified metrics schema.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("threshold", Json::from(self.threshold)),
            ("region_x", Json::from(self.region.x)),
            ("region_y", Json::from(self.region.y)),
            ("accuracy", Json::from(self.accuracy)),
            ("int4_fraction", Json::from(self.int4_fraction)),
        ])
    }
}

/// Serializes a sweep (Fig. 14/15 data) into the unified metrics schema
/// (kind `"dse_sweep"`). `axis` names the swept knob, e.g. `"threshold"`
/// or `"region"`.
pub fn sweep_report(axis: &str, points: &[SweepPoint]) -> Report {
    let mut r = Report::new("dse_sweep");
    r.push("axis", axis)
        .push("candidates", points.len())
        .push("points", Json::Array(points.iter().map(SweepPoint::to_json).collect()));
    r
}

/// Picks the sweep point maximizing `int4_fraction` subject to an accuracy
/// floor — the paper's "optimal point" selection in Fig. 14.
pub fn best_point(points: &[SweepPoint], accuracy_floor: f64) -> Option<SweepPoint> {
    points
        .iter()
        .filter(|p| p.accuracy >= accuracy_floor)
        .max_by(|a, b| {
            a.int4_fraction
                .partial_cmp(&b.int4_fraction)
                .expect("NaN int4 fraction")
        })
        .copied()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Synthetic sweep: accuracy falls and the int4 fraction rises with
    /// the threshold.
    fn points(thresholds: &[f32]) -> Vec<SweepPoint> {
        let region = RegionSize::new(4, 16);
        thresholds
            .iter()
            .map(|&t| SweepPoint {
                threshold: t,
                region,
                accuracy: (1.0 - f64::from(t) * 0.02 - region.area() as f64 * 1e-4).max(0.0),
                int4_fraction: (0.5 + f64::from(t) * 0.02).min(1.0),
            })
            .collect()
    }

    #[test]
    fn sweep_report_serializes_every_point() {
        let json = sweep_report("threshold", &points(&[1.0, 5.0])).to_json_string();
        assert!(json.starts_with(
            r#"{"schema":"drq-metrics","schema_version":1,"kind":"dse_sweep","axis":"threshold","candidates":2"#
        ));
        assert!(json.contains(r#""region_x":4"#) && json.contains(r#""region_y":16"#));
    }

    #[test]
    fn best_point_respects_accuracy_floor() {
        let pts = points(&[1.0, 5.0, 10.0, 20.0]);
        let best = best_point(&pts, 0.8).unwrap();
        // Highest int4 fraction whose accuracy is still >= 0.8.
        assert!(best.accuracy >= 0.8);
        for p in &pts {
            if p.accuracy >= 0.8 {
                assert!(p.int4_fraction <= best.int4_fraction + 1e-12);
            }
        }
        assert!(best_point(&pts, 1.1).is_none());
    }
}
