//! Fig. 15 — impact of the sensitivity region size on ResNet-18.
//!
//! Sweeps the paper's five region shapes {4×w, 4×16, 32×32, 16×16, 4×4} and
//! reports 4-bit percentage, predictor storage overhead (normalized to the
//! 32×32 case, as in the paper) and NN accuracy. Expected shape: stripe
//! regions (4×w) minimize storage; 4×16 balances all three axes; 4×4 and
//! 32×32 both hurt (noise-sensitive vs over-marking).

use drq::baselines::{evaluate_scheme, QuantScheme};
use drq::core::{DrqConfig, RegionSize};
use drq::models::zoo::{self, InputRes};
use drq::models::{resnet8, train, Dataset, DatasetKind, TrainConfig};
use drq::sim::{ArchConfig, PredictorUnit};
use drq::tensor::parallel;
use drq_bench::{render_table, sweep_report, ObservabilityArgs, RunScale, SweepPoint};

fn main() {
    let scale = RunScale::from_env();
    let obs = ObservabilityArgs::from_env_args();
    println!("Fig. 15 reproduction: region-size sweep on ResNet-18\n");

    let train_set = Dataset::generate(DatasetKind::Shapes, scale.train_size(), 501);
    let eval_set = Dataset::generate(DatasetKind::Shapes, scale.eval_size(), 502);
    let mut net = resnet8(10, 17);
    let cfg = TrainConfig { epochs: scale.epochs(), ..TrainConfig::default() };
    let report = train(&mut net, &train_set, &eval_set, &cfg);
    println!("stand-in FP32 accuracy: {:.1}%\n", report.eval_accuracy * 100.0);

    let topology = zoo::resnet18(InputRes::Imagenet);
    // Representative feature-map width for the predictor storage metric
    // (ResNet-18's dominant 56-wide stage).
    let fm_w = 56;
    let regions = [
        RegionSize::stripe(4, fm_w), // 4 x w
        RegionSize::new(4, 16),
        RegionSize::new(32, 32),
        RegionSize::new(16, 16),
        RegionSize::new(4, 4),
    ];
    // Two threshold domains (see EXPERIMENTS.md): the full-topology
    // simulation runs at the Table III operating point (21); the stand-in
    // accuracy is evaluated at its own calibrated knee (2), since its
    // activation statistics sit lower than the paper's ImageNet models.
    let sim_threshold = 21.0;
    let acc_threshold = 2.0;
    let base_storage = PredictorUnit::new(RegionSize::new(32, 32), 2).storage_bytes(fm_w) as f64;

    // Region candidates are independent, so they evaluate concurrently;
    // each worker clones the trained stand-in (the evaluator must be
    // side-effect free) and results come back in region order.
    let points = parallel::par_map(regions.len(), |i| {
        let r = regions[i];
        let accel = ArchConfig::builder().drq(DrqConfig::new(r, sim_threshold)).build();
        let sim = accel
            .session(&topology)
            .seed(56)
            .run()
            .expect("clean simulation cannot fail")
            .into_report();
        let mut candidate = net.clone();
        let acc = evaluate_scheme(
            &mut candidate,
            &QuantScheme::Drq(DrqConfig::new(r, acc_threshold)),
            &eval_set,
            20,
        )
        .accuracy;
        SweepPoint {
            threshold: sim_threshold,
            region: r,
            accuracy: acc,
            int4_fraction: sim.int4_fraction(),
        }
    });

    let mut rows = Vec::new();
    for (p, r) in points.iter().zip(&regions) {
        let storage = PredictorUnit::new(*r, 2).storage_bytes(fm_w) as f64 / base_storage;
        let label = if r.y == fm_w && r.x == 4 {
            "4xw".to_string()
        } else {
            r.to_string()
        };
        rows.push(vec![
            label,
            format!("{:.1}%", p.int4_fraction * 100.0),
            format!("{:.2}", storage),
            format!("{:.1}%", p.accuracy * 100.0),
        ]);
    }
    println!(
        "{}",
        render_table(
            &["region", "4-bit %", "storage (norm. to 32x32)", "accuracy"],
            &rows
        )
    );
    println!(
        "\nExpected shape (paper): 4xw cheapest storage; 4x16 best overall\n\
         balance; 32x32 over-marks regions as sensitive (lower 4-bit %);\n\
         4x4 needs more INT8 to absorb single-pixel noise."
    );

    let mut report = sweep_report("region", &points);
    report.push("network", topology.name.as_str());
    obs.write_report(report).expect("writing --metrics output");
}
