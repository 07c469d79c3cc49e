//! Run the Section III-D design-space exploration: find a (region,
//! threshold) pair meeting an accuracy target by trial and error.
//!
//! Run with `cargo run --release --example design_space_exploration`.

use drq::baselines::{evaluate_scheme, QuantScheme};
use drq::core::{DrqConfig, RegionSize};
use drq::dse::explore;
use drq::models::{resnet8, train, Dataset, DatasetKind, TrainConfig};

fn main() {
    // Train the ResNet-8 stand-in on the CIFAR-like dataset.
    let train_set = Dataset::generate(DatasetKind::Shapes, 300, 1);
    let eval_set = Dataset::generate(DatasetKind::Shapes, 30, 2);
    let mut net = resnet8(10, 5);
    let report = train(&mut net, &train_set, &eval_set, &TrainConfig::default());
    let target = report.eval_accuracy - 0.01;
    println!(
        "FP32 accuracy {:.1}%; exploring for >= {:.1}%\n",
        report.eval_accuracy * 100.0,
        target * 100.0
    );

    // Start from deliberately large values (the paper: "empirically
    // starting from some large values") and let the loop halve. Each trial
    // runs full mixed-precision inference over the evaluation set, so this
    // takes a minute or two.
    let outcome = explore(RegionSize::new(32, 32), 64.0, target, 8, &mut |region, threshold| {
        let cfg = DrqConfig::new(region, threshold);
        let r = evaluate_scheme(&mut net, &QuantScheme::Drq(cfg), &eval_set, 20);
        println!(
            "  try region {region} threshold {threshold:>6.1}: accuracy {:.1}%, INT4 {:.1}%",
            r.accuracy * 100.0,
            r.int4_fraction * 100.0
        );
        (r.accuracy, r.int4_fraction)
    });

    println!(
        "\nchosen: region {}, threshold {:.1} after {} iterations (converged: {})",
        outcome.region, outcome.threshold, outcome.iterations, outcome.converged
    );
    println!(
        "operating point: {:.1}% accuracy at {:.1}% INT4 computation",
        outcome.accuracy * 100.0,
        outcome.int4_fraction * 100.0
    );
}
