//! Table III — region size and average threshold chosen per network.
//!
//! Runs the Section III-D trial-and-error loop (start large, evaluate,
//! halve threshold or region alternately until accuracy meets the target)
//! against each of the six topologies, using the trained ResNet-8 stand-in
//! for the accuracy signal and the full-topology simulation for the 4-bit
//! percentage, then prints the chosen operating point next to the paper's.

use drq::baselines::{evaluate_scheme, QuantScheme};
use drq::core::{DrqConfig, RegionSize};
use drq::dse::explore;
use drq::models::zoo::InputRes;
use drq::models::{resnet8, train, Dataset, DatasetKind, TrainConfig};
use drq::sim::ArchConfig;
use drq_bench::{network_operating_point, paper_networks, render_table, RunScale};

fn main() {
    let scale = RunScale::from_env();
    println!("Table III reproduction: DSE-chosen region size and threshold\n");

    let train_set = Dataset::generate(DatasetKind::Shapes, scale.train_size(), 601);
    let eval_set = Dataset::generate(DatasetKind::Shapes, scale.eval_size(), 602);
    let mut net = resnet8(10, 19);
    let cfg = TrainConfig { epochs: scale.epochs(), ..TrainConfig::default() };
    let report = train(&mut net, &train_set, &eval_set, &cfg);
    let target = report.eval_accuracy - 0.01;
    println!(
        "accuracy target: FP32 ({:.1}%) - 1% = {:.1}%\n",
        report.eval_accuracy * 100.0,
        target * 100.0
    );

    let mut rows = Vec::new();
    for topology in paper_networks(InputRes::Imagenet) {
        // Start large relative to the stand-in's activation statistics
        // (its threshold knee sits near 2; see EXPERIMENTS.md).
        let outcome = explore(
            RegionSize::new(32, 32),
            16.0,
            target,
            12,
            &mut |region, threshold| {
                let drq_cfg = DrqConfig::new(region, threshold);
                let acc =
                    evaluate_scheme(&mut net, &QuantScheme::Drq(drq_cfg), &eval_set, 20).accuracy;
                let accel = ArchConfig::builder().drq(drq_cfg).build();
                let sim = accel
                    .session(&topology)
                    .seed(66)
                    .run()
                    .expect("clean simulation cannot fail")
                    .into_report();
                (acc, sim.int4_fraction())
            },
        );
        let paper = network_operating_point(&topology.name);
        rows.push(vec![
            topology.name.clone(),
            outcome.region.to_string(),
            format!("{:.1}", outcome.threshold),
            format!("{:.1}%", outcome.int4_fraction * 100.0),
            format!("{}", outcome.iterations),
            format!("{}", outcome.converged),
            format!("{} / {:.0}", paper.base_region(), paper.base_threshold()),
        ]);
    }
    println!(
        "{}",
        render_table(
            &[
                "network",
                "region",
                "threshold",
                "4-bit %",
                "iters",
                "converged",
                "paper (region/thr)"
            ],
            &rows
        )
    );
    println!(
        "\nThe paper notes the loop \"can always find the satisfactory values\n\
         within a few iterations\"; the iters column checks that. Absolute\n\
         chosen values differ from Table III because the accuracy signal\n\
         comes from the stand-in network (see DESIGN.md substitutions)."
    );
}
