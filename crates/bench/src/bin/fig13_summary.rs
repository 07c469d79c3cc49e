//! Fig. 13 — averages across the six networks: (a) accuracy loss,
//! (b) normalized performance and energy.
//!
//! Expected shape (paper): average accuracy loss — DRQ 0.3 % (CIFAR) /
//! 0.8 % (ILSVRC) vs OLAccel 1.6 % / 4.3 %; DRQ ~92 % faster than Eyeriss,
//! ~83 % than BitFusion, ~21 % than OLAccel; energy down 72 % / 49 % / 33 %.

use drq::baselines::{evaluate_scheme, Accelerator, BitFusion, Eyeriss, OlAccel, QuantScheme};
use drq::models::zoo::InputRes;
use drq::models::{default_standin, train, Dataset, DatasetKind, TrainConfig};
use drq::sim::ArchConfig;
use drq_bench::{network_operating_point, paper_networks, render_table, select_schedule, RunScale};

fn accuracy_loss(kind: DatasetKind, scale: RunScale) -> Vec<(String, f64)> {
    let train_set = Dataset::generate(kind, scale.train_size(), 301);
    let eval_set = Dataset::generate(kind, scale.eval_size(), 302);
    let mut net = default_standin(kind, 9);
    let cfg = TrainConfig { epochs: scale.epochs(), ..TrainConfig::default() };
    let _ = train(&mut net, &train_set, &eval_set, &cfg);
    let reference = evaluate_scheme(&mut net, &QuantScheme::Eyeriss, &eval_set, 20).accuracy;
    let (calib_x, _) = train_set.batch(0, train_set.len().min(32));
    // DSE-style target selection, as in Fig. 11 but with the floor 1 %
    // under Eyeriss.
    let schedule = select_schedule(&mut net, &calib_x, &eval_set, reference - 0.01);
    [
        QuantScheme::Eyeriss,
        QuantScheme::BitFusion,
        QuantScheme::OlAccel,
        QuantScheme::DrqCalibrated(schedule),
    ]
    .iter()
    .map(|s| {
        let r = evaluate_scheme(&mut net, s, &eval_set, 20);
        (s.name().to_string(), (reference - r.accuracy).max(0.0))
    })
    .collect()
}

fn main() {
    let scale = RunScale::from_env();
    println!("Fig. 13 reproduction: cross-network averages\n");

    // (a) accuracy loss, lower is better.
    println!("--- (a) average accuracy loss (percentage points, lower is better) ---");
    let cifar = accuracy_loss(DatasetKind::Shapes, scale);
    let ilsvrc = accuracy_loss(DatasetKind::Textures, scale);
    let rows: Vec<Vec<String>> = cifar
        .iter()
        .zip(&ilsvrc)
        .map(|((name, c), (_, i))| {
            vec![
                name.clone(),
                format!("{:.1}", c * 100.0),
                format!("{:.1}", i * 100.0),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(&["scheme", "shapes (~CIFAR)", "textures (~ILSVRC)"], &rows)
    );

    // (b) normalized performance and energy.
    println!("--- (b) average normalized cycles and energy (Eyeriss = 1.0) ---");
    let mut cyc = [0.0f64; 4];
    let mut en = [0.0f64; 4];
    let nets = paper_networks(InputRes::Imagenet);
    for net in &nets {
        let reports = [
            Eyeriss::new().simulate(net, 1),
            BitFusion::new().simulate(net, 1),
            OlAccel::new().simulate(net, 1),
            ArchConfig::builder()
                .drq(network_operating_point(&net.name))
                .build()
                .simulate(net, 1),
        ];
        let base_c = reports[0].total_cycles as f64;
        let base_e = reports[0].energy.total_pj();
        for (i, r) in reports.iter().enumerate() {
            cyc[i] += r.total_cycles as f64 / base_c;
            en[i] += r.energy.total_pj() / base_e;
        }
    }
    let n = nets.len() as f64;
    let rows: Vec<Vec<String>> = ["Eyeriss", "BitFusion", "OLAccel", "DRQ"]
        .iter()
        .enumerate()
        .map(|(i, name)| {
            vec![
                name.to_string(),
                format!("{:.3}", cyc[i] / n),
                format!("{:.3}", en[i] / n),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(&["accelerator", "norm. cycles", "norm. energy"], &rows)
    );

    let drq_vs = |i: usize| (1.0 - (cyc[3] / n) / (cyc[i] / n)) * 100.0;
    let drq_en = |i: usize| (1.0 - (en[3] / n) / (en[i] / n)) * 100.0;
    println!(
        "DRQ performance gain: {:.0}% vs Eyeriss, {:.0}% vs BitFusion, {:.0}% vs OLAccel",
        drq_vs(0),
        drq_vs(1),
        drq_vs(2)
    );
    println!(
        "DRQ energy reduction: {:.0}% vs Eyeriss, {:.0}% vs BitFusion, {:.0}% vs OLAccel",
        drq_en(0),
        drq_en(1),
        drq_en(2)
    );
    println!("(paper: 92%/83%/21% performance; 72%/49%/33% energy)");
}
