//! Section III-D retraining: recover accuracy lost to aggressive DRQ
//! quantization by fine-tuning with mixed-precision forward passes and
//! full-precision backward passes, then persist the adapted weights.
//!
//! Run with `cargo run --release --example finetune_recovery`.

use drq::core::{finetune_step, DrqConfig, DrqNetwork, RegionSize};
use drq::models::{lenet5, train, Dataset, DatasetKind, TrainConfig};
use drq::nn::{load_weights_durable, save_weights_durable, Sgd};
use drq::store::{ArtifactStore, MemStorage};

fn drq_accuracy(net: &drq::nn::Network, cfg: DrqConfig, data: &Dataset) -> f64 {
    let mut drq = DrqNetwork::new(net.clone(), cfg);
    let (x, y) = data.batch(0, data.len());
    drq.evaluate(&x, &y).0
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let train_set = Dataset::generate(DatasetKind::Digits, 300, 1);
    let eval_set = Dataset::generate(DatasetKind::Digits, 60, 2);
    let mut net = lenet5(7);
    let report = train(&mut net, &train_set, &eval_set, &TrainConfig::default());
    println!("FP32 accuracy: {:.1}%", report.eval_accuracy * 100.0);

    // Deliberately aggressive quantization: threshold 100 leaves everything
    // INT4 (high nibbles only) and costs real accuracy.
    let cfg = DrqConfig::new(RegionSize::new(4, 4), 100.0);
    let before = drq_accuracy(&net, cfg, &eval_set);
    println!("DRQ accuracy before fine-tuning (threshold 100): {:.1}%", before * 100.0);

    // Fine-tune: mixed-precision forward, full-precision backward. A small
    // learning rate adapts the converged weights to the coarse INT4 grid
    // without destabilizing them.
    let mut opt = Sgd::new(0.005).momentum(0.9);
    for epoch in 0..4 {
        let mut loss_sum = 0.0;
        let batches = train_set.batch_count(16);
        for b in 0..batches {
            let (x, y) = train_set.batch(b, 16);
            let (loss, _) = finetune_step(&mut net, &cfg, &x, &y, &mut opt);
            loss_sum += loss;
        }
        println!("  fine-tune epoch {epoch}: mean quantized loss {:.4}", loss_sum / batches as f32);
    }
    let after = drq_accuracy(&net, cfg, &eval_set);
    println!("DRQ accuracy after fine-tuning:                  {:.1}%", after * 100.0);
    assert!(after >= before, "fine-tuning should not hurt ({after} vs {before})");

    // Persist and reload the adapted weights through the crash-safe store
    // (`ArtifactStore::fs()` in production; in memory here).
    let store = ArtifactStore::new(MemStorage::new());
    let generation = save_weights_durable(&mut net, &store, "finetuned.bin")?;
    println!("saved weights as generation {generation}");
    let mut restored = lenet5(99);
    load_weights_durable(&mut restored, &store, "finetuned.bin")?;
    let reloaded = drq_accuracy(&restored, cfg, &eval_set);
    println!("DRQ accuracy after reload:                      {:.1}%", reloaded * 100.0);
    assert!((reloaded - after).abs() < 1e-9, "reload changed behaviour");
    Ok(())
}
