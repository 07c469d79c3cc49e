//! Golden digests of whole-network simulation reports.
//!
//! `tests/goldens/network_sim_imagenet_seed11.txt` holds one FNV-1a digest
//! per zoo network: the 64-bit hash of the `kind:"network_sim"` report
//! JSON that a default-configured DRQ accelerator produces for the
//! network's ImageNet topology at session seed 11. Between them the seven
//! networks exercise every layer shape the simulator meets — depthwise and
//! grouped convolutions, fully connected layers, asymmetric padding,
//! strides, 1×1 maps and blobs whose reach is clipped at the map edge — so
//! a change to feature-map synthesis, the sensitivity predictor, the cycle
//! model or the session merge that moves a single reported byte fails
//! here. Regenerate the file intentionally with
//! `DRQ_UPDATE_GOLDENS=1 cargo test --test zoo_goldens`.

use drq::models::zoo::{self, InputRes};
use drq::models::NetworkTopology;
use drq::sim::{ArchConfig, SimSession};

const SEED: u64 = 11;

fn golden_path() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/goldens/network_sim_imagenet_seed11.txt")
}

/// The seven zoo networks under their `drq sim --network` names.
fn networks() -> Vec<(&'static str, NetworkTopology)> {
    let res = InputRes::Imagenet;
    vec![
        ("alexnet", zoo::alexnet(res)),
        ("vgg16", zoo::vgg16(res)),
        ("resnet18", zoo::resnet18(res)),
        ("resnet50", zoo::resnet50(res)),
        ("inception", zoo::inception_v3(res)),
        ("mobilenet", zoo::mobilenet_v2(res)),
        ("lenet5", zoo::lenet5()),
    ]
}

/// 64-bit FNV-1a.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn digest_lines() -> String {
    let accel = ArchConfig::builder().build();
    networks()
        .iter()
        .map(|(name, net)| {
            let report = SimSession::new(&accel, net).seed(SEED).run().unwrap().into_report();
            let json = report.to_report().to_json_string();
            format!("{name} {:016x}\n", fnv1a(json.as_bytes()))
        })
        .collect()
}

#[test]
fn zoo_network_sim_reports_match_golden_digests() {
    let got = digest_lines();
    let path = golden_path();
    if std::env::var("DRQ_UPDATE_GOLDENS").is_ok() {
        std::fs::write(&path, &got).unwrap();
        return;
    }
    let want = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden {} ({e}); run with DRQ_UPDATE_GOLDENS=1 to create it",
            path.display()
        )
    });
    for (g, w) in got.lines().zip(want.lines()) {
        assert_eq!(g, w, "network_sim report digest drifted from the golden file");
    }
    assert_eq!(got.lines().count(), want.lines().count(), "golden network list changed");
}
