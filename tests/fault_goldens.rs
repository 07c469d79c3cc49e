//! Byte goldens of faulted output.
//!
//! The other fault suites replay a plan twice inside one build, which
//! catches nondeterminism but not drift: a change to the plan engine's draw
//! order moves every faulted byte in lockstep and still replays. These
//! goldens pin the bytes themselves across builds:
//!
//! * `tests/goldens/reliability_lenet5_seed42_smoke.json` — the
//!   `kind:"reliability"` report of LeNet-5 at session seed 42 under the
//!   built-in smoke plan (network tier, bulk draws);
//! * `tests/goldens/fault_schedules.txt` — FNV-1a digests of a multi-rule
//!   exact-tier `drq_testkit::exact::SystolicArray::simulate_faulted` trace
//!   plus its counters, and of a fixed `FaultyStorage` schedule over
//!   `MemStorage` that fires every I/O fault site (per-operation results,
//!   counters, final bytes).
//!
//! Regenerate intentionally with
//! `DRQ_UPDATE_GOLDENS=1 cargo test --test fault_goldens`.

use drq::models::zoo;
use drq::sim::{smoke_fault_plan, ArchConfig, FaultInjector, FaultPlan, FaultSite};
use drq::store::{FaultyStorage, IoFaultPlan, IoFaultSite, MemStorage, Storage};
use drq::tensor::XorShiftRng;
use drq_testkit::exact::{StreamElement, SystolicArray};
use std::fmt::Write as _;
use std::path::PathBuf;

fn golden(name: &str) -> PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/goldens").join(name)
}

/// Compares `got` with the golden file, or rewrites it under
/// `DRQ_UPDATE_GOLDENS`.
fn check_golden(name: &str, got: &str) {
    let path = golden(name);
    if std::env::var("DRQ_UPDATE_GOLDENS").is_ok() {
        std::fs::write(&path, got).unwrap();
        return;
    }
    let want = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden {} ({e}); run with DRQ_UPDATE_GOLDENS=1 to create it",
            path.display()
        )
    });
    assert_eq!(got, want, "faulted output drifted from {}", path.display());
}

/// 64-bit FNV-1a.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

#[test]
fn smoke_reliability_report_matches_golden_bytes() {
    let net = zoo::lenet5();
    let rel = ArchConfig::builder()
        .build()
        .session(&net)
        .seed(42)
        .faults(smoke_fault_plan())
        .run()
        .unwrap()
        .into_reliability()
        .unwrap();
    assert!(rel.counters.total() > 0, "the smoke plan must inject something");
    let mut got = rel.to_report().to_json_string();
    got.push('\n');
    check_golden("reliability_lenet5_seed42_smoke.json", &got);
}

/// The exact-tier trace of a 6×5 array over 40 steps under a plan that
/// touches every array site, mixes pinned and drawn bits, stacks two rules
/// on one site and carries a layer-scoped rule the array never matches.
/// Plans are built from JSON text, so the goldens pin the parser too.
fn systolic_schedule() -> String {
    let mut rng = XorShiftRng::new(0x5157);
    let (rows, cols, steps) = (6, 5, 40);
    let weights: Vec<Vec<i32>> = (0..rows)
        .map(|_| (0..cols).map(|_| rng.next_below(255) as i32 - 127).collect())
        .collect();
    let streams: Vec<Vec<StreamElement>> = (0..rows)
        .map(|_| {
            (0..steps)
                .map(|_| {
                    let value = rng.next_below(255) as i32 - 127;
                    StreamElement::new(value, rng.next_f64() < 0.3)
                })
                .collect()
        })
        .collect();
    let plan = FaultPlan::parse(
        r#"{"seed": 24301, "rules": [
            {"site": "line_buffer_stuck_at", "rate": 0.02},
            {"site": "stall_cycle", "rate": 0.1},
            {"site": "pe_weight_register", "rate": 0.01},
            {"site": "pe_activation_register", "rate": 0.01, "bit": 3},
            {"site": "pe_accumulator", "rate": 0.005, "max_events": 4},
            {"site": "stall_cycle", "rate": 0.05, "max_events": 2},
            {"site": "pe_accumulator", "rate": 1.0, "layer": "conv1"}
        ]}"#,
    )
    .unwrap();
    let mut inj = FaultInjector::new(&plan).unwrap();
    let trace = SystolicArray::new(weights).simulate_faulted(&streams, &mut inj).unwrap();
    let counters = inj.counters();
    for site in [
        FaultSite::LineBufferStuckAt,
        FaultSite::StallCycle,
        FaultSite::PeWeightRegister,
        FaultSite::PeActivationRegister,
        FaultSite::PeAccumulator,
    ] {
        assert!(counters.count(site) > 0, "{} never fired", site.name());
    }
    let mut text = format!(
        "cycles {} int8 {} int4 {} stall_pe {}\n",
        trace.cycles, trace.int8_steps, trace.int4_steps, trace.stall_pe_cycles
    );
    for col in &trace.outputs {
        let row: Vec<String> = col.iter().map(i64::to_string).collect();
        writeln!(text, "{}", row.join(" ")).unwrap();
    }
    writeln!(text, "{}", counters.to_json()).unwrap();
    text
}

fn record(log: &mut String, op: &str, path: &str, result: std::io::Result<Vec<u8>>) {
    match result {
        Ok(bytes) => writeln!(log, "{op} {path} ok {}", hex(&bytes)).unwrap(),
        Err(e) => writeln!(log, "{op} {path} err {:?} {e}", e.kind()).unwrap(),
    }
}

/// A fixed commit-like sequence (write temp, fsync, rename, read back)
/// over three paths through a plan that fires every I/O fault site.
fn storage_schedule() -> String {
    let plan = IoFaultPlan::parse(
        r#"{"seed": 4346, "rules": [
            {"site": "torn_write", "rate": 0.3, "path_substr": "ckpt"},
            {"site": "enospc", "rate": 0.2},
            {"site": "short_read", "rate": 0.3, "max_events": 3},
            {"site": "bit_rot", "rate": 0.4},
            {"site": "rename_fail", "rate": 0.3},
            {"site": "fsync_fail", "rate": 0.3, "path_substr": ".tmp"},
            {"site": "torn_write", "rate": 0.2, "max_events": 2}
        ]}"#,
    )
    .unwrap();
    let mem = MemStorage::new();
    let faulty = FaultyStorage::new(mem.clone(), &plan).unwrap();
    let mut log = String::new();
    for i in 0..24usize {
        let path = ["ckpt/front.json", "weights.bin", "metrics.json"][i % 3];
        let tmp = format!("{path}.tmp");
        let data: Vec<u8> = (0..(i * 7) % 50).map(|k| (i * 31 + k * 7) as u8).collect();
        record(&mut log, "write", &tmp, faulty.write(&tmp, &data).map(|()| Vec::new()));
        record(&mut log, "fsync", &tmp, faulty.fsync(&tmp).map(|()| Vec::new()));
        record(&mut log, "rename", path, faulty.rename(&tmp, path).map(|()| Vec::new()));
        record(&mut log, "read", path, faulty.read(path));
    }
    let counters = faulty.counters();
    for site in IoFaultSite::ALL {
        assert!(counters.count(site) > 0, "{} never fired", site.name());
    }
    writeln!(log, "{}", counters.to_json()).unwrap();
    let mut paths = mem.paths();
    paths.sort();
    for path in paths {
        writeln!(log, "final {path} {}", hex(&mem.read(&path).unwrap())).unwrap();
    }
    log
}

#[test]
fn exact_tier_and_storage_fault_schedules_match_golden_digests() {
    let systolic = systolic_schedule();
    let storage = storage_schedule();
    assert_eq!(systolic, systolic_schedule(), "exact-tier schedule does not replay");
    assert_eq!(storage, storage_schedule(), "storage schedule does not replay");
    let got = format!(
        "systolic {:016x}\nstorage {:016x}\n",
        fnv1a(systolic.as_bytes()),
        fnv1a(storage.as_bytes())
    );
    check_golden("fault_schedules.txt", &got);
}
