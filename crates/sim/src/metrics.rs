//! The single aggregation + serialization path for simulation results.
//!
//! Every number a report accessor returns and every number the versioned
//! [`Report`] JSON contains flows through the functions in this module, so
//! the two can never disagree: `NetworkSimReport::total_cycles()` and the
//! `"total_cycles"` key of `NetworkSimReport::to_report()` are the same
//! computation. The schema (key names, nesting) is defined here and only
//! here.
//!
//! Schema (`kind: "network_sim"`, version [`drq_telemetry::SCHEMA_VERSION`]):
//!
//! ```json
//! {"schema":"drq-metrics","schema_version":1,"kind":"network_sim",
//!  "network":"lenet5","seed":42,"frequency_mhz":500,
//!  "total_cycles":..., "total_ms":..., "stall_ratio":..., "int4_fraction":...,
//!  "cycles":{...}, "energy_pj":{"dram":..,"buffer":..,"core":..,"total":..},
//!  "layers":[{"name":..,"block":..,"sensitive_fraction":..,
//!             "total_cycles":..,"stall_ratio":..,"int4_fraction":..,
//!             "cycles":{..},"energy_pj":{..}}, ...],
//!  "blocks":{"B1":{"int4_cycles":..,"int8_cycles":..,
//!                  "weight_load_cycles":..,"fill_cycles":..}, ...}}
//! ```

use crate::{EnergyBreakdown, LayerCycles, LayerReport, NetworkSimReport, ReliabilityReport};
use drq_telemetry::{Json, Report};
use std::collections::BTreeMap;

/// Sums the per-layer cycle counters (the canonical network total).
pub(crate) fn total_layer_cycles(layers: &[LayerReport]) -> LayerCycles {
    let mut c = LayerCycles::default();
    for l in layers {
        c.merge(&l.cycles);
    }
    c
}

/// Sums the per-layer energy breakdowns.
pub(crate) fn total_energy(layers: &[LayerReport]) -> EnergyBreakdown {
    layers.iter().map(|l| l.energy).fold(EnergyBreakdown::default(), |a, b| a + b)
}

/// Per-block cycle decomposition (Fig. 16's utilization view):
/// `block → [int4 compute, int8 compute, weight load, fill]` cycles.
pub(crate) fn block_breakdown(layers: &[LayerReport]) -> BTreeMap<String, [u64; 4]> {
    let mut map: BTreeMap<String, [u64; 4]> = BTreeMap::new();
    for l in layers {
        let e = map.entry(l.block.clone()).or_default();
        e[0] += l.cycles.int4_steps;
        e[1] += l.cycles.int8_steps * 4;
        e[2] += l.cycles.weight_load_cycles;
        e[3] += l.cycles.fill_cycles;
    }
    map
}

/// Serializes an energy breakdown under the schema's `energy_pj` keys.
pub fn energy_json(e: &EnergyBreakdown) -> Json {
    Json::obj([
        ("dram", Json::F64(e.dram_pj)),
        ("buffer", Json::F64(e.buffer_pj)),
        ("core", Json::F64(e.core_pj)),
        ("total", Json::F64(e.total_pj())),
    ])
}

/// Serializes a cycle breakdown under the schema's `cycles` keys.
pub fn cycles_json(c: &LayerCycles) -> Json {
    Json::obj([
        ("compute", Json::U64(c.compute_cycles)),
        ("fill", Json::U64(c.fill_cycles)),
        ("weight_load", Json::U64(c.weight_load_cycles)),
        ("weight_load_raw", Json::U64(c.weight_load_raw_cycles)),
        ("stall_pe", Json::U64(c.stall_pe_cycles)),
        ("int4_steps", Json::U64(c.int4_steps)),
        ("int8_steps", Json::U64(c.int8_steps)),
        ("int4_macs", Json::U64(c.int4_macs)),
        ("int8_macs", Json::U64(c.int8_macs)),
    ])
}

/// Serializes one layer report as a schema object.
pub fn layer_json(l: &LayerReport) -> Json {
    Json::obj([
        ("name", Json::str(&l.name)),
        ("block", Json::str(&l.block)),
        ("sensitive_fraction", Json::F64(l.sensitive_fraction)),
        ("total_cycles", Json::U64(l.cycles.total_cycles())),
        ("stall_ratio", Json::F64(l.cycles.stall_ratio())),
        ("int4_fraction", Json::F64(l.cycles.int4_fraction())),
        ("cycles", cycles_json(&l.cycles)),
        ("energy_pj", energy_json(&l.energy)),
    ])
}

fn blocks_json(layers: &[LayerReport]) -> Json {
    Json::Object(
        block_breakdown(layers)
            .into_iter()
            .map(|(block, [int4, int8, load, fill])| {
                (
                    block,
                    Json::obj([
                        ("int4_cycles", Json::U64(int4)),
                        ("int8_cycles", Json::U64(int8)),
                        ("weight_load_cycles", Json::U64(load)),
                        ("fill_cycles", Json::U64(fill)),
                    ]),
                )
            })
            .collect(),
    )
}

/// Builds the `kind: "network_sim"` report for a network run. This is the
/// payload behind [`NetworkSimReport::to_report`].
pub fn network_report(r: &NetworkSimReport) -> Report {
    let totals = total_layer_cycles(&r.layers);
    let energy = total_energy(&r.layers);
    let mut rep = Report::new("network_sim");
    rep.push("network", Json::str(&r.network))
        .push("seed", Json::U64(r.seed))
        .push("frequency_mhz", Json::F64(r.frequency_mhz))
        .push("total_cycles", Json::U64(totals.total_cycles()))
        .push("total_ms", Json::F64(totals.total_cycles() as f64 / (r.frequency_mhz * 1e3)))
        .push("stall_ratio", Json::F64(totals.stall_ratio()))
        .push("int4_fraction", Json::F64(totals.int4_fraction()))
        .push("cycles", cycles_json(&totals))
        .push("energy_pj", energy_json(&energy))
        .push("layers", Json::arr(r.layers.iter().map(layer_json)))
        .push("blocks", blocks_json(&r.layers));
    rep
}

/// Builds the `kind: "reliability"` report for a fault-injected run. This
/// is the payload behind [`ReliabilityReport::to_report`].
pub fn reliability_report(r: &ReliabilityReport) -> Report {
    let rules = r.plan.to_json().get("rules").cloned().unwrap_or(Json::Array(Vec::new()));
    let mut rep = Report::new("reliability");
    rep.push("network", Json::str(&r.report.network))
        .push("seed", Json::U64(r.report.seed))
        .push("fault_seed", Json::U64(r.plan.seed))
        .push("rules", rules)
        .push("baseline_cycles", Json::U64(r.baseline_cycles))
        .push("degraded_cycles", Json::U64(r.degraded_cycles))
        .push("slowdown", Json::F64(r.slowdown()))
        .push("extra_dram_pj", Json::F64(r.extra_dram_pj))
        .push("total_ms", Json::F64(r.report.total_ms()))
        .push("int4_fraction", Json::F64(r.report.int4_fraction()))
        .push("faults", r.counters.to_json());
    rep
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ArchConfig, DrqAccelerator};
    use drq_models::zoo;

    #[test]
    fn accessors_agree_with_schema_values() {
        let accel = DrqAccelerator::new(ArchConfig::paper_default());
        let r = accel.session(&zoo::lenet5()).seed(3).run().unwrap().into_report();
        let rep = r.to_report();
        assert_eq!(
            rep.get("total_cycles").and_then(Json::as_u64),
            Some(r.total_cycles())
        );
        assert_eq!(
            rep.get("stall_ratio").and_then(Json::as_f64),
            Some(r.stall_ratio())
        );
        assert_eq!(
            rep.get("int4_fraction").and_then(Json::as_f64),
            Some(r.int4_fraction())
        );
        assert_eq!(
            rep.get("energy_pj").and_then(|e| e.get("total")).and_then(Json::as_f64),
            Some(r.total_energy().total_pj())
        );
        match rep.get("layers") {
            Some(Json::Array(layers)) => assert_eq!(layers.len(), r.layers.len()),
            other => panic!("layers not an array: {other:?}"),
        }
    }

    #[test]
    fn block_schema_matches_breakdown_accessor() {
        let accel = DrqAccelerator::new(ArchConfig::paper_default());
        let r = accel
            .session(&zoo::resnet18(zoo::InputRes::Cifar))
            .seed(5)
            .run()
            .unwrap()
            .into_report();
        let rep = r.to_report();
        for (block, [int4, int8, load, fill]) in r.block_breakdown() {
            let b = rep.get("blocks").and_then(|v| v.get(&block)).unwrap();
            assert_eq!(b.get("int4_cycles").and_then(Json::as_u64), Some(int4));
            assert_eq!(b.get("int8_cycles").and_then(Json::as_u64), Some(int8));
            assert_eq!(b.get("weight_load_cycles").and_then(Json::as_u64), Some(load));
            assert_eq!(b.get("fill_cycles").and_then(Json::as_u64), Some(fill));
        }
    }
}
