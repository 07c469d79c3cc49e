//! The OLAccel baseline: outlier-aware low-precision computation.

use crate::{AccelReport, Accelerator};
use drq_models::NetworkTopology;
use drq_sim::{EnergyBreakdown, EnergyModel};

/// OLAccel model (Park et al., ISCA 2018; Table II row 3).
///
/// 2448 INT4 MACs handle the dense (sub-threshold) values; 51 INT16 MACs
/// handle the ~3 % outliers, running in parallel with the dense array. Per
/// the paper, the *first layer* executes entirely on the INT16 units, and
/// the architecture is "designed more towards a GPU processing style
/// requiring each PE to fetch weight and activation from the local register
/// file every cycle", which shows up as a per-MAC register-file energy
/// charge (Section VI-A).
///
/// # Examples
///
/// ```
/// use drq_baselines::{Accelerator, OlAccel};
/// use drq_models::zoo;
///
/// let r = OlAccel::new().simulate(&zoo::lenet5(), 0);
/// assert!(r.total_cycles > 0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OlAccel {
    int4_units: u64,
    int16_units: u64,
    outlier_ratio: f64,
    mapping_efficiency: f64,
    energy: EnergyModel,
}

impl OlAccel {
    /// The Table II configuration: 2448 INT4 + 51 INT16 MACs, 3 % outliers.
    pub fn new() -> Self {
        Self {
            int4_units: 2448,
            int16_units: 51,
            outlier_ratio: 0.03,
            mapping_efficiency: 0.9,
            energy: EnergyModel::tsmc45(),
        }
    }
}

impl Default for OlAccel {
    fn default() -> Self {
        Self::new()
    }
}

impl Accelerator for OlAccel {
    fn name(&self) -> &str {
        "OLAccel"
    }

    fn simulate(&self, net: &NetworkTopology, _seed: u64) -> AccelReport {
        let dense_tp = self.int4_units as f64 * self.mapping_efficiency;
        let outlier_tp = self.int16_units as f64 * self.mapping_efficiency;
        let mut total = 0u64;
        let mut energy = EnergyBreakdown::default();
        let mut layer_cycles = Vec::with_capacity(net.layers.len());
        const STREAM_BYTES_PER_CYCLE: f64 = 288.0;
        for (i, l) in net.layers.iter().enumerate() {
            let macs = l.macs();
            // Dense weights are INT4 (0.5 B), outliers INT16 (2 B).
            let stream_bound = (l.weight_count() as f64
                * (0.5 * (1.0 - self.outlier_ratio) + 2.0 * self.outlier_ratio)
                / STREAM_BYTES_PER_CYCLE)
                .ceil() as u64;
            let (dense_macs, outlier_macs, cycles) = if i == 0 {
                // First layer entirely on the INT16 units.
                let c = ((macs as f64 / outlier_tp).ceil() as u64).max(stream_bound);
                (0u64, macs, c)
            } else {
                let outlier = (macs as f64 * self.outlier_ratio) as u64;
                let dense = macs - outlier;
                // Dense and outlier arrays run concurrently; the slower one
                // bounds the layer.
                let c = ((dense as f64 / dense_tp)
                    .max(outlier as f64 / outlier_tp)
                    .ceil() as u64)
                    .max(stream_bound);
                (dense, outlier, c)
            };
            total += cycles;
            layer_cycles.push((l.name.clone(), cycles));

            // DRAM: dense weights INT4 (0.5 B), outlier weights INT16 (2 B);
            // activations INT4-dominant. This is why the paper notes DRQ
            // spends *more* DRAM energy than OLAccel on weights.
            let w = l.weight_count() as f64;
            let dram_bytes = w * (1.0 - self.outlier_ratio) * 0.5
                + w * self.outlier_ratio * 2.0
                + drq_sim::dram_activation_bytes(
                    l.input_count() as f64 * 0.5,
                    l.output_count() as f64 * 0.5,
                    5.0 * 1024.0 * 1024.0,
                );
            // GPU-style operand staging through the buffer hierarchy.
            let buffer_bytes =
                w * 0.5 + l.input_count() as f64 * 0.5 * 2.0 + l.output_count() as f64 * 2.0;
            // Register-file penalty: two operand fetches per MAC.
            let rf_pj = macs as f64 * 2.0 * self.energy.rf_pj_per_access();
            energy.merge(&EnergyBreakdown {
                dram_pj: dram_bytes * self.energy.dram_pj_per_byte(),
                buffer_pj: buffer_bytes * self.energy.buffer_pj_per_byte(),
                core_pj: self.energy.core_macs_pj(dense_macs, 0, outlier_macs) + rf_pj,
            });
        }
        AccelReport {
            accelerator: self.name().to_string(),
            network: net.name.clone(),
            total_cycles: total,
            energy,
            layer_cycles,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::BitFusion;
    use drq_models::zoo::{self, InputRes};

    #[test]
    fn beats_int8_bitfusion_on_deep_networks() {
        // Paper Fig. 12a: OLAccel ahead of BitFusion (INT8) thanks to the
        // INT4-dominant computation.
        let net = zoo::resnet18(InputRes::Cifar);
        let ol = OlAccel::new().simulate(&net, 0);
        let bf = BitFusion::new().simulate(&net, 0);
        assert!(ol.total_cycles < bf.total_cycles);
    }

    #[test]
    fn first_layer_runs_on_int16_units() {
        let net = zoo::resnet18(InputRes::Cifar);
        let ol = OlAccel::new().simulate(&net, 0);
        // First layer throughput is 51 MACs/cycle vs 2448: its share of
        // cycles far exceeds its share of MACs.
        let first_macs = net.layers[0].macs() as f64 / net.total_macs() as f64;
        let first_cycles = ol.layer_cycles[0].1 as f64 / ol.total_cycles as f64;
        assert!(first_cycles > 4.0 * first_macs, "{first_cycles} vs {first_macs}");
    }

    #[test]
    fn outlier_units_bound_dense_layers() {
        // With 3 % outliers on 51 units vs 97 % on 2448, the outlier array
        // is the bottleneck: effective throughput ≈ 51/0.03 = 1700 < 2448.
        let net = zoo::vgg16(InputRes::Cifar);
        let ol = OlAccel::new().simulate(&net, 0);
        let eff = net.total_macs() as f64 / ol.total_cycles as f64;
        assert!(eff < 1800.0, "{eff}");
        assert!(eff > 1000.0, "{eff}");
    }

    #[test]
    fn rf_penalty_shows_in_core_energy() {
        let net = zoo::lenet5();
        let ol = OlAccel::new().simulate(&net, 0);
        let macs = net.total_macs() as f64;
        let e = EnergyModel::tsmc45();
        // Core energy must exceed the pure-MAC energy by at least the RF
        // charges.
        assert!(ol.energy.core_pj > macs * 2.0 * e.rf_pj_per_access());
    }

    #[test]
    fn zero_outlier_ratio_is_pure_int4() {
        let net = zoo::lenet5();
        let ol = OlAccel { outlier_ratio: 0.0, ..OlAccel::new() }.simulate(&net, 0);
        let with = OlAccel::new().simulate(&net, 0);
        assert!(ol.total_cycles <= with.total_cycles);
    }
}
