//! The simulator-backed candidate evaluator.
//!
//! One [`SharedSession`] carries everything candidate-invariant — the
//! network, the seed, the simulation worker cap, and a three-level memo of
//! each layer's region sums (by layer, synthesizer and effective region),
//! masks (by those sums and the effective threshold) and cycle counts (by
//! array geometry). A candidate synthesizes a layer only if no earlier
//! candidate of the session met the same (layer, region), steps the
//! cached sums only for a new threshold, and runs the cycle model only for
//! a new (mask key, geometry) pair. On the paper grid with ResNet-18 that
//! is 45 syntheses, 315 mask builds and 945 cycle builds for 189
//! candidates, which leaves most candidates paying for just their
//! per-layer energy and traffic, the one pass the buffer size and energy
//! model enter. The memo lives as long as the evaluator.
//! The session is `Sync`, so the same instance serves every `par_map`
//! worker of a leaf batch; reports are byte-identical to per-candidate
//! [`drq_sim::SimSession`] runs (pinned by `tests/dse_session_reuse.rs`).
//!
//! **Objectives.** Latency and energy come straight from the cycle
//! simulator ([`drq_sim::NetworkSimReport::total_cycles`] /
//! [`drq_sim::NetworkSimReport::total_energy`]). Accuracy uses the
//! analytic proxy [`SimSpaceEval::accuracy_proxy`]: the repo's trainable
//! stand-ins are far smaller than the paper topologies being simulated, so
//! the proxy models the paper's Fig. 9 trend instead — quantization noise
//! grows with the sensitivity threshold (more of the map forced to INT4)
//! and with region area (coarser regions drag sensitive pixels down with
//! insensitive neighbours). The proxy is monotone in both axes, which is
//! what makes the per-box accuracy bound exact.
//!
//! **Optimistic bounds.** Region cutting needs objectives at least as good
//! as *any* candidate in a box:
//!
//! * accuracy — the proxy at the box's smallest threshold and smallest
//!   region area (axes are sorted, proxy is monotone decreasing in both);
//! * latency — `total_macs.div_ceil(max PEs in box)`: the cycle model's
//!   compute term is `(int4 + 4·int8 macs).div_ceil(PEs)` per layer, so
//!   even an all-INT4 run with zero fill/stall/load cycles cannot beat
//!   the aggregate peak rate;
//! * energy — `total_macs × mac_pj(INT4)`: every MAC costs at least the
//!   INT4 rate, and buffer/DRAM/register traffic only adds.
//!
//! These are loose (a real run pays fill and weight-load cycles), so on
//! the simulator most pruning comes from dominance; the bounds exist to
//! stay *sound* — the front is provably identical to exhaustive
//! evaluation, which the property suite checks against a naive oracle.

use super::front::Objectives;
use super::search::{CandidateBox, CandidateEval};
use super::space::{Candidate, CandidateSpace};
use drq_core::{DrqConfig, RegionSize};
use drq_models::NetworkTopology;
use drq_quant::Precision;
use drq_sim::{ArchConfig, EnergyModel, NetworkSimReport, Partitions, SharedSession};

/// Scores candidates on the cycle simulator through one shared session.
pub struct SimSpaceEval<'n> {
    session: SharedSession<'n>,
    energy: EnergyModel,
    total_macs: u64,
}

impl<'n> SimSpaceEval<'n> {
    /// Builds the evaluator: the shared session and its memo are created
    /// once here and reused by every candidate.
    pub fn new(net: &'n NetworkTopology, partitions: impl Into<Partitions>, seed: u64) -> Self {
        Self {
            session: SharedSession::new(net, partitions).seed(seed),
            energy: EnergyModel::tsmc45(),
            total_macs: net.total_macs(),
        }
    }

    /// The shared session driving the simulations.
    pub fn session(&self) -> &SharedSession<'n> {
        &self.session
    }

    /// Builds a candidate's accelerator and runs the shared session on it.
    pub fn simulate(&self, c: &Candidate) -> NetworkSimReport {
        let accel = ArchConfig::builder()
            .geometry(c.geometry.pages, c.geometry.rows, c.geometry.cols)
            .global_buffer_bytes(c.buffer_bytes)
            .drq(DrqConfig::new(c.region, c.threshold))
            .build();
        self.session.simulate(&accel)
    }

    /// The analytic accuracy proxy (see the [module docs](self)):
    /// `1 / (1 + noise)` with
    /// `noise = (threshold/127) · (0.25 + 0.75 · ln(area)/ln(4096))`,
    /// both factors clamped to `[0, 1]`. Monotone non-increasing in the
    /// threshold and in the region area; 1.0 at threshold 0 (everything
    /// INT8, i.e. the baseline precision).
    pub fn accuracy_proxy(threshold: f32, region: RegionSize) -> f64 {
        let t = (f64::from(threshold) / 127.0).clamp(0.0, 1.0);
        let area = (region.area() as f64).max(1.0);
        let coarseness = (area.ln() / 4096f64.ln()).clamp(0.0, 1.0);
        1.0 / (1.0 + t * (0.25 + 0.75 * coarseness))
    }
}

impl CandidateEval for SimSpaceEval<'_> {
    fn evaluate(&self, c: &Candidate) -> Result<Objectives, String> {
        let report = self.simulate(c);
        Ok(Objectives {
            accuracy: Self::accuracy_proxy(c.threshold, c.region),
            latency_cycles: report.total_cycles(),
            energy_pj: report.total_energy().total_pj(),
        })
    }

    fn optimistic_bound(&self, space: &CandidateSpace, bx: &CandidateBox) -> Option<Objectives> {
        let best_threshold = space.thresholds()[bx.lo[2]];
        let smallest_region = space.regions()[bx.lo[1]];
        let max_pes = space.geometries()[bx.hi[0] - 1].total_pes() as u64;
        Some(Objectives {
            accuracy: Self::accuracy_proxy(best_threshold, smallest_region),
            latency_cycles: self.total_macs.div_ceil(max_pes),
            energy_pj: self.total_macs as f64 * self.energy.mac_pj(Precision::Int4),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pareto::{CandidateBox, Geometry};
    use drq_models::zoo;
    use std::sync::{Mutex, MutexGuard, PoisonError};

    fn space() -> CandidateSpace {
        CandidateSpace::try_new(
            vec![Geometry::new(8, 18, 11), Geometry::new(16, 18, 11)],
            vec![RegionSize::new(4, 4), RegionSize::new(4, 16)],
            vec![0.5, 21.0, 127.0],
            vec![5 * 1024 * 1024],
        )
        .unwrap()
    }

    #[test]
    fn accuracy_proxy_is_monotone() {
        let r = RegionSize::new(4, 16);
        assert!(SimSpaceEval::accuracy_proxy(0.0, r) == 1.0);
        assert!(
            SimSpaceEval::accuracy_proxy(0.5, r) > SimSpaceEval::accuracy_proxy(21.0, r),
            "higher threshold quantizes more, costing accuracy"
        );
        assert!(
            SimSpaceEval::accuracy_proxy(21.0, RegionSize::new(2, 2))
                > SimSpaceEval::accuracy_proxy(21.0, RegionSize::new(16, 16)),
            "coarser regions cost accuracy"
        );
    }

    /// Serializes the tests that run a shared session, so the one that
    /// counts `sim/memo/*` under the process-global telemetry switch sees
    /// only its own lookups.
    fn session_lock() -> MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(PoisonError::into_inner)
    }

    #[test]
    fn bound_is_optimistic_for_every_candidate_in_the_box() {
        let _own = session_lock();
        let net = zoo::lenet5();
        let eval = SimSpaceEval::new(&net, Partitions::Auto, 42);
        let s = space();
        let bx = CandidateBox::full(&s);
        let bound = eval.optimistic_bound(&s, &bx).unwrap();
        for i in bx.candidate_indices(&s) {
            let c = s.candidate(i);
            let obj = eval.evaluate(&c).unwrap();
            assert!(bound.accuracy >= obj.accuracy, "accuracy bound broken at {i}");
            assert!(bound.latency_cycles <= obj.latency_cycles, "latency bound broken at {i}");
            assert!(bound.energy_pj <= obj.energy_pj, "energy bound broken at {i}");
        }
    }

    #[test]
    fn evaluation_matches_a_dedicated_session() {
        use drq_sim::SimSession;
        let _own = session_lock();
        let net = zoo::lenet5();
        let eval = SimSpaceEval::new(&net, Partitions::Auto, 42);
        let c = space().candidate(3);
        let via_shared = eval.simulate(&c);
        let accel = ArchConfig::builder()
            .geometry(c.geometry.pages, c.geometry.rows, c.geometry.cols)
            .global_buffer_bytes(c.buffer_bytes)
            .drq(DrqConfig::new(c.region, c.threshold))
            .build();
        let dedicated =
            SimSession::new(&accel, &net).seed(42).run().unwrap().into_report();
        assert_eq!(via_shared, dedicated);
    }

    #[test]
    fn lenet5_paper_grid_builds_each_mask_and_cycle_set_once() {
        // LeNet-5 has 5 layers. The two convs see all 3 regions x 7
        // thresholds; the three 1x1 FC inputs fold every region to 1x1, so
        // only the 7 thresholds tell them apart: 2*21 + 3*7 = 63 mask sets,
        // each met at all 3 geometries. Their region sums ignore the
        // threshold: 2*3 + 3*1 = 9 syntheses, each looked up by the 7
        // mask builds of its thresholds (9 builds, 63 - 9 = 54 hits).
        let _own = session_lock();
        let net = zoo::lenet5();
        let space = CandidateSpace::paper_grid();
        let count = |threads: usize| {
            drq_tensor::parallel::set_max_threads(threads);
            drq_telemetry::reset();
            drq_telemetry::enable();
            let eval = SimSpaceEval::new(&net, Partitions::Auto, 42);
            drq_tensor::parallel::par_map(space.len(), |i| eval.simulate(&space.candidate(i)));
            let snap = drq_telemetry::snapshot();
            drq_telemetry::disable();
            drq_telemetry::reset();
            drq_tensor::parallel::set_max_threads(0);
            ["sum_builds", "sum_hits", "mask_builds", "mask_hits", "cycle_builds", "cycle_hits"]
                .map(|k| snap.counter(&format!("sim/memo/{k}")))
        };
        let one = count(1);
        let lookups = (space.len() * net.layers.len()) as u64;
        assert_eq!(one, [9, 54, 63, lookups - 63, 189, lookups - 189]);
        assert_eq!(count(2), one, "memo counts depend on the thread count");
    }
}
