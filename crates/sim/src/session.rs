//! `SimSession` — the one entry point for network-level simulation.
//!
//! Historically the simulator grew one accelerator method per scenario
//! (plain, traced, batched, faulted), each with its own seed plumbing
//! (the faulted variant took a second seed inside the [`FaultPlan`]) and
//! none of them parallel. A [`SimSession`] subsumes them behind one
//! builder (a batch of images is one run per seed) — the per-scenario
//! methods are gone:
//!
//! ```
//! use drq_sim::{ArchConfig, SimSession};
//! use drq_models::zoo;
//!
//! let accel = ArchConfig::builder().build();
//! let net = zoo::lenet5();
//! let run = SimSession::new(&accel, &net).seed(42).run().unwrap();
//! assert!(run.report().total_cycles() > 0);
//! ```
//!
//! Every run drains a **per-layer work queue**: each layer is one item of
//! a `drq_tensor::parallel` dynamic queue, so a worker that finishes a
//! small layer immediately pulls the next unclaimed one instead of idling
//! behind a precomputed shard. A sequential merge then walks the per-layer
//! results in layer order and stamps each layer's retire cycle with the
//! running sum of per-layer totals. The report, the trace, and any
//! fault-injection result are **byte-identical at every worker count** —
//! `partitions(1)` (one worker, layers in order) is the reference and
//! `partitions(Auto)` must (and does, see `tests/sim_partition.rs`)
//! reproduce it exactly.
//!
//! One session seed derives every stream: layer `i`'s feature-map
//! synthesis draws from `stream_seed(seed, i)` and the fault stream from a
//! reserved index — a [`FaultPlan`] whose own `seed` is `0` inherits the
//! session's derived fault stream, while a non-zero plan seed pins the
//! fault stream independently (so archived plan files replay bit-for-bit).

use crate::memo::{MemoCounts, SessionMemo};
use crate::partition::{stream_seed, Partitions, FAULT_STREAM};
use crate::{
    DramModel, DrqAccelerator, FaultCounters, FaultInjector, FaultPlan, FaultSite, LayerReport,
    NetworkSimReport, ReliabilityReport, SimError,
};
use drq_models::NetworkTopology;
use drq_telemetry::{counter_add, Json, Tracer, NO_FIELDS};
use drq_tensor::parallel;

/// Builder for one network-level simulation run.
///
/// See the `session` module's documentation (in its source) for the
/// design; see
/// [`DrqAccelerator::session`] for a convenience constructor.
pub struct SimSession<'a, 't> {
    accel: &'a DrqAccelerator,
    net: &'a NetworkTopology,
    seed: u64,
    partitions: Partitions,
    tracer: Option<&'t mut Tracer>,
    faults: Option<FaultPlan>,
}

impl<'a, 't> SimSession<'a, 't> {
    /// Starts a session on `accel` simulating `net`, with seed 0, an
    /// automatic worker cap, no tracing and no fault injection.
    pub fn new(accel: &'a DrqAccelerator, net: &'a NetworkTopology) -> Self {
        Self {
            accel,
            net,
            seed: 0,
            partitions: Partitions::Auto,
            tracer: None,
            faults: None,
        }
    }

    /// Sets the session seed. This single value derives the per-layer
    /// feature-map streams *and* (unless the fault plan pins its own seed)
    /// the fault-injection stream.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Records a span/event trace of the run into `tracer`: a `run` span,
    /// one `layer` event per layer stamped with the cycle at which the
    /// layer retires, and one `block` summary event per network block.
    /// Tracing is a pure observer — the simulation result is identical
    /// with or without it.
    pub fn trace(mut self, tracer: &'t mut Tracer) -> Self {
        self.tracer = Some(tracer);
        self
    }

    /// Arms fault injection under `plan`. A plan seed of `0` means "derive
    /// the fault stream from the session seed"; any other value pins the
    /// fault stream so archived plans replay independently of the session.
    pub fn faults(mut self, plan: FaultPlan) -> Self {
        self.faults = Some(plan);
        self
    }

    /// Caps the workers draining the per-layer queue (accepts
    /// [`Partitions`] or a worker count; `0` means auto). Any value
    /// produces byte-identical results — this knob only trades wall-clock
    /// time.
    pub fn partitions(mut self, p: impl Into<Partitions>) -> Self {
        self.partitions = p.into();
        self
    }

    /// Runs the simulation: per-layer queue, deterministic merge, then (if
    /// a plan is armed) the sequential fault post-pass.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::FaultPlan`] if the armed fault plan fails
    /// validation. Clean (un-faulted) sessions cannot fail.
    pub fn run(mut self) -> Result<SimRun, SimError> {
        if let Some(plan) = &self.faults {
            plan.validate()?;
        }
        let report = self.run_baseline();
        let reliability = match self.faults.take() {
            Some(plan) => Some(self.accel.apply_faults(self.net, &report, plan, self.seed)?),
            None => None,
        };
        Ok(SimRun { report, reliability })
    }

    /// The baseline run: per-layer queue, then the merge.
    fn run_baseline(&mut self) -> NetworkSimReport {
        let (accel, net, seed) = (self.accel, self.net, self.seed);
        let n_layers = net.layers.len();

        if let Some(t) = self.tracer.as_deref_mut() {
            t.span_begin(
                0,
                "run",
                [
                    ("network", Json::str(&net.name)),
                    ("seed", Json::U64(seed)),
                    ("layers", Json::U64(n_layers as u64)),
                ],
            );
        }
        let merged = run_layers(accel, net, self.partitions, |i, _| {
            let (masks, frac) = accel.layer_masks(net, seed, i);
            accel.simulate_layer_quiet(&net.layers[i], &masks, frac)
        });
        if let Some(t) = self.tracer.as_deref_mut() {
            for (report, retire) in merged.layers.iter().zip(&merged.retire_cycles) {
                t.event(
                    *retire,
                    format!("layer/{}", report.name),
                    [
                        ("block", Json::str(&report.block)),
                        ("cycles", Json::U64(report.cycles.total_cycles())),
                        ("stall_ratio", Json::F64(report.cycles.stall_ratio())),
                        ("int4_fraction", Json::F64(report.cycles.int4_fraction())),
                        ("sensitive_fraction", Json::F64(report.sensitive_fraction)),
                    ],
                );
            }
            for (block, [int4, int8, load, fill]) in
                crate::metrics::block_breakdown(&merged.layers)
            {
                t.event(
                    merged.total_cycles,
                    format!("block/{block}"),
                    [
                        ("int4_cycles", Json::U64(int4)),
                        ("int8_cycles", Json::U64(int8)),
                        ("weight_load_cycles", Json::U64(load)),
                        ("fill_cycles", Json::U64(fill)),
                    ],
                );
            }
            t.span_end(merged.total_cycles, "run", NO_FIELDS);
        }
        NetworkSimReport {
            network: net.name.clone(),
            seed,
            layers: merged.layers,
            frequency_mhz: accel.config().frequency_mhz,
        }
    }
}

/// A merged run: per-layer reports in execution order, the retire stamp
/// of each layer, the total cycle count, and the memo lookups the layers
/// made.
struct MergedRun {
    layers: Vec<LayerReport>,
    retire_cycles: Vec<u64>,
    total_cycles: u64,
    memo: MemoCounts,
}

/// The per-layer queue + deterministic merge shared by [`SimSession`] and
/// [`SharedSession`]: one `par_map` item per layer on at most
/// `partitions` workers, then a sequential merge in layer order whose
/// running sum of per-layer totals is each layer's retire stamp.
/// `layer(i, counts)` produces layer `i`'s report, which must depend only
/// on `i` — never on which worker asks — so the merged stream is
/// worker-count invariant. Layer telemetry is recorded here, on the merging
/// thread, in execution order — workers stay silent so enabling metrics
/// can never perturb scheduling or produce racy snapshots.
fn run_layers(
    accel: &DrqAccelerator,
    net: &NetworkTopology,
    partitions: Partitions,
    layer: impl Fn(usize, &mut MemoCounts) -> LayerReport + Sync,
) -> MergedRun {
    let n_layers = net.layers.len();
    let outputs = parallel::par_map_capped(n_layers, partitions.resolve(n_layers), |i| {
        let mut memo = MemoCounts::default();
        (layer(i, &mut memo), memo)
    });
    let mut merged = MergedRun {
        layers: Vec::with_capacity(n_layers),
        retire_cycles: Vec::with_capacity(n_layers),
        total_cycles: 0,
        memo: MemoCounts::default(),
    };
    for ((report, memo), spec) in outputs.into_iter().zip(&net.layers) {
        accel.record_layer_metrics(spec, &report);
        merged.total_cycles += report.cycles.total_cycles();
        merged.retire_cycles.push(merged.total_cycles);
        merged.layers.push(report);
        merged.memo.add(&memo);
    }
    merged
}

/// A reusable, accelerator-agnostic simulation session for design-space
/// exploration: the network, seed, and worker cap are fixed once, and
/// [`SharedSession::simulate`] runs any number of candidate accelerators
/// against them from `&self`.
///
/// A design-space search evaluates hundreds of candidates over the *same*
/// network and seed, and most of each candidate's per-layer work repeats
/// an earlier one's. So the session keeps a memo that lives exactly as
/// long as the session, in three levels:
///
/// * **region sums**, keyed by (layer index, synthesizer parameters,
///   effective region from `DrqConfig::for_layer`): the synthesized map
///   reduced to per-channel `i32` sums of INT8 codes, the predictor's
///   threshold-independent stage ([`drq_core::RegionSums`]). The seed is
///   fixed per session, so nothing else reaches the synthesized map. Deep
///   layers fold every base region to the same 2×2 region, so region
///   candidates share their sums there.
/// * **masks**, keyed by (sum key, effective threshold): one compare pass
///   over the cached sums for the layer's sensitive fraction. The entry
///   shares its sums rather than storing mask bits. Only a mask build
///   looks up sums.
/// * **cycles**, one [`crate::LayerCycles`] per array geometry
///   `(rows, cols, pages)`, stored with the mask entry. A cycle build
///   steps the sums into masks ([`drq_core::RegionSums::step`]) for the
///   cycle model.
///
/// Buffer size, frequency and the energy model are deliberately not in
/// any key: they enter neither the masks nor the cycle model, only the
/// per-layer energy and traffic pass, which each `simulate` call still
/// runs for its own accelerator. Every entry is built exactly once, even
/// when `par_map` workers ask for it concurrently. The memo holds
/// `4 · in_c · regions` bytes per distinct sum key, a few words per
/// distinct mask key and one `LayerCycles` per (mask key, geometry); it is
/// freed with the session.
///
/// The session is `Sync`, so one instance can be shared across
/// `drq_tensor::parallel::par_map` workers. Reports are byte-identical to
/// per-candidate [`SimSession`] runs at the same seed (pinned by
/// `tests/dse_session_reuse.rs`): both paths call the same synthesis helper
/// and the same two predictor stages, and the same per-layer queue +
/// merge, which is worker-count invariant. With telemetry on, each call
/// also records its memo lookups as the
/// `sim/memo/{sum,mask,cycle}_{builds,hits}` counters; summed over a
/// session the build counts equal the number of distinct keys, whatever
/// the thread count.
///
/// ```
/// use drq_sim::{ArchConfig, Partitions, SharedSession, SimSession};
/// use drq_models::zoo;
///
/// let net = zoo::lenet5();
/// let shared = SharedSession::new(&net, Partitions::Auto).seed(42);
/// let accel = ArchConfig::builder().build();
/// let a = shared.simulate(&accel);
/// let b = SimSession::new(&accel, &net).seed(42).run().unwrap().into_report();
/// assert_eq!(a, b);
/// ```
pub struct SharedSession<'n> {
    net: &'n NetworkTopology,
    seed: u64,
    partitions: Partitions,
    memo: SessionMemo,
}

impl<'n> SharedSession<'n> {
    /// Builds a session over `net` whose runs use at most `partitions`
    /// workers. Seed defaults to 0.
    pub fn new(net: &'n NetworkTopology, partitions: impl Into<Partitions>) -> Self {
        Self {
            net,
            seed: 0,
            partitions: partitions.into(),
            memo: SessionMemo::new(),
        }
    }

    /// Sets the session seed (same stream derivation as
    /// [`SimSession::seed`]). Starts an empty memo: its entries belong to
    /// one seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self.memo = SessionMemo::new();
        self
    }

    /// The network this session simulates.
    pub fn net(&self) -> &'n NetworkTopology {
        self.net
    }

    /// Runs one clean simulation of a candidate accelerator, reusing every
    /// memoized region sum, mask set and cycle count (see the
    /// [type docs](Self)). Callable from `&self` on any number of threads
    /// concurrently; nested parallel sections run inline, so calling this
    /// from inside a `par_map` never oversubscribes the pool.
    pub fn simulate(&self, accel: &DrqAccelerator) -> NetworkSimReport {
        let merged = run_layers(accel, self.net, self.partitions, |i, counts| {
            self.memo.layer_report(accel, self.net, self.seed, i, counts)
        });
        merged.memo.record();
        NetworkSimReport {
            network: self.net.name.clone(),
            seed: self.seed,
            layers: merged.layers,
            frequency_mhz: accel.config().frequency_mhz,
        }
    }
}

impl DrqAccelerator {
    /// Starts a [`SimSession`] on this accelerator (equivalent to
    /// [`SimSession::new`]).
    pub fn session<'a>(&'a self, net: &'a NetworkTopology) -> SimSession<'a, 'static> {
        SimSession::new(self, net)
    }

    /// The sequential fault post-pass: samples fault events per layer in
    /// execution order from the plan's seeded stream. Runs after the
    /// baseline on the calling thread — the event stream depends only on
    /// `(plan, per-layer reports)`, both worker-count invariant, so faulted
    /// runs replay bit-for-bit at any worker cap.
    fn apply_faults(
        &self,
        net: &NetworkTopology,
        baseline: &NetworkSimReport,
        mut plan: FaultPlan,
        session_seed: u64,
    ) -> Result<ReliabilityReport, SimError> {
        if plan.seed == 0 && !plan.is_empty() {
            // One session seed derives every stream: an unpinned plan
            // inherits the session's reserved fault stream.
            let derived = stream_seed(session_seed, FAULT_STREAM);
            plan.seed = if derived == 0 { 1 } else { derived };
        }
        let baseline_cycles = baseline.total_cycles();
        if plan.is_empty() {
            return Ok(ReliabilityReport {
                report: baseline.clone(),
                plan,
                counters: FaultCounters::default(),
                baseline_cycles,
                degraded_cycles: baseline_cycles,
                extra_dram_pj: 0.0,
            });
        }
        let mut inj = FaultInjector::new(&plan)?;
        let dram_pj_per_byte = self.energy_model().dram_pj_per_byte();
        let mut extra_cycles = 0u64;
        let mut extra_dram_pj = 0.0;
        for (spec, layer) in net.layers.iter().zip(&baseline.layers) {
            let name = Some(layer.name.as_str());
            extra_cycles +=
                inj.draw_count(FaultSite::StallCycle, name, layer.cycles.compute_cycles);
            let bursts = DramModel::bursts_for_bytes(layer.energy.dram_pj / dram_pj_per_byte);
            let drops = inj.draw_count(FaultSite::DramBurstDrop, name, bursts);
            let dups = inj.draw_count(FaultSite::DramBurstDuplicate, name, bursts);
            extra_dram_pj +=
                (drops + dups) as f64 * DramModel::BURST_BYTES as f64 * dram_pj_per_byte;
            let macs = layer.cycles.int4_macs + layer.cycles.int8_macs;
            inj.draw_count(FaultSite::PeAccumulator, name, macs);
            inj.draw_count(FaultSite::PeWeightRegister, name, macs);
            inj.draw_count(FaultSite::PeActivationRegister, name, macs);
            inj.draw_count(FaultSite::LineBufferStuckAt, name, spec.input_count() as u64);
        }
        let counters = inj.counters();
        for site in FaultSite::ALL {
            let n = counters.count(site);
            if n > 0 {
                counter_add!(&format!("sim/faults/{}", site.name()), n);
            }
        }
        Ok(ReliabilityReport {
            report: baseline.clone(),
            plan,
            counters,
            baseline_cycles,
            degraded_cycles: baseline_cycles + extra_cycles,
            extra_dram_pj,
        })
    }
}

/// Result of a [`SimSession`] run: the baseline network report plus, when
/// fault injection was armed, the reliability view.
#[derive(Debug, Clone, PartialEq)]
pub struct SimRun {
    report: NetworkSimReport,
    reliability: Option<ReliabilityReport>,
}

impl SimRun {
    /// The baseline simulation report (always present; identical to the
    /// un-faulted run even when a fault plan was armed).
    pub fn report(&self) -> &NetworkSimReport {
        &self.report
    }

    /// The reliability view, present iff the session armed a fault plan
    /// (even an empty one — an empty plan yields zero counters and a
    /// byte-identical embedded report).
    pub fn reliability(&self) -> Option<&ReliabilityReport> {
        self.reliability.as_ref()
    }

    /// Consumes the run, returning the baseline report.
    pub fn into_report(self) -> NetworkSimReport {
        self.report
    }

    /// Consumes the run, returning the reliability report (if faults were
    /// armed).
    pub fn into_reliability(self) -> Option<ReliabilityReport> {
        self.reliability
    }

    /// Serializes the run under the versioned schema: `kind:"reliability"`
    /// when fault injection was armed, the byte-stable
    /// `kind:"network_sim"` report otherwise.
    pub fn to_report(&self) -> drq_telemetry::Report {
        match &self.reliability {
            Some(rel) => rel.to_report(),
            None => self.report.to_report(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{smoke_fault_plan, ArchConfig, FaultRule};
    use drq_models::zoo;

    fn accel() -> DrqAccelerator {
        ArchConfig::builder().build()
    }

    #[test]
    fn partition_counts_are_byte_invariant() {
        let accel = accel();
        let net = zoo::resnet18(zoo::InputRes::Cifar);
        let single = SimSession::new(&accel, &net)
            .seed(42)
            .partitions(Partitions::Single)
            .run()
            .unwrap();
        for p in [Partitions::Fixed(2), Partitions::Fixed(5), Partitions::Auto] {
            let run = SimSession::new(&accel, &net).seed(42).partitions(p).run().unwrap();
            assert_eq!(run, single, "partitions={p}");
            assert_eq!(
                run.to_report().to_json_string(),
                single.to_report().to_json_string(),
                "bytes drifted at partitions={p}"
            );
        }
    }

    #[test]
    fn traces_are_partition_invariant_and_match_layer_order() {
        let accel = accel();
        let net = zoo::lenet5();
        let mut t1 = Tracer::new();
        let mut t4 = Tracer::new();
        let a = SimSession::new(&accel, &net).seed(4).partitions(1).trace(&mut t1).run().unwrap();
        let b = SimSession::new(&accel, &net).seed(4).partitions(4).trace(&mut t4).run().unwrap();
        assert_eq!(a, b);
        assert_eq!(t1.to_jsonl(), t4.to_jsonl());
        let layer_events: Vec<_> =
            t1.events().iter().filter(|e| e.name.starts_with("layer/")).collect();
        assert_eq!(layer_events.len(), net.layers.len());
        // Each layer retires at the running sum of the per-layer totals.
        let mut retire = 0;
        for (event, layer) in layer_events.iter().zip(&a.report().layers) {
            retire += layer.cycles.total_cycles();
            assert_eq!(event.cycle, retire, "{}", event.name);
        }
        assert_eq!(t1.events().last().unwrap().cycle, a.report().total_cycles());
    }

    #[test]
    fn session_without_faults_has_no_reliability_view() {
        let run = SimSession::new(&accel(), &zoo::lenet5()).seed(1).run().unwrap();
        assert!(run.reliability().is_none());
        assert_eq!(run.to_report().kind(), "network_sim");
    }

    #[test]
    fn empty_fault_plan_is_byte_identical_to_clean_run() {
        let accel = accel();
        let net = zoo::lenet5();
        let clean = SimSession::new(&accel, &net).seed(42).run().unwrap();
        let faulted = SimSession::new(&accel, &net)
            .seed(42)
            .faults(FaultPlan::empty())
            .run()
            .unwrap();
        let rel = faulted.reliability().expect("armed plan yields a view");
        assert_eq!(rel.report, *clean.report());
        assert_eq!(rel.counters.total(), 0);
        assert_eq!(
            rel.report.to_report().to_json_string(),
            clean.to_report().to_json_string()
        );
    }

    #[test]
    fn zero_plan_seed_derives_from_session_seed() {
        let accel = accel();
        let net = zoo::lenet5();
        let plan = FaultPlan {
            seed: 0,
            rules: vec![FaultRule::new(FaultSite::StallCycle, 1e-3)],
        };
        let run =
            |s: u64| {
                SimSession::new(&accel, &net)
                    .seed(s)
                    .faults(plan.clone())
                    .run()
                    .unwrap()
                    .into_reliability()
                    .unwrap()
            };
        let a = run(42);
        let b = run(42);
        let c = run(43);
        assert_eq!(a, b, "same session seed must replay");
        assert_ne!(a.plan.seed, 0, "derived fault seed must be materialized");
        assert_ne!(a.plan.seed, c.plan.seed, "fault stream must follow the session seed");
        // A pinned plan seed is left untouched.
        let pinned = FaultPlan { seed: 7, ..plan };
        let r = SimSession::new(&accel, &net)
            .seed(42)
            .faults(pinned)
            .run()
            .unwrap()
            .into_reliability()
            .unwrap();
        assert_eq!(r.plan.seed, 7);
    }

    #[test]
    fn faulted_runs_are_partition_invariant() {
        let accel = accel();
        let net = zoo::lenet5();
        let run = |p: usize| {
            SimSession::new(&accel, &net)
                .seed(42)
                .partitions(p)
                .faults(smoke_fault_plan())
                .run()
                .unwrap()
        };
        let one = run(1);
        let four = run(4);
        assert_eq!(one, four);
        assert_eq!(one.to_report().to_json_string(), four.to_report().to_json_string());
        assert!(one.reliability().unwrap().counters.total() > 0);
        assert_eq!(one.to_report().kind(), "reliability");
    }

    #[test]
    fn thread_count_never_changes_results() {
        let accel = accel();
        let net = zoo::lenet5();
        let run = || {
            SimSession::new(&accel, &net)
                .seed(9)
                .partitions(Partitions::Auto)
                .run()
                .unwrap()
                .to_report()
                .to_json_string()
        };
        parallel::set_max_threads(1);
        let one = run();
        parallel::set_max_threads(3);
        let three = run();
        parallel::set_max_threads(0);
        assert_eq!(one, three);
    }
}
