//! The session-lifetime memo behind [`crate::SharedSession`] (see its docs
//! for what the memo keys on and why buffer size is not part of any key).
//!
//! Three levels:
//!
//! * **region sums** by [`SumKey`] (layer, synthesizer, effective region):
//!   the layer's synthesized map reduced to per-channel `i32` code sums —
//!   the predictor's threshold-independent stage. The only level that
//!   synthesizes a feature map.
//! * **masks** by [`MaskKey`] (a sum key plus the effective threshold):
//!   one compare pass over the cached sums for the layer's sensitive
//!   fraction. The entry shares its sums instead of storing mask bits. A
//!   mask build looks up its sums, so sum lookups happen only on mask
//!   builds.
//! * **cycles**, one [`LayerCycles`] per array geometry, stored in the
//!   mask entry; a cycle build steps the sums into per-channel masks for
//!   the cycle model and drops them.
//!
//! Every entry sits in a [`OnceLock`] cell, so when several `par_map`
//! workers ask for the same key at once exactly one builds it and the rest
//! wait for that result.

use crate::{DrqAccelerator, LayerCycles, LayerReport};
use drq_core::{RegionSize, RegionSums};
use drq_models::{FeatureMapSynthesizer, NetworkTopology};
use drq_telemetry::counter_add;
use std::collections::HashMap;
use std::hash::Hash;
use std::sync::{Arc, Mutex, OnceLock, PoisonError};

/// Cells created on first request and filled at most once.
struct OnceMap<K, V> {
    cells: Mutex<HashMap<K, Arc<OnceLock<V>>>>,
}

impl<K: Eq + Hash, V> OnceMap<K, V> {
    fn new() -> Self {
        Self { cells: Mutex::new(HashMap::new()) }
    }

    /// The cell for `key`, created empty on first request. The map lock is
    /// held only for the lookup, never while a value is being built.
    fn cell(&self, key: K) -> Arc<OnceLock<V>> {
        let mut cells = self.cells.lock().unwrap_or_else(PoisonError::into_inner);
        Arc::clone(cells.entry(key).or_default())
    }
}

/// Fills `cell` with `build` unless it is already set (waiting if another
/// thread is building it); returns the value and whether this call built it.
fn get_or_build<V>(cell: &OnceLock<V>, build: impl FnOnce() -> V) -> (&V, bool) {
    let mut built = false;
    let value = cell.get_or_init(|| {
        built = true;
        build()
    });
    (value, built)
}

/// Build and hit counts of the memo, summed over layers and recorded on the
/// merging thread. Over a whole session the build counts equal the number
/// of distinct keys, so the totals do not depend on scheduling.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct MemoCounts {
    sum_builds: u64,
    sum_hits: u64,
    mask_builds: u64,
    mask_hits: u64,
    cycle_builds: u64,
    cycle_hits: u64,
}

impl MemoCounts {
    fn sum_lookup(&mut self, built: bool) {
        *if built { &mut self.sum_builds } else { &mut self.sum_hits } += 1;
    }

    fn mask_lookup(&mut self, built: bool) {
        *if built { &mut self.mask_builds } else { &mut self.mask_hits } += 1;
    }

    fn cycle_lookup(&mut self, built: bool) {
        *if built { &mut self.cycle_builds } else { &mut self.cycle_hits } += 1;
    }

    pub(crate) fn add(&mut self, o: &MemoCounts) {
        self.sum_builds += o.sum_builds;
        self.sum_hits += o.sum_hits;
        self.mask_builds += o.mask_builds;
        self.mask_hits += o.mask_hits;
        self.cycle_builds += o.cycle_builds;
        self.cycle_hits += o.cycle_hits;
    }

    /// Records the `sim/memo/*` counters (a no-op with telemetry off).
    pub(crate) fn record(&self) {
        counter_add!("sim/memo/sum_builds", self.sum_builds);
        counter_add!("sim/memo/sum_hits", self.sum_hits);
        counter_add!("sim/memo/mask_builds", self.mask_builds);
        counter_add!("sim/memo/mask_hits", self.mask_hits);
        counter_add!("sim/memo/cycle_builds", self.cycle_builds);
        counter_add!("sim/memo/cycle_hits", self.cycle_hits);
    }
}

/// What a layer's region sums depend on besides the session seed: the
/// layer, the synthesizer's parameters (floats by bit pattern) and the
/// effective region. The threshold is not in it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct SumKey {
    layer: usize,
    synth: [u64; 5],
    region: RegionSize,
}

impl SumKey {
    fn new(layer: usize, synth: &FeatureMapSynthesizer, region: RegionSize) -> Self {
        // Destructured so that a new synthesizer field fails to compile
        // here instead of silently missing from the key.
        let FeatureMapSynthesizer {
            base_level,
            blob_amplitude,
            blobs_per_kilopixel,
            blob_radius_frac,
            channel_inclusion,
        } = *synth;
        Self {
            layer,
            synth: [
                u64::from(base_level.to_bits()),
                u64::from(blob_amplitude.to_bits()),
                blobs_per_kilopixel.to_bits(),
                blob_radius_frac.to_bits(),
                channel_inclusion.to_bits(),
            ],
            region,
        }
    }
}

/// What a layer's masks depend on: its region sums and the effective
/// threshold (by bit pattern).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct MaskKey {
    sums: SumKey,
    threshold: u32,
}

/// Array geometry `(rows, cols, pages)`: all the cycle model reads of an
/// accelerator.
type GeometryKey = (usize, usize, usize);

/// One threshold's step over a layer's cached region sums: the sensitive
/// fraction, and the cycle counts per geometry. The masks themselves are
/// not kept; a cycle build steps the shared sums again, which costs no
/// more than unpacking stored bits would.
struct MaskEntry {
    sums: Arc<RegionSums>,
    threshold: f32,
    sensitive_fraction: f64,
    cycles: OnceMap<GeometryKey, LayerCycles>,
}

impl MaskEntry {
    fn new(sums: Arc<RegionSums>, threshold: f32) -> Self {
        Self {
            sensitive_fraction: sums.sensitive_fraction(threshold),
            sums,
            threshold,
            cycles: OnceMap::new(),
        }
    }
}

/// The memo of one [`crate::SharedSession`]: region sums by [`SumKey`] and
/// mask entries by [`MaskKey`], each mask entry carrying its cycle counts
/// by geometry. Lives and dies with the session, whose network and seed
/// are fixed.
pub(crate) struct SessionMemo {
    sums: OnceMap<SumKey, Arc<RegionSums>>,
    masks: OnceMap<MaskKey, MaskEntry>,
}

impl SessionMemo {
    pub(crate) fn new() -> Self {
        Self { sums: OnceMap::new(), masks: OnceMap::new() }
    }

    /// Layer `i`'s report for `accel`, synthesizing the layer, stepping its
    /// sums and running the cycle model only where no earlier candidate of
    /// the session already did.
    pub(crate) fn layer_report(
        &self,
        accel: &DrqAccelerator,
        net: &NetworkTopology,
        seed: u64,
        i: usize,
        counts: &mut MemoCounts,
    ) -> LayerReport {
        let spec = &net.layers[i];
        let config = accel.config();
        let cfg = accel.layer_config(net, i);
        let sum_key = SumKey::new(i, accel.synthesizer(), cfg.region);
        let cell = self.masks.cell(MaskKey { sums: sum_key, threshold: cfg.threshold.to_bits() });
        let (entry, built) = get_or_build(&cell, || {
            let cell = self.sums.cell(sum_key);
            let (sums, built) = get_or_build(&cell, || {
                Arc::new(accel.layer_region_sums(net, seed, i, cfg.region))
            });
            counts.sum_lookup(built);
            MaskEntry::new(Arc::clone(sums), cfg.threshold)
        });
        counts.mask_lookup(built);
        let cell = entry.cycles.cell((config.rows, config.cols, config.pages));
        let (&cycles, built) = get_or_build(&cell, || {
            accel.cycle_model().simulate_layer(spec, &entry.sums.step(entry.threshold))
        });
        counts.cycle_lookup(built);
        accel.layer_report(spec, cycles, entry.sensitive_fraction)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn each_cell_is_built_once_under_contention() {
        let map: OnceMap<u32, u64> = OnceMap::new();
        let builds = std::sync::atomic::AtomicU64::new(0);
        let built: Vec<bool> = drq_tensor::parallel::par_map(8, |i| {
            let cell = map.cell(i as u32 % 2);
            let (v, built) = get_or_build(&cell, || {
                builds.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                u64::from(i as u32 % 2) + 10
            });
            assert_eq!(*v, u64::from(i as u32 % 2) + 10);
            built
        });
        assert_eq!(builds.into_inner(), 2);
        assert_eq!(built.iter().filter(|&&b| b).count(), 2);
    }
}
