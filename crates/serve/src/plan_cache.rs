//! Per-model execution-plan cache shared by all worker engines.
//!
//! Serving traffic is repetitive: the same stand-in models, and often the
//! same seeded inputs, arrive over and over. This module caches the two
//! expensive, *input-independent* preparation products so repeat traffic
//! skips them:
//!
//! * **Plan bundles** — a pristine built [`Network`] plus one prepared
//!   [`ConvPlan`] per convolution (INT8 weight calibration, packed i8
//!   panels, nibble-packed INT4 planes, accumulator-width proofs), keyed
//!   by `(dataset, model_seed)` and fingerprinted by a digest over the
//!   built weights. Workers clone the pristine network for their local
//!   mutable copy; a panicking worker just drops its clone and re-clones —
//!   the bundle itself is immutable and cannot be poisoned.
//! * **Input masks** — the layer-0 sensitivity masks for a seeded request
//!   input. The input tensor is a pure function of
//!   `(dataset, sample_seed, batch)` and the masks are a pure function of
//!   the input and the DRQ config, so the cache key is exactly that tuple
//!   plus a config fingerprint. Bounded FIFO so hot repeat traffic hits
//!   without unbounded growth.
//!
//! Everything in the cache is deterministic given its key, so cache hits
//! can never change response bytes — the scale-out differential tests
//! exercise exactly that.

use drq_core::{prepare_plans, ConvPlan, MaskMap};
use drq_models::{default_standin, DatasetKind};
use drq_nn::Network;
use drq_telemetry::counter_add;
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Bound on the input-mask cache (entries, FIFO-evicted).
const MASK_CACHE_CAP: usize = 128;

/// FNV-1a over bytes — stable, dependency-free digesting (also the
/// router's rendezvous-hash primitive).
pub(crate) fn fnv1a(bytes: impl IntoIterator<Item = u8>, seed: u64) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64 ^ seed;
    for b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// An immutable, shareable execution plan for one model: the pristine
/// network, its prepared per-conv integer plans (from
/// [`drq_core::prepare_plans`], in the order the walk runs the convs),
/// and a digest over the built weights.
pub struct PlanBundle {
    /// FNV digest over the dataset, seed and every built weight bit.
    pub digest: u64,
    /// Pristine built network — clone per worker, never mutate in place.
    pub network: Network,
    /// One prepared plan per convolution, in walk order.
    pub plans: Vec<ConvPlan>,
}

impl PlanBundle {
    fn build(dataset: DatasetKind, model_seed: u64) -> Self {
        let mut network = default_standin(dataset, model_seed);
        let plans = prepare_plans(&network);
        // Digest the actually-built weights, not just the recipe: a
        // model-construction change shows up as a digest change.
        let mut bits: Vec<u8> = Vec::new();
        network.visit_params(&mut |p, _| {
            for v in p.as_slice() {
                bits.extend_from_slice(&v.to_bits().to_le_bytes());
            }
        });
        let digest = fnv1a(
            bits.into_iter().chain(format!("{dataset:?}").into_bytes()),
            model_seed,
        );
        Self { digest, network, plans }
    }

    /// Total bytes held by the packed weight panels of all plans.
    pub fn packed_bytes(&self) -> usize {
        self.plans.iter().map(ConvPlan::packed_bytes).sum()
    }
}

/// Key of one cached input-mask set.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct MaskKey {
    dataset: DatasetKind,
    sample_seed: u64,
    batch: usize,
    /// Fingerprint of the DRQ config the masks were predicted under.
    config_fp: u64,
}

/// Counter snapshot of cache effectiveness (`serve/plan/*`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PlanCacheStats {
    /// Model-bundle lookups that found a prepared bundle.
    pub model_hits: u64,
    /// Model-bundle lookups that had to build one.
    pub model_misses: u64,
    /// Input-mask lookups that found cached masks.
    pub mask_hits: u64,
    /// Input-mask lookups that had to predict.
    pub mask_misses: u64,
    /// Distinct model bundles resident.
    pub models: u64,
    /// Input-mask entries resident.
    pub masks: u64,
}

impl PlanCacheStats {
    /// Hit fraction over all lookups (models + masks); 0 when none ran.
    pub fn hit_rate(&self) -> f64 {
        let hits = self.model_hits + self.mask_hits;
        let total = hits + self.model_misses + self.mask_misses;
        if total == 0 {
            0.0
        } else {
            hits as f64 / total as f64
        }
    }
}

/// The process-wide plan cache. One instance is shared by every worker
/// engine behind a router, so a model prepared by any worker is a hit for
/// all of them (and survives worker deaths — the cache is not worker
/// state).
pub struct PlanCache {
    models: Mutex<HashMap<(DatasetKind, u64), Arc<PlanBundle>>>,
    masks: Mutex<(HashMap<MaskKey, Arc<Vec<Vec<MaskMap>>>>, VecDeque<MaskKey>)>,
    model_hits: AtomicU64,
    model_misses: AtomicU64,
    mask_hits: AtomicU64,
    mask_misses: AtomicU64,
}

impl Default for PlanCache {
    fn default() -> Self {
        Self::new()
    }
}

impl PlanCache {
    /// An empty cache.
    pub fn new() -> Self {
        Self {
            models: Mutex::new(HashMap::new()),
            masks: Mutex::new((HashMap::new(), VecDeque::new())),
            model_hits: AtomicU64::new(0),
            model_misses: AtomicU64::new(0),
            mask_hits: AtomicU64::new(0),
            mask_misses: AtomicU64::new(0),
        }
    }

    /// The prepared bundle for `(dataset, model_seed)`, building it on
    /// first use. The build runs under the map lock: concurrent workers
    /// asking for the same cold model wait for one build instead of
    /// racing N redundant ones.
    pub fn model(&self, dataset: DatasetKind, model_seed: u64) -> Arc<PlanBundle> {
        let mut models = self.models.lock().unwrap();
        if let Some(bundle) = models.get(&(dataset, model_seed)) {
            self.model_hits.fetch_add(1, Ordering::SeqCst);
            counter_add!("serve/plan/model_hits", 1);
            return Arc::clone(bundle);
        }
        self.model_misses.fetch_add(1, Ordering::SeqCst);
        counter_add!("serve/plan/model_misses", 1);
        let bundle = Arc::new(PlanBundle::build(dataset, model_seed));
        models.insert((dataset, model_seed), Arc::clone(&bundle));
        bundle
    }

    /// Cached layer-0 masks for a seeded input, predicting via `build` on
    /// a miss. `config_fp` must fingerprint every DRQ parameter the
    /// prediction depends on (see [`config_fingerprint`]).
    pub fn input_masks(
        &self,
        dataset: DatasetKind,
        sample_seed: u64,
        batch: usize,
        config_fp: u64,
        build: impl FnOnce() -> Vec<Vec<MaskMap>>,
    ) -> Arc<Vec<Vec<MaskMap>>> {
        let key = MaskKey { dataset, sample_seed, batch, config_fp };
        {
            let cache = self.masks.lock().unwrap();
            if let Some(masks) = cache.0.get(&key) {
                self.mask_hits.fetch_add(1, Ordering::SeqCst);
                counter_add!("serve/plan/mask_hits", 1);
                return Arc::clone(masks);
            }
        }
        // Predict outside the lock (misses may be concurrent; last insert
        // wins and both values are identical by determinism).
        self.mask_misses.fetch_add(1, Ordering::SeqCst);
        counter_add!("serve/plan/mask_misses", 1);
        let masks = Arc::new(build());
        let mut cache = self.masks.lock().unwrap();
        if !cache.0.contains_key(&key) {
            cache.0.insert(key, Arc::clone(&masks));
            cache.1.push_back(key);
            while cache.1.len() > MASK_CACHE_CAP {
                if let Some(old) = cache.1.pop_front() {
                    cache.0.remove(&old);
                }
            }
        }
        masks
    }

    /// Point-in-time stats snapshot.
    pub fn stats(&self) -> PlanCacheStats {
        PlanCacheStats {
            model_hits: self.model_hits.load(Ordering::SeqCst),
            model_misses: self.model_misses.load(Ordering::SeqCst),
            mask_hits: self.mask_hits.load(Ordering::SeqCst),
            mask_misses: self.mask_misses.load(Ordering::SeqCst),
            models: self.models.lock().unwrap().len() as u64,
            masks: self.masks.lock().unwrap().0.len() as u64,
        }
    }
}

/// Fingerprints a DRQ config for the mask-cache key. The `Debug` form
/// covers every field (region sizes, thresholds, deep-layer rules), so
/// two configs that could predict different masks never share a key.
pub fn config_fingerprint(drq: &drq_core::DrqConfig) -> u64 {
    fnv1a(format!("{drq:?}").into_bytes(), 0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use drq_core::{DrqConfig, RegionSize, SensitivityPredictor};
    use drq_models::Dataset;

    #[test]
    fn model_bundle_is_built_once_and_shared() {
        let cache = PlanCache::new();
        let a = cache.model(DatasetKind::Digits, 42);
        let b = cache.model(DatasetKind::Digits, 42);
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(a.digest, b.digest);
        assert_eq!(a.plans.len(), a.network.conv_count());
        assert!(a.packed_bytes() > 0);
        let s = cache.stats();
        assert_eq!((s.model_hits, s.model_misses, s.models), (1, 1, 1));
    }

    #[test]
    fn different_seeds_get_different_digests() {
        let cache = PlanCache::new();
        let a = cache.model(DatasetKind::Digits, 1);
        let b = cache.model(DatasetKind::Digits, 2);
        assert_ne!(a.digest, b.digest);
        assert_eq!(cache.stats().models, 2);
    }

    #[test]
    fn mask_cache_hits_on_identical_key_and_respects_config() {
        let cache = PlanCache::new();
        let drq_a = DrqConfig::new(RegionSize::new(4, 4), 20.0);
        let drq_b = DrqConfig::new(RegionSize::new(4, 4), 5.0);
        let build = |drq: &DrqConfig| {
            let data = Dataset::generate(DatasetKind::Digits, 1, 7);
            let (x, _) = data.batch(0, 1);
            let cfg = drq.for_layer(16, 16, 0.0);
            let p = SensitivityPredictor::new(cfg.region, cfg.threshold);
            vec![p.predict_image(&x, 0)]
        };
        let fp_a = config_fingerprint(&drq_a);
        let fp_b = config_fingerprint(&drq_b);
        assert_ne!(fp_a, fp_b);
        let m1 = cache.input_masks(DatasetKind::Digits, 7, 1, fp_a, || build(&drq_a));
        let m2 = cache.input_masks(DatasetKind::Digits, 7, 1, fp_a, || build(&drq_a));
        assert!(Arc::ptr_eq(&m1, &m2));
        let m3 = cache.input_masks(DatasetKind::Digits, 7, 1, fp_b, || build(&drq_b));
        assert!(!Arc::ptr_eq(&m1, &m3));
        let s = cache.stats();
        assert_eq!((s.mask_hits, s.mask_misses, s.masks), (1, 2, 2));
    }

    #[test]
    fn mask_cache_is_bounded() {
        let cache = PlanCache::new();
        for seed in 0..(MASK_CACHE_CAP as u64 + 40) {
            let _ = cache.input_masks(DatasetKind::Digits, seed, 1, 0, Vec::new);
        }
        let s = cache.stats();
        assert_eq!(s.masks, MASK_CACHE_CAP as u64);
        assert_eq!(s.mask_misses, MASK_CACHE_CAP as u64 + 40);
    }
}
