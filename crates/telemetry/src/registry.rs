//! Hierarchical metrics registry: counters, gauges and histograms keyed by
//! `/`-separated paths, plus a process-global instance behind
//! zero-cost-when-disabled recording macros.
//!
//! Recording is off by default. The [`crate::counter_add!`],
//! [`crate::gauge_set!`] and [`crate::observe!`] macros compile to a single
//! relaxed atomic load when collection is disabled — argument expressions
//! are not even evaluated — so instrumented hot paths (the cycle simulator,
//! the training loop) pay nothing unless a session opts in with
//! [`enable`]. Recording never feeds back into the instrumented
//! computation, so enabling metrics cannot change simulation results.

use crate::{Json, Report};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock};
use std::time::Instant;

/// Summary statistics of one observed value stream (a histogram collapsed
/// to its moments — enough for stall ratios, occupancies and timings
/// without bucket-boundary bikeshedding).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Histogram {
    /// Number of observations.
    pub count: u64,
    /// Sum of observations.
    pub sum: f64,
    /// Smallest observation (0 when empty).
    pub min: f64,
    /// Largest observation (0 when empty).
    pub max: f64,
}

impl Histogram {
    /// Records one value.
    pub fn observe(&mut self, v: f64) {
        if self.count == 0 {
            self.min = v;
            self.max = v;
        } else {
            self.min = self.min.min(v);
            self.max = self.max.max(v);
        }
        self.count += 1;
        self.sum += v;
    }

    /// Mean of the observed values (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }
}

/// An in-memory metrics store. Keys are hierarchical `/`-separated paths
/// (`"sim/cycles/total"`); each kind of instrument lives in its own
/// namespace, and serialization is sorted by key, so a snapshot is
/// deterministic given a deterministic recording order.
///
/// # Examples
///
/// ```
/// use drq_telemetry::MetricsRegistry;
///
/// let mut reg = MetricsRegistry::new();
/// reg.counter_add("sim/cycles/total", 100);
/// reg.counter_add("sim/cycles/total", 20);
/// reg.observe("sim/buffer/occupancy", 0.5);
/// assert_eq!(reg.counter("sim/cycles/total"), 120);
/// assert_eq!(reg.histogram("sim/buffer/occupancy").unwrap().count, 1);
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsRegistry {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    histograms: BTreeMap<String, Histogram>,
}

impl MetricsRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds to a monotonic counter (created at 0 on first touch).
    pub fn counter_add(&mut self, name: &str, v: u64) {
        *self.counters.entry(name.to_string()).or_insert(0) += v;
    }

    /// Sets a gauge to its latest value.
    pub fn gauge_set(&mut self, name: &str, v: f64) {
        self.gauges.insert(name.to_string(), v);
    }

    /// Records a value into a histogram.
    pub fn observe(&mut self, name: &str, v: f64) {
        self.histograms.entry(name.to_string()).or_default().observe(v);
    }

    /// Reads a counter (0 if never touched).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Reads a gauge.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.get(name).copied()
    }

    /// Reads a histogram.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms.get(name)
    }

    /// True if nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.histograms.is_empty()
    }

    /// Merges another registry into this one (counters add, gauges take the
    /// other's value, histograms pool).
    pub fn merge(&mut self, other: &MetricsRegistry) {
        for (k, v) in &other.counters {
            *self.counters.entry(k.clone()).or_insert(0) += v;
        }
        for (k, v) in &other.gauges {
            self.gauges.insert(k.clone(), *v);
        }
        for (k, h) in &other.histograms {
            let mine = self.histograms.entry(k.clone()).or_default();
            if mine.count == 0 {
                *mine = *h;
            } else if h.count > 0 {
                mine.min = mine.min.min(h.min);
                mine.max = mine.max.max(h.max);
                mine.count += h.count;
                mine.sum += h.sum;
            }
        }
    }

    /// Serializes the registry as a JSON object (`counters` / `gauges` /
    /// `histograms` sections, each sorted by key).
    pub fn to_json(&self) -> Json {
        Json::obj([
            (
                "counters",
                Json::Object(
                    self.counters.iter().map(|(k, v)| (k.clone(), Json::U64(*v))).collect(),
                ),
            ),
            (
                "gauges",
                Json::Object(
                    self.gauges.iter().map(|(k, v)| (k.clone(), Json::F64(*v))).collect(),
                ),
            ),
            (
                "histograms",
                Json::Object(
                    self.histograms
                        .iter()
                        .map(|(k, h)| {
                            (
                                k.clone(),
                                Json::obj([
                                    ("count", Json::U64(h.count)),
                                    ("sum", Json::F64(h.sum)),
                                    ("min", Json::F64(h.min)),
                                    ("max", Json::F64(h.max)),
                                    ("mean", Json::F64(h.mean())),
                                ]),
                            )
                        })
                        .collect(),
                ),
            ),
        ])
    }

    /// Packages the registry as a schema-versioned session [`Report`].
    pub fn to_report(&self) -> Report {
        let mut r = Report::new("session_metrics");
        r.push("metrics", self.to_json());
        r
    }
}

static ENABLED: AtomicBool = AtomicBool::new(false);

fn global_registry() -> &'static Mutex<MetricsRegistry> {
    static GLOBAL: OnceLock<Mutex<MetricsRegistry>> = OnceLock::new();
    GLOBAL.get_or_init(|| Mutex::new(MetricsRegistry::new()))
}

/// Turns global metrics collection on.
pub fn enable() {
    ENABLED.store(true, Ordering::Relaxed);
}

/// Turns global metrics collection off (recorded values are kept).
pub fn disable() {
    ENABLED.store(false, Ordering::Relaxed);
}

/// Whether the recording macros are live. One relaxed atomic load.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Locks and returns the global registry. Prefer the macros for recording;
/// use this for snapshots and tests.
pub fn global() -> MutexGuard<'static, MetricsRegistry> {
    global_registry().lock().unwrap_or_else(|e| e.into_inner())
}

/// Clones the global registry's current contents.
pub fn snapshot() -> MetricsRegistry {
    global().clone()
}

/// Clears the global registry (collection state is unchanged).
pub fn reset() {
    *global() = MetricsRegistry::new();
}

/// Adds to a global counter when collection is enabled. Arguments are not
/// evaluated when disabled.
#[macro_export]
macro_rules! counter_add {
    ($name:expr, $v:expr) => {
        if $crate::enabled() {
            $crate::global().counter_add($name, $v);
        }
    };
}

/// Sets a global gauge when collection is enabled.
#[macro_export]
macro_rules! gauge_set {
    ($name:expr, $v:expr) => {
        if $crate::enabled() {
            $crate::global().gauge_set($name, $v);
        }
    };
}

/// Records into a global histogram when collection is enabled.
#[macro_export]
macro_rules! observe {
    ($name:expr, $v:expr) => {
        if $crate::enabled() {
            $crate::global().observe($name, $v);
        }
    };
}

/// A wall-clock scope: records elapsed milliseconds into a global histogram
/// when dropped (if collection was enabled at construction).
///
/// # Examples
///
/// ```
/// use drq_telemetry::WallClockScope;
///
/// drq_telemetry::enable();
/// {
///     let _scope = WallClockScope::new("example/scope_ms");
///     // ... timed work ...
/// }
/// assert_eq!(drq_telemetry::global().histogram("example/scope_ms").unwrap().count, 1);
/// # drq_telemetry::disable();
/// # drq_telemetry::reset();
/// ```
#[derive(Debug)]
pub struct WallClockScope {
    name: &'static str,
    start: Option<Instant>,
}

impl WallClockScope {
    /// Starts timing `name` (a no-op scope when collection is disabled).
    pub fn new(name: &'static str) -> Self {
        Self { name, start: enabled().then(Instant::now) }
    }
}

impl Drop for WallClockScope {
    fn drop(&mut self) {
        if let Some(start) = self.start {
            let ms = start.elapsed().as_secs_f64() * 1e3;
            global().observe(self.name, ms);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::PoisonError;

    /// Serializes the tests that flip the process-global telemetry switch.
    fn telemetry_lock() -> MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(PoisonError::into_inner)
    }

    #[test]
    fn counters_accumulate_and_default_to_zero() {
        let mut r = MetricsRegistry::new();
        assert_eq!(r.counter("x"), 0);
        r.counter_add("x", 3);
        r.counter_add("x", 4);
        assert_eq!(r.counter("x"), 7);
    }

    #[test]
    fn gauges_keep_latest() {
        let mut r = MetricsRegistry::new();
        r.gauge_set("g", 1.0);
        r.gauge_set("g", 2.5);
        assert_eq!(r.gauge("g"), Some(2.5));
    }

    #[test]
    fn histograms_track_moments() {
        let mut r = MetricsRegistry::new();
        for v in [1.0, 2.0, 6.0] {
            r.observe("h", v);
        }
        let h = r.histogram("h").unwrap();
        assert_eq!(h.count, 3);
        assert_eq!(h.min, 1.0);
        assert_eq!(h.max, 6.0);
        assert_eq!(h.mean(), 3.0);
    }

    #[test]
    fn merge_pools_everything() {
        let mut a = MetricsRegistry::new();
        a.counter_add("c", 1);
        a.observe("h", 1.0);
        let mut b = MetricsRegistry::new();
        b.counter_add("c", 2);
        b.observe("h", 5.0);
        b.gauge_set("g", 9.0);
        a.merge(&b);
        assert_eq!(a.counter("c"), 3);
        assert_eq!(a.gauge("g"), Some(9.0));
        let h = a.histogram("h").unwrap();
        assert_eq!((h.count, h.min, h.max), (2, 1.0, 5.0));
    }

    #[test]
    fn registry_json_is_sorted_and_stable() {
        let mut r = MetricsRegistry::new();
        r.counter_add("z", 1);
        r.counter_add("a", 2);
        let s = r.to_json().to_string();
        assert!(s.find("\"a\"").unwrap() < s.find("\"z\"").unwrap());
        assert_eq!(s, r.clone().to_json().to_string());
    }

    #[test]
    fn disabled_macros_do_not_record_or_evaluate() {
        let _own = telemetry_lock();
        disable();
        reset();
        let mut evaluated = false;
        counter_add!("test/never", {
            evaluated = true;
            1
        });
        assert!(!evaluated, "disabled macro must not evaluate its arguments");
        assert_eq!(snapshot().counter("test/never"), 0);
    }

    #[test]
    fn enabled_macros_record_globally() {
        let _own = telemetry_lock();
        enable();
        reset();
        counter_add!("test/c", 2);
        gauge_set!("test/g", 1.5);
        observe!("test/h", 3.0);
        let snap = snapshot();
        disable();
        reset();
        assert_eq!(snap.counter("test/c"), 2);
        assert_eq!(snap.gauge("test/g"), Some(1.5));
        assert_eq!(snap.histogram("test/h").unwrap().count, 1);
    }
}
