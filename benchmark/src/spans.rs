//! In-memory wall-clock spans recorded around the benchmark's calls into
//! each layer's public functions.
//!
//! A span is named `<layer>.<call>`; its layer is the part before the first
//! dot. Spans are kept in memory (one short mutex hold per span, so pool
//! workers can record too) and written as JSON lines when the run ends. A
//! span's self time is its duration minus the part of it covered by its
//! children.

use drq::telemetry::Json;
use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Instant;

/// Index of a recorded span (its position in the recorder).
pub type SpanId = usize;

#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<SpanId>,
    /// Request id: the serve request index, otherwise the seed or step.
    rid: u64,
}

/// The span recorder of one traced run.
pub struct Spans {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Spans {
    /// An empty recorder whose timestamps count from now.
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Records a finished span with explicit endpoints (for spans measured on
    /// another thread, such as a serve request answered by a worker).
    pub fn record(
        &self,
        name: &'static str,
        parent: Option<SpanId>,
        rid: u64,
        start: Instant,
        end: Instant,
    ) -> SpanId {
        let span = Span {
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            parent,
            rid,
        };
        let mut spans = self.spans.lock().expect("span recorder poisoned");
        spans.push(span);
        spans.len() - 1
    }

    /// Runs `f` inside a span and returns its result with the span's
    /// duration in milliseconds. `f` receives the span's id so calls it
    /// makes can record child spans.
    pub fn scope<T>(
        &self,
        name: &'static str,
        parent: Option<SpanId>,
        rid: u64,
        f: impl FnOnce(SpanId) -> T,
    ) -> (T, f64) {
        let start = Instant::now();
        let id = self.record(name, parent, rid, start, start);
        let out = f(id);
        let end = Instant::now();
        self.spans.lock().expect("span recorder poisoned")[id].end_ns = self.ns(end);
        (out, (end - start).as_secs_f64() * 1e3)
    }

    /// All spans as JSON lines: name, start and end (µs from the start of
    /// the run), parent index, request id.
    pub fn to_jsonl(&self) -> String {
        let spans = self.spans.lock().expect("span recorder poisoned");
        let mut out = String::new();
        for (i, s) in spans.iter().enumerate() {
            let line = Json::obj([
                ("id", Json::U64(i as u64)),
                ("name", Json::str(s.name)),
                ("start_us", Json::F64(s.start_ns as f64 / 1e3)),
                ("end_us", Json::F64(s.end_ns as f64 / 1e3)),
                (
                    "parent",
                    s.parent.map_or(Json::Null, |p| Json::U64(p as u64)),
                ),
                ("rid", Json::U64(s.rid)),
            ]);
            out.push_str(&line.to_string());
            out.push('\n');
        }
        out
    }

    /// Total self time per layer in milliseconds.
    pub fn self_ms_by_layer(&self) -> BTreeMap<String, f64> {
        let spans = self.spans.lock().expect("span recorder poisoned");
        let intervals: Vec<(u64, u64, Option<SpanId>)> = spans
            .iter()
            .map(|s| (s.start_ns, s.end_ns, s.parent))
            .collect();
        let mut out = BTreeMap::new();
        for (s, self_ns) in spans.iter().zip(self_times(&intervals)) {
            let layer = s.name.split('.').next().unwrap_or(s.name).to_string();
            *out.entry(layer).or_insert(0.0) += self_ns as f64 / 1e6;
        }
        out
    }
}

/// Runs `f`, inside a span when a recorder is given, and returns its result
/// with its wall milliseconds either way. `f` receives the span's id (when
/// recording) to parent the spans of the calls it makes.
pub fn timed<T>(
    spans: Option<&Spans>,
    name: &'static str,
    parent: Option<SpanId>,
    rid: u64,
    f: impl FnOnce(Option<SpanId>) -> T,
) -> (T, f64) {
    match spans {
        Some(s) => s.scope(name, parent, rid, |id| f(Some(id))),
        None => {
            let start = Instant::now();
            let out = f(None);
            (out, start.elapsed().as_secs_f64() * 1e3)
        }
    }
}

/// Self time of every span: its duration minus the union of its children's
/// intervals (clipped to the parent; children may overlap when they ran on
/// several threads).
fn self_times(spans: &[(u64, u64, Option<SpanId>)]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for &(start, end, parent) in spans {
        if let Some(p) = parent {
            children[p].push((start, end));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(&(start, end, _), kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut cursor = start;
            for &(ks, ke) in kids.iter() {
                let (ks, ke) = (ks.max(cursor), ke.min(end));
                if ke > ks {
                    covered += ke - ks;
                    cursor = ke;
                }
            }
            (end - start).saturating_sub(covered)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        // Parent 0..100 with overlapping children 10..40 and 30..50 and a
        // child that starts inside and ends outside (clipped at 100).
        let spans = [
            (0, 100, None),
            (10, 40, Some(0)),
            (30, 50, Some(0)),
            (90, 120, Some(0)),
        ];
        let t = self_times(&spans);
        assert_eq!(t[0], 100 - 40 - 10);
        assert_eq!(t[1], 30);
        assert_eq!(t[3], 30);
    }

    #[test]
    fn scopes_nest_and_serialize() {
        let spans = Spans::new();
        let ((), outer_ms) = spans.scope("sim.outer", None, 7, |id| {
            let _ = spans.scope("models.inner", Some(id), 7, |_| {
                std::thread::sleep(std::time::Duration::from_millis(2));
            });
        });
        assert!(outer_ms >= 2.0);
        let by_layer = spans.self_ms_by_layer();
        assert!(by_layer["models"] >= 2.0);
        assert!(by_layer["sim"] < outer_ms);
        let lines = spans.to_jsonl();
        assert_eq!(lines.lines().count(), 2);
        let first = Json::parse(lines.lines().next().unwrap()).unwrap();
        assert_eq!(first.get("name").and_then(Json::as_str), Some("sim.outer"));
        assert_eq!(first.get("rid").and_then(Json::as_u64), Some(7));
    }
}
