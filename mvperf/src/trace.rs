//! In-memory spans recorded around calls into each layer, written out as
//! JSON when the run ends. A span's layer is its name up to the first
//! `.`; a layer's self time is the span's duration minus the part its
//! child spans cover.

use serde_json::{json, Value};
use std::collections::BTreeMap;
use std::time::Instant;

#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    /// Nanoseconds since the tracer's origin.
    pub start: u64,
    pub end: u64,
    pub parent: Option<usize>,
    /// Shared by every span of one request.
    pub request: u64,
}

impl Span {
    pub fn duration(&self) -> u64 {
        self.end - self.start
    }

    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

/// A span recorder. When disabled every call is a no-op, which is how
/// the tracing overhead is measured.
pub struct Tracer {
    origin: Instant,
    enabled: bool,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            origin: Instant::now(),
            enabled,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`, child of the innermost open
    /// span.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        request: u64,
        f: impl FnOnce(&mut Self) -> R,
    ) -> R {
        if !self.enabled {
            return f(self);
        }
        let id = self.spans.len();
        let parent = self.open.last().copied();
        let start = self.now();
        self.spans.push(Span {
            name,
            start,
            end: start,
            parent,
            request,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end = self.now();
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time (ns) of every span: its duration minus its children's.
    pub fn self_times(&self) -> Vec<u64> {
        let mut child = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child[p] += s.duration();
            }
        }
        self.spans
            .iter()
            .zip(child)
            .map(|(s, c)| s.duration().saturating_sub(c))
            .collect()
    }

    /// Per root span (one request): its request id and the self time
    /// (ns) of each layer inside it, the root's own layer included.
    pub fn layer_self_times(&self) -> Vec<(u64, BTreeMap<&'static str, u64>)> {
        let selfs = self.self_times();
        let mut roots: BTreeMap<usize, (u64, BTreeMap<&'static str, u64>)> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let mut root = i;
            while let Some(p) = self.spans[root].parent {
                root = p;
            }
            let entry = roots
                .entry(root)
                .or_insert_with(|| (s.request, BTreeMap::new()));
            *entry.1.entry(s.layer()).or_default() += selfs[i];
        }
        roots.into_values().collect()
    }

    /// All spans as a JSON array.
    pub fn to_json(&self) -> Value {
        Value::Array(
            self.spans
                .iter()
                .map(|s| {
                    json!({
                        "name": s.name,
                        "start_ns": s.start,
                        "end_ns": s.end,
                        "parent": match s.parent {
                            Some(p) => Value::from(p as u64),
                            None => Value::Null,
                        },
                        "request": s.request,
                    })
                })
                .collect(),
        )
    }
}

/// What recording one span costs, in nanoseconds: the same loop of
/// empty spans with the tracer on and off.
pub fn span_cost_ns() -> f64 {
    const N: u64 = 100_000;
    let time = |enabled: bool| {
        let mut t = Tracer::new(enabled);
        let start = Instant::now();
        for i in 0..N {
            t.span("request", i, |t| t.span("codec.decode", i, |_| ()));
        }
        start.elapsed().as_nanos() as f64
    };
    let off = time(false);
    let on = time(true);
    (on - off) / (2 * N) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spin(ns: u64) {
        let t = Instant::now();
        while (t.elapsed().as_nanos() as u64) < ns {
            std::hint::spin_loop();
        }
    }

    #[test]
    fn self_time_excludes_children_and_requests_stay_separate() {
        let mut t = Tracer::new(true);
        t.span("request", 7, |t| {
            spin(200_000);
            t.span("codec.decode", 7, |_| spin(300_000));
            t.span("registry.register", 7, |t| {
                t.span("store.append", 7, |_| spin(100_000));
            });
        });
        t.span("request", 8, |t| {
            t.span("codec.encode", 8, |_| spin(50_000))
        });
        let spans = t.spans();
        assert_eq!(spans.len(), 6);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[3].parent, Some(2));
        let selfs = t.self_times();
        // The root's self time is its duration minus both children.
        assert_eq!(
            selfs[0],
            spans[0].duration() - spans[1].duration() - spans[2].duration()
        );
        assert!(selfs[0] >= 200_000);
        assert_eq!(selfs[2], spans[2].duration() - spans[3].duration());
        let per = t.layer_self_times();
        assert_eq!(per.len(), 2);
        assert_eq!(per[0].0, 7);
        assert_eq!(per[1].0, 8);
        assert!(per[0].1["codec"] >= 300_000);
        assert!(per[0].1["store"] >= 100_000);
        // Layer self times of a request add up to its root duration.
        let sum: u64 = per[0].1.values().sum();
        assert_eq!(sum, spans[0].duration());
        assert_eq!(t.to_json().as_array().unwrap().len(), 6);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let v = t.span("request", 1, |t| t.span("codec.decode", 1, |_| 42));
        assert_eq!(v, 42);
        assert!(t.spans().is_empty());
    }
}
