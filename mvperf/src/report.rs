//! Metric records, the metric catalogue (names, units, bounds — the
//! same catalogue `BENCHMARK.json` declares), and the output format.

use crate::stats::{self, Samples, Timed};
use serde_json::{json, Map, Value};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Which way a metric improves.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// An end-to-end metric: reported by every workload's untraced run and
/// gated by `bound`, the share of the baseline median by which it may
/// worsen.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound,
    }
}

pub const END_TO_END: [EndToEnd; 5] = [
    e2e("setup_s", "s", Better::Lower, 0.25),
    e2e("ops_per_s", "1/s", Better::Higher, 0.25),
    e2e("p50_us", "us", Better::Lower, 0.25),
    e2e("p99_us", "us", Better::Lower, 0.25),
    e2e("peak_rss_mb", "MB", Better::Lower, 0.15),
];

/// A per-layer metric: reported by every workload's traced run, never
/// gated.
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
}

const fn layer(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer { name, unit }
}

pub const PER_LAYER: [PerLayer; 50] = [
    layer("codec.decode_us", "us"),
    layer("codec.encode_us", "us"),
    layer("codec.bytes_per_op", "bytes"),
    layer("registry.mutate_p50_us", "us"),
    layer("registry.mutate_p99_us", "us"),
    layer("registry.assign_us", "us"),
    layer("registry.admit_us", "us"),
    layer("registry.list_ms", "ms"),
    layer("alloc.delta_p50_us", "us"),
    layer("alloc.delta_p99_us", "us"),
    layer("alloc.rebuild_index_us", "us"),
    layer("alloc.rebuild_components_us", "us"),
    layer("alloc.probes_per_event", "count"),
    layer("alloc.cache_hit_ratio", "ratio"),
    layer("alloc.components_checked_per_event", "count"),
    layer("alloc.components_cached_ratio", "ratio"),
    layer("alloc.kernel_row_ops_per_event", "count"),
    layer("alloc.iso_builds_per_event", "count"),
    layer("alloc.live_components", "count"),
    layer("alloc.largest_component", "count"),
    layer("alloc.optimal_ms", "ms"),
    layer("store.append_us", "us"),
    layer("store.fsync_p50_us", "us"),
    layer("store.fsync_p99_us", "us"),
    layer("store.wal_bytes_per_op", "bytes"),
    layer("store.snapshot_p50_ms", "ms"),
    layer("store.snapshot_max_ms", "ms"),
    layer("templates.register_ms", "ms"),
    layer("templates.admit_ns", "ns"),
    layer("engine.commit_ratio", "ratio"),
    layer("engine.abort_share", "ratio"),
    layer("engine.aborts_per_kcommit.fcw", "count"),
    layer("engine.aborts_per_kcommit.deadlock", "count"),
    layer("engine.aborts_per_kcommit.ssi", "count"),
    layer("engine.aborts_per_kcommit.at_rc", "count"),
    layer("engine.aborts_per_kcommit.at_si", "count"),
    layer("engine.aborts_per_kcommit.at_ssi", "count"),
    layer("engine.blocked_per_kcommit", "count"),
    layer("engine.versions_pruned_per_kcommit", "count"),
    layer("engine.tps_1t", "1/s"),
    layer("engine.parallel_efficiency", "ratio"),
    layer("engine.seq_begin_ns", "ns"),
    layer("engine.seq_read_ns", "ns"),
    layer("engine.seq_write_ns", "ns"),
    layer("engine.seq_commit_ns", "ns"),
    layer("engine.seq_abort_ns", "ns"),
    layer("oracle.check_trace_ms", "ms"),
    layer("self.codec_us", "us"),
    layer("self.registry_us", "us"),
    layer("self.store_us", "us"),
];

/// One measured value.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// Samples behind the value.
    pub n: usize,
    /// Free-form qualifier printed after the sample count.
    pub note: String,
}

/// Everything one workload run measured and checked.
#[derive(Debug, Default)]
pub struct Report {
    pub metrics: Vec<Metric>,
    /// Requests (or transactions) attempted in the measured window.
    pub attempted: u64,
    /// Of those, the ones that failed, were refused or timed out.
    pub failed: u64,
    /// Correctness gates that did not hold.
    pub violations: Vec<String>,
}

impl Report {
    pub fn add(&mut self, name: &str, value: f64, unit: &'static str, n: usize) {
        self.add_note(name, value, unit, n, String::new());
    }

    pub fn add_note(&mut self, name: &str, value: f64, unit: &'static str, n: usize, note: String) {
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
            n,
            note,
        });
    }

    /// Reports `<prefix>p50_us` and `<prefix>p99_us` of a latency
    /// sample, noting how far the tail is supported.
    pub fn latency(&mut self, prefix: &str, s: &mut Samples) {
        let n = s.len();
        self.add(&format!("{prefix}p50_us"), s.median(), "us", n);
        let beyond = stats::beyond(n, 99.0);
        let note = match stats::highest_supported(n) {
            Some(p) if stats::supports(n, 99.0) => {
                format!("(p99 has {beyond} beyond; highest supported p{p:.2})")
            }
            Some(p) => format!("(UNSUPPORTED: {beyond} beyond p99; highest supported p{p:.2})"),
            None => "(UNSUPPORTED: too few samples)".to_string(),
        };
        self.add_note(
            &format!("{prefix}p99_us"),
            s.percentile(99.0),
            "us",
            n,
            note,
        );
    }

    /// Reports `ops_per_s`, `p50_us` and `p99_us` of the workload's
    /// primary operation over its calmest blocks (see
    /// [`stats::block_stats`]), and `window_p50_us`/`window_p99_us` over
    /// every sample of the window.
    pub fn primary(&mut self, samples: &mut [Timed], start: Instant) -> Result<(), String> {
        let n = samples.len();
        let ops = samples.iter().map(|s| s.ops).sum::<f64>() as usize;
        let b = stats::block_stats(samples, start).ok_or_else(|| {
            format!(
                "{n} operations completed: too few for one block of {}",
                stats::BLOCK
            )
        })?;
        let rate_note = format!(
            "(calmest tenth of {} blocks of {})",
            n / stats::RATE_BLOCK,
            stats::RATE_BLOCK
        );
        self.add_note("ops_per_s", b.rate, "1/s", ops, rate_note);
        let note = format!("(calmest tenth of {} blocks of {})", b.blocks, stats::BLOCK);
        self.add_note("p50_us", b.p50, "us", n, note.clone());
        self.add_note("p99_us", b.p99, "us", n, note);
        // The whole window, slow phases included: printed, not gated.
        let mut all = Samples::new();
        for s in samples.iter() {
            all.push(s.latency_us);
        }
        self.latency("window_", &mut all);
        Ok(())
    }

    /// Reports `error_share`: failed over attempted.
    pub fn error_share(&mut self) {
        let share = self.failed as f64 / self.attempted.max(1) as f64;
        let n = self.attempted as usize;
        self.add("error_share", share, "ratio", n);
    }

    pub fn get(&self, name: &str) -> Option<&Metric> {
        self.metrics.iter().find(|m| m.name == name)
    }

    pub fn violate(&mut self, what: String) {
        self.violations.push(what);
    }

    pub fn correct(&self) -> bool {
        self.violations.is_empty()
    }

    /// One line per metric: `<workload> <metric> <value> <unit> (n=<samples>)`.
    pub fn print(&self, workload: &str) {
        for m in &self.metrics {
            let note = if m.note.is_empty() {
                String::new()
            } else {
                format!(" {}", m.note)
            };
            println!(
                "{workload} {} {} {} (n={}){note}",
                m.name,
                fmt_value(m.value),
                m.unit,
                m.n
            );
        }
    }

    /// The result object: `correct`, `attempted`, `failed`, and the
    /// catalogue's metrics (end-to-end untraced, per-layer traced).
    /// Errors name catalogue metrics the run failed to measure.
    pub fn result(&self, traced: bool) -> Result<Value, String> {
        let names: Vec<(&str, &str)> = if traced {
            PER_LAYER.iter().map(|m| (m.name, m.unit)).collect()
        } else {
            END_TO_END.iter().map(|m| (m.name, m.unit)).collect()
        };
        let mut metrics = Map::new();
        for (name, unit) in names {
            let m = self
                .get(name)
                .ok_or_else(|| format!("metric {name} was not measured"))?;
            if !m.value.is_finite() {
                return Err(format!("metric {name} is not a finite number"));
            }
            metrics.insert(name.to_string(), json!({"value": m.value, "unit": unit}));
        }
        Ok(json!({
            "correct": self.correct(),
            "attempted": self.attempted.max(1),
            "failed": self.failed,
            "metrics": Value::Object(metrics),
        }))
    }
}

/// Values keep every digit they were measured with.
pub fn fmt_value(v: f64) -> String {
    format!("{v}")
}

/// Peak resident set size of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Reads the peak resident set once, when the workload has completed a
/// fixed amount of work. The server's caches grow with the work done, so
/// reading at a fixed time would make memory track throughput.
pub struct RssProbe {
    at: u64,
    done: AtomicU64,
    value: Mutex<Option<f64>>,
}

impl RssProbe {
    pub fn new(at: u64) -> Self {
        RssProbe {
            at,
            done: AtomicU64::new(0),
            value: Mutex::new(None),
        }
    }

    /// Counts `n` more completed operations.
    pub fn tick(&self, n: u64) {
        let before = self.done.fetch_add(n, Ordering::Relaxed);
        if before < self.at && before + n >= self.at {
            *self.value.lock().expect("rss probe poisoned") = peak_rss_mb();
        }
    }

    /// Reports `peak_rss_mb`: the reading at the mark, or the peak so
    /// far if the run ended before reaching it.
    pub fn report(&self, rep: &mut Report) -> Result<(), String> {
        let at = *self.value.lock().expect("rss probe poisoned");
        let (mb, note) = match at {
            Some(mb) => (mb, format!("(after {} operations)", self.at)),
            None => (
                peak_rss_mb().ok_or("cannot read VmHWM from /proc/self/status")?,
                format!(
                    "(run ended after {} of {} operations)",
                    self.done.load(Ordering::Relaxed),
                    self.at
                ),
            ),
        };
        rep.add_note("peak_rss_mb", mb, "MB", 1, note);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The catalogue here and the one `BENCHMARK.json` declares must not
    /// drift apart.
    #[test]
    fn catalogue_matches_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let doc: Value = serde_json::from_str(&text).expect("BENCHMARK.json parses");
        let e2e = doc["end_to_end"].as_array().expect("end_to_end list");
        assert_eq!(e2e.len(), END_TO_END.len());
        for (got, want) in e2e.iter().zip(END_TO_END.iter()) {
            assert_eq!(got["name"].as_str(), Some(want.name));
            assert_eq!(got["unit"].as_str(), Some(want.unit));
            assert_eq!(got["better"].as_str(), Some(want.better.as_str()));
            assert_eq!(got["bound"].as_f64(), Some(want.bound), "{}", want.name);
        }
        let per = doc["per_layer"].as_array().expect("per_layer list");
        assert_eq!(per.len(), PER_LAYER.len());
        for (got, want) in per.iter().zip(PER_LAYER.iter()) {
            assert_eq!(got["name"].as_str(), Some(want.name));
            assert_eq!(got["unit"].as_str(), Some(want.unit));
        }
    }

    #[test]
    fn result_requires_every_catalogue_metric() {
        let mut r = Report::default();
        for m in &END_TO_END {
            r.add(m.name, 1.5, m.unit, 3);
        }
        let v = r.result(false).unwrap();
        assert_eq!(v["correct"], true);
        assert_eq!(v["metrics"]["p50_us"]["value"], 1.5);
        assert_eq!(v["metrics"]["p50_us"]["unit"], "us");
        assert!(r.result(true).is_err(), "per-layer metrics are missing");
        r.violate("broken".to_string());
        assert_eq!(r.result(false).unwrap()["correct"], false);
    }
}
