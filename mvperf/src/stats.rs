//! Sample statistics: nearest-rank percentiles, the tail rule, the
//! quartiles the stability check uses, and open-loop latency accounting.

use std::collections::VecDeque;
use std::time::{Duration, Instant};

/// Samples beyond a reported tail percentile: a percentile is only
/// reported when at least this many samples lie above its rank.
pub const TAIL_SUPPORT: usize = 10;

/// A set of samples summarised on demand.
#[derive(Clone, Debug, Default)]
pub struct Samples {
    values: Vec<f64>,
    sorted: bool,
}

impl Samples {
    pub fn new() -> Self {
        Samples::default()
    }

    pub fn push(&mut self, v: f64) {
        self.values.push(v);
        self.sorted = false;
    }

    pub fn extend(&mut self, other: &Samples) {
        self.values.extend_from_slice(&other.values);
        self.sorted = false;
    }

    pub fn len(&self) -> usize {
        self.values.len()
    }

    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    fn sort(&mut self) {
        if !self.sorted {
            self.values.sort_by(f64::total_cmp);
            self.sorted = true;
        }
    }

    /// The nearest-rank `p`-th percentile (`0 < p ≤ 100`); 0 when empty.
    pub fn percentile(&mut self, p: f64) -> f64 {
        self.sort();
        nearest_rank(&self.values, p)
    }

    pub fn median(&mut self) -> f64 {
        self.percentile(50.0)
    }

    pub fn max(&mut self) -> f64 {
        self.sort();
        self.values.last().copied().unwrap_or(0.0)
    }

    pub fn mean(&self) -> f64 {
        if self.values.is_empty() {
            0.0
        } else {
            self.values.iter().sum::<f64>() / self.values.len() as f64
        }
    }

    /// Mean of the samples at or below the nearest-rank 99th
    /// percentile: robust to the odd preempted sample, and unlike a
    /// median of clock-granular nanosecond readings it keeps its digits.
    pub fn trimmed_mean(&mut self) -> f64 {
        self.sort();
        if self.values.is_empty() {
            return 0.0;
        }
        let kept = &self.values[..rank(self.values.len(), 99.0)];
        kept.iter().sum::<f64>() / kept.len() as f64
    }
}

/// Nearest-rank percentile of ascending `sorted`: the value at 1-based
/// rank `⌈p/100 · n⌉`, clamped into `1..=n`.
pub fn nearest_rank(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    sorted[rank(sorted.len(), p) - 1]
}

/// The 1-based nearest rank of the `p`-th percentile among `n ≥ 1`
/// samples. The tiny offset keeps float error in `p·n/100` from pushing
/// an exact integer rank up by one.
fn rank(n: usize, p: f64) -> usize {
    let r = ((p * n as f64) / 100.0 - 1e-9).ceil();
    (r.max(1.0) as usize).min(n)
}

/// How many of `n` samples lie beyond the nearest-rank `p`-th percentile.
pub fn beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        return 0;
    }
    n - rank(n, p)
}

/// The highest percentile of `n` samples with at least
/// [`TAIL_SUPPORT`] samples beyond it, or `None` when `n` is too small
/// for any. Reported tails never go past this.
pub fn highest_supported(n: usize) -> Option<f64> {
    if n <= TAIL_SUPPORT {
        return None;
    }
    // ⌈p·n/100⌉ ≤ n − 10 ⇔ p ≤ 100·(n − 10)/n.
    Some(100.0 * (n - TAIL_SUPPORT) as f64 / n as f64)
}

/// Whether the `p`-th percentile of `n` samples is supported.
pub fn supports(n: usize, p: f64) -> bool {
    n > 0 && beyond(n, p) >= TAIL_SUPPORT
}

/// First and third quartile and the median, computed the way Python's
/// `statistics.quantiles(values, n=4)` (exclusive method) computes them.
/// Needs at least two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64, f64)> {
    if values.len() < 2 {
        return None;
    }
    let mut data = values.to_vec();
    data.sort_by(f64::total_cmp);
    let ld = data.len() as i64;
    let m = ld + 1;
    let cut = |i: i64| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m - j * 4) as f64;
        (data[j as usize - 1] * (4.0 - delta) + data[j as usize] * delta) / 4.0
    };
    Some((cut(1), cut(2), cut(3)))
}

/// One completed primary operation (or, for the engine, one round of
/// them): when it completed, how long it took, and how many operations
/// it completed.
#[derive(Clone, Copy, Debug)]
pub struct Timed {
    pub done: Instant,
    pub latency_us: f64,
    pub ops: f64,
}

/// Samples per latency block: enough that a block's 99th percentile has
/// ten samples beyond it.
pub const BLOCK: usize = 1_000;

/// Samples per throughput block. The server's stop-the-world snapshot
/// comes once per 1,024 logged mutations and on a shared disk lasts from
/// 2 ms to over 100 ms, so nearly every block of 1,000 holds one and its
/// rate follows the disk; in blocks of 100 most hold none.
pub const RATE_BLOCK: usize = 100;

/// Which blocks a run reports: the calmest tenth. On a shared virtual
/// machine a run passes through phases, from half a second to several
/// seconds long, in which the host slows it (round trips double, memory-
/// bound code runs up to 2.7× slower), and how much of a run they cover
/// differs from run to run; a median over blocks moves with that share,
/// the calmest tenth of the blocks does not. A change to the code moves
/// every block, the calm ones included.
pub const CALM_PERCENTILE: f64 = 10.0;

/// One run's samples, summarised over its calmest blocks.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct BlockStats {
    /// Latency blocks.
    pub blocks: usize,
    /// Operations per second.
    pub rate: f64,
    pub p50: f64,
    pub p99: f64,
}

/// Cuts the samples, in completion order, into consecutive blocks (a
/// trailing partial block is dropped). Over blocks of [`RATE_BLOCK`] it
/// takes each block's throughput — its operations over the time since
/// the previous block's last completion, or since `start` for the first
/// — and over blocks of [`BLOCK`] each block's median and
/// 99th-percentile latency. Each is reported at the
/// [`CALM_PERCENTILE`]-th best block: the nearest-rank
/// `100 − CALM_PERCENTILE`-th percentile of the throughputs and the
/// `CALM_PERCENTILE`-th of the latencies. `None` when there is not one
/// full latency block.
pub fn block_stats(samples: &mut [Timed], start: Instant) -> Option<BlockStats> {
    samples.sort_by_key(|s| s.done);
    let n = samples.len() / BLOCK;
    if n == 0 {
        return None;
    }
    let mut rate = Samples::new();
    let mut from = start;
    for block in samples.chunks_exact(RATE_BLOCK) {
        let to = block[RATE_BLOCK - 1].done;
        let ops: f64 = block.iter().map(|s| s.ops).sum();
        rate.push(ops / to.saturating_duration_since(from).as_secs_f64().max(1e-9));
        from = to;
    }
    let (mut p50, mut p99) = (Samples::new(), Samples::new());
    for block in samples.chunks_exact(BLOCK) {
        let mut lat = Samples::new();
        for s in block {
            lat.push(s.latency_us);
        }
        p50.push(lat.median());
        p99.push(lat.percentile(99.0));
    }
    Some(BlockStats {
        blocks: n,
        rate: rate.percentile(100.0 - CALM_PERCENTILE),
        p50: p50.percentile(CALM_PERCENTILE),
        p99: p99.percentile(CALM_PERCENTILE),
    })
}

/// Open-loop accounting: requests are due on a fixed schedule whether or
/// not earlier ones have been answered, and each reply is charged from
/// the moment its request was *due*, not from when it was sent. A stall
/// in the system is therefore charged to every request that queued
/// behind it, and a late generator shows up as lag rather than vanishing
/// from the latency.
#[derive(Debug)]
pub struct OpenLoop {
    start: Instant,
    interval: Duration,
    next: u64,
    /// Due times of requests sent and not yet answered, oldest first
    /// (replies come back in request order on one connection).
    outstanding: VecDeque<Instant>,
}

impl OpenLoop {
    pub fn new(start: Instant, interval: Duration) -> Self {
        OpenLoop {
            start,
            interval,
            next: 0,
            outstanding: VecDeque::new(),
        }
    }

    /// When the next request is due.
    pub fn next_due(&self) -> Instant {
        self.start + self.interval * self.next as u32
    }

    /// Claims the next request if it is due at `now`: returns its due
    /// time, and how late the generator is sending it.
    pub fn take_due(&mut self, now: Instant) -> Option<(Instant, Duration)> {
        let due = self.next_due();
        if due > now {
            return None;
        }
        self.next += 1;
        self.outstanding.push_back(due);
        Some((due, now - due))
    }

    /// Records the reply to the oldest outstanding request, received at
    /// `now`: returns that request's due time and its latency from due.
    pub fn replied(&mut self, now: Instant) -> Option<(Instant, Duration)> {
        let due = self.outstanding.pop_front()?;
        Some((due, now.saturating_duration_since(due)))
    }

    pub fn outstanding(&self) -> usize {
        self.outstanding.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(nearest_rank(&v, 50.0), 5.0);
        assert_eq!(nearest_rank(&v, 90.0), 9.0);
        assert_eq!(nearest_rank(&v, 91.0), 10.0);
        assert_eq!(nearest_rank(&v, 100.0), 10.0);
        assert_eq!(nearest_rank(&v, 0.1), 1.0);
        assert_eq!(nearest_rank(&[], 50.0), 0.0);
        let mut s = Samples::new();
        for x in [5.0, 1.0, 4.0, 2.0, 3.0] {
            s.push(x);
        }
        assert_eq!(s.median(), 3.0);
        assert_eq!(s.percentile(99.0), 5.0);
        assert_eq!(s.max(), 5.0);
        // 200 samples: the two beyond the 99th percentile are dropped.
        let mut t = Samples::new();
        for i in 0..198 {
            t.push(f64::from(i % 2));
        }
        t.push(1e9);
        t.push(1e9);
        assert_eq!(t.trimmed_mean(), 0.5);
    }

    #[test]
    fn tail_rule_needs_ten_samples_beyond() {
        // p99 of 1000 samples has exactly 10 beyond it; of 999, only 9.
        assert_eq!(beyond(1000, 99.0), 10);
        assert!(supports(1000, 99.0));
        assert_eq!(beyond(999, 99.0), 9);
        assert!(!supports(999, 99.0));
        // 100 samples support p90 (10 beyond) but not p91.
        assert!(supports(100, 90.0));
        assert!(!supports(100, 91.0));
        assert_eq!(highest_supported(100), Some(90.0));
        assert_eq!(highest_supported(1000), Some(99.0));
        assert_eq!(highest_supported(10), None);
        // The highest supported percentile is always itself supported,
        // and nothing above it is.
        for n in [11, 37, 250, 1001, 4321] {
            let p = highest_supported(n).unwrap();
            assert!(supports(n, p), "n={n} p={p}");
            assert!(!supports(n, p + 0.01), "n={n} p={p}");
        }
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 5.5, 8.25)));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some((1.0, 2.0, 3.0)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some((0.75, 1.5, 2.25)));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn block_stats_report_the_calm_blocks() {
        let t0 = Instant::now();
        let us = Duration::from_micros(1);
        let mut samples = Vec::new();
        let mut t = t0;
        // Five blocks of 1,000 ops at 100 µs each, but the middle three
        // run in a slow phase: their ops take 1 ms and their tails 50 ms.
        for b in 0..5 {
            for i in 0..BLOCK {
                let lat = match (b, i) {
                    (1..=3, 0..=9) => 50_000.0,
                    (1..=3, _) => 1_000.0,
                    _ => 100.0 + (i % 10) as f64,
                };
                t += us * lat as u32;
                samples.push(Timed {
                    done: t,
                    latency_us: lat,
                    ops: 1.0,
                });
            }
        }
        // A partial block is dropped.
        samples.push(Timed {
            done: t + us,
            latency_us: 9e9,
            ops: 1.0,
        });
        samples.reverse();
        let s = block_stats(&mut samples, t0).unwrap();
        // The slow phase covers most blocks, so a median would report it.
        assert_eq!(s.blocks, 5);
        assert_eq!(s.p50, 104.0);
        assert_eq!(s.p99, 109.0);
        // Calm rate blocks run 100 ops in 10.45 ms.
        assert!((s.rate - 1e2 / 0.01045).abs() < 1.0, "{}", s.rate);
        assert!(block_stats(&mut samples[..BLOCK - 1], t0).is_none());
    }

    #[test]
    fn open_loop_charges_a_stall_to_every_request_behind_it() {
        let t0 = Instant::now();
        let ms = Duration::from_millis(1);
        let mut ol = OpenLoop::new(t0, ms);
        // Ten requests fall due at 0..9 ms and are sent on time.
        for i in 0..10u32 {
            let (due, lag) = ol.take_due(t0 + ms * i).expect("due");
            assert_eq!(due, t0 + ms * i);
            assert_eq!(lag, Duration::ZERO);
        }
        assert!(
            ol.take_due(t0 + ms * 9).is_none(),
            "the 11th is not due yet"
        );
        // The system stalls until 12 ms, then answers everything at once:
        // each request is charged from its due time, so the stall shows
        // up in all ten latencies, not just the first one.
        let stall_end = t0 + ms * 12;
        let lats: Vec<Duration> = (0..10)
            .map(|_| ol.replied(stall_end).expect("outstanding").1)
            .collect();
        let want: Vec<Duration> = (0..10u32).map(|i| ms * (12 - i)).collect();
        assert_eq!(lats, want);
        assert_eq!(ol.outstanding(), 0);
        // A generator that falls behind reports its lag.
        let (_, lag) = ol.take_due(t0 + ms * 15).expect("due");
        assert_eq!(lag, ms * 5);
    }
}
