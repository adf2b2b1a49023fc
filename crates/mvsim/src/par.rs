//! The parallel MVCC engine: N OS worker threads drive partitions of a
//! job list to completion through the MVCC core ([`crate::mvcc`]) — the
//! same per-operation semantics the sequential [`crate::engine::Engine`]
//! steps through, over the same stripe-sharded version store, sharded
//! lock table and SSI tracker.
//!
//! # Correctness protocol
//!
//! - The logical clock is one `AtomicU64`; every read, recorded write
//!   and commit draws a unique tick via `fetch_add`.
//! - Reads draw their tick inside the stripe read lock; commits draw
//!   theirs inside all written-stripe write locks and install before
//!   releasing (see `pstore`). Sorting the per-attempt event buffers by
//!   tick therefore reproduces the order the store actually served, and
//!   the replayed [`TraceRecorder`] export passes the conformance
//!   oracle — an *empirical race check on every run*, on top of Rust's
//!   static guarantees.
//! - First-committer-wins is pre-checked before locking (cheap early
//!   abort) and **re-checked after the lock grant while holding the
//!   object lock** — the authoritative test, since installs require
//!   that lock. A queued request parks in `await_grant` until the FIFO
//!   handoff; the re-check closes the pre-check→grant window.
//! - The whole commit sequence (stripe locks → tick → SSI decision →
//!   install → admit) runs under one commit mutex, so the detectors see
//!   one-at-a-time commits exactly as the sequential engine presents
//!   them. The critical section is short (footprint comparison against
//!   the GC-bounded committed set). Conservative step (2) is the
//!   sequential engine's alone: a worker cannot reach into another
//!   worker's in-flight attempt (see `pssi` for why steps (1)+(3)
//!   suffice).
//! - GC watermarks come from a registry of attempt begin ticks: workers
//!   register the clock value *before* drawing any operation tick (and
//!   the registry read and clock read are ordered through the registry
//!   mutex), so a concurrent GC can never prune a version a just-started
//!   attempt might still read.

use crate::config::SimConfig;
use crate::driver::{jobs_from_workload, Job};
use crate::engine::AbortReason;
use crate::metrics::{level_index, LatencyStats, Metrics};
use crate::mvcc::{Core, Txn, WriteLock};
use crate::trace::{Event, TraceRecorder};
use crate::version::AttemptId;
use mvisolation::{Allocation, IsolationLevel};
use mvmodel::{OpKind, TransactionSet};
use rand::rngs::SmallRng;
use rand::{RngCore, SeedableRng};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Knobs of the parallel driver that are not engine semantics.
#[derive(Clone, Copy, Debug)]
pub struct ParOptions {
    /// Seeded `yield_now` jitter between operations. On few-core hosts
    /// OS time slices are far coarser than transaction attempts, so
    /// without jitter most interleavings degenerate to serial; the
    /// conformance suites keep it on for interleaving diversity. Timed
    /// benchmark runs turn it off.
    pub jitter: bool,
}

impl Default for ParOptions {
    fn default() -> Self {
        ParOptions { jitter: true }
    }
}

/// One attempt's timestamped events, replayed globally sorted into the
/// [`TraceRecorder`] after the run.
struct AttemptLog {
    id: AttemptId,
    level: IsolationLevel,
    events: Vec<(u64, Event)>,
}

/// Result of a parallel run: aggregated metrics and latencies, the
/// replayed trace, and the wall-clock measurement the logical-tick
/// goodput proxy cannot provide.
pub struct ParRun {
    pub metrics: Metrics,
    pub latency: LatencyStats,
    pub latency_by_level: [LatencyStats; 3],
    pub trace: TraceRecorder,
    pub elapsed: Duration,
    pub threads: usize,
}

impl ParRun {
    /// Committed transactions per wall-clock second.
    pub fn txns_per_sec(&self) -> f64 {
        let secs = self.elapsed.as_secs_f64();
        if secs <= 0.0 {
            0.0
        } else {
            self.metrics.commits as f64 / secs
        }
    }
}

struct WorkerOut {
    metrics: Metrics,
    latency: LatencyStats,
    latency_by_level: [LatencyStats; 3],
    logs: Vec<AttemptLog>,
}

struct ParEngine {
    config: SimConfig,
    core: Core,
    /// Serializes commits: tick draw → SSI decision → install → admit.
    commit_lock: Mutex<()>,
    next_attempt: AtomicU64,
    /// Begin-tick registry for the GC watermark: clock value at attempt
    /// begin → number of attempts begun there.
    snaps: Mutex<BTreeMap<u64, u32>>,
}

impl ParEngine {
    fn new(config: SimConfig) -> Self {
        ParEngine {
            core: Core::new(config.ssi_mode),
            config,
            commit_lock: Mutex::new(()),
            next_attempt: AtomicU64::new(0),
            snaps: Mutex::new(BTreeMap::new()),
        }
    }

    /// Registers an attempt's begin tick so the GC watermark never
    /// overtakes a snapshot the attempt may still draw. The clock read
    /// happens under the registry mutex: either this registration is
    /// visible to the next GC, or the GC's watermark read preceded this
    /// clock read — and then every tick this attempt draws is at or
    /// above the watermark. Either way no reachable version is pruned.
    fn register_begin(&self) -> u64 {
        let mut snaps = self.snaps.lock().expect("not poisoned");
        let at = self.core.now();
        *snaps.entry(at).or_insert(0) += 1;
        at
    }

    fn unregister_begin(&self, at: u64) {
        let mut snaps = self.snaps.lock().expect("not poisoned");
        if let Some(n) = snaps.get_mut(&at) {
            *n -= 1;
            if *n == 0 {
                snaps.remove(&at);
            }
        }
    }

    /// The GC watermark: the oldest registered begin, or the clock when
    /// no attempt is in flight.
    fn horizon(&self) -> u64 {
        let snaps = self.snaps.lock().expect("not poisoned");
        snaps
            .keys()
            .next()
            .copied()
            .unwrap_or_else(|| self.core.now())
    }

    fn execute(
        &self,
        t: &mut Txn,
        ops: &[mvmodel::Op],
        metrics: &mut Metrics,
        jitter: &mut Option<SmallRng>,
    ) -> Result<u64, AbortReason> {
        for (pc, op) in ops.iter().enumerate() {
            if t.doomed {
                return Err(AbortReason::SsiDangerous);
            }
            maybe_yield(jitter);
            match op.kind {
                OpKind::Read => self.core.read(t, op.object, metrics),
                OpKind::Write => {
                    if self.core.request_write(t, pc, op.object, metrics)? == WriteLock::Queued {
                        self.core.await_grant(t.id, op.object);
                    }
                    self.core.finish_write(t, pc, op.object, metrics)?;
                }
            }
        }
        if t.doomed {
            return Err(AbortReason::SsiDangerous);
        }
        maybe_yield(jitter);
        let _commit = self.commit_lock.lock().expect("not poisoned");
        let (commit_ts, _) = self.core.commit(t, &[], metrics, || self.horizon())?;
        Ok(commit_ts)
    }

    /// One worker: drives jobs `w, w+stride, w+2·stride, …` to
    /// completion, retrying aborted attempts with fresh attempt ids.
    fn worker(&self, jobs: &[Job], w: usize, stride: usize, opts: ParOptions) -> WorkerOut {
        let mut out = WorkerOut {
            metrics: Metrics::default(),
            latency: LatencyStats::default(),
            latency_by_level: Default::default(),
            logs: Vec::new(),
        };
        let mut jitter = opts.jitter.then(|| {
            SmallRng::seed_from_u64(
                self.config
                    .seed
                    .wrapping_add((w as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)),
            )
        });
        let mut job_idx = w;
        while job_idx < jobs.len() {
            let job = &jobs[job_idx];
            let first_begin = self.core.now();
            let mut retries = 0u32;
            loop {
                let id = AttemptId(self.next_attempt.fetch_add(1, Ordering::SeqCst) + 1);
                let begin = self.register_begin();
                let mut t = Txn::new(id, job.level, self.config.record_trace);
                let result = self.execute(&mut t, &job.ops, &mut out.metrics, &mut jitter);
                if result.is_err() {
                    self.core.abort(&t);
                }
                self.unregister_begin(begin);
                if self.config.record_trace {
                    out.logs.push(AttemptLog {
                        id,
                        level: job.level,
                        events: t.events,
                    });
                }
                match result {
                    Ok(ct) => {
                        let ticks = ct.saturating_sub(first_begin);
                        out.latency.record(ticks);
                        out.latency_by_level[level_index(job.level)].record(ticks);
                        break;
                    }
                    Err(reason) => {
                        out.metrics.record_abort(reason, job.level);
                        if self.config.max_retries.is_some_and(|m| retries >= m) {
                            out.metrics.gave_up += 1;
                            break;
                        }
                        retries += 1;
                        // Back off a beat so the competitor that killed
                        // us can finish.
                        std::thread::yield_now();
                    }
                }
            }
            job_idx += stride;
        }
        out
    }
}

fn maybe_yield(jitter: &mut Option<SmallRng>) {
    if let Some(rng) = jitter {
        if rng.next_u64() % 2 == 0 {
            std::thread::yield_now();
        }
    }
}

/// Runs `jobs` on `config.threads` worker threads and returns the
/// aggregated [`ParRun`]. Parallel runs are wall-clock nondeterministic
/// by nature; what is guaranteed — and what the test suites assert — is
/// that every exported trace passes the conformance oracle and the
/// abort/commit sets stay within the sequential envelope.
pub fn run_parallel_jobs(jobs: &[Job], config: SimConfig) -> ParRun {
    run_parallel_jobs_with(jobs, config, ParOptions::default())
}

/// [`run_parallel_jobs`] with explicit [`ParOptions`].
pub fn run_parallel_jobs_with(jobs: &[Job], config: SimConfig, opts: ParOptions) -> ParRun {
    let threads = config.threads;
    assert!(threads > 0, "need at least one worker thread");
    let engine = ParEngine::new(config.clone());
    let start = Instant::now();
    let mut outs: Vec<WorkerOut> = Vec::with_capacity(threads);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|w| {
                let engine = &engine;
                scope.spawn(move || engine.worker(jobs, w, threads, opts))
            })
            .collect();
        for h in handles {
            outs.push(h.join().expect("worker panicked"));
        }
    });
    let elapsed = start.elapsed();

    let mut metrics = Metrics::default();
    let mut latency = LatencyStats::default();
    let mut latency_by_level: [LatencyStats; 3] = Default::default();
    for out in &outs {
        metrics.absorb(&out.metrics);
        latency.merge(&out.latency);
        for (mine, theirs) in latency_by_level.iter_mut().zip(out.latency_by_level.iter()) {
            mine.merge(theirs);
        }
    }
    metrics.ticks = engine.core.now();

    // Replay the per-attempt event buffers, globally sorted by tick,
    // into a TraceRecorder — the tick order is the publication order
    // (see `pstore`), so this is the linearization the store served.
    let mut trace = TraceRecorder::new(config.record_trace);
    if config.record_trace {
        let mut all: Vec<(u64, AttemptId, Event)> = Vec::new();
        for out in &mut outs {
            for log in out.logs.drain(..) {
                trace.record_level(log.id, log.level);
                for (ts, ev) in log.events {
                    all.push((ts, log.id, ev));
                }
            }
        }
        all.sort_by_key(|&(ts, _, _)| ts);
        for (_, who, ev) in all {
            trace.record(who, ev);
        }
    }

    ParRun {
        metrics,
        latency,
        latency_by_level,
        trace,
        elapsed,
        threads,
    }
}

/// Runs a transaction set under an allocation on the parallel engine
/// (one job per transaction, in id order).
pub fn run_parallel_workload(
    txns: &TransactionSet,
    alloc: &Allocation,
    config: SimConfig,
) -> ParRun {
    run_parallel_workload_with(txns, alloc, config, ParOptions::default())
}

/// [`run_parallel_workload`] with explicit [`ParOptions`].
pub fn run_parallel_workload_with(
    txns: &TransactionSet,
    alloc: &Allocation,
    config: SimConfig,
    opts: ParOptions,
) -> ParRun {
    let jobs = jobs_from_workload(txns, alloc);
    let mut run = run_parallel_jobs_with(&jobs, config, opts);
    run.trace.set_object_names(txns.object_names().to_vec());
    run
}
