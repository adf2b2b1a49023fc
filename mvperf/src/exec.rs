//! The engine workloads, `exec-partitioned` and `exec-contended`, and the
//! engine-layer probes the traced run applies to every workload.

use crate::gen::{self, Mix};
use crate::report::{Report, RssProbe};
use crate::stats::{Samples, Timed};
use crate::{median_setup, us, Opts, Window};
use mvisolation::Allocation;
use mvmodel::{OpKind, TransactionSet};
use mvrobustness::{check_trace, Allocator};
use mvsim::version::AttemptId;
use mvsim::{
    run_parallel_jobs_with, run_parallel_workload_with, Engine, Job, Metrics, ParOptions,
    Scheduler, SeededScheduler, SimConfig, SsiMode, StepOutcome,
};
use std::collections::HashMap;
use std::time::{Duration, Instant};

/// Setups per run; the run reports their median.
const SETUPS: usize = 9;
/// Copies of the 128-transaction mix per timed round: a few hundred
/// microseconds of work, so a run holds tens of thousands of rounds and
/// a phase of slow rounds stays inside a minority of blocks.
const COPIES: usize = 4;
/// Distinct seeded job orders the rounds cycle through.
const ORDERS: usize = 8;
/// Rounds after which peak memory is read.
const RSS_AT: u64 = 1_024;
/// Worker threads of the parallel engine.
const THREADS: usize = 2;
/// Jobs the sequential runner probe executes.
const SEQ_JOBS: usize = 1_024;
/// Sessions of the sequential runner probe.
const SEQ_SESSIONS: usize = 8;
/// How long each throughput probe of the traced run executes.
const PROBE: Duration = Duration::from_millis(1_500);

/// Conservative SSI detector, no trace: the timed configuration.
fn config(seed: u64, threads: usize) -> SimConfig {
    SimConfig::default()
        .with_seed(seed)
        .with_threads(threads)
        .with_ssi_mode(SsiMode::Conservative)
        .with_trace(false)
}

/// A workload's transactions with their optimal allocation.
pub struct Population {
    pub txns: TransactionSet,
    pub alloc: Allocation,
    /// Copies of every transaction per round.
    pub copies: usize,
}

pub fn run(mix: Mix, o: &Opts, rep: &mut Report) -> Result<Population, String> {
    let mut setups = Vec::new();
    let mut prepared = None;
    for _ in 0..SETUPS {
        let t = Instant::now();
        let txns = gen::exec_txns(mix);
        let (alloc, _) = Allocator::new(&txns).optimal();
        let orders = gen::shuffled_jobs(&txns, &alloc, COPIES, ORDERS, o.seed);
        setups.push(t.elapsed());
        prepared = Some((txns, alloc, orders));
    }
    let (txns, alloc, orders) = prepared.expect("at least one setup");
    median_setup(rep, &setups);

    let w = Window::new(o);
    let rss = RssProbe::new(RSS_AT);
    let mut rounds = Vec::new();
    let mut metrics = Metrics::default();
    let mut round = 0u64;
    while Instant::now() < w.end {
        let jobs = &orders[round as usize % ORDERS];
        let cfg = config(o.seed.wrapping_add(round), THREADS);
        let t = Instant::now();
        let r = run_parallel_jobs_with(jobs, cfg, ParOptions { jitter: false });
        let done = Instant::now();
        round += 1;
        rss.tick(1);
        if t >= w.start {
            rounds.push(Timed {
                done,
                latency_us: us(done - t),
                ops: r.metrics.commits as f64,
            });
            metrics.absorb(&r.metrics);
            rep.attempted += jobs.len() as u64;
            rep.failed += jobs.len() as u64 - r.metrics.commits;
        }
    }
    rss.report(rep)?;
    rep.primary(&mut rounds, w.start)?;
    let attempts = metrics.commits + metrics.total_aborts();
    rep.add(
        "abort_share",
        metrics.abort_rate(),
        "ratio",
        attempts as usize,
    );
    rep.error_share();
    if rep.failed > 0 {
        rep.violate(format!("{} jobs never committed", rep.failed));
    }
    let pop = Population {
        txns,
        alloc,
        copies: COPIES,
    };
    if let Err(e) = conformance(&pop, o.seed) {
        rep.violate(e);
    }
    if let Err(e) = seq_probe(&pop, o.seed) {
        rep.violate(e);
    }
    Ok(pop)
}

/// One jittered, traced parallel run of one copy of the population
/// (its allocation is optimal, hence robust): every job commits and the
/// trace passes `check_trace` as serializable. Returns the oracle time.
fn conformance(pop: &Population, seed: u64) -> Result<Duration, String> {
    let cfg = config(seed, THREADS).with_trace(true);
    let run = run_parallel_workload_with(&pop.txns, &pop.alloc, cfg, ParOptions { jitter: true });
    if run.metrics.commits != pop.txns.len() as u64 {
        return Err(format!(
            "conformance run committed {} of {} jobs",
            run.metrics.commits,
            pop.txns.len()
        ));
    }
    let exported = run.trace.export().ok_or("traced run exported no trace")?;
    let t = Instant::now();
    check_trace(&exported.schedule, &exported.allocation, true)
        .map_err(|e| format!("conformance: {e}"))?;
    Ok(t.elapsed())
}

/// Sequential-engine step costs in nanoseconds, by outcome.
#[derive(Default)]
struct StepCosts {
    begin: Samples,
    read: Samples,
    write: Samples,
    commit: Samples,
    abort: Samples,
}

#[derive(Clone, Copy)]
enum Session {
    Idle,
    Running(Attempt),
    Blocked(Attempt),
}

#[derive(Clone, Copy)]
struct Attempt {
    id: AttemptId,
    job: usize,
    retries: u32,
    /// The next operation (`ops.len()` = the commit step).
    pc: usize,
}

fn ns(d: Duration) -> f64 {
    d.as_nanos() as f64
}

/// Drives the sequential engine making exactly the decisions
/// `mvsim::run_jobs` makes (same scheduler, same refill, retry and wake
/// order), timing `Engine::begin` and every `Engine::step` by outcome.
fn seq_run(jobs: &[Job], config: SimConfig, costs: &mut StepCosts) -> Metrics {
    let mut scheduler = SeededScheduler::new(config.seed);
    let mut engine = Engine::new(config.clone());
    let mut sessions = vec![Session::Idle; config.concurrency];
    let mut session_of: HashMap<AttemptId, usize> = HashMap::new();
    let begin = |engine: &mut Engine, job: usize, costs: &mut StepCosts| {
        let t = Instant::now();
        let id = engine.begin(jobs[job].ops.clone(), jobs[job].level);
        costs.begin.push(ns(t.elapsed()));
        id
    };
    let (mut next_job, mut done) = (0usize, 0usize);
    while done < jobs.len() {
        for (si, s) in sessions.iter_mut().enumerate() {
            if matches!(s, Session::Idle) && next_job < jobs.len() {
                let job = next_job;
                next_job += 1;
                let id = begin(&mut engine, job, costs);
                session_of.insert(id, si);
                *s = Session::Running(Attempt {
                    id,
                    job,
                    retries: 0,
                    pc: 0,
                });
            }
        }
        let runnable: Vec<usize> = sessions
            .iter()
            .enumerate()
            .filter_map(|(i, s)| matches!(s, Session::Running(_)).then_some(i))
            .collect();
        if runnable.is_empty() {
            break;
        }
        let si = runnable[scheduler.pick(&runnable, engine.now())];
        let Session::Running(a) = sessions[si] else {
            unreachable!("picked sessions are running")
        };
        let ops = &jobs[a.job].ops;
        let kind = ops.get(a.pc).map(|op| op.kind);
        let t = Instant::now();
        let (outcome, woken) = engine.step(a.id);
        let dt = ns(t.elapsed());
        match outcome {
            StepOutcome::Progress => {
                match kind {
                    Some(OpKind::Read) => costs.read.push(dt),
                    _ => costs.write.push(dt),
                }
                sessions[si] = Session::Running(Attempt { pc: a.pc + 1, ..a });
            }
            StepOutcome::Blocked => {
                costs.write.push(dt);
                sessions[si] = Session::Blocked(a);
            }
            StepOutcome::Committed => {
                costs.commit.push(dt);
                session_of.remove(&a.id);
                sessions[si] = Session::Idle;
                done += 1;
            }
            StepOutcome::Aborted(_) => {
                costs.abort.push(dt);
                session_of.remove(&a.id);
                if config.max_retries.is_some_and(|m| a.retries >= m) {
                    engine.metrics.gave_up += 1;
                    sessions[si] = Session::Idle;
                    done += 1;
                } else {
                    let id = begin(&mut engine, a.job, costs);
                    session_of.insert(id, si);
                    sessions[si] = Session::Running(Attempt {
                        id,
                        job: a.job,
                        retries: a.retries + 1,
                        pc: 0,
                    });
                }
            }
        }
        let mut all_woken = woken;
        all_woken.extend(engine.drain_wakes());
        for w in all_woken {
            if let Some(&wsi) = session_of.get(&w) {
                if let Session::Blocked(b) = sessions[wsi] {
                    sessions[wsi] = Session::Running(b);
                }
            }
        }
    }
    engine.metrics.ticks = engine.now();
    engine.metrics
}

/// Runs the benchmark's sequential runner over copies of the population
/// and checks its counters against `mvsim::run_jobs` on the same jobs
/// and seed.
fn seq_probe(pop: &Population, seed: u64) -> Result<StepCosts, String> {
    let copies = SEQ_JOBS.div_ceil(pop.txns.len().max(1));
    let jobs = gen::jobs(&pop.txns, &pop.alloc, copies);
    let cfg = SimConfig::default()
        .with_seed(seed)
        .with_concurrency(SEQ_SESSIONS)
        .with_ssi_mode(SsiMode::Conservative)
        .with_trace(false);
    let mut costs = StepCosts::default();
    let ours = seq_run(&jobs, cfg.clone(), &mut costs);
    let theirs = mvsim::run_jobs(&jobs, cfg).metrics;
    if ours != theirs {
        return Err(format!(
            "sequential runner diverged from mvsim::run_jobs: {ours} vs {theirs}"
        ));
    }
    Ok(costs)
}

/// Runs rounds of `jobs` on `threads` workers for `PROBE`: the summed
/// counters and committed transactions per second.
fn rounds(jobs: &[Job], seed: u64, threads: usize) -> (Metrics, f64) {
    let mut metrics = Metrics::default();
    let mut busy = Duration::ZERO;
    let mut round = 0u64;
    while busy < PROBE {
        let t = Instant::now();
        let r = run_parallel_jobs_with(
            jobs,
            config(seed.wrapping_add(round), threads),
            ParOptions { jitter: false },
        );
        busy += t.elapsed();
        metrics.absorb(&r.metrics);
        round += 1;
    }
    let tps = metrics.commits as f64 / busy.as_secs_f64();
    (metrics, tps)
}

/// The engine-layer metrics of a population: parallel-engine counters,
/// one- and two-thread throughput, sequential step costs, oracle cost and
/// the cold Algorithm 2 time. Also re-checks conformance and the
/// sequential runner.
pub fn layers(pop: &Population, seed: u64, rep: &mut Report) -> Result<(), String> {
    let jobs = gen::jobs(&pop.txns, &pop.alloc, pop.copies);
    let (m, tps2) = rounds(&jobs, seed, THREADS);
    let (_, tps1) = rounds(&jobs, seed, 1);
    let commits = m.commits.max(1) as f64;
    let attempts = m.commits + m.total_aborts();
    let n = m.commits as usize;
    let per_k = |x: u64| 1e3 * x as f64 / commits;
    rep.add(
        "engine.commit_ratio",
        m.commits as f64 / attempts.max(1) as f64,
        "ratio",
        attempts as usize,
    );
    rep.add(
        "engine.abort_share",
        m.abort_rate(),
        "ratio",
        attempts as usize,
    );
    rep.add(
        "engine.aborts_per_kcommit.fcw",
        per_k(m.aborts_fcw),
        "count",
        n,
    );
    rep.add(
        "engine.aborts_per_kcommit.deadlock",
        per_k(m.aborts_deadlock),
        "count",
        n,
    );
    rep.add(
        "engine.aborts_per_kcommit.ssi",
        per_k(m.aborts_ssi),
        "count",
        n,
    );
    for (i, lvl) in ["rc", "si", "ssi"].iter().enumerate() {
        rep.add(
            &format!("engine.aborts_per_kcommit.at_{lvl}"),
            per_k(m.per_level[i].total_aborts()),
            "count",
            n,
        );
    }
    rep.add(
        "engine.blocked_per_kcommit",
        per_k(m.blocked_events),
        "count",
        n,
    );
    rep.add(
        "engine.versions_pruned_per_kcommit",
        per_k(m.versions_pruned),
        "count",
        n,
    );
    rep.add("engine.tps_1t", tps1, "1/s", n);
    rep.add(
        "engine.parallel_efficiency",
        tps2 / (2.0 * tps1),
        "ratio",
        n,
    );

    let mut costs = seq_probe(pop, seed)?;
    for (name, s) in [
        ("engine.seq_begin_ns", &mut costs.begin),
        ("engine.seq_read_ns", &mut costs.read),
        ("engine.seq_write_ns", &mut costs.write),
        ("engine.seq_commit_ns", &mut costs.commit),
        ("engine.seq_abort_ns", &mut costs.abort),
    ] {
        let n = s.len();
        rep.add(name, s.trimmed_mean(), "ns", n);
    }

    let mut oracle = Samples::new();
    let mut optimal = Samples::new();
    for _ in 0..3 {
        oracle.push(conformance(pop, seed)?.as_secs_f64() * 1e3);
        let t = Instant::now();
        std::hint::black_box(Allocator::new(&pop.txns).optimal());
        optimal.push(t.elapsed().as_secs_f64() * 1e3);
    }
    rep.add("oracle.check_trace_ms", oracle.trimmed_mean(), "ms", 3);
    rep.add("alloc.optimal_ms", optimal.trimmed_mean(), "ms", 3);
    Ok(())
}
