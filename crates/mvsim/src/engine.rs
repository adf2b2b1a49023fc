//! The sequential MVCC engine: executes individual operations of
//! concurrent transaction attempts under per-transaction isolation
//! levels, one step at a time, over the shared core.

use crate::config::{SimConfig, SsiMode};
use crate::metrics::{LatencyStats, Metrics};
use crate::mvcc::{Core, Txn, WriteLock};
use crate::trace::TraceRecorder;
use crate::version::AttemptId;
use mvisolation::IsolationLevel;
use mvmodel::{Object, Op, OpKind};
use std::collections::HashMap;

/// Why an attempt was aborted.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum AbortReason {
    /// Snapshot transaction attempted to overwrite a version committed
    /// after its snapshot (first-committer-wins).
    FirstCommitterWins,
    /// The lock request would have closed a waits-for cycle.
    Deadlock,
    /// Committing would have completed (exact mode) or risked
    /// (conservative mode) a dangerous structure.
    SsiDangerous,
}

impl std::fmt::Display for AbortReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            AbortReason::FirstCommitterWins => "first-committer-wins",
            AbortReason::Deadlock => "deadlock",
            AbortReason::SsiDangerous => "ssi-dangerous-structure",
        })
    }
}

/// Result of executing one step of an attempt.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum StepOutcome {
    /// The operation executed; the attempt has more operations.
    Progress,
    /// The attempt blocked on a write lock; the engine will wake it.
    Blocked,
    /// The attempt committed (all operations done).
    Committed,
    /// The attempt aborted; its effects are rolled back.
    Aborted(AbortReason),
}

/// An in-flight attempt as the step interpreter sees it: the core's
/// transaction state plus the program and where it stands.
struct Active {
    txn: Txn,
    ops: Vec<Op>,
    pc: usize,
    /// The object whose lock the attempt is queued for.
    waiting: Option<Object>,
}

/// The seeded step interpreter over the MVCC core ([`crate::mvcc`]).
///
/// The driver owns the scheduling policy; the engine exposes
/// [`Engine::begin`], [`Engine::step`] and bookkeeping accessors. One
/// step executes one operation (or the commit) of one attempt; a write
/// whose lock request queues reports [`StepOutcome::Blocked`], and the
/// release that hands the lock over reports the attempt as woken.
pub struct Engine {
    core: Core,
    active: HashMap<AttemptId, Active>,
    next_attempt: u64,
    pending_wakes: Vec<AttemptId>,
    pub metrics: Metrics,
    /// Per-job commit latencies, filled by the driver.
    pub latency: LatencyStats,
    /// Commit latencies split by the job's isolation level (indexed by
    /// [`crate::metrics::level_index`]), filled by the driver.
    pub latency_by_level: [LatencyStats; 3],
    pub trace: TraceRecorder,
}

impl Engine {
    pub fn new(config: SimConfig) -> Self {
        Engine {
            core: Core::new(config.ssi_mode),
            active: HashMap::new(),
            next_attempt: 0,
            pending_wakes: Vec::new(),
            metrics: Metrics::default(),
            latency: LatencyStats::default(),
            latency_by_level: Default::default(),
            trace: TraceRecorder::new(config.record_trace),
        }
    }

    /// Current logical time.
    pub fn now(&self) -> u64 {
        self.core.now()
    }

    /// Starts a new attempt executing `ops` at `level`.
    pub fn begin(&mut self, ops: Vec<Op>, level: IsolationLevel) -> AttemptId {
        self.next_attempt += 1;
        let id = AttemptId(self.next_attempt);
        self.trace.record_level(id, level);
        // The trace recorder decides what to keep; the core always logs,
        // so `TraceRecorder::last_read_observed` works untraced too.
        let txn = Txn::new(id, level, true);
        self.active.insert(
            id,
            Active {
                txn,
                ops,
                pc: 0,
                waiting: None,
            },
        );
        id
    }

    /// Executes the next operation of `who` (or retries the operation it
    /// blocked on). Must not be called for attempts currently blocked —
    /// the driver waits for the wake notification from the lock release.
    pub fn step(&mut self, who: AttemptId) -> (StepOutcome, Vec<AttemptId>) {
        let a = self.active.get_mut(&who).expect("unknown attempt");
        debug_assert!(a.waiting.is_none(), "stepping a blocked attempt");
        if a.txn.doomed {
            return (self.abort(who, AbortReason::SsiDangerous), Vec::new());
        }
        let Some(&op) = a.ops.get(a.pc) else {
            return self.commit(who);
        };
        let done = match op.kind {
            OpKind::Read => {
                self.core.read(&mut a.txn, op.object, &mut self.metrics);
                Ok(true)
            }
            OpKind::Write => {
                match self
                    .core
                    .request_write(&mut a.txn, a.pc, op.object, &mut self.metrics)
                {
                    Ok(WriteLock::Held) => self
                        .core
                        .finish_write(&mut a.txn, a.pc, op.object, &mut self.metrics)
                        .map(|()| true),
                    Ok(WriteLock::Queued) => Ok(false),
                    Err(reason) => Err(reason),
                }
            }
        };
        for (_, ev) in a.txn.events.drain(..) {
            self.trace.record(who, ev);
        }
        match done {
            Ok(true) => {
                a.pc += 1;
                (StepOutcome::Progress, Vec::new())
            }
            Ok(false) => {
                a.waiting = Some(op.object);
                (StepOutcome::Blocked, Vec::new())
            }
            Err(reason) => (self.abort(who, reason), Vec::new()),
        }
    }

    fn commit(&mut self, who: AttemptId) -> (StepOutcome, Vec<AttemptId>) {
        let mut a = self.active.remove(&who).expect("unknown attempt");
        // Conservative step (2), which needs every in-flight attempt:
        // active SSI readers whose snapshots miss this commit's writes
        // gain `reader →rw who`. (Every observed version and every start
        // precede the commit tick, so overlap and staleness reduce to
        // having read an object `who` writes.)
        let step2 = self.core.ssi_mode() == SsiMode::Conservative && a.txn.is_ssi();
        let stale_readers: Vec<AttemptId> = if step2 {
            self.active
                .values()
                .filter(|r| {
                    r.txn.is_ssi() && r.txn.reads.iter().any(|(o, _)| a.txn.writes.contains(o))
                })
                .map(|r| r.txn.id)
                .collect()
        } else {
            Vec::new()
        };
        let result = self
            .core
            .commit(&mut a.txn, &stale_readers, &mut self.metrics, || {
                // The GC horizon: the oldest active snapshot, or the clock
                // when none is pinned.
                self.active
                    .values()
                    .filter_map(|r| r.txn.start_ts)
                    .min()
                    .unwrap_or_else(|| self.core.now())
            });
        if step2 {
            // ...and any active SSI attempt now holding both flags is
            // doomed.
            for r in self.active.values_mut() {
                if r.txn.is_ssi() && self.core.conservative_flags(r.txn.id) {
                    r.txn.doomed = true;
                }
            }
        }
        for (_, ev) in a.txn.events.drain(..) {
            self.trace.record(who, ev);
        }
        match result {
            Ok((_, woken)) => {
                self.hand_over(&woken);
                (StepOutcome::Committed, woken)
            }
            Err(reason) => (self.roll_back(a.txn, reason), Vec::new()),
        }
    }

    fn abort(&mut self, who: AttemptId, reason: AbortReason) -> StepOutcome {
        let a = self.active.remove(&who).expect("unknown attempt");
        self.roll_back(a.txn, reason)
    }

    /// Rolls back an attempt already removed from the active set.
    fn roll_back(&mut self, txn: Txn, reason: AbortReason) -> StepOutcome {
        let woken = self.core.abort(&txn);
        self.hand_over(&woken);
        self.pending_wakes.extend(woken);
        self.metrics.record_abort(reason, txn.level);
        StepOutcome::Aborted(reason)
    }

    /// Marks each woken attempt as holding the lock it was queued for.
    fn hand_over(&mut self, woken: &[AttemptId]) {
        for id in woken {
            let w = self.active.get_mut(id).expect("woken attempt is active");
            let object = w.waiting.take().expect("woken attempt was queued");
            w.txn.held.push(object);
        }
    }

    /// Number of retained committed versions of `object` (diagnostics).
    pub fn version_count(&self, object: Object) -> usize {
        self.core.version_count(object)
    }

    /// Attempts woken by lock releases during aborts, drained by the
    /// driver.
    pub fn drain_wakes(&mut self) -> Vec<AttemptId> {
        std::mem::take(&mut self.pending_wakes)
    }

    /// Whether `who` is currently blocked on a lock.
    pub fn is_blocked(&self, who: AttemptId) -> bool {
        self.active.get(&who).is_some_and(|a| a.waiting.is_some())
    }

    /// Number of in-flight attempts (diagnostics).
    pub fn active_count(&self) -> usize {
        self.active.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::version::Observed;
    use mvmodel::Op;

    fn obj(n: u32) -> Object {
        Object(n)
    }

    #[test]
    fn rc_reads_see_latest_committed() {
        let mut e = Engine::new(SimConfig::default());
        let w = e.begin(vec![Op::write(obj(1))], IsolationLevel::RC);
        assert_eq!(e.step(w).0, StepOutcome::Progress);
        assert_eq!(e.step(w).0, StepOutcome::Committed);
        let r = e.begin(vec![Op::read(obj(1))], IsolationLevel::RC);
        assert_eq!(e.step(r).0, StepOutcome::Progress);
        let observed = e.trace.last_read_observed().expect("read recorded");
        assert_eq!(observed.writer(), Some(w));
    }

    #[test]
    fn si_reads_use_transaction_snapshot() {
        let mut e = Engine::new(SimConfig::default());
        // T1 (SI) starts by reading object 2; then T2 writes object 1 and
        // commits; T1's later read of object 1 must still see op0.
        let t1 = e.begin(vec![Op::read(obj(2)), Op::read(obj(1))], IsolationLevel::SI);
        assert_eq!(e.step(t1).0, StepOutcome::Progress);
        let t2 = e.begin(vec![Op::write(obj(1))], IsolationLevel::RC);
        e.step(t2);
        assert_eq!(e.step(t2).0, StepOutcome::Committed);
        assert_eq!(e.step(t1).0, StepOutcome::Progress);
        let observed = e.trace.last_read_observed().unwrap();
        assert_eq!(
            observed,
            Observed::Initial,
            "SI read must ignore later commits"
        );
    }

    #[test]
    fn rc_read_after_commit_sees_new_version() {
        let mut e = Engine::new(SimConfig::default());
        let t1 = e.begin(vec![Op::read(obj(2)), Op::read(obj(1))], IsolationLevel::RC);
        e.step(t1);
        let t2 = e.begin(vec![Op::write(obj(1))], IsolationLevel::RC);
        e.step(t2);
        e.step(t2);
        e.step(t1);
        let observed = e.trace.last_read_observed().unwrap();
        assert_eq!(
            observed.writer(),
            Some(t2),
            "RC reads per-statement snapshots"
        );
    }

    #[test]
    fn first_committer_wins_aborts_si_writer() {
        let mut e = Engine::new(SimConfig::default());
        let t1 = e.begin(
            vec![Op::read(obj(1)), Op::write(obj(1))],
            IsolationLevel::SI,
        );
        e.step(t1); // read: snapshot taken
        let t2 = e.begin(vec![Op::write(obj(1))], IsolationLevel::RC);
        e.step(t2);
        e.step(t2); // committed a newer version of obj 1
        let (out, _) = e.step(t1);
        assert_eq!(out, StepOutcome::Aborted(AbortReason::FirstCommitterWins));
        assert_eq!(e.metrics.aborts_fcw, 1);
    }

    #[test]
    fn rc_writer_survives_concurrent_committed_write() {
        let mut e = Engine::new(SimConfig::default());
        let t1 = e.begin(
            vec![Op::read(obj(1)), Op::write(obj(1))],
            IsolationLevel::RC,
        );
        e.step(t1);
        let t2 = e.begin(vec![Op::write(obj(1))], IsolationLevel::RC);
        e.step(t2);
        e.step(t2);
        assert_eq!(e.step(t1).0, StepOutcome::Progress, "RC writes through");
        assert_eq!(e.step(t1).0, StepOutcome::Committed);
        assert_eq!(e.metrics.commits, 2);
    }

    #[test]
    fn write_lock_blocks_until_commit() {
        let mut e = Engine::new(SimConfig::default());
        let t1 = e.begin(vec![Op::write(obj(1))], IsolationLevel::RC);
        e.step(t1); // holds lock
        let t2 = e.begin(vec![Op::write(obj(1))], IsolationLevel::RC);
        let (out, _) = e.step(t2);
        assert_eq!(out, StepOutcome::Blocked);
        assert!(e.is_blocked(t2));
        let (out, woken) = e.step(t1); // commit releases the lock
        assert_eq!(out, StepOutcome::Committed);
        assert_eq!(woken, vec![t2]);
        assert!(!e.is_blocked(t2));
        // T2 (RC) retries its write and proceeds.
        assert_eq!(e.step(t2).0, StepOutcome::Progress);
        assert_eq!(e.step(t2).0, StepOutcome::Committed);
    }

    #[test]
    fn unblocked_si_writer_hits_fcw() {
        let mut e = Engine::new(SimConfig::default());
        let t1 = e.begin(vec![Op::write(obj(1))], IsolationLevel::RC);
        e.step(t1);
        let t2 = e.begin(
            vec![Op::read(obj(2)), Op::write(obj(1))],
            IsolationLevel::SI,
        );
        e.step(t2); // snapshot
        assert_eq!(e.step(t2).0, StepOutcome::Blocked);
        let (_, woken) = e.step(t1);
        assert_eq!(woken, vec![t2]);
        // On retry, the freshly committed version dooms T2.
        let (out, _) = e.step(t2);
        assert_eq!(out, StepOutcome::Aborted(AbortReason::FirstCommitterWins));
    }

    #[test]
    fn deadlock_aborts_requester() {
        let mut e = Engine::new(SimConfig::default());
        let t1 = e.begin(
            vec![Op::write(obj(1)), Op::write(obj(2))],
            IsolationLevel::RC,
        );
        let t2 = e.begin(
            vec![Op::write(obj(2)), Op::write(obj(1))],
            IsolationLevel::RC,
        );
        e.step(t1); // t1 holds 1
        e.step(t2); // t2 holds 2
        assert_eq!(e.step(t1).0, StepOutcome::Blocked); // t1 wants 2
        let (out, _) = e.step(t2); // t2 wants 1: cycle
        assert_eq!(out, StepOutcome::Aborted(AbortReason::Deadlock));
        // T2's abort released object 2 and woke T1.
        let wakes = e.drain_wakes();
        assert_eq!(wakes, vec![t1]);
        assert_eq!(e.step(t1).0, StepOutcome::Progress);
        assert_eq!(e.step(t1).0, StepOutcome::Committed);
    }

    #[test]
    fn exact_ssi_aborts_write_skew_second_committer() {
        let mut e = Engine::new(SimConfig::default());
        let t1 = e.begin(
            vec![Op::read(obj(1)), Op::write(obj(2))],
            IsolationLevel::SSI,
        );
        let t2 = e.begin(
            vec![Op::read(obj(2)), Op::write(obj(1))],
            IsolationLevel::SSI,
        );
        e.step(t1); // R1[x]
        e.step(t2); // R2[y]
        e.step(t1); // W1[y]
        e.step(t2); // W2[x]
        assert_eq!(
            e.step(t2).0,
            StepOutcome::Committed,
            "first committer passes"
        );
        let (out, _) = e.step(t1);
        assert_eq!(out, StepOutcome::Aborted(AbortReason::SsiDangerous));
        assert_eq!(e.metrics.aborts_ssi, 1);
    }

    #[test]
    fn si_write_skew_commits_both() {
        // The same interleaving under plain SI commits both — the anomaly
        // SSI exists to prevent.
        let mut e = Engine::new(SimConfig::default());
        let t1 = e.begin(
            vec![Op::read(obj(1)), Op::write(obj(2))],
            IsolationLevel::SI,
        );
        let t2 = e.begin(
            vec![Op::read(obj(2)), Op::write(obj(1))],
            IsolationLevel::SI,
        );
        e.step(t1);
        e.step(t2);
        e.step(t1);
        e.step(t2);
        assert_eq!(e.step(t2).0, StepOutcome::Committed);
        assert_eq!(e.step(t1).0, StepOutcome::Committed);
        assert_eq!(e.metrics.commits, 2);
    }

    #[test]
    fn conservative_ssi_also_stops_write_skew() {
        let mut e = Engine::new(SimConfig::default().with_ssi_mode(SsiMode::Conservative));
        let t1 = e.begin(
            vec![Op::read(obj(1)), Op::write(obj(2))],
            IsolationLevel::SSI,
        );
        let t2 = e.begin(
            vec![Op::read(obj(2)), Op::write(obj(1))],
            IsolationLevel::SSI,
        );
        e.step(t1);
        e.step(t2);
        e.step(t1);
        e.step(t2);
        let first = e.step(t2).0;
        let second = e.step(t1).0;
        // At least one of the two must abort.
        let aborted =
            matches!(first, StepOutcome::Aborted(_)) || matches!(second, StepOutcome::Aborted(_));
        assert!(
            aborted,
            "conservative SSI must break the skew: {first:?} {second:?}"
        );
    }

    #[test]
    fn gc_bounds_version_chains_over_long_runs() {
        use crate::driver::{run_jobs, Job};
        // 300 RC read-modify-writes of one object, serially: without GC
        // the chain would hold 300 versions; with the 64-commit cadence
        // it stays near the horizon.
        let jobs: Vec<Job> = (0..300)
            .map(|_| {
                Job::new(
                    vec![Op::read(obj(0)), Op::write(obj(0))],
                    IsolationLevel::RC,
                )
            })
            .collect();
        let engine = run_jobs(&jobs, SimConfig::default().with_concurrency(2));
        assert_eq!(engine.metrics.commits, 300);
        assert!(
            engine.metrics.versions_pruned > 0,
            "GC must have fired on a 300-commit run"
        );
        assert!(
            engine.version_count(obj(0)) < 128,
            "chain kept {} versions despite GC",
            engine.version_count(obj(0))
        );
        assert_eq!(
            engine.version_count(obj(0)) as u64 + engine.metrics.versions_pruned,
            300,
            "pruned + retained must account for every installed version"
        );
    }

    #[test]
    fn gc_never_prunes_below_an_active_snapshot() {
        // T1 (SI) pins a snapshot at the very beginning; 70 writers then
        // commit, crossing the 64-commit GC cadence. T1's late read must
        // still observe its snapshot version (the initial one), and the
        // version its snapshot sits just below must survive GC.
        let mut e = Engine::new(SimConfig::default());
        let t1 = e.begin(vec![Op::read(obj(1)), Op::read(obj(0))], IsolationLevel::SI);
        assert_eq!(e.step(t1).0, StepOutcome::Progress); // snapshot pinned
        for _ in 0..70 {
            let w = e.begin(vec![Op::write(obj(0))], IsolationLevel::RC);
            assert_eq!(e.step(w).0, StepOutcome::Progress);
            assert_eq!(e.step(w).0, StepOutcome::Committed);
        }
        // GC ran (commit 64), but the watermark was T1's start.
        assert_eq!(e.metrics.versions_pruned, 0);
        assert_eq!(e.version_count(obj(0)), 70);
        assert_eq!(e.step(t1).0, StepOutcome::Progress);
        assert_eq!(
            e.trace.last_read_observed().unwrap(),
            Observed::Initial,
            "active snapshot must stay readable across GC"
        );
        assert_eq!(e.step(t1).0, StepOutcome::Committed);
    }

    #[test]
    fn empty_transaction_commits() {
        let mut e = Engine::new(SimConfig::default());
        let t = e.begin(vec![], IsolationLevel::SSI);
        assert_eq!(e.step(t).0, StepOutcome::Committed);
        assert_eq!(e.active_count(), 0);
    }
}
