//! The MVCC core: the per-operation semantics of both execution engines
//! over one version store ([`crate::pstore`]), one lock table
//! ([`crate::plock`]) and one SSI tracker ([`crate::pssi`]).
//!
//! The sequential [`crate::engine::Engine`] drives it from one thread,
//! one step at a time, under a seeded scheduler; [`crate::par`] drives it
//! from N worker threads. What differs between the two lives in the
//! drivers: how a queued lock request waits (reported as blocked vs.
//! parked on a condvar), who serializes commits, where the GC horizon
//! comes from, and conservative step (2), which only the sequential
//! engine can take because it sees every in-flight attempt.
//!
//! Every operation draws its tick from one clock inside the critical
//! section that publishes it (see `pstore`), so the ticks the core logs
//! order a trace the same way the store served it, whichever driver ran.

use crate::config::SsiMode;
use crate::engine::AbortReason;
use crate::metrics::Metrics;
use crate::plock::{LockOutcome, SharedLockTable};
use crate::pssi::{SharedSsiTracker, TxnFootprint};
use crate::pstore::SharedVersionStore;
use crate::trace::Event;
use crate::version::{AttemptId, Observed, Version};
use mvisolation::IsolationLevel;
use mvmodel::Object;
use std::sync::atomic::{AtomicU64, Ordering};

/// Commits between two GC passes.
const GC_EVERY: u64 = 64;

/// One in-flight transaction attempt.
pub(crate) struct Txn {
    pub id: AttemptId,
    pub level: IsolationLevel,
    /// Snapshot/start timestamp: the clock value just before the
    /// attempt's first operation, so `first(T)` semantics match the
    /// formal model.
    pub start_ts: Option<u64>,
    /// Observed version per read, in program order.
    pub reads: Vec<(Object, Observed)>,
    /// Buffered writes (installed at commit).
    pub writes: Vec<Object>,
    /// Locks held, in grant order.
    pub held: Vec<Object>,
    /// Set by a conservative-SSI rule; the attempt aborts at its next
    /// step.
    pub doomed: bool,
    /// Program counter of a snapshot-level write already logged at its
    /// first (queued) attempt — see [`Core::request_write`].
    recorded_pc: Option<usize>,
    record: bool,
    /// Logged trace events with their ticks (when `record` is on).
    pub events: Vec<(u64, Event)>,
}

impl Txn {
    pub fn new(id: AttemptId, level: IsolationLevel, record: bool) -> Self {
        Txn {
            id,
            level,
            start_ts: None,
            reads: Vec::new(),
            writes: Vec::new(),
            held: Vec::new(),
            doomed: false,
            recorded_pc: None,
            record,
            events: Vec::new(),
        }
    }

    pub fn is_ssi(&self) -> bool {
        self.level == IsolationLevel::SerializableSnapshotIsolation
    }

    fn log(&mut self, ts: u64, ev: Event) {
        if self.record {
            self.events.push((ts, ev));
        }
    }

    /// Logs the write at program counter `pc` at tick `ts`. When that
    /// write is a snapshot transaction's first operation, the snapshot is
    /// re-anchored just below `ts`: commits that ticked between the write
    /// request and `ts` precede `first(T)` in the trace, so its reads
    /// must see them. (In the sequential engine nothing ticks in between,
    /// so the snapshot does not move.)
    fn log_write(&mut self, pc: usize, ts: u64, object: Object) {
        if pc == 0 && self.level.snapshot_at_start() {
            self.start_ts = Some(ts - 1);
        }
        self.log(ts, Event::Write { object });
    }
}

/// The state of a write's lock request.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum WriteLock {
    /// The attempt holds the lock: finish with [`Core::finish_write`].
    Held,
    /// The attempt is queued behind the holder; the lock is handed over
    /// by the holder's release.
    Queued,
}

/// Shared MVCC state plus the operations both engines drive.
pub(crate) struct Core {
    ssi_mode: SsiMode,
    clock: AtomicU64,
    store: SharedVersionStore,
    locks: SharedLockTable,
    ssi: SharedSsiTracker,
    commits: AtomicU64,
}

impl Core {
    pub fn new(ssi_mode: SsiMode) -> Self {
        Core {
            ssi_mode,
            clock: AtomicU64::new(0),
            store: SharedVersionStore::new(),
            locks: SharedLockTable::new(),
            ssi: SharedSsiTracker::new(),
            commits: AtomicU64::new(0),
        }
    }

    pub fn ssi_mode(&self) -> SsiMode {
        self.ssi_mode
    }

    /// Current logical time.
    pub fn now(&self) -> u64 {
        self.clock.load(Ordering::SeqCst)
    }

    fn tick(&self) -> u64 {
        self.clock.fetch_add(1, Ordering::SeqCst) + 1
    }

    /// Reads `object`: RC reads the latest committed version, SI/SSI the
    /// transaction snapshot.
    ///
    /// Conservative SSI read-path rule: observing an old version of an
    /// object a concurrent SSI transaction overwrote forms the edge
    /// `t →rw writer`; the writer is already committed, so if it also
    /// has an outgoing edge the structure is complete and `t` is doomed.
    pub fn read(&self, t: &mut Txn, object: Object, m: &mut Metrics) {
        let snapshot = match t.level {
            IsolationLevel::ReadCommitted => None,
            // `None` on the first operation: the fresh tick is the
            // snapshot.
            _ => t.start_ts,
        };
        let (ts, observed, latest) = self.store.read(object, snapshot, &self.clock);
        let start = *t.start_ts.get_or_insert(ts - 1);
        debug_assert!(
            !t.writes.contains(&object),
            "workloads must read an object before writing it (own-write reads \
             are outside the paper's formal model)"
        );
        if self.ssi_mode == SsiMode::Conservative && t.is_ssi() {
            if let Observed::Version(latest) = latest {
                if latest.commit_ts > observed.ts()
                    && latest.commit_ts > start
                    && self.ssi.is_committed_ssi(latest.writer)
                {
                    self.ssi.record_rw_edge(t.id, latest.writer);
                    if self.ssi.has_out(latest.writer) {
                        t.doomed = true;
                    }
                }
            }
        }
        t.reads.push((object, observed));
        m.reads += 1;
        t.log(ts, Event::Read { object, observed });
    }

    /// Requests the write lock for the write at program counter `pc`.
    ///
    /// First-committer-wins is checked before locking, so a snapshot
    /// transaction that already lost aborts without queueing. A queued
    /// snapshot-level write is logged at this first attempt: the attempt,
    /// not the resume, is its faithful formal position, because the
    /// transaction's snapshot was taken before it. This is safe, because
    /// first-committer-wins aborts the transaction if a version of
    /// `object` commits between attempt and resume, so no dirty write can
    /// appear in the exported schedule. RC transactions anchor per
    /// statement and are logged at the resume instead.
    pub fn request_write(
        &self,
        t: &mut Txn,
        pc: usize,
        object: Object,
        m: &mut Metrics,
    ) -> Result<WriteLock, AbortReason> {
        let start = *t.start_ts.get_or_insert_with(|| self.now());
        let snapshot_level = t.level.snapshot_at_start();
        if snapshot_level && self.store.committed_after(object, start) {
            return Err(AbortReason::FirstCommitterWins);
        }
        match self.locks.acquire(t.id, object) {
            LockOutcome::Deadlock => Err(AbortReason::Deadlock),
            LockOutcome::Granted => Ok(WriteLock::Held),
            LockOutcome::Enqueued => {
                m.blocked_events += 1;
                if snapshot_level && t.recorded_pc != Some(pc) {
                    t.recorded_pc = Some(pc);
                    let ts = self.tick();
                    t.log_write(pc, ts, object);
                }
                Ok(WriteLock::Queued)
            }
        }
    }

    /// Parks until a queued request for `object` is granted (the
    /// parallel driver's wait; the sequential one reports `Blocked`).
    pub fn await_grant(&self, who: AttemptId, object: Object) {
        self.locks.await_grant(who, object);
    }

    /// Completes the write at `pc` once `t` holds the lock on `object`.
    ///
    /// First-committer-wins is re-checked under the held lock, which is
    /// authoritative: installs require that lock, so no competitor can
    /// commit a version of `object` while `t` holds it. (The sequential
    /// engine calls this right after a passed pre-check, so there it
    /// never fires.)
    pub fn finish_write(
        &self,
        t: &mut Txn,
        pc: usize,
        object: Object,
        m: &mut Metrics,
    ) -> Result<(), AbortReason> {
        if !t.held.contains(&object) {
            t.held.push(object);
        }
        let start = t.start_ts.expect("set by request_write");
        if t.level.snapshot_at_start() && self.store.committed_after(object, start) {
            return Err(AbortReason::FirstCommitterWins);
        }
        // A completed write costs one tick of the clock, which counts
        // work (`Metrics::ticks`), also when it was logged at its queued
        // attempt.
        let ts = self.tick();
        if t.recorded_pc == Some(pc) {
            t.recorded_pc = None;
        } else {
            t.log_write(pc, ts, object);
        }
        if !t.writes.contains(&object) {
            t.writes.push(object);
        }
        m.writes += 1;
        Ok(())
    }

    /// Certifies and commits `t`: draws the commit tick under the write
    /// locks of every stripe it installs into, runs the detector (exact,
    /// or conservative steps (1) and (3) with `stale_readers` as the
    /// step (2) edge sources), installs, admits the footprint and
    /// releases `t`'s locks. Every [`GC_EVERY`]th commit then prunes
    /// below `horizon()`. Returns the commit tick and the attempts handed
    /// a lock, in `t`'s grant order.
    ///
    /// The caller serializes commits: the detectors must see them one at
    /// a time.
    pub fn commit(
        &self,
        t: &mut Txn,
        stale_readers: &[AttemptId],
        m: &mut Metrics,
        horizon: impl FnOnce() -> u64,
    ) -> Result<(u64, Vec<AttemptId>), AbortReason> {
        let mut guards = self.store.lock_for_commit(&t.writes);
        let commit_ts = self.tick();
        let footprint = TxnFootprint {
            attempt: t.id,
            ssi: t.is_ssi(),
            start_ts: t.start_ts.unwrap_or(commit_ts - 1),
            commit_ts,
            reads: t.reads.iter().map(|&(o, obs)| (o, obs.ts())).collect(),
            writes: t.writes.iter().map(|&o| (o, commit_ts)).collect(),
        };
        let dangerous = match self.ssi_mode {
            SsiMode::Exact => self.ssi.exact_check(&footprint),
            SsiMode::Conservative => {
                footprint.ssi && self.ssi.conservative_check(&footprint, stale_readers)
            }
        };
        if dangerous {
            return Err(AbortReason::SsiDangerous);
        }
        for &object in &t.writes {
            #[cfg(debug_assertions)]
            debug_assert!(self.locks.holds(t.id, object));
            guards.install(
                object,
                Version {
                    commit_ts,
                    writer: t.id,
                },
            );
        }
        drop(guards);
        self.ssi.admit(footprint);
        let woken = self.locks.release_all(t.id, &t.held);
        m.record_commit(t.level);
        t.log(commit_ts, Event::Commit);
        if (self.commits.fetch_add(1, Ordering::SeqCst) + 1).is_multiple_of(GC_EVERY) {
            // Footprints and versions below the horizon are unreachable:
            // no active snapshot sits below it, and every future one is
            // drawn at or after the current clock. Traces are unaffected:
            // the reads already happened.
            let horizon = horizon();
            self.ssi.gc(horizon);
            m.versions_pruned += self.store.gc(horizon);
        }
        Ok((commit_ts, woken))
    }

    /// Rolls `t` back: drops its SSI flags and releases its locks.
    /// Returns the attempts handed a lock.
    pub fn abort(&self, t: &Txn) -> Vec<AttemptId> {
        self.ssi.forget(t.id);
        self.locks.release_all(t.id, &t.held)
    }

    /// Conservative commit test for `who`: both Cahill flags set.
    pub fn conservative_flags(&self, who: AttemptId) -> bool {
        self.ssi.conservative_flags(who)
    }

    /// Number of retained committed versions of `object`.
    pub fn version_count(&self, object: Object) -> usize {
        self.store.version_count(object)
    }
}
