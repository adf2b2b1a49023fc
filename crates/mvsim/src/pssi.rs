//! Dangerous-structure prevention for SSI transactions, shared by both
//! engines through [`crate::mvcc`].
//!
//! Two detectors (selected by [`crate::SsiMode`]):
//!
//! - [`SharedSsiTracker::exact_check`] decides, at commit time, whether
//!   the committing transaction would complete a dangerous structure
//!   `T₁ →rw T₂ →rw T₃` (pairwise concurrent, `C₃ ≤ C₁`, `C₃ < C₂`)
//!   among *committed SSI transactions*. Aborting exactly these commits
//!   keeps the committed history free of dangerous structures with zero
//!   false positives.
//! - [`SharedSsiTracker::conservative_check`] mimics Cahill-style
//!   `inConflict`/`outConflict` booleans: any SSI transaction observed
//!   with both an incoming and an outgoing rw-antidependency to a
//!   concurrent transaction is aborted at commit, which may abort
//!   histories that were in fact serializable.
//!
//! Committed footprints live behind one mutex; commits are serialized by
//! the driving engine, so that mutex is uncontended in practice. The
//! Cahill flags are atomics behind a read-mostly map, so the *read path*
//! can record rw-antidependency edges (reader observed a version a
//! committed SSI transaction overwrote) without blocking committers.
//!
//! The conservative commit protocol has three steps: (1) edges with
//! committed concurrent SSI footprints, dooming the committer on a
//! flagged pivot; (2) edges from *active* SSI readers whose snapshots
//! miss the committer's writes, dooming any reader that thereby holds
//! both flags; (3) the committer's own-flags test. The tracker runs (1)
//! and (3) and takes (2)'s edge sources from the caller: only the
//! sequential engine sees every in-flight attempt, so only it supplies
//! them (and dooms the readers). Step (2) is an early abort, not a safety
//! requirement: for any real dangerous structure `T₁ →rw T₂ →rw T₃` (C₃
//! earliest), whichever of the three commits **last** sees the other two
//! in the committed set and the persistent flags their edges raised, and
//! steps (1)+(3) abort it in every commit order. A reader that step (2)
//! would have doomed early instead runs to its own commit and aborts
//! there (or at its next read, via the read-path rule). The conformance
//! suites check the resulting traces end to end.

use crate::version::AttemptId;
use mvmodel::Object;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, RwLock};

/// What the tracker retains about a committed transaction.
#[derive(Clone, Debug)]
pub(crate) struct TxnFootprint {
    pub attempt: AttemptId,
    pub ssi: bool,
    pub start_ts: u64,
    pub commit_ts: u64,
    /// Objects read, with the commit timestamp of the observed version
    /// (0 = initial).
    pub reads: Vec<(Object, u64)>,
    /// Objects written, with the installed version's commit timestamp.
    pub writes: Vec<(Object, u64)>,
}

impl TxnFootprint {
    /// Whether two footprints are concurrent: each started before the
    /// other committed.
    pub fn concurrent(&self, other: &TxnFootprint) -> bool {
        self.attempt != other.attempt
            && self.start_ts < other.commit_ts
            && other.start_ts < self.commit_ts
    }

    /// Whether `self →rw other`: self read a version of some object that
    /// `other` overwrote (observed timestamp < other's installed
    /// timestamp).
    pub fn rw_antidep_to(&self, other: &TxnFootprint) -> bool {
        if self.attempt == other.attempt {
            return false;
        }
        self.reads.iter().any(|&(obj, seen_ts)| {
            other
                .writes
                .iter()
                .any(|&(wobj, wts)| wobj == obj && seen_ts < wts)
        })
    }
}

#[derive(Default)]
struct Flags {
    incoming: AtomicBool,
    outgoing: AtomicBool,
}

/// Shared dangerous-structure state for one engine run.
pub(crate) struct SharedSsiTracker {
    committed: Mutex<Vec<TxnFootprint>>,
    flags: RwLock<HashMap<AttemptId, Arc<Flags>>>,
}

impl SharedSsiTracker {
    pub fn new() -> Self {
        SharedSsiTracker {
            committed: Mutex::new(Vec::new()),
            flags: RwLock::new(HashMap::new()),
        }
    }

    fn cell(&self, who: AttemptId) -> Arc<Flags> {
        if let Some(f) = self.flags.read().expect("not poisoned").get(&who) {
            return f.clone();
        }
        self.flags
            .write()
            .expect("not poisoned")
            .entry(who)
            .or_default()
            .clone()
    }

    /// Records the rw-antidependency `from →rw to` between concurrent
    /// transactions. Lock-free once both flag cells exist.
    pub fn record_rw_edge(&self, from: AttemptId, to: AttemptId) {
        self.cell(from).outgoing.store(true, Ordering::SeqCst);
        self.cell(to).incoming.store(true, Ordering::SeqCst);
    }

    pub fn has_in(&self, who: AttemptId) -> bool {
        self.flags
            .read()
            .expect("not poisoned")
            .get(&who)
            .is_some_and(|f| f.incoming.load(Ordering::SeqCst))
    }

    pub fn has_out(&self, who: AttemptId) -> bool {
        self.flags
            .read()
            .expect("not poisoned")
            .get(&who)
            .is_some_and(|f| f.outgoing.load(Ordering::SeqCst))
    }

    /// Conservative commit test: both flags set.
    pub fn conservative_flags(&self, who: AttemptId) -> bool {
        self.flags
            .read()
            .expect("not poisoned")
            .get(&who)
            .is_some_and(|f| f.incoming.load(Ordering::SeqCst) && f.outgoing.load(Ordering::SeqCst))
    }

    /// Drops flag state for an aborted attempt. Edges other attempts
    /// already recorded *to* it keep their own flags.
    pub fn forget(&self, who: AttemptId) {
        self.flags.write().expect("not poisoned").remove(&who);
    }

    /// The exact dangerous-structure test: would admitting `cand`
    /// complete a structure among the committed SSI footprints? The
    /// search treats `cand` in every role; a structure that does not
    /// involve it would have been rejected at an earlier commit.
    pub fn exact_check(&self, cand: &TxnFootprint) -> bool {
        if !cand.ssi {
            return false;
        }
        let committed = self.committed.lock().expect("not poisoned");
        let pool: Vec<&TxnFootprint> = committed
            .iter()
            .filter(|f| f.ssi)
            .chain(std::iter::once(cand))
            .collect();
        // Enumerate pivots T₂ and endpoints; T₁ = T₃ allowed.
        for &t2 in &pool {
            for &t1 in &pool {
                if !(t1.rw_antidep_to(t2) && t1.concurrent(t2)) {
                    continue;
                }
                for &t3 in &pool {
                    if !(t2.rw_antidep_to(t3) && t2.concurrent(t3)) {
                        continue;
                    }
                    let c_ok = if t1.attempt == t3.attempt {
                        t3.commit_ts < t2.commit_ts
                    } else {
                        t3.commit_ts <= t1.commit_ts && t3.commit_ts < t2.commit_ts
                    };
                    if c_ok && [t1.attempt, t2.attempt, t3.attempt].contains(&cand.attempt) {
                        return true;
                    }
                }
            }
        }
        false
    }

    /// Steps (1) and (3) of the conservative protocol for the SSI
    /// transaction `t`, with `stale_readers` as step (2)'s edge sources:
    /// form the rw edges between `t` and committed concurrent SSI
    /// transactions (an edge to a committed pivot that already has the
    /// matching second flag dooms `t`), apply them together with
    /// `reader →rw t` for every stale reader, then test `t`'s own flags.
    /// The doom decision reads flags before this commit's edges apply.
    pub fn conservative_check(&self, t: &TxnFootprint, stale_readers: &[AttemptId]) -> bool {
        let who = t.attempt;
        let mut edges: Vec<(AttemptId, AttemptId)> = Vec::new();
        let mut doom_self = false;
        for f in self.committed.lock().expect("not poisoned").iter() {
            if !f.ssi || !f.concurrent(t) {
                continue;
            }
            if t.rw_antidep_to(f) {
                edges.push((who, f.attempt));
                doom_self |= self.has_out(f.attempt);
            }
            if f.rw_antidep_to(t) {
                edges.push((f.attempt, who));
                doom_self |= self.has_in(f.attempt);
            }
        }
        edges.extend(stale_readers.iter().map(|&reader| (reader, who)));
        for (from, to) in edges {
            self.record_rw_edge(from, to);
        }
        doom_self || self.conservative_flags(who)
    }

    /// Whether `who` committed as an SSI transaction — the read-path
    /// check needs to know the observed-over writer's level.
    pub fn is_committed_ssi(&self, who: AttemptId) -> bool {
        self.committed
            .lock()
            .expect("not poisoned")
            .iter()
            .any(|f| f.attempt == who && f.ssi)
    }

    /// Records a committed footprint (after the detector admitted it).
    pub fn admit(&self, footprint: TxnFootprint) {
        self.committed.lock().expect("not poisoned").push(footprint);
    }

    /// Drops footprints no future transaction can be concurrent with
    /// (`commit_ts < horizon`, where `horizon` is at or below the start
    /// of every active transaction).
    pub fn gc(&self, horizon: u64) {
        self.committed
            .lock()
            .expect("not poisoned")
            .retain(|f| f.commit_ts >= horizon);
    }

    /// Number of retained committed footprints (diagnostics).
    #[cfg(test)]
    pub fn retained(&self) -> usize {
        self.committed.lock().expect("not poisoned").len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fp(
        attempt: u64,
        ssi: bool,
        start: u64,
        commit: u64,
        reads: &[(u32, u64)],
        writes: &[(u32, u64)],
    ) -> TxnFootprint {
        TxnFootprint {
            attempt: AttemptId(attempt),
            ssi,
            start_ts: start,
            commit_ts: commit,
            reads: reads.iter().map(|&(o, t)| (Object(o), t)).collect(),
            writes: writes.iter().map(|&(o, t)| (Object(o), t)).collect(),
        }
    }

    #[test]
    fn footprint_relations() {
        let a = fp(1, true, 0, 10, &[(1, 0)], &[]);
        let b = fp(2, true, 5, 8, &[], &[(1, 8)]);
        assert!(a.concurrent(&b));
        assert!(a.rw_antidep_to(&b), "a read ts 0, b wrote ts 8");
        assert!(!b.rw_antidep_to(&a));
        let c = fp(3, true, 20, 25, &[], &[(1, 25)]);
        assert!(!a.concurrent(&c));
        assert!(a.rw_antidep_to(&c), "antidependencies ignore concurrency");
    }

    /// Write skew: T1 reads x writes y, T2 reads y writes x, overlapping;
    /// T2 commits first. The structure is T2 →rw T1 →rw T2 (T₁ = T₃ = T2
    /// … pivot T1). Committing the second one must be rejected.
    #[test]
    fn exact_check_rejects_write_skew() {
        let tracker = SharedSsiTracker::new();
        let t2 = fp(2, true, 1, 5, &[(2, 0)], &[(1, 5)]);
        assert!(!tracker.exact_check(&t2), "first committer is fine");
        tracker.admit(t2);
        let t1 = fp(1, true, 0, 8, &[(1, 0)], &[(2, 8)]);
        assert!(
            tracker.exact_check(&t1),
            "second committer completes the structure"
        );
    }

    #[test]
    fn exact_check_ignores_non_ssi() {
        let tracker = SharedSsiTracker::new();
        tracker.admit(fp(2, false, 1, 5, &[(2, 0)], &[(1, 5)]));
        let t1 = fp(1, true, 0, 8, &[(1, 0)], &[(2, 8)]);
        assert!(!tracker.exact_check(&t1), "structure needs all three SSI");
        let t1_rc = fp(3, false, 0, 9, &[(1, 0)], &[(2, 9)]);
        assert!(!tracker.exact_check(&t1_rc));
    }

    #[test]
    fn exact_check_requires_t3_first() {
        // Three transactions, T1 →rw T2 →rw T3, but T3 commits last: safe.
        let tracker = SharedSsiTracker::new();
        tracker.admit(fp(1, true, 0, 10, &[(1, 0)], &[]));
        tracker.admit(fp(2, true, 1, 12, &[(2, 0)], &[(1, 12)]));
        let t3 = fp(3, true, 2, 15, &[], &[(2, 15)]);
        assert!(
            !tracker.exact_check(&t3),
            "T3 committing last is not dangerous"
        );
    }

    #[test]
    fn three_txn_pivot_detected() {
        // T3 commits first, then T1, then T2 (the pivot completes it).
        let tracker = SharedSsiTracker::new();
        tracker.admit(fp(3, true, 2, 6, &[], &[(2, 6)]));
        tracker.admit(fp(1, true, 0, 9, &[(1, 0)], &[]));
        let t2 = fp(2, true, 1, 12, &[(2, 0)], &[(1, 12)]);
        assert!(tracker.exact_check(&t2));
    }

    #[test]
    fn conservative_flags_behaviour() {
        let tracker = SharedSsiTracker::new();
        let (a, b, c) = (AttemptId(1), AttemptId(2), AttemptId(3));
        tracker.record_rw_edge(a, b);
        assert!(!tracker.conservative_flags(a));
        assert!(!tracker.conservative_flags(b));
        tracker.record_rw_edge(b, c);
        assert!(tracker.conservative_flags(b), "b has in + out");
        tracker.forget(b);
        assert!(!tracker.conservative_flags(b));
    }

    #[test]
    fn flags_are_shared_across_threads() {
        let t = SharedSsiTracker::new();
        let (a, b, c) = (AttemptId(1), AttemptId(2), AttemptId(3));
        std::thread::scope(|sc| {
            sc.spawn(|| t.record_rw_edge(a, b));
            sc.spawn(|| t.record_rw_edge(b, c));
        });
        assert!(t.conservative_flags(b), "b has in + out");
        assert!(!t.conservative_flags(a));
        assert!(t.has_out(a) && t.has_in(c));
    }

    /// The write skew of `exact_check_rejects_write_skew` under the
    /// conservative protocol: the second committer gains both flags.
    #[test]
    fn conservative_check_flags_write_skew_and_stale_readers() {
        let tracker = SharedSsiTracker::new();
        let t2 = fp(2, true, 1, 5, &[(2, 0)], &[(1, 5)]);
        assert!(!tracker.conservative_check(&t2, &[]));
        tracker.admit(t2);
        let t1 = fp(1, true, 0, 8, &[(1, 0)], &[(2, 8)]);
        assert!(tracker.conservative_check(&t1, &[]));
        // A step (2) edge alone gives the committer an incoming flag only.
        let (t4, reader) = (fp(4, true, 9, 12, &[], &[(3, 12)]), AttemptId(7));
        assert!(!tracker.conservative_check(&t4, &[reader]));
        assert!(tracker.has_in(t4.attempt) && tracker.has_out(reader));
    }

    #[test]
    fn gc_drops_old_footprints() {
        let tracker = SharedSsiTracker::new();
        tracker.admit(fp(1, true, 0, 5, &[], &[]));
        tracker.admit(fp(2, true, 6, 9, &[], &[]));
        assert_eq!(tracker.retained(), 2);
        assert!(tracker.is_committed_ssi(AttemptId(1)));
        assert!(!tracker.is_committed_ssi(AttemptId(99)));
        tracker.gc(6);
        assert_eq!(tracker.retained(), 1);
        assert!(!tracker.is_committed_ssi(AttemptId(1)));
        tracker.gc(100);
        assert_eq!(tracker.retained(), 0);
    }
}
