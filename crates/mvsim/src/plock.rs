//! Sharded exclusive lock table with cross-shard waits-for deadlock
//! detection, shared by both engines through [`crate::mvcc`].
//!
//! Lock state lives in shards (mutex + condvar per shard) so disjoint
//! partitions never contend, but the waits-for graph is global: a cycle
//! can thread through objects in different shards, so the cycle test
//! must see one consistent picture. Every enqueue/grant/release updates
//! the graph atomically with the shard state (lock order is always
//! shard → graph, and no thread ever holds two shard locks), which rules
//! out the race where two attempts concurrently block on each other and
//! neither sees the half-formed cycle.
//!
//! A request never blocks: a queued requester either parks in
//! [`SharedLockTable::await_grant`] (the parallel engine) or is reported
//! blocked until the release that hands it the lock (the sequential step
//! interpreter, which learns whom to wake from
//! [`SharedLockTable::release_all`]).
//!
//! Victim policy is *die-self*: the requester whose enqueue would close
//! a cycle is denied and aborts itself. Waiting attempts are never
//! aborted from outside, so a waiter only ever needs the handoff that
//! grants it the lock.

use crate::version::AttemptId;
use mvmodel::Object;
use std::collections::{HashMap, VecDeque};
use std::sync::{Condvar, Mutex};

/// Number of lock shards; like the store stripes, comfortably above
/// typical worker counts.
const SHARDS: usize = 16;

fn shard_of(object: Object) -> usize {
    ((object.0 as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 60) as usize % SHARDS
}

/// Outcome of a lock request.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum LockOutcome {
    /// Lock acquired (or already held by the requester).
    Granted,
    /// Enqueued behind the holder until a release hands the lock over.
    Enqueued,
    /// Enqueueing would close a waits-for cycle; the requester aborts.
    Deadlock,
}

#[derive(Default)]
struct LockState {
    holder: Option<AttemptId>,
    waiters: VecDeque<AttemptId>,
}

#[derive(Default)]
struct Shard {
    locks: HashMap<Object, LockState>,
}

/// The global waits-for graph: `waiting_on` edges plus a holder map, so
/// the cycle walk never touches shard state.
#[derive(Default)]
struct WaitGraph {
    waiting_on: HashMap<AttemptId, Object>,
    holder: HashMap<Object, AttemptId>,
}

impl WaitGraph {
    /// Whether a waits-for path leads from `from` to `to`. Chains only
    /// (each attempt waits on at most one object), so the walk is
    /// linear; the step bound guards against cycles not through `to`.
    fn path_to(&self, mut from: AttemptId, to: AttemptId) -> bool {
        let mut steps = 0;
        loop {
            if from == to {
                return true;
            }
            let Some(object) = self.waiting_on.get(&from) else {
                return false;
            };
            let Some(&holder) = self.holder.get(object) else {
                return false;
            };
            from = holder;
            steps += 1;
            if steps > self.waiting_on.len() + 1 {
                return false;
            }
        }
    }
}

/// The shared lock table. Writers take exclusive per-object locks held
/// until commit or abort; reads never lock (MVCC).
pub(crate) struct SharedLockTable {
    shards: Vec<(Mutex<Shard>, Condvar)>,
    graph: Mutex<WaitGraph>,
}

impl SharedLockTable {
    pub fn new() -> Self {
        SharedLockTable {
            shards: (0..SHARDS)
                .map(|_| (Mutex::new(Shard::default()), Condvar::new()))
                .collect(),
            graph: Mutex::new(WaitGraph::default()),
        }
    }

    /// Requests the exclusive lock on `object` for `who`. Never blocks:
    /// on [`LockOutcome::Enqueued`] the caller waits for the handoff. The
    /// cycle test and the enqueue are atomic under the graph mutex, so
    /// concurrent blockers cannot slip an undetected cycle past each
    /// other.
    pub fn acquire(&self, who: AttemptId, object: Object) -> LockOutcome {
        let (shard, _) = &self.shards[shard_of(object)];
        let mut s = shard.lock().expect("not poisoned");
        let state = s.locks.entry(object).or_default();
        match state.holder {
            None => {
                state.holder = Some(who);
                self.graph
                    .lock()
                    .expect("not poisoned")
                    .holder
                    .insert(object, who);
                LockOutcome::Granted
            }
            Some(h) if h == who => LockOutcome::Granted,
            Some(h) => {
                let mut g = self.graph.lock().expect("not poisoned");
                if g.path_to(h, who) {
                    return LockOutcome::Deadlock;
                }
                g.waiting_on.insert(who, object);
                drop(g);
                if !state.waiters.contains(&who) {
                    state.waiters.push_back(who);
                }
                LockOutcome::Enqueued
            }
        }
    }

    /// Parks until the FIFO handoff makes `who` the holder of `object`.
    /// Must only be called right after [`LockOutcome::Enqueued`].
    pub fn await_grant(&self, who: AttemptId, object: Object) {
        let (shard, cv) = &self.shards[shard_of(object)];
        let mut s = shard.lock().expect("not poisoned");
        while s.locks.get(&object).and_then(|st| st.holder) != Some(who) {
            s = cv.wait(s).expect("not poisoned");
        }
    }

    /// Releases every lock in `held` (commit or abort), handing each to
    /// its first waiter (FIFO) and signalling that shard. `held` is the
    /// attempt's own list of granted locks. Returns the attempts handed a
    /// lock, in `held` order.
    pub fn release_all(&self, who: AttemptId, held: &[Object]) -> Vec<AttemptId> {
        let mut woken = Vec::new();
        for &object in held {
            let (shard, cv) = &self.shards[shard_of(object)];
            let mut s = shard.lock().expect("not poisoned");
            let state = s.locks.get_mut(&object).expect("held lock exists");
            debug_assert_eq!(state.holder, Some(who));
            let mut g = self.graph.lock().expect("not poisoned");
            match state.waiters.pop_front() {
                Some(next) => {
                    state.holder = Some(next);
                    g.holder.insert(object, next);
                    g.waiting_on.remove(&next);
                    woken.push(next);
                }
                None => {
                    state.holder = None;
                    g.holder.remove(&object);
                }
            }
            drop(g);
            drop(s);
            cv.notify_all();
        }
        woken
    }

    /// Whether `who` currently holds the lock on `object` (debug
    /// assertions).
    #[cfg(debug_assertions)]
    pub fn holds(&self, who: AttemptId, object: Object) -> bool {
        self.shards[shard_of(object)]
            .0
            .lock()
            .expect("not poisoned")
            .locks
            .get(&object)
            .is_some_and(|s| s.holder == Some(who))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn a(n: u64) -> AttemptId {
        AttemptId(n)
    }

    fn o(n: u32) -> Object {
        Object(n)
    }

    #[test]
    fn grant_enqueue_handoff() {
        let lt = SharedLockTable::new();
        assert_eq!(lt.acquire(a(1), o(9)), LockOutcome::Granted);
        assert_eq!(lt.acquire(a(1), o(9)), LockOutcome::Granted);
        assert_eq!(lt.acquire(a(2), o(9)), LockOutcome::Enqueued);
        // Handoff: releasing hands the lock to the first waiter, and a
        // parked thread observes the grant.
        std::thread::scope(|sc| {
            let waiter = sc.spawn(|| lt.await_grant(a(2), o(9)));
            assert_eq!(lt.release_all(a(1), &[o(9)]), vec![a(2)]);
            waiter.join().expect("waiter woke");
        });
        #[cfg(debug_assertions)]
        assert!(lt.holds(a(2), o(9)));
    }

    #[test]
    fn cross_shard_cycle_detected() {
        let lt = SharedLockTable::new();
        // Objects chosen so the chain spans multiple shards.
        let (x, y, z) = (o(0), o(1), o(2));
        assert!(shard_of(x) != shard_of(y) || shard_of(y) != shard_of(z));
        assert_eq!(lt.acquire(a(1), x), LockOutcome::Granted);
        assert_eq!(lt.acquire(a(2), y), LockOutcome::Granted);
        assert_eq!(lt.acquire(a(3), z), LockOutcome::Granted);
        assert_eq!(lt.acquire(a(1), y), LockOutcome::Enqueued);
        assert_eq!(lt.acquire(a(2), z), LockOutcome::Enqueued);
        // a3 requesting x closes the 3-cycle through three shards.
        assert_eq!(lt.acquire(a(3), x), LockOutcome::Deadlock);
        // The victim was never enqueued: releasing its own lock hands z
        // to a2, unwinding the chain.
        assert_eq!(lt.release_all(a(3), &[z]), vec![a(2)]);
        assert_eq!(lt.release_all(a(2), &[y, z]), vec![a(1)]);
        assert!(lt.release_all(a(1), &[x, y]).is_empty());
    }

    #[test]
    fn victim_is_always_the_cycle_closer() {
        // Same structure, roles swapped: whoever requests last dies,
        // independent of attempt id order.
        for &(first, second) in &[(1u64, 2u64), (2, 1)] {
            let lt = SharedLockTable::new();
            assert_eq!(lt.acquire(a(first), o(1)), LockOutcome::Granted);
            assert_eq!(lt.acquire(a(second), o(2)), LockOutcome::Granted);
            assert_eq!(lt.acquire(a(first), o(2)), LockOutcome::Enqueued);
            assert_eq!(
                lt.acquire(a(second), o(1)),
                LockOutcome::Deadlock,
                "the closer dies, whichever id it has"
            );
        }
    }

    #[test]
    fn handoff_clears_wait_edge_before_requeue() {
        let lt = SharedLockTable::new();
        assert_eq!(lt.acquire(a(1), o(1)), LockOutcome::Granted);
        assert_eq!(lt.acquire(a(2), o(1)), LockOutcome::Enqueued);
        assert_eq!(lt.acquire(a(3), o(2)), LockOutcome::Granted);
        lt.release_all(a(1), &[o(1)]);
        // a2 now holds o(1); its old wait edge must be gone, so a fresh
        // enqueue on another object is not misread as a cycle.
        assert_eq!(lt.acquire(a(2), o(2)), LockOutcome::Enqueued);
        // And a3 → o(1) now waits on a2: a genuine 2-cycle, detected.
        assert_eq!(lt.acquire(a(3), o(1)), LockOutcome::Deadlock);
    }

    #[test]
    fn fifo_wakeup() {
        let lt = SharedLockTable::new();
        assert_eq!(lt.acquire(a(1), o(1)), LockOutcome::Granted);
        assert_eq!(lt.acquire(a(2), o(1)), LockOutcome::Enqueued);
        assert_eq!(lt.acquire(a(3), o(1)), LockOutcome::Enqueued);
        assert_eq!(lt.release_all(a(1), &[o(1)]), vec![a(2)]);
        assert_eq!(lt.release_all(a(2), &[o(1)]), vec![a(3)]);
        assert!(lt.release_all(a(3), &[o(1)]).is_empty(), "no waiters left");
    }

    #[test]
    fn multiple_locks_released_together() {
        let lt = SharedLockTable::new();
        assert_eq!(lt.acquire(a(1), o(1)), LockOutcome::Granted);
        assert_eq!(lt.acquire(a(1), o(2)), LockOutcome::Granted);
        assert_eq!(lt.acquire(a(2), o(1)), LockOutcome::Enqueued);
        assert_eq!(lt.acquire(a(3), o(2)), LockOutcome::Enqueued);
        // Handoffs come back in the releaser's grant order.
        assert_eq!(lt.release_all(a(1), &[o(1), o(2)]), vec![a(2), a(3)]);
        #[cfg(debug_assertions)]
        assert!(lt.holds(a(2), o(1)) && lt.holds(a(3), o(2)));
    }
}
