//! The stripe-sharded version store both engines read and install into
//! through [`crate::mvcc`].
//!
//! Publication order is the correctness crux of the whole parallel
//! design, so it is pinned here, at the storage layer:
//!
//! - a **read** draws its tick *while holding the stripe's read lock*,
//!   so no commit to any object in the stripe can interleave between
//!   the tick and the chain lookup — if the read's tick precedes a
//!   version's commit tick, the read provably did not observe it, and
//!   vice versa;
//! - a **commit** draws its tick *while holding the write locks of
//!   every stripe it will install into* (acquired in stripe order, a
//!   deadlock-free total order), then installs before releasing — so a
//!   version with commit tick `c` is visible to exactly the reads
//!   ticked after `c`.
//!
//! Sorting the per-attempt event buffers by tick therefore yields a
//! linearization in which every read/commit pair is ordered the same
//! way the store actually served them — which is why the exported
//! trace of a parallel run passes the `allowed_under` oracle (see
//! `crate::par`).

use crate::version::{Observed, Version};
use mvmodel::Object;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{RwLock, RwLockWriteGuard};

/// Number of version-store stripes. A power of two well above typical
/// worker counts so stripe collisions between disjoint partitions stay
/// rare.
const STRIPES: usize = 32;

type Chains = HashMap<Object, Vec<Version>>;

/// Fibonacci-hash the object id into a stripe (top bits, so consecutive
/// ids scatter).
fn stripe_of(object: Object) -> usize {
    ((object.0 as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 59) as usize % STRIPES
}

/// Committed versions per object, each chain ascending by commit
/// timestamp, sharded into independently locked stripes. The initial
/// version `op₀` (timestamp 0) is implicit.
pub(crate) struct SharedVersionStore {
    stripes: Vec<RwLock<Chains>>,
}

impl SharedVersionStore {
    pub fn new() -> Self {
        SharedVersionStore {
            stripes: (0..STRIPES).map(|_| RwLock::new(HashMap::new())).collect(),
        }
    }

    /// Reads `object` under the stripe's read lock, drawing the read
    /// tick inside the critical section. `snapshot: None` means the
    /// freshly drawn tick is the snapshot (RC per-statement reads, and
    /// the first operation of a snapshot transaction); `Some(s)` reads
    /// at the established transaction snapshot. Returns `(tick,
    /// observed, latest)` — `latest` feeds the conservative SSI
    /// read-path check without a second lock round-trip.
    pub fn read(
        &self,
        object: Object,
        snapshot: Option<u64>,
        clock: &AtomicU64,
    ) -> (u64, Observed, Observed) {
        let guard = self.stripes[stripe_of(object)]
            .read()
            .expect("not poisoned");
        let ts = clock.fetch_add(1, Ordering::SeqCst) + 1;
        let snap = snapshot.unwrap_or(ts);
        match guard.get(&object) {
            None => (ts, Observed::Initial, Observed::Initial),
            Some(vs) => {
                let idx = vs.partition_point(|v| v.commit_ts <= snap);
                let observed = if idx == 0 {
                    Observed::Initial
                } else {
                    Observed::Version(vs[idx - 1])
                };
                let latest = vs
                    .last()
                    .map_or(Observed::Initial, |&v| Observed::Version(v));
                (ts, observed, latest)
            }
        }
    }

    /// Whether any version of `object` committed after `ts` — the
    /// first-committer-wins test. Advisory unless the caller holds the
    /// object's write lock in the [`crate::plock::SharedLockTable`]
    /// (installs require that lock, so holding it pins the chain).
    pub fn committed_after(&self, object: Object, ts: u64) -> bool {
        self.stripes[stripe_of(object)]
            .read()
            .expect("not poisoned")
            .get(&object)
            .and_then(|vs| vs.last())
            .is_some_and(|v| v.commit_ts > ts)
    }

    /// Write-locks the stripes covering `objects` — deduped, in stripe
    /// order (the deadlock-free total order) — for a commit. The commit
    /// tick must be drawn while the returned guards are held; that is
    /// what linearizes publication against concurrent readers.
    pub fn lock_for_commit(&self, objects: &[Object]) -> CommitGuards<'_> {
        let mut idxs: Vec<usize> = objects.iter().map(|&o| stripe_of(o)).collect();
        idxs.sort_unstable();
        idxs.dedup();
        CommitGuards {
            guards: idxs
                .into_iter()
                .map(|i| (i, self.stripes[i].write().expect("not poisoned")))
                .collect(),
        }
    }

    /// Prunes versions no snapshot at or above `watermark` can observe,
    /// one stripe at a time: per object, keeps the newest version with
    /// `commit_ts <= watermark` — the version a reader pinned exactly at
    /// the watermark observes — plus every newer one, so the latest
    /// version (and with it first-committer-wins) always survives.
    /// Returns the number pruned.
    pub fn gc(&self, watermark: u64) -> u64 {
        let mut pruned = 0u64;
        for stripe in &self.stripes {
            let mut chains = stripe.write().expect("not poisoned");
            for vs in chains.values_mut() {
                let cut = vs.partition_point(|v| v.commit_ts <= watermark);
                if cut > 1 {
                    pruned += cut as u64 - 1;
                    vs.drain(..cut - 1);
                }
            }
        }
        pruned
    }

    /// Number of retained committed versions of `object` (diagnostics).
    pub fn version_count(&self, object: Object) -> usize {
        self.stripes[stripe_of(object)]
            .read()
            .expect("not poisoned")
            .get(&object)
            .map_or(0, |v| v.len())
    }
}

/// Write guards over the stripes a commit installs into, held across
/// tick draw → SSI decision → install.
pub(crate) struct CommitGuards<'a> {
    guards: Vec<(usize, RwLockWriteGuard<'a, Chains>)>,
}

impl CommitGuards<'_> {
    /// Installs a version; the target stripe must be among the locked
    /// ones (it is, by construction from the same write set).
    pub fn install(&mut self, object: Object, version: Version) {
        let sid = stripe_of(object);
        let chains = &mut self
            .guards
            .iter_mut()
            .find(|(i, _)| *i == sid)
            .expect("stripe locked for commit")
            .1;
        let vs = chains.entry(object).or_default();
        debug_assert!(vs.last().is_none_or(|v| v.commit_ts < version.commit_ts));
        vs.push(version);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::version::AttemptId;

    fn obj(n: u32) -> Object {
        Object(n)
    }

    /// Commits one version of `object` at tick `ct`, drawn under the
    /// stripe guard the way a commit draws it.
    fn install(store: &SharedVersionStore, clock: &AtomicU64, object: Object, ct: u64) {
        clock.store(ct - 1, Ordering::SeqCst);
        let mut g = store.lock_for_commit(&[object]);
        let drawn = clock.fetch_add(1, Ordering::SeqCst) + 1;
        assert_eq!(drawn, ct);
        g.install(
            object,
            Version {
                commit_ts: ct,
                writer: AttemptId(ct),
            },
        );
    }

    #[test]
    fn read_ticks_are_drawn_inside_the_critical_section() {
        let store = SharedVersionStore::new();
        let clock = AtomicU64::new(0);
        let (t1, obs, latest) = store.read(obj(1), None, &clock);
        assert_eq!(t1, 1);
        assert_eq!(obs, Observed::Initial);
        assert_eq!(obs.ts(), 0);
        assert_eq!(latest, Observed::Initial);
        let (t2, _, _) = store.read(obj(1), None, &clock);
        assert_eq!(t2, 2, "ticks are unique and monotone");
        assert_eq!(store.version_count(obj(1)), 0);
    }

    #[test]
    fn commit_installs_under_guards_and_readers_see_it() {
        let store = SharedVersionStore::new();
        let clock = AtomicU64::new(0);
        let writes = [obj(1), obj(2)];
        let mut guards = store.lock_for_commit(&writes);
        let ct = clock.fetch_add(1, Ordering::SeqCst) + 1;
        for &o in &writes {
            guards.install(
                o,
                Version {
                    commit_ts: ct,
                    writer: AttemptId(9),
                },
            );
        }
        drop(guards);
        let (ts, obs, latest) = store.read(obj(1), None, &clock);
        assert!(ts > ct);
        assert_eq!(obs.writer(), Some(AttemptId(9)));
        assert_eq!(latest.ts(), ct);
        // A snapshot below the commit still reads the initial version.
        let (_, old, _) = store.read(obj(2), Some(ct - 1), &clock);
        assert_eq!(old, Observed::Initial);
        assert_eq!(old.writer(), None);
    }

    #[test]
    fn committed_after_detects_concurrent_committers() {
        let store = SharedVersionStore::new();
        let clock = AtomicU64::new(0);
        assert!(!store.committed_after(obj(1), 3));
        install(&store, &clock, obj(1), 5);
        assert!(store.committed_after(obj(1), 3));
        assert!(!store.committed_after(obj(1), 5));
    }

    #[test]
    fn gc_keeps_the_reader_at_watermark_boundary_version() {
        let store = SharedVersionStore::new();
        let clock = AtomicU64::new(0);
        for ct in [3u64, 5, 9] {
            install(&store, &clock, obj(7), ct);
        }
        // A reader pinned at snapshot 7 observes ct=5; pruning must keep
        // it even though 5 < 7.
        assert_eq!(store.gc(7), 1, "ct=3 is below the boundary version");
        assert_eq!(store.version_count(obj(7)), 2);
        for (snapshot, seen) in [(7, 5), (8, 5), (9, 9)] {
            let (_, observed, _) = store.read(obj(7), Some(snapshot), &clock);
            assert_eq!(observed.ts(), seen, "snapshot {snapshot}");
        }
        // Watermark exactly on a version: that version survives, older
        // ones go; a watermark below every version prunes nothing.
        assert_eq!(store.gc(9), 1);
        assert_eq!(store.read(obj(7), Some(9), &clock).1.ts(), 9);
        assert_eq!(store.gc(0), 0);
        assert_eq!(store.version_count(obj(7)), 1);
    }

    #[test]
    fn gc_preserves_committed_after_semantics() {
        let store = SharedVersionStore::new();
        let clock = AtomicU64::new(0);
        install(&store, &clock, obj(2), 4);
        install(&store, &clock, obj(2), 10);
        store.gc(10);
        // The first-committer-wins test only consults the latest
        // version, which GC never drops.
        assert!(store.committed_after(obj(2), 4));
        assert!(!store.committed_after(obj(2), 10));
    }

    #[test]
    fn stripes_cover_all_objects() {
        for n in 0..1000u32 {
            assert!(stripe_of(Object(n)) < STRIPES);
        }
    }
}
