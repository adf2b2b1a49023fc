//! Bit-for-bit equivalence of the online delta API
//! ([`Allocator::add_txn`] / [`Allocator::remove_txn`]) with full
//! recomputation, on randomized mutation sequences:
//!
//! - after every successful mutation, the incrementally maintained
//!   optimum equals a fresh `Allocator::new(set).optimal()` (or
//!   `optimal_rc_si`) of the current set — the delta paths reuse cached
//!   counterexamples and refinement floors, but acceptances always come
//!   from a full probe, so the result is the identical allocation;
//! - over `{RC, SI}` a rejected add rolls the set back and the fresh
//!   recomputation of the attempted set indeed has no robust allocation;
//! - the reported `changed` list is exactly the diff of the previous and
//!   new optimum;
//! - the thread count of the delta allocator does not affect results;
//! - on clone-heavy scripts, classes move across one, two and three
//!   copies (a third copy and its departure are answered without a
//!   solve), and forced timeouts roll back every kind of mutation.
//!
//! The from-scratch optimum is the never-capped reference
//! (`optimal_allocation_reference` and its `{RC, SI}` counterpart), so
//! the engine's clone cap is checked against an implementation without
//! one.

use mvisolation::Allocation;
use mvmodel::{Op, Transaction, TransactionSet, TxnId};
use mvrobustness::{
    optimal_allocation_rc_si_reference, optimal_allocation_reference, AllocError, Allocator,
    LevelSet, Realloc,
};
use rand::rngs::SmallRng;
use rand::{RngExt, SeedableRng};
use std::time::Instant;

/// A random transaction of 1..=`max_ops` distinct operations over
/// `n_objects` shared objects, interned against `set`.
fn random_txn(
    rng: &mut SmallRng,
    set: &mut TransactionSet,
    id: u32,
    n_objects: u32,
) -> Transaction {
    let len = rng.random_range(1..=4usize);
    let mut used: Vec<(bool, u32)> = Vec::new();
    let mut ops = Vec::new();
    for _ in 0..len {
        let obj = rng.random_range(0..n_objects);
        let write = rng.random_bool(0.5);
        if used.contains(&(write, obj)) {
            continue;
        }
        used.push((write, obj));
        let object = set.intern_object(&format!("o{obj}"));
        ops.push(if write {
            Op::write(object)
        } else {
            Op::read(object)
        });
    }
    Transaction::new(TxnId(id), ops).expect("generator avoids duplicate operations")
}

/// The from-scratch optimum of `txns` over `levels`, by the never-capped
/// reference implementation.
fn full_recompute(txns: &TransactionSet, levels: LevelSet) -> Option<Allocation> {
    match levels {
        LevelSet::RcSiSsi => Some(optimal_allocation_reference(txns)),
        LevelSet::RcSi => optimal_allocation_rc_si_reference(txns),
    }
}

/// Checks one successful delta result against the previous optimum and a
/// fresh recomputation.
fn assert_delta_matches(
    r: &Realloc,
    prev: &Allocation,
    txns: &TransactionSet,
    levels: LevelSet,
    step: usize,
) {
    let expected = full_recompute(txns, levels)
        .expect("delta reported success, so the set must be allocatable");
    assert_eq!(
        r.allocation,
        expected,
        "step {step}: delta optimum diverged from full recomputation\n{}",
        mvmodel::fmt::transaction_set(txns)
    );
    assert_eq!(
        r.changed,
        prev.diff(&r.allocation),
        "step {step}: changed list is not the diff of prev and new optimum"
    );
}

fn run_sequence(seed: u64, levels: LevelSet, threads: usize) {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut alloc = Allocator::from_owned(TransactionSet::default())
        .with_levels(levels)
        .with_threads(threads);
    let mut prev = alloc.current().expect("empty set is allocatable").clone();
    let mut present: Vec<u32> = Vec::new();
    let mut next_id = 1u32;
    let mut accepted = 0usize;
    let mut rejected = 0usize;

    for step in 0..40 {
        let add = present.len() < 12 && (present.is_empty() || rng.random_bool(0.65));
        if add {
            let id = next_id;
            next_id += 1;
            // Build the transaction against a scratch copy first so a
            // rejected add can be compared with the attempted set.
            let mut attempted = alloc.txns().clone();
            let txn = random_txn(&mut rng, &mut attempted, id, 5);
            attempted.insert(txn.clone()).unwrap();
            match alloc.add_txn(txn) {
                Ok(r) => {
                    assert_delta_matches(&r, &prev, alloc.txns(), levels, step);
                    prev = r.allocation;
                    present.push(id);
                    accepted += 1;
                }
                Err(AllocError::NotAllocatable(l)) => {
                    assert_eq!(l, levels);
                    assert_eq!(
                        full_recompute(&attempted, levels),
                        None,
                        "step {step}: delta rejected an allocatable set\n{}",
                        mvmodel::fmt::transaction_set(&attempted)
                    );
                    // The insertion rolled back; the old optimum stands.
                    assert_eq!(alloc.txns().len(), present.len());
                    assert!(!alloc.txns().contains(TxnId(id)));
                    assert_eq!(alloc.current().unwrap(), &prev);
                    rejected += 1;
                }
                Err(e) => panic!("step {step}: unexpected delta error {e}"),
            }
        } else {
            let idx = rng.random_range(0..present.len());
            let victim = present.remove(idx);
            let r = alloc
                .remove_txn(TxnId(victim))
                .expect("removal never fails");
            assert_delta_matches(&r, &prev, alloc.txns(), levels, step);
            prev = r.allocation;
        }
    }
    assert!(accepted > 0, "seed {seed:#x}: no add ever accepted");
    if levels == LevelSet::RcSi {
        assert!(
            rejected > 0,
            "seed {seed:#x}: no {{RC, SI}} rejection exercised — tune the generator"
        );
    }
}

/// A random transaction whose operations are confined to the private
/// object pools of the given `clusters` (3 objects per pool, addressed
/// by raw id — conflicts derive from ids, names are cosmetic, and
/// interning against a throwaway clone would alias the pools). A single
/// cluster yields a component-local transaction; two clusters yield a
/// *bridge* that merges their conflict components for as long as it is
/// present.
fn pooled_txn(rng: &mut SmallRng, id: u32, clusters: &[u32]) -> Transaction {
    let mut used: Vec<(bool, u32)> = Vec::new();
    let mut ops = Vec::new();
    for &c in clusters {
        // At least one op per listed cluster, so a bridge really spans.
        let per = if clusters.len() > 1 {
            1
        } else {
            rng.random_range(2..=3usize)
        };
        let mut placed = 0;
        while placed < per {
            let raw = c * 3 + rng.random_range(0..3u32);
            let write = rng.random_bool(0.5);
            if used.contains(&(write, raw)) {
                continue;
            }
            used.push((write, raw));
            let object = mvmodel::Object(raw);
            ops.push(if write {
                Op::write(object)
            } else {
                Op::read(object)
            });
            placed += 1;
        }
    }
    Transaction::new(TxnId(id), ops).expect("generator avoids duplicate operations")
}

/// Component-heavy mutation sequence: cluster-local transactions keep
/// several independent conflict components alive, while occasional
/// bridge transactions merge two of them (and their removal splits them
/// again). Every accepted delta must equal the monolithic from-scratch
/// optimum; returns the allocation trace so callers can compare thread
/// counts bit-for-bit.
fn run_clustered_sequence(seed: u64, levels: LevelSet, threads: usize) -> Vec<String> {
    const CLUSTERS: u32 = 4;
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut alloc = Allocator::from_owned(TransactionSet::default())
        .with_levels(levels)
        .with_threads(threads);
    let mut prev = alloc.current().expect("empty set is allocatable").clone();
    let mut present: Vec<u32> = Vec::new();
    let mut next_id = 1u32;
    let mut trace = Vec::new();
    let mut saw_cached = false;
    let mut saw_bridge = false;

    for step in 0..36 {
        let add = present.len() < 14 && (present.len() < 4 || rng.random_bool(0.6));
        if add {
            let id = next_id;
            next_id += 1;
            let bridge = rng.random_bool(0.3);
            let clusters: Vec<u32> = if bridge {
                let a = rng.random_range(0..CLUSTERS);
                let b = (a + 1 + rng.random_range(0..CLUSTERS - 1)) % CLUSTERS;
                vec![a, b]
            } else {
                vec![rng.random_range(0..CLUSTERS)]
            };
            let mut attempted = alloc.txns().clone();
            let txn = pooled_txn(&mut rng, id, &clusters);
            attempted.insert(txn.clone()).unwrap();
            match alloc.add_txn(txn) {
                Ok(r) => {
                    assert_delta_matches(&r, &prev, alloc.txns(), levels, step);
                    if let Some(s) = alloc.last_stats() {
                        saw_cached |= s.components_cached > 0;
                    }
                    prev = r.allocation;
                    present.push(id);
                    saw_bridge |= bridge;
                }
                Err(AllocError::NotAllocatable(l)) => {
                    assert_eq!(l, levels);
                    assert_eq!(
                        full_recompute(&attempted, levels),
                        None,
                        "step {step}: delta rejected an allocatable set\n{}",
                        mvmodel::fmt::transaction_set(&attempted)
                    );
                    assert_eq!(alloc.txns().len(), present.len());
                    assert_eq!(alloc.current().unwrap(), &prev);
                }
                Err(e) => panic!("step {step}: unexpected delta error {e}"),
            }
        } else {
            let idx = rng.random_range(0..present.len());
            let victim = present.remove(idx);
            let r = alloc
                .remove_txn(TxnId(victim))
                .expect("removal never fails");
            assert_delta_matches(&r, &prev, alloc.txns(), levels, step);
            if let Some(s) = alloc.last_stats() {
                saw_cached |= s.components_cached > 0;
            }
            prev = r.allocation;
        }
        trace.push(prev.to_string());
    }
    assert!(
        saw_cached,
        "seed {seed:#x}: no delta ever reused a cached component — tune the generator"
    );
    assert!(saw_bridge, "seed {seed:#x}: no bridge accepted");
    trace
}

/// Bridges merge components on add and split them on remove; every
/// intermediate optimum must equal the monolithic recomputation, and the
/// whole trace must be bit-identical at every thread count.
#[test]
fn clustered_delta_equals_full_recompute_across_threads() {
    for seed in [0xDE17A0031u64, 0xDE17A0032] {
        let reference = run_clustered_sequence(seed, LevelSet::RcSiSsi, 1);
        for threads in [2, 4] {
            assert_eq!(
                run_clustered_sequence(seed, LevelSet::RcSiSsi, threads),
                reference,
                "seed {seed:#x}: trace diverged at {threads} threads"
            );
        }
    }
}

/// The same component-heavy sequence over `{RC, SI}` exercises the
/// per-component Unallocatable detection path.
#[test]
fn clustered_delta_equals_full_recompute_rc_si() {
    run_clustered_sequence(0xDE17A0041, LevelSet::RcSi, 1);
}

#[test]
fn delta_equals_full_recompute_rc_si_ssi() {
    for seed in [0xDE17A0001u64, 0xDE17A0002, 0xDE17A0003] {
        run_sequence(seed, LevelSet::RcSiSsi, 1);
    }
}

#[test]
fn delta_equals_full_recompute_rc_si() {
    for seed in [0xDE17A0011u64, 0xDE17A0012, 0xDE17A0013] {
        run_sequence(seed, LevelSet::RcSi, 1);
    }
}

#[test]
fn delta_results_independent_of_thread_count() {
    run_sequence(0xDE17A0021, LevelSet::RcSiSsi, 4);
    run_sequence(0xDE17A0022, LevelSet::RcSi, 2);
}

/// Whether a delta was answered without any engine work.
fn unsolved(r: &Realloc) -> bool {
    let s = &r.stats;
    s.probes + s.cache_hits + s.components_checked + s.components_cached == 0
}

/// Copies per class that a clone-heavy script moves across.
const MAX_COPIES: usize = 3;

/// A clone-heavy mutation script: transactions are copies of three
/// distinct random programs and of [`lost_update`], and each step adds
/// or removes one copy so classes move across one, two and three copies
/// (the third copy, and a copy leaving three, is the no-solve path). About one mutation in six is
/// first issued against an expired deadline and must fail with
/// [`AllocError::Timeout`], leaving the set and optimum untouched,
/// before it is applied. Every result must equal the reference optimum,
/// and a mutation that leaves every class at two or more copies must
/// cost no engine work at all. Returns how many 1 → 2 and 2 → 1 moves
/// changed a level besides the moved copy's.
fn run_clone_sequence(seed: u64, levels: LevelSet, components: bool) -> (usize, usize) {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut objects = TransactionSet::default();
    let mut programs: Vec<Vec<Op>> = Vec::new();
    while programs.len() < 3 {
        let ops = random_txn(&mut rng, &mut objects, 0, 3).ops().to_vec();
        if !programs.contains(&ops) {
            programs.push(ops);
        }
    }
    programs.push(lost_update(&mut objects));
    let mut alloc = Allocator::from_owned(TransactionSet::default())
        .with_levels(levels)
        .with_components(components);
    let mut prev = alloc.current().expect("empty set is allocatable").clone();
    // Live copies per program.
    let mut copies: Vec<Vec<u32>> = vec![Vec::new(); programs.len()];
    let mut next_id = 1u32;
    // (copies before, copies after) of every applied mutation.
    let mut moves: Vec<(usize, usize)> = Vec::new();
    let (mut raised, mut lowered) = (0, 0);
    let mut timeouts = 0;
    for step in 0..48 {
        let p = rng.random_range(0..programs.len());
        let k = copies[p].len();
        let add = k == 0 || (k < MAX_COPIES + 1 && rng.random_bool(0.6));
        let forced = rng.random_bool(0.17);
        let ctx = |what: &str| format!("seed {seed:#x} step {step} ({levels}): {what}");
        if forced {
            let before = alloc.txns().clone();
            let err = if add {
                let txn = Transaction::new(TxnId(next_id), programs[p].clone()).unwrap();
                alloc.add_txn_by(txn, Some(Instant::now())).unwrap_err()
            } else {
                let victim = copies[p][rng.random_range(0..k)];
                alloc
                    .remove_txn_by(TxnId(victim), Some(Instant::now()))
                    .unwrap_err()
            };
            assert_eq!(err, AllocError::Timeout, "{}", ctx("forced timeout"));
            assert_eq!(alloc.txns(), &before, "{}", ctx("timed-out set"));
            assert_eq!(
                alloc.current().unwrap(),
                &prev,
                "{}",
                ctx("timed-out optimum")
            );
            timeouts += 1;
        }
        if add {
            let id = next_id;
            next_id += 1;
            let txn = Transaction::new(TxnId(id), programs[p].clone()).unwrap();
            let mut attempted = alloc.txns().clone();
            attempted.insert(txn.clone()).unwrap();
            match alloc.add_txn(txn) {
                Ok(r) => {
                    assert_delta_matches(&r, &prev, alloc.txns(), levels, step);
                    assert_eq!(
                        unsolved(&r),
                        k >= 2,
                        "{}",
                        ctx(&format!("add to a class of {k}: {}", r.stats))
                    );
                    raised += usize::from(k == 1 && r.changed.len() > 1);
                    prev = r.allocation;
                    copies[p].push(id);
                    moves.push((k, k + 1));
                }
                Err(AllocError::NotAllocatable(_)) => {
                    assert_eq!(
                        full_recompute(&attempted, levels),
                        None,
                        "{}",
                        ctx("rejected an allocatable set")
                    );
                    assert_eq!(alloc.current().unwrap(), &prev);
                }
                Err(e) => panic!("{}", ctx(&format!("unexpected error {e}"))),
            }
        } else {
            let victim = copies[p].remove(rng.random_range(0..k));
            let r = alloc
                .remove_txn(TxnId(victim))
                .expect("removal never fails");
            assert_delta_matches(&r, &prev, alloc.txns(), levels, step);
            if k >= 3 {
                assert!(
                    unsolved(&r),
                    "{}",
                    ctx(&format!("remove from a class of {k}: {}", r.stats))
                );
            }
            lowered += usize::from(k == 2 && r.changed.len() > 1);
            prev = r.allocation;
            moves.push((k, k - 1));
        }
    }
    for m in [(1, 2), (2, 3), (3, 2), (2, 1)] {
        assert!(
            moves.contains(&m),
            "seed {seed:#x}: no class moved {} → {} copies — tune the script",
            m.0,
            m.1
        );
    }
    assert!(timeouts > 0, "seed {seed:#x}: no forced timeout");
    (raised, lowered)
}

/// Two copies of `R[x] W[x]` over an object of its own: the pair needs
/// SI against a lost update, while one copy alone runs at RC, so a cap
/// (or a no-solve shortcut) that conflates one copy with two changes the
/// optimum.
fn lost_update(objects: &mut TransactionSet) -> Vec<Op> {
    let x = objects.intern_object("lost_update");
    vec![Op::read(x), Op::write(x)]
}

#[test]
fn clone_heavy_delta_equals_the_uncapped_reference() {
    let (mut raised, mut lowered) = (0, 0);
    let mut tally = |(r, l): (usize, usize)| {
        raised += r;
        lowered += l;
    };
    for seed in [0xDE17A0051u64, 0xDE17A0052, 0xDE17A0053] {
        tally(run_clone_sequence(seed, LevelSet::RcSiSsi, true));
        tally(run_clone_sequence(seed, LevelSet::RcSiSsi, false));
    }
    for seed in [0xDE17A0061u64, 0xDE17A0062] {
        tally(run_clone_sequence(seed, LevelSet::RcSi, true));
    }
    assert!(
        raised > 0 && lowered > 0,
        "no 1 → 2 ({raised}) or 2 → 1 ({lowered}) move changed another level — tune the script"
    );
}
