//! Bit-for-bit equivalence of coalesced batches
//! ([`Allocator::apply_batch`]) with the sequential delta API, on
//! randomized event sequences split at random cut-points:
//!
//! - the concatenated per-event verdicts of the batched run equal the
//!   verdicts of applying the same events one at a time through
//!   [`Allocator::add_txn`] / [`Allocator::remove_txn`] — including
//!   duplicate-add and unknown-remove rejections;
//! - after every batch the maintained optimum equals a fresh monolithic
//!   recomputation of the current set, and the reported `changed` list
//!   is exactly the diff of the pre-batch and post-batch optima;
//! - results are identical at every thread count and with component
//!   sharding on or off, over both level menus;
//! - a deadline that expires mid-batch rolls the *whole* batch back:
//!   the pre-batch set and optimum keep being served (the registry's
//!   last-known-good degradation story), and re-applying the same
//!   batch without the fault converges to the true optimum;
//! - on clone-heavy scripts, classes move across one, two and three
//!   copies inside and across batches, with forced-timeout batches
//!   among them.
//!
//! The from-scratch optimum is the never-capped reference
//! (`optimal_allocation_reference` and its `{RC, SI}` counterpart), so
//! the engine's clone cap is checked against an implementation without
//! one.

use mvisolation::Allocation;
use mvmodel::{Op, Transaction, TransactionSet, TxnId};
use mvrobustness::{
    optimal_allocation_rc_si_reference, optimal_allocation_reference, AllocError, Allocator,
    DeltaEvent, LevelSet,
};
use rand::rngs::SmallRng;
use rand::{RngExt, SeedableRng};
use std::time::Instant;

/// A random transaction of 1..=4 distinct operations over `n_objects`
/// shared objects (raw ids — conflicts derive from ids, names are
/// cosmetic).
fn random_txn(rng: &mut SmallRng, id: u32, n_objects: u32) -> Transaction {
    let len = rng.random_range(1..=4usize);
    let mut used: Vec<(bool, u32)> = Vec::new();
    let mut ops = Vec::new();
    for _ in 0..len {
        let raw = rng.random_range(0..n_objects);
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
    }
    Transaction::new(TxnId(id), ops).expect("generator avoids duplicate operations")
}

/// A random event script: mostly live adds and removes, salted with
/// duplicate adds of present ids and removes of never-registered ids so
/// both rejection verdicts are exercised. The `present` bookkeeping is
/// optimistic (an `{RC, SI}` engine may reject an add it lists), which
/// only makes the script more adversarial — both runs see the same
/// events either way.
fn random_events(rng: &mut SmallRng, n: usize) -> Vec<DeltaEvent> {
    let mut present: Vec<u32> = Vec::new();
    let mut next_id = 1u32;
    let mut events = Vec::with_capacity(n);
    for _ in 0..n {
        let roll = rng.random_range(0..100u32);
        if roll < 8 && !present.is_empty() {
            let id = present[rng.random_range(0..present.len())];
            events.push(DeltaEvent::Add(random_txn(rng, id, 5)));
        } else if roll < 14 {
            events.push(DeltaEvent::Remove(TxnId(next_id + 500)));
        } else if roll < 60 || present.len() < 3 {
            let id = next_id;
            next_id += 1;
            events.push(DeltaEvent::Add(random_txn(rng, id, 5)));
            present.push(id);
        } else {
            let idx = rng.random_range(0..present.len());
            let id = present.remove(idx);
            events.push(DeltaEvent::Remove(TxnId(id)));
        }
    }
    events
}

/// Splits the script at random cut-points into batches of 1..=9 events.
fn random_chunks(rng: &mut SmallRng, events: Vec<DeltaEvent>) -> Vec<Vec<DeltaEvent>> {
    let mut chunks = Vec::new();
    let mut rest = events;
    while !rest.is_empty() {
        let take = rng.random_range(1..=rest.len().min(9));
        let tail = rest.split_off(take);
        chunks.push(rest);
        rest = tail;
    }
    chunks
}

/// The from-scratch optimum of `txns` over `levels`, by the never-capped
/// reference implementation.
fn full_recompute(txns: &TransactionSet, levels: LevelSet) -> Option<Allocation> {
    match levels {
        LevelSet::RcSiSsi => Some(optimal_allocation_reference(txns)),
        LevelSet::RcSi => optimal_allocation_rc_si_reference(txns),
    }
}

/// The ground truth: the same events applied one at a time through the
/// sequential delta API. Returns per-event verdicts and the final
/// optimum.
fn sequential_baseline(
    events: &[DeltaEvent],
    levels: LevelSet,
) -> (Vec<Result<(), AllocError>>, Allocation) {
    let mut alloc = Allocator::from_owned(TransactionSet::default()).with_levels(levels);
    let mut verdicts = Vec::with_capacity(events.len());
    for ev in events {
        verdicts.push(match ev.clone() {
            DeltaEvent::Add(txn) => alloc.add_txn(txn).map(|_| ()),
            DeltaEvent::Remove(id) => alloc.remove_txn(id).map(|_| ()),
        });
    }
    let last = alloc
        .current()
        .expect("survivor set is allocatable")
        .clone();
    (verdicts, last)
}

fn check_equivalence(seed: u64, levels: LevelSet, threads: usize, components: bool) {
    let mut rng = SmallRng::seed_from_u64(seed);
    let events = random_events(&mut rng, 36);
    let (expected_verdicts, expected_final) = sequential_baseline(&events, levels);
    assert!(
        expected_verdicts.iter().any(|v| v.is_err()),
        "seed {seed:#x}: no rejection exercised — tune the generator"
    );

    let chunks = random_chunks(&mut rng, events);
    assert!(
        chunks.iter().any(|c| c.len() > 1),
        "seed {seed:#x}: every chunk is a singleton — no coalescing exercised"
    );
    let mut alloc = Allocator::from_owned(TransactionSet::default())
        .with_levels(levels)
        .with_threads(threads)
        .with_components(components);
    let mut prev = alloc.current().expect("empty set is allocatable").clone();
    let mut verdicts = Vec::new();
    for (k, chunk) in chunks.into_iter().enumerate() {
        let n = chunk.len();
        let batch = alloc
            .apply_batch(chunk)
            .expect("no deadline is configured, so batches never time out");
        assert_eq!(
            batch.stats.batch_events, n as u64,
            "batch {k}: batch_events must count this drain's events"
        );
        assert_eq!(
            batch.changed,
            prev.diff(&batch.allocation),
            "batch {k}: changed list is not the diff of pre- and post-batch optima"
        );
        let expected = full_recompute(alloc.txns(), levels)
            .expect("batch reported success, so the surviving set is allocatable");
        assert_eq!(
            batch.allocation,
            expected,
            "batch {k}: batched optimum diverged from monolithic recomputation\n{}",
            mvmodel::fmt::transaction_set(alloc.txns())
        );
        prev = batch.allocation;
        verdicts.extend(batch.outcomes);
    }
    assert_eq!(
        verdicts, expected_verdicts,
        "seed {seed:#x}: batched verdicts diverged from the sequential delta API"
    );
    assert_eq!(
        prev, expected_final,
        "seed {seed:#x}: final batched optimum diverged from the sequential final optimum"
    );
}

#[test]
fn batched_equals_sequential_rc_si_ssi() {
    for seed in [0xBA7C80001u64, 0xBA7C80002, 0xBA7C80003] {
        check_equivalence(seed, LevelSet::RcSiSsi, 1, true);
    }
}

#[test]
fn batched_equals_sequential_rc_si() {
    for seed in [0xBA7C80011u64, 0xBA7C80012] {
        check_equivalence(seed, LevelSet::RcSi, 1, true);
    }
}

#[test]
fn batched_equivalence_across_threads_and_sharding() {
    for &(threads, components) in &[(2usize, true), (4, true), (1, false), (4, false)] {
        check_equivalence(0xBA7C80021, LevelSet::RcSiSsi, threads, components);
        check_equivalence(0xBA7C80022, LevelSet::RcSi, threads, components);
    }
}

/// An empty batch is a no-op with a trivial reply.
#[test]
fn empty_batch_is_a_noop() {
    let mut rng = SmallRng::seed_from_u64(0xBA7C80031);
    let mut alloc = Allocator::from_owned(TransactionSet::default());
    let warm: Vec<DeltaEvent> = (1..=4)
        .map(|id| DeltaEvent::Add(random_txn(&mut rng, id, 4)))
        .collect();
    alloc.apply_batch(warm).expect("warm-up batch applies");
    let before = alloc.current().unwrap().clone();
    let reply = alloc.apply_batch(Vec::new()).expect("empty batch succeeds");
    assert_eq!(reply.allocation, before);
    assert!(reply.outcomes.is_empty());
    assert!(reply.changed.is_empty());
    assert_eq!(reply.stats.batch_events, 0);
}

/// The chaos round: a deadline that is already expired when the batch
/// arrives (how the registry injects a scripted realloc timeout) must
/// reject the whole batch, leave the pre-batch set and optimum serving
/// (last-known-good), and let the identical batch apply cleanly
/// afterwards.
#[test]
fn expired_deadline_rolls_back_the_whole_batch() {
    for levels in [LevelSet::RcSiSsi, LevelSet::RcSi] {
        let mut rng = SmallRng::seed_from_u64(0xBA7C80041);
        let mut alloc = Allocator::from_owned(TransactionSet::default()).with_levels(levels);
        let warm: Vec<DeltaEvent> = (1..=6)
            .map(|id| DeltaEvent::Add(random_txn(&mut rng, id, 4)))
            .collect();
        alloc.apply_batch(warm).expect("warm-up batch applies");
        let good_alloc = alloc.current().unwrap().clone();
        let good_len = alloc.txns().len();

        let batch = vec![
            DeltaEvent::Add(random_txn(&mut rng, 7, 4)),
            DeltaEvent::Remove(TxnId(2)),
            DeltaEvent::Add(random_txn(&mut rng, 8, 4)),
        ];
        let err = alloc
            .apply_batch_by(batch.clone(), Some(Instant::now()))
            .expect_err("an expired deadline must reject the batch");
        assert_eq!(err, AllocError::Timeout);
        assert_eq!(alloc.txns().len(), good_len, "{levels}: set must roll back");
        assert!(
            alloc.txns().contains(TxnId(2)),
            "{levels}: removal rolled back"
        );
        assert!(
            !alloc.txns().contains(TxnId(7)),
            "{levels}: add rolled back"
        );
        assert_eq!(
            alloc.current().unwrap(),
            &good_alloc,
            "{levels}: last-known-good optimum must keep serving"
        );

        // After the rollback the batched allocator's set is identical
        // to a sequential allocator's after warm-up, so the recovery
        // batch must produce exactly the sequential verdicts (over
        // {RC, SI} an add may legitimately be unallocatable).
        let mut seq = Allocator::from_owned(alloc.txns().clone()).with_levels(levels);
        let seq_verdicts: Vec<Result<(), AllocError>> = batch
            .iter()
            .map(|ev| match ev.clone() {
                DeltaEvent::Add(txn) => seq.add_txn(txn).map(|_| ()),
                DeltaEvent::Remove(id) => seq.remove_txn(id).map(|_| ()),
            })
            .collect();
        let ok = alloc
            .apply_batch(batch)
            .expect("the same batch without the fault applies");
        assert_eq!(
            ok.outcomes, seq_verdicts,
            "{levels}: post-recovery verdicts diverged from the sequential delta API"
        );
        assert_eq!(
            ok.allocation,
            full_recompute(alloc.txns(), levels).expect("post-batch set is allocatable"),
            "{levels}: post-recovery optimum diverged from monolithic recomputation"
        );
    }
}

/// A clone-heavy event script: every transaction is a copy of one of
/// three distinct random programs over objects 0–2, or of `R[3] W[3]`, a
/// lost update on an object of its own (two copies need SI, one runs at
/// RC). The script keeps each class between zero and four copies, so
/// batches move classes across one, two and three copies (and a batch
/// of only third-copy arrivals and departures is answered without a
/// solve). Duplicate adds and unknown removes ride along.
fn clone_events(rng: &mut SmallRng, n: usize) -> Vec<DeltaEvent> {
    let mut programs: Vec<Vec<Op>> = Vec::new();
    while programs.len() < 3 {
        let ops = random_txn(rng, 0, 3).ops().to_vec();
        if !programs.contains(&ops) {
            programs.push(ops);
        }
    }
    let x = mvmodel::Object(3);
    programs.push(vec![Op::read(x), Op::write(x)]);
    let mut copies: Vec<Vec<u32>> = vec![Vec::new(); programs.len()];
    let mut next_id = 1u32;
    let mut events = Vec::with_capacity(n);
    for _ in 0..n {
        let p = rng.random_range(0..programs.len());
        let k = copies[p].len();
        let roll = rng.random_range(0..100u32);
        if roll < 6 && k > 0 {
            let id = copies[p][0];
            events.push(DeltaEvent::Add(
                Transaction::new(TxnId(id), programs[p].clone()).unwrap(),
            ));
        } else if roll < 10 {
            events.push(DeltaEvent::Remove(TxnId(next_id + 500)));
        } else if k == 0 || (k < 4 && roll < 62) {
            let id = next_id;
            next_id += 1;
            events.push(DeltaEvent::Add(
                Transaction::new(TxnId(id), programs[p].clone()).unwrap(),
            ));
            copies[p].push(id);
        } else {
            let id = copies[p].remove(rng.random_range(0..k));
            events.push(DeltaEvent::Remove(TxnId(id)));
        }
    }
    events
}

/// Replays a clone-heavy script in random batches, issuing about one
/// batch in five first against an expired deadline: it must fail with
/// [`AllocError::Timeout`] and leave the set and optimum untouched.
/// Verdicts and the final optimum must equal the sequential delta API,
/// and every batch's optimum the reference optimum.
fn check_clone_batches(seed: u64, levels: LevelSet, components: bool) {
    let mut rng = SmallRng::seed_from_u64(seed);
    let events = clone_events(&mut rng, 60);
    let (expected_verdicts, expected_final) = sequential_baseline(&events, levels);
    let chunks = random_chunks(&mut rng, events);
    let mut alloc = Allocator::from_owned(TransactionSet::default())
        .with_levels(levels)
        .with_components(components);
    let mut prev = alloc.current().expect("empty set is allocatable").clone();
    let mut verdicts = Vec::new();
    let (mut timeouts, mut unsolved) = (0, 0);
    for (k, chunk) in chunks.into_iter().enumerate() {
        let ctx = |what: &str| format!("seed {seed:#x} batch {k} ({levels}): {what}");
        if rng.random_bool(0.2) {
            let before = alloc.txns().clone();
            let err = alloc
                .apply_batch_by(chunk.clone(), Some(Instant::now()))
                .expect_err("an expired deadline must reject the batch");
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
        let batch = alloc
            .apply_batch(chunk)
            .expect("no deadline is configured, so batches never time out");
        assert_eq!(
            batch.changed,
            prev.diff(&batch.allocation),
            "{}",
            ctx("diff")
        );
        let expected = full_recompute(alloc.txns(), levels)
            .expect("batch reported success, so the surviving set is allocatable");
        assert_eq!(
            batch.allocation,
            expected,
            "{}\n{}",
            ctx("batched optimum diverged from the reference"),
            mvmodel::fmt::transaction_set(alloc.txns())
        );
        let s = &batch.stats;
        unsolved += usize::from(
            batch.accepted() > 0
                && s.probes + s.cache_hits + s.components_checked + s.components_cached == 0,
        );
        prev = batch.allocation;
        verdicts.extend(batch.outcomes);
    }
    assert!(timeouts > 0, "seed {seed:#x}: no forced timeout");
    assert!(
        unsolved > 0,
        "seed {seed:#x}: no batch was answered without a solve"
    );
    assert_eq!(verdicts, expected_verdicts, "seed {seed:#x}: verdicts");
    assert_eq!(prev, expected_final, "seed {seed:#x}: final optimum");
}

#[test]
fn clone_heavy_batches_equal_sequential_and_reference() {
    for seed in [0xBA7C80051u64, 0xBA7C80052, 0xBA7C80053] {
        check_clone_batches(seed, LevelSet::RcSiSsi, true);
        check_clone_batches(seed, LevelSet::RcSiSsi, false);
        check_clone_batches(seed, LevelSet::RcSi, true);
    }
}
