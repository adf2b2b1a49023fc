//! The clone-cap lemma (DESIGN.md §S14) against the never-capped oracle.
//!
//! Algorithm 2 solves every set with each clone class (transactions
//! with identical operation sequences) cut to two copies and lifts the
//! levels to every copy. On random clone-heavy sets this suite checks
//! that:
//!
//! - the capped `optimal_allocation` equals the uncapped
//!   `optimal_allocation_reference`;
//! - under `{RC, SI}`, `optimal_allocation_rc_si` equals
//!   `optimal_allocation_rc_si_reference` (greedy refinement from uniform
//!   SI over `ReferenceChecker`), unallocatable verdicts included;
//! - at 4 × 2 and below, the brute-force oracle confirms the lifted
//!   allocation robust on the full set;
//! - every result is uniform on every class;
//! - cutting classes to *one* copy gives a different optimum on some
//!   set, so the suite would catch a cap that is too tight.
//!
//! The sets are a pure function of the seed; a failure prints the seed
//! and the set. Reproduce with
//! `CLONE_SEED=<seed> cargo test -p mvrobustness --test clone_cap`.

use mvisolation::Allocation;
use mvmodel::{Op, Transaction, TransactionSet, TxnId};
use mvrobustness::{
    optimal_allocation, optimal_allocation_rc_si, optimal_allocation_rc_si_reference,
    optimal_allocation_reference, oracle_is_robust, CloneCap,
};
use rand::rngs::SmallRng;
use rand::{RngExt, SeedableRng};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Default seed; override with `CLONE_SEED=<u64>`.
const DEFAULT_SEED: u64 = 0xC10E;

/// Random sets per run.
const SETS: usize = 800;

/// Brute-force oracle checks per run: each enumerates every interleaving
/// of a 4 × 2 set, up to a second apiece in the test profile.
const ORACLE_CHECKS: usize = 8;

fn seed_from_env() -> u64 {
    std::env::var("CLONE_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(DEFAULT_SEED)
}

/// A program of 1..=`max_ops` distinct operations over `n_objects`
/// objects (raw ids).
fn random_program(rng: &mut SmallRng, max_ops: usize, n_objects: u32) -> Vec<Op> {
    let len = rng.random_range(1..=max_ops);
    let mut ops: Vec<Op> = Vec::new();
    while ops.len() < len {
        let object = mvmodel::Object(rng.random_range(0..n_objects));
        let op = if rng.random_bool(0.5) {
            Op::write(object)
        } else {
            Op::read(object)
        };
        if !ops.contains(&op) {
            ops.push(op);
        }
    }
    ops
}

/// `n_txns` transactions drawn from a pool of `n_programs` random
/// programs: a clone-heavy set.
fn random_set(
    rng: &mut SmallRng,
    n_txns: u32,
    n_programs: usize,
    max_ops: usize,
) -> TransactionSet {
    let n_objects = rng.random_range(3..=7u32);
    let pool: Vec<Vec<Op>> = (0..n_programs)
        .map(|_| random_program(rng, max_ops, n_objects))
        .collect();
    let txns = (1..=n_txns)
        .map(|id| {
            let ops = pool[rng.random_range(0..pool.len())].clone();
            Transaction::new(TxnId(id), ops).expect("programs have distinct operations")
        })
        .collect();
    TransactionSet::new(txns).expect("ids are distinct")
}

/// The clone classes of `txns`, each as its member ids.
fn classes(txns: &TransactionSet) -> Vec<Vec<TxnId>> {
    let mut by_ops: BTreeMap<Vec<(bool, u32)>, Vec<TxnId>> = BTreeMap::new();
    for t in txns.iter() {
        let key = t
            .ops()
            .iter()
            .map(|op| (op.is_write(), op.object.0))
            .collect();
        by_ops.entry(key).or_default().push(t.id());
    }
    by_ops.into_values().collect()
}

/// The optimum with each class cut to *one* copy, lifted: what a cap
/// that is too tight would answer.
fn cap1_optimum(txns: &TransactionSet) -> Allocation {
    let classes = classes(txns);
    let kept = classes
        .iter()
        .map(|c| txns.txn(c[0]).clone())
        .collect::<Vec<_>>();
    let one = optimal_allocation_reference(&TransactionSet::new(kept).expect("distinct ids"));
    classes
        .iter()
        .flat_map(|c| c.iter().map(|&t| (t, one.level(c[0]))))
        .collect()
}

#[test]
fn capped_optimum_equals_the_uncapped_reference() {
    let seed = seed_from_env();
    let mut rng = SmallRng::seed_from_u64(seed);
    let (mut capped_sets, mut oracle_checks, mut cap1_differs) = (0, 0, 0);
    for round in 0..SETS {
        // Every fourth set is small enough for the brute-force oracle.
        let txns = if round % 4 == 0 {
            random_set(&mut rng, 4, 3, 2)
        } else {
            let n = rng.random_range(4..=20u32);
            let programs = rng.random_range(3..=7usize);
            random_set(&mut rng, n, programs, 5)
        };
        let ctx = |what: &str| {
            format!(
                "CLONE_SEED={seed} set {round}: {what}\n{}",
                mvmodel::fmt::transaction_set(&txns)
            )
        };
        let capped = CloneCap::new(&txns).set().len() < txns.len();
        capped_sets += usize::from(capped);

        let full = optimal_allocation(&txns);
        let reference = optimal_allocation_reference(&txns);
        assert_eq!(
            full,
            reference,
            "{}",
            ctx("capped optimum differs from the uncapped reference")
        );
        let rc_si = optimal_allocation_rc_si(&txns);
        assert_eq!(
            rc_si,
            optimal_allocation_rc_si_reference(&txns),
            "{}",
            ctx("capped {RC, SI} optimum differs from the uncapped reference")
        );
        for alloc in std::iter::once(&full).chain(rc_si.as_ref()) {
            for class in classes(&txns) {
                let level = alloc.level(class[0]);
                assert!(
                    class.iter().all(|&t| alloc.level(t) == level),
                    "{}",
                    ctx(&format!("{alloc} is not uniform on the class {class:?}"))
                );
            }
        }
        let small = txns.len() <= 4 && txns.max_ops() <= 2 && txns.total_ops() <= 6;
        if capped && small && oracle_checks < ORACLE_CHECKS {
            let shared = Arc::new(txns.clone());
            for alloc in std::iter::once(&full).chain(rc_si.as_ref()) {
                assert!(
                    oracle_is_robust(&shared, alloc),
                    "{}",
                    ctx(&format!("the oracle refutes the lifted allocation {alloc}"))
                );
                oracle_checks += 1;
            }
        }
        cap1_differs += usize::from(cap1_optimum(&txns) != reference);
    }
    assert!(
        capped_sets > SETS / 2,
        "CLONE_SEED={seed}: only {capped_sets} of {SETS} sets had a third copy — tune the generator"
    );
    assert!(
        oracle_checks > 0,
        "CLONE_SEED={seed}: no set was small enough for the oracle — tune the generator"
    );
    assert!(
        cap1_differs > 0,
        "CLONE_SEED={seed}: a one-copy cap never changed the optimum, so the suite has no teeth"
    );
}
