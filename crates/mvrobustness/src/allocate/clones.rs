//! Clone capping: Algorithm 2 solves each distinct program at most
//! twice.
//!
//! Transactions with identical operation sequences ("clones") form a
//! *class*. Against an allocation that gives every member of a class
//! the same level, a set is robust iff the set with each class cut to
//! two copies is robust: a shortest split schedule (Def. 3.1) holds each
//! class at most once in `T₂ … T_m`, plus once more as `T₁`. Swapping
//! two clones maps the set onto itself, so the unique optimum
//! (Prop. 4.2) is uniform on every class, and `optimal(T)` is
//! `optimal(cap₂(T))` lifted to every copy. DESIGN.md §S14 has the
//! proof sketch.

use crate::algorithm1::RobustnessChecker;
use mvisolation::Allocation;
use mvmodel::{Op, Transaction, TransactionSet, TxnId};
use std::borrow::Cow;
use std::collections::hash_map::Entry;
use std::collections::HashMap;

/// A transaction set with every clone class cut to its two lowest ids.
#[derive(Debug)]
pub struct CloneCap<'a> {
    full: &'a TransactionSet,
    /// The capped set; borrows `full` when no class has a third copy.
    capped: Cow<'a, TransactionSet>,
    /// Each dropped copy with the kept member whose level it takes.
    dropped: Vec<(TxnId, TxnId)>,
}

impl<'a> CloneCap<'a> {
    /// Groups `txns` by exact operation sequence (the same operations in
    /// another order form another class) and keeps the two lowest ids
    /// of each class.
    pub fn new(txns: &'a TransactionSet) -> Self {
        let mut classes: HashMap<&[Op], (TxnId, u32)> = HashMap::with_capacity(txns.len());
        let mut dropped = Vec::new();
        for t in txns.iter() {
            match classes.entry(t.ops()) {
                Entry::Vacant(e) => {
                    e.insert((t.id(), 1));
                }
                Entry::Occupied(mut e) => {
                    let (first, copies) = e.get_mut();
                    *copies += 1;
                    if *copies > 2 {
                        dropped.push((t.id(), *first));
                    }
                }
            }
        }
        let capped = if dropped.is_empty() {
            Cow::Borrowed(txns)
        } else {
            let mut cut = dropped.iter().map(|&(id, _)| id).peekable();
            let kept: Vec<Transaction> = txns
                .iter()
                .filter(|t| {
                    if cut.peek() == Some(&t.id()) {
                        cut.next();
                        false
                    } else {
                        true
                    }
                })
                .cloned()
                .collect();
            Cow::Owned(TransactionSet::new(kept).expect("a subset has distinct ids"))
        };
        CloneCap {
            full: txns,
            capped,
            dropped,
        }
    }

    /// The capped set, the one Algorithm 2 solves.
    pub fn set(&self) -> &TransactionSet {
        &self.capped
    }

    /// `alloc` (over the full set) restricted to the capped set.
    pub fn restrict(&self, alloc: &Allocation) -> Allocation {
        if self.dropped.is_empty() {
            return alloc.clone();
        }
        Allocation::from_pairs(self.capped.ids().map(|id| (id, alloc.level(id))))
    }

    /// Lifts an allocation of the capped set to the full set: every
    /// dropped copy takes the level of its class's lowest id.
    pub fn lift(&self, mut alloc: Allocation) -> Allocation {
        if self.dropped.is_empty() {
            return alloc;
        }
        for &(copy, kept) in &self.dropped {
            alloc.set(copy, alloc.level(kept));
        }
        debug_check_lifted(self.full, &alloc);
        alloc
    }
}

/// Debug builds confirm a lifted allocation of at most 64 transactions
/// robust on the uncapped set with one Algorithm 1 probe.
pub(crate) fn debug_check_lifted(full: &TransactionSet, alloc: &Allocation) {
    if cfg!(debug_assertions) && full.len() <= 64 {
        assert!(
            RobustnessChecker::new(full).is_robust(alloc).robust(),
            "lifted clone-capped allocation is not robust on the full set: {alloc}"
        );
    }
}

/// The size of the class of `ops` in `txns`, counted up to `limit`, and
/// the class's lowest id.
pub(crate) fn class_members(
    txns: &TransactionSet,
    ops: &[Op],
    limit: usize,
) -> (usize, Option<TxnId>) {
    let mut members = txns.iter().filter(|t| t.ops() == ops).take(limit);
    let first = members.next().map(|t| t.id());
    (first.map_or(0, |_| 1 + members.count()), first)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mvisolation::IsolationLevel;
    use mvmodel::TxnSetBuilder;

    /// Four copies of a lost update on x, and a reader of x in two
    /// operation orders that are different classes.
    fn clones() -> TransactionSet {
        let mut b = TxnSetBuilder::new();
        let x = b.object("x");
        let y = b.object("y");
        for id in [7, 2, 9, 4] {
            b.txn(id).read(x).write(x).finish();
        }
        b.txn(5).read(x).read(y).finish();
        b.txn(6).read(y).read(x).finish();
        b.build().unwrap()
    }

    #[test]
    fn keeps_the_two_lowest_ids_of_each_class() {
        let txns = clones();
        let cap = CloneCap::new(&txns);
        let kept: Vec<u32> = cap.set().ids().map(|t| t.0).collect();
        assert_eq!(kept, vec![2, 4, 5, 6]);
        let lifted = cap.lift(Allocation::parse("T2=SI T4=SI T5=RC T6=RC").unwrap());
        assert_eq!(lifted.to_string(), "T2=SI T4=SI T5=RC T6=RC T7=SI T9=SI");
        assert_eq!(cap.restrict(&lifted).to_string(), "T2=SI T4=SI T5=RC T6=RC");
    }

    #[test]
    fn a_set_without_third_copies_is_borrowed() {
        let mut b = TxnSetBuilder::new();
        let x = b.object("x");
        b.txn(1).read(x).write(x).finish();
        b.txn(2).read(x).write(x).finish();
        let txns = b.build().unwrap();
        let cap = CloneCap::new(&txns);
        assert!(matches!(cap.capped, Cow::Borrowed(_)));
        let a = Allocation::uniform(&txns, IsolationLevel::SI);
        assert_eq!(cap.lift(a.clone()), a);
    }

    #[test]
    fn class_members_counts_up_to_the_limit() {
        let txns = clones();
        let ops = txns.txn(TxnId(9)).ops().to_vec();
        assert_eq!(class_members(&txns, &ops, 2), (2, Some(TxnId(2))));
        assert_eq!(class_members(&txns, &ops, 8), (4, Some(TxnId(2))));
        let other = txns.txn(TxnId(6)).ops().to_vec();
        assert_eq!(class_members(&txns, &other, 3), (1, Some(TxnId(6))));
        assert_eq!(class_members(&txns, &[], 3), (0, None));
    }
}
