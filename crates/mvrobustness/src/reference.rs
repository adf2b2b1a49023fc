//! The pre-engine Algorithm 1 implementation, retained verbatim in
//! structure as (a) the ground truth for the randomized equivalence
//! suite and (b) the "before" side of the engine benchmarks.
//!
//! Differences from [`crate::RobustnessChecker`], on purpose:
//!
//! - rebuilds the `IsoReach` structure for **every** split-transaction
//!   candidate on **every** probe (eagerly, before any `(T₂, T_m)`
//!   candidate is examined);
//! - scans all `n` transactions in the `t2`/`tm` loops, branching per
//!   pair instead of iterating set bits of the conflict row;
//! - single-threaded, no caches, no statistics.
//!
//! Both implementations share the inner operation search
//! (`find_operations`), which is a faithful transcription of conditions
//! (2)–(5) and was never part of the engine rework.

use crate::algorithm1::find_operations;
use crate::conflict_index::{ConflictIndex, IsoReach};
use crate::split_schedule::SplitSpec;
use mvisolation::{Allocation, IsolationLevel};
use mvmodel::TransactionSet;

/// The pre-engine counterpart of
/// [`crate::RobustnessChecker::find_counterexample`]: one conflict
/// index per checker, everything else recomputed per probe.
pub struct ReferenceChecker<'a> {
    txns: &'a TransactionSet,
    index: ConflictIndex,
}

impl<'a> ReferenceChecker<'a> {
    pub fn new(txns: &'a TransactionSet) -> Self {
        ReferenceChecker {
            txns,
            index: ConflictIndex::new(txns),
        }
    }

    pub fn is_robust(&self, alloc: &Allocation) -> bool {
        self.find_counterexample(alloc).is_none()
    }

    pub fn find_counterexample(&self, alloc: &Allocation) -> Option<SplitSpec> {
        let txns = self.txns;
        let index = &self.index;
        let n = txns.len();
        if n < 2 {
            return None;
        }
        let ssi = IsolationLevel::SSI;

        for t1 in txns.iter() {
            let t1_id = t1.id();
            let i1 = txns.index_of(t1_id);
            let l1 = alloc.level(t1_id);
            // T1 must have at least one read (b₁ is rw-conflicting with a₂).
            if t1.reads().next().is_none() {
                continue;
            }
            let reach = IsoReach::new(txns, index, t1_id);
            for t2 in txns.iter() {
                let t2_id = t2.id();
                let i2 = txns.index_of(t2_id);
                if t2_id == t1_id || !index.any(i1, i2) {
                    continue;
                }
                let l2 = alloc.level(t2_id);
                // Condition (7).
                if l1 == ssi && l2 == ssi && index.wr(i1, i2) {
                    continue;
                }
                for tm in txns.iter() {
                    let tm_id = tm.id();
                    let im = txns.index_of(tm_id);
                    if tm_id == t1_id || !index.any(im, i1) {
                        continue;
                    }
                    let lm = alloc.level(tm_id);
                    // Condition (6).
                    if l1 == ssi && l2 == ssi && lm == ssi {
                        continue;
                    }
                    // Condition (8).
                    if l1 == ssi && lm == ssi && index.wr(im, i1) {
                        continue;
                    }
                    if !reach.reachable_idx(index, i2, im) {
                        continue;
                    }
                    if let Some(spec) =
                        find_operations(txns, index, alloc, &reach, t1_id, t2_id, tm_id)
                    {
                        debug_assert_eq!(spec.check(txns, alloc), Ok(()));
                        return Some(spec);
                    }
                }
            }
        }
        None
    }
}

/// Pre-engine Algorithm 2: greedy refinement from `𝒜_SSI` with a fresh
/// full probe per lowering attempt (no counterexample cache).
pub fn optimal_allocation_reference(txns: &TransactionSet) -> Allocation {
    let checker = ReferenceChecker::new(txns);
    let mut alloc = Allocation::uniform_ssi(txns);
    for t in txns.iter() {
        for &lvl in alloc.level(t.id()).lower_levels() {
            let candidate = alloc.with(t.id(), lvl);
            if checker.is_robust(&candidate) {
                alloc = candidate;
                break;
            }
        }
    }
    alloc
}

/// Pre-engine `{RC, SI}` Algorithm 2: `None` when `𝒜_SI` is not robust
/// (Proposition 5.4), else greedy refinement from it with a fresh full
/// probe per lowering attempt (Theorem 5.5).
pub fn optimal_allocation_rc_si_reference(txns: &TransactionSet) -> Option<Allocation> {
    let checker = ReferenceChecker::new(txns);
    let mut alloc = Allocation::uniform_si(txns);
    if !checker.is_robust(&alloc) {
        return None;
    }
    for t in txns.ids() {
        let candidate = alloc.with(t, IsolationLevel::RC);
        if checker.is_robust(&candidate) {
            alloc = candidate;
        }
    }
    Some(alloc)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithm1::is_robust;
    use crate::allocate::optimal_allocation;
    use mvmodel::TxnSetBuilder;

    #[test]
    fn reference_agrees_on_textbook_cases() {
        let mut b = TxnSetBuilder::new();
        let x = b.object("x");
        let y = b.object("y");
        b.txn(1).read(x).write(y).finish();
        b.txn(2).read(y).write(x).finish();
        b.txn(3).read(x).write(x).finish();
        let txns = b.build().unwrap();
        let reference = ReferenceChecker::new(&txns);
        for lvl in mvisolation::IsolationLevel::ALL {
            let alloc = Allocation::uniform(&txns, lvl);
            assert_eq!(
                reference.is_robust(&alloc),
                is_robust(&txns, &alloc).robust()
            );
            assert_eq!(
                reference.find_counterexample(&alloc),
                crate::find_counterexample(&txns, &alloc),
                "engine and reference must find the identical spec"
            );
        }
        assert_eq!(
            optimal_allocation_reference(&txns),
            optimal_allocation(&txns)
        );
    }
}
