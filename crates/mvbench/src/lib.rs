//! Shared workload construction for the evaluation harness.
//!
//! Every experiment in `EXPERIMENTS.md` is driven by a sweep binary in
//! `src/bin/`. The binaries build their inputs through this module, so
//! the parameters are recorded in one place, and run through the
//! [`Sweep`] harness, which owns their command line, timing loop,
//! `BENCH_alg.json` merge and gate exit.

pub mod conformance;
pub mod sweep;

pub use sweep::{time, Sweep};

use mvisolation::{Allocation, IsolationLevel};
use mvmodel::{TransactionSet, TxnSetBuilder};
use mvsim::Job;
use mvworkloads::RandomWorkload;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Contention presets used across experiments.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Contention {
    /// Large object pool, uniform access.
    Low,
    /// Moderate pool, mild skew.
    Medium,
    /// Small pool, strong Zipf skew.
    High,
}

impl Contention {
    pub const ALL: [Contention; 3] = [Contention::Low, Contention::Medium, Contention::High];

    pub fn label(self) -> &'static str {
        match self {
            Contention::Low => "low",
            Contention::Medium => "medium",
            Contention::High => "high",
        }
    }

    fn params(self, n_txns: u32) -> (usize, f64) {
        // Scale the pool with the workload so contention stays comparable
        // across sizes.
        match self {
            Contention::Low => ((n_txns as usize * 8).max(16), 0.0),
            Contention::Medium => ((n_txns as usize * 2).max(8), 0.6),
            Contention::High => ((n_txns as usize / 2).max(4), 1.1),
        }
    }
}

/// The standard random workload for experiment sweeps: `n` transactions
/// of 2–5 operations at the given contention preset.
pub fn workload(n: u32, contention: Contention, seed: u64) -> TransactionSet {
    let (objects, theta) = contention.params(n);
    RandomWorkload::builder()
        .txns(n)
        .ops(2, 5)
        .objects(objects)
        .theta(theta)
        .write_ratio(0.4)
        .seed(seed)
        .generate()
}

/// A multi-component workload: `clusters` independent conflict clusters
/// of `per` transactions each, every cluster confined to a private
/// object pool. The conflict graph decomposes into at least `clusters`
/// components (a cluster may split further when its random accesses
/// happen not to overlap) — the favourable regime for the
/// component-sharded engine.
pub fn clustered_workload(clusters: u32, per: u32, seed: u64) -> TransactionSet {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut b = TxnSetBuilder::new();
    let mut id = 0u32;
    for c in 0..clusters {
        // A pool small enough that cluster members actually conflict.
        let pool: Vec<mvmodel::Object> = (0..per.max(2))
            .map(|j| b.object(&format!("c{c}_o{j}")))
            .collect();
        for _ in 0..per.max(1) {
            id += 1;
            let mut t = b.txn(id);
            // Sample distinct (kind, object) ops — the model rejects a
            // transaction reading or writing the same object twice.
            let mut used: Vec<(bool, mvmodel::Object)> = Vec::new();
            let n_ops = rng.random_range(2..=4usize).min(pool.len());
            while used.len() < n_ops {
                let obj = pool[rng.random_range(0..pool.len())];
                let write = rng.random_bool(0.4);
                if used.contains(&(write, obj)) {
                    continue;
                }
                used.push((write, obj));
                t = if write { t.write(obj) } else { t.read(obj) };
            }
            t.finish();
        }
    }
    b.build().expect("ids are distinct by construction")
}

/// The single-component adversarial workload: `n` transactions in one
/// rw-conflict ring (`T_i: R[o_{i-1}] W[o_i]`, indices mod `n`). Every
/// transaction reaches every other, so the conflict graph is one
/// component and the sharded engine can only add overhead — the
/// worst case its regression budget is measured against.
pub fn ring_workload(n: u32) -> TransactionSet {
    let n = n.max(2);
    let mut b = TxnSetBuilder::new();
    let ring: Vec<mvmodel::Object> = (0..n).map(|j| b.object(&format!("o{j}"))).collect();
    for i in 0..n {
        let prev = ring[((i + n - 1) % n) as usize];
        b.txn(i + 1).read(prev).write(ring[i as usize]).finish();
    }
    b.build().expect("ids are distinct by construction")
}

/// A *small* workload suitable for the brute-force oracle (≤ `n` ≤ 4,
/// short transactions).
pub fn oracle_workload(n: u32, seed: u64) -> TransactionSet {
    RandomWorkload::builder()
        .txns(n)
        .ops(1, 2)
        .objects(3)
        .theta(0.4)
        .write_ratio(0.5)
        .seed(seed)
        .generate()
}

/// Simulator jobs: `copies` instances of each transaction under `alloc`.
pub fn jobs(txns: &TransactionSet, alloc: &Allocation, copies: usize) -> Vec<Job> {
    (0..copies)
        .flat_map(|_| {
            txns.iter()
                .map(|t| Job::new(t.ops().to_vec(), alloc.level(t.id())))
        })
        .collect()
}

/// The benchmark environment block recorded in every `BENCH_alg.json`
/// table: logical CPU count plus the worker-thread count the experiment
/// ran with (`None` for logically-timed, single-threaded experiments).
/// Wall-clock numbers are not comparable across hosts without it — a
/// "4-thread" run on a 1-CPU container measures time-slicing, not
/// parallel speedup.
pub fn bench_env(threads: Option<u64>) -> serde_json::Value {
    let logical_cpus = std::thread::available_parallelism()
        .map(|n| n.get() as u64)
        .unwrap_or(1);
    match threads {
        Some(t) => serde_json::json!({ "logical_cpus": logical_cpus, "threads": t }),
        None => {
            serde_json::json!({ "logical_cpus": logical_cpus, "threads": serde_json::Value::Null })
        }
    }
}

/// The allocation ladder compared in the throughput experiments.
pub fn ladder(txns: &TransactionSet) -> Vec<(&'static str, Allocation)> {
    vec![
        ("all-RC", Allocation::uniform(txns, IsolationLevel::RC)),
        ("all-SI", Allocation::uniform(txns, IsolationLevel::SI)),
        ("all-SSI", Allocation::uniform(txns, IsolationLevel::SSI)),
        ("optimal", mvrobustness::optimal_allocation(txns)),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_presets_scale() {
        for c in Contention::ALL {
            let w = workload(20, c, 1);
            assert_eq!(w.len(), 20);
            assert!(!c.label().is_empty());
        }
        // High contention must produce more conflicting pairs than low.
        let count = |w: &TransactionSet| {
            let ids: Vec<_> = w.ids().collect();
            let mut n = 0;
            for (i, &a) in ids.iter().enumerate() {
                for &b in &ids[i + 1..] {
                    if mvmodel::conflict::txns_conflict(w, a, b) {
                        n += 1;
                    }
                }
            }
            n
        };
        assert!(
            count(&workload(20, Contention::High, 1)) > count(&workload(20, Contention::Low, 1))
        );
    }

    #[test]
    fn jobs_replicate() {
        let w = workload(5, Contention::Low, 2);
        let a = Allocation::uniform_si(&w);
        assert_eq!(jobs(&w, &a, 3).len(), 15);
    }

    #[test]
    fn ladder_has_four_rungs() {
        let w = workload(6, Contention::Medium, 3);
        let l = ladder(&w);
        assert_eq!(l.len(), 4);
        assert_eq!(l[0].0, "all-RC");
        assert_eq!(l[3].0, "optimal");
    }

    #[test]
    fn clustered_workload_decomposes() {
        let w = clustered_workload(8, 4, 0xB12);
        assert_eq!(w.len(), 32);
        let index = mvrobustness::ConflictIndex::new(&w);
        let comps = mvrobustness::Components::new(&w, &index);
        // Private pools: at least one component per cluster, and no
        // component larger than a cluster.
        assert!(comps.count() >= 8, "got {} components", comps.count());
        assert!(comps.largest() <= 4);
    }

    #[test]
    fn ring_workload_is_one_component() {
        let w = ring_workload(16);
        assert_eq!(w.len(), 16);
        let index = mvrobustness::ConflictIndex::new(&w);
        let comps = mvrobustness::Components::new(&w, &index);
        assert_eq!(comps.count(), 1);
        assert_eq!(comps.largest(), 16);
    }

    #[test]
    fn oracle_workload_is_small() {
        let w = oracle_workload(3, 4);
        assert!(w.total_ops() <= 6);
    }
}
