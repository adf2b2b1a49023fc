//! B10 table generator: incremental delta reallocation (`add_txn` /
//! `remove_txn`) vs. recomputing `Allocator::optimal` from scratch.
//!
//! ```sh
//! cargo run --release -p mvbench --bin sweep_delta [--json BENCH_alg.json]
//! ```
//!
//! For each |T| a medium-contention workload of |T|+1 transactions is
//! built; the last transaction is the "churn" member. The delta path is
//! one steady-state `add_txn` + `remove_txn` cycle on a warm allocator
//! (two reallocation events); the baseline is two cold `optimal()`
//! recomputations over the corresponding sets. Before timing, the delta
//! results are asserted bit-identical to the full recomputation on the
//! same membership. With `--json PATH` the rows are merged into the
//! existing document under a `"delta"` key.

use mvbench::{time, workload, Contention, Sweep};
use mvrobustness::Allocator;
use serde_json::{json, Value};

fn main() {
    let sweep = Sweep::new(&["--json"]);

    println!("## B10 — delta reallocation vs. full recompute (seconds per reallocation)\n");
    println!("| |T| | full optimal (s) | delta add+remove (s) | per-event speedup | probes/add | cache hits/add |");
    println!("|---|---|---|---|---|---|");

    let mut rows: Vec<Value> = Vec::new();
    for n in [16u32, 64, 256] {
        let full_set = workload(n + 1, Contention::Medium, 0xD5);
        let churn_id = full_set.ids().max().expect("non-empty workload");
        let mut base = full_set.clone();
        let churn = base.remove(churn_id).expect("churn member present");

        // Correctness first: the delta path must match a recomputation
        // from scratch on the same membership, bit for bit.
        let (expect_full, _) = Allocator::new(&full_set).optimal();
        let (expect_base, _) = Allocator::new(&base).optimal();
        let mut alloc = Allocator::from_owned(base.clone());
        let added = alloc.add_txn(churn.clone()).expect("allocatable add");
        assert_eq!(
            added.allocation, expect_full,
            "delta add diverged at |T|={n}"
        );
        let removed = alloc.remove_txn(churn_id).expect("member removal");
        assert_eq!(
            removed.allocation, expect_base,
            "delta remove diverged at |T|={n}"
        );
        let add_stats = {
            let r = alloc.add_txn(churn.clone()).expect("allocatable re-add");
            alloc.remove_txn(churn_id).expect("member removal");
            r.stats
        };

        // One cycle = two reallocation events on each side.
        let t_full = time(|| {
            let a = Allocator::new(&full_set).optimal().0;
            let b = Allocator::new(&base).optimal().0;
            a.is_empty() ^ b.is_empty()
        });
        let t_delta = time(|| {
            alloc.add_txn(churn.clone()).expect("allocatable add");
            alloc.remove_txn(churn_id).expect("member removal");
        });
        let speedup = t_full / t_delta;

        println!(
            "| {} | {:.3e} | {:.3e} | {:.2}× | {} | {} |",
            n + 1,
            t_full / 2.0,
            t_delta / 2.0,
            speedup,
            add_stats.probes,
            add_stats.cache_hits,
        );
        rows.push(json!({
            "txns": (n + 1) as u64,
            "full_per_event_s": t_full / 2.0,
            "delta_per_event_s": t_delta / 2.0,
            "speedup": speedup,
            "add_probes": add_stats.probes,
            "add_cache_hits": add_stats.cache_hits,
        }));
    }

    sweep.record(
        "delta",
        None,
        json!({
            "experiment": "B10-delta-vs-full",
            "contention": "medium",
            "seed": "0xD5",
            "rows": rows,
        }),
    );
}
