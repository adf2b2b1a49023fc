//! B12 table generator: the component-sharded engine vs. the monolithic
//! engine, on multi-component and single-component workloads.
//!
//! ```sh
//! cargo run --release -p mvbench --bin sweep_components [--json BENCH_alg.json] [--smoke]
//! ```
//!
//! Two regimes per size:
//!
//! - **multi**: `clustered_workload` — many private conflict clusters.
//!   Sharding solves each component independently, so the one-shot
//!   optimum and the steady-state delta both collapse to per-cluster
//!   work, and untouched clusters are answered from the fingerprint
//!   cache on deltas.
//! - **single**: `ring_workload` — one giant rw ring, the adversarial
//!   case where decomposition can only add overhead.
//!
//! Every timed configuration is first asserted **bit-identical** to the
//! monolithic engine. `--smoke` runs a small pinned-seed subset and
//! *fails* (exit 1, with the reproducing command) when the sharded
//! engine disagrees with the unsharded one or regresses more than 2× on
//! the single-component worst case — the CI gate.

use mvbench::{clustered_workload, ring_workload, time, Sweep};
use mvrobustness::Allocator;
use serde_json::{json, Value};

const SEED: u64 = 0xB12;

struct Cell {
    regime: &'static str,
    txns: usize,
    components: usize,
    sharded_s: f64,
    unsharded_s: f64,
    delta_s: Option<f64>,
    delta_hit_rate: Option<f64>,
}

impl Cell {
    fn speedup(&self) -> f64 {
        self.unsharded_s / self.sharded_s
    }
}

/// Measures one workload in both engine modes; panics (with the cell
/// named) if they disagree anywhere.
fn measure(regime: &'static str, txns: mvmodel::TransactionSet, delta: bool) -> Cell {
    let n = txns.len();
    let index = mvrobustness::ConflictIndex::new(&txns);
    let components = mvrobustness::Components::new(&txns, &index).count();

    let (sharded, sharded_stats) = Allocator::new(&txns).optimal();
    let (unsharded, _) = Allocator::new(&txns).with_components(false).optimal();
    assert_eq!(
        sharded, unsharded,
        "sharded optimum diverged on {regime} |T|={n}"
    );
    if components > 1 {
        assert!(
            sharded_stats.components_checked > 0,
            "sharded engine did not shard {regime} |T|={n}"
        );
    }

    let sharded_s = time(|| Allocator::new(&txns).optimal().0.is_empty());
    let unsharded_s = time(|| {
        Allocator::new(&txns)
            .with_components(false)
            .optimal()
            .0
            .is_empty()
    });

    // Steady-state delta on the multi-component regime: churn one
    // transaction in and out; every untouched component must come from
    // the fingerprint cache.
    let (delta_s, delta_hit_rate) = if delta {
        let churn_id = txns.ids().max().expect("non-empty workload");
        let mut base = txns.clone();
        let churn = base.remove(churn_id).expect("churn member present");
        let mut alloc = Allocator::from_owned(base);
        let warm = alloc.add_txn(churn.clone()).expect("allocatable add");
        assert_eq!(
            warm.allocation, sharded,
            "delta add diverged on {regime} |T|={n}"
        );
        alloc.remove_txn(churn_id).expect("member removal");
        let t = time(|| {
            alloc.add_txn(churn.clone()).expect("allocatable add");
            alloc.remove_txn(churn_id).expect("member removal");
        });
        let s = alloc.last_stats().expect("delta ran").clone();
        let touched = s.components_checked + s.components_cached;
        let hit_rate = if touched == 0 {
            0.0
        } else {
            s.components_cached as f64 / touched as f64
        };
        (Some(t / 2.0), Some(hit_rate))
    } else {
        (None, None)
    };

    Cell {
        regime,
        txns: n,
        components,
        sharded_s,
        unsharded_s,
        delta_s,
        delta_hit_rate,
    }
}

fn main() {
    let mut sweep = Sweep::new(&["--json", "--smoke"]);
    let smoke = sweep.smoke();

    // (clusters, per-cluster) for the multi regime; ring size for single.
    let (multi_sizes, ring_sizes): (&[(u32, u32)], &[u32]) = if smoke {
        (&[(16, 4), (32, 4)], &[48])
    } else {
        (&[(32, 4), (128, 4), (256, 4)], &[64, 128, 256])
    };

    println!("## B12 — component-sharded vs. monolithic engine (seconds per run)\n");
    println!(
        "| regime | |T| | components | sharded (s) | unsharded (s) | speedup | delta/event (s) | delta cache hit-rate |"
    );
    println!("|---|---|---|---|---|---|---|---|");

    let mut cells: Vec<Cell> = Vec::new();
    for &(clusters, per) in multi_sizes {
        cells.push(measure(
            "multi",
            clustered_workload(clusters, per, SEED),
            true,
        ));
    }
    for &n in ring_sizes {
        cells.push(measure("single", ring_workload(n), false));
    }

    let mut rows: Vec<Value> = Vec::new();
    for c in &cells {
        println!(
            "| {} | {} | {} | {:.3e} | {:.3e} | {:.2}× | {} | {} |",
            c.regime,
            c.txns,
            c.components,
            c.sharded_s,
            c.unsharded_s,
            c.speedup(),
            c.delta_s
                .map(|t| format!("{t:.3e}"))
                .unwrap_or_else(|| "n/a".to_string()),
            c.delta_hit_rate
                .map(|r| format!("{:.0}%", r * 100.0))
                .unwrap_or_else(|| "n/a".to_string()),
        );
        rows.push(json!({
            "regime": c.regime,
            "txns": c.txns as u64,
            "components": c.components as u64,
            "sharded_s": c.sharded_s,
            "unsharded_s": c.unsharded_s,
            "speedup": c.speedup(),
            "delta_per_event_s": c.delta_s,
            "delta_cache_hit_rate": c.delta_hit_rate,
        }));
    }

    // The regression gate. Equality was already asserted inside
    // `measure`; here the single-component overhead budget is enforced
    // (generous in smoke mode, where absolute times are tiny and noisy).
    let budget = if smoke { 2.0 } else { 1.1 };
    for c in cells.iter().filter(|c| c.regime == "single") {
        let overhead = c.sharded_s / c.unsharded_s;
        if overhead > budget {
            sweep.fail(format!(
                "sharded engine is {overhead:.2}× the monolithic engine on the \
                 single-component worst case (|T|={}, budget {budget}×)",
                c.txns
            ));
        }
    }

    sweep.record(
        "components",
        None,
        json!({
            "experiment": "B12-component-sharding",
            "seed": format!("{SEED:#x}"),
            "smoke": smoke,
            "rows": rows,
        }),
    );
    sweep.finish();
    if smoke {
        println!("\nsmoke OK: sharded engine bit-identical and within the overhead budget");
    }
}
