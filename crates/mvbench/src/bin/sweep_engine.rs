//! B9 table generator: the incremental/parallel robustness engine vs.
//! the retained pre-engine reference on the Algorithm 2 sweep.
//!
//! ```sh
//! cargo run --release -p mvbench --bin sweep_engine [--json BENCH_alg.json] [--threads N]
//! ```
//!
//! For each `(contention, |T|)` cell the reference implementation
//! (`optimal_allocation_reference`) and the engine
//! (`Allocator::optimal`, at 1 thread and — when more than one hardware
//! thread is actually available — at `--threads`/`available_parallelism`
//! threads) compute the optimal allocation on the *same* workload; the
//! verdicts are asserted equal, wall times and the engine's work
//! counters are reported, and with `--json PATH` the table is merged
//! into the document under an `"engine"` key.
//!
//! A single-threaded machine gets **no** multi-threaded column: timing
//! the 1-thread engine twice and labelling the copy "mt" would be a lie,
//! so the cell reads `n/a` and the JSON rows carry
//! `"mt_threads": null`. Pass `--threads N` (N ≥ 2) to force a
//! multi-threaded measurement anyway (e.g. to measure oversubscription
//! on one core).

use mvbench::{time, workload, Contention, Sweep};
use mvrobustness::{optimal_allocation_reference, Allocator};
use serde_json::{json, Value};
use std::num::NonZeroUsize;

fn main() {
    let sweep = Sweep::new(&["--json", "--threads"]);
    let threads_override = sweep
        .value::<NonZeroUsize>("--threads")
        .map(NonZeroUsize::get);
    let hw_threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    // The honest multi-threaded column: an explicit override, or the
    // machine's real parallelism — and only when it exceeds one. A
    // 1-thread run must never be recorded under an "mt" label.
    let mt_threads = threads_override.or(Some(hw_threads)).filter(|&n| n >= 2);

    println!("## B9 — engine vs. reference, Algorithm 2 sweep (seconds per run)\n");
    match mt_threads {
        Some(n) => {
            println!("(machine reports {hw_threads} hardware thread(s); mt column uses {n})\n")
        }
        None => println!(
            "(machine reports {hw_threads} hardware thread(s): no honest \
             multi-threaded measurement is possible — mt column omitted; \
             pass `--threads N` to force one)\n"
        ),
    }
    let mt_label = match mt_threads {
        Some(n) => format!("engine {n}T (s)"),
        None => "engine mt (s)".to_string(),
    };
    println!(
        "| contention | |T| | reference (s) | engine 1T (s) | speedup | {mt_label} | probes | cache hits | iso builds |"
    );
    println!("|---|---|---|---|---|---|---|---|---|");

    let mut rows: Vec<Value> = Vec::new();
    for contention in Contention::ALL {
        for n in [64u32, 96, 128] {
            let txns = workload(n, contention, 0xB3);

            let expected = optimal_allocation_reference(&txns);
            let (got, stats) = Allocator::new(&txns).optimal();
            assert_eq!(
                got,
                expected,
                "engine optimum diverged at {} |T|={n}",
                contention.label()
            );
            let t_ref = time(|| optimal_allocation_reference(&txns).is_empty());
            let t_one = time(|| Allocator::new(&txns).optimal().0.is_empty());
            let t_par = mt_threads.map(|mt| {
                let (got_mt, _) = Allocator::new(&txns).with_threads(mt).optimal();
                assert_eq!(got_mt, expected, "parallel optimum diverged");
                time(|| {
                    Allocator::new(&txns)
                        .with_threads(mt)
                        .optimal()
                        .0
                        .is_empty()
                })
            });

            println!(
                "| {} | {} | {:.3e} | {:.3e} | {:.2}× | {} | {} | {} | {} |",
                contention.label(),
                n,
                t_ref,
                t_one,
                t_ref / t_one,
                t_par
                    .map(|t| format!("{t:.3e}"))
                    .unwrap_or_else(|| "n/a".to_string()),
                stats.probes,
                stats.cache_hits,
                stats.iso_builds,
            );
            rows.push(json!({
                "contention": contention.label(),
                "txns": n as u64,
                "reference_s": t_ref,
                "engine_1t_s": t_one,
                "speedup_1t": t_ref / t_one,
                "engine_mt_s": t_par,
                "mt_threads": mt_threads.map(|n| n as u64),
                "probes": stats.probes,
                "cache_hits": stats.cache_hits,
                "cached_specs": stats.cached_specs,
                "iso_builds": stats.iso_builds,
                "components_checked": stats.components_checked,
                "kernel_row_ops": stats.kernel_row_ops,
            }));
        }
    }

    sweep.record(
        "engine",
        mt_threads.map(|n| n as u64),
        json!({
            "experiment": "B9-engine-vs-reference",
            "seed": "0xB3",
            "hw_threads": hw_threads as u64,
            "mt_threads": mt_threads.map(|n| n as u64),
            "rows": rows,
        }),
    );
}
