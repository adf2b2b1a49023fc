//! B16 table generator: executed throughput of the optimal robust mixed
//! allocation vs. the all-SSI baseline on Zipf-skewed SmallBank.
//!
//! ```sh
//! cargo run --release -p mvbench --bin sweep_exec [--json BENCH_alg.json] [--smoke]
//! ```
//!
//! This is the payoff experiment for the allocate→execute loop: the paper
//! argues that running every transaction at the lowest robust level
//! preserves serializability while shedding SSI's certification aborts.
//! Each cell executes the same SmallBank workload on the MVCC simulator
//! under both allocations and both SSI detectors (exact and
//! Cahill-style conservative), and reports goodput (commits per logical
//! tick), abort rate, and p99 commit latency. Every run's committed
//! trace is validated against the allocation — allowed under it and
//! conflict serializable (both allocations are robust) — so the numbers
//! are backed by the conformance oracle, not just trusted.
//!
//! Everything is deterministic in the pinned seeds: logical-tick timing,
//! seeded scheduling, seeded workloads. `--smoke` runs a small subset and
//! fails (exit 1, with the reproducing command) when the mixed
//! allocation stops dominating the all-SSI baseline under the
//! conservative detector — the CI gate.

use mvbench::conformance::optimal_alloc;
use mvbench::Sweep;
use mvisolation::{Allocation, IsolationLevel};
use mvrobustness::check_trace;
use mvsim::{level_index, run_workload, LatencyStats, SimConfig, SsiMode};
use mvworkloads::SmallBank;
use serde_json::{json, Value};

const SEED: u64 = 0xB16;
const THETA: f64 = 0.9;
const CONCURRENCY: usize = 8;

fn mode_label(mode: SsiMode) -> &'static str {
    match mode {
        SsiMode::Exact => "exact",
        SsiMode::Conservative => "conservative",
    }
}

/// Per-level transaction counts of an allocation, RC/SI/SSI.
fn level_histogram(alloc: &Allocation, txns: &mvmodel::TransactionSet) -> [usize; 3] {
    let mut h = [0usize; 3];
    for id in txns.ids() {
        h[level_index(alloc.level(id))] += 1;
    }
    h
}

struct Cell {
    customers: usize,
    mode: SsiMode,
    alloc_label: &'static str,
    /// RC/SI/SSI transaction counts in the allocation.
    histogram: [usize; 3],
    goodput: f64,
    abort_rate: f64,
    commits: u64,
    aborts: u64,
    aborts_ssi: u64,
    p99: u64,
    gave_up: u64,
}

impl Cell {
    fn attempts(&self) -> u64 {
        self.commits + self.aborts
    }
}

/// Executes `txns` under `alloc` across all sim seeds and pools the
/// metrics. Every run's trace is validated against the allocation; a
/// non-conformant one fails the sweep at once.
fn measure(
    sweep: &Sweep,
    customers: usize,
    mode: SsiMode,
    alloc_label: &'static str,
    txns: &mvmodel::TransactionSet,
    alloc: &Allocation,
    sim_seeds: u64,
) -> Cell {
    let mut commits = 0u64;
    let mut aborts = 0u64;
    let mut aborts_ssi = 0u64;
    let mut ticks = 0u64;
    let mut gave_up = 0u64;
    let mut latency = LatencyStats::default();
    for s in 0..sim_seeds {
        let config = SimConfig::default()
            .with_seed(SEED.wrapping_add(s))
            .with_concurrency(CONCURRENCY)
            .with_ssi_mode(mode)
            // Cap retries: under the conservative detector the all-SSI
            // baseline can cascade into certification-abort livelock —
            // that *is* the finding, and the cap keeps it bounded.
            .with_max_retries(50);
        let engine = run_workload(txns, alloc, config);
        let exported = engine.trace.export().expect("traces recorded");
        // Both compared allocations are robust, so every committed trace
        // must be allowed *and* serializable.
        if let Err(e) = check_trace(&exported.schedule, &exported.allocation, true) {
            sweep.abort(format!(
                "non-conformant execution ({alloc_label}, customers={customers}, \
                 mode={}, sim seed {}): {e}",
                mode_label(mode),
                SEED.wrapping_add(s)
            ));
        }
        commits += engine.metrics.commits;
        aborts += engine.metrics.total_aborts();
        aborts_ssi += engine.metrics.aborts_ssi;
        ticks += engine.metrics.ticks;
        gave_up += engine.metrics.gave_up;
        latency.merge(&engine.latency);
    }
    Cell {
        customers,
        mode,
        alloc_label,
        histogram: level_histogram(alloc, txns),
        goodput: commits as f64 / ticks as f64,
        abort_rate: aborts as f64 / (commits + aborts) as f64,
        commits,
        aborts,
        aborts_ssi,
        p99: latency.p99(),
        gave_up,
    }
}

fn main() {
    let mut sweep = Sweep::new(&["--json", "--smoke"]);
    let smoke = sweep.smoke();

    // The transaction count stays fixed across modes: the mixed-vs-SSI
    // contrast needs enough instances that Algorithm 2 finds demotable
    // satellites (read-only Balances, no-savings customers, bridging
    // Amalgamates) around the hot write-skew core.
    let (n_txns, customer_sizes, sim_seeds): (usize, &[usize], u64) = if smoke {
        (64, &[4, 16], 3)
    } else {
        (64, &[4, 16, 64], 5)
    };

    println!("## B16 — executed goodput: optimal mixed allocation vs. all-SSI (SmallBank, Zipf θ={THETA}, {CONCURRENCY} sessions)\n");
    println!("| customers | detector | allocation | RC/SI/SSI | goodput (commits/tick) | abort rate | SSI aborts | p99 (ticks) |");
    println!("|---|---|---|---|---|---|---|---|");

    let mut cells: Vec<Cell> = Vec::new();
    for &customers in customer_sizes {
        let txns = SmallBank::random_mix(n_txns, customers, THETA, SEED + customers as u64);
        let mixed = optimal_alloc(&txns);
        let ssi = Allocation::uniform(&txns, IsolationLevel::SSI);
        for mode in [SsiMode::Exact, SsiMode::Conservative] {
            cells.push(measure(
                &sweep, customers, mode, "all-SSI", &txns, &ssi, sim_seeds,
            ));
            cells.push(measure(
                &sweep, customers, mode, "mixed", &txns, &mixed, sim_seeds,
            ));
        }
    }

    let mut rows: Vec<Value> = Vec::new();
    for c in &cells {
        println!(
            "| {} | {} | {} | {}/{}/{} | {:.4} | {:.3} | {} | {} |",
            c.customers,
            mode_label(c.mode),
            c.alloc_label,
            c.histogram[0],
            c.histogram[1],
            c.histogram[2],
            c.goodput,
            c.abort_rate,
            c.aborts_ssi,
            c.p99,
        );
        rows.push(json!({
            "customers": c.customers as u64,
            "detector": mode_label(c.mode),
            "allocation": c.alloc_label,
            "rc": c.histogram[0] as u64,
            "si": c.histogram[1] as u64,
            "ssi": c.histogram[2] as u64,
            "goodput": c.goodput,
            "abort_rate": c.abort_rate,
            "aborts_ssi": c.aborts_ssi,
            "p99_ticks": c.p99,
            "gave_up": c.gave_up,
        }));
    }

    // The gate, on the conservative (deployed-style) detector cells:
    //
    // 1. per cell, the mixed allocation commits at least as fast as
    //    all-SSI (ties are legitimate — on cells whose abort cascades
    //    involve only transactions that stay SSI in both allocations, the
    //    two executions are bit-identical);
    // 2. in aggregate, mixed aborts *strictly* less than all-SSI — the
    //    demoted satellites must shed real certification aborts somewhere;
    // 3. the optimal allocation is genuinely mixed on some cell.
    //
    // The exact detector is reported but not gated: with zero false
    // positives there is nothing for the mixed allocation to shed, and
    // the observed tie is itself the result.
    let mut any_mixed = false;
    let mut agg_ssi_rate = (0u64, 0u64); // (aborts, attempts) all-SSI
    let mut agg_mixed_rate = (0u64, 0u64);
    for &customers in customer_sizes {
        let find = |mode: SsiMode, label: &str| {
            cells
                .iter()
                .find(|c| c.customers == customers && c.mode == mode && c.alloc_label == label)
                .expect("cell measured")
        };
        let ssi = find(SsiMode::Conservative, "all-SSI");
        let mixed = find(SsiMode::Conservative, "mixed");
        any_mixed |= mixed.histogram.iter().filter(|&&n| n > 0).count() >= 2;
        agg_ssi_rate.0 += ssi.aborts;
        agg_ssi_rate.1 += ssi.attempts();
        agg_mixed_rate.0 += mixed.aborts;
        agg_mixed_rate.1 += mixed.attempts();
        if mixed.goodput < ssi.goodput {
            sweep.fail(format!(
                "mixed goodput {:.4} < all-SSI {:.4} at customers={customers} (conservative)",
                mixed.goodput, ssi.goodput
            ));
        }
    }
    let rate = |(aborts, attempts): (u64, u64)| aborts as f64 / attempts as f64;
    if rate(agg_mixed_rate) >= rate(agg_ssi_rate) {
        sweep.fail(format!(
            "aggregate mixed abort rate {:.3} not strictly below all-SSI {:.3} (conservative)",
            rate(agg_mixed_rate),
            rate(agg_ssi_rate)
        ));
    }
    if !any_mixed {
        sweep.fail(
            "the optimal allocation degenerated to a uniform level on every cell — \
             the workload no longer exercises mixing",
        );
    }

    sweep.record(
        "exec",
        None,
        json!({
            "experiment": "B16-mixed-vs-ssi-execution",
            "seed": format!("{SEED:#x}"),
            "txns": n_txns as u64,
            "theta": THETA,
            "concurrency": CONCURRENCY as u64,
            "sim_seeds": sim_seeds,
            "smoke": smoke,
            "rows": rows,
        }),
    );
    sweep.finish();
    if smoke {
        println!("\nsmoke OK: traces conformant; mixed allocation dominates all-SSI under the conservative detector");
    }
}
