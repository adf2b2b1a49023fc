//! B1/B2/B3/B4/B7 table generator: wall-clock scaling of Algorithm 1,
//! Algorithm 2 and the brute-force oracle, and the cost of building and
//! verifying a counterexample schedule.
//!
//! B3's clone-heavy SmallBank rows are gated: for every mix of at most
//! 512 transactions, Algorithm 1 on the full (uncapped) set must confirm
//! the clone-capped optimum robust; on the (128, 4) mix every
//! single-transaction lowering must be refuted, which certifies
//! optimality (Prop. 4.1(2)); and the 100k row must allocate in under a
//! second. A failed gate exits 1 with the reproducing command.
//!
//! ```sh
//! cargo run --release -p mvbench --bin sweep_scaling
//! ```
//!
//! Prints the markdown rows recorded in EXPERIMENTS.md. The log-log slope
//! column estimates the local polynomial degree between consecutive
//! sizes; Theorem 3.3 predicts a constant (≤ 6-ish) degree, while the
//! oracle's slope grows with size (exponential).

use mvbench::{oracle_workload, time, workload, Contention, Sweep};
use mvisolation::Allocation;
use mvrobustness::witness::{materialize, verify_witness};
use mvrobustness::{
    find_counterexample, is_robust, optimal_allocation, oracle_is_robust, CloneCap,
};
use mvworkloads::SmallBank;
use std::sync::Arc;

fn main() {
    let mut sweep = Sweep::new(&[]);
    println!("## B1 — Algorithm 1 scaling in |T| (seconds per call)\n");
    println!("| contention | |T| | robust? | time (s) | log-log slope |");
    println!("|---|---|---|---|---|");
    for contention in Contention::ALL {
        let mut prev: Option<(f64, f64)> = None;
        for n in [5u32, 10, 20, 40, 80, 160] {
            let txns = workload(n, contention, 0xB1);
            let ssi = Allocation::uniform_ssi(&txns);
            let robust = is_robust(&txns, &ssi).robust();
            let t = time(|| is_robust(&txns, &ssi).robust());
            let slope = prev
                .map(|(pn, pt)| (t / pt).ln() / (n as f64 / pn).ln())
                .map(|s| format!("{s:.2}"))
                .unwrap_or_else(|| "—".into());
            println!(
                "| {} | {} | {} | {:.3e} | {} |",
                contention.label(),
                n,
                robust,
                t,
                slope
            );
            prev = Some((n as f64, t));
        }
    }

    println!("\n## B2 — Algorithm 1 scaling in ops/transaction (|T| = 15)\n");
    println!("| ops/txn | time (s) | log-log slope |");
    println!("|---|---|---|");
    let mut prev: Option<(f64, f64)> = None;
    for ell in [2usize, 4, 8, 16, 32] {
        let txns = mvworkloads::RandomWorkload::builder()
            .txns(15)
            .ops(ell, ell)
            .objects(ell * 12)
            .write_ratio(0.4)
            .seed(0xB2)
            .generate();
        let ssi = Allocation::uniform_ssi(&txns);
        let t = time(|| is_robust(&txns, &ssi).robust());
        let slope = prev
            .map(|(pe, pt)| (t / pt).ln() / (ell as f64 / pe).ln())
            .map(|s| format!("{s:.2}"))
            .unwrap_or_else(|| "—".into());
        println!("| {ell} | {t:.3e} | {slope} |");
        prev = Some((ell as f64, t));
    }

    println!("\n## B3 — Algorithm 2 (optimal allocation) scaling\n");
    println!("| contention | |T| | time (s) | composition (RC/SI/SSI) |");
    println!("|---|---|---|---|");
    for contention in [Contention::Low, Contention::High] {
        for n in [5u32, 10, 20, 40, 80] {
            let txns = workload(n, contention, 0xB3);
            let alloc = optimal_allocation(&txns);
            let t = time(|| !optimal_allocation(&txns).is_empty());
            let (rc, si, ssi) = alloc.counts();
            println!(
                "| {} | {} | {:.3e} | {}/{}/{} |",
                contention.label(),
                n,
                t,
                rc,
                si,
                ssi
            );
        }
    }

    println!("\n### B3 — clone-heavy SmallBank mixes (`random_mix(n, customers, 1.1, 0xB18)`)\n");
    println!("| |T| | customers | capped size | time (s) | composition (RC/SI/SSI) |");
    println!("|---|---|---|---|---|");
    for (n, customers) in [(128usize, 4usize), (256, 4), (512, 16), (100_000, 4)] {
        let txns = SmallBank::random_mix(n, customers, 1.1, 0xB18);
        let capped = CloneCap::new(&txns).set().len();
        let alloc = optimal_allocation(&txns);
        let t = time(|| !optimal_allocation(&txns).is_empty());
        let (rc, si, ssi) = alloc.counts();
        println!("| {n} | {customers} | {capped} | {t:.3e} | {rc}/{si}/{ssi} |");
        if n <= 512 && !is_robust(&txns, &alloc).robust() {
            sweep.fail(format!(
                "B3 mix ({n}, {customers}): Algorithm 1 refutes the lifted allocation on the full set"
            ));
        }
        if (n, customers) == (128, 4) {
            for (t, level) in alloc.iter() {
                for &lower in level.lower_levels() {
                    if is_robust(&txns, &alloc.with(t, lower)).robust() {
                        sweep.fail(format!(
                            "B3 mix (128, 4): lowering {t} to {lower} stays robust, so the allocation is not optimal"
                        ));
                    }
                }
            }
        }
        if n == 100_000 && t >= 1.0 {
            sweep.fail(format!("B3 mix (100000, 4) took {t:.2} s (gate: < 1 s)"));
        }
    }

    println!("\n## B4 — Algorithm 1 vs brute-force oracle (same instances)\n");
    println!("| |T| | ops | algorithm 1 (s) | oracle (s) | ratio |");
    println!("|---|---|---|---|---|");
    for n in [2u32, 3, 4] {
        let txns = Arc::new(oracle_workload(n, 0xB4));
        let si = Allocation::uniform_si(&txns);
        let fast = time(|| is_robust(&txns, &si).robust());
        let slow = time(|| oracle_is_robust(&txns, &si));
        println!(
            "| {} | {} | {:.3e} | {:.3e} | {:.0}× |",
            n,
            txns.total_ops(),
            fast,
            slow,
            slow / fast
        );
    }

    println!("\n## B7 — witness construction cost (all-SI, high contention, seconds per call)\n");
    println!("| |T| | find (s) | materialize (s) | verify (s) |");
    println!("|---|---|---|---|");
    for n in [10u32, 20, 40] {
        let txns = Arc::new(workload(n, Contention::High, 0xB7));
        let si = Allocation::uniform_si(&txns);
        let Some(spec) = find_counterexample(&txns, &si) else {
            println!("| {n} | SI-robust: no witness | — | — |");
            continue;
        };
        let find = time(|| find_counterexample(&txns, &si));
        let build = time(|| materialize(Arc::clone(&txns), &si, &spec));
        let schedule = materialize(Arc::clone(&txns), &si, &spec);
        let verify = time(|| verify_witness(&schedule, &si).is_ok());
        println!("| {n} | {find:.3e} | {build:.3e} | {verify:.3e} |");
    }
    sweep.finish();
}
