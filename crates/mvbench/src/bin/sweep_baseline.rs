//! B8 table generator: the classic static-SDG baseline (Fekete et al.,
//! TODS 2005) vs the paper's exact Algorithm 1, on random workloads —
//! agreement, false-alarm rate, and runtime.
//!
//! ```sh
//! cargo run --release -p mvbench --bin sweep_baseline
//! ```

use mvbench::{workload, Contention, Sweep};
use mvisolation::Allocation;
use mvrobustness::{is_robust, static_si_robust};
use std::time::Instant;

fn main() {
    Sweep::new(&[]);
    println!("## B8 — static SDG baseline vs exact Algorithm 1 (robustness against A_SI)\n");
    println!("| contention | |T| | cases | both robust | both non-robust | false alarms | sound? | static (s) | exact (s) |");
    println!("|---|---|---|---|---|---|---|---|---|");
    const CASES: u64 = 50;
    for contention in Contention::ALL {
        for n in [5u32, 10, 20] {
            let mut both_robust = 0u64;
            let mut both_bad = 0u64;
            let mut false_alarms = 0u64;
            let mut sound = true;
            let mut t_static = 0.0f64;
            let mut t_exact = 0.0f64;
            for seed in 0..CASES {
                let txns = workload(n, contention, 0xB8 + seed);
                let start = Instant::now();
                let certified = static_si_robust(&txns).certified();
                t_static += start.elapsed().as_secs_f64();
                let start = Instant::now();
                let exact = is_robust(&txns, &Allocation::uniform_si(&txns)).robust();
                t_exact += start.elapsed().as_secs_f64();
                match (certified, exact) {
                    (true, true) => both_robust += 1,
                    (false, false) => both_bad += 1,
                    (false, true) => false_alarms += 1,
                    (true, false) => sound = false,
                }
            }
            println!(
                "| {} | {} | {} | {} | {} | {} | {} | {:.2e} | {:.2e} |",
                contention.label(),
                n,
                CASES,
                both_robust,
                both_bad,
                false_alarms,
                sound,
                t_static / CASES as f64,
                t_exact / CASES as f64,
            );
        }
    }
    println!(
        "\nfalse alarm = the static test flags a workload the exact algorithm \
         proves robust; `sound?` must always be true (certified ⟹ robust)."
    );
}
