//! B6 table generator: simulator goodput, abort rate and serializability
//! under the allocation ladder at each contention preset, plus the
//! exact-vs-conservative SSI ablation.
//!
//! ```sh
//! cargo run --release -p mvbench --bin sweep_throughput
//! ```

use mvbench::{jobs, ladder, workload, Contention, Sweep};
use mvmodel::serializability::is_conflict_serializable;
use mvsim::{run_jobs, Metrics, SimConfig, SsiMode};

const RUNS: u64 = 10;

fn measure(job_list: &[mvsim::Job], mode: SsiMode) -> (Metrics, u64) {
    let mut total = Metrics::default();
    let mut serializable = 0u64;
    for seed in 0..RUNS {
        let engine = run_jobs(
            job_list,
            SimConfig::default()
                .with_seed(seed)
                .with_concurrency(8)
                .with_ssi_mode(mode),
        );
        let m = engine.metrics;
        total.commits += m.commits;
        total.aborts_fcw += m.aborts_fcw;
        total.aborts_deadlock += m.aborts_deadlock;
        total.aborts_ssi += m.aborts_ssi;
        total.ticks += m.ticks;
        total.gave_up += m.gave_up;
        if let Some(exported) = engine.trace.export() {
            serializable += is_conflict_serializable(&exported.schedule) as u64;
        }
    }
    (total, serializable)
}

fn main() {
    Sweep::new(&[]);
    println!("## B6a — goodput / abort rate under the allocation ladder ({RUNS} seeds)\n");
    println!("| contention | allocation | goodput | abort rate | serializable runs |");
    println!("|---|---|---|---|---|");
    for contention in Contention::ALL {
        let txns = workload(16, contention, 0xB6);
        for (label, alloc) in ladder(&txns) {
            let job_list = jobs(&txns, &alloc, 4);
            let (m, ser) = measure(&job_list, SsiMode::Exact);
            println!(
                "| {} | {} | {:.4} | {:.1}% | {}/{} |",
                contention.label(),
                label,
                m.goodput(),
                m.abort_rate() * 100.0,
                ser,
                RUNS,
            );
        }
    }

    println!("\n## B6b — SSI detector ablation (all-SSI, exact vs conservative)\n");
    println!("| contention | detector | goodput | SSI aborts | serializable runs |");
    println!("|---|---|---|---|---|");
    for contention in Contention::ALL {
        let txns = workload(16, contention, 0xB6);
        let ssi = mvisolation::Allocation::uniform_ssi(&txns);
        let job_list = jobs(&txns, &ssi, 4);
        for (name, mode) in [
            ("exact", SsiMode::Exact),
            ("conservative", SsiMode::Conservative),
        ] {
            let (m, ser) = measure(&job_list, mode);
            println!(
                "| {} | {} | {:.4} | {} | {}/{} |",
                contention.label(),
                name,
                m.goodput(),
                m.aborts_ssi,
                ser,
                RUNS,
            );
        }
    }
}
