//! B5 table generator: composition of the optimal allocation (how many
//! transactions land on RC / SI / SSI) as contention varies, plus the
//! TPC-C and SmallBank case studies.
//!
//! ```sh
//! cargo run --release -p mvbench --bin sweep_composition
//! ```

use mvbench::Sweep;
use mvisolation::Allocation;
use mvrobustness::{is_robust, optimal_allocation, optimal_allocation_rc_si};
use mvworkloads::smallbank::SmallBank;
use mvworkloads::tpcc::Tpcc;
use mvworkloads::{RandomWorkload, Ycsb, YcsbMix};

fn main() {
    Sweep::new(&[]);
    println!("## B5a — optimal composition vs Zipf skew (20 txns, 40 objects, 3 seeds avg)\n");
    println!("| θ | %RC | %SI | %SSI | SI-robust | RC-robust |");
    println!("|---|---|---|---|---|---|");
    for theta in [0.0, 0.4, 0.8, 1.2, 1.6] {
        let mut sums = (0usize, 0usize, 0usize);
        let mut si_robust = 0;
        let mut rc_robust = 0;
        const SEEDS: u64 = 3;
        for seed in 0..SEEDS {
            let txns = RandomWorkload::builder()
                .txns(20)
                .ops(2, 5)
                .objects(40)
                .theta(theta)
                .write_ratio(0.4)
                .seed(0xB5 + seed)
                .generate();
            let a = optimal_allocation(&txns);
            let (rc, si, ssi) = a.counts();
            sums = (sums.0 + rc, sums.1 + si, sums.2 + ssi);
            si_robust += is_robust(&txns, &Allocation::uniform_si(&txns)).robust() as u32;
            rc_robust += is_robust(&txns, &Allocation::uniform_rc(&txns)).robust() as u32;
        }
        let total = (sums.0 + sums.1 + sums.2) as f64;
        println!(
            "| {:.1} | {:.0}% | {:.0}% | {:.0}% | {}/{} | {}/{} |",
            theta,
            sums.0 as f64 / total * 100.0,
            sums.1 as f64 / total * 100.0,
            sums.2 as f64 / total * 100.0,
            si_robust,
            SEEDS,
            rc_robust,
            SEEDS,
        );
    }

    println!("\n## B5b — optimal composition vs write ratio (θ = 0.8)\n");
    println!("| write ratio | %RC | %SI | %SSI |");
    println!("|---|---|---|---|");
    for wr in [0.0, 0.2, 0.4, 0.6, 0.8] {
        let txns = RandomWorkload::builder()
            .txns(20)
            .ops(2, 5)
            .objects(40)
            .theta(0.8)
            .write_ratio(wr)
            .seed(0xB5)
            .generate();
        let (rc, si, ssi) = optimal_allocation(&txns).counts();
        let total = (rc + si + ssi) as f64;
        println!(
            "| {:.1} | {:.0}% | {:.0}% | {:.0}% |",
            wr,
            rc as f64 / total * 100.0,
            si as f64 / total * 100.0,
            ssi as f64 / total * 100.0,
        );
    }

    println!("\n## B5d — YCSB core mixes (20 txns, keyspace 50, θ = 0.99)\n");
    println!("| mix | RC-robust | SI-robust | optimal (RC/SI/SSI) |");
    println!("|---|---|---|---|");
    for mix in YcsbMix::ALL {
        let txns = Ycsb::new(mix).txns(20).keyspace(50).seed(0xB5D).generate();
        let rc = is_robust(&txns, &Allocation::uniform_rc(&txns)).robust();
        let si = is_robust(&txns, &Allocation::uniform_si(&txns)).robust();
        let (orc, osi, ossi) = optimal_allocation(&txns).counts();
        println!("| {} | {rc} | {si} | {orc}/{osi}/{ossi} |", mix.label());
    }

    println!("\n## B5c — benchmark case studies\n");
    println!("| workload | RC-robust | SI-robust | {{RC,SI}}-allocatable | optimal (RC/SI/SSI) |");
    println!("|---|---|---|---|---|");
    for (name, txns) in [
        ("TPC-C (canonical mix)", Tpcc::canonical_mix()),
        ("SmallBank (canonical mix)", SmallBank::canonical_mix()),
        ("SmallBank write-skew core", SmallBank::write_skew_core(1)),
    ] {
        let rc = is_robust(&txns, &Allocation::uniform_rc(&txns)).robust();
        let si = is_robust(&txns, &Allocation::uniform_si(&txns)).robust();
        let allocatable = optimal_allocation_rc_si(&txns).is_some();
        let (orc, osi, ossi) = optimal_allocation(&txns).counts();
        println!("| {name} | {rc} | {si} | {allocatable} | {orc}/{osi}/{ossi} |");
    }
}
