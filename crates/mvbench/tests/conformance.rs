//! The execution conformance suite: ≥100 seeded allocate→execute→validate
//! rounds across five workload families, plus the converse probe that
//! executed anomalies under non-robust allocations agree with Algorithm 1.
//!
//! Every round is deterministic in `(workload seed, SIM_SEED, concurrency,
//! SSI mode)`. Override the simulator base seed with `SIM_SEED=<u64>`; a
//! failure message always carries the `SIM_SEED=… cargo test` line that
//! replays it.

use mvbench::conformance::{exec_round, find_executed_anomaly, optimal_alloc, run_round, Family};
use mvisolation::{allowed_under, Allocation};
use mvmodel::serializability::is_conflict_serializable;
use mvrobustness::{corroborate_anomaly, is_robust};
use mvsim::{run_parallel_workload, run_workload, RoundRobinScheduler, SimConfig, SsiMode};
use mvworkloads::SmallBank;
use std::sync::Arc;

/// Default simulator base seed; override with `SIM_SEED=<u64>`.
fn sim_seed() -> u64 {
    std::env::var("SIM_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0xB16)
}

fn repro(seed: u64) -> String {
    format!("reproduce with: SIM_SEED={seed} cargo test -p mvbench --test conformance")
}

/// The tentpole: 5 families × 7 workload seeds × 3 execution configs =
/// 105 rounds. Each round allocates optimally (robust by Theorem 4.3),
/// executes on the MVCC engine, and asserts the exported trace is allowed
/// under the allocation and conflict serializable.
#[test]
fn hundred_plus_rounds_execute_conformantly() {
    let base = sim_seed();
    let mut rounds = 0usize;
    for family in Family::ALL {
        for wl_seed in 0..7u64 {
            for (concurrency, mode) in [
                (2, SsiMode::Exact),
                (4, SsiMode::Conservative),
                (8, SsiMode::Exact),
            ] {
                let config = SimConfig::default()
                    .with_seed(base.wrapping_add(rounds as u64))
                    .with_concurrency(concurrency)
                    .with_ssi_mode(mode);
                let report = run_round(family, wl_seed, config).unwrap_or_else(|e| {
                    panic!(
                        "conformance violated: {} family, wl_seed={wl_seed}, \
                         concurrency={concurrency}, mode={mode:?}: {e}\n{}",
                        family.label(),
                        repro(base)
                    )
                });
                assert!(
                    report.verdict.conformant(),
                    "non-conformant verdict slipped through: {report:?}\n{}",
                    repro(base)
                );
                assert_eq!(
                    report.committed,
                    report.txns,
                    "unbounded retries must commit every job\n{}",
                    repro(base)
                );
                rounds += 1;
            }
        }
    }
    assert!(rounds >= 100, "suite shrank below 100 rounds: {rounds}");
}

/// FNV-1a (64-bit) offset basis.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Folds `bytes` into an FNV-1a (64-bit) digest.
fn fnv1a(mut digest: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        digest ^= u64::from(b);
        digest = digest.wrapping_mul(0x0100_0000_01b3);
    }
    digest
}

/// Sequential digests of the 105-round grid at base seed `0xB16`, per
/// family (in [`Family::ALL`] order) × detector (`[Exact,
/// Conservative]`).
const PINNED_SEQUENTIAL: [[u64; 2]; 5] = [
    [0x9e4a_3dd2_8241_5c5f, 0x5194_43ef_9d74_747d],
    [0xa74f_b71c_e198_d27d, 0x5f1f_a7dc_5de5_b023],
    [0x49b7_7707_362a_9597, 0x70c2_2f91_b0b1_7d73],
    [0x0624_8d26_2203_d99f, 0x91ec_651f_8002_a0d4],
    [0x1b5c_8aa9_d42d_dc14, 0xb8a2_3e91_e7e7_e869],
];

/// Digests of the one-thread parallel engine over the same workloads,
/// per family.
const PINNED_ONE_THREAD: [u64; 5] = [
    0x758c_38ed_5c5c_5499,
    0x7f41_1abb_5b3e_9148,
    0x357b_648e_3c36_3ab4,
    0xb029_556c_4421_de90,
    0x8192_f221_42e1_120c,
];

/// The oracle pinned: the sequential engine's `Metrics` and exported
/// schedule on every round of the 105-round grid, at the fixed base seed
/// `0xB16` (`SIM_SEED` is ignored), hash to constant digests; so does
/// the one-thread parallel engine, which is deterministic. A change to
/// the engines' internals that alters any interleaving, counter or
/// observed version fails here.
#[test]
fn sequential_traces_match_pinned_digests() {
    let base = 0xB16u64;
    let mut rounds = 0u64;
    let mut sequential = [[FNV_OFFSET; 2]; 5];
    let mut one_thread = [FNV_OFFSET; 5];
    for (fi, family) in Family::ALL.into_iter().enumerate() {
        for wl_seed in 0..7u64 {
            let txns = family.workload(wl_seed);
            let alloc = optimal_alloc(&txns);
            for (concurrency, mode) in [
                (2, SsiMode::Exact),
                (4, SsiMode::Conservative),
                (8, SsiMode::Exact),
            ] {
                let config = SimConfig::default()
                    .with_seed(base.wrapping_add(rounds))
                    .with_concurrency(concurrency)
                    .with_ssi_mode(mode);
                let engine = run_workload(&txns, &alloc, config);
                let schedule = engine.trace.export().expect("trace on").schedule;
                let d = &mut sequential[fi][usize::from(mode == SsiMode::Conservative)];
                *d = fnv1a(*d, format!("{:?}", engine.metrics).as_bytes());
                *d = fnv1a(*d, mvmodel::fmt::schedule_full(&schedule).as_bytes());
                rounds += 1;
            }
            let run = run_parallel_workload(
                &txns,
                &alloc,
                SimConfig::default().with_seed(base).with_threads(1),
            );
            let schedule = run.trace.export().expect("trace on").schedule;
            let d = &mut one_thread[fi];
            *d = fnv1a(*d, format!("{:?}", run.metrics).as_bytes());
            *d = fnv1a(*d, mvmodel::fmt::schedule_full(&schedule).as_bytes());
        }
    }
    assert_eq!(rounds, 105);
    let render = |d: &[u64]| {
        d.iter()
            .map(|x| format!("{x:#018x}"))
            .collect::<Vec<_>>()
            .join(", ")
    };
    for (fi, family) in Family::ALL.into_iter().enumerate() {
        assert_eq!(
            sequential[fi],
            PINNED_SEQUENTIAL[fi],
            "sequential digests moved on the {} family: [{}]",
            family.label(),
            render(&sequential[fi])
        );
        assert_eq!(
            one_thread[fi],
            PINNED_ONE_THREAD[fi],
            "one-thread parallel digest moved on the {} family: {:#018x}",
            family.label(),
            one_thread[fi]
        );
    }
}

/// Replay: the same (workload seed, sim seed, concurrency) must reproduce
/// the exported schedule bit-for-bit; a different sim seed must be able
/// to produce a different interleaving somewhere across the families.
#[test]
fn same_seed_replays_bit_identical_traces() {
    let base = sim_seed();
    let mut any_divergence = false;
    for family in Family::ALL {
        let config = SimConfig::default().with_seed(base).with_concurrency(4);
        let a = run_round(family, 1, config.clone()).unwrap();
        let b = run_round(family, 1, config).unwrap();
        assert_eq!(
            a.fingerprint,
            b.fingerprint,
            "same-seed replay diverged on {} family\n{}",
            family.label(),
            repro(base)
        );
        let other = run_round(
            family,
            1,
            SimConfig::default()
                .with_seed(base.wrapping_add(0x5EED))
                .with_concurrency(4),
        )
        .unwrap();
        any_divergence |= other.fingerprint != a.fingerprint;
    }
    assert!(
        any_divergence,
        "changing the sim seed never changed any trace — scheduler ignores its seed?\n{}",
        repro(base)
    );
}

/// The adversarial deterministic policy must conform too: round-robin
/// scheduling across every family.
#[test]
fn round_robin_rounds_conform() {
    for family in Family::ALL {
        for wl_seed in 0..3u64 {
            let txns = family.workload(wl_seed);
            let alloc = optimal_alloc(&txns);
            let mut rr = RoundRobinScheduler::new();
            let report = exec_round(
                family.label(),
                &txns,
                &alloc,
                true,
                SimConfig::default().with_concurrency(3),
                &mut rr,
            )
            .unwrap_or_else(|e| {
                panic!(
                    "round-robin conformance violated on {} wl_seed={wl_seed}: {e}",
                    family.label()
                )
            });
            assert!(report.verdict.conformant());
        }
    }
}

/// Converse probe, SI write skew: under the deliberately non-robust
/// all-SI allocation of the SmallBank write-skew core, execution finds a
/// real anomaly, and Algorithm 1 corroborates it with a verified static
/// counterexample.
#[test]
fn executed_si_write_skew_is_corroborated() {
    let base = sim_seed();
    let txns = SmallBank::write_skew_core(1);
    let alloc = Allocation::uniform_si(&txns);
    assert!(
        !is_robust(&Arc::new(txns.clone()), &alloc).robust(),
        "write-skew core must not be SI-robust"
    );
    let anomaly = find_executed_anomaly(&txns, &alloc, base, 40, &[2, 3, 4]).unwrap_or_else(|| {
        panic!(
            "no executed anomaly in 40 seeds × 3 concurrencies — engine too strict?\n{}",
            repro(base)
        )
    });
    assert!(!is_conflict_serializable(&anomaly));
    // Cross-check: the static oracle agrees and its witness verifies.
    let arc = Arc::new(txns);
    let witness = corroborate_anomaly(&arc, &alloc)
        .unwrap_or_else(|e| panic!("static oracle disagrees with execution: {e}"));
    assert!(allowed_under(&witness, &alloc));
    assert!(!is_conflict_serializable(&witness));
}

/// Converse probe, RC lost update: two read-modify-writes at RC admit the
/// classic lost update; execution finds it and Algorithm 1 corroborates.
#[test]
fn executed_rc_lost_update_is_corroborated() {
    let base = sim_seed();
    let mut b = mvmodel::TxnSetBuilder::new();
    let x = b.object("x");
    b.txn(1).read(x).write(x).finish();
    b.txn(2).read(x).write(x).finish();
    let txns = b.build().unwrap();
    let alloc = Allocation::uniform(&txns, mvisolation::IsolationLevel::RC);
    let anomaly = find_executed_anomaly(&txns, &alloc, base, 40, &[2]).unwrap_or_else(|| {
        panic!(
            "lost update never executed in 40 seeds — RC reads misimplemented?\n{}",
            repro(base)
        )
    });
    assert!(!is_conflict_serializable(&anomaly));
    let arc = Arc::new(txns);
    let witness = corroborate_anomaly(&arc, &alloc)
        .unwrap_or_else(|e| panic!("static oracle disagrees with execution: {e}"));
    assert!(allowed_under(&witness, &alloc));
    assert!(!is_conflict_serializable(&witness));
}

/// A robust allocation never yields an executed anomaly, however hard the
/// probe searches — the (1)→(2) direction of Theorem 3.2, executed.
#[test]
fn robust_allocations_never_execute_anomalies() {
    let base = sim_seed();
    for family in [Family::SmallBank, Family::Ring] {
        let txns = family.workload(2);
        let alloc = optimal_alloc(&txns);
        assert!(
            find_executed_anomaly(&txns, &alloc, base, 15, &[2, 4]).is_none(),
            "robust allocation executed an anomaly on {} family\n{}",
            family.label(),
            repro(base)
        );
    }
}
