//! B11 table generator: chaos soak — recovery latency of the online
//! allocation service under sustained seeded fault injection.
//!
//! ```sh
//! cargo run --release -p mvbench --bin soak_chaos \
//!     [--events N] [--seed S] [--json BENCH_alg.json]
//! ```
//!
//! For each fault intensity an in-process server is started with a
//! seeded [`FaultPlan`] (no budget: faults keep firing for the whole
//! soak) and driven through `N` register/deregister events by a
//! [`RetryClient`]. A *recovered request* is one that needed at least
//! one retry before succeeding; its wall time — first attempt to final
//! outcome — is the recovery latency. After the soak the served
//! allocation is re-verified: Algorithm 1 must certify it robust and it
//! must be bit-identical to a batch `Allocator::optimal` over exactly
//! the applied transactions (the binary aborts otherwise, so a printed
//! row *is* the certificate). Fully deterministic per `--seed` up to
//! scheduler timing; latencies are wall-clock, the schedule is not.

use mvbench::Sweep;
use mvisolation::{Allocation, IsolationLevel};
use mvmodel::{parse_transaction_line, TransactionSet, TxnId};
use mvrobustness::{is_robust, Allocator};
use mvservice::{ClientError, Config, FaultPlan, RetryClient, RetryPolicy, Server};
use rand::rngs::SmallRng;
use rand::{RngCore, SeedableRng};
use serde_json::{json, Value};
use std::time::{Duration, Instant};

struct Intensity {
    label: &'static str,
    plan: FaultPlan,
}

fn intensities(seed: u64) -> Vec<Intensity> {
    let base = FaultPlan {
        seed,
        delay: Duration::from_millis(1),
        budget: None,
        ..FaultPlan::default()
    };
    vec![
        Intensity {
            label: "off",
            plan: FaultPlan {
                seed,
                ..FaultPlan::default()
            },
        },
        Intensity {
            label: "light",
            plan: FaultPlan {
                drop: 0.05,
                truncate: 0.03,
                slow: 0.05,
                realloc_fail: 0.02,
                realloc_timeout: 0.01,
                ..base
            },
        },
        Intensity {
            label: "moderate",
            plan: FaultPlan {
                drop: 0.12,
                truncate: 0.08,
                slow: 0.08,
                realloc_fail: 0.05,
                realloc_timeout: 0.04,
                ..base
            },
        },
        Intensity {
            label: "heavy",
            plan: FaultPlan {
                drop: 0.25,
                truncate: 0.15,
                slow: 0.10,
                realloc_fail: 0.10,
                realloc_timeout: 0.08,
                delay: Duration::from_millis(2),
                ..base
            },
        },
    ]
}

struct SoakRow {
    label: &'static str,
    events: usize,
    applied: usize,
    rejected: usize,
    faults: u64,
    retried: usize,
    mean_recovery_ms: f64,
    max_recovery_ms: f64,
}

/// One soak at one intensity. Panics if any invariant breaks, so every
/// returned row doubles as a pass certificate.
fn soak(intensity: &Intensity, events: usize, seed: u64) -> SoakRow {
    let server = Server::bind(Config {
        addr: "127.0.0.1:0".to_string(),
        realloc_timeout: Some(Duration::from_secs(10)),
        faults: Some(intensity.plan.clone()),
        ..Config::default()
    })
    .expect("bind ephemeral port");
    let addr = server.local_addr().expect("local addr");
    let handle = server.handle();
    let join = std::thread::spawn(move || server.run().expect("server run"));

    let mut client = RetryClient::new(
        addr.to_string(),
        RetryPolicy {
            retries: 8,
            base: Duration::from_millis(1),
            cap: Duration::from_millis(20),
            seed,
        },
    );
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x50AC);
    let mut mirror: Vec<(u32, String)> = Vec::new();
    let mut next_id = 1u32;
    let (mut applied, mut rejected, mut retried) = (0usize, 0usize, 0usize);
    let mut recoveries_ms: Vec<f64> = Vec::new();

    // Is `id` registered? Rides out residual faults via `assign`.
    let resolve = |client: &mut RetryClient, id: u32| -> bool {
        for _ in 0..400 {
            match client.assign(id) {
                Ok(_) => return true,
                Err(ClientError::Server(_)) => return false,
                Err(_) => continue,
            }
        }
        panic!("could not resolve state of T{id} (seed {seed})");
    };

    for _ in 0..events {
        let retries_before = client.retry_stats().retries;
        let started = Instant::now();
        let deregister = mirror.len() >= 4 && rng.next_u64() % 100 < 35;
        if deregister {
            let idx = (rng.next_u64() % mirror.len() as u64) as usize;
            let (id, line) = mirror.remove(idx);
            match client.deregister(id) {
                Ok(_) => applied += 1,
                Err(ClientError::Server(_)) => {
                    mirror.insert(idx, (id, line));
                    rejected += 1;
                }
                Err(_) => {
                    if resolve(&mut client, id) {
                        mirror.insert(idx, (id, line));
                        rejected += 1;
                    } else {
                        applied += 1;
                    }
                }
            }
        } else {
            const OBJECTS: [&str; 6] = ["a", "b", "c", "d", "e", "f"];
            let id = next_id;
            next_id += 1;
            let count = 1 + (rng.next_u64() % 3) as usize;
            let mut pool: Vec<&str> = OBJECTS.to_vec();
            let mut line = format!("T{id}:");
            for _ in 0..count {
                let obj = pool.remove((rng.next_u64() % pool.len() as u64) as usize);
                match rng.next_u64() % 3 {
                    0 => line.push_str(&format!(" R[{obj}]")),
                    1 => line.push_str(&format!(" W[{obj}]")),
                    _ => line.push_str(&format!(" R[{obj}] W[{obj}]")),
                }
            }
            match client.register(&line) {
                Ok(_) => {
                    mirror.push((id, line));
                    applied += 1;
                }
                Err(ClientError::Server(_)) => rejected += 1,
                Err(_) => {
                    if resolve(&mut client, id) {
                        mirror.push((id, line));
                        applied += 1;
                    } else {
                        rejected += 1;
                    }
                }
            }
        }
        if client.retry_stats().retries > retries_before {
            retried += 1;
            recoveries_ms.push(started.elapsed().as_secs_f64() * 1e3);
        }
    }

    // Post-soak verification: served set == applied set, Algorithm 1
    // re-certifies the allocation, and it matches the batch optimum.
    let listed = loop {
        match client.list() {
            Ok(v) => break v,
            Err(ClientError::Server(m)) => panic!("list rejected: {m}"),
            Err(_) => continue,
        }
    };
    let served: Vec<(u32, IsolationLevel)> = listed["txns"]
        .as_array()
        .expect("list reply has txns")
        .iter()
        .map(|t| {
            (
                t["id"].as_u64().expect("listed id") as u32,
                t["level"]
                    .as_str()
                    .expect("listed level")
                    .parse()
                    .expect("level"),
            )
        })
        .collect();
    let mut served_ids: Vec<u32> = served.iter().map(|(id, _)| *id).collect();
    served_ids.sort_unstable();
    let mut mirror_ids: Vec<u32> = mirror.iter().map(|(id, _)| *id).collect();
    mirror_ids.sort_unstable();
    assert_eq!(
        served_ids, mirror_ids,
        "{}: served set diverged from applied set (seed {seed})",
        intensity.label
    );
    let mut set = TransactionSet::default();
    for (_, line) in &mirror {
        let parsed = parse_transaction_line(line, &mut set).expect("mirror parses");
        set.insert(parsed).expect("unique ids");
    }
    let allocation = Allocation::from_pairs(served.iter().map(|&(id, l)| (TxnId(id), l)));
    if !set.is_empty() {
        assert!(
            is_robust(&set, &allocation).robust(),
            "{}: served allocation not robust (seed {seed})",
            intensity.label
        );
    }
    let (expected, _) = Allocator::new(&set).optimal();
    for (id, level) in &served {
        assert_eq!(
            *level,
            expected.level(TxnId(*id)),
            "{}: T{id} diverged from batch optimum (seed {seed})",
            intensity.label
        );
    }

    // Shut down through whatever faults remain in flight.
    for _ in 0..400 {
        match client.shutdown() {
            Ok(()) => break,
            Err(_) if handle.is_shutting_down() => break,
            Err(_) => continue,
        }
    }
    join.join().expect("server joins cleanly");

    let mean = if recoveries_ms.is_empty() {
        0.0
    } else {
        recoveries_ms.iter().sum::<f64>() / recoveries_ms.len() as f64
    };
    let max = recoveries_ms.iter().cloned().fold(0.0, f64::max);
    SoakRow {
        label: intensity.label,
        events,
        applied,
        rejected,
        faults: handle.faults_injected(),
        retried,
        mean_recovery_ms: mean,
        max_recovery_ms: max,
    }
}

fn main() {
    let sweep = Sweep::new(&["--events", "--seed", "--json"]);
    let events: usize = sweep.value("--events").unwrap_or(150);
    let seed: u64 = sweep.value("--seed").unwrap_or(0xB11);

    println!("## B11 — chaos soak: recovery latency vs. fault intensity (seed {seed}, {events} events)\n");
    println!("| intensity | applied | rejected | faults injected | retried reqs | mean recovery (ms) | max recovery (ms) | verified |");
    println!("|---|---|---|---|---|---|---|---|");

    let mut rows: Vec<Value> = Vec::new();
    for intensity in intensities(seed) {
        let row = soak(&intensity, events, seed);
        // soak() panics on any invariant breach, so reaching here means
        // the final state was robust and bit-identical to the optimum.
        println!(
            "| {} | {} | {} | {} | {} | {:.2} | {:.2} | yes |",
            row.label,
            row.applied,
            row.rejected,
            row.faults,
            row.retried,
            row.mean_recovery_ms,
            row.max_recovery_ms,
        );
        rows.push(json!({
            "intensity": row.label,
            "fault_plan": intensity.plan.to_string(),
            "events": row.events as u64,
            "applied": row.applied as u64,
            "rejected": row.rejected as u64,
            "faults_injected": row.faults,
            "retried_requests": row.retried as u64,
            "mean_recovery_ms": row.mean_recovery_ms,
            "max_recovery_ms": row.max_recovery_ms,
            "verified_robust_and_optimal": true,
        }));
    }

    sweep.record(
        "chaos_soak",
        None,
        json!({
            "experiment": "B11-chaos-recovery-latency",
            "seed": seed,
            "events": events as u64,
            "rows": rows,
        }),
    );
}
