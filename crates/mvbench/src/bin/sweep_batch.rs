//! B13 table generator: group-commit coalescing — batched delta
//! reallocation ([`Allocator::apply_batch`]) vs. one engine pass per
//! event, on SmallBank-style churn.
//!
//! ```sh
//! cargo run --release -p mvbench --bin sweep_batch [--json BENCH_alg.json] [--smoke]
//! ```
//!
//! The workload is a steady-state churn of SmallBank programs (Balance,
//! DepositChecking, TransactSavings, Amalgamate, WriteCheck) over a
//! pool of customers: each event registers a fresh program instance or
//! retires the oldest live one, holding the live population roughly
//! constant. The same event script is replayed at every batch size, so
//! rows are directly comparable.
//!
//! For each batch size the script's concatenated per-event verdicts and
//! final optimum are first asserted **bit-identical** to the sequential
//! delta API (`add_txn`/`remove_txn` one event at a time) — coalescing
//! is a pure performance lever, never a semantic one. `--smoke` runs a
//! small pinned-seed subset and *fails* (exit 1, with the reproducing
//! command) on any disagreement or when batch=64 does not beat batch=1
//! by at least 2× on events/sec — the CI gate.
//!
//! Reported per row: events/sec and the p99 *per-event* latency, where
//! an event's latency is the wall time of the engine pass that carried
//! it (every event in a drain waits for the whole drain).

use mvbench::Sweep;
use mvmodel::{Op, Transaction, TransactionSet, TxnId};
use mvrobustness::{AllocError, Allocator, DeltaEvent};
use rand::rngs::SmallRng;
use rand::{RngExt, SeedableRng};
use serde_json::{json, Value};
use std::collections::VecDeque;
use std::time::Instant;

const SEED: u64 = 0xB13;
const BATCH_SIZES: [usize; 4] = [1, 8, 64, 256];

/// One SmallBank program instance as a raw transaction. Objects are raw
/// ids — `sav(c)` = `2c`, `chk(c)` = `2c+1` — names are cosmetic and
/// conflicts derive from ids.
fn program(rng: &mut SmallRng, id: u32, customers: u32) -> Transaction {
    let sav = |c: u32| mvmodel::Object(2 * c);
    let chk = |c: u32| mvmodel::Object(2 * c + 1);
    let c = rng.random_range(0..customers);
    let ops = match rng.random_range(0..5u32) {
        // Balance(c): read-only inspection of both accounts.
        0 => vec![Op::read(sav(c)), Op::read(chk(c))],
        // DepositChecking(c).
        1 => vec![Op::read(chk(c)), Op::write(chk(c))],
        // TransactSavings(c).
        2 => vec![Op::read(sav(c)), Op::write(sav(c))],
        // Amalgamate(c, c2).
        3 => {
            let mut c2 = rng.random_range(0..customers);
            if c2 == c {
                c2 = (c2 + 1) % customers;
            }
            vec![
                Op::read(sav(c)),
                Op::write(sav(c)),
                Op::read(chk(c)),
                Op::write(chk(c)),
                Op::read(chk(c2)),
                Op::write(chk(c2)),
            ]
        }
        // WriteCheck(c): the write-skew program.
        _ => vec![Op::read(sav(c)), Op::read(chk(c)), Op::write(chk(c))],
    };
    Transaction::new(TxnId(id), ops).expect("SmallBank programs have distinct operations")
}

/// A steady-state churn script: registers until the live population
/// reaches `live`, then alternates fresh registrations with retiring
/// the oldest live transaction.
fn churn_script(rng: &mut SmallRng, events: usize, customers: u32, live: usize) -> Vec<DeltaEvent> {
    let mut alive: VecDeque<u32> = VecDeque::new();
    let mut next_id = 1u32;
    let mut script = Vec::with_capacity(events);
    for _ in 0..events {
        if alive.len() >= live && rng.random_bool(0.5) {
            let id = alive.pop_front().expect("population is non-empty");
            script.push(DeltaEvent::Remove(TxnId(id)));
        } else {
            let id = next_id;
            next_id += 1;
            script.push(DeltaEvent::Add(program(rng, id, customers)));
            alive.push_back(id);
        }
    }
    script
}

/// The ground truth: the script applied one event at a time through the
/// sequential delta API.
fn sequential_baseline(script: &[DeltaEvent]) -> (Vec<Result<(), AllocError>>, Allocator<'static>) {
    let mut alloc = Allocator::from_owned(TransactionSet::default());
    let mut verdicts = Vec::with_capacity(script.len());
    for ev in script {
        verdicts.push(match ev.clone() {
            DeltaEvent::Add(txn) => alloc.add_txn(txn).map(|_| ()),
            DeltaEvent::Remove(id) => alloc.remove_txn(id).map(|_| ()),
        });
    }
    (verdicts, alloc)
}

struct Cell {
    batch: usize,
    events_per_s: f64,
    p99_event_us: f64,
    drains: usize,
}

/// Replays the script in drains of `batch` events, timing each drain;
/// panics if verdicts or the final optimum diverge from the sequential
/// baseline.
fn measure(
    script: &[DeltaEvent],
    batch: usize,
    expected_verdicts: &[Result<(), AllocError>],
    expected_final: &mvisolation::Allocation,
) -> Cell {
    let mut alloc = Allocator::from_owned(TransactionSet::default());
    let mut verdicts = Vec::with_capacity(script.len());
    let mut drain_us: Vec<(f64, usize)> = Vec::new();
    let mut total = 0.0f64;
    for chunk in script.chunks(batch) {
        let start = Instant::now();
        let reply = alloc
            .apply_batch(chunk.to_vec())
            .expect("no deadline is configured, so batches never time out");
        let secs = start.elapsed().as_secs_f64();
        total += secs;
        drain_us.push((secs * 1e6, chunk.len()));
        verdicts.extend(reply.outcomes);
    }
    assert_eq!(
        verdicts.len(),
        expected_verdicts.len(),
        "batch={batch}: dropped events"
    );
    assert_eq!(
        verdicts, expected_verdicts,
        "batch={batch}: verdicts diverged from the sequential delta API"
    );
    assert_eq!(
        alloc.current().expect("survivor set is allocatable"),
        expected_final,
        "batch={batch}: final optimum diverged from the sequential engine"
    );

    // p99 per event: an event's latency is its drain's wall time.
    let mut per_event: Vec<f64> = drain_us
        .iter()
        .flat_map(|&(us, n)| std::iter::repeat_n(us, n))
        .collect();
    per_event.sort_by(|a, b| a.partial_cmp(b).expect("latencies are finite"));
    let p99 = per_event[((per_event.len() - 1) * 99) / 100];

    Cell {
        batch,
        events_per_s: script.len() as f64 / total,
        p99_event_us: p99,
        drains: drain_us.len(),
    }
}

fn main() {
    let mut sweep = Sweep::new(&["--json", "--smoke"]);
    let smoke = sweep.smoke();

    let (events, customers, live) = if smoke {
        (1024usize, 24u32, 96usize)
    } else {
        (4096usize, 48u32, 192usize)
    };

    let mut rng = SmallRng::seed_from_u64(SEED);
    let script = churn_script(&mut rng, events, customers, live);
    let (expected_verdicts, mut baseline) = sequential_baseline(&script);
    let expected_final = baseline
        .current()
        .expect("SmallBank churn stays allocatable over {RC, SI, SSI}")
        .clone();

    println!("## B13 — group-commit coalescing on SmallBank churn ({events} events)\n");
    println!("| batch | drains | events/s | p99 per event (µs) | speedup vs batch=1 |");
    println!("|---|---|---|---|---|");

    let cells: Vec<Cell> = BATCH_SIZES
        .iter()
        .map(|&b| measure(&script, b, &expected_verdicts, &expected_final))
        .collect();

    let base_rate = cells[0].events_per_s;
    let mut rows: Vec<Value> = Vec::new();
    for c in &cells {
        println!(
            "| {} | {} | {:.0} | {:.1} | {:.2}× |",
            c.batch,
            c.drains,
            c.events_per_s,
            c.p99_event_us,
            c.events_per_s / base_rate
        );
        rows.push(json!({
            "batch": c.batch as u64,
            "drains": c.drains as u64,
            "events_per_s": c.events_per_s,
            "p99_event_us": c.p99_event_us,
            "speedup": c.events_per_s / base_rate,
        }));
    }

    // The regression gate. Equivalence was already asserted inside
    // `measure`; here the coalescing payoff is enforced: batch=64 must
    // beat per-event reallocation by at least 2× on throughput.
    let payoff = cells
        .iter()
        .find(|c| c.batch == 64)
        .expect("64 is a swept size")
        .events_per_s
        / base_rate;
    if payoff <= 2.0 {
        sweep.fail(format!(
            "batch=64 is only {payoff:.2}× batch=1 on events/sec (gate: > 2×)"
        ));
    }

    sweep.record(
        "batch",
        None,
        json!({
            "experiment": "B13-group-commit-coalescing",
            "seed": format!("{SEED:#x}"),
            "smoke": smoke,
            "events": events as u64,
            "rows": rows,
        }),
    );
    sweep.finish();
    if smoke {
        println!("\nsmoke OK: batched engine bit-identical and the coalescing payoff holds");
    }
}
