//! B15 table generator: multi-tenant durability — tenant fleets over
//! one shared fingerprint cache, recovery time, and fsync-policy
//! throughput.
//!
//! ```sh
//! cargo run --release -p mvbench --bin sweep_tenants [--json BENCH_alg.json] [--smoke]
//! ```
//!
//! Three tables against a live durable server (WAL + snapshots in a
//! scratch dir, real sockets, the event core):
//!
//! 1. **Tenant fleet**: N tenants each admit the *same* SmallBank-style
//!    script (template fleets run the same shapes — the Vandevoort
//!    et al. template line of work). Tenant 0 warms the shared
//!    component cache; tenants 1..N then replay concurrently. Reported:
//!    fleet events/sec and the cross-tenant hit rate of the shared
//!    cache. Customers are partitioned into 8-customer cells (programs
//!    never span cells), so the conflict graph keeps many components —
//!    the component-sharded engine and its cache only engage with ≥ 2.
//! 2. **Recovery**: after each fleet, the server is killed without
//!    ceremony and restarted on the same data dir; the recovery wall
//!    time and replay/snapshot split come from the recovered server's
//!    own `stats`. Recovered per-tenant registry sizes are asserted
//!    against the fleet's.
//! 3. **Fsync policy**: the same single-tenant script under
//!    `--durability none | batch | event`, reporting events/sec and
//!    fsync counts.
//!
//! `--smoke` runs pinned smaller sizes and *fails* (exit 1, with the
//! reproducing command) when the cross-tenant hit rate at N=4 is ≤ 50%,
//! when recovery exceeds 10 s, or when any recovered registry diverges
//! — the CI gate.

use mvbench::Sweep;
use mvservice::{Config, Durability, RetryClient, RetryPolicy, Server, ServerHandle};
use rand::rngs::SmallRng;
use rand::{RngExt, SeedableRng};
use serde_json::json;
use std::net::SocketAddr;
use std::path::PathBuf;
use std::time::{Duration, Instant};

const SEED: u64 = 0xB15;
/// Customers per conflict cell: programs draw all their customers from
/// one cell, so components never merge across cells.
const CELL: u32 = 8;

fn tenant_name(i: usize) -> String {
    format!("t{i}")
}

/// The per-tenant script: SmallBank program instances as wire lines,
/// every tenant replaying the identical sequence. `sav(c)` / `chk(c)`
/// are the objects `s<c>` / `c<c>`.
fn script(events: usize, customers: u32) -> Vec<String> {
    assert!(
        customers.is_multiple_of(CELL),
        "customers must fill whole cells"
    );
    let mut rng = SmallRng::seed_from_u64(SEED);
    let mut lines = Vec::with_capacity(events);
    for id in 1..=events as u32 {
        let cell = rng.random_range(0..customers / CELL) * CELL;
        let c = cell + rng.random_range(0..CELL);
        let line = match rng.random_range(0..5u32) {
            0 => format!("T{id}: R[s{c}] R[c{c}]"),
            1 => format!("T{id}: R[c{c}] W[c{c}]"),
            2 => format!("T{id}: R[s{c}] W[s{c}]"),
            3 => {
                let mut c2 = cell + rng.random_range(0..CELL);
                if c2 == c {
                    c2 = cell + (c2 - cell + 1) % CELL;
                }
                format!("T{id}: R[s{c}] W[s{c}] R[c{c}] W[c{c}] R[c{c2}] W[c{c2}]")
            }
            _ => format!("T{id}: R[s{c}] R[c{c}] W[c{c}]"),
        };
        lines.push(line);
    }
    lines
}

struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> TempDir {
        let dir =
            std::env::temp_dir().join(format!("mvsweep-tenants-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        TempDir(dir)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

struct Running {
    addr: SocketAddr,
    handle: ServerHandle,
    join: std::thread::JoinHandle<()>,
}

fn start(dir: &std::path::Path, durability: Durability) -> Running {
    let server = Server::bind(Config {
        addr: "127.0.0.1:0".to_string(),
        data_dir: Some(dir.to_path_buf()),
        snapshot_every: 256,
        durability,
        ..Config::default()
    })
    .unwrap_or_else(|e| panic!("bind/recover failed: {e}"));
    let addr = server.local_addr().expect("local addr");
    let handle = server.handle();
    let join = std::thread::spawn(move || server.run().expect("server run"));
    Running { addr, handle, join }
}

/// Kill without ceremony: stop the accept loop; durable state is
/// whatever the store already wrote.
fn crash(running: Running) {
    running.handle.shutdown();
    let _ = std::net::TcpStream::connect(running.addr);
    running.join.join().expect("server joins");
}

fn client(addr: SocketAddr, tenant: &str, seed: u64) -> RetryClient {
    let mut c = RetryClient::new(
        addr.to_string(),
        RetryPolicy {
            retries: 4,
            base: Duration::from_millis(1),
            cap: Duration::from_millis(50),
            seed,
        },
    )
    .with_tenant(tenant);
    c.set_timeout(Some(Duration::from_secs(30)));
    c
}

/// Registers the whole script for one tenant; panics on any rejection.
fn replay(addr: SocketAddr, tenant: &str, lines: &[String], seed: u64) {
    let mut c = client(addr, tenant, seed);
    for line in lines {
        let reply = c
            .register(line)
            .unwrap_or_else(|e| panic!("register in {tenant} failed: {e}"));
        assert_eq!(reply["ok"], true, "register in {tenant} rejected: {reply}");
    }
}

struct FleetRow {
    tenants: usize,
    events_per_s: f64,
    hit_rate: f64,
    recovery_ms: f64,
    replayed: u64,
    snapshot_tenants: u64,
}

fn measure_fleet(n: usize, lines: &[String]) -> FleetRow {
    let data = TempDir::new(&format!("fleet{n}"));
    let running = start(&data.0, Durability::Batch);

    // Tenant 0 warms the shared cache; the rest of the fleet replays
    // concurrently (first-touch races would otherwise blur the
    // cross-tenant hit rate).
    let start_t = Instant::now();
    replay(running.addr, &tenant_name(0), lines, SEED);
    std::thread::scope(|s| {
        for i in 1..n {
            let addr = running.addr;
            s.spawn(move || replay(addr, &tenant_name(i), lines, SEED.wrapping_add(i as u64)));
        }
    });
    let wall = start_t.elapsed().as_secs_f64();

    let mut c = client(running.addr, &tenant_name(0), SEED ^ 0x57A7);
    let stats = c.stats().expect("stats");
    let hit_rate = stats["shared_cache"]["hit_rate"]
        .as_f64()
        .expect("hit_rate");

    // Kill + restart on the same directory: recovery time is the
    // recovered server's own measurement, not ours.
    crash(running);
    let running = start(&data.0, Durability::Batch);
    let mut c = client(running.addr, &tenant_name(0), SEED ^ 0x7EC0);
    let stats = c.stats().expect("recovered stats");
    let rec = &stats["durability"]["recovery"];
    let recovery_ms = rec["recovery_us"].as_u64().expect("recovery_us") as f64 / 1e3;
    for i in 0..n {
        let mut c = client(
            running.addr,
            &tenant_name(i),
            SEED.wrapping_add(0x99 + i as u64),
        );
        let s = c.stats().expect("per-tenant stats");
        assert_eq!(
            s["registry_size"].as_u64(),
            Some(lines.len() as u64),
            "tenant {i} diverged after recovery"
        );
    }
    let row = FleetRow {
        tenants: n,
        events_per_s: (n * lines.len()) as f64 / wall,
        hit_rate,
        recovery_ms,
        replayed: rec["wal_records_replayed"].as_u64().expect("replayed"),
        snapshot_tenants: rec["snapshot_tenants"].as_u64().expect("snapshot_tenants"),
    };
    let mut c = client(running.addr, "shutdown", 0);
    c.shutdown().expect("shutdown");
    running.join.join().expect("joins");
    row
}

struct FsyncRow {
    policy: Durability,
    events_per_s: f64,
    fsyncs: u64,
}

fn measure_fsync(policy: Durability, lines: &[String]) -> FsyncRow {
    let data = TempDir::new(&format!("fsync-{policy}"));
    let running = start(&data.0, policy);
    let start_t = Instant::now();
    replay(running.addr, "t0", lines, SEED ^ 0xF5);
    let wall = start_t.elapsed().as_secs_f64();
    let mut c = client(running.addr, "t0", SEED ^ 0xF6);
    let stats = c.stats().expect("stats");
    let fsyncs = stats["durability"]["fsyncs"].as_u64().expect("fsyncs");
    c.shutdown().expect("shutdown");
    running.join.join().expect("joins");
    FsyncRow {
        policy,
        events_per_s: lines.len() as f64 / wall,
        fsyncs,
    }
}

fn main() {
    let mut sweep = Sweep::new(&["--json", "--smoke"]);
    let smoke = sweep.smoke();

    let (events, customers, counts): (usize, u32, &[usize]) = if smoke {
        (96, 32, &[1, 4])
    } else {
        (256, 64, &[1, 2, 4, 8])
    };
    let lines = script(events, customers);

    println!("## B15 — multi-tenant durability ({events} events/tenant)\n");
    println!("| tenants | events/s | shared-cache hit rate | recovery (ms) | wal replayed | snapshot tenants |");
    println!("|---|---|---|---|---|---|");
    let fleet: Vec<FleetRow> = counts.iter().map(|&n| measure_fleet(n, &lines)).collect();
    for r in &fleet {
        println!(
            "| {} | {:.0} | {:.1}% | {:.1} | {} | {} |",
            r.tenants,
            r.events_per_s,
            r.hit_rate * 100.0,
            r.recovery_ms,
            r.replayed,
            r.snapshot_tenants
        );
    }

    println!("\n| fsync policy | events/s | fsyncs |");
    println!("|---|---|---|");
    let fsync: Vec<FsyncRow> = [Durability::None, Durability::Batch, Durability::Event]
        .iter()
        .map(|&p| measure_fsync(p, &lines))
        .collect();
    for r in &fsync {
        println!("| {} | {:.0} | {} |", r.policy, r.events_per_s, r.fsyncs);
    }

    // The CI gates: tenants sharing template shapes must actually share
    // solved components, and recovery must stay interactive.
    let four = fleet
        .iter()
        .find(|r| r.tenants == 4)
        .or_else(|| fleet.last())
        .expect("at least one fleet row");
    if four.tenants >= 2 && four.hit_rate <= 0.5 {
        sweep.fail(format!(
            "cross-tenant hit rate at {} tenants is {:.1}% (gate: > 50%)",
            four.tenants,
            four.hit_rate * 100.0
        ));
    }
    let slowest = fleet.iter().map(|r| r.recovery_ms).fold(0.0, f64::max);
    if slowest > 10_000.0 {
        sweep.fail(format!("recovery took {slowest:.0} ms (gate: < 10 s)"));
    }

    sweep.record(
        "tenants",
        None,
        json!({
            "experiment": "B15-multi-tenant-durability",
            "seed": format!("{SEED:#x}"),
            "smoke": smoke,
            "events_per_tenant": events as u64,
            "fleet": fleet.iter().map(|r| json!({
                "tenants": r.tenants as u64,
                "events_per_s": r.events_per_s,
                "shared_cache_hit_rate": r.hit_rate,
                "recovery_ms": r.recovery_ms,
                "wal_records_replayed": r.replayed,
                "snapshot_tenants": r.snapshot_tenants,
            })).collect::<Vec<_>>(),
            "fsync": fsync.iter().map(|r| json!({
                "policy": r.policy.as_str(),
                "events_per_s": r.events_per_s,
                "fsyncs": r.fsyncs,
            })).collect::<Vec<_>>(),
        }),
    );
    sweep.finish();
    if smoke {
        println!(
            "\nsmoke OK: cross-tenant cache sharing and recovery hold \
             (hit rate {:.1}% at {} tenants, slowest recovery {:.1} ms)",
            four.hit_rate * 100.0,
            four.tenants,
            slowest
        );
    }
}
