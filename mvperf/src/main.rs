//! `mvperf`: one benchmark for the allocation service and the MVCC
//! engine, with end-to-end and per-layer metrics.
//!
//! ```sh
//! cargo run --release --manifest-path mvperf/Cargo.toml -- \
//!     --workload <churn|admit|exec-partitioned|exec-contended|all> --seed <u64> \
//!     [--seconds 15] [--trace [0|1]] [--json out.json]
//! cargo run --release --manifest-path mvperf/Cargo.toml -- --stability <N> [--seed <u64>]
//! ```
//!
//! An untraced run prints every end-to-end metric of the workload, one
//! per line, then a JSON result object as its last line. A traced run
//! (`--trace`) measures the same and then probes each layer, printing
//! the per-layer metrics instead. Every run checks its outputs; a failed
//! check exits 1 and prints the command that reproduces it. See
//! `README.md` next to this crate for the workloads and metrics.

mod exec;
mod gen;
mod layers;
mod report;
mod service;
mod stats;
mod trace;

use report::{Report, END_TO_END};
use serde_json::{json, Map, Value};
use std::io::{BufRead, BufReader};
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

const DEFAULT_SECONDS: f64 = 15.0;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Workload {
    Churn,
    Admit,
    ExecPartitioned,
    ExecContended,
}

const WORKLOADS: [Workload; 4] = [
    Workload::Churn,
    Workload::Admit,
    Workload::ExecPartitioned,
    Workload::ExecContended,
];

impl Workload {
    fn name(self) -> &'static str {
        match self {
            Workload::Churn => "churn",
            Workload::Admit => "admit",
            Workload::ExecPartitioned => "exec-partitioned",
            Workload::ExecContended => "exec-contended",
        }
    }

    fn parse(s: &str) -> Option<Workload> {
        WORKLOADS.into_iter().find(|w| w.name() == s)
    }
}

/// Settings of one workload run.
pub struct Opts {
    pub seed: u64,
    /// Length of the measured window.
    pub secs: f64,
    /// Discarded warm-up before the measured window.
    pub warmup: f64,
    /// Where this run's data directories go; removed when it ends.
    pub data: PathBuf,
    /// Where span files go.
    pub spans: PathBuf,
    ids: AtomicUsize,
}

impl Opts {
    /// A number unique within this process, for scratch names.
    pub fn next_id(&self) -> String {
        format!(
            "{}-{}",
            std::process::id(),
            self.ids.fetch_add(1, Ordering::Relaxed)
        )
    }
}

/// The phases of a measured run: warm-up from `warm_start`, measurement
/// from `start` until `end`.
pub struct Window {
    pub warm_start: Instant,
    pub start: Instant,
    pub end: Instant,
}

impl Window {
    pub fn new(o: &Opts) -> Window {
        let warm_start = Instant::now();
        let start = warm_start + Duration::from_secs_f64(o.warmup);
        Window {
            warm_start,
            start,
            end: start + Duration::from_secs_f64(o.secs),
        }
    }
}

pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Reports the median of the run's setups as `setup_s`.
pub fn median_setup(rep: &mut Report, setups: &[Duration]) {
    let mut s = stats::Samples::new();
    for d in setups {
        s.push(d.as_secs_f64());
    }
    let n = s.len();
    rep.add("setup_s", s.median(), "s", n);
}

struct Args {
    workload: Option<String>,
    seed: u64,
    secs: f64,
    traced: bool,
    json: Option<PathBuf>,
    stability: Option<usize>,
}

const USAGE: &str = "usage: mvperf --workload <churn|admit|exec-partitioned|exec-contended|all> \
--seed <u64> [--seconds <s>] [--trace [0|1]] [--json <path>]\n       mvperf --stability <N> \
[--seed <u64>] [--seconds <s>]";

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: 1,
        secs: DEFAULT_SECONDS,
        traced: false,
        json: None,
        stability: None,
    };
    let mut i = 0;
    let value = |i: usize| {
        argv.get(i + 1)
            .cloned()
            .ok_or_else(|| format!("{} needs a value", argv[i]))
    };
    while i < argv.len() {
        match argv[i].as_str() {
            "--workload" => {
                a.workload = Some(value(i)?);
                i += 1;
            }
            "--seed" => {
                a.seed = value(i)?.parse().map_err(|_| "--seed takes a u64")?;
                i += 1;
            }
            "--seconds" | "--secs" => {
                a.secs = value(i)?
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0 && s.is_finite())
                    .ok_or("--seconds takes a positive number")?;
                i += 1;
            }
            "--trace" => match argv.get(i + 1).map(String::as_str) {
                Some("0") => i += 1,
                Some("1") => {
                    a.traced = true;
                    i += 1;
                }
                _ => a.traced = true,
            },
            "--json" => {
                a.json = Some(PathBuf::from(value(i)?));
                i += 1;
            }
            "--stability" => {
                a.stability = Some(
                    value(i)?
                        .parse()
                        .ok()
                        .filter(|n| *n >= 2)
                        .ok_or("--stability takes a count of at least 2")?,
                );
                i += 1;
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
        i += 1;
    }
    if a.workload.is_none() && a.stability.is_none() {
        return Err("--workload is required".to_string());
    }
    Ok(a)
}

fn repro(workload: &str, a: &Args) -> String {
    format!(
        "cargo run --release --manifest-path mvperf/Cargo.toml -- --workload {workload} --seed {} \
         --seconds {}{}",
        a.seed,
        a.secs,
        if a.traced { " --trace 1" } else { "" }
    )
}

/// Runs one workload in this process.
fn run_one(w: Workload, a: &Args, o: &Opts) -> Result<Report, String> {
    let mut rep = Report::default();
    let exec_pop = match w {
        Workload::Churn => {
            service::churn(o, &mut rep)?;
            None
        }
        Workload::Admit => {
            service::admit(o, &mut rep)?;
            None
        }
        Workload::ExecPartitioned => Some(exec::run(gen::Mix::Partitioned, o, &mut rep)?),
        Workload::ExecContended => Some(exec::run(gen::Mix::Contended, o, &mut rep)?),
    };
    if a.traced {
        let primary = match w {
            Workload::Admit => layers::Primary::Instantiate,
            _ => layers::Primary::Mutation,
        };
        let client_rtt = match w {
            Workload::Churn | Workload::Admit => rep.get("p50_us").map(|m| m.value),
            _ => None,
        };
        let exec_txns = exec_pop.as_ref().map(|p| p.txns.clone());
        let seed = o.seed;
        let make = || gen::layer_script(seed, exec_txns.as_ref());
        let live = layers::service(o, w.name(), make, primary, client_rtt, &mut rep)?;
        exec::layers(exec_pop.as_ref().unwrap_or(&live), o.seed, &mut rep)?;
    }
    Ok(rep)
}

/// Settings of a run of `a`, writing under `.mvperf-run/` in the working
/// directory so that a run touches nothing outside its checkout.
fn opts(a: &Args) -> Result<Opts, String> {
    let spans = std::env::current_dir()
        .map_err(|e| e.to_string())?
        .join(".mvperf-run");
    let data = spans.join(format!("data-{}", std::process::id()));
    std::fs::create_dir_all(&data).map_err(|e| format!("{}: {e}", data.display()))?;
    Ok(Opts {
        seed: a.seed,
        secs: a.secs,
        warmup: (a.secs / 5.0).clamp(1.0, 3.0),
        data,
        spans,
        ids: AtomicUsize::new(0),
    })
}

fn single(w: Workload, a: &Args) -> ExitCode {
    let cmd = repro(w.name(), a);
    let cpus = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!("# {} seed {}: {cpus} logical CPUs", w.name(), a.seed);
    let run = opts(a).and_then(|o| {
        let rep = run_one(w, a, &o);
        let _ = std::fs::remove_dir_all(&o.data);
        // Gone unless a traced run left its span file there.
        let _ = std::fs::remove_dir(&o.spans);
        rep
    });
    let rep = match run {
        Ok(rep) => rep,
        Err(e) => {
            eprintln!("mvperf: {} failed: {e}\nrepro: {cmd}", w.name());
            return ExitCode::FAILURE;
        }
    };
    rep.print(w.name());
    for v in &rep.violations {
        println!("{} FAIL {v}", w.name());
    }
    let result = match rep.result(a.traced) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("mvperf: {}: {e}\nrepro: {cmd}", w.name());
            return ExitCode::FAILURE;
        }
    };
    if let Some(path) = &a.json {
        let text = serde_json::to_string_pretty(&result).expect("result encodes");
        if let Err(e) = std::fs::write(path, text) {
            eprintln!("mvperf: writing {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    }
    if !rep.correct() {
        println!("repro: {cmd}");
    }
    println!(
        "{}",
        serde_json::to_string(&result).expect("result encodes")
    );
    if rep.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Runs one workload in a child process (so its peak RSS is its own),
/// echoing its output; returns its result object.
fn child(w: Workload, seed: u64, a: &Args, echo: bool) -> Result<Value, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", w.name(), "--seed", &seed.to_string()])
        .args(["--seconds", &a.secs.to_string()])
        .args(["--trace", if a.traced { "1" } else { "0" }])
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit());
    let mut proc = cmd.spawn().map_err(|e| e.to_string())?;
    let stdout = proc.stdout.take().expect("piped stdout");
    let mut last = String::new();
    for line in BufReader::new(stdout).lines() {
        let line = line.map_err(|e| e.to_string())?;
        if echo {
            println!("{line}");
        }
        last = line;
    }
    let status = proc.wait().map_err(|e| e.to_string())?;
    let result: Value = serde_json::from_str(&last)
        .map_err(|_| format!("{} (seed {seed}) printed no result; {status}", w.name()))?;
    if !status.success() {
        return Err(format!("{} (seed {seed}) exited with {status}", w.name()));
    }
    Ok(result)
}

fn all(a: &Args) -> ExitCode {
    let mut metrics = Map::new();
    let (mut correct, mut attempted, mut failed) = (true, 0u64, 0u64);
    let mut ok = true;
    for w in WORKLOADS {
        match child(w, a.seed, a, true) {
            Ok(r) => {
                correct &= r["correct"] == true;
                attempted += r["attempted"].as_u64().unwrap_or(0);
                failed += r["failed"].as_u64().unwrap_or(0);
                if let Some(m) = r["metrics"].as_object() {
                    for (k, v) in m.iter() {
                        metrics.insert(format!("{}.{k}", w.name()), v.clone());
                    }
                }
            }
            Err(e) => {
                eprintln!("mvperf: {e}\nrepro: {}", repro(w.name(), a));
                ok = false;
            }
        }
    }
    let result = json!({
        "correct": correct && ok,
        "attempted": attempted.max(1),
        "failed": failed,
        "metrics": Value::Object(metrics),
    });
    if let Some(path) = &a.json {
        let text = serde_json::to_string_pretty(&result).expect("result encodes");
        if let Err(e) = std::fs::write(path, text) {
            eprintln!("mvperf: writing {}: {e}", path.display());
            ok = false;
        }
    }
    println!(
        "{}",
        serde_json::to_string(&result).expect("result encodes")
    );
    if ok && correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Runs every workload `n` times, alternating the workload order, each
/// time with the next seed; prints each end-to-end metric's median and
/// quartiles, and flags every metric whose quartile spread exceeds its
/// bound.
fn stability(n: usize, a: &Args) -> ExitCode {
    let mut values: Vec<Vec<Vec<f64>>> = vec![vec![Vec::new(); END_TO_END.len()]; WORKLOADS.len()];
    let mut ok = true;
    for rep in 0..n {
        let mut order: Vec<usize> = (0..WORKLOADS.len()).collect();
        if rep % 2 == 1 {
            order.reverse();
        }
        let seed = a.seed.wrapping_add(rep as u64);
        for wi in order {
            let w = WORKLOADS[wi];
            match child(w, seed, a, false) {
                Ok(r) => {
                    let line: Vec<String> = END_TO_END
                        .iter()
                        .enumerate()
                        .map(|(mi, m)| {
                            let v = r["metrics"][m.name]["value"].as_f64().unwrap_or(f64::NAN);
                            values[wi][mi].push(v);
                            format!("{}={}", m.name, report::fmt_value(v))
                        })
                        .collect();
                    println!("run {rep} {} seed {seed}: {}", w.name(), line.join(" "));
                }
                Err(e) => {
                    eprintln!("mvperf: {e}\nrepro: {}", repro(w.name(), a));
                    ok = false;
                }
            }
        }
    }
    println!("\nworkload metric better median q1 q3 spread bound");
    let mut flagged = 0;
    for (wi, w) in WORKLOADS.iter().enumerate() {
        for (mi, m) in END_TO_END.iter().enumerate() {
            let Some((q1, med, q3)) = stats::quartiles(&values[wi][mi]) else {
                continue;
            };
            let spread = (q3 - q1) / med;
            let flag = if spread > m.bound {
                flagged += 1;
                " FLAG"
            } else {
                ""
            };
            println!(
                "{} {} {} {} {} {} {:.4} {}{flag}",
                w.name(),
                m.name,
                m.better.as_str(),
                report::fmt_value(med),
                report::fmt_value(q1),
                report::fmt_value(q3),
                spread,
                m.bound
            );
        }
    }
    println!("{flagged} (workload, metric) pairs spread wider than their bound");
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let a = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("mvperf: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Some(n) = a.stability {
        return stability(n, &a);
    }
    match a.workload.as_deref() {
        Some("all") => all(&a),
        Some(name) => match Workload::parse(name) {
            Some(w) => single(w, &a),
            None => {
                eprintln!("mvperf: unknown workload `{name}`\n{USAGE}");
                ExitCode::from(2)
            }
        },
        None => unreachable!("parse_args requires a workload"),
    }
}
