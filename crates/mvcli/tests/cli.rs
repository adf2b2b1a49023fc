//! End-to-end tests of the `mvrobust` binary.

use std::io::{BufRead, BufReader, Read, Write};
use std::process::{Child, Command, Stdio};

const SKEW: &str = "T1: R[x] W[y]\nT2: R[y] W[x]\n";
const DISJOINT: &str = "T1: R[x] W[x]\nT2: R[y] W[y]\n";

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_mvrobust"))
}

fn run_with_stdin(args: &[&str], stdin: &str) -> (String, String, i32) {
    let mut child = bin()
        .args(args)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn mvrobust");
    child
        .stdin
        .as_mut()
        .expect("stdin piped")
        .write_all(stdin.as_bytes())
        .expect("write stdin");
    let out = child.wait_with_output().expect("wait");
    (
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
        out.status.code().unwrap_or(-1),
    )
}

#[test]
fn check_detects_write_skew() {
    let (stdout, _, code) = run_with_stdin(&["check", "--level", "si"], SKEW);
    assert_eq!(code, 1);
    assert!(stdout.contains("NOT ROBUST"));
    assert!(stdout.contains("split T1"));
}

#[test]
fn check_robust_exit_zero() {
    let (stdout, _, code) = run_with_stdin(&["check", "--level", "ssi"], SKEW);
    assert_eq!(code, 0);
    assert!(stdout.contains("ROBUST"));
}

#[test]
fn check_json_shape() {
    let (stdout, _, code) = run_with_stdin(&["check", "--level", "si", "--json"], SKEW);
    assert_eq!(code, 1);
    let j: serde_json::Value = serde_json::from_str(&stdout).expect("valid json");
    assert_eq!(j["robust"], false);
    assert_eq!(j["transactions"], 2);
    assert_eq!(j["counterexample"]["chain"][0], "T2");
}

#[test]
fn check_mixed_allocation() {
    let (stdout, _, code) = run_with_stdin(&["check", "--alloc", "T1=SSI T2=SSI"], SKEW);
    assert_eq!(code, 0, "{stdout}");
}

#[test]
fn allocate_finds_optimum() {
    let (stdout, _, code) = run_with_stdin(&["allocate"], DISJOINT);
    assert_eq!(code, 0);
    assert!(stdout.contains("T1=RC T2=RC"), "{stdout}");
}

#[test]
fn allocate_rc_si_not_allocatable_for_skew() {
    let (stdout, _, code) = run_with_stdin(&["allocate", "--levels", "rc-si"], SKEW);
    assert_eq!(code, 1);
    assert!(stdout.contains("NOT ALLOCATABLE"));
}

#[test]
fn allocate_explain_json() {
    let (stdout, _, code) = run_with_stdin(&["allocate", "--explain", "--json"], SKEW);
    assert_eq!(code, 0);
    let j: serde_json::Value = serde_json::from_str(&stdout).expect("valid json");
    assert_eq!(j["allocation"], "T1=SSI T2=SSI");
    assert_eq!(j["counts"]["SSI"], 2);
    assert!(!j["reasons"].as_array().unwrap().is_empty());
}

#[test]
fn allocate_json_reports_engine_stats() {
    let (stdout, _, code) = run_with_stdin(&["allocate", "--json"], SKEW);
    assert_eq!(code, 0);
    let j: serde_json::Value = serde_json::from_str(&stdout).expect("valid json");
    let stats = &j["engine_stats"];
    assert_eq!(stats["threads"], 1);
    assert!(stats["probes"].as_u64().unwrap() >= 1);
    // All four lowering attempts fail; the ones not probed hit the cache.
    assert!(stats["probes"].as_u64().unwrap() + stats["cache_hits"].as_u64().unwrap() >= 4);
    assert!(stats["cached_specs"].as_u64().unwrap() >= 1);
    assert!(stats["wall_ms"].as_f64().unwrap() >= 0.0);
}

#[test]
fn threads_flag_does_not_change_verdicts() {
    let (baseline, _, code) = run_with_stdin(&["allocate"], SKEW);
    assert_eq!(code, 0);
    let (threaded, _, code) = run_with_stdin(&["allocate", "--threads", "4"], SKEW);
    assert_eq!(code, 0);
    assert_eq!(baseline, threaded);
    let (_, stderr, code) = run_with_stdin(&["check", "--level", "si", "--threads", "0"], SKEW);
    assert_eq!(code, 2, "{stderr}");
    assert!(stderr.contains("--threads must be at least 1"));
}

#[test]
fn witness_prints_verified_schedule() {
    let (stdout, _, code) = run_with_stdin(&["witness", "--level", "si"], SKEW);
    assert_eq!(code, 1);
    assert!(stdout.contains("witness schedule"));
    assert!(stdout.contains("v(R1[x]) = op0"));
}

#[test]
fn witness_json_verified() {
    let (stdout, _, code) = run_with_stdin(&["witness", "--level", "si", "--json"], SKEW);
    assert_eq!(code, 1);
    let j: serde_json::Value = serde_json::from_str(&stdout).expect("valid json");
    assert_eq!(j["verified"], true);
    assert!(j["schedule"].as_str().unwrap().contains("C1"));
}

#[test]
fn simulate_optimal_runs() {
    let (stdout, _, code) = run_with_stdin(
        &[
            "simulate",
            "--optimal",
            "--repeat",
            "2",
            "--seed",
            "1",
            "--json",
        ],
        SKEW,
    );
    assert_eq!(code, 0);
    let j: serde_json::Value = serde_json::from_str(&stdout).expect("valid json");
    assert_eq!(j["serializable_runs"], 2);
    assert_eq!(j["allowed_runs"], 2);
}

#[test]
fn simulate_conservative_mode() {
    let (stdout, _, code) = run_with_stdin(
        &[
            "simulate",
            "--level",
            "ssi",
            "--ssi-mode",
            "conservative",
            "--json",
        ],
        SKEW,
    );
    assert_eq!(code, 0, "{stdout}");
}

#[test]
fn simulate_allocate_full_pipeline() {
    // --allocate: optimal allocation, execution, and per-run conformance
    // validation in one invocation.
    let (stdout, stderr, code) = run_with_stdin(
        &[
            "simulate",
            "--allocate",
            "--repeat",
            "3",
            "--seed",
            "2",
            "--json",
        ],
        SKEW,
    );
    assert_eq!(code, 0, "{stderr}");
    let j: serde_json::Value = serde_json::from_str(&stdout).expect("valid json");
    assert_eq!(j["allocated"], true);
    assert_eq!(j["allocation"], "T1=SSI T2=SSI");
    assert_eq!(j["serializable_runs"], 3);
    assert_eq!(j["allowed_runs"], 3);
    assert!(j["conformance_violations"].as_array().unwrap().is_empty());
    // Both write-skew partners sit at SSI, so the other levels are idle.
    assert!(j["per_level"]["SSI"]["commits"].as_u64().unwrap() >= 3);
    assert_eq!(j["per_level"]["RC"]["commits"], 0);
    assert_eq!(j["per_level"]["SI"]["commits"], 0);
}

#[test]
fn simulate_allocate_text_table_and_level_menu() {
    let (stdout, _, code) = run_with_stdin(&["simulate", "--allocate"], DISJOINT);
    assert_eq!(code, 0, "{stdout}");
    assert!(stdout.contains("allocation: T1=RC T2=RC"), "{stdout}");
    assert!(stdout.contains("level  commits"), "{stdout}");
    // Write skew has no robust {RC, SI} allocation: exit 1 with guidance.
    let (_, stderr, code) = run_with_stdin(&["simulate", "--allocate", "--levels", "rc-si"], SKEW);
    assert_eq!(code, 1);
    assert!(stderr.contains("no robust {RC, SI} allocation"), "{stderr}");
    // But the disjoint workload allocates fine over the reduced menu.
    let (stdout, _, code) =
        run_with_stdin(&["simulate", "--allocate", "--levels", "rc-si"], DISJOINT);
    assert_eq!(code, 0, "{stdout}");
    assert!(stdout.contains("T1=RC T2=RC"), "{stdout}");
}

#[test]
fn simulate_reports_wall_clock() {
    let (stdout, _, code) = run_with_stdin(&["simulate", "--optimal", "--json"], SKEW);
    assert_eq!(code, 0);
    let j: serde_json::Value = serde_json::from_str(&stdout).expect("valid json");
    assert_eq!(j["threads"], 1);
    assert!(j["elapsed_ms"].as_f64().unwrap() > 0.0);
    assert!(j["txns_per_sec"].as_f64().unwrap() > 0.0);
    let (stdout, _, code) = run_with_stdin(&["simulate", "--optimal"], SKEW);
    assert_eq!(code, 0);
    assert!(stdout.contains("txns/sec:"), "{stdout}");
}

#[test]
fn simulate_threads_routes_to_parallel_engine() {
    // --allocate --threads: allocation search and execution both run
    // multi-threaded; every run's trace still passes the conformance
    // contract (validated in-process, exit 0).
    let (stdout, stderr, code) = run_with_stdin(
        &[
            "simulate",
            "--allocate",
            "--threads",
            "4",
            "--repeat",
            "3",
            "--json",
        ],
        SKEW,
    );
    assert_eq!(code, 0, "{stderr}");
    let j: serde_json::Value = serde_json::from_str(&stdout).expect("valid json");
    assert_eq!(j["threads"], 4);
    assert_eq!(j["allocation"], "T1=SSI T2=SSI");
    assert_eq!(j["serializable_runs"], 3);
    assert_eq!(j["allowed_runs"], 3);
    assert!(j["conformance_violations"].as_array().unwrap().is_empty());
    // Unbounded retries commit every instance in every run.
    assert_eq!(j["commits"], 6);
    assert!(j["txns_per_sec"].as_f64().unwrap() > 0.0);

    let (_, stderr, code) = run_with_stdin(&["simulate", "--optimal", "--threads", "0"], SKEW);
    assert_eq!(code, 2);
    assert!(stderr.contains("--threads must be at least 1"));
}

#[test]
fn simulate_allocate_is_exclusive_with_manual_allocations() {
    for conflicting in [
        vec!["simulate", "--allocate", "--optimal"],
        vec!["simulate", "--allocate", "--level", "si"],
        vec!["simulate", "--allocate", "--alloc", "T1=RC T2=RC"],
    ] {
        let (_, stderr, code) = run_with_stdin(&conflicting, SKEW);
        assert_eq!(code, 2, "{conflicting:?}");
        assert!(stderr.contains("mutually exclusive"), "{stderr}");
    }
}

#[test]
fn usage_errors() {
    let (_, stderr, code) = run_with_stdin(&["frobnicate"], "");
    assert_eq!(code, 2);
    assert!(stderr.contains("unknown command"));
    let (_, stderr, code) = run_with_stdin(&["check"], SKEW);
    assert_eq!(code, 2);
    assert!(stderr.contains("required"));
    let (_, stderr, code) = run_with_stdin(&["check", "--level", "chaos"], SKEW);
    assert_eq!(code, 2);
    assert!(!stderr.is_empty());
    let (_, stderr, code) = run_with_stdin(&["check", "--level", "si"], "");
    assert_eq!(code, 2);
    assert!(stderr.contains("no transactions"));
}

#[test]
fn help_exits_zero() {
    let (_, stderr, code) = run_with_stdin(&["help"], "");
    assert_eq!(code, 0);
    assert!(stderr.contains("USAGE"));
}

#[test]
fn analyze_text_and_json() {
    let (stdout, _, code) = run_with_stdin(&["analyze"], SKEW);
    assert_eq!(code, 0);
    assert!(stdout.contains("vulnerable"));
    assert!(stdout.contains("no {RC, SI} allocation"));
    let (stdout, _, code) = run_with_stdin(&["analyze", "--json"], SKEW);
    assert_eq!(code, 0);
    let j: serde_json::Value = serde_json::from_str(&stdout).expect("valid json");
    assert_eq!(j["robust_si"], false);
    assert_eq!(j["static_sdg_certified"], false);
    assert_eq!(j["optimal_counts"]["SSI"], 2);
    assert_eq!(j["watch_list"].as_array().unwrap().len(), 2);
}

#[test]
fn analyze_disjoint_workload() {
    let (stdout, _, code) = run_with_stdin(&["analyze", "--json"], DISJOINT);
    assert_eq!(code, 0);
    let j: serde_json::Value = serde_json::from_str(&stdout).expect("valid json");
    assert_eq!(j["robust_rc"], true);
    assert_eq!(j["optimal_counts"]["RC"], 2);
    assert_eq!(j["optimal_rc_si"], "T1=RC T2=RC");
}

#[test]
fn allocate_rejects_unknown_level_set() {
    let (_, stderr, code) = run_with_stdin(&["allocate", "--levels", "rc-only"], SKEW);
    assert_eq!(code, 2);
    assert!(stderr.contains("unknown level set"), "{stderr}");
    assert!(stderr.contains("rc-si, rc-si-ssi"), "{stderr}");
    let (_, stderr, code) = run_with_stdin(&["serve", "--levels", "everything"], "");
    assert_eq!(code, 2);
    assert!(stderr.contains("rc-si, rc-si-ssi"), "{stderr}");
}

/// Spawns `mvrobust serve --addr 127.0.0.1:0` and reads the resolved
/// address from its first stdout line. The returned reader must stay
/// alive until the server exits — closing the pipe early would kill the
/// server with SIGPIPE on its shutdown message.
fn spawn_server(extra: &[&str]) -> (Child, String, BufReader<std::process::ChildStdout>, String) {
    let mut child = bin()
        .args(["serve", "--addr", "127.0.0.1:0"])
        .args(extra)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn mvrobust serve");
    let stdout = child.stdout.take().expect("stdout piped");
    let mut reader = BufReader::new(stdout);
    let mut line = String::new();
    reader.read_line(&mut line).expect("read listening line");
    let addr = line
        .strip_prefix("listening on ")
        .unwrap_or_else(|| panic!("unexpected banner: {line:?}"))
        .split_whitespace()
        .next()
        .expect("address token")
        .to_string();
    (child, addr, reader, line)
}

fn client(addr: &str, args: &[&str]) -> (String, String, i32) {
    let mut full = vec!["client"];
    full.extend_from_slice(args);
    full.extend_from_slice(&["--addr", addr]);
    run_with_stdin(&full, "")
}

#[test]
fn serve_and_client_round_trip() {
    let (mut server, addr, mut server_out, _) = spawn_server(&[]);

    let (stdout, stderr, code) = client(&addr, &["ping"]);
    assert_eq!(code, 0, "{stderr}");
    assert!(stdout.contains("pong"));

    let (stdout, stderr, code) = client(&addr, &["register", "T1: R[x] W[y]"]);
    assert_eq!(code, 0, "{stderr}");
    assert!(stdout.contains("registered T1"), "{stdout}");
    let (_, _, code) = client(&addr, &["register", "T2: R[y] W[x]"]);
    assert_eq!(code, 0);

    // Write skew: both partners need SSI under the full menu.
    let (stdout, _, code) = client(&addr, &["assign", "T1"]);
    assert_eq!(code, 0);
    assert_eq!(stdout.trim(), "SSI");

    let (stdout, _, code) = client(&addr, &["stats", "--json"]);
    assert_eq!(code, 0);
    let j: serde_json::Value = serde_json::from_str(&stdout).expect("valid json");
    assert_eq!(j["registry_size"], 2);
    assert_eq!(j["levels"], "rc-si-ssi");

    // Structured server errors exit 1, not 2.
    let (_, stderr, code) = client(&addr, &["assign", "T9"]);
    assert_eq!(code, 1);
    assert!(stderr.contains("server error"), "{stderr}");

    let (_, _, code) = client(&addr, &["shutdown"]);
    assert_eq!(code, 0);
    let status = server.wait().expect("server exit");
    assert_eq!(status.code(), Some(0));
    let mut rest = String::new();
    server_out.read_to_string(&mut rest).expect("drain stdout");
    assert!(rest.contains("shut down cleanly"), "{rest}");
}

#[test]
fn serve_and_client_template_fast_path() {
    let (mut server, addr, _server_out, _) = spawn_server(&[]);

    let (stdout, stderr, code) = client(
        &addr,
        &["template", "register", "Balance: R[sav:$0] R[chk:$0]"],
    );
    assert_eq!(code, 0, "{stderr}");
    assert!(stdout.contains("template 0 registered"), "{stdout}");

    // Fast-path admission: O(1), any u32 parameter.
    let (stdout, stderr, code) = client(&addr, &["instantiate", "0", "7"]);
    assert_eq!(code, 0, "{stderr}");
    assert!(stdout.contains("admitted at"), "{stdout}");
    let (stdout, _, code) = client(&addr, &["instantiate", "0", "4000000000", "--json"]);
    assert_eq!(code, 0);
    let j: serde_json::Value = serde_json::from_str(&stdout).expect("valid json");
    assert_eq!(j["instances"], 2);

    let (stdout, _, code) = client(&addr, &["template", "list"]);
    assert_eq!(code, 0);
    assert!(stdout.contains("Balance: R[sav:$0] R[chk:$0]"), "{stdout}");
    assert!(stdout.contains("2 instances"), "{stdout}");

    // A malformed instantiation is a structured server error (exit 1),
    // never a dropped connection or a server panic.
    let (_, stderr, code) = client(&addr, &["instantiate", "9"]);
    assert_eq!(code, 1, "{stderr}");
    assert!(stderr.contains("server error"), "{stderr}");
    let (_, stderr, code) = client(&addr, &["instantiate", "0", "1", "2"]);
    assert_eq!(code, 1, "{stderr}");
    assert!(stderr.contains("server error"), "{stderr}");

    // Template instances never touch the engine: the transaction
    // registry is still empty.
    let (stdout, _, code) = client(&addr, &["stats", "--json"]);
    assert_eq!(code, 0);
    let j: serde_json::Value = serde_json::from_str(&stdout).expect("valid json");
    assert_eq!(j["registry_size"], 0);
    assert_eq!(j["templates"], 1);
    assert_eq!(j["instances"], 2);
    assert_eq!(j["admission"]["fast_path"], 2);

    let (_, _, code) = client(&addr, &["shutdown"]);
    assert_eq!(code, 0);
    let status = server.wait().expect("server exit");
    assert_eq!(status.code(), Some(0));
}

#[test]
fn serve_rc_si_mode_rejects_unallocatable_registration() {
    let (mut server, addr, _server_out, _) = spawn_server(&["--levels", "rc-si"]);
    let (_, _, code) = client(&addr, &["register", "T1: R[x] W[y]"]);
    assert_eq!(code, 0);
    // The write-skew partner has no robust {RC, SI} allocation.
    let (_, stderr, code) = client(&addr, &["register", "T2: R[y] W[x]"]);
    assert_eq!(code, 1);
    assert!(stderr.contains("rc-si"), "{stderr}");
    // The rollback kept the registry serving.
    let (stdout, _, code) = client(&addr, &["assign", "T1"]);
    assert_eq!(code, 0);
    assert_eq!(stdout.trim(), "RC");
    let (_, _, code) = client(&addr, &["shutdown"]);
    assert_eq!(code, 0);
    server.wait().expect("server exit");
}

#[test]
fn serve_and_client_round_trip_over_the_binary_codec() {
    let (mut server, addr, mut server_out, banner) = spawn_server(&[]);
    assert!(banner.contains("codec auto"), "{banner}");

    // Register over binary frames, read back over line-JSON: the codec
    // is per-connection wire framing, not state.
    let (stdout, stderr, code) = client(&addr, &["register", "T1: R[x] W[y]", "--codec", "binary"]);
    assert_eq!(code, 0, "{stderr}");
    assert!(stdout.contains("registered T1"), "{stdout}");
    let (_, stderr, code) = client(&addr, &["register", "T2: R[y] W[x]", "--codec", "binary"]);
    assert_eq!(code, 0, "{stderr}");
    let (stdout, _, code) = client(&addr, &["assign", "T1", "--codec", "line"]);
    assert_eq!(code, 0);
    assert_eq!(stdout.trim(), "SSI");
    let (stdout, _, code) = client(&addr, &["assign", "T1", "--codec", "binary"]);
    assert_eq!(code, 0);
    assert_eq!(stdout.trim(), "SSI");

    // The retry client speaks frames too.
    let (stdout, stderr, code) = client(
        &addr,
        &["stats", "--json", "--codec", "binary", "--retries", "2"],
    );
    assert_eq!(code, 0, "{stderr}");
    let j: serde_json::Value = serde_json::from_str(&stdout).expect("valid json");
    assert_eq!(j["registry_size"], 2);
    assert!(j["codec_frame"].as_u64().unwrap() > 0, "{j}");
    assert!(j["codec_line"].as_u64().unwrap() > 0, "{j}");

    let (_, _, code) = client(&addr, &["shutdown", "--codec", "binary"]);
    assert_eq!(code, 0);
    let status = server.wait().expect("server exit");
    assert_eq!(status.code(), Some(0));
    // The shutdown summary reports connection and per-codec counters.
    let mut rest = String::new();
    server_out.read_to_string(&mut rest).expect("drain stdout");
    assert!(rest.contains("served "), "{rest}");
    assert!(rest.contains("binary"), "{rest}");
    assert!(rest.contains("shut down cleanly"), "{rest}");
}

#[test]
fn serve_codec_flags_validate() {
    // Bad values are usage errors (exit 2) with actionable messages.
    let (_, stderr, code) = run_with_stdin(&["serve", "--codec", "morse"], "");
    assert_eq!(code, 2);
    assert!(stderr.contains("invalid --codec"), "{stderr}");
    // `--core` is not an option: the event loop is the only core.
    let (_, stderr, code) = run_with_stdin(&["serve", "--core", "threaded"], "");
    assert_eq!(code, 2);
    assert!(stderr.contains("unknown option --core"), "{stderr}");
    let (_, stderr, code) = run_with_stdin(&["client", "ping", "--codec", "morse"], "");
    assert_eq!(code, 2);
    assert!(stderr.contains("invalid --codec"), "{stderr}");
}

#[test]
fn client_against_unreachable_server_fails_cleanly() {
    // Reserve a port, then close it: nothing is listening there.
    let dead = {
        let l = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
        l.local_addr().expect("addr").to_string()
    };
    let (stdout, stderr, code) = client(&dead, &["ping"]);
    assert_eq!(code, 2, "{stderr}");
    assert!(stdout.is_empty(), "{stdout}");
    // One actionable line, no stack trace or panic spew.
    assert_eq!(stderr.trim().lines().count(), 1, "{stderr}");
    assert!(stderr.contains(&dead), "{stderr}");
    assert!(stderr.contains("is `mvrobust serve` running?"), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert!(!stderr.contains("RUST_BACKTRACE"), "{stderr}");

    // The retry client path fails the same way after its retries.
    let (_, stderr, code) = client(&dead, &["ping", "--retries", "1", "--backoff-ms", "1"]);
    assert_eq!(code, 2, "{stderr}");
    assert_eq!(stderr.trim().lines().count(), 1, "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
}

#[test]
fn client_against_server_dying_mid_handshake_fails_cleanly() {
    // A fake server that accepts the connection and immediately drops it
    // — the client sees EOF before any reply line.
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr").to_string();
    let accepter = std::thread::spawn(move || {
        for stream in listener.incoming().take(2) {
            drop(stream);
        }
    });
    let (stdout, stderr, code) = client(&addr, &["register", "T1: R[x]"]);
    assert_eq!(code, 2, "{stderr}");
    assert!(stdout.is_empty(), "{stdout}");
    assert_eq!(stderr.trim().lines().count(), 1, "{stderr}");
    assert!(stderr.contains(&addr), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
    // Second accept slot: the retry path also ends in one clean line.
    let (_, stderr, code) = client(&addr, &["ping", "--retries", "0"]);
    assert_eq!(code, 2, "{stderr}");
    assert_eq!(stderr.trim().lines().count(), 1, "{stderr}");
    accepter.join().expect("accepter");
}

#[test]
fn serve_fault_plan_announced_and_survivable_with_retries() {
    let (mut server, addr, _server_out, banner) =
        spawn_server(&["--fault-plan", "seed=7,drop=0.4,budget=4"]);
    assert!(banner.contains("fault injection"), "{banner}");
    assert!(banner.contains("drop=0.4"), "{banner}");
    // Retries + idempotent request ids ride out the injected drops.
    let retry = ["--retries", "8", "--backoff-ms", "1", "--seed", "3"];
    let with_retry = |args: &[&str]| {
        let mut full = args.to_vec();
        full.extend_from_slice(&retry);
        client(&addr, &full)
    };
    let (stdout, stderr, code) = with_retry(&["register", "T1: R[x] W[y]"]);
    assert_eq!(code, 0, "{stderr}");
    assert!(stdout.contains("registered T1"), "{stdout}");
    let (stdout, stderr, code) = with_retry(&["stats", "--json"]);
    assert_eq!(code, 0, "{stderr}");
    let j: serde_json::Value = serde_json::from_str(&stdout).expect("valid json");
    assert_eq!(j["registry_size"], 1);
    let (_, stderr, code) = with_retry(&["shutdown"]);
    assert_eq!(code, 0, "{stderr}");
    server.wait().expect("server exit");
}

#[test]
fn serve_rejects_malformed_fault_plan() {
    let (_, stderr, code) = run_with_stdin(&["serve", "--fault-plan", "drop=1.5"], "");
    assert_eq!(code, 2);
    assert!(stderr.contains("invalid --fault-plan"), "{stderr}");
    let (_, stderr, code) = run_with_stdin(&["serve", "--fault-plan", "gremlins=yes"], "");
    assert_eq!(code, 2);
    assert!(stderr.contains("invalid --fault-plan"), "{stderr}");
}

/// A scratch data directory, removed on drop.
struct TempDir(std::path::PathBuf);

impl TempDir {
    fn new(tag: &str) -> TempDir {
        let dir = std::env::temp_dir().join(format!("mvrobust-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create temp dir");
        TempDir(dir)
    }
    fn path(&self) -> &str {
        self.0.to_str().expect("utf-8 temp path")
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

#[test]
fn serve_survives_kill_dash_nine_with_identical_state() {
    let data = TempDir::new("kill9");
    let durable = ["--data-dir", data.path(), "--snapshot-every", "4"];

    let (mut server, addr, _out, banner) = spawn_server(&durable);
    assert!(banner.contains("durable:"), "{banner}");
    assert!(banner.contains("fsync=batch"), "{banner}");

    // Two tenants: write skew in the default namespace, a lost-update
    // pair in `acme`.
    for line in ["T1: R[x] W[y]", "T2: R[y] W[x]"] {
        let (_, stderr, code) = client(&addr, &["register", line]);
        assert_eq!(code, 0, "{stderr}");
    }
    for line in ["T1: R[z] W[z]", "T2: R[z] W[z]", "T3: W[q]"] {
        let (_, stderr, code) = client(&addr, &["register", line, "--tenant", "acme"]);
        assert_eq!(code, 0, "{stderr}");
    }
    let (before_default, _, code) = client(&addr, &["list", "--json"]);
    assert_eq!(code, 0);
    let (before_acme, _, code) = client(&addr, &["list", "--json", "--tenant", "acme"]);
    assert_eq!(code, 0);

    // SIGKILL: no shutdown handler runs, no buffer is flushed — the
    // only surviving state is what the store already made durable.
    server.kill().expect("kill -9 the server");
    server.wait().expect("reap");

    let (mut server, addr, _out, banner) = spawn_server(&durable);
    assert!(banner.contains("durable:"), "{banner}");

    let (after_default, _, code) = client(&addr, &["list", "--json"]);
    assert_eq!(code, 0);
    assert_eq!(
        before_default, after_default,
        "default tenant state must survive kill -9"
    );
    let (after_acme, _, code) = client(&addr, &["list", "--json", "--tenant", "acme"]);
    assert_eq!(code, 0);
    assert_eq!(
        before_acme, after_acme,
        "acme tenant state must survive kill -9"
    );

    // The recovered allocation answers assigns exactly as before.
    let (stdout, _, code) = client(&addr, &["assign", "T1"]);
    assert_eq!(code, 0);
    assert_eq!(stdout.trim(), "SSI");
    let (stdout, _, code) = client(&addr, &["assign", "T1", "--tenant", "acme"]);
    assert_eq!(code, 0);
    assert_eq!(stdout.trim(), "SI");

    // Stats surface the recovery record and both tenants.
    let (stdout, _, code) = client(&addr, &["stats", "--json"]);
    assert_eq!(code, 0);
    let j: serde_json::Value = serde_json::from_str(&stdout).expect("valid json");
    assert_eq!(j["tenants"], 2, "{j}");
    assert_eq!(j["durability"]["policy"], "batch", "{j}");
    assert!(
        j["durability"]["recovery"]["wal_records_replayed"]
            .as_u64()
            .unwrap()
            + j["durability"]["recovery"]["snapshot_tenants"]
                .as_u64()
                .unwrap()
            > 0,
        "recovery must have replayed the log or loaded a snapshot: {j}"
    );

    let (_, _, code) = client(&addr, &["shutdown"]);
    assert_eq!(code, 0);
    server.wait().expect("server exit");
}

#[test]
fn serve_durability_flags_validate() {
    let (_, stderr, code) = run_with_stdin(&["serve", "--durability", "batch"], "");
    assert_eq!(code, 2);
    assert!(stderr.contains("need --data-dir"), "{stderr}");
    let (_, stderr, code) = run_with_stdin(&["serve", "--snapshot-every", "8"], "");
    assert_eq!(code, 2);
    assert!(stderr.contains("need --data-dir"), "{stderr}");
    let data = TempDir::new("badpolicy");
    let (_, stderr, code) = run_with_stdin(
        &[
            "serve",
            "--data-dir",
            data.path(),
            "--durability",
            "paranoid",
        ],
        "",
    );
    assert_eq!(code, 2);
    assert!(stderr.contains("invalid --durability"), "{stderr}");
}

#[test]
fn witness_dot_output() {
    let (stdout, _, code) = run_with_stdin(&["witness", "--level", "si", "--dot"], SKEW);
    assert_eq!(code, 1);
    assert!(stdout.contains("digraph SeG {"));
    assert!(stdout.contains("style=dashed"));
    let (stdout, _, _) = run_with_stdin(&["witness", "--level", "si", "--dot", "--json"], SKEW);
    let j: serde_json::Value = serde_json::from_str(&stdout).expect("valid json");
    assert!(j["dot"].as_str().unwrap().contains("digraph"));
}
