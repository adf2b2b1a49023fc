//! End-to-end test over a real TCP socket: a server thread serves the
//! SmallBank workload; a client registers every transaction, asserts
//! the served assignments equal `Allocator::optimal` on the same set,
//! mutates the workload, and asserts the reassignments match a fresh
//! full recomputation. Also exercises the protocol's error handling
//! (bad input never drops the connection) and graceful shutdown.

use mvmodel::fmt as mvfmt;
use mvrobustness::Allocator;
use mvservice::{
    Client, ClientError, CodecKind, Config, FaultPlan, RetryClient, RetryPolicy, Server,
};
use mvworkloads::SmallBank;
use std::time::Duration;

/// Starts a server on an ephemeral port; returns its address and the
/// join handle of the serving thread.
fn start_server(config: Config) -> (std::net::SocketAddr, std::thread::JoinHandle<()>) {
    let server = Server::bind(config).expect("bind ephemeral port");
    let addr = server.local_addr().expect("local addr");
    let handle = std::thread::spawn(move || server.run().expect("server run"));
    (addr, handle)
}

/// The SmallBank canonical mix as wire-format lines.
fn smallbank_lines() -> Vec<String> {
    let txns = SmallBank::canonical_mix();
    txns.iter().map(|t| mvfmt::transaction(&txns, t)).collect()
}

#[test]
fn smallbank_assignments_match_full_allocator() {
    let (addr, server) = start_server(Config {
        addr: "127.0.0.1:0".to_string(),
        ..Config::default()
    });
    let mut client = Client::connect(addr).expect("connect");
    client
        .set_timeout(Some(Duration::from_secs(30)))
        .expect("timeout");
    client.ping().expect("ping");

    // Register the full canonical mix, one transaction at a time.
    for line in smallbank_lines() {
        let reply = client.register(&line).expect("register");
        assert_eq!(reply["ok"], true);
    }

    // Every served assignment equals the from-scratch optimum.
    let txns = SmallBank::canonical_mix();
    let (expected, _) = Allocator::new(&txns).optimal();
    for (id, level) in expected.iter() {
        assert_eq!(
            client.assign(id.0).expect("assign"),
            level,
            "serving mismatch for {id}"
        );
    }

    // The registry view agrees too.
    let listed = client.list().expect("list");
    let listed = listed["txns"].as_array().expect("txns array").clone();
    assert_eq!(listed.len(), txns.len());
    for entry in &listed {
        let id = mvmodel::TxnId(entry["id"].as_u64().unwrap() as u32);
        assert_eq!(entry["level"], expected.level(id).as_str());
    }

    // Mutate: drop one transaction, add a new one, and compare against
    // a fresh full run over the mutated set.
    let drop_id = txns.ids().next().expect("non-empty mix");
    let dereg = client.deregister(drop_id.0).expect("deregister");
    assert_eq!(dereg["ok"], true);

    let new_line = "T90: R[checking_1] W[checking_1]";
    let reg = client.register(new_line).expect("register new");
    assert_eq!(reg["txn_id"], 90u64);

    let mut mutated = SmallBank::canonical_mix();
    mutated.remove(drop_id);
    let parsed = mvmodel::parse_transaction_line(new_line, &mut mutated).expect("parse");
    // Re-intern against the mutated set exactly as the registry does.
    mutated.insert(parsed).expect("insert");
    let (expected, _) = Allocator::new(&mutated).optimal();
    for (id, level) in expected.iter() {
        assert_eq!(
            client.assign(id.0).expect("assign after mutation"),
            level,
            "post-mutation mismatch for {id}"
        );
    }
    // The dropped transaction no longer assigns.
    match client.assign(drop_id.0) {
        Err(ClientError::Server(msg)) => assert!(msg.contains("not registered"), "{msg}"),
        other => panic!("expected a server error, got {other:?}"),
    }

    // Stats reflect the traffic.
    let stats = client.stats().expect("stats");
    assert_eq!(stats["registry_size"], expected.iter().count() as u64);
    assert_eq!(stats["levels"], "rc-si-ssi");
    assert!(stats["requests"]["register"].as_u64().unwrap() >= 6);
    assert!(stats["requests"]["assign"].as_u64().unwrap() >= 5);
    assert!(stats["errors"].as_u64().unwrap() >= 1);
    assert!(stats["last_realloc"]["probes"].as_u64().is_some());
    assert!(stats["latency_us"]["p99"].as_u64().unwrap() > 0);

    client.shutdown().expect("shutdown");
    server.join().expect("server thread");
}

#[test]
fn bad_input_gets_error_replies_without_dropping_the_connection() {
    let (addr, server) = start_server(Config {
        addr: "127.0.0.1:0".to_string(),
        ..Config::default()
    });
    let mut client = Client::connect(addr).expect("connect");
    client
        .set_timeout(Some(Duration::from_secs(30)))
        .expect("timeout");

    // A parade of malformed input, all answered on the same connection.
    for bad in [
        "this is not json",
        "[1,2,3]",
        "{}",
        r#"{"op":"warp"}"#,
        r#"{"op":"assign"}"#,
        r#"{"op":"register","txn":"T1 missing colon"}"#,
        r#"{"op":"deregister","txn_id":12}"#,
    ] {
        let reply = client.raw(bad).expect("reply on same connection");
        assert_eq!(reply["ok"], false, "input {bad:?} should fail");
        assert!(
            reply["error"].as_str().is_some(),
            "error message missing for {bad:?}"
        );
    }

    // The connection still works for real requests afterwards.
    let reply = client.register("T1: R[x] W[x]").expect("register");
    assert_eq!(reply["ok"], true);
    assert_eq!(reply["level"], "RC");

    // Duplicate registration is a structured error, not a hangup.
    let reply = client.raw(r#"{"op":"register","txn":"T1: W[q]"}"#).unwrap();
    assert_eq!(reply["ok"], false);
    assert!(reply["error"].as_str().unwrap().contains("already"));

    client.shutdown().expect("shutdown");
    server.join().expect("server thread");
}

#[test]
fn rc_si_mode_reports_unallocatable_adds() {
    let (addr, server) = start_server(Config {
        addr: "127.0.0.1:0".to_string(),
        levels: "rc-si".parse().expect("level set"),
        ..Config::default()
    });
    let mut client = Client::connect(addr).expect("connect");
    client.register("T1: R[x] W[y]").expect("register");
    // The write-skew partner is not {RC, SI}-allocatable.
    match client.register("T2: R[y] W[x]") {
        Err(ClientError::Server(msg)) => assert!(msg.contains("rc-si"), "{msg}"),
        other => panic!("expected a server error, got {other:?}"),
    }
    // The registry rolled back and keeps serving.
    assert_eq!(
        client.assign(1).expect("assign"),
        mvisolation::IsolationLevel::RC
    );
    let stats = client.stats().expect("stats");
    assert_eq!(stats["registry_size"], 1u64);
    assert_eq!(stats["levels"], "rc-si");

    client.shutdown().expect("shutdown");
    server.join().expect("server thread");
}

#[test]
fn binary_codec_serves_identical_assignments_alongside_line_clients() {
    let (addr, server) = start_server(Config {
        addr: "127.0.0.1:0".to_string(),
        ..Config::default()
    });
    // Two clients on one server, one per codec, interleaving requests.
    let mut line = Client::connect_with(addr, CodecKind::Line).expect("line connect");
    let mut frame = Client::connect_with(addr, CodecKind::Frame).expect("frame connect");
    line.set_timeout(Some(Duration::from_secs(30))).unwrap();
    frame.set_timeout(Some(Duration::from_secs(30))).unwrap();

    for (i, wire_line) in smallbank_lines().iter().enumerate() {
        let client = if i % 2 == 0 { &mut frame } else { &mut line };
        let reply = client.register(wire_line).expect("register");
        assert_eq!(reply["ok"], true);
    }

    let txns = SmallBank::canonical_mix();
    let (expected, _) = Allocator::new(&txns).optimal();
    for (id, level) in expected.iter() {
        // Both codecs serve the same allocation.
        assert_eq!(frame.assign(id.0).expect("frame assign"), level);
        assert_eq!(line.assign(id.0).expect("line assign"), level);
    }

    // The stats verb surfaces the connection gauge and per-codec
    // counters, and both codecs saw traffic.
    let stats = frame.stats().expect("stats");
    assert!(
        stats["connections"]["open"].as_u64().unwrap() >= 2,
        "two live clients must show in the gauge: {stats}"
    );
    assert!(stats["connections"]["total"].as_u64().unwrap() >= 2);
    assert!(stats["codec_line"].as_u64().unwrap() > 0, "{stats}");
    assert!(stats["codec_frame"].as_u64().unwrap() > 0, "{stats}");

    frame.shutdown().expect("shutdown");
    server.join().expect("server thread");
}

/// Runs the truncated-reply replay scenario over one codec and returns
/// `(req_id, replayed, registry_size)` from the retried reply.
fn replay_over(codec: CodecKind) -> (u64, bool, u64) {
    let plan = FaultPlan {
        seed: 1,
        truncate: 1.0,
        budget: Some(1),
        ..FaultPlan::default()
    };
    let (addr, server) = start_server(Config {
        addr: "127.0.0.1:0".to_string(),
        faults: Some(plan),
        ..Config::default()
    });
    let policy = RetryPolicy {
        retries: 6,
        base: Duration::from_millis(1),
        cap: Duration::from_millis(20),
        seed: 7,
    };
    let mut client = RetryClient::with_codec(addr.to_string(), policy, codec);
    let reply = client.register("T1: R[x] W[y]").expect("retried register");
    let out = (
        reply["req_id"].as_u64().expect("req_id echo"),
        reply["replayed"] == true,
        reply["registry_size"].as_u64().expect("registry_size"),
    );
    client.shutdown().expect("shutdown");
    server.join().expect("server thread");
    out
}

#[test]
fn replay_semantics_are_bit_identical_across_codecs() {
    // The same retry policy seed must derive the same idempotency key,
    // hit the replay cache the same way, and leave the same registry —
    // whether the truncated reply was a JSON line or a binary frame.
    let (id_line, replayed_line, size_line) = replay_over(CodecKind::Line);
    let (id_frame, replayed_frame, size_frame) = replay_over(CodecKind::Frame);
    assert_eq!(id_line, id_frame, "req_id keys diverged across codecs");
    assert!(replayed_line && replayed_frame, "both retries must replay");
    assert_eq!(size_line, 1, "line run double-applied");
    assert_eq!(size_frame, 1, "frame run double-applied");
}

#[test]
fn server_handle_stops_the_server() {
    let server = Server::bind(Config {
        addr: "127.0.0.1:0".to_string(),
        ..Config::default()
    })
    .expect("bind");
    let handle = server.handle();
    let join = std::thread::spawn(move || server.run().expect("run"));
    assert!(!handle.is_shutting_down());
    handle.shutdown();
    join.join().expect("server stops on handle shutdown");
}
