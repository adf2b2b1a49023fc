//! The allocation-service workloads, `churn` and `admit`: a real server
//! in this process, durable in a fresh data directory, driven over
//! loopback by at most two client threads speaking the binary codec.

use crate::gen::{self, Mutation, Mutations, Reads};
use crate::report::{Report, RssProbe};
use crate::stats::{OpenLoop, Samples, Timed};
use crate::{median_setup, us, Opts, Window};
use mvisolation::IsolationLevel;
use mvmodel::{parse_transaction_line, TransactionSet, TxnId};
use mvservice::{encode_payload, Client, CodecKind, Config, FrameBuf, Payload, Request};
use mvservice::{Server, ServerHandle};
use mvtemplates::{optimal_template_allocation, TemplateCatalog};
use serde_json::Value;
use std::collections::BTreeSet;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// `churn` sets up three times per run (each preloads 1,000 programs);
/// `admit`, whose few milliseconds of set-up are mostly file creation
/// and fsyncs, 25 times. Each run reports the median.
const CHURN_SETUPS: usize = 3;
const ADMIT_SETUPS: usize = 25;
/// Operations after which peak memory is read.
const CHURN_RSS_AT: u64 = 3_072;
const ADMIT_RSS_AT: u64 = 16_384;
/// The open-loop reader's rate: one `assign` every 500 µs.
const READ_INTERVAL: Duration = Duration::from_micros(500);
/// Preload requests pipelined per write.
const PRELOAD_CHUNK: usize = 64;
/// How long any reply may take before it counts as timed out.
const REPLY_TIMEOUT: Duration = Duration::from_secs(10);

/// A server running on its own thread until stopped.
pub struct Running {
    handle: ServerHandle,
    addr: SocketAddr,
    thread: Option<JoinHandle<std::io::Result<()>>>,
}

impl Running {
    /// Binds on an ephemeral loopback port with the default
    /// configuration plus `dir` as its durable state, recovering
    /// whatever `dir` holds.
    pub fn start(dir: &Path) -> Result<Running, String> {
        let config = Config {
            addr: "127.0.0.1:0".to_string(),
            data_dir: Some(dir.to_path_buf()),
            ..Config::default()
        };
        let server = Server::bind(config).map_err(|e| format!("server bind: {e}"))?;
        let addr = server.local_addr().map_err(|e| e.to_string())?;
        let handle = server.handle();
        let thread = std::thread::spawn(move || server.run());
        Ok(Running {
            handle,
            addr,
            thread: Some(thread),
        })
    }

    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    pub fn client(&self) -> Result<Client, String> {
        let mut c = Client::connect_with(self.addr, CodecKind::Frame)
            .map_err(|e| format!("connect: {e}"))?;
        c.set_timeout(Some(REPLY_TIMEOUT))
            .map_err(|e| e.to_string())?;
        Ok(c)
    }

    /// Stops the server and waits for its thread.
    pub fn stop(mut self) -> Result<(), String> {
        self.handle.shutdown();
        let thread = self.thread.take().expect("running server has a thread");
        match thread.join() {
            Ok(res) => res.map_err(|e| format!("server: {e}")),
            Err(_) => Err("server thread panicked".to_string()),
        }
    }
}

impl Drop for Running {
    fn drop(&mut self) {
        if let Some(thread) = self.thread.take() {
            self.handle.shutdown();
            let _ = thread.join();
        }
    }
}

/// A fresh, empty data directory under the run's data root.
pub fn fresh_dir(o: &Opts, tag: &str) -> Result<PathBuf, String> {
    let dir = o.data.join(format!("{tag}-{}", o.next_id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    Ok(dir)
}

fn client_err(e: mvservice::ClientError) -> String {
    e.to_string()
}

/// Registers `lines` in pipelined chunks; every reply must be `ok`.
fn preload(client: &mut Client, lines: &[(u32, String)]) -> Result<(), String> {
    for chunk in lines.chunks(PRELOAD_CHUNK) {
        let reqs: Vec<String> = chunk
            .iter()
            .map(|(_, line)| {
                let req = Request::Register {
                    line: line.clone(),
                    req_id: None,
                };
                serde_json::to_string(&req.to_json()).expect("request encodes")
            })
            .collect();
        for reply in client.pipeline(&reqs).map_err(client_err)? {
            if reply["ok"] != true {
                return Err(format!("preload rejected: {reply:?}"));
            }
        }
    }
    Ok(())
}

/// What the closed-loop mutator saw.
#[derive(Default)]
struct MutatorOut {
    /// Acknowledged mutations completed inside the measured window.
    done: Vec<Timed>,
    /// Mutations started inside the measured window.
    started: u64,
    failed: u64,
    /// Acknowledged short-lived programs still registered.
    live: BTreeSet<u32>,
    errors: Vec<String>,
}

fn mutator(
    client: &mut Client,
    mut script: Mutations,
    live: BTreeSet<u32>,
    w: &Window,
    rss: &RssProbe,
) -> MutatorOut {
    let mut out = MutatorOut {
        live,
        ..MutatorOut::default()
    };
    while Instant::now() < w.end {
        let m = script.next_mutation();
        let t = Instant::now();
        let res = match &m {
            Mutation::Register(_, line) => client.register(line),
            Mutation::Deregister(id) => client.deregister(*id),
        };
        let done = Instant::now();
        let counted = t >= w.start;
        out.started += u64::from(counted);
        match res {
            Ok(_) => {
                rss.tick(1);
                match m {
                    Mutation::Register(id, _) => out.live.insert(id),
                    Mutation::Deregister(id) => out.live.remove(&id),
                };
                if counted {
                    out.done.push(Timed {
                        done,
                        latency_us: us(done - t),
                        ops: 1.0,
                    });
                }
            }
            Err(e) => {
                out.failed += u64::from(counted);
                out.errors.push(format!("{m:?}: {e}"));
                if matches!(e, mvservice::ClientError::Io(_)) {
                    break;
                }
            }
        }
    }
    out
}

/// What the open-loop reader saw. Reads are charged from their due
/// time; only reads due inside the measured window count.
#[derive(Default)]
struct ReaderOut {
    lat_us: Samples,
    lag_us: Samples,
    attempted: u64,
    failed: u64,
}

fn reader(addr: SocketAddr, mut reads: Reads, w: &Window) -> Result<ReaderOut, String> {
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("reader connect: {e}"))?;
    stream.set_nodelay(true).map_err(|e| e.to_string())?;
    stream
        .set_write_timeout(Some(REPLY_TIMEOUT))
        .map_err(|e| e.to_string())?;
    let mut out = ReaderOut::default();
    let mut ol = OpenLoop::new(w.warm_start, READ_INTERVAL);
    let mut fb = FrameBuf::with_kind(CodecKind::Frame);
    let mut frames = Vec::new();
    let mut buf = vec![0u8; 1 << 16];
    let deadline = w.end + REPLY_TIMEOUT;
    let counted = |due: Instant| due >= w.start && due < w.end;
    loop {
        let now = Instant::now();
        if now < w.end {
            frames.clear();
            while let Some((due, lag)) = ol.take_due(now) {
                let req = Request::Assign {
                    id: TxnId(reads.next_id()),
                };
                encode_payload(CodecKind::Frame, &req.to_json(), &mut frames);
                if counted(due) {
                    out.attempted += 1;
                    out.lag_us.push(us(lag));
                }
            }
            if !frames.is_empty() {
                stream
                    .write_all(&frames)
                    .map_err(|e| format!("reader send: {e}"))?;
            }
        } else if ol.outstanding() == 0 {
            break;
        } else if now >= deadline {
            while let Some((due, _)) = ol.replied(now) {
                out.failed += u64::from(counted(due));
            }
            break;
        }
        // Wait for replies, but never past the next due request.
        let until = if now < w.end { ol.next_due() } else { deadline };
        let wait = until
            .saturating_duration_since(Instant::now())
            .max(Duration::from_micros(20));
        stream
            .set_read_timeout(Some(wait))
            .map_err(|e| e.to_string())?;
        match stream.read(&mut buf) {
            Ok(0) => return Err("server closed the reader's connection".to_string()),
            Ok(n) => {
                let at = Instant::now();
                fb.push(&buf[..n]);
                while let Some(p) = fb.next_payload().map_err(|e| e.message())? {
                    let (due, lat) = ol.replied(at).ok_or("reply without a request")?;
                    let ok = matches!(&p, Payload::Frame(v) if v["ok"] == true);
                    if counted(due) {
                        if ok {
                            out.lat_us.push(us(lat));
                        } else {
                            out.failed += 1;
                        }
                    }
                }
            }
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) => {}
            Err(e) => return Err(format!("reader receive: {e}")),
        }
    }
    Ok(out)
}

/// The server's own view over its lifetime, from the `stats` verb: its
/// service-time median over every request, which it keeps only as a
/// power-of-two bucket bound, and its durability counters per logged
/// mutation. When `client_p50_us` is given (the workload sends one kind
/// of request), the client's median round trip minus the server's is
/// reported as transport time.
fn server_stats(
    rep: &mut Report,
    client: &mut Client,
    client_p50_us: Option<f64>,
) -> Result<(), String> {
    let v = client.stats().map_err(client_err)?;
    let requests = v["total"].as_u64().unwrap_or(0) as usize;
    let service = v["latency_us"]["p50"].as_f64().unwrap_or(0.0);
    let note = "(all requests; upper bound of a power-of-two bucket)".to_string();
    rep.add_note("server.service_p50_us", service, "us", requests, note);
    if let Some(rtt) = client_p50_us {
        rep.add_note(
            "server.transport_us",
            rtt - service,
            "us",
            requests,
            "(client p50 round trip minus server.service_p50_us)".to_string(),
        );
    }
    let d = &v["durability"];
    let appends = d["wal_appends"].as_u64().unwrap_or(0);
    let per_op = |x: &Value| x.as_u64().unwrap_or(0) as f64 / appends.max(1) as f64;
    let n = appends as usize;
    rep.add("server.fsyncs_per_op", per_op(&d["fsyncs"]), "count", n);
    rep.add(
        "server.snapshots_per_kop",
        1e3 * per_op(&d["snapshots"]),
        "count",
        n,
    );
    Ok(())
}

/// The final `list` must hold exactly the expected ids, each at the
/// level `optimal_allocation` gives it over the surviving set.
fn check_allocation(listed: &Value, expect: &BTreeSet<u32>) -> Result<(), String> {
    let txns = listed["txns"].as_array().ok_or("list reply has no txns")?;
    let ids: BTreeSet<u32> = txns
        .iter()
        .filter_map(|t| t["id"].as_u64().map(|id| id as u32))
        .collect();
    if &ids != expect {
        let missing: Vec<_> = expect.difference(&ids).take(5).collect();
        let extra: Vec<_> = ids.difference(expect).take(5).collect();
        return Err(format!(
            "registered set differs from the acknowledged mutations (missing {missing:?}, extra {extra:?})"
        ));
    }
    let mut set = TransactionSet::default();
    for t in txns {
        let text = t["text"].as_str().ok_or("listed txn without text")?;
        let txn = parse_transaction_line(text, &mut set).map_err(|e| e.to_string())?;
        set.insert(txn).map_err(|e| e.to_string())?;
    }
    let optimal = mvrobustness::optimal_allocation(&set);
    for t in txns {
        let id = TxnId(t["id"].as_u64().unwrap_or(0) as u32);
        let want = optimal.get(id).map(IsolationLevel::as_str);
        if t["level"].as_str() != want {
            return Err(format!(
                "T{} served at {:?}, optimal_allocation says {want:?}",
                id.0, t["level"]
            ));
        }
    }
    Ok(())
}

pub fn churn(o: &Opts, rep: &mut Report) -> Result<(), String> {
    let mut setups = Vec::new();
    let mut state = None;
    for i in 0..CHURN_SETUPS {
        let t = Instant::now();
        let script = gen::churn(o.seed);
        let dir = fresh_dir(o, "churn")?;
        let server = Running::start(&dir)?;
        let mut client = server.client()?;
        preload(&mut client, &script.resident)?;
        preload(&mut client, &script.pool)?;
        setups.push(t.elapsed());
        if i + 1 < CHURN_SETUPS {
            drop(client);
            server.stop()?;
            let _ = std::fs::remove_dir_all(&dir);
        } else {
            state = Some((script, dir, server, client));
        }
    }
    let (script, dir, server, mut client) = state.expect("at least one setup");
    median_setup(rep, &setups);

    let w = Window::new(o);
    let rss = RssProbe::new(CHURN_RSS_AT);
    let resident: BTreeSet<u32> = script.resident.iter().map(|(id, _)| *id).collect();
    let (mut m, r) = std::thread::scope(|s| {
        let (mutations, mclient, rss) = (script.mutations, &mut client, &rss);
        let pool = script.pool.iter().map(|(id, _)| *id).collect();
        let mt = s.spawn(|| mutator(mclient, mutations, pool, &w, rss));
        let rt = s.spawn(|| reader(server.addr(), script.reads, &w));
        (
            mt.join().expect("mutator thread"),
            rt.join().expect("reader thread"),
        )
    });
    rss.report(rep)?;
    let mut r = r?;
    for e in m.errors.iter().take(3) {
        rep.violate(format!("mutation failed: {e}"));
    }
    rep.primary(&mut m.done, w.start)?;
    rep.latency("read_", &mut r.lat_us);
    let n = r.lat_us.len();
    rep.add("read_max_us", r.lat_us.max(), "us", n);
    let lag_n = r.lag_us.len();
    rep.add("gen_lag_p99_us", r.lag_us.percentile(99.0), "us", lag_n);
    rep.attempted = m.started + r.attempted;
    rep.failed = m.failed + r.failed;
    rep.error_share();
    server_stats(rep, &mut client, None)?;

    // Gate: the served allocation is the optimum of the surviving set.
    let before = client.list().map_err(client_err)?;
    let expect: BTreeSet<u32> = resident.union(&m.live).copied().collect();
    if let Err(e) = check_allocation(&before, &expect) {
        rep.violate(format!("churn allocation: {e}"));
    }
    // Gate: a restart on the same data directory recovers `list`
    // bit-identically.
    drop(client);
    server.stop()?;
    let again = Running::start(&dir)?;
    let after = again.client()?.list().map_err(client_err)?;
    again.stop()?;
    let (b, a) = (
        serde_json::to_string(&before).expect("encodes"),
        serde_json::to_string(&after).expect("encodes"),
    );
    if b != a {
        rep.violate(format!(
            "churn recovery: list after restart differs ({} vs {} bytes)",
            b.len(),
            a.len()
        ));
    }
    let _ = std::fs::remove_dir_all(&dir);
    Ok(())
}

/// What the closed-loop admitting connection saw.
#[derive(Default)]
struct AdmitOut {
    /// Acknowledged admissions completed inside the measured window.
    done: Vec<Timed>,
    started: u64,
    /// Acknowledged over the whole run, warm-up included.
    acked_total: u64,
    failed: u64,
    errors: Vec<String>,
}

fn admitter(
    client: &mut Client,
    mut stream: gen::Instances,
    audited: &[IsolationLevel],
    w: &Window,
    rss: &RssProbe,
) -> AdmitOut {
    let mut out = AdmitOut::default();
    while Instant::now() < w.end {
        let inst = stream.next_instance();
        let t = Instant::now();
        let res = client.instantiate(inst.tid as u64, &inst.params);
        let done = Instant::now();
        let counted = t >= w.start;
        out.started += u64::from(counted);
        let verdict = match res {
            Err(e) => Err(e.to_string()),
            Ok(v) => {
                out.acked_total += 1;
                rss.tick(1);
                let want = audited[inst.tid].as_str();
                if v["level"].as_str() == Some(want) {
                    Ok(())
                } else {
                    Err(format!(
                        "instance of template {} admitted at {:?}, audited level is {want}",
                        inst.tid, v["level"]
                    ))
                }
            }
        };
        match verdict {
            Ok(()) if counted => out.done.push(Timed {
                done,
                latency_us: us(done - t),
                ops: 1.0,
            }),
            Ok(()) => {}
            Err(e) => {
                out.failed += u64::from(counted);
                out.errors.push(e);
                if out.errors.len() > 16 {
                    break;
                }
            }
        }
    }
    out
}

pub fn admit(o: &Opts, rep: &mut Report) -> Result<(), String> {
    let set = mvtemplates::smallbank_templates();
    let audited = optimal_template_allocation(
        &set,
        TemplateCatalog::DEFAULT_COPIES,
        TemplateCatalog::DEFAULT_DOMAIN,
    );
    let mut setups = Vec::new();
    let mut state = None;
    for i in 0..ADMIT_SETUPS {
        let t = Instant::now();
        let dir = fresh_dir(o, "admit")?;
        let server = Running::start(&dir)?;
        let mut client = server.client()?;
        for tid in 0..set.len() {
            let line = set.get(tid).expect("tid < len").render();
            client.template_register(&line).map_err(client_err)?;
        }
        setups.push(t.elapsed());
        if i + 1 < ADMIT_SETUPS {
            drop(client);
            server.stop()?;
            let _ = std::fs::remove_dir_all(&dir);
        } else {
            state = Some((dir, server, client));
        }
    }
    let (dir, server, mut client) = state.expect("at least one setup");
    median_setup(rep, &setups);

    let w = Window::new(o);
    let rss = RssProbe::new(ADMIT_RSS_AT);
    let stream = gen::admit_stream(o.seed);
    let mut out = admitter(&mut client, stream, &audited, &w, &rss);
    rss.report(rep)?;
    rep.attempted = out.started;
    rep.failed = out.failed;
    for e in out.errors.iter().take(3) {
        rep.violate(format!("admit: {e}"));
    }
    rep.primary(&mut out.done, w.start)?;
    rep.error_share();
    let p50 = rep.get("p50_us").map(|m| m.value);
    server_stats(rep, &mut client, p50)?;

    // Gate: the catalog counted exactly the acknowledged admissions.
    let listed = client.template_list().map_err(client_err)?;
    let counted: u64 = listed["templates"].as_array().map_or(0, |ts| {
        ts.iter().filter_map(|t| t["instances"].as_u64()).sum()
    });
    if counted != out.acked_total {
        rep.violate(format!(
            "admit: template_list counts {counted} instances, {} were acknowledged",
            out.acked_total
        ));
    }
    drop(client);
    server.stop()?;
    let _ = std::fs::remove_dir_all(&dir);
    Ok(())
}
