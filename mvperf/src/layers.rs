//! The traced run's service-layer probes. The workload's seeded request
//! script is replayed in this process through each layer's public calls
//! — frame decode, the tenant registry, the write-ahead log and its
//! fsync, reply encode, snapshot capture and write — in the order the
//! server makes them, with a span around every call. A second,
//! untraced replay of the same script gives the tracing overhead, and a
//! bare `Allocator` run of the same mutations gives the allocator's own
//! delta cost and index/decomposition rebuild costs.

use crate::exec::Population;
use crate::gen::{LayerScript, Mutation};
use crate::report::Report;
use crate::stats::Samples;
use crate::trace::Tracer;
use crate::{us, Opts};
use mvmodel::{parse_transaction_line, Op, Transaction, TransactionSet, TxnId};
use mvrobustness::{Allocator, CompEntry, Components, ConflictIndex, EngineStats, LevelSet};
use mvservice::protocol::{changes_json, ok_reply};
use mvservice::{
    encode_payload, CodecKind, Durability, FrameBuf, Namespaces, Payload, Registry, RegistryEvent,
    RegistryTemplate, Request, SnapshotState, Store, TenantSnapshot, DEFAULT_TENANT,
};
use mvtemplates::TemplateCatalog;
use serde_json::Value;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Replay steps; each is one mutation, one `assign` and one
/// `instantiate`. 1,024 mutations give their 99th percentile ten samples
/// beyond it.
const STEPS: usize = 1_024;
/// Steps of the untraced replay that the tracing overhead compares with
/// the same first steps of the traced one.
const OVERHEAD_STEPS: usize = 256;
/// A snapshot is taken every this many appended log records (the server
/// default is 1,024; the replay snapshots more often to sample it).
const SNAPSHOT_EVERY: u64 = 128;
/// The bare allocator rebuilds index and components every this many
/// events.
const REBUILD_EVERY: usize = 64;
/// Request ids of snapshot roots start here, apart from requests.
const SNAPSHOT_IDS: u64 = 1 << 40;

/// Which request kind the workload's end-to-end latency measures.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Primary {
    Mutation,
    Instantiate,
}

/// The service state one replay drives, built the way the server
/// builds it: default level menu, one engine thread, component sharding
/// with the cross-tenant cache, `batch` durability.
struct Service {
    ns: Namespaces,
    tenant: Arc<str>,
    reg: Arc<Mutex<Registry>>,
    store: Store,
    wal: PathBuf,
    appended: u64,
    snapshots: u64,
}

/// What a replay measured besides its spans.
#[derive(Default)]
struct ReplayOut {
    /// Wall time of the first [`OVERHEAD_STEPS`] replay steps (preload
    /// excluded).
    prefix: Duration,
    /// Request kind, indexed by request id.
    kinds: Vec<&'static str>,
    /// Encoded request plus reply bytes, per request.
    bytes: Samples,
    /// Log bytes appended per logged mutation.
    wal_bytes: Samples,
    /// Engine counters summed over registry mutations, and their count.
    engine: EngineStats,
    events: u64,
}

fn lock(reg: &Mutex<Registry>) -> std::sync::MutexGuard<'_, Registry> {
    reg.lock().expect("registry poisoned")
}

impl Service {
    fn open(dir: &Path) -> Result<Service, String> {
        let ns = Namespaces::new(RegistryTemplate {
            levels: LevelSet::default(),
            threads: 1,
            realloc_timeout: None,
            components: true,
            faults: None,
        });
        let (tenant, reg) = ns.resolve(DEFAULT_TENANT);
        let (store, _) = Store::open(dir, Durability::Batch, 0).map_err(|e| e.to_string())?;
        Ok(Service {
            ns,
            tenant,
            reg,
            store,
            wal: dir.join("wal.log"),
            appended: 0,
            snapshots: 0,
        })
    }

    fn wal_len(&self) -> u64 {
        std::fs::metadata(&self.wal).map_or(0, |m| m.len())
    }

    /// Executes a decoded request against the registry, appending an
    /// applied mutation to the log under the registry lock.
    fn execute(
        &mut self,
        tr: &mut Tracer,
        rid: u64,
        req: Request,
        out: &mut ReplayOut,
    ) -> Result<(Value, bool), String> {
        let (span, event) = match &req {
            Request::Register { line, .. } => (
                "registry.register",
                Some(RegistryEvent::Register(line.clone())),
            ),
            Request::Deregister { id, .. } => {
                ("registry.deregister", Some(RegistryEvent::Deregister(*id)))
            }
            Request::Assign { .. } => ("registry.assign", None),
            Request::Instantiate {
                template_id,
                params,
                ..
            } => (
                "registry.admit",
                Some(RegistryEvent::Instantiate {
                    template_id: *template_id as usize,
                    params: params.clone(),
                }),
            ),
            other => return Err(format!("replay has no {} requests", other.op_name())),
        };
        let (store, tenant, reg) = (&self.store, &self.tenant, &self.reg);
        let reply = tr.span(span, rid, |tr| -> Result<Value, String> {
            let mut reg = lock(reg);
            let mut v = ok_reply();
            match req {
                Request::Register { line, .. } => {
                    let r = reg.register(&line).map_err(|e| e.to_string())?;
                    let id = r.changed.iter().find(|c| c.before.is_none()).map(|c| c.txn);
                    if let Some(id) = id {
                        v["txn_id"] = Value::from(id.0);
                        v["level"] = Value::from(r.allocation.level(id).as_str());
                    }
                    v["changed"] = changes_json(&r.changed);
                    v["registry_size"] = Value::from(reg.len() as u64);
                }
                Request::Deregister { id, .. } => {
                    let r = reg.deregister(id).map_err(|e| e.to_string())?;
                    v["txn_id"] = Value::from(id.0);
                    v["changed"] = changes_json(&r.changed);
                    v["registry_size"] = Value::from(reg.len() as u64);
                }
                Request::Assign { id } => {
                    let level = reg
                        .assign(id)
                        .ok_or(format!("T{} is not registered", id.0))?;
                    v["txn_id"] = Value::from(id.0);
                    v["level"] = Value::from(level.as_str());
                }
                Request::Instantiate {
                    template_id,
                    params,
                    ..
                } => {
                    let (level, n) = reg
                        .admit_instance(template_id as usize, &params)
                        .map_err(|e| e.to_string())?;
                    v["template_id"] = Value::from(template_id);
                    v["level"] = Value::from(level.as_str());
                    v["instances"] = Value::from(n);
                }
                _ => unreachable!("filtered above"),
            }
            if matches!(span, "registry.register" | "registry.deregister") {
                if let Some(s) = reg.last_stats() {
                    add_stats(&mut out.engine, s);
                    out.events += 1;
                }
            }
            if let Some(event) = &event {
                tr.span("store.append", rid, |_| {
                    store.append(tenant, event, None, &v)
                })
                .map_err(|e| format!("wal append: {e}"))?;
            }
            Ok(v)
        })?;
        Ok((reply, event.is_some()))
    }

    /// One request end to end: decode, execute, log, fsync, encode.
    fn request(
        &mut self,
        tr: &mut Tracer,
        rid: u64,
        req: Request,
        out: &mut ReplayOut,
    ) -> Result<(), String> {
        let mut wire = Vec::new();
        encode_payload(CodecKind::Frame, &req.to_json(), &mut wire);
        out.kinds.push(req.op_name());
        let before = self.wal_len();
        let (reply_len, logged) =
            tr.span("request", rid, |tr| -> Result<(usize, bool), String> {
                let req = tr.span("codec.decode", rid, |_| {
                    let mut fb = FrameBuf::with_kind(CodecKind::Frame);
                    fb.push(&wire);
                    match fb.next_payload() {
                        Ok(Some(Payload::Frame(v))) => Request::from_value(&v),
                        _ => Err("undecodable frame".to_string()),
                    }
                })?;
                let (reply, logged) = self.execute(tr, rid, req, out)?;
                if logged {
                    tr.span("store.fsync", rid, |_| self.store.commit())
                        .map_err(|e| format!("fsync: {e}"))?;
                }
                let mut encoded = Vec::new();
                tr.span("codec.encode", rid, |_| {
                    encode_payload(CodecKind::Frame, &reply, &mut encoded)
                });
                Ok((encoded.len(), logged))
            })?;
        out.bytes.push((wire.len() + reply_len) as f64);
        if logged {
            out.wal_bytes
                .push(self.wal_len().saturating_sub(before) as f64);
            self.appended += 1;
            if self.appended.is_multiple_of(SNAPSHOT_EVERY) {
                self.snapshot(tr)?;
            }
        }
        Ok(())
    }

    /// Captures the state as the server's snapshot path does (every
    /// registry locked, listed, the shared cache dumped) and writes it.
    fn snapshot(&mut self, tr: &mut Tracer) -> Result<(), String> {
        let rid = SNAPSHOT_IDS + self.snapshots;
        self.snapshots += 1;
        let (ns, store) = (&self.ns, &self.store);
        tr.span("snapshot", rid, |tr| {
            let state = tr.span("registry.list", rid, |_| capture(ns));
            if !store.begin_snapshot() {
                return Err("snapshot slot busy".to_string());
            }
            tr.span("store.snapshot", rid, |_| store.write_snapshot(&state))
                .map(|_| ())
                .map_err(|e| format!("snapshot: {e}"))
        })
    }
}

fn capture(ns: &Namespaces) -> SnapshotState {
    let mut state = SnapshotState::default();
    for (name, reg) in ns.all() {
        let mut reg = lock(&reg);
        let listed = reg.list();
        let catalog = reg.templates();
        state.tenants.push(TenantSnapshot {
            name: name.to_string(),
            lines: listed.iter().map(|t| t.text.clone()).collect(),
            alloc: listed
                .iter()
                .map(|t| (t.id.0, t.level.as_str().to_string()))
                .collect(),
            templates: catalog
                .iter()
                .map(|t| (t.text.clone(), t.level.as_str().to_string()))
                .collect(),
            instances: catalog.iter().map(|t| t.instances).collect(),
        });
    }
    state.cache = ns
        .shared_cache()
        .entries()
        .into_iter()
        .map(|(key, entry)| {
            let stored = match entry {
                CompEntry::Unallocatable => None,
                CompEntry::Robust(lvls) => Some(
                    lvls.iter()
                        .map(|(id, l)| (id.0, l.as_str().to_string()))
                        .collect(),
                ),
            };
            (key, stored)
        })
        .collect();
    state
}

fn add_stats(sum: &mut EngineStats, s: &EngineStats) {
    sum.probes += s.probes;
    sum.cache_hits += s.cache_hits;
    sum.iso_builds += s.iso_builds;
    sum.components_checked += s.components_checked;
    sum.components_cached += s.components_cached;
    sum.kernel_row_ops += s.kernel_row_ops;
}

/// Registers the SmallBank catalog and the population, then replays
/// `steps` steps.
fn replay(
    mut script: LayerScript,
    steps: usize,
    dir: &Path,
    tr: &mut Tracer,
) -> Result<ReplayOut, String> {
    let mut svc = Service::open(dir)?;
    {
        let mut reg = lock(&svc.reg);
        let set = script.instances.templates();
        for tid in 0..set.len() {
            reg.register_template(&set.get(tid).expect("tid < len").render())
                .map_err(|e| e.to_string())?;
        }
        for (_, line) in &script.preload {
            reg.register(line).map_err(|e| e.to_string())?;
        }
    }
    let mut out = ReplayOut::default();
    let start = Instant::now();
    let mut rid = 0u64;
    for step in 0..steps {
        let mutation = match script.mutations.next_mutation() {
            Mutation::Register(_, line) => Request::Register { line, req_id: None },
            Mutation::Deregister(id) => Request::Deregister {
                id: TxnId(id),
                req_id: None,
            },
        };
        let read = Request::Assign {
            id: TxnId(script.reads.next_id()),
        };
        let inst = script.instances.next_instance();
        let admit = Request::Instantiate {
            template_id: inst.tid as u64,
            params: inst.params,
            req_id: None,
        };
        for req in [mutation, read, admit] {
            svc.request(tr, rid, req, &mut out)?;
            rid += 1;
        }
        if step + 1 == OVERHEAD_STEPS {
            out.prefix = start.elapsed();
        }
    }
    Ok(out)
}

/// A register line as the allocator's own transaction, object names
/// interned into its table (what `Registry::register` does).
fn to_txn(alloc: &mut Allocator<'static>, line: &str) -> Result<Transaction, String> {
    let mut scratch = TransactionSet::default();
    let parsed = parse_transaction_line(line, &mut scratch).map_err(|e| e.to_string())?;
    let ops = parsed
        .ops()
        .iter()
        .map(|op| Op {
            kind: op.kind,
            object: alloc.intern_object(&scratch.object_name(op.object)),
        })
        .collect();
    Transaction::new(parsed.id(), ops).map_err(|e| e.to_string())
}

/// The bare allocator run: the script's mutations through
/// `Allocator::add_txn`/`remove_txn`, with index and decomposition
/// rebuilds timed on the live set. Returns the final live set at its
/// optimum.
fn allocator(mut script: LayerScript, rep: &mut Report) -> Result<Population, String> {
    let mut alloc = Allocator::from_owned(TransactionSet::default());
    for (_, line) in &script.preload {
        let txn = to_txn(&mut alloc, line)?;
        alloc.add_txn(txn).map_err(|e| e.to_string())?;
    }
    let (mut delta, mut index_us, mut comps_us) = (Samples::new(), Samples::new(), Samples::new());
    for step in 0..STEPS {
        match script.mutations.next_mutation() {
            Mutation::Register(_, line) => {
                let txn = to_txn(&mut alloc, &line)?;
                let t = Instant::now();
                alloc.add_txn(txn).map_err(|e| e.to_string())?;
                delta.push(us(t.elapsed()));
            }
            Mutation::Deregister(id) => {
                let t = Instant::now();
                alloc.remove_txn(TxnId(id)).map_err(|e| e.to_string())?;
                delta.push(us(t.elapsed()));
            }
        }
        if step % REBUILD_EVERY == 0 {
            let t = Instant::now();
            let index = ConflictIndex::new(alloc.txns());
            index_us.push(us(t.elapsed()));
            let t = Instant::now();
            std::hint::black_box(Components::new(alloc.txns(), &index));
            comps_us.push(us(t.elapsed()));
        }
    }
    let n = delta.len();
    rep.add("alloc.delta_p50_us", delta.median(), "us", n);
    rep.add("alloc.delta_p99_us", delta.percentile(99.0), "us", n);
    let n = index_us.len();
    rep.add("alloc.rebuild_index_us", index_us.trimmed_mean(), "us", n);
    rep.add(
        "alloc.rebuild_components_us",
        comps_us.trimmed_mean(),
        "us",
        n,
    );
    let txns = alloc.txns().clone();
    let comps = Components::new(&txns, &ConflictIndex::new(&txns));
    rep.add(
        "alloc.live_components",
        comps.count() as f64,
        "count",
        txns.len(),
    );
    rep.add(
        "alloc.largest_component",
        comps.largest() as f64,
        "count",
        txns.len(),
    );
    let opt = alloc.current().map_err(|e| e.to_string())?.clone();
    Ok(Population {
        txns,
        alloc: opt,
        copies: 1,
    })
}

/// The catalog's own costs: registering the SmallBank templates, and
/// admitting the script's instance stream.
fn templates(script: &mut LayerScript, rep: &mut Report) -> Result<(), String> {
    let set = script.instances.templates().clone();
    let mut register_ms = Samples::new();
    let mut catalog = TemplateCatalog::default();
    for _ in 0..3 {
        catalog = TemplateCatalog::new(
            TemplateCatalog::DEFAULT_COPIES,
            TemplateCatalog::DEFAULT_DOMAIN,
        );
        for tid in 0..set.len() {
            let t = Instant::now();
            catalog
                .register(set.get(tid).expect("tid < len").clone())
                .map_err(|e| e.to_string())?;
            register_ms.push(t.elapsed().as_secs_f64() * 1e3);
        }
    }
    let n = register_ms.len();
    rep.add("templates.register_ms", register_ms.trimmed_mean(), "ms", n);
    let stream: Vec<_> = (0..4_096)
        .map(|_| script.instances.next_instance())
        .collect();
    let mut admitted = 0u64;
    let t = Instant::now();
    while t.elapsed() < Duration::from_millis(200) {
        for inst in &stream {
            std::hint::black_box(
                catalog
                    .admit(inst.tid, &inst.params)
                    .map_err(|e| e.to_string())?,
            );
        }
        admitted += stream.len() as u64;
    }
    let ns = t.elapsed().as_nanos() as f64 / admitted as f64;
    rep.add("templates.admit_ns", ns, "ns", admitted as usize);
    Ok(())
}

/// Span durations (µs) by span name, and self times (µs) by span name.
fn by_name(
    tr: &Tracer,
) -> (
    BTreeMap<&'static str, Samples>,
    BTreeMap<&'static str, Samples>,
) {
    let mut dur: BTreeMap<&'static str, Samples> = BTreeMap::new();
    let mut own: BTreeMap<&'static str, Samples> = BTreeMap::new();
    for (s, self_ns) in tr.spans().iter().zip(tr.self_times()) {
        dur.entry(s.name)
            .or_default()
            .push(s.duration() as f64 / 1e3);
        own.entry(s.name).or_default().push(self_ns as f64 / 1e3);
    }
    (dur, own)
}

/// Runs the service-layer probes on the workload's script (`make`
/// builds a fresh copy) and returns the final live set for the engine
/// probes. `client_rtt_us` is the measured end-to-end p50 of the
/// primary request, when the workload has a client.
pub fn service(
    o: &Opts,
    workload: &str,
    make: impl Fn() -> LayerScript,
    primary: Primary,
    client_rtt_us: Option<f64>,
    rep: &mut Report,
) -> Result<Population, String> {
    let dir = crate::service::fresh_dir(o, "replay")?;
    let plain = replay(make(), OVERHEAD_STEPS, &dir, &mut Tracer::new(false))?;
    let _ = std::fs::remove_dir_all(&dir);
    let dir = crate::service::fresh_dir(o, "replay")?;
    let mut tr = Tracer::new(true);
    let traced = replay(make(), STEPS, &dir, &mut tr)?;
    let _ = std::fs::remove_dir_all(&dir);

    let (dur, own) = by_name(&tr);
    let take = |map: &BTreeMap<&'static str, Samples>, names: &[&str]| {
        let mut s = Samples::new();
        for n in names {
            if let Some(x) = map.get(n) {
                s.extend(x);
            }
        }
        s
    };
    // Unsuffixed timings are means below the 99th percentile.
    let mean = |mut s: Samples| (s.trimmed_mean(), s.len());
    let (v, n) = mean(take(&dur, &["codec.decode"]));
    rep.add("codec.decode_us", v, "us", n);
    let (v, n) = mean(take(&dur, &["codec.encode"]));
    rep.add("codec.encode_us", v, "us", n);
    let n = traced.bytes.len();
    rep.add("codec.bytes_per_op", traced.bytes.mean(), "bytes", n);
    let mut mutate = take(&own, &["registry.register", "registry.deregister"]);
    let n = mutate.len();
    rep.add("registry.mutate_p50_us", mutate.median(), "us", n);
    rep.add("registry.mutate_p99_us", mutate.percentile(99.0), "us", n);
    let (v, n) = mean(take(&own, &["registry.assign"]));
    rep.add("registry.assign_us", v, "us", n);
    let (v, n) = mean(take(&own, &["registry.admit"]));
    rep.add("registry.admit_us", v, "us", n);
    let (v, n) = mean(take(&dur, &["registry.list"]));
    rep.add("registry.list_ms", v / 1e3, "ms", n);
    let (v, n) = mean(take(&dur, &["store.append"]));
    rep.add("store.append_us", v, "us", n);
    let mut fsync = take(&dur, &["store.fsync"]);
    let n = fsync.len();
    rep.add("store.fsync_p50_us", fsync.median(), "us", n);
    rep.add("store.fsync_p99_us", fsync.percentile(99.0), "us", n);
    let n = traced.wal_bytes.len();
    rep.add(
        "store.wal_bytes_per_op",
        traced.wal_bytes.mean(),
        "bytes",
        n,
    );
    let mut snap = take(&dur, &["store.snapshot"]);
    let n = snap.len();
    rep.add("store.snapshot_p50_ms", snap.median() / 1e3, "ms", n);
    rep.add("store.snapshot_max_ms", snap.max() / 1e3, "ms", n);

    let e = &traced.engine;
    let events = traced.events.max(1) as f64;
    let n = traced.events as usize;
    rep.add(
        "alloc.probes_per_event",
        e.probes as f64 / events,
        "count",
        n,
    );
    rep.add(
        "alloc.cache_hit_ratio",
        e.cache_hits as f64 / (e.probes + e.cache_hits).max(1) as f64,
        "ratio",
        n,
    );
    rep.add(
        "alloc.components_checked_per_event",
        e.components_checked as f64 / events,
        "count",
        n,
    );
    rep.add(
        "alloc.components_cached_ratio",
        e.components_cached as f64 / (e.components_checked + e.components_cached).max(1) as f64,
        "ratio",
        n,
    );
    rep.add(
        "alloc.kernel_row_ops_per_event",
        e.kernel_row_ops as f64 / events,
        "count",
        n,
    );
    rep.add(
        "alloc.iso_builds_per_event",
        e.iso_builds as f64 / events,
        "count",
        n,
    );

    // Self time per layer, over the requests of the kind the workload's
    // end-to-end latency measures.
    let primary_ops: &[&str] = match primary {
        Primary::Mutation => &["register", "deregister"],
        Primary::Instantiate => &["instantiate"],
    };
    let mut layer_self: BTreeMap<&'static str, Samples> = BTreeMap::new();
    let mut in_process = Samples::new();
    for (rid, layers) in tr.layer_self_times() {
        let kind = usize::try_from(rid).ok().and_then(|i| traced.kinds.get(i));
        if !kind.is_some_and(|k| primary_ops.contains(k)) {
            continue;
        }
        for layer in ["codec", "registry", "store", "request"] {
            let ns = layers.get(layer).copied().unwrap_or(0);
            layer_self.entry(layer).or_default().push(ns as f64 / 1e3);
        }
        in_process.push(layers.values().sum::<u64>() as f64 / 1e3);
    }
    for layer in ["codec", "registry", "store", "request"] {
        let (v, n) = mean(layer_self.remove(layer).unwrap_or_default());
        let name = format!("self.{layer}_us");
        if layer == "request" {
            rep.add_note(
                &name,
                v,
                "us",
                n,
                "(request glue outside every layer)".to_string(),
            );
        } else {
            rep.add(&name, v, "us", n);
        }
    }
    if let Some(rtt) = client_rtt_us {
        let n = in_process.len();
        rep.add_note(
            "trace.residual_us",
            rtt - in_process.median(),
            "us",
            n,
            "(client p50 round trip minus the p50 of the layers' summed self time: \
             transport, event loop and client)"
                .to_string(),
        );
    }
    let overhead = 100.0 * (traced.prefix.as_secs_f64() / plain.prefix.as_secs_f64() - 1.0);
    rep.add_note(
        "trace.overhead_pct",
        overhead,
        "%",
        tr.spans().len(),
        format!(
            "(first {OVERHEAD_STEPS} replay steps with spans vs the same steps without; \
             within run-to-run noise when small)"
        ),
    );
    rep.add("trace.span_ns", crate::trace::span_cost_ns(), "ns", 100_000);

    let path = o.spans.join(format!("spans-{workload}-{}.json", o.seed));
    let json = serde_json::to_string(&tr.to_json()).expect("spans encode");
    std::fs::write(&path, json).map_err(|e| format!("{}: {e}", path.display()))?;
    println!("# spans written to {}", path.display());

    let mut script = make();
    templates(&mut script, rep)?;
    allocator(make(), rep)
}
