//! The durability subsystem: a binary write-ahead event log plus
//! periodic snapshots, giving the multi-tenant registry crash recovery.
//!
//! # Log format
//!
//! The WAL (`wal.log`) is a sequence of *records*, each framed exactly
//! like a wire frame ([`crate::codec`]) with a trailing checksum:
//!
//! ```text
//! 0xB1 · u32-le payload length · payload (compact value encoding) · u32-le CRC32(payload)
//! ```
//!
//! The payload is the record as a JSON value — `seq` (global,
//! monotone), `tenant`, the mutation (`op` + `txn`/`txn_id`), the
//! optional idempotency `req_id`, and the **full reply** the client
//! received. Logging the reply is what makes recovery client-exact:
//! the replay cache is reseeded with the original replies, so a retry
//! that arrives after a crash still replays bit-identically instead of
//! re-executing. Only *applied* mutations are logged (failed ones left
//! no state behind), and a record is appended under its tenant's
//! registry lock, so per-tenant log order always equals apply order.
//!
//! A torn tail — a record cut mid-write by a crash — is detected by an
//! incomplete frame or a CRC mismatch; recovery stops at the last good
//! record and truncates the file there (standard WAL discipline; cf.
//! the `commitlog` crates of production event-sourced stores).
//!
//! # Snapshots
//!
//! Every `snapshot_every` appended records the server captures a
//! consistent snapshot (all tenant registries locked, see
//! `server::maybe_snapshot`): per-tenant transaction lines and the
//! served allocation, the replay cache, and the shared component
//! fingerprint cache. The snapshot is one framed+checksummed value
//! written to `snap-<seq>.tmp`, fsynced, renamed to `snap-<seq>.snap`
//! (write-temp-then-rename: a crash mid-write leaves the previous
//! generation intact), then the directory is fsynced, older
//! generations are deleted and the WAL is truncated. Records carry
//! global seq numbers precisely so a crash *between* rename and
//! truncate is harmless: recovery skips WAL records with
//! `seq ≤ snapshot seq`.
//!
//! # Recovery
//!
//! [`Store::open`] loads the newest snapshot that validates (older
//! generations are fallbacks), then replays the WAL tail. The caller
//! rebuilds registries by re-registering the snapshot lines —
//! re-solving, not trusting — and checks the **recovery invariant**:
//! the recomputed allocation must equal the snapshotted one
//! (uniqueness of the optimum, Proposition 4.2, makes this exact).
//! The shared fingerprint cache is restored *first*, so the
//! re-registration is answered almost entirely from cache.
//!
//! # Fsync policy
//!
//! [`Durability`] picks when `fsync` runs: `none` never (OS page cache
//! only), `event` after every record, `batch` once per group-commit
//! drain ([`Store::commit`]) — one fsync covers a whole coalesced
//! batch, the same alignment group commit gives the engine.

use crate::codec::{decode_value, encode_value, Encoder, FRAME_HEADER, FRAME_MAGIC};
use crate::registry::RegistryEvent;
use mvmodel::TxnId;
use serde_json::{json, Value};
use std::fs::{self, File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;

/// When the WAL is fsynced.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum Durability {
    /// Never fsync: appends reach the OS page cache only. Survives
    /// process crashes, not host crashes.
    None,
    /// One fsync per commit point — per group-commit drain when
    /// batching, per mutation otherwise.
    #[default]
    Batch,
    /// Fsync after every appended record, even inside a drain.
    Event,
}

impl Durability {
    pub fn as_str(self) -> &'static str {
        match self {
            Durability::None => "none",
            Durability::Batch => "batch",
            Durability::Event => "event",
        }
    }
}

impl std::fmt::Display for Durability {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

impl std::str::FromStr for Durability {
    type Err = String;
    fn from_str(s: &str) -> Result<Self, String> {
        match s {
            "none" => Ok(Durability::None),
            "batch" => Ok(Durability::Batch),
            "event" => Ok(Durability::Event),
            other => Err(format!(
                "unknown durability `{other}` (expected none, batch or event)"
            )),
        }
    }
}

/// CRC-32 (IEEE 802.3, the zlib polynomial), table-driven.
const CRC_TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
};

/// The checksum guarding every stored frame.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    for &b in bytes {
        c = CRC_TABLE[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

/// One durable mutation: what was applied, where, and what the client
/// was told.
#[derive(Clone, Debug, PartialEq)]
pub struct WalRecord {
    /// Global, monotone sequence number (never reset by truncation).
    pub seq: u64,
    pub tenant: String,
    pub event: RegistryEvent,
    /// The idempotency key the client sent, if any.
    pub req_id: Option<u64>,
    /// The exact reply the client received — reseeds the replay cache.
    pub reply: Value,
}

impl WalRecord {
    fn to_value(&self) -> Value {
        let mut v = json!({
            "seq": self.seq,
            "tenant": self.tenant.as_str(),
        });
        match &self.event {
            RegistryEvent::Register(line) => {
                v["op"] = Value::from("register");
                v["txn"] = Value::from(line.as_str());
            }
            RegistryEvent::Deregister(id) => {
                v["op"] = Value::from("deregister");
                v["txn_id"] = Value::from(id.0);
            }
            RegistryEvent::TemplateRegister(line) => {
                v["op"] = Value::from("template_register");
                v["template"] = Value::from(line.as_str());
            }
            RegistryEvent::Instantiate {
                template_id,
                params,
            } => {
                v["op"] = Value::from("instantiate");
                v["template_id"] = Value::from(*template_id as u64);
                v["params"] = Value::Array(params.iter().map(|&p| Value::from(p as u64)).collect());
            }
        }
        if let Some(rid) = self.req_id {
            v["req_id"] = Value::from(rid);
        }
        v["reply"] = self.reply.clone();
        v
    }

    fn from_value(v: &Value) -> Result<WalRecord, String> {
        let seq = v["seq"].as_u64().ok_or("record missing `seq`")?;
        let tenant = v["tenant"]
            .as_str()
            .ok_or("record missing `tenant`")?
            .to_string();
        let event = match v["op"].as_str() {
            Some("register") => RegistryEvent::Register(
                v["txn"]
                    .as_str()
                    .ok_or("register record missing `txn`")?
                    .to_string(),
            ),
            Some("deregister") => {
                let raw = v["txn_id"]
                    .as_u64()
                    .ok_or("deregister record missing `txn_id`")?;
                let id = u32::try_from(raw).map_err(|_| "txn_id out of range".to_string())?;
                RegistryEvent::Deregister(TxnId(id))
            }
            Some("template_register") => RegistryEvent::TemplateRegister(
                v["template"]
                    .as_str()
                    .ok_or("template_register record missing `template`")?
                    .to_string(),
            ),
            Some("instantiate") => {
                let template_id = v["template_id"]
                    .as_u64()
                    .ok_or("instantiate record missing `template_id`")?
                    as usize;
                let params = v["params"]
                    .as_array()
                    .ok_or("instantiate record missing `params`")?
                    .iter()
                    .map(|p| {
                        p.as_u64()
                            .and_then(|raw| u32::try_from(raw).ok())
                            .ok_or("bad param in instantiate record")
                    })
                    .collect::<Result<Vec<_>, _>>()?;
                RegistryEvent::Instantiate {
                    template_id,
                    params,
                }
            }
            other => return Err(format!("unknown record op {other:?}")),
        };
        let req_id = match &v["req_id"] {
            Value::Null => None,
            other => Some(other.as_u64().ok_or("bad `req_id` in record")?),
        };
        Ok(WalRecord {
            seq,
            tenant,
            event,
            req_id,
            reply: v["reply"].clone(),
        })
    }
}

/// One tenant's state inside a snapshot.
#[derive(Clone, Debug, PartialEq)]
pub struct TenantSnapshot {
    pub name: String,
    /// Canonical transaction lines, registration order — re-registering
    /// them rebuilds the registry.
    pub lines: Vec<String>,
    /// The allocation served at snapshot time, `(txn id, level)` — the
    /// recovery invariant: re-solving the lines must reproduce exactly
    /// this (Proposition 4.2).
    pub alloc: Vec<(u32, String)>,
    /// Catalog templates `(rendered line, audited level)`, registration
    /// order — re-registering them in order rebuilds the catalog, and
    /// the recomputed level must equal the stored one (the catalog
    /// recovery invariant).
    pub templates: Vec<(String, String)>,
    /// Fast-path instance counts, indexed by template id.
    pub instances: Vec<u64>,
}

/// A cached component entry as persisted: `None` = unallocatable,
/// `Some` = the member levels of the unique optimum.
pub type StoredCompEntry = Option<Vec<(u32, String)>>;

/// Everything a snapshot captures.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct SnapshotState {
    /// Tenants, ascending by name.
    pub tenants: Vec<TenantSnapshot>,
    /// Replay-cache entries: `(tenant, req_id, reply)`, insertion order.
    pub replays: Vec<(String, u64, Value)>,
    /// Shared fingerprint-cache entries under their salted keys.
    pub cache: Vec<(u128, StoredCompEntry)>,
}

impl SnapshotState {
    /// Appends the snapshot payload for `seq` to `out`, encoded straight
    /// from the state: the bytes [`encode_value`] gives the value
    /// `{version, seq, tenants, replays, cache}` that
    /// [`SnapshotState::from_value`] reads, without building that tree.
    fn encode(&self, seq: u64, out: &mut Vec<u8>) {
        let mut e = Encoder(out);
        e.object(5);
        e.key("version");
        e.u64(1);
        e.key("seq");
        e.u64(seq);
        e.key("tenants");
        e.array(self.tenants.len());
        for t in &self.tenants {
            e.object(5);
            e.key("name");
            e.str(&t.name);
            e.key("lines");
            e.array(t.lines.len());
            for line in &t.lines {
                e.str(line);
            }
            e.key("alloc");
            encode_id_levels(&mut e, &t.alloc);
            e.key("templates");
            e.array(t.templates.len());
            for (line, lvl) in &t.templates {
                e.array(2);
                e.str(line);
                e.str(lvl);
            }
            e.key("instances");
            e.array(t.instances.len());
            for &n in &t.instances {
                e.u64(n);
            }
        }
        e.key("replays");
        e.array(self.replays.len());
        for (tenant, rid, reply) in &self.replays {
            e.array(3);
            e.str(tenant);
            e.u64(*rid);
            e.value(reply);
        }
        e.key("cache");
        e.array(self.cache.len());
        for (key, entry) in &self.cache {
            e.array(3);
            e.u64((*key >> 64) as u64);
            e.u64(*key as u64);
            match entry {
                None => e.null(),
                Some(lvls) => encode_id_levels(&mut e, lvls),
            }
        }
    }

    fn from_value(v: &Value) -> Result<(SnapshotState, u64), String> {
        if v["version"].as_u64() != Some(1) {
            return Err(format!("unknown snapshot version {:?}", v["version"]));
        }
        let seq = v["seq"].as_u64().ok_or("snapshot missing `seq`")?;
        let mut state = SnapshotState::default();
        for t in v["tenants"]
            .as_array()
            .ok_or("snapshot missing `tenants`")?
        {
            let name = t["name"].as_str().ok_or("tenant missing `name`")?;
            let lines = t["lines"]
                .as_array()
                .ok_or("tenant missing `lines`")?
                .iter()
                .map(|l| l.as_str().map(str::to_string).ok_or("non-string line"))
                .collect::<Result<Vec<_>, _>>()?;
            let alloc = t["alloc"]
                .as_array()
                .ok_or("tenant missing `alloc`")?
                .iter()
                .map(parse_id_level)
                .collect::<Result<Vec<_>, _>>()?;
            // Catalog fields are optional: snapshots written before the
            // template fast path existed decode as empty catalogs.
            let templates = match &t["templates"] {
                Value::Null => Vec::new(),
                Value::Array(items) => items
                    .iter()
                    .map(|pair| {
                        let line = pair[0].as_str().ok_or("template missing line")?;
                        let lvl = pair[1].as_str().ok_or("template missing level")?;
                        Ok::<_, &'static str>((line.to_string(), lvl.to_string()))
                    })
                    .collect::<Result<Vec<_>, _>>()?,
                _ => return Err("malformed `templates` in tenant".to_string()),
            };
            let instances = match &t["instances"] {
                Value::Null => vec![0; templates.len()],
                Value::Array(items) => items
                    .iter()
                    .map(|c| c.as_u64().ok_or("bad instance count"))
                    .collect::<Result<Vec<_>, _>>()?,
                _ => return Err("malformed `instances` in tenant".to_string()),
            };
            if instances.len() != templates.len() {
                return Err("tenant `instances` length disagrees with `templates`".to_string());
            }
            state.tenants.push(TenantSnapshot {
                name: name.to_string(),
                lines,
                alloc,
                templates,
                instances,
            });
        }
        for r in v["replays"]
            .as_array()
            .ok_or("snapshot missing `replays`")?
        {
            let tenant = r[0].as_str().ok_or("replay missing tenant")?;
            let rid = r[1].as_u64().ok_or("replay missing req_id")?;
            state.replays.push((tenant.to_string(), rid, r[2].clone()));
        }
        for c in v["cache"].as_array().ok_or("snapshot missing `cache`")? {
            let hi = c[0].as_u64().ok_or("cache key missing high half")?;
            let lo = c[1].as_u64().ok_or("cache key missing low half")?;
            let entry = match &c[2] {
                Value::Null => None,
                Value::Array(lvls) => Some(
                    lvls.iter()
                        .map(parse_id_level)
                        .collect::<Result<Vec<_>, _>>()?,
                ),
                _ => return Err("malformed cache entry".to_string()),
            };
            state
                .cache
                .push(((u128::from(hi) << 64) | u128::from(lo), entry));
        }
        Ok((state, seq))
    }
}

/// `[[id, level], …]`, as [`parse_id_level`] reads each pair.
fn encode_id_levels(e: &mut Encoder<'_>, pairs: &[(u32, String)]) {
    e.array(pairs.len());
    for (id, lvl) in pairs {
        e.array(2);
        e.u64(u64::from(*id));
        e.str(lvl);
    }
}

fn parse_id_level(pair: &Value) -> Result<(u32, String), &'static str> {
    let id = pair[0].as_u64().ok_or("missing txn id")?;
    let id = u32::try_from(id).map_err(|_| "txn id out of range")?;
    let lvl = pair[1].as_str().ok_or("missing level")?;
    Ok((id, lvl.to_string()))
}

/// What [`Store::open`] reconstructed from disk.
#[derive(Debug, Default)]
pub struct Recovered {
    /// The newest valid snapshot, if any.
    pub snapshot: Option<SnapshotState>,
    /// The sequence number the snapshot covers (0 = none).
    pub snapshot_seq: u64,
    /// WAL records past the snapshot, replay order.
    pub records: Vec<WalRecord>,
    /// Bytes discarded from a torn WAL tail (0 = clean).
    pub torn_bytes: u64,
}

struct StoreInner {
    wal: File,
    /// The next record's sequence number.
    next_seq: u64,
    /// Records appended since the last snapshot.
    since_snapshot: u64,
    /// The newest snapshot's covered seq.
    snapshot_seq: u64,
}

/// The durable event store: one WAL file plus snapshot generations in
/// one data directory. One per server; internally synchronized.
pub struct Store {
    dir: PathBuf,
    durability: Durability,
    /// Records between snapshots (0 = snapshots disabled).
    snapshot_every: u64,
    inner: Mutex<StoreInner>,
    /// `true` while some thread is mid-snapshot (CAS-guarded).
    snapshotting: AtomicBool,
    appends: AtomicU64,
    fsyncs: AtomicU64,
    snapshots: AtomicU64,
}

impl Store {
    /// Opens (or creates) the data directory, recovers snapshot + WAL
    /// tail, truncates any torn tail, and readies the WAL for appends.
    pub fn open(
        dir: &Path,
        durability: Durability,
        snapshot_every: u64,
    ) -> std::io::Result<(Store, Recovered)> {
        fs::create_dir_all(dir)?;
        let mut recovered = Recovered::default();

        // Newest valid snapshot wins; invalid ones (torn by a crash
        // mid-write before the rename, or bit-rotted) fall through to
        // older generations.
        let mut snaps: Vec<(u64, PathBuf)> = Vec::new();
        for entry in fs::read_dir(dir)? {
            let entry = entry?;
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if let Some(seq) = name
                .strip_prefix("snap-")
                .and_then(|s| s.strip_suffix(".snap"))
                .and_then(|s| s.parse::<u64>().ok())
            {
                snaps.push((seq, entry.path()));
            }
        }
        snaps.sort_by_key(|&(seq, _)| std::cmp::Reverse(seq));
        for (seq, path) in &snaps {
            match load_snapshot(path) {
                Ok(state) => {
                    recovered.snapshot = Some(state);
                    recovered.snapshot_seq = *seq;
                    break;
                }
                Err(_) => continue,
            }
        }

        let wal_path = dir.join("wal.log");
        let mut wal = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(&wal_path)?;
        let mut bytes = Vec::new();
        wal.read_to_end(&mut bytes)?;
        let mut at = 0usize;
        let mut max_seq = recovered.snapshot_seq;
        while let FrameRead::Complete(value, next) = read_framed(&bytes, at) {
            // Framing intact but the payload is not a record: same
            // torn-tail treatment as a corrupt frame.
            let Ok(rec) = WalRecord::from_value(&value) else {
                break;
            };
            max_seq = max_seq.max(rec.seq);
            // A record the snapshot already covers is skipped — the
            // crash-between-rename-and-truncate window.
            if rec.seq > recovered.snapshot_seq {
                recovered.records.push(rec);
            }
            at = next;
        }
        if at < bytes.len() {
            recovered.torn_bytes = (bytes.len() - at) as u64;
            wal.set_len(at as u64)?;
        }
        wal.seek(SeekFrom::End(0))?;

        let store = Store {
            dir: dir.to_path_buf(),
            durability,
            snapshot_every,
            inner: Mutex::new(StoreInner {
                wal,
                next_seq: max_seq + 1,
                since_snapshot: recovered.records.len() as u64,
                snapshot_seq: recovered.snapshot_seq,
            }),
            snapshotting: AtomicBool::new(false),
            appends: AtomicU64::new(0),
            fsyncs: AtomicU64::new(0),
            snapshots: AtomicU64::new(0),
        };
        Ok((store, recovered))
    }

    /// Appends one applied mutation. Callers hold the tenant's registry
    /// lock across apply + append, so per-tenant log order equals apply
    /// order. Fsyncs inline under [`Durability::Event`].
    pub fn append(
        &self,
        tenant: &str,
        event: &RegistryEvent,
        req_id: Option<u64>,
        reply: &Value,
    ) -> std::io::Result<u64> {
        let mut inner = self.inner.lock().expect("store poisoned");
        let seq = inner.next_seq;
        let record = WalRecord {
            seq,
            tenant: tenant.to_string(),
            event: event.clone(),
            req_id,
            reply: reply.clone(),
        };
        let mut frame = Vec::new();
        write_framed(&mut frame, |out| encode_value(&record.to_value(), out));
        inner.wal.write_all(&frame)?;
        inner.next_seq += 1;
        inner.since_snapshot += 1;
        if self.durability == Durability::Event {
            inner.wal.sync_data()?;
            self.fsyncs.fetch_add(1, Ordering::Relaxed);
        }
        self.appends.fetch_add(1, Ordering::Relaxed);
        Ok(seq)
    }

    /// The commit point: one per group-commit drain (or per inline
    /// mutation). Under [`Durability::Batch`] this is where the single
    /// covering fsync happens.
    pub fn commit(&self) -> std::io::Result<()> {
        if self.durability == Durability::Batch {
            let inner = self.inner.lock().expect("store poisoned");
            inner.wal.sync_data()?;
            self.fsyncs.fetch_add(1, Ordering::Relaxed);
        }
        Ok(())
    }

    /// Is a snapshot due? (Enough records since the last one and no
    /// snapshot already running.)
    pub fn wants_snapshot(&self) -> bool {
        self.snapshot_every > 0
            && !self.snapshotting.load(Ordering::Relaxed)
            && self.inner.lock().expect("store poisoned").since_snapshot >= self.snapshot_every
    }

    /// Claims the snapshot slot (one snapshotter at a time). The caller
    /// must pair a `true` with [`Store::write_snapshot`] or
    /// [`Store::abort_snapshot`].
    pub fn begin_snapshot(&self) -> bool {
        self.snapshotting
            .compare_exchange(false, true, Ordering::SeqCst, Ordering::SeqCst)
            .is_ok()
    }

    /// Releases the snapshot slot without writing.
    pub fn abort_snapshot(&self) {
        self.snapshotting.store(false, Ordering::SeqCst);
    }

    /// Persists a consistent snapshot and truncates the WAL. The caller
    /// holds every tenant registry lock, so no append can land between
    /// the captured state and the truncation; the covered seq is
    /// `next_seq - 1`. Write-temp-then-rename keeps the previous
    /// generation intact until the new one is durable.
    pub fn write_snapshot(&self, state: &SnapshotState) -> std::io::Result<u64> {
        let mut inner = self.inner.lock().expect("store poisoned");
        let seq = inner.next_seq - 1;
        let mut framed = Vec::new();
        write_framed(&mut framed, |out| state.encode(seq, out));
        let tmp = self.dir.join(format!("snap-{seq}.tmp"));
        let fin = self.dir.join(format!("snap-{seq}.snap"));
        {
            let mut f = File::create(&tmp)?;
            f.write_all(&framed)?;
            f.sync_all()?;
        }
        fs::rename(&tmp, &fin)?;
        sync_dir(&self.dir);
        self.fsyncs.fetch_add(2, Ordering::Relaxed);
        // Older generations are superseded; the WAL restarts empty.
        // (A crash before these cleanups is safe: recovery prefers the
        // newest valid snapshot and skips covered records by seq.)
        if let Ok(entries) = fs::read_dir(&self.dir) {
            for entry in entries.flatten() {
                let name = entry.file_name();
                let name = name.to_string_lossy().to_string();
                if (name.starts_with("snap-") && name != format!("snap-{seq}.snap"))
                    || name.ends_with(".tmp")
                {
                    let _ = fs::remove_file(entry.path());
                }
            }
        }
        inner.wal.set_len(0)?;
        inner.wal.seek(SeekFrom::Start(0))?;
        inner.since_snapshot = 0;
        inner.snapshot_seq = seq;
        self.snapshots.fetch_add(1, Ordering::Relaxed);
        self.snapshotting.store(false, Ordering::SeqCst);
        Ok(seq)
    }

    /// Flushes buffered data on clean shutdown (never required for
    /// correctness — recovery replays the WAL regardless).
    pub fn flush(&self) -> std::io::Result<()> {
        let inner = self.inner.lock().expect("store poisoned");
        inner.wal.sync_data()
    }

    pub fn durability(&self) -> Durability {
        self.durability
    }

    pub fn data_dir(&self) -> &Path {
        &self.dir
    }

    /// Records appended this run.
    pub fn appends(&self) -> u64 {
        self.appends.load(Ordering::Relaxed)
    }

    /// Fsyncs issued this run (WAL and snapshot files).
    pub fn fsyncs(&self) -> u64 {
        self.fsyncs.load(Ordering::Relaxed)
    }

    /// Snapshots written this run.
    pub fn snapshots(&self) -> u64 {
        self.snapshots.load(Ordering::Relaxed)
    }

    /// The sequence number the next record will get.
    pub fn next_seq(&self) -> u64 {
        self.inner.lock().expect("store poisoned").next_seq
    }

    /// Records appended since the last snapshot.
    pub fn since_snapshot(&self) -> u64 {
        self.inner.lock().expect("store poisoned").since_snapshot
    }
}

/// One framed value read attempt against `bytes[at..]`.
enum FrameRead {
    /// A validated value and the offset just past its frame.
    Complete(Value, usize),
    /// The tail holds part of a frame — a torn write.
    Incomplete,
    /// Framing or checksum violation — treated like a torn tail.
    Corrupt,
}

/// Appends `magic · len · payload · crc` to `out`, with `payload` the
/// bytes `encode` appends: the header is reserved, then patched with the
/// length, and the checksum covers the payload slice in place.
fn write_framed(out: &mut Vec<u8>, encode: impl FnOnce(&mut Vec<u8>)) {
    let header_at = out.len();
    out.push(FRAME_MAGIC);
    out.extend_from_slice(&[0; 4]);
    let body_at = out.len();
    encode(out);
    let plen = (out.len() - body_at) as u32;
    out[header_at + 1..header_at + FRAME_HEADER].copy_from_slice(&plen.to_le_bytes());
    let crc = crc32(&out[body_at..]);
    out.extend_from_slice(&crc.to_le_bytes());
}

fn read_framed(bytes: &[u8], at: usize) -> FrameRead {
    let tail = &bytes[at.min(bytes.len())..];
    if tail.is_empty() {
        return FrameRead::Incomplete;
    }
    if tail[0] != FRAME_MAGIC {
        return FrameRead::Corrupt;
    }
    if tail.len() < FRAME_HEADER {
        return FrameRead::Incomplete;
    }
    let plen = u32::from_le_bytes([tail[1], tail[2], tail[3], tail[4]]) as usize;
    let total = FRAME_HEADER + plen + 4;
    if tail.len() < total {
        return FrameRead::Incomplete;
    }
    let payload = &tail[FRAME_HEADER..FRAME_HEADER + plen];
    let stored = u32::from_le_bytes([
        tail[FRAME_HEADER + plen],
        tail[FRAME_HEADER + plen + 1],
        tail[FRAME_HEADER + plen + 2],
        tail[FRAME_HEADER + plen + 3],
    ]);
    if crc32(payload) != stored {
        return FrameRead::Corrupt;
    }
    match decode_value(payload) {
        Ok(v) => FrameRead::Complete(v, at + total),
        Err(_) => FrameRead::Corrupt,
    }
}

fn load_snapshot(path: &Path) -> Result<SnapshotState, String> {
    let bytes = fs::read(path).map_err(|e| e.to_string())?;
    match read_framed(&bytes, 0) {
        FrameRead::Complete(v, end) if end == bytes.len() => {
            SnapshotState::from_value(&v).map(|(state, _)| state)
        }
        _ => Err("snapshot frame invalid".to_string()),
    }
}

/// Fsyncs a directory so a rename inside it is durable (POSIX requires
/// syncing the parent). Best-effort: a failure leaves the rename as
/// durable as the filesystem makes it on its own.
fn sync_dir(dir: &Path) {
    if let Ok(d) = File::open(dir) {
        let _ = d.sync_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "mvstore-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn record(seq: u64, tenant: &str, line: &str, rid: Option<u64>) -> WalRecord {
        WalRecord {
            seq,
            tenant: tenant.to_string(),
            event: RegistryEvent::Register(line.to_string()),
            req_id: rid,
            reply: json!({"ok": true, "txn_id": seq, "level": "RC"}),
        }
    }

    #[test]
    fn wal_record_value_encoding_round_trips() {
        let r = record(42, "acme", "T7: R[x] W[y]", Some(0xfeed));
        assert_eq!(WalRecord::from_value(&r.to_value()).unwrap(), r);
        let r = record(43, "default", "T8: W[z]", None);
        assert_eq!(WalRecord::from_value(&r.to_value()).unwrap(), r);
    }

    #[test]
    fn template_wal_records_round_trip() {
        let reg = WalRecord {
            seq: 44,
            tenant: "acme".to_string(),
            event: RegistryEvent::TemplateRegister("Balance: R[sav:$0] R[chk:$0]".to_string()),
            req_id: Some(9),
            reply: json!({"ok": true, "template_id": 0, "level": "RC"}),
        };
        assert_eq!(WalRecord::from_value(&reg.to_value()).unwrap(), reg);
        let inst = WalRecord {
            seq: 45,
            tenant: "acme".to_string(),
            event: RegistryEvent::Instantiate {
                template_id: 0,
                params: vec![7, 1_000_000],
            },
            req_id: None,
            reply: json!({"ok": true, "level": "RC", "instances": 1}),
        };
        assert_eq!(WalRecord::from_value(&inst.to_value()).unwrap(), inst);
    }

    #[test]
    fn pre_template_snapshots_decode_with_empty_catalogs() {
        // A version-1 tenant object written before the template fast
        // path existed has no `templates`/`instances` fields.
        let tenant = json!({
            "name": "old",
            "lines": json!(["T1: W[x] C"]),
            "alloc": json!([json!([1, "RC"])]),
        });
        let v = json!({
            "version": 1,
            "seq": 3,
            "tenants": Value::Array(vec![tenant]),
            "replays": Value::Array(Vec::new()),
            "cache": Value::Array(Vec::new()),
        });
        let (state, seq) = SnapshotState::from_value(&v).unwrap();
        assert_eq!(seq, 3);
        assert_eq!(state.tenants[0].templates, Vec::new());
        assert_eq!(state.tenants[0].instances, Vec::new());
    }

    #[test]
    fn crc32_matches_the_ieee_check_value() {
        // The canonical CRC-32 test vector.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn wal_records_round_trip_and_reopen_continues_seq() {
        let dir = tmp_dir("roundtrip");
        let (store, rec) = Store::open(&dir, Durability::Event, 0).unwrap();
        assert!(rec.snapshot.is_none() && rec.records.is_empty());
        let ev = RegistryEvent::Register("T1: R[x] W[y]".to_string());
        let reply = json!({"ok": true, "txn_id": 1, "level": "SSI", "req_id": 9});
        assert_eq!(store.append("acme", &ev, Some(9), &reply).unwrap(), 1);
        let ev2 = RegistryEvent::Deregister(TxnId(1));
        let reply2 = json!({"ok": true, "txn_id": 1});
        assert_eq!(store.append("acme", &ev2, None, &reply2).unwrap(), 2);
        assert_eq!(store.appends(), 2);
        assert!(store.fsyncs() >= 2, "event durability syncs per record");
        drop(store);

        let (store, rec) = Store::open(&dir, Durability::Batch, 0).unwrap();
        assert_eq!(rec.torn_bytes, 0);
        assert_eq!(rec.records.len(), 2);
        assert_eq!(rec.records[0].tenant, "acme");
        assert_eq!(rec.records[0].req_id, Some(9));
        assert_eq!(rec.records[0].reply, reply);
        assert!(matches!(
            rec.records[1].event,
            RegistryEvent::Deregister(TxnId(1))
        ));
        assert_eq!(
            store.next_seq(),
            3,
            "seq continues after the recovered tail"
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_tail_is_detected_and_truncated() {
        let dir = tmp_dir("torn");
        let (store, _) = Store::open(&dir, Durability::None, 0).unwrap();
        let ev = RegistryEvent::Register("T1: W[x]".to_string());
        store
            .append("default", &ev, None, &json!({"ok": true}))
            .unwrap();
        store
            .append("default", &ev, None, &json!({"ok": true}))
            .unwrap();
        store.flush().unwrap();
        drop(store);
        // Crash mid-append: chop the last record's final 3 bytes.
        let wal = dir.join("wal.log");
        let full = fs::read(&wal).unwrap();
        fs::write(&wal, &full[..full.len() - 3]).unwrap();

        let (store, rec) = Store::open(&dir, Durability::None, 0).unwrap();
        assert_eq!(rec.records.len(), 1, "only the intact record survives");
        assert_eq!(rec.torn_bytes as usize, full.len() / 2 - 3);
        // The file was truncated back to the good prefix and appending
        // resumes cleanly.
        assert_eq!(fs::read(&wal).unwrap().len(), full.len() / 2);
        store
            .append("default", &ev, None, &json!({"ok": true}))
            .unwrap();
        drop(store);
        let (_, rec) = Store::open(&dir, Durability::None, 0).unwrap();
        assert_eq!(rec.records.len(), 2);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_record_stops_replay_at_the_last_good_one() {
        let dir = tmp_dir("corrupt");
        let (store, _) = Store::open(&dir, Durability::None, 0).unwrap();
        let ev = RegistryEvent::Register("T1: W[x]".to_string());
        store
            .append("default", &ev, None, &json!({"ok": true}))
            .unwrap();
        store
            .append("default", &ev, None, &json!({"ok": true}))
            .unwrap();
        store.flush().unwrap();
        drop(store);
        // Flip one payload byte of the second record: CRC catches it.
        let wal = dir.join("wal.log");
        let mut bytes = fs::read(&wal).unwrap();
        let mid = bytes.len() / 2 + FRAME_HEADER + 2;
        bytes[mid] ^= 0xFF;
        fs::write(&wal, &bytes).unwrap();
        let (_, rec) = Store::open(&dir, Durability::None, 0).unwrap();
        assert_eq!(rec.records.len(), 1);
        assert!(rec.torn_bytes > 0);
        let _ = fs::remove_dir_all(&dir);
    }

    /// The value tree snapshots were once encoded from: the oracle of
    /// the streamed snapshot encoding.
    fn to_value(state: &SnapshotState, seq: u64) -> Value {
        let tenants: Vec<Value> = state
            .tenants
            .iter()
            .map(|t| {
                json!({
                    "name": t.name.as_str(),
                    "lines": t.lines.clone(),
                    "alloc": t.alloc.iter()
                        .map(|(id, lvl)| json!([*id, lvl.as_str()]))
                        .collect::<Vec<_>>(),
                    "templates": t.templates.iter()
                        .map(|(line, lvl)| json!([line.as_str(), lvl.as_str()]))
                        .collect::<Vec<_>>(),
                    "instances": t.instances.clone(),
                })
            })
            .collect();
        let replays: Vec<Value> = state
            .replays
            .iter()
            .map(|(tenant, rid, reply)| json!([tenant.as_str(), *rid, reply.clone()]))
            .collect();
        let cache: Vec<Value> = state
            .cache
            .iter()
            .map(|(key, entry)| {
                let stored = match entry {
                    None => Value::Null,
                    Some(lvls) => Value::Array(
                        lvls.iter()
                            .map(|(id, lvl)| json!([*id, lvl.as_str()]))
                            .collect(),
                    ),
                };
                json!([(*key >> 64) as u64, *key as u64, stored])
            })
            .collect();
        json!({
            "version": 1,
            "seq": seq,
            "tenants": tenants,
            "replays": replays,
            "cache": cache,
        })
    }

    #[test]
    fn streamed_snapshot_bytes_equal_the_value_tree_encoding() {
        let state = SnapshotState {
            tenants: vec![
                TenantSnapshot {
                    name: "acme".to_string(),
                    lines: vec!["T1: R[a] W[b] C".to_string(), "T2: W[a] C".to_string()],
                    alloc: vec![(1, "SSI".to_string()), (2, "RC".to_string())],
                    templates: vec![
                        ("Balance: R[sav:$0] R[chk:$0]".to_string(), "RC".to_string()),
                        ("Deposit: R[chk:$0] W[chk:$0]".to_string(), "SI".to_string()),
                    ],
                    instances: vec![3, u64::MAX],
                },
                TenantSnapshot {
                    name: "default".to_string(),
                    lines: Vec::new(),
                    alloc: Vec::new(),
                    templates: Vec::new(),
                    instances: Vec::new(),
                },
            ],
            replays: vec![
                ("acme".to_string(), 7, json!({"ok": true, "req_id": 7})),
                (
                    "default".to_string(),
                    0,
                    json!({"ok": false, "error": "x", "n": -1}),
                ),
            ],
            cache: vec![
                (
                    (9u128 << 64) | 42,
                    Some(vec![(1, "SSI".to_string()), (2, "SI".to_string())]),
                ),
                (u128::MAX, None),
                (0, Some(Vec::new())),
            ],
        };
        for (s, seq) in [(&state, 12u64), (&SnapshotState::default(), 0)] {
            let mut streamed = Vec::new();
            s.encode(seq, &mut streamed);
            let mut tree = Vec::new();
            encode_value(&to_value(s, seq), &mut tree);
            assert_eq!(streamed, tree);
            let (back, back_seq) =
                SnapshotState::from_value(&decode_value(&streamed).unwrap()).unwrap();
            assert_eq!((&back, back_seq), (s, seq));
        }
    }

    #[test]
    fn snapshot_round_trips_truncates_and_skips_covered_records() {
        let dir = tmp_dir("snap");
        let (store, _) = Store::open(&dir, Durability::Batch, 4).unwrap();
        let ev = RegistryEvent::Register("T1: R[a] W[b]".to_string());
        for _ in 0..4 {
            store.append("t1", &ev, None, &json!({"ok": true})).unwrap();
        }
        store.commit().unwrap();
        assert!(store.wants_snapshot());
        assert!(store.begin_snapshot());
        assert!(!store.begin_snapshot(), "slot is exclusive");
        let state = SnapshotState {
            tenants: vec![TenantSnapshot {
                name: "t1".to_string(),
                lines: vec!["T1: R[a] W[b] C".to_string()],
                alloc: vec![(1, "RC".to_string())],
                templates: vec![("Balance: R[sav:$0] R[chk:$0]".to_string(), "RC".to_string())],
                instances: vec![42],
            }],
            replays: vec![("t1".to_string(), 7, json!({"ok": true, "req_id": 7}))],
            cache: vec![
                (
                    42,
                    Some(vec![(1, "SSI".to_string()), (2, "SI".to_string())]),
                ),
                (7, None),
            ],
        };
        let seq = store.write_snapshot(&state).unwrap();
        assert_eq!(seq, 4);
        assert!(!store.wants_snapshot(), "counter reset");
        // Post-snapshot records land in the fresh WAL.
        store.append("t1", &ev, None, &json!({"ok": true})).unwrap();
        store.commit().unwrap();
        drop(store);

        let (_, rec) = Store::open(&dir, Durability::Batch, 4).unwrap();
        assert_eq!(rec.snapshot_seq, 4);
        assert_eq!(rec.snapshot.as_ref().unwrap(), &state);
        assert_eq!(
            rec.records.len(),
            1,
            "only the post-snapshot record replays"
        );
        assert_eq!(rec.records[0].seq, 5);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn invalid_newest_snapshot_falls_back_to_the_older_generation() {
        let dir = tmp_dir("fallback");
        let (store, _) = Store::open(&dir, Durability::Batch, 0).unwrap();
        let ev = RegistryEvent::Register("T1: W[x]".to_string());
        store.append("a", &ev, None, &json!({"ok": true})).unwrap();
        assert!(store.begin_snapshot());
        let good = SnapshotState {
            tenants: vec![TenantSnapshot {
                name: "a".to_string(),
                lines: vec!["T1: W[x] C".to_string()],
                alloc: vec![(1, "RC".to_string())],
                templates: Vec::new(),
                instances: Vec::new(),
            }],
            ..SnapshotState::default()
        };
        store.write_snapshot(&good).unwrap();
        drop(store);
        // A newer snapshot generation that never finished its payload.
        fs::write(dir.join("snap-99.snap"), b"\xb1garbage").unwrap();
        let (_, rec) = Store::open(&dir, Durability::Batch, 0).unwrap();
        assert_eq!(rec.snapshot_seq, 1, "fell back past the corrupt generation");
        assert_eq!(rec.snapshot.unwrap(), good);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn durability_parses_and_prints() {
        for (s, d) in [
            ("none", Durability::None),
            ("batch", Durability::Batch),
            ("event", Durability::Event),
        ] {
            assert_eq!(s.parse::<Durability>().unwrap(), d);
            assert_eq!(d.as_str(), s);
        }
        assert!("fsync".parse::<Durability>().is_err());
    }
}
