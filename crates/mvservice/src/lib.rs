//! `mvservice` — the online allocation service.
//!
//! A long-running daemon (plus client library) that keeps the unique
//! optimal robust allocation of a *changing* workload continuously
//! available, built from three layers:
//!
//! - [`Registry`]: the online workload registry. Transactions register
//!   and deregister at runtime; each mutation runs the incremental
//!   delta reallocation ([`mvrobustness::Allocator::add_txn`] /
//!   [`mvrobustness::Allocator::remove_txn`]), which reuses cached
//!   counterexamples and monotonicity floors yet produces bit-for-bit
//!   the from-scratch optimum. [`Registry::assign`] reads the cached
//!   allocation in O(1).
//! - Template admission: `template_register` audits a parameterized
//!   template once against its whole bounded instantiation envelope
//!   ([`mvtemplates::TemplateCatalog`]); `instantiate` then admits each
//!   instance at the precomputed level in O(1) without ever calling the
//!   allocator. Ad-hoc `register` keeps the per-transaction delta path.
//! - [`protocol`]: newline-delimited JSON over TCP — std-only, no
//!   framing beyond `\n`, structured error replies (a malformed request
//!   never drops the connection).
//! - [`Server`] / [`Client`]: an event-loop daemon (one readiness-polled
//!   thread owns every connection) with per-request timeouts, graceful
//!   shutdown (`shutdown` request, [`ServerHandle::shutdown`], or
//!   `SIGINT`/`SIGTERM` via [`install_signal_handlers`]), and
//!   [`Metrics`] — request counters and p50/p99 service latencies,
//!   surfaced by the `stats` op.
//!
//! Fault tolerance is first-class:
//!
//! - [`fault`]: a deterministic fault-injection seam. A seeded
//!   [`FaultPlan`] scripts connection drops, truncated reply frames,
//!   slow responses, and forced reallocation failures/timeouts; every
//!   decision is a pure function of its injection coordinates, so the
//!   same seed always produces the same schedule regardless of thread
//!   interleaving. With no plan configured the hook is absent and the
//!   hot path pays one branch.
//! - Degradation: a failed or timed-out reallocation is *rolled back*
//!   — the registry keeps serving the last-known-good allocation
//!   (still the exact batch optimum of the applied set), marks itself
//!   degraded, and surfaces `stale` / `failed_reallocs` in replies and
//!   `stats`.
//! - [`RetryClient`]: exponential backoff + deterministic jitter with
//!   idempotent `req_id`s, so a retried mutation is applied exactly
//!   once (the server answers replays from its idempotency cache).
//!
//! The CLI front end is `mvrobust serve` / `mvrobust client`.
//!
//! The crate is unix-only: the socket core polls raw fds.

#[cfg(not(unix))]
compile_error!("mvservice needs a unix target: its event-loop socket core polls raw fds");

pub mod client;
pub mod codec;
pub(crate) mod event;
pub mod fault;
pub mod metrics;
pub mod namespace;
pub mod poll;
pub mod protocol;
pub mod registry;
pub mod server;
pub mod store;

pub use client::{BatchOp, Client, ClientError, RetryClient, RetryPolicy, RetryStats};
pub use codec::{
    decode_value, encode_payload, encode_raw_frame, encode_value, CodecAccept, CodecKind,
    DrainPlan, FrameBuf, FrameError, Payload, FRAME_MAGIC,
};
pub use fault::{FaultAction, FaultHook, FaultPlan, InjectedFault, ReallocFault, ScriptedFaults};
pub use metrics::Metrics;
pub use namespace::{Namespaces, RegistryTemplate, DEFAULT_TENANT};
pub use protocol::{Request, MAX_FRAME};
pub use registry::{
    BatchReply, RegisteredTxn, Registry, RegistryError, RegistryEvent, TemplateInfo,
};
pub use server::{install_signal_handlers, Config, Server, ServerHandle};
pub use store::{Durability, Recovered, SnapshotState, Store, TenantSnapshot, WalRecord};
