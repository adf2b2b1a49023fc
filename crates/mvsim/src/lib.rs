//! A discrete MVCC execution simulator with per-transaction isolation
//! levels — the "database" the paper's definitions abstract.
//!
//! The engine implements the concurrency-control mechanisms of
//! Postgres-style multiversion systems, specialized per transaction the
//! way `SET TRANSACTION ISOLATION LEVEL` does:
//!
//! - **RC**: every read observes the latest committed version at the time
//!   of the read (per-statement snapshot);
//! - **SI / SSI**: every read observes the snapshot taken at the
//!   transaction's first operation; writes by concurrent transactions
//!   abort the writer at write or unblock time (*first-committer-wins*);
//! - **all levels**: writes take exclusive object locks held until commit
//!   (no dirty writes), with FIFO wakeup and waits-for deadlock detection;
//! - **SSI**: dangerous structures among SSI transactions are prevented at
//!   commit time. Two detectors are provided (see [`SsiMode`]): the
//!   *exact* detector aborts a committing transaction iff its commit would
//!   complete a dangerous structure (zero false positives — an idealized
//!   SSI), and the *conservative* detector reproduces Cahill-style
//!   `inConflict`/`outConflict` flag tracking with its false-positive
//!   aborts.
//!
//! These semantics live once, in one MVCC core over one version store,
//! one lock table and one SSI tracker, and two engines drive it:
//!
//! - the sequential [`Engine`] is a seeded step interpreter. The
//!   [`driver`] executes a job list over a configurable number of
//!   concurrent sessions with seeded random interleaving and automatic
//!   retry of aborted transactions, so every run replays bit-for-bit
//!   from its seed;
//! - the [`par`] module runs `SimConfig::threads` OS worker threads
//!   through the same core, parking on lock waits and serializing
//!   commits behind one mutex.
//!
//! The [`trace`] module exports the committed execution of either
//! engine as a fully-validated [`mvmodel::Schedule`], closing the loop
//! with the formal model: the integration tests assert that every
//! schedule the simulator emits is *allowed under* the allocation it ran
//! (Definition 2.4) — and therefore, when the allocation is robust,
//! serializable.

pub mod config;
pub mod driver;
pub mod engine;
pub mod metrics;
mod mvcc;
pub mod par;
mod plock;
mod pssi;
mod pstore;
pub mod trace;
pub mod version;

pub use config::{SimConfig, SsiMode};
pub use driver::{
    run_jobs, run_jobs_with, run_workload, run_workload_with, Job, RoundRobinScheduler, Scheduler,
    SeededScheduler,
};
pub use engine::{AbortReason, Engine, StepOutcome};
pub use metrics::{level_index, LatencyStats, LevelCounters, Metrics};
pub use par::{
    run_parallel_jobs, run_parallel_jobs_with, run_parallel_workload, run_parallel_workload_with,
    ParOptions, ParRun,
};
pub use trace::ExportedTrace;
