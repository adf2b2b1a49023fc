//! Algorithm 2: computing the unique optimal robust allocation over
//! `{RC, SI, SSI}`.
//!
//! [`Allocator`] is the engine-backed entry point: one
//! [`RobustnessChecker`] (conflict matrices, per-`T₁` iso-graph cache,
//! optional search threads) serves every probe, and a
//! **counterexample cache** answers most failing probes without a
//! search at all. A [`crate::SplitSpec`] that defeated one lowering
//! usually defeats the next: before each full probe, cached specs are
//! re-validated against the candidate allocation with
//! [`crate::SplitSpec::check`] — sound because a spec that checks *is*
//! a multiversion split schedule for the candidate (Theorem 3.2), so
//! the candidate is certainly not robust. Cache misses fall through to
//! the full search, so the refinement's decisions — and therefore the
//! computed optimum — are bit-for-bit those of the uncached algorithm.
//!
//! The free functions ([`optimal_allocation`] &c.) keep their original
//! signatures and delegate to a single-threaded [`Allocator`].
//!
//! # Clone capping
//!
//! [`Allocator::optimal`], [`Allocator::optimal_rc_si`] and the delta
//! API solve the set's [`CloneCap`]: transactions with identical
//! operation sequences form a class, each class is cut to its two
//! lowest ids, and the solved levels are lifted to every copy. A set is
//! robust under a class-uniform allocation iff its capped set is, and
//! the unique optimum is class-uniform (DESIGN.md §S14), so the lifted
//! optimum is the full set's. The conflict index, the components and
//! their fingerprints are all built over the capped set. A delta that
//! leaves the capped classes as they were — a third copy arriving, or
//! one copy leaving a class of three or more — is answered without a
//! solve. [`Allocator::optimal_in_box`], [`Allocator::optimal_with_floor`]
//! and [`Allocator::optimal_explained`] stay uncapped: per-transaction
//! bounds and reasons would have to join the class key.
//!
//! # Online deltas
//!
//! [`Allocator::add_txn`] / [`Allocator::remove_txn`] maintain the
//! optimum *incrementally* as the workload changes (the access pattern
//! of a long-running allocation service). They exploit the monotonicity
//! of the unique optimum (Proposition 4.1(2) / Theorem 4.3):
//!
//! - **Adding** a transaction can only *raise* levels: any robust
//!   allocation of the grown set restricts to a robust allocation of the
//!   old set, so the new optimum dominates the old one pointwise. The
//!   delta path first probes the previous optimum extended with the new
//!   transaction at the ceiling — when that is robust, refinement starts
//!   there instead of from the uniform ceiling; when it is not, the full
//!   refinement runs with the old optimum as a *floor*, skipping every
//!   lowering the old optimum already ruled out.
//! - **Removing** a transaction can only *lower* levels: the old optimum
//!   restricted to the survivors is still robust, so refinement starts
//!   from that restriction and only probes transactions that might drop.
//!
//! Both paths share one persistent counterexample cache across
//! reallocations (specs mentioning a removed transaction are pruned —
//! they may dangle; every other spec remains a sound rejection
//! certificate because [`SplitSpec::check`] re-validates it against the
//! current set and candidate). Acceptances always come from a full
//! probe, so delta results are bit-for-bit the from-scratch optimum —
//! `tests/delta_equivalence.rs` asserts exactly that on randomized
//! workloads.

use crate::algorithm1::RobustnessChecker;
use crate::components::{CompCache, CompEntry, Components, SharedCompCache, COMP_CACHE_CAP};
use crate::conflict_index::ConflictIndex;
use crate::split_schedule::SplitSpec;
use crate::stats::EngineStats;
use mvisolation::{Allocation, IsolationLevel, LevelChange};
use mvmodel::{ModelError, Object, Transaction, TransactionSet, TxnId};
use std::borrow::Cow;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

mod clones;

pub use clones::CloneCap;
use clones::{class_members, debug_check_lifted};

/// A failed lowering attempt: the transaction, the level that was
/// tried, and the counterexample that rejected it.
pub type Reason = (TxnId, IsolationLevel, SplitSpec);

/// The isolation-level menu an allocation may draw from.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum LevelSet {
    /// `{RC, SI}` — the Oracle-style restriction of §5, where no robust
    /// allocation may exist (Proposition 5.4).
    RcSi,
    /// `{RC, SI, SSI}` — the full ladder of §4; the uniform-SSI ceiling
    /// is always robust, so an optimum always exists.
    #[default]
    RcSiSsi,
}

impl LevelSet {
    pub const ALL: [LevelSet; 2] = [LevelSet::RcSi, LevelSet::RcSiSsi];

    /// The canonical spelling, accepted by [`LevelSet::from_str`].
    pub fn label(self) -> &'static str {
        match self {
            LevelSet::RcSi => "rc-si",
            LevelSet::RcSiSsi => "rc-si-ssi",
        }
    }

    /// The highest level of the menu — the refinement's starting point.
    pub fn ceiling(self) -> IsolationLevel {
        match self {
            LevelSet::RcSi => IsolationLevel::SI,
            LevelSet::RcSiSsi => IsolationLevel::SSI,
        }
    }
}

impl std::fmt::Display for LevelSet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Error from parsing a [`LevelSet`]; lists the accepted spellings.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ParseLevelSetError(pub String);

impl std::fmt::Display for ParseLevelSetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let accepted: Vec<&str> = LevelSet::ALL.iter().map(|l| l.label()).collect();
        write!(
            f,
            "unknown level set `{}` (accepted: {})",
            self.0,
            accepted.join(", ")
        )
    }
}

impl std::error::Error for ParseLevelSetError {}

impl std::str::FromStr for LevelSet {
    type Err = ParseLevelSetError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        LevelSet::ALL
            .into_iter()
            .find(|l| l.label().eq_ignore_ascii_case(s))
            .ok_or_else(|| ParseLevelSetError(s.to_string()))
    }
}

/// Why a registry mutation was rejected. The [`Allocator`]'s transaction
/// set and optimum are unchanged after an error: unallocatable or
/// timed-out mutations are rolled back (a timed-out removal re-inserts
/// the transaction), so the cached optimum always matches the set.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum AllocError {
    /// [`Allocator::add_txn`] with an id already registered.
    Duplicate(TxnId),
    /// [`Allocator::remove_txn`] with an id not registered.
    Unknown(TxnId),
    /// No robust allocation exists over the level set (only possible for
    /// [`LevelSet::RcSi`], by Proposition 5.4).
    NotAllocatable(LevelSet),
    /// The reallocation's deadline expired before refinement finished
    /// (see [`Allocator::with_op_timeout`]); the mutation was rolled
    /// back and the previous optimum still stands.
    Timeout,
}

impl std::fmt::Display for AllocError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AllocError::Duplicate(t) => write!(f, "transaction {t} is already registered"),
            AllocError::Unknown(t) => write!(f, "transaction {t} is not registered"),
            AllocError::NotAllocatable(l) => {
                write!(f, "no robust {l} allocation exists for the workload")
            }
            AllocError::Timeout => {
                write!(f, "reallocation timed out and was rolled back")
            }
        }
    }
}

impl std::error::Error for AllocError {}

/// The outcome of one (incremental) reallocation: the new optimum, the
/// transactions whose level changed relative to the previous optimum
/// ([`Allocation::diff`]), and the engine work counters.
#[derive(Clone, Debug)]
pub struct Realloc {
    pub allocation: Allocation,
    pub changed: Vec<LevelChange>,
    pub stats: EngineStats,
}

/// One membership mutation inside a coalesced batch
/// ([`Allocator::apply_batch`]).
#[derive(Clone, Debug)]
pub enum DeltaEvent {
    /// Register a transaction (see [`Allocator::add_txn`]).
    Add(Transaction),
    /// Deregister a transaction (see [`Allocator::remove_txn`]).
    Remove(TxnId),
}

impl DeltaEvent {
    /// The transaction the event concerns.
    pub fn id(&self) -> TxnId {
        match self {
            DeltaEvent::Add(t) => t.id(),
            DeltaEvent::Remove(id) => *id,
        }
    }
}

/// The outcome of one coalesced batch of membership mutations
/// ([`Allocator::apply_batch`]): the new optimum, one verdict per
/// event, and the changed-levels diff versus the *pre-batch* optimum.
#[derive(Clone, Debug)]
pub struct BatchRealloc {
    pub allocation: Allocation,
    /// Per-event verdicts, in input order. `Err` events were rolled
    /// back individually (a rejected add is not in the set; a duplicate
    /// add or unknown remove never touched it); all `Ok` events become
    /// visible in `allocation` atomically.
    pub outcomes: Vec<Result<(), AllocError>>,
    /// `prev.diff(new)` of the pre-batch and post-batch optima — the
    /// net level movement of the whole batch, not per event.
    pub changed: Vec<LevelChange>,
    pub stats: EngineStats,
}

impl BatchRealloc {
    /// How many events were applied (the `Ok` verdicts).
    pub fn accepted(&self) -> usize {
        self.outcomes.iter().filter(|o| o.is_ok()).count()
    }
}

/// Counterexamples kept across reallocations beyond this count are
/// discarded oldest-first: the cache is only an accelerator, and
/// re-validating an unbounded backlog on every probe would eventually
/// cost more than the probes it saves.
const SPEC_CACHE_CAP: usize = 256;

/// Engine-backed Algorithm 2 runner over one transaction set.
///
/// ```text
/// let (alloc, stats) = Allocator::new(&txns).with_threads(4).optimal();
/// ```
///
/// Constructed with [`Allocator::new`] it borrows the set; constructed
/// with [`Allocator::from_owned`] it owns it and additionally supports
/// the online delta API ([`Allocator::add_txn`],
/// [`Allocator::remove_txn`], [`Allocator::current`]).
pub struct Allocator<'a> {
    txns: Cow<'a, TransactionSet>,
    threads: usize,
    levels: LevelSet,
    /// Per-mutation deadline budget for the delta API (None = unbounded).
    op_timeout: Option<Duration>,
    /// The optimum of the current set, when known (delta API state).
    last: Option<Allocation>,
    /// Counterexamples from past lowerings, reused across reallocations.
    specs: Vec<SplitSpec>,
    /// Work counters of the most recent reallocation.
    last_stats: Option<EngineStats>,
    /// Component sharding (on by default; `with_components(false)` is
    /// the unsharded escape hatch).
    components: bool,
    /// Solved components keyed by content fingerprint, persisted across
    /// reallocations: a delta that leaves a component untouched answers
    /// it from here without any search.
    comp_cache: CompCache,
    /// Optional second-level component cache shared across allocators
    /// (cross-tenant in `mvservice`). Consulted after a local miss;
    /// solved components are published to both.
    shared_cache: Option<Arc<SharedCompCache>>,
}

impl<'a> Allocator<'a> {
    pub fn new(txns: &'a TransactionSet) -> Self {
        Allocator {
            txns: Cow::Borrowed(txns),
            threads: 1,
            levels: LevelSet::default(),
            op_timeout: None,
            last: None,
            specs: Vec::new(),
            last_stats: None,
            components: true,
            comp_cache: CompCache::new(COMP_CACHE_CAP),
            shared_cache: None,
        }
    }

    /// An allocator owning its transaction set — the form the online
    /// delta API mutates. Start from `TransactionSet::default()` for an
    /// initially empty registry.
    pub fn from_owned(txns: TransactionSet) -> Allocator<'static> {
        Allocator {
            txns: Cow::Owned(txns),
            threads: 1,
            levels: LevelSet::default(),
            op_timeout: None,
            last: None,
            specs: Vec::new(),
            last_stats: None,
            components: true,
            comp_cache: CompCache::new(COMP_CACHE_CAP),
            shared_cache: None,
        }
    }

    /// Worker threads for each probe's outer search (clamped to ≥ 1).
    /// Results are identical at every thread count.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Enables or disables the component-sharded engine (on by
    /// default). Sharding decomposes the workload into conflict
    /// components, solves each independently (in parallel with
    /// [`Allocator::with_threads`] > 1), and unions the per-component
    /// optima — bit-identical to the unsharded result by the uniqueness
    /// of the optimum (Prop. 4.2) and component locality of split
    /// schedules. `false` (`--no-components`) solves the whole
    /// clone-capped set in one refinement.
    pub fn with_components(mut self, on: bool) -> Self {
        self.components = on;
        self
    }

    /// Whether component sharding is enabled.
    pub fn components_enabled(&self) -> bool {
        self.components
    }

    /// Attaches a [`SharedCompCache`] consulted after local-cache misses
    /// and fed by every solve. Sharing one handle across allocators
    /// makes identical component shapes pure hits for all of them; the
    /// results stay bit-identical because entries are content-addressed
    /// unique optima (Proposition 4.2). Unlike the local cache, the
    /// shared cache survives [`Allocator::with_levels`] — the menu is
    /// part of its key.
    pub fn with_shared_cache(mut self, cache: Arc<SharedCompCache>) -> Self {
        self.shared_cache = Some(cache);
        self
    }

    /// The attached shared component cache, if any.
    pub fn shared_cache(&self) -> Option<&Arc<SharedCompCache>> {
        self.shared_cache.as_ref()
    }

    /// The level menu used by the delta API ([`Allocator::current`],
    /// [`Allocator::add_txn`], [`Allocator::remove_txn`]). The one-shot
    /// methods ([`Allocator::optimal`], [`Allocator::optimal_rc_si`])
    /// select their menu by name instead and ignore this setting.
    ///
    /// Changing the menu clears the component cache: cached entries are
    /// optima *for a menu*, and the menu is deliberately not part of the
    /// content-addressed key.
    pub fn with_levels(mut self, levels: LevelSet) -> Self {
        if levels != self.levels {
            self.comp_cache.clear();
        }
        self.levels = levels;
        self
    }

    /// The configured level menu.
    pub fn levels(&self) -> LevelSet {
        self.levels
    }

    /// Caps how long each delta mutation ([`Allocator::add_txn`],
    /// [`Allocator::remove_txn`], the first [`Allocator::current`]) may
    /// spend refining. The deadline is checked between probes (a single
    /// probe is never interrupted); on expiry the mutation is **rolled
    /// back** — an add reverts the insertion, a remove re-inserts the
    /// transaction — and [`AllocError::Timeout`] is returned, so the
    /// cached optimum keeps matching the set exactly. The one-shot
    /// methods ([`Allocator::optimal`] &c.) ignore this setting.
    pub fn with_op_timeout(mut self, timeout: Option<Duration>) -> Self {
        self.op_timeout = timeout;
        self
    }

    /// The configured per-mutation timeout.
    pub fn op_timeout(&self) -> Option<Duration> {
        self.op_timeout
    }

    /// The deadline for a delta mutation starting now.
    fn op_deadline(&self) -> Option<Instant> {
        self.op_timeout.map(|t| Instant::now() + t)
    }

    /// The transaction set the allocator currently covers.
    pub fn txns(&self) -> &TransactionSet {
        self.txns.as_ref()
    }

    /// Interns an object name against the owned set (see
    /// [`TransactionSet::intern_object`]) so transactions registered
    /// later share object identities. Interning never alters conflicts,
    /// so the cached optimum stays valid.
    pub fn intern_object(&mut self, name: &str) -> Object {
        self.txns.to_mut().intern_object(name)
    }

    fn checker(&self) -> RobustnessChecker<'_> {
        RobustnessChecker::new(self.txns.as_ref())
            .with_threads(self.threads)
            .with_components(self.components)
    }

    fn finish(
        &self,
        checker: &RobustnessChecker<'_>,
        cache: &CacheStats,
        start: Instant,
    ) -> EngineStats {
        EngineStats {
            probes: checker.stats().probes(),
            cache_hits: cache.hits,
            cached_specs: cache.specs,
            iso_builds: checker.stats().iso_builds(),
            components_checked: checker.stats().components_checked(),
            components_cached: checker.stats().components_cached(),
            kernel_row_ops: checker.stats().kernel_row_ops(),
            batch_events: 0,
            batched_components_solved: 0,
            threads: self.threads,
            wall: start.elapsed(),
        }
    }

    /// The engine settings a solve reads, over the menu `levels`.
    fn knobs(&self, levels: LevelSet) -> Knobs {
        Knobs {
            levels,
            threads: self.threads,
            components: self.components,
            shared: self.shared_cache.clone(),
        }
    }

    /// A one-shot solve over `levels` with fresh caches: the clone cap
    /// of the set solved by [`solve`] and lifted back.
    fn one_shot(&self, levels: LevelSet) -> (Option<Allocation>, EngineStats) {
        let start = Instant::now();
        let cap = CloneCap::new(self.txns());
        let mut cache = CompCache::new(COMP_CACHE_CAP);
        let (alloc, stats) = solve(
            cap.set(),
            &self.knobs(levels),
            Warm::default(),
            &mut Vec::new(),
            &mut cache,
            None,
            start,
        )
        .unwrap_or_else(|Expired| unreachable!("no deadline was set"));
        (alloc.map(|a| cap.lift(a)), stats)
    }

    /// The unique optimal robust allocation over `{RC, SI, SSI}`
    /// (Theorem 4.3), plus the work counters.
    pub fn optimal(&self) -> (Allocation, EngineStats) {
        let (alloc, stats) = self.one_shot(LevelSet::RcSiSsi);
        (alloc.expect("the all-SSI ceiling is always robust"), stats)
    }

    /// [`Allocator::optimal`] that also reports, for each lowering
    /// attempt that failed, the counterexample that rejected it.
    pub fn optimal_explained(&self) -> (Allocation, Vec<Reason>, EngineStats) {
        let start = Instant::now();
        let checker = self.checker();
        let mut reasons = Vec::new();
        let (alloc, cache) = refine_cached(
            self.txns(),
            &checker,
            Allocation::uniform_ssi(self.txns()),
            None,
            &mut |t, lvl, spec| reasons.push((t, lvl, spec.clone())),
        );
        let stats = self.finish(&checker, &cache, start);
        (alloc, reasons, stats)
    }

    /// The least robust allocation inside the box `lo ≤ 𝒜 ≤ hi`
    /// (pointwise), or `None` when no robust allocation exists in the
    /// box. See [`optimal_allocation_in_box`] for the correctness
    /// argument and use cases.
    ///
    /// Panics when `lo`/`hi` do not cover every transaction or `lo ≰ hi`.
    pub fn optimal_in_box(
        &self,
        lo: &Allocation,
        hi: &Allocation,
    ) -> (Option<Allocation>, EngineStats) {
        assert!(
            lo.covers(self.txns()) && hi.covers(self.txns()),
            "bounds must cover every transaction"
        );
        assert!(lo.le(hi), "need lo ≤ hi pointwise");
        let start = Instant::now();
        let checker = self.checker();
        if !checker.is_robust(hi).robust() {
            let stats = self.finish(&checker, &CacheStats::default(), start);
            return (None, stats);
        }
        let (alloc, cache) = refine_cached(
            self.txns(),
            &checker,
            hi.clone(),
            Some(lo),
            &mut |_, _, _| {},
        );
        let stats = self.finish(&checker, &cache, start);
        (Some(alloc), stats)
    }

    /// [`Allocator::optimal_in_box`] with only a lower bound
    /// (`hi = 𝒜_SSI`). Always succeeds, since `𝒜_SSI` is robust.
    pub fn optimal_with_floor(&self, floor: &Allocation) -> (Allocation, EngineStats) {
        let (alloc, stats) = self.optimal_in_box(floor, &Allocation::uniform_ssi(self.txns()));
        (alloc.expect("the all-SSI ceiling is always robust"), stats)
    }

    /// The unique optimal robust `{RC, SI}`-allocation (Theorem 5.5),
    /// or `None` when none exists — i.e. when `𝒜_SI` itself is not
    /// robust (Proposition 5.4).
    pub fn optimal_rc_si(&self) -> (Option<Allocation>, EngineStats) {
        self.one_shot(LevelSet::RcSi)
    }

    // ---- Online delta API -------------------------------------------

    /// The optimum of the current set over the configured
    /// [`LevelSet`], computing (and caching) it on first use.
    pub fn current(&mut self) -> Result<&Allocation, AllocError> {
        self.ensure_current(self.op_deadline())?;
        Ok(self.last.as_ref().expect("ensure_current fills the cache"))
    }

    /// Work counters of the most recent delta-API (re)allocation.
    pub fn last_stats(&self) -> Option<&EngineStats> {
        self.last_stats.as_ref()
    }

    /// Registers `txn` and incrementally recomputes the optimum.
    ///
    /// Adding a transaction can only raise levels (any robust allocation
    /// of the grown set restricts to a robust one of the old set), so the
    /// previous optimum is a valid *floor* for every surviving
    /// transaction. The fast path probes the previous optimum extended
    /// with the newcomer at the ceiling; since the optimum is the
    /// pointwise-least robust allocation, refining from that candidate
    /// (when robust) or from the uniform ceiling (otherwise) reaches the
    /// exact from-scratch optimum.
    ///
    /// Over [`LevelSet::RcSi`] the grown workload may not be
    /// allocatable; the insertion is then rolled back and the previous
    /// optimum kept.
    pub fn add_txn(&mut self, txn: Transaction) -> Result<Realloc, AllocError> {
        self.add_txn_by(txn, self.op_deadline())
    }

    /// [`Allocator::add_txn`] against an explicit deadline (`None` =
    /// unbounded), overriding the configured
    /// [`Allocator::with_op_timeout`] budget for this one mutation. On
    /// expiry the insertion is rolled back and the previous optimum
    /// stands ([`AllocError::Timeout`]).
    pub fn add_txn_by(
        &mut self,
        txn: Transaction,
        deadline: Option<Instant>,
    ) -> Result<Realloc, AllocError> {
        let id = txn.id();
        if self.txns.contains(id) {
            return Err(AllocError::Duplicate(id));
        }
        // The pre-mutation optimum is both the diff baseline and the
        // refinement floor; make sure it exists before mutating.
        self.ensure_current(deadline)?;
        let prev = self.last.clone().expect("ensure_current fills the cache");
        let start = Instant::now();
        // A third copy of a class leaves the capped set's classes as they
        // were: the newcomer takes its class's level and no other level
        // moves.
        if let (2, Some(clone)) = class_members(&self.txns, txn.ops(), 2) {
            if expired(deadline) {
                return Err(AllocError::Timeout);
            }
            let alloc = prev.with(id, prev.level(clone));
            self.txns
                .to_mut()
                .insert(txn)
                .map_err(|_: ModelError| AllocError::Duplicate(id))?;
            debug_check_lifted(&self.txns, &alloc);
            let stats = self.unsolved_stats(start);
            return Ok(self.accept(&prev, alloc, stats));
        }
        self.txns
            .to_mut()
            .insert(txn)
            .map_err(|_: ModelError| AllocError::Duplicate(id))?;
        let knobs = self.knobs(self.levels);
        let outcome = {
            // The floor and the fast-path start carry over to the capped
            // set: its optimum is the full set's, restricted.
            let cap = CloneCap::new(&self.txns);
            let warm = Warm {
                start: Some(cap.restrict(&prev.with(id, self.levels.ceiling()))),
                robust: false,
                floor: Some(cap.restrict(&prev.with(id, IsolationLevel::RC))),
            };
            solve(
                cap.set(),
                &knobs,
                warm,
                &mut self.specs,
                &mut self.comp_cache,
                deadline,
                start,
            )
            .map(|(alloc, stats)| (alloc.map(|a| cap.lift(a)), stats))
        };
        match outcome {
            Ok((Some(alloc), stats)) => Ok(self.accept(&prev, alloc, stats)),
            outcome => {
                // Roll back: the set reverts, specs mentioning the
                // rejected newcomer would dangle, the old optimum stands.
                self.txns.to_mut().remove(id);
                self.specs.retain(|s| !spec_mentions(s, id));
                Err(match outcome {
                    Err(Expired) => AllocError::Timeout,
                    _ => AllocError::NotAllocatable(self.levels),
                })
            }
        }
    }

    /// Deregisters `id` and incrementally recomputes the optimum.
    ///
    /// Removing a transaction can only lower levels: the previous
    /// optimum restricted to the survivors is still robust (allowed
    /// schedules of a subset are allowed schedules of the full set), so
    /// refinement starts from that restriction. Shrinking a workload
    /// cannot make it less allocatable, so the removal persists — unless
    /// the refinement deadline expires, in which case the transaction is
    /// re-inserted and the previous optimum stands.
    pub fn remove_txn(&mut self, id: TxnId) -> Result<Realloc, AllocError> {
        self.remove_txn_by(id, self.op_deadline())
    }

    /// [`Allocator::remove_txn`] against an explicit deadline (`None` =
    /// unbounded). On expiry the removal is rolled back (the transaction
    /// is re-inserted) and [`AllocError::Timeout`] is returned.
    pub fn remove_txn_by(
        &mut self,
        id: TxnId,
        deadline: Option<Instant>,
    ) -> Result<Realloc, AllocError> {
        let Some(txn) = self.txns.get(id) else {
            return Err(AllocError::Unknown(id));
        };
        // One copy leaving a class of three or more leaves the capped
        // set's classes as they were: no other level moves.
        let shortcut = class_members(&self.txns, txn.ops(), 3).0 == 3;
        if let Some(prev) = self.last.as_ref().filter(|_| shortcut).cloned() {
            if expired(deadline) {
                return Err(AllocError::Timeout);
            }
            self.txns.to_mut().remove(id);
            self.specs.retain(|s| !spec_mentions(s, id));
            let mut alloc = prev.clone();
            alloc.remove(id);
            debug_check_lifted(&self.txns, &alloc);
            let stats = self.unsolved_stats(Instant::now());
            return Ok(self.accept(&prev, alloc, stats));
        }
        let removed = self
            .txns
            .to_mut()
            .remove(id)
            .expect("get(id) checked above");
        // Specs mentioning the departed transaction reference ids and op
        // indices that no longer resolve — drop them. Every other cached
        // spec only touches surviving transactions and stays sound.
        // (Dropping them is sound even if the removal rolls back below:
        // the cache is only an accelerator.)
        self.specs.retain(|s| !spec_mentions(s, id));
        let Some(prev) = self.last.clone() else {
            // No optimum yet (never computed, or the previous set was
            // not {RC, SI}-allocatable): compute from scratch.
            if let Err(e) = self.ensure_current(deadline) {
                if e == AllocError::Timeout {
                    // Restore the set; there was no optimum to preserve.
                    self.txns
                        .to_mut()
                        .insert(removed)
                        .expect("re-inserting the just-removed transaction");
                }
                return Err(e);
            }
            let alloc = self.last.clone().expect("ensure_current fills the cache");
            let stats = self.last_stats.clone().expect("ensure_current fills stats");
            let changed = alloc
                .iter()
                .map(|(txn, level)| LevelChange {
                    txn,
                    before: None,
                    after: Some(level),
                })
                .collect();
            return Ok(Realloc {
                allocation: alloc,
                changed,
                stats,
            });
        };
        let start = Instant::now();
        let knobs = self.knobs(self.levels);
        let outcome = {
            // The old optimum restricted to any subset of the old set is
            // robust, so the capped set's refinement starts there
            // without a probe.
            let cap = CloneCap::new(&self.txns);
            let mut reduced = prev.clone();
            reduced.remove(id);
            let warm = Warm {
                start: Some(cap.restrict(&reduced)),
                robust: true,
                floor: None,
            };
            solve(
                cap.set(),
                &knobs,
                warm,
                &mut self.specs,
                &mut self.comp_cache,
                deadline,
                start,
            )
            .map(|(alloc, stats)| (alloc.map(|a| cap.lift(a)), stats))
        };
        match outcome {
            Ok((Some(alloc), stats)) => Ok(self.accept(&prev, alloc, stats)),
            outcome => {
                // Roll back: re-insert the transaction; `prev` is still
                // the optimum of the restored set. (Shrinking an
                // allocatable workload keeps it allocatable, so only a
                // deadline gets here.)
                self.txns
                    .to_mut()
                    .insert(removed)
                    .expect("re-inserting the just-removed transaction");
                Err(match outcome {
                    Err(Expired) => AllocError::Timeout,
                    _ => AllocError::NotAllocatable(self.levels),
                })
            }
        }
    }

    /// Applies a coalesced batch of membership mutations with **one**
    /// reallocation.
    ///
    /// Semantics are defined by equivalence: the final membership, the
    /// final optimum, and the per-event verdicts are bit-for-bit those
    /// of applying the events one at a time through
    /// [`Allocator::add_txn`] / [`Allocator::remove_txn`] in input
    /// order (`tests/batch_equivalence.rs` asserts exactly that on
    /// randomized sequences). The engine work is *not* sequential:
    ///
    /// - Over `{RC, SI, SSI}` an add can never be rejected (the SSI
    ///   ceiling is always robust), so per-event verdicts reduce to
    ///   membership bookkeeping (duplicate adds, unknown removes). The
    ///   batch applies every valid event to the membership first and
    ///   solves the final set **once**: untouched conflict components
    ///   are answered by the persistent fingerprint cache, and only the
    ///   union of touched components is solved (largest-first,
    ///   work-stealing under [`Allocator::with_threads`]). By
    ///   uniqueness of the optimum (Proposition 4.2) this single solve
    ///   equals the sequential fold.
    /// - Over `{RC, SI}` an add may be rejected, and acceptance is
    ///   decided against the membership *at that point in the
    ///   sequence* — an optimistic whole-batch solve would accept
    ///   interleavings sequential processing rejects (an unallocatable
    ///   add followed by the remove that would have made it
    ///   allocatable). The batch therefore falls back to the sequential
    ///   delta path per event, still sharing the persistent component
    ///   fingerprint cache across events.
    ///
    /// A deadline expiry rolls back the **whole batch** — membership
    /// and optimum revert to the pre-batch state — and returns
    /// [`AllocError::Timeout`], so a caller's last-known-good
    /// degradation story is the same as for single events.
    pub fn apply_batch(&mut self, events: Vec<DeltaEvent>) -> Result<BatchRealloc, AllocError> {
        self.apply_batch_by(events, self.op_deadline())
    }

    /// [`Allocator::apply_batch`] against an explicit deadline (`None`
    /// = unbounded), overriding the configured
    /// [`Allocator::with_op_timeout`] budget for this one batch.
    pub fn apply_batch_by(
        &mut self,
        events: Vec<DeltaEvent>,
        deadline: Option<Instant>,
    ) -> Result<BatchRealloc, AllocError> {
        // The pre-batch optimum is both the diff baseline and (on
        // rollback) the state to serve; make sure it exists before
        // mutating — exactly like `add_txn`.
        self.ensure_current(deadline)?;
        let prev = self.last.clone().expect("ensure_current fills the cache");
        let start = Instant::now();
        if events.is_empty() {
            let stats = self.unsolved_stats(start);
            return Ok(BatchRealloc {
                allocation: prev,
                outcomes: Vec::new(),
                changed: Vec::new(),
                stats,
            });
        }
        if self.levels == LevelSet::RcSi {
            return self.apply_batch_sequential(events, deadline, prev, start);
        }
        // {RC, SI, SSI}: simulate the event sequence on the membership
        // (verdicts are pure bookkeeping), then solve the final set once.
        let saved = self.txns.as_ref().clone();
        let touched: Vec<TxnId> = events.iter().map(|e| e.id()).collect();
        let n_events = events.len() as u64;
        let mut outcomes = Vec::with_capacity(events.len());
        // Newcomers still present at the end of the batch.
        let mut added: Vec<TxnId> = Vec::new();
        // Every id a Remove event successfully took out, even if a
        // later Add brought the id back: cached specs mention the *old*
        // transaction's operations and must not survive.
        let mut removed_ids: Vec<TxnId> = Vec::new();
        // The answer while every event leaves the capped set's classes
        // as they were (a third copy arriving, or one copy leaving a
        // class of three or more): the levels as they stand, a newcomer
        // at its class's level.
        let mut unchanged = Some(prev.clone());
        {
            let set = self.txns.to_mut();
            for ev in events {
                match ev {
                    DeltaEvent::Add(txn) => {
                        let id = txn.id();
                        if set.contains(id) {
                            outcomes.push(Err(AllocError::Duplicate(id)));
                            continue;
                        }
                        if let Some(a) = unchanged.as_mut() {
                            match class_members(set, txn.ops(), 2) {
                                (2, Some(clone)) => a.set(id, a.level(clone)),
                                _ => unchanged = None,
                            }
                        }
                        set.insert(txn).expect("contains(id) checked above");
                        added.push(id);
                        outcomes.push(Ok(()));
                    }
                    DeltaEvent::Remove(id) => {
                        let Some(txn) = set.get(id) else {
                            outcomes.push(Err(AllocError::Unknown(id)));
                            continue;
                        };
                        if let Some(a) = unchanged.as_mut() {
                            if class_members(set, txn.ops(), 3).0 == 3 {
                                a.remove(id);
                            } else {
                                unchanged = None;
                            }
                        }
                        set.remove(id);
                        added.retain(|&a| a != id);
                        removed_ids.push(id);
                        outcomes.push(Ok(()));
                    }
                }
            }
        }
        // Prune before solving: specs mentioning a removed transaction
        // dangle against the new set (same rule as `remove_txn`).
        if !removed_ids.is_empty() {
            self.specs
                .retain(|s| !removed_ids.iter().any(|&id| spec_mentions(s, id)));
        }
        let outcome = match unchanged {
            Some(_) if expired(deadline) => Err(Expired),
            Some(alloc) => {
                debug_check_lifted(&self.txns, &alloc);
                Ok((Some(alloc), self.unsolved_stats(start)))
            }
            None => {
                let ceiling = self.levels.ceiling();
                let knobs = self.knobs(self.levels);
                let cap = CloneCap::new(&self.txns);
                // Adds only raise levels (Proposition 4.1), so with no
                // successful remove the pre-batch optimum extended with
                // the newcomers at RC bounds the new optimum from below.
                let floor = removed_ids.is_empty().then(|| {
                    cap.restrict(
                        &added
                            .iter()
                            .fold(prev.clone(), |a, &id| a.with(id, IsolationLevel::RC)),
                    )
                });
                // Fast path: previous optimum restricted to the
                // survivors, newcomers at the ceiling. When robust it
                // dominates the new optimum (the pointwise-least robust
                // allocation), so refining from it reaches the exact
                // from-scratch optimum; otherwise refinement starts from
                // the uniform ceiling.
                let mut candidate = prev.clone();
                for &id in &removed_ids {
                    candidate.remove(id);
                }
                for &id in &added {
                    candidate.set(id, ceiling);
                }
                let warm = Warm {
                    start: Some(cap.restrict(&candidate)),
                    robust: false,
                    floor,
                };
                solve(
                    cap.set(),
                    &knobs,
                    warm,
                    &mut self.specs,
                    &mut self.comp_cache,
                    deadline,
                    start,
                )
                .map(|(alloc, stats)| (alloc.map(|a| cap.lift(a)), stats))
            }
        };
        match outcome {
            Ok((Some(alloc), mut stats)) => {
                stats.batch_events = n_events;
                stats.batched_components_solved = stats.components_checked;
                let changed = prev.diff(&alloc);
                self.last = Some(alloc.clone());
                self.last_stats = Some(stats.clone());
                Ok(BatchRealloc {
                    allocation: alloc,
                    outcomes,
                    changed,
                    stats,
                })
            }
            Ok((None, _)) => unreachable!("the all-SSI ceiling is always robust"),
            Err(Expired) => Err(self.rollback_batch(saved, &touched)),
        }
    }

    /// The `{RC, SI}` batch path: per-event sequential delta processing
    /// — acceptance depends on the membership at that point in the
    /// sequence (see [`Allocator::apply_batch`]) — still sharing the
    /// persistent component fingerprint cache so untouched components
    /// cost nothing per event. A deadline expiry rolls back the whole
    /// batch.
    fn apply_batch_sequential(
        &mut self,
        events: Vec<DeltaEvent>,
        deadline: Option<Instant>,
        prev: Allocation,
        start: Instant,
    ) -> Result<BatchRealloc, AllocError> {
        let saved = self.txns.as_ref().clone();
        let saved_last = self.last.clone();
        let saved_stats = self.last_stats.clone();
        let touched: Vec<TxnId> = events.iter().map(|e| e.id()).collect();
        let n_events = events.len() as u64;
        let mut outcomes = Vec::with_capacity(events.len());
        let mut acc = EngineStats::default();
        for ev in events {
            let res = match ev {
                DeltaEvent::Add(txn) => self.add_txn_by(txn, deadline),
                DeltaEvent::Remove(id) => self.remove_txn_by(id, deadline),
            };
            match res {
                Ok(r) => {
                    acc.probes += r.stats.probes;
                    acc.cache_hits += r.stats.cache_hits;
                    acc.iso_builds += r.stats.iso_builds;
                    acc.components_checked += r.stats.components_checked;
                    acc.components_cached += r.stats.components_cached;
                    acc.kernel_row_ops += r.stats.kernel_row_ops;
                    acc.batched_components_solved += r.stats.components_checked;
                    outcomes.push(Ok(()));
                }
                Err(AllocError::Timeout) => {
                    // Earlier events of the batch already applied must
                    // not survive a partial batch.
                    self.last = saved_last;
                    self.last_stats = saved_stats;
                    return Err(self.rollback_batch(saved, &touched));
                }
                Err(e) => outcomes.push(Err(e)),
            }
        }
        acc.batch_events = n_events;
        acc.cached_specs = self.specs.len() as u64;
        acc.threads = self.threads;
        acc.wall = start.elapsed();
        let alloc = self
            .last
            .clone()
            .expect("a batch without timeouts leaves an optimum");
        let changed = prev.diff(&alloc);
        self.last_stats = Some(acc.clone());
        Ok(BatchRealloc {
            allocation: alloc,
            outcomes,
            changed,
            stats: acc,
        })
    }

    /// Restores the pre-batch membership after a mid-batch deadline
    /// expiry and drops every cached spec that mentions a transaction
    /// the batch touched: such specs may have been minted against a
    /// mid-batch incarnation of the id and would dangle — or silently
    /// mismatch — against the restored set. Specs mentioning only
    /// untouched transactions stay sound verbatim (over-pruning is
    /// sound regardless; the cache is only an accelerator). The cached
    /// optimum still matches the restored set: the batch either never
    /// updated it or the caller restored it alongside.
    fn rollback_batch(&mut self, saved: TransactionSet, touched: &[TxnId]) -> AllocError {
        self.txns = Cow::Owned(saved);
        self.specs
            .retain(|s| !touched.iter().any(|&id| spec_mentions(s, id)));
        AllocError::Timeout
    }

    /// Installs a delta result: diffs against the pre-mutation optimum
    /// and updates the cached optimum and stats.
    fn accept(&mut self, prev: &Allocation, alloc: Allocation, stats: EngineStats) -> Realloc {
        let changed = prev.diff(&alloc);
        self.last = Some(alloc.clone());
        self.last_stats = Some(stats.clone());
        Realloc {
            allocation: alloc,
            changed,
            stats,
        }
    }

    /// The stats of a delta answered without a solve.
    fn unsolved_stats(&self, start: Instant) -> EngineStats {
        EngineStats {
            cached_specs: self.specs.len() as u64,
            threads: self.threads,
            wall: start.elapsed(),
            ..EngineStats::default()
        }
    }

    /// Computes the optimum of the current set from scratch into the
    /// delta cache. Only [`LevelSet::RcSi`] can fail to allocate; a
    /// passed deadline can expire (the cache is then left unfilled).
    fn ensure_current(&mut self, deadline: Option<Instant>) -> Result<(), AllocError> {
        if self.last.is_some() {
            return Ok(());
        }
        let start = Instant::now();
        let knobs = self.knobs(self.levels);
        let cap = CloneCap::new(&self.txns);
        match solve(
            cap.set(),
            &knobs,
            Warm::default(),
            &mut self.specs,
            &mut self.comp_cache,
            deadline,
            start,
        ) {
            Ok((Some(alloc), stats)) => {
                self.last = Some(cap.lift(alloc));
                self.last_stats = Some(stats);
                Ok(())
            }
            Ok((None, _)) => Err(AllocError::NotAllocatable(self.levels)),
            Err(Expired) => Err(AllocError::Timeout),
        }
    }
}

/// The engine settings one solve reads.
struct Knobs {
    levels: LevelSet,
    threads: usize,
    components: bool,
    shared: Option<Arc<SharedCompCache>>,
}

/// Where the refinement of a single-component set starts: the delta
/// paths' warm start (Proposition 4.1). Allocations range over the
/// capped set.
#[derive(Default)]
struct Warm {
    /// A start that dominates the new optimum whenever it is robust.
    start: Option<Allocation>,
    /// `start` is robust by construction (a removal's restriction), so
    /// it needs no probe.
    robust: bool,
    /// Levels the new optimum cannot fall below.
    floor: Option<Allocation>,
}

/// Algorithm 2 over a clone-capped set ([`CloneCap::set`]): the sharded
/// engine when the set has two or more conflict components, else one
/// refinement from `warm`. `Ok(None)` means no robust allocation exists
/// over the menu (only possible for [`LevelSet::RcSi`], Proposition
/// 5.4). `specs` is the caller's persistent counterexample cache; specs
/// that mention a transaction outside `txns` are dropped first.
fn solve(
    txns: &TransactionSet,
    knobs: &Knobs,
    warm: Warm,
    specs: &mut Vec<SplitSpec>,
    cache: &mut CompCache,
    deadline: Option<Instant>,
    start: Instant,
) -> Result<(Option<Allocation>, EngineStats), Expired> {
    let Knobs {
        levels, threads, ..
    } = *knobs;
    specs.retain(|s| txns.contains(s.t1) && s.chain.iter().all(|&c| txns.contains(c)));
    if knobs.components {
        let mut s = ShardStats::default();
        let shared = knobs.shared.as_deref();
        let outcome = shard_optimal(txns, levels, threads, deadline, cache, shared, &mut s)?;
        let alloc = match outcome {
            ShardOutcome::Solved(alloc) => Some(alloc),
            ShardOutcome::Unallocatable => None,
            ShardOutcome::Skip => return refine_one(txns, knobs, warm, specs, deadline, start),
        };
        return Ok((alloc, s.engine_stats(threads, specs.len() as u64, start)));
    }
    refine_one(txns, knobs, warm, specs, deadline, start)
}

/// The single-component half of [`solve`]: refines from `warm.start`
/// when it is robust, else from the menu's uniform ceiling (robust
/// unconditionally for `{RC, SI, SSI}`; probed for `{RC, SI}`, where it
/// may fail).
fn refine_one(
    txns: &TransactionSet,
    knobs: &Knobs,
    warm: Warm,
    specs: &mut Vec<SplitSpec>,
    deadline: Option<Instant>,
    start: Instant,
) -> Result<(Option<Allocation>, EngineStats), Expired> {
    let checker = RobustnessChecker::new(txns)
        .with_threads(knobs.threads)
        .with_components(knobs.components);
    if expired(deadline) {
        return Err(Expired);
    }
    let mut hits = 0u64;
    let from = match warm.start {
        Some(a) if warm.robust || probe_cached(txns, &checker, specs, &a, &mut hits) => Some(a),
        _ if expired(deadline) => return Err(Expired),
        _ => {
            let uniform = Allocation::uniform(txns, knobs.levels.ceiling());
            let robust = knobs.levels == LevelSet::RcSiSsi
                || probe_cached(txns, &checker, specs, &uniform, &mut hits);
            robust.then_some(uniform)
        }
    };
    let alloc = match from {
        Some(from) => {
            let (alloc, h) = refine_with(
                txns,
                &checker,
                specs,
                from,
                warm.floor.as_ref(),
                deadline,
                &mut |_, _, _| {},
            )?;
            hits += h;
            Some(alloc)
        }
        None => None,
    };
    trim_specs(specs);
    let stats = EngineStats {
        probes: checker.stats().probes(),
        cache_hits: hits,
        cached_specs: specs.len() as u64,
        iso_builds: checker.stats().iso_builds(),
        components_checked: checker.stats().components_checked(),
        components_cached: checker.stats().components_cached(),
        kernel_row_ops: checker.stats().kernel_row_ops(),
        batch_events: 0,
        batched_components_solved: 0,
        threads: knobs.threads,
        wall: start.elapsed(),
    };
    Ok((alloc, stats))
}

/// Work counters of a sharded allocation run (summed over components).
#[derive(Default)]
struct ShardStats {
    /// Components resolved by actual work this run (singletons included).
    checked: u64,
    /// Components answered from the fingerprint cache without any work.
    cached: u64,
    probes: u64,
    iso_builds: u64,
    row_ops: u64,
}

impl ShardStats {
    fn absorb(&mut self, s: &CompSolved) {
        self.checked += 1;
        self.probes += s.probes;
        self.iso_builds += s.iso_builds;
        self.row_ops += s.row_ops;
    }

    fn engine_stats(&self, threads: usize, cached_specs: u64, start: Instant) -> EngineStats {
        EngineStats {
            probes: self.probes,
            cache_hits: 0,
            cached_specs,
            iso_builds: self.iso_builds,
            components_checked: self.checked,
            components_cached: self.cached,
            kernel_row_ops: self.row_ops,
            batch_events: 0,
            batched_components_solved: 0,
            threads,
            wall: start.elapsed(),
        }
    }
}

/// What [`shard_optimal`] decided.
enum ShardOutcome {
    /// Fewer than two components (or fewer than two transactions) —
    /// sharding buys nothing; the caller runs the unsharded path.
    Skip,
    /// The union of the per-component optima: the global optimum, by
    /// component locality of split schedules and Proposition 4.2.
    Solved(Allocation),
    /// Some component has no robust allocation over the menu (only
    /// possible for [`LevelSet::RcSi`], Proposition 5.4).
    Unallocatable,
}

/// One component solved from scratch, with the work it cost.
struct CompSolved {
    entry: CompEntry,
    probes: u64,
    iso_builds: u64,
    row_ops: u64,
}

/// Algorithm 2 restricted to one conflict component, run on a standalone
/// sub-set of its member transactions. Any split schedule is a cycle of
/// conflicting transactions and therefore lies inside one component, so
/// robustness verdicts — and by uniqueness (Proposition 4.2) the
/// component's optimum — are those of the full workload restricted to
/// the component.
fn solve_component(
    txns: &TransactionSet,
    members: &[usize],
    levels: LevelSet,
    threads: usize,
    deadline: Option<Instant>,
) -> Result<CompSolved, Expired> {
    let sub: Vec<Transaction> = members.iter().map(|&i| txns.by_index(i).clone()).collect();
    let sub = TransactionSet::new(sub).expect("component members have distinct ids");
    let checker = RobustnessChecker::new(&sub)
        .with_threads(threads)
        .with_components(false);
    if expired(deadline) {
        return Err(Expired);
    }
    let done = |checker: &RobustnessChecker<'_>, entry: CompEntry| CompSolved {
        entry,
        probes: checker.stats().probes(),
        iso_builds: checker.stats().iso_builds(),
        row_ops: checker.stats().kernel_row_ops(),
    };
    let uniform = Allocation::uniform(&sub, levels.ceiling());
    if levels == LevelSet::RcSi && checker.find_counterexample(&uniform).is_some() {
        return Ok(done(&checker, CompEntry::Unallocatable));
    }
    // A fresh spec cache, never the caller's: cached global specs may
    // mention transactions outside this component, and
    // `SplitSpec::check` would reject (or panic on) them against the
    // component-local candidate allocations.
    let mut local_specs = Vec::new();
    let (alloc, _hits) = refine_with(
        &sub,
        &checker,
        &mut local_specs,
        uniform,
        None,
        deadline,
        &mut |_, _, _| {},
    )?;
    Ok(done(&checker, CompEntry::Robust(alloc.iter().collect())))
}

/// The component-sharded Algorithm 2: decomposes the workload into
/// conflict components, answers each from the fingerprint `cache` when
/// possible (falling back to the cross-allocator `shared` cache and
/// warming the local one on a hit), solves the misses (largest-first,
/// in parallel when `threads > 1`), and unions the per-component
/// optima. Completed components are cached — locally and into `shared`
/// — even when the deadline expires mid-run, so a retry pays only for
/// what is still missing.
fn shard_optimal(
    txns: &TransactionSet,
    levels: LevelSet,
    threads: usize,
    deadline: Option<Instant>,
    cache: &mut CompCache,
    shared: Option<&SharedCompCache>,
    stats: &mut ShardStats,
) -> Result<ShardOutcome, Expired> {
    if txns.len() < 2 {
        return Ok(ShardOutcome::Skip);
    }
    let index = ConflictIndex::new(txns);
    let comps = Components::new(txns, &index);
    if comps.count() <= 1 {
        return Ok(ShardOutcome::Skip);
    }
    if expired(deadline) {
        return Err(Expired);
    }
    let mut pairs: Vec<(TxnId, IsolationLevel)> = Vec::with_capacity(txns.len());
    let mut misses: Vec<usize> = Vec::new();
    let mut unallocatable = false;
    for (c, members) in comps.iter() {
        if members.len() < 2 {
            // A conflict-free transaction appears in no split schedule:
            // RC is its optimum under either menu.
            stats.checked += 1;
            pairs.push((txns.by_index(members[0]).id(), IsolationLevel::RC));
            continue;
        }
        let fp = comps.fingerprint(c);
        let entry = match cache.get(fp) {
            Some(e) => Some(e.clone()),
            // Local miss: consult the shared cache (this ordering makes
            // its hit rate the cross-allocator first-encounter rate)
            // and warm the local cache with any hit.
            None => match shared.and_then(|sc| sc.get(levels, fp)) {
                Some(e) => {
                    cache.insert(fp, e.clone());
                    Some(e)
                }
                None => None,
            },
        };
        match entry {
            Some(CompEntry::Robust(lvls)) => {
                stats.cached += 1;
                pairs.extend(lvls.iter().copied());
            }
            Some(CompEntry::Unallocatable) => {
                stats.cached += 1;
                unallocatable = true;
            }
            None => misses.push(c),
        }
    }
    if unallocatable {
        return Ok(ShardOutcome::Unallocatable);
    }
    if misses.is_empty() {
        return Ok(ShardOutcome::Solved(Allocation::from_pairs(pairs)));
    }
    // Largest components first: they dominate the critical path when the
    // misses are solved in parallel.
    misses.sort_by_key(|&c| (std::cmp::Reverse(comps.members(c).len()), c));
    let workers = threads.min(misses.len()).max(1);
    let (mut solved, hit_deadline): (Vec<(usize, CompSolved)>, bool) = if workers == 1 {
        // One worker: a lone miss gets the full thread budget for its
        // inner T₁ search; otherwise run the misses one by one.
        let sub_threads = if misses.len() == 1 { threads } else { 1 };
        let mut acc = Vec::with_capacity(misses.len());
        let mut expired_flag = false;
        for &c in &misses {
            match solve_component(txns, comps.members(c), levels, sub_threads, deadline) {
                Ok(s) => acc.push((c, s)),
                Err(Expired) => {
                    expired_flag = true;
                    break;
                }
            }
        }
        (acc, expired_flag)
    } else {
        let next = AtomicUsize::new(0);
        let stop = AtomicBool::new(false);
        let results: Mutex<Vec<(usize, CompSolved)>> = Mutex::new(Vec::new());
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| loop {
                    if stop.load(Ordering::Relaxed) {
                        break;
                    }
                    let k = next.fetch_add(1, Ordering::Relaxed);
                    let Some(&c) = misses.get(k) else { break };
                    match solve_component(txns, comps.members(c), levels, 1, deadline) {
                        Ok(s) => results.lock().unwrap().push((c, s)),
                        Err(Expired) => {
                            stop.store(true, Ordering::Relaxed);
                            break;
                        }
                    }
                });
            }
        });
        let expired_flag = stop.load(Ordering::Relaxed);
        (results.into_inner().unwrap(), expired_flag)
    };
    // Deterministic cache-insertion (FIFO eviction) order regardless of
    // worker scheduling.
    solved.sort_by_key(|&(c, _)| c);
    for (c, s) in &solved {
        let fp = comps.fingerprint(*c);
        cache.insert(fp, s.entry.clone());
        if let Some(sc) = shared {
            sc.insert(levels, fp, s.entry.clone());
        }
        stats.absorb(s);
    }
    if hit_deadline {
        return Err(Expired);
    }
    for (_, s) in &solved {
        match &s.entry {
            CompEntry::Robust(lvls) => pairs.extend(lvls.iter().copied()),
            CompEntry::Unallocatable => unallocatable = true,
        }
    }
    if unallocatable {
        return Ok(ShardOutcome::Unallocatable);
    }
    Ok(ShardOutcome::Solved(Allocation::from_pairs(pairs)))
}

/// Marker: a refinement deadline expired mid-loop.
struct Expired;

/// Has `deadline` passed? `None` never expires.
fn expired(deadline: Option<Instant>) -> bool {
    deadline.is_some_and(|d| Instant::now() >= d)
}

/// Does `spec` reference transaction `id` (as the split transaction or
/// anywhere in its chain)? Such specs dangle once `id` is removed.
fn spec_mentions(spec: &SplitSpec, id: TxnId) -> bool {
    spec.t1 == id || spec.chain.contains(&id)
}

/// Evicts the oldest cached counterexamples past [`SPEC_CACHE_CAP`].
fn trim_specs(specs: &mut Vec<SplitSpec>) {
    if specs.len() > SPEC_CACHE_CAP {
        let excess = specs.len() - SPEC_CACHE_CAP;
        specs.drain(..excess);
    }
}

/// Is `alloc` robust? Consults the persistent counterexample cache first
/// (a cached spec that re-validates is a certificate of non-robustness);
/// on a miss runs a full probe and caches any fresh counterexample.
fn probe_cached(
    txns: &TransactionSet,
    checker: &RobustnessChecker<'_>,
    specs: &mut Vec<SplitSpec>,
    alloc: &Allocation,
    hits: &mut u64,
) -> bool {
    if specs.iter().any(|s| s.check(txns, alloc).is_ok()) {
        *hits += 1;
        return false;
    }
    match checker.find_counterexample(alloc) {
        None => true,
        Some(spec) => {
            specs.push(spec);
            false
        }
    }
}

#[derive(Default)]
struct CacheStats {
    hits: u64,
    specs: u64,
}

/// The refinement loop shared by Algorithm 2, its box-constrained
/// variant, and the `{RC, SI}` variant (Theorem 5.5): lowers each
/// transaction of a *robust* starting allocation to its least robust
/// level (skipping levels below `floor`, when given).
///
/// `on_failure` observes every rejected lowering with the spec that
/// rejected it (cached or fresh).
///
/// The counterexample cache only ever *rejects* candidates, and only
/// with a spec that [`SplitSpec::check`]-validates against that exact
/// candidate — a certificate of non-robustness. Acceptances always come
/// from a full probe, so the refinement path is identical to the
/// uncached loop.
fn refine_cached(
    txns: &TransactionSet,
    checker: &RobustnessChecker<'_>,
    start: Allocation,
    floor: Option<&Allocation>,
    on_failure: &mut dyn FnMut(TxnId, IsolationLevel, &SplitSpec),
) -> (Allocation, CacheStats) {
    let mut cache: Vec<SplitSpec> = Vec::new();
    let (alloc, hits) = refine_with(txns, checker, &mut cache, start, floor, None, on_failure)
        .unwrap_or_else(|Expired| unreachable!("no deadline was set"));
    let specs = cache.len() as u64;
    (alloc, CacheStats { hits, specs })
}

/// [`refine_cached`] against a caller-owned counterexample cache — the
/// form the delta API uses to persist specs across reallocations.
/// Returns the refined allocation and the number of cache hits, or
/// [`Expired`] when `deadline` passes between lowering attempts (callers
/// then roll back the mutation; the partially-refined allocation is
/// discarded because only a *completed* refinement is the optimum).
fn refine_with(
    txns: &TransactionSet,
    checker: &RobustnessChecker<'_>,
    cache: &mut Vec<SplitSpec>,
    start: Allocation,
    floor: Option<&Allocation>,
    deadline: Option<Instant>,
    on_failure: &mut dyn FnMut(TxnId, IsolationLevel, &SplitSpec),
) -> Result<(Allocation, u64), Expired> {
    debug_assert!(
        checker.is_robust(&start).robust(),
        "refine requires a robust start"
    );
    // Checked on entry too, so a refinement with nothing to lower
    // (e.g. removing the last transaction) still honours an expired
    // deadline — forced timeouts fail every mutation uniformly.
    if expired(deadline) {
        return Err(Expired);
    }
    let mut hits = 0u64;
    let mut alloc = start;
    for t in txns.iter() {
        for &lvl in alloc.level(t.id()).lower_levels() {
            if let Some(floor) = floor {
                if lvl < floor.level(t.id()) {
                    continue;
                }
            }
            if expired(deadline) {
                return Err(Expired);
            }
            let candidate = alloc.with(t.id(), lvl);
            if let Some(spec) = cache.iter().find(|s| s.check(txns, &candidate).is_ok()) {
                hits += 1;
                on_failure(t.id(), lvl, spec);
                continue;
            }
            match checker.find_counterexample(&candidate) {
                None => {
                    alloc = candidate;
                    break;
                }
                Some(spec) => {
                    on_failure(t.id(), lvl, &spec);
                    cache.push(spec);
                }
            }
        }
    }
    Ok((alloc, hits))
}

/// Computes the unique optimal robust allocation for `txns` over
/// `{RC, SI, SSI}` (Theorem 4.3).
///
/// Starting from `𝒜_SSI` (always robust), each transaction is lowered to
/// the least level that keeps the allocation robust. Correctness rests on
/// Proposition 4.1(2): if some robust allocation maps `T` lower, the
/// current one may adopt that level as well — so greedy, order-independent
/// refinement reaches the unique optimum (Proposition 4.2).
pub fn optimal_allocation(txns: &TransactionSet) -> Allocation {
    Allocator::new(txns).optimal().0
}

/// Computes the least robust allocation inside the box `lo ≤ 𝒜 ≤ hi`
/// (pointwise), or `None` when no robust allocation exists in the box.
///
/// Practical use: constraints from the deployment — a legacy driver
/// hard-codes `READ COMMITTED` (pin with `lo = hi = RC`), an auditor
/// demands at least SI for a reporting transaction (`lo = SI`), a hot
/// path must not pay SSI's SIREAD overhead (`hi = SI`).
///
/// Correctness: robustness is upward closed (Proposition 4.1(1)), so if
/// any robust allocation lies in the box then `hi` itself is robust; the
/// refinement then mirrors Algorithm 2 restricted to the box, and the
/// exchange argument of Proposition 4.1(2) gives uniqueness of the
/// box-minimum exactly as in Proposition 4.2.
///
/// Panics when `lo`/`hi` do not cover every transaction or `lo ≰ hi`.
pub fn optimal_allocation_in_box(
    txns: &TransactionSet,
    lo: &Allocation,
    hi: &Allocation,
) -> Option<Allocation> {
    Allocator::new(txns).optimal_in_box(lo, hi).0
}

/// [`optimal_allocation_in_box`] with only a lower bound (`hi = 𝒜_SSI`).
/// Always succeeds, since `𝒜_SSI` is robust.
pub fn optimal_allocation_with_floor(txns: &TransactionSet, floor: &Allocation) -> Allocation {
    Allocator::new(txns).optimal_with_floor(floor).0
}

/// Diagnostic variant of [`optimal_allocation`] that also reports, for
/// each lowering attempt that failed, the counterexample found — useful
/// for explaining *why* a transaction needs its level.
pub fn optimal_allocation_explained(txns: &TransactionSet) -> (Allocation, Vec<Reason>) {
    let (alloc, reasons, _) = Allocator::new(txns).optimal_explained();
    (alloc, reasons)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithm1::is_robust;
    use mvmodel::{TxnId, TxnSetBuilder};

    #[test]
    fn disjoint_workload_all_rc() {
        let mut b = TxnSetBuilder::new();
        let x = b.object("x");
        let y = b.object("y");
        b.txn(1).read(x).write(x).finish();
        b.txn(2).read(y).write(y).finish();
        let txns = b.build().unwrap();
        let a = optimal_allocation(&txns);
        assert_eq!(a, Allocation::uniform_rc(&txns));
    }

    #[test]
    fn write_skew_needs_ssi_pair() {
        let mut b = TxnSetBuilder::new();
        let x = b.object("x");
        let y = b.object("y");
        b.txn(1).read(x).write(y).finish();
        b.txn(2).read(y).write(x).finish();
        let txns = b.build().unwrap();
        let a = optimal_allocation(&txns);
        assert!(is_robust(&txns, &a).robust());
        // Write skew requires SSI for… at least two of the transactions
        // (the dangerous-structure filter needs all three participants
        // SSI; with two transactions both must be SSI).
        assert_eq!(a.level(TxnId(1)), IsolationLevel::SSI);
        assert_eq!(a.level(TxnId(2)), IsolationLevel::SSI);
    }

    #[test]
    fn lost_update_gets_si() {
        let mut b = TxnSetBuilder::new();
        let x = b.object("x");
        b.txn(1).read(x).write(x).finish();
        b.txn(2).read(x).write(x).finish();
        let txns = b.build().unwrap();
        let a = optimal_allocation(&txns);
        assert!(is_robust(&txns, &a).robust());
        assert_eq!(
            a.counts(),
            (0, 2, 0),
            "lost-update pair is robust at SI but not RC: {a}"
        );
    }

    #[test]
    fn optimality_lowering_any_txn_breaks_robustness() {
        let mut b = TxnSetBuilder::new();
        let x = b.object("x");
        let y = b.object("y");
        b.txn(1).read(x).write(y).finish();
        b.txn(2).read(y).write(x).finish();
        b.txn(3).read(x).write(x).finish();
        let txns = b.build().unwrap();
        let a = optimal_allocation(&txns);
        assert!(is_robust(&txns, &a).robust());
        for t in txns.ids() {
            for &lower in a.level(t).lower_levels() {
                let lowered = a.with(t, lower);
                assert!(
                    !is_robust(&txns, &lowered).robust(),
                    "lowering {t} to {lower} should break robustness ({a})"
                );
            }
        }
    }

    #[test]
    fn explained_variant_agrees_and_reports_reasons() {
        let mut b = TxnSetBuilder::new();
        let x = b.object("x");
        let y = b.object("y");
        b.txn(1).read(x).write(y).finish();
        b.txn(2).read(y).write(x).finish();
        let txns = b.build().unwrap();
        let (a, reasons) = optimal_allocation_explained(&txns);
        assert_eq!(a, optimal_allocation(&txns));
        // Both transactions failed both lowering attempts: 4 reasons.
        assert_eq!(reasons.len(), 4);
        for (t, lvl, spec) in &reasons {
            assert!(!spec.chain.is_empty());
            // Every reported spec certifies non-robustness of the exact
            // candidate it rejected.
            let candidate_base = if *t == TxnId(2) {
                a.clone()
            } else {
                Allocation::uniform_ssi(&txns)
            };
            let _ = (candidate_base, lvl);
        }
    }

    #[test]
    fn engine_stats_account_for_cache() {
        // Write-skew pair: 4 lowering attempts all fail. The first
        // failure (T1→RC) caches a spec; whether later attempts hit the
        // cache depends on spec validity under each candidate, but
        // probes + cache_hits must cover all 4 attempts.
        let mut b = TxnSetBuilder::new();
        let x = b.object("x");
        let y = b.object("y");
        b.txn(1).read(x).write(y).finish();
        b.txn(2).read(y).write(x).finish();
        let txns = b.build().unwrap();
        let (a, stats) = Allocator::new(&txns).optimal();
        assert_eq!(a, optimal_allocation(&txns));
        assert_eq!(stats.probes + stats.cache_hits, 4 + dbg_probe_overhead());
        assert!(
            stats.cache_hits >= 1,
            "repeat rejections should hit the cache: {stats}"
        );
        assert!(stats.cached_specs >= 1);
        assert_eq!(stats.threads, 1);
        assert!(stats.wall.as_nanos() > 0);
        let shown = stats.to_string();
        assert!(shown.contains("probes=") && shown.contains("cache_hits="));
    }

    /// `refine_cached` opens with a `debug_assert` probe of the start
    /// allocation; it runs only in debug builds.
    fn dbg_probe_overhead() -> u64 {
        if cfg!(debug_assertions) {
            1
        } else {
            0
        }
    }

    #[test]
    fn box_allocation_respects_bounds() {
        // Write skew pair + an independent reader.
        let mut b = TxnSetBuilder::new();
        let x = b.object("x");
        let y = b.object("y");
        let z = b.object("z");
        b.txn(1).read(x).write(y).finish();
        b.txn(2).read(y).write(x).finish();
        b.txn(3).read(z).finish();
        let txns = b.build().unwrap();

        // Unconstrained optimum: T1, T2 → SSI; T3 → RC.
        let free = optimal_allocation(&txns);
        assert_eq!(free.to_string(), "T1=SSI T2=SSI T3=RC");

        // Floor: T3 must run at least at SI.
        let floor = Allocation::parse("T1=RC T2=RC T3=SI").unwrap();
        let a = super::optimal_allocation_with_floor(&txns, &floor);
        assert_eq!(a.to_string(), "T1=SSI T2=SSI T3=SI");
        assert!(is_robust(&txns, &a).robust());

        // Ceiling: T1 must not exceed SI → no robust allocation in the box
        // (the skew pair needs both at SSI).
        let lo = Allocation::uniform_rc(&txns);
        let hi = Allocation::parse("T1=SI T2=SSI T3=SSI").unwrap();
        assert_eq!(super::optimal_allocation_in_box(&txns, &lo, &hi), None);

        // Exact pin: T3 = RC is compatible.
        let lo = Allocation::parse("T1=RC T2=RC T3=RC").unwrap();
        let hi = Allocation::parse("T1=SSI T2=SSI T3=RC").unwrap();
        let a = super::optimal_allocation_in_box(&txns, &lo, &hi).unwrap();
        assert_eq!(a, free);
    }

    #[test]
    #[should_panic(expected = "lo ≤ hi")]
    fn box_rejects_inverted_bounds() {
        let mut b = TxnSetBuilder::new();
        let x = b.object("x");
        b.txn(1).read(x).finish();
        let txns = b.build().unwrap();
        let _ = super::optimal_allocation_in_box(
            &txns,
            &Allocation::uniform_ssi(&txns),
            &Allocation::uniform_rc(&txns),
        );
    }

    #[test]
    fn level_set_parses_and_rejects() {
        assert_eq!("rc-si".parse::<LevelSet>().unwrap(), LevelSet::RcSi);
        assert_eq!("RC-SI-SSI".parse::<LevelSet>().unwrap(), LevelSet::RcSiSsi);
        let err = "serializable".parse::<LevelSet>().unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("rc-si") && msg.contains("rc-si-ssi"), "{msg}");
        assert_eq!(LevelSet::RcSi.ceiling(), IsolationLevel::SI);
        assert_eq!(LevelSet::RcSiSsi.to_string(), "rc-si-ssi");
    }

    /// Builds the write-skew pair plus a private-object reader as three
    /// standalone transactions sharing one interned object table.
    fn skew_txn(set: &mut TransactionSet, id: u32, r: &str, w: &str) -> Transaction {
        let read = set.intern_object(r);
        let write = set.intern_object(w);
        Transaction::new(
            TxnId(id),
            vec![mvmodel::Op::read(read), mvmodel::Op::write(write)],
        )
        .unwrap()
    }

    #[test]
    fn delta_add_and_remove_track_full_recompute() {
        let mut alloc = Allocator::from_owned(TransactionSet::default());
        assert!(alloc.current().unwrap().is_empty());

        // T1 alone: RC.
        let t1 = skew_txn(alloc.txns.to_mut(), 1, "x", "y");
        let r = alloc.add_txn(t1).unwrap();
        assert_eq!(r.allocation.to_string(), "T1=RC");
        assert_eq!(r.changed.len(), 1);
        assert_eq!(r.changed[0].after, Some(IsolationLevel::RC));

        // T2 closes the write-skew cycle: both jump to SSI.
        let t2 = skew_txn(alloc.txns.to_mut(), 2, "y", "x");
        let r = alloc.add_txn(t2).unwrap();
        assert_eq!(r.allocation, optimal_allocation(alloc.txns()));
        assert_eq!(r.allocation.to_string(), "T1=SSI T2=SSI");
        // Both T1 (raised) and T2 (entered) appear in the diff.
        assert_eq!(r.changed.len(), 2);

        // An unrelated reader registers at RC without disturbing the pair.
        let t3 = skew_txn(alloc.txns.to_mut(), 3, "z", "w");
        let r = alloc.add_txn(t3).unwrap();
        assert_eq!(r.allocation.to_string(), "T1=SSI T2=SSI T3=RC");
        assert_eq!(r.changed.len(), 1, "only T3 changed: {:?}", r.changed);

        // Removing T2 breaks the cycle: T1 falls back to RC.
        let r = alloc.remove_txn(TxnId(2)).unwrap();
        assert_eq!(r.allocation, optimal_allocation(alloc.txns()));
        assert_eq!(r.allocation.to_string(), "T1=RC T3=RC");
        let stats = alloc.last_stats().unwrap();
        // The survivors {T1} and {T3} are both singleton components: the
        // sharded engine answers without a single Algorithm 1 probe.
        assert_eq!(stats.probes + stats.cache_hits, 0);
        assert_eq!(stats.components_checked, 2);

        // Duplicate / unknown ids are structured errors, state unchanged.
        let dup = skew_txn(alloc.txns.to_mut(), 1, "x", "y");
        assert_eq!(
            alloc.add_txn(dup).unwrap_err(),
            AllocError::Duplicate(TxnId(1))
        );
        assert_eq!(
            alloc.remove_txn(TxnId(9)).unwrap_err(),
            AllocError::Unknown(TxnId(9))
        );
        assert_eq!(alloc.current().unwrap().to_string(), "T1=RC T3=RC");
    }

    #[test]
    fn delta_rc_si_rolls_back_unallocatable_add() {
        let mut alloc =
            Allocator::from_owned(TransactionSet::default()).with_levels(LevelSet::RcSi);
        let t1 = skew_txn(alloc.txns.to_mut(), 1, "x", "y");
        alloc.add_txn(t1).unwrap();
        // Write skew is not {RC, SI}-allocatable: the add is rejected
        // and rolled back.
        let t2 = skew_txn(alloc.txns.to_mut(), 2, "y", "x");
        assert_eq!(
            alloc.add_txn(t2).unwrap_err(),
            AllocError::NotAllocatable(LevelSet::RcSi)
        );
        assert_eq!(alloc.txns().len(), 1);
        assert_eq!(alloc.current().unwrap().to_string(), "T1=RC");
        // A compatible transaction still registers afterwards.
        let t3 = skew_txn(alloc.txns.to_mut(), 3, "z", "w");
        let r = alloc.add_txn(t3).unwrap();
        assert_eq!(r.allocation.to_string(), "T1=RC T3=RC");
    }

    #[test]
    fn expired_deadline_rolls_back_add_and_remove() {
        let mut alloc = Allocator::from_owned(TransactionSet::default());
        let t1 = skew_txn(alloc.txns.to_mut(), 1, "x", "y");
        alloc.add_txn(t1).unwrap();
        let t2 = skew_txn(alloc.txns.to_mut(), 2, "y", "x");
        alloc.add_txn(t2).unwrap();
        assert_eq!(alloc.current().unwrap().to_string(), "T1=SSI T2=SSI");

        // An already-expired deadline: the add is rolled back, the set
        // and optimum are untouched.
        let past = Some(Instant::now());
        let t3 = skew_txn(alloc.txns.to_mut(), 3, "x", "z");
        assert_eq!(alloc.add_txn_by(t3, past).unwrap_err(), AllocError::Timeout);
        assert_eq!(alloc.txns().len(), 2);
        assert_eq!(alloc.current().unwrap().to_string(), "T1=SSI T2=SSI");

        // Same for a remove: T2 is re-inserted, the optimum stands.
        assert_eq!(
            alloc.remove_txn_by(TxnId(2), past).unwrap_err(),
            AllocError::Timeout
        );
        assert_eq!(alloc.txns().len(), 2);
        assert_eq!(alloc.current().unwrap().to_string(), "T1=SSI T2=SSI");

        // After the failures, unbounded mutations still work and agree
        // with a from-scratch recomputation.
        let t3 = skew_txn(alloc.txns.to_mut(), 3, "x", "z");
        let r = alloc.add_txn(t3).unwrap();
        assert_eq!(r.allocation, optimal_allocation(alloc.txns()));
        let r = alloc.remove_txn(TxnId(2)).unwrap();
        assert_eq!(r.allocation, optimal_allocation(alloc.txns()));
    }

    #[test]
    fn generous_timeout_never_fires() {
        let mut alloc = Allocator::from_owned(TransactionSet::default())
            .with_op_timeout(Some(Duration::from_secs(60)));
        assert_eq!(alloc.op_timeout(), Some(Duration::from_secs(60)));
        let t1 = skew_txn(alloc.txns.to_mut(), 1, "x", "y");
        let t2 = skew_txn(alloc.txns.to_mut(), 2, "y", "x");
        alloc.add_txn(t1).unwrap();
        alloc.add_txn(t2).unwrap();
        assert_eq!(alloc.current().unwrap().to_string(), "T1=SSI T2=SSI");
        alloc.remove_txn(TxnId(1)).unwrap();
        assert_eq!(alloc.current().unwrap().to_string(), "T2=RC");
    }

    #[test]
    fn expired_deadline_on_first_current_leaves_cache_unfilled() {
        let mut alloc = Allocator::from_owned(TransactionSet::default());
        let t1 = skew_txn(alloc.txns.to_mut(), 1, "x", "y");
        let t2 = skew_txn(alloc.txns.to_mut(), 2, "y", "x");
        alloc.txns.to_mut().insert(t1).unwrap();
        alloc.txns.to_mut().insert(t2).unwrap();
        // Force the initial computation to time out via an expired
        // per-op budget, then clear it and observe a clean recompute.
        let mut timed = alloc.with_op_timeout(Some(Duration::ZERO));
        assert_eq!(timed.current().unwrap_err(), AllocError::Timeout);
        let mut freed = timed.with_op_timeout(None);
        assert_eq!(freed.current().unwrap().to_string(), "T1=SSI T2=SSI");
    }

    /// Three conflict clusters plus a singleton: write skew on (x, y),
    /// lost update on z, and a lone reader of w.
    fn clustered() -> TransactionSet {
        let mut b = TxnSetBuilder::new();
        let x = b.object("x");
        let y = b.object("y");
        let z = b.object("z");
        let w = b.object("w");
        b.txn(1).read(x).write(y).finish();
        b.txn(2).read(y).write(x).finish();
        b.txn(3).read(z).write(z).finish();
        b.txn(4).read(z).write(z).finish();
        b.txn(5).read(w).finish();
        b.build().unwrap()
    }

    #[test]
    fn sharded_one_shot_matches_unsharded() {
        let txns = clustered();
        let (unsharded, _) = Allocator::new(&txns).with_components(false).optimal();
        for threads in [1, 2, 4] {
            let (sharded, stats) = Allocator::new(&txns).with_threads(threads).optimal();
            assert_eq!(sharded, unsharded, "threads={threads}");
            // Two multi-member clusters searched + one singleton resolved.
            assert_eq!(stats.components_checked, 3, "threads={threads}: {stats}");
            assert_eq!(stats.components_cached, 0);
            assert!(stats.probes > 0 && stats.kernel_row_ops > 0, "{stats}");
        }
        assert_eq!(unsharded.to_string(), "T1=SSI T2=SSI T3=SI T4=SI T5=RC");
    }

    #[test]
    fn sharded_rc_si_detects_unallocatable_component() {
        // The skew cluster is not {RC, SI}-allocatable; verdicts agree.
        let txns = clustered();
        let (sharded, stats) = Allocator::new(&txns).optimal_rc_si();
        let (unsharded, _) = Allocator::new(&txns).with_components(false).optimal_rc_si();
        assert_eq!(sharded, None);
        assert_eq!(unsharded, None);
        assert!(stats.components_checked >= 1, "{stats}");
    }

    #[test]
    fn delta_reuses_cached_components() {
        let mut alloc = Allocator::from_owned(TransactionSet::default());
        for t in clustered().iter() {
            alloc.add_txn(t.clone()).unwrap();
        }
        assert_eq!(
            alloc.current().unwrap().to_string(),
            "T1=SSI T2=SSI T3=SI T4=SI T5=RC"
        );

        // T6 writes w (raw object id 3 in `clustered()`'s table), merging
        // with the singleton T5. The skew and lost-update clusters are
        // untouched: their fingerprints match the cache and no search
        // runs for them.
        let t6 = Transaction::new(TxnId(6), vec![mvmodel::Op::write(Object(3))]).unwrap();
        let r = alloc.add_txn(t6).unwrap();
        let (expect, _) = Allocator::new(alloc.txns())
            .with_components(false)
            .optimal();
        assert_eq!(r.allocation, expect);
        assert_eq!(r.stats.components_cached, 2, "{}", r.stats);
        assert_eq!(r.stats.components_checked, 1, "{}", r.stats);

        // Removing T6 splits {T5, T6} back into the singleton {T5};
        // the two big clusters are again pure cache hits.
        let r = alloc.remove_txn(TxnId(6)).unwrap();
        assert_eq!(r.allocation.to_string(), "T1=SSI T2=SSI T3=SI T4=SI T5=RC");
        assert_eq!(r.stats.components_cached, 2, "{}", r.stats);
        assert_eq!(r.stats.components_checked, 1, "{}", r.stats);
        assert_eq!(r.stats.probes, 0, "untouched clusters cost no probes");

        // End-state equals an unsharded from-scratch recomputation.
        let (unsharded, _) = Allocator::new(alloc.txns())
            .with_components(false)
            .optimal();
        assert_eq!(*alloc.current().unwrap(), unsharded);
    }

    #[test]
    fn no_components_escape_hatch_delta() {
        // The unsharded delta path still computes identical optima.
        let mut sharded = Allocator::from_owned(TransactionSet::default());
        let mut unsharded = Allocator::from_owned(TransactionSet::default()).with_components(false);
        for t in clustered().iter() {
            let a = sharded.add_txn(t.clone()).unwrap();
            let b = unsharded.add_txn(t.clone()).unwrap();
            assert_eq!(a.allocation, b.allocation);
            assert_eq!(a.changed, b.changed);
        }
        for id in [TxnId(2), TxnId(3)] {
            let a = sharded.remove_txn(id).unwrap();
            let b = unsharded.remove_txn(id).unwrap();
            assert_eq!(a.allocation, b.allocation);
            assert_eq!(a.changed, b.changed);
        }
        assert!(!unsharded.components_enabled());
        assert!(sharded.components_enabled());
    }

    #[test]
    fn with_levels_clears_component_cache() {
        let mut alloc = Allocator::from_owned(TransactionSet::default());
        for t in clustered().iter() {
            if t.id() != TxnId(1) && t.id() != TxnId(2) {
                alloc.add_txn(t.clone()).unwrap();
            }
        }
        alloc.current().unwrap();
        // Switching menus invalidates cached entries (they are optima
        // *for a menu*); the {RC, SI} optimum is recomputed, not served
        // from the {RC, SI, SSI} cache.
        let mut alloc = alloc.with_levels(LevelSet::RcSi);
        let a = alloc.current().unwrap().clone();
        let (expect, _) = Allocator::new(alloc.txns())
            .with_components(false)
            .optimal_rc_si();
        assert_eq!(Some(a), expect);
        let stats = alloc.last_stats().unwrap();
        assert_eq!(stats.components_cached, 0, "{stats}");
    }

    #[test]
    fn empty_and_singleton_sets() {
        let txns = TxnSetBuilder::new().build().unwrap();
        assert!(optimal_allocation(&txns).is_empty());
        let mut b = TxnSetBuilder::new();
        let x = b.object("x");
        b.txn(1).read(x).write(x).finish();
        let txns = b.build().unwrap();
        assert_eq!(optimal_allocation(&txns).counts(), (1, 0, 0));
    }

    #[test]
    fn shared_cache_answers_identical_shapes_across_allocators() {
        let shared = Arc::new(SharedCompCache::default());
        let txns = clustered();
        // First allocator solves from scratch and publishes.
        let (a1, _) = Allocator::new(&txns)
            .with_shared_cache(shared.clone())
            .optimal();
        let published = shared.inserts();
        assert!(published >= 2, "multi-member components published");
        // Second allocator (a different "tenant", same shapes): every
        // non-singleton component is a pure shared hit, and the result
        // is bit-identical.
        let (a2, stats) = Allocator::new(&txns)
            .with_shared_cache(shared.clone())
            .optimal();
        assert_eq!(a1, a2);
        assert_eq!(shared.inserts(), published, "nothing re-solved");
        assert!(shared.hits() >= 2, "hits: {}", shared.hits());
        assert!(stats.components_cached >= 2, "{stats}");
        // And identical to a share-nothing allocator.
        assert_eq!(a1, optimal_allocation(&txns));
    }

    #[test]
    fn shared_cache_survives_menu_changes_without_cross_talk() {
        let shared = Arc::new(SharedCompCache::default());
        let txns = clustered();
        let base = Allocator::new(&txns).with_shared_cache(shared.clone());
        let (full, _) = base.optimal();
        let (rc_si, _) = base.optimal_rc_si();
        // The menus key disjoint entries: each result matches its
        // uncached ground truth even though both ran over one handle.
        assert_eq!(full, optimal_allocation(&txns));
        assert_eq!(
            rc_si,
            Allocator::new(&txns)
                .with_components(false)
                .optimal_rc_si()
                .0
        );
    }
}
