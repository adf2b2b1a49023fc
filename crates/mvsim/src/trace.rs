//! Recording executions and exporting them as formal multiversion
//! schedules.
//!
//! The recorder logs every operation of every attempt in global order.
//! [`TraceRecorder::export`] keeps only *committed* attempts, renumbers
//! them as `T1, T2, …` (in order of first appearance), and produces a
//! fully-validated [`mvmodel::Schedule`]: operation order = global event
//! order, version order = commit order, version function = the versions
//! the engine actually served. The companion [`Allocation`] maps each
//! exported transaction to the level it ran at, so callers can assert the
//! execution is allowed under it (Definition 2.4).

use crate::version::{AttemptId, Observed};
use mvisolation::{Allocation, IsolationLevel};
use mvmodel::{Object, OpAddr, OpId, Schedule, ScheduleError, TxnId, TxnSetBuilder};
use std::collections::HashMap;

/// One recorded operation of an attempt.
#[derive(Clone, Copy, Debug)]
pub(crate) enum Event {
    Read { object: Object, observed: Observed },
    Write { object: Object },
    Commit,
}

/// In-memory event log (enabled via `SimConfig::record_trace`).
#[derive(Debug)]
pub struct TraceRecorder {
    enabled: bool,
    events: Vec<(AttemptId, Event)>,
    levels: HashMap<AttemptId, IsolationLevel>,
    committed: Vec<AttemptId>,
    last_read: Option<Observed>,
    /// Display names for objects (index = object id), forwarded from the
    /// source workload so exported schedules render readably.
    object_names: Vec<String>,
}

/// A committed execution exported to the formal model.
pub struct ExportedTrace {
    pub schedule: Schedule,
    pub allocation: Allocation,
    /// Exported id per committed attempt.
    pub attempt_ids: HashMap<AttemptId, TxnId>,
}

impl TraceRecorder {
    pub fn new(enabled: bool) -> Self {
        TraceRecorder {
            enabled,
            events: Vec::new(),
            levels: HashMap::new(),
            committed: Vec::new(),
            last_read: None,
            object_names: Vec::new(),
        }
    }

    /// Registers display names for objects (index = object id); exported
    /// schedules then render `R1[stock]` instead of `R1[o3]`.
    pub fn set_object_names(&mut self, names: Vec<String>) {
        self.object_names = names;
    }

    pub(crate) fn record_level(&mut self, who: AttemptId, level: IsolationLevel) {
        if self.enabled {
            self.levels.insert(who, level);
        }
    }

    /// Appends `who`'s next operation to the global order.
    pub(crate) fn record(&mut self, who: AttemptId, ev: Event) {
        if let Event::Read { observed, .. } = ev {
            self.last_read = Some(observed);
        }
        if self.enabled {
            if let Event::Commit = ev {
                self.committed.push(who);
            }
            self.events.push((who, ev));
        }
    }

    /// The version observed by the most recent read (test hook; works even
    /// with recording disabled).
    pub fn last_read_observed(&self) -> Option<Observed> {
        self.last_read
    }

    /// Number of committed attempts recorded.
    pub fn committed_count(&self) -> usize {
        self.committed.len()
    }

    /// Exports the committed execution as a validated schedule +
    /// allocation. Fails only if recording was disabled.
    ///
    /// Panics if the engine produced an ill-formed schedule — that would
    /// be a simulator bug, and the integration tests treat it as such.
    pub fn export(&self) -> Option<ExportedTrace> {
        if !self.enabled {
            return None;
        }
        Some(
            self.export_inner()
                .expect("simulator emitted an ill-formed schedule"),
        )
    }

    fn export_inner(&self) -> Result<ExportedTrace, ScheduleError> {
        // Renumber committed attempts in order of first appearance.
        let committed: std::collections::HashSet<AttemptId> =
            self.committed.iter().copied().collect();
        let mut ids: HashMap<AttemptId, TxnId> = HashMap::new();
        let mut next = 0u32;
        for &(who, _) in &self.events {
            if committed.contains(&who) && !ids.contains_key(&who) {
                next += 1;
                ids.insert(who, TxnId(next));
            }
        }

        // Rebuild the committed transactions' programs and the operation
        // order, tracking per-attempt op indices.
        let mut b = TxnSetBuilder::new();
        let mut programs: HashMap<AttemptId, Vec<mvmodel::Op>> = HashMap::new();
        let mut order: Vec<OpId> = Vec::new();
        let mut op_index: HashMap<AttemptId, u16> = HashMap::new();
        // (writer attempt, object) → op index of the write.
        let mut write_addr: HashMap<(AttemptId, Object), u16> = HashMap::new();
        let mut reads_raw: Vec<(OpAddr, Observed, Object)> = Vec::new();
        let mut commit_order: Vec<AttemptId> = Vec::new();

        for &(who, ev) in &self.events {
            match ev {
                Event::Read { object, observed } => {
                    if let Some(&tid) = ids.get(&who) {
                        let idx = op_index.entry(who).or_insert(0);
                        programs
                            .entry(who)
                            .or_default()
                            .push(mvmodel::Op::read(object));
                        order.push(OpId::op(tid, *idx));
                        reads_raw.push((OpAddr::new(tid, *idx), observed, object));
                        *idx += 1;
                    }
                }
                Event::Write { object } => {
                    if let Some(&tid) = ids.get(&who) {
                        let idx = op_index.entry(who).or_insert(0);
                        programs
                            .entry(who)
                            .or_default()
                            .push(mvmodel::Op::write(object));
                        order.push(OpId::op(tid, *idx));
                        write_addr.insert((who, object), *idx);
                        *idx += 1;
                    }
                }
                Event::Commit => {
                    if let Some(&tid) = ids.get(&who) {
                        order.push(OpId::Commit(tid));
                        commit_order.push(who);
                    }
                }
            }
        }
        for (&attempt, ops) in &programs {
            b.push(
                mvmodel::Transaction::new(ids[&attempt], ops.clone()).expect(
                    "engine enforces read-before-write, so programs satisfy the model invariant",
                ),
            );
        }
        // Committed attempts with no operations still need transactions.
        for &attempt in &self.committed {
            if !programs.contains_key(&attempt) {
                if let Some(&tid) = ids.get(&attempt) {
                    b.push(mvmodel::Transaction::new(tid, Vec::new()).expect("empty txn"));
                }
            }
        }
        let mut set = b.build().expect("attempt ids are unique");
        if !self.object_names.is_empty() {
            let txn_vec: Vec<mvmodel::Transaction> = set.iter().cloned().collect();
            set = mvmodel::TransactionSet::with_object_names(txn_vec, self.object_names.clone())
                .expect("ids unchanged");
        }
        let txns = std::sync::Arc::new(set);

        // Version order: per object, writers in commit order.
        let mut versions: HashMap<Object, Vec<OpAddr>> = HashMap::new();
        for &attempt in &commit_order {
            let tid = ids[&attempt];
            for (&(w, object), &idx) in &write_addr {
                if w == attempt {
                    versions
                        .entry(object)
                        .or_default()
                        .push(OpAddr::new(tid, idx));
                }
            }
        }
        // Version function from the observed versions.
        let mut reads_from: HashMap<OpAddr, OpId> = HashMap::new();
        for (addr, observed, object) in reads_raw {
            let v = match observed.writer() {
                None => OpId::Init,
                Some(w) => {
                    let widx = write_addr
                        .get(&(w, object))
                        .expect("observed writer recorded its write");
                    OpId::op(ids[&w], *widx)
                }
            };
            reads_from.insert(addr, v);
        }

        let schedule = Schedule::new(txns.clone(), order, versions, reads_from)?;
        let allocation = Allocation::from_pairs(
            ids.iter()
                .map(|(&attempt, &tid)| (tid, self.levels[&attempt])),
        );
        Ok(ExportedTrace {
            schedule,
            allocation,
            attempt_ids: ids,
        })
    }
}

/// Standalone export used by tests; see [`TraceRecorder::export`].
pub fn export_schedule(recorder: &TraceRecorder) -> Option<(Schedule, Allocation)> {
    recorder.export().map(|e| (e.schedule, e.allocation))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SimConfig;
    use crate::engine::{Engine, StepOutcome};
    use mvmodel::Op;

    fn obj(n: u32) -> Object {
        Object(n)
    }

    #[test]
    fn export_simple_serial_run() {
        let mut e = Engine::new(SimConfig::default());
        let t1 = e.begin(vec![Op::write(obj(1))], IsolationLevel::RC);
        e.step(t1);
        assert_eq!(e.step(t1).0, StepOutcome::Committed);
        let t2 = e.begin(vec![Op::read(obj(1))], IsolationLevel::SI);
        e.step(t2);
        assert_eq!(e.step(t2).0, StepOutcome::Committed);

        let exported = e.trace.export().unwrap();
        let s = &exported.schedule;
        assert_eq!(s.txns().len(), 2);
        assert_eq!(mvmodel::fmt::schedule_order(s), "W1[o1] C1 R2[o1] C2");
        // T2 read T1's committed version.
        let r = OpAddr::new(TxnId(2), 0);
        assert_eq!(s.version_fn(r), OpId::op(TxnId(1), 0));
        assert_eq!(exported.allocation.level(TxnId(1)), IsolationLevel::RC);
        assert_eq!(exported.allocation.level(TxnId(2)), IsolationLevel::SI);
        assert!(mvisolation::allowed_under(s, &exported.allocation));
    }

    #[test]
    fn aborted_attempts_excluded_from_export() {
        let mut e = Engine::new(SimConfig::default());
        // T1 (SI) will abort on first-committer-wins; T2 commits.
        let t1 = e.begin(
            vec![Op::read(obj(1)), Op::write(obj(1))],
            IsolationLevel::SI,
        );
        e.step(t1);
        let t2 = e.begin(vec![Op::write(obj(1))], IsolationLevel::RC);
        e.step(t2);
        e.step(t2);
        assert!(matches!(e.step(t1).0, StepOutcome::Aborted(_)));
        let exported = e.trace.export().unwrap();
        assert_eq!(exported.schedule.txns().len(), 1, "only T2 committed");
        assert_eq!(exported.schedule.order().len(), 2);
    }

    #[test]
    fn export_disabled_returns_none() {
        let mut e = Engine::new(SimConfig::default().with_trace(false));
        let t = e.begin(vec![Op::write(obj(1))], IsolationLevel::RC);
        e.step(t);
        e.step(t);
        assert!(e.trace.export().is_none());
        assert!(export_schedule(&e.trace).is_none());
    }

    #[test]
    fn named_export_renders_object_names() {
        let mut e = Engine::new(SimConfig::default());
        let t = e.begin(vec![Op::write(obj(0))], IsolationLevel::RC);
        e.step(t);
        e.step(t);
        e.trace.set_object_names(vec!["stock".to_string()]);
        let exported = e.trace.export().unwrap();
        assert_eq!(
            mvmodel::fmt::schedule_order(&exported.schedule),
            "W1[stock] C1"
        );
    }

    #[test]
    fn committed_count_tracks() {
        let mut e = Engine::new(SimConfig::default());
        assert_eq!(e.trace.committed_count(), 0);
        let t = e.begin(vec![], IsolationLevel::SSI);
        e.step(t);
        assert_eq!(e.trace.committed_count(), 1);
        let exported = e.trace.export().unwrap();
        assert_eq!(exported.schedule.txns().len(), 1);
        assert!(exported.schedule.txns().txn(TxnId(1)).is_empty());
    }
}
