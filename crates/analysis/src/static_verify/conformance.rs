//! Model-conformance checking of an observed event stream.
//!
//! Every verdict in [`super`] is only as good as the declared model;
//! a generator that under-declares its lock usage would let the
//! analyzer certify fiction. This checker watches the dynamic
//! observation stream (live as a sink, or offline from a `.rtkt`
//! trace) and reports any lock-order behaviour the model did not
//! declare:
//!
//! * an undeclared mutex (the stream creates more than the model has),
//! * a nesting edge absent from the declared lock-order graph
//!   (acquiring `b` while holding `a` without a declared `a → b`),
//! * re-acquiring an already-held resource (the undeclared self-edge).
//!
//! Object identity is positional: the k-th `MtxCreate`/`SemCreate` in
//! the stream corresponds to `SysModel::mutex_resources[k]` /
//! `sem_resources[k]` — creation order is deterministic per scenario.
//! Semaphores past the end of the list (or mapped to
//! [`EXEMPT`]) are gates/barriers outside lock-order analysis.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use rtk_core::{ObsEvent, StampedEvent, StreamSink, SysModel, TaskId, WaitObj, WakeCode};

use super::lock_graph;

/// `sem_resources` value marking a semaphore that is not a lock.
pub const EXEMPT: usize = usize::MAX;

/// Cap on retained violation accounts (the count keeps growing).
const MAX_DETAILS: usize = 8;

/// Incremental conformance checker; push every observed event.
#[derive(Debug)]
pub struct Conformance {
    mutex_resources: Vec<usize>,
    sem_resources: Vec<usize>,
    resource_names: Vec<String>,
    declared_edges: BTreeSet<(usize, usize)>,
    mtx_seen: usize,
    sem_seen: usize,
    mtx_map: BTreeMap<u32, usize>,
    sem_map: BTreeMap<u32, usize>,
    held: BTreeMap<TaskId, Vec<usize>>,
    sem_holders: BTreeMap<usize, VecDeque<TaskId>>,
    violation_count: u64,
    violations: Vec<String>,
}

impl Conformance {
    /// Builds a checker for one scenario's declared model.
    pub fn from_model(model: &SysModel) -> Self {
        Conformance {
            mutex_resources: model.mutex_resources.clone(),
            sem_resources: model.sem_resources.clone(),
            resource_names: model.resources.iter().map(|r| r.name.clone()).collect(),
            declared_edges: lock_graph::build(model).edges,
            mtx_seen: 0,
            sem_seen: 0,
            mtx_map: BTreeMap::new(),
            sem_map: BTreeMap::new(),
            held: BTreeMap::new(),
            sem_holders: BTreeMap::new(),
            violation_count: 0,
            violations: Vec::new(),
        }
    }

    /// Total violations observed (details are capped, this is not).
    pub fn violation_count(&self) -> u64 {
        self.violation_count
    }

    /// Rendered accounts of the first violations.
    pub fn violations(&self) -> &[String] {
        &self.violations
    }

    fn violate(&mut self, detail: String) {
        self.violation_count += 1;
        if self.violations.len() < MAX_DETAILS {
            self.violations.push(detail);
        }
    }

    fn name(&self, r: usize) -> String {
        self.resource_names
            .get(r)
            .cloned()
            .unwrap_or_else(|| format!("#{r}"))
    }

    /// Checks `tid` taking `r` against what it holds and records `r` as
    /// held. A task holds a resource at most once: taking a held one
    /// again is one violation, and `false` is returned.
    fn acquire(&mut self, tid: TaskId, r: usize) -> bool {
        // Taken out of the map (no copy) so the checks may borrow `self`.
        let mut held = std::mem::take(self.held.entry(tid).or_default());
        for &outer in &held {
            if outer == r {
                let n = self.name(r);
                self.violate(format!("{tid} re-acquired held resource {n}"));
            } else if !self.declared_edges.contains(&(outer, r)) {
                let (a, b) = (self.name(outer), self.name(r));
                self.violate(format!("{tid} took undeclared lock order {a} -> {b}"));
            }
        }
        let fresh = !held.contains(&r);
        if fresh {
            held.push(r);
        }
        self.held.insert(tid, held);
        fresh
    }

    /// `tid` took the semaphore resource `r`: it queues as a holder
    /// unless it held `r` already.
    fn take_sem(&mut self, tid: TaskId, r: usize) {
        if self.acquire(tid, r) {
            self.sem_holders.entry(r).or_default().push_back(tid);
        }
    }

    fn release(&mut self, tid: TaskId, r: usize) {
        if let Some(held) = self.held.get_mut(&tid) {
            if let Some(pos) = held.iter().rposition(|&x| x == r) {
                held.remove(pos);
            }
        }
    }

    /// Forgets everything `tid` holds. A task queues as a semaphore
    /// holder only for a resource in its held list, so only those
    /// queues are searched.
    fn drop_task(&mut self, tid: TaskId) {
        for r in self.held.remove(&tid).unwrap_or_default() {
            if let Some(q) = self.sem_holders.get_mut(&r) {
                if let Some(pos) = q.iter().position(|&t| t == tid) {
                    q.remove(pos);
                }
            }
        }
    }

    /// Feeds one observed event.
    pub fn push(&mut self, ev: &ObsEvent) {
        match *ev {
            ObsEvent::MtxCreate { id, .. } => {
                let k = self.mtx_seen;
                self.mtx_seen += 1;
                match self.mutex_resources.get(k) {
                    Some(&r) if r != EXEMPT => {
                        self.mtx_map.insert(id.raw(), r);
                    }
                    Some(_) => {}
                    None => self.violate(format!("undeclared mutex {id} created")),
                }
            }
            ObsEvent::SemCreate { id, .. } => {
                let k = self.sem_seen;
                self.sem_seen += 1;
                if let Some(&r) = self.sem_resources.get(k) {
                    if r != EXEMPT {
                        self.sem_map.insert(id.raw(), r);
                    }
                }
            }
            ObsEvent::MtxLock { id, tid } => {
                if let Some(&r) = self.mtx_map.get(&id.raw()) {
                    self.acquire(tid, r);
                }
            }
            ObsEvent::MtxUnlock { id, tid } => {
                if let Some(&r) = self.mtx_map.get(&id.raw()) {
                    self.release(tid, r);
                }
            }
            ObsEvent::SemTake { id, tid, .. } => {
                if let Some(&r) = self.sem_map.get(&id.raw()) {
                    self.take_sem(tid, r);
                }
            }
            ObsEvent::SemSignal { id, .. } => {
                if let Some(&r) = self.sem_map.get(&id.raw()) {
                    if let Some(holder) = self.sem_holders.get_mut(&r).and_then(|q| q.pop_front()) {
                        self.release(holder, r);
                    }
                }
            }
            ObsEvent::Wakeup { tid, obj, code } => {
                if code != WakeCode::Ok {
                    return;
                }
                match obj {
                    WaitObj::Mtx(id) => {
                        if let Some(&r) = self.mtx_map.get(&id.raw()) {
                            self.acquire(tid, r);
                        }
                    }
                    WaitObj::Sem(id, _) => {
                        if let Some(&r) = self.sem_map.get(&id.raw()) {
                            self.take_sem(tid, r);
                        }
                    }
                    _ => {}
                }
            }
            ObsEvent::TaskExit { tid }
            | ObsEvent::TaskTerminate { tid }
            | ObsEvent::TaskDelete { tid } => self.drop_task(tid),
            _ => {}
        }
    }
}

/// The checker as a live sink on the kernel's `ObsStream`.
impl StreamSink for Conformance {
    fn batch(&mut self, events: &[StampedEvent]) {
        for se in events {
            self.push(&se.ev);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtk_core::{
        LockPolicy, MtxId, MtxPolicy, ResourceModel, SectionModel, SemId, SysModel, TaskModel,
    };

    fn two_mutex_model() -> SysModel {
        let mut m = SysModel::empty();
        for i in 0..2 {
            m.resources.push(ResourceModel {
                name: format!("r{i}"),
                policy: LockPolicy::Inherit,
                pri_order: true,
            });
        }
        m.tasks.push(TaskModel {
            name: "t".into(),
            priority: 10,
            period_us: 10_000,
            offset_us: 0,
            deadline_us: 10_000,
            cost_us: 100,
            // Declared order: r0 then r1.
            sections: vec![SectionModel {
                resource: 0,
                len_us: 100,
                inner: vec![SectionModel::leaf(1, 50)],
            }],
            measured: true,
        });
        m.mutex_resources = vec![0, 1];
        m
    }

    fn lock(id: u32, tid: u32) -> ObsEvent {
        ObsEvent::MtxLock {
            id: MtxId::from_raw(id),
            tid: TaskId::from_raw(tid),
        }
    }

    fn unlock(id: u32, tid: u32) -> ObsEvent {
        ObsEvent::MtxUnlock {
            id: MtxId::from_raw(id),
            tid: TaskId::from_raw(tid),
        }
    }

    fn create(id: u32) -> ObsEvent {
        ObsEvent::MtxCreate {
            id: MtxId::from_raw(id),
            policy: MtxPolicy::Inherit,
        }
    }

    #[test]
    fn declared_order_passes() {
        let m = two_mutex_model();
        let mut c = Conformance::from_model(&m);
        for ev in [
            create(7),
            create(8),
            lock(7, 1),
            lock(8, 1),
            unlock(8, 1),
            unlock(7, 1),
        ] {
            c.push(&ev);
        }
        assert_eq!(c.violation_count(), 0);
    }

    #[test]
    fn reversed_order_is_flagged() {
        let m = two_mutex_model();
        let mut c = Conformance::from_model(&m);
        for ev in [create(7), create(8), lock(8, 1), lock(7, 1)] {
            c.push(&ev);
        }
        assert_eq!(c.violation_count(), 1);
        assert!(c.violations()[0].contains("undeclared lock order r1 -> r0"));
    }

    #[test]
    fn undeclared_mutex_is_flagged() {
        let m = two_mutex_model();
        let mut c = Conformance::from_model(&m);
        for ev in [create(7), create(8), create(9)] {
            c.push(&ev);
        }
        assert_eq!(c.violation_count(), 1);
        assert!(c.violations()[0].contains("undeclared mutex"));
    }

    #[test]
    fn relock_is_flagged_and_exit_clears_held() {
        let m = two_mutex_model();
        let mut c = Conformance::from_model(&m);
        c.push(&create(7));
        c.push(&create(8));
        c.push(&lock(7, 1));
        c.push(&lock(7, 1));
        assert_eq!(c.violation_count(), 1);
        assert!(c.violations()[0].contains("re-acquired"));
        c.push(&ObsEvent::TaskTerminate {
            tid: TaskId::from_raw(1),
        });
        // Held set cleared: a fresh declared-order pass is clean.
        c.push(&lock(7, 1));
        c.push(&lock(8, 1));
        assert_eq!(c.violation_count(), 1);
    }

    /// A task that locks a held mutex again is reported once per lock,
    /// and holds it once: the held list never grows, so a long crafted
    /// stream costs linear time.
    #[test]
    fn each_relock_is_one_violation() {
        let m = two_mutex_model();
        let mut c = Conformance::from_model(&m);
        c.push(&create(7));
        for _ in 0..1_000 {
            c.push(&lock(7, 1));
        }
        assert_eq!(c.violation_count(), 999);
        assert_eq!(c.held[&TaskId::from_raw(1)], [0]);
        c.push(&unlock(7, 1));
        assert!(c.held[&TaskId::from_raw(1)].is_empty());
    }

    #[test]
    fn exempt_and_unmapped_sems_are_ignored() {
        let mut m = two_mutex_model();
        m.sem_resources = vec![EXEMPT];
        let mut c = Conformance::from_model(&m);
        c.push(&ObsEvent::SemCreate {
            id: SemId::from_raw(3),
            init: 0,
            max: 10,
            pri_order: false,
        });
        c.push(&ObsEvent::SemTake {
            id: SemId::from_raw(3),
            tid: TaskId::from_raw(1),
            cnt: 1,
        });
        assert_eq!(c.violation_count(), 0);
    }

    #[test]
    fn sem_lock_resource_checked_via_wakeup_grant() {
        let mut m = two_mutex_model();
        // One declared sem lock resource as r0; mutexes unmapped.
        m.mutex_resources = vec![EXEMPT, EXEMPT];
        m.sem_resources = vec![0];
        let mut c = Conformance::from_model(&m);
        c.push(&ObsEvent::SemCreate {
            id: SemId::from_raw(1),
            init: 1,
            max: 1,
            pri_order: true,
        });
        // Granted after a wait; then the same task takes an undeclared
        // second resource? No second sem — instead re-acquire r0.
        c.push(&ObsEvent::Wakeup {
            tid: TaskId::from_raw(2),
            obj: WaitObj::Sem(SemId::from_raw(1), 1),
            code: WakeCode::Ok,
        });
        c.push(&ObsEvent::SemTake {
            id: SemId::from_raw(1),
            tid: TaskId::from_raw(2),
            cnt: 1,
        });
        assert_eq!(c.violation_count(), 1);
        assert!(c.violations()[0].contains("re-acquired"));
        // Signal releases the oldest holder.
        c.push(&ObsEvent::SemSignal {
            id: SemId::from_raw(1),
            cnt: 1,
        });
        c.push(&ObsEvent::SemSignal {
            id: SemId::from_raw(1),
            cnt: 1,
        });
        c.push(&ObsEvent::SemTake {
            id: SemId::from_raw(1),
            tid: TaskId::from_raw(2),
            cnt: 1,
        });
        assert_eq!(c.violation_count(), 1);
    }
}
