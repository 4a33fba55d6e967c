//! The spec state behind the oracle: a closed ITRON transition system.
//!
//! [`SpecState`] is the executable reference model that
//! [`super::Checker`] replays observation streams through — every
//! event-application rule lives here, unchanged from the replay-only
//! oracle. On top of event application ([`SpecState::apply`]) it
//! exposes the *closed-system* interface the `--explore` model checker
//! drives:
//!
//! * [`SpecState::enabled`] — the spec-derivable events at this state:
//!   the forced `Dispatch`/`Preempt` (`SpecState::forced`, always a
//!   singleton — the µ-ITRON scheduler is deterministic) or the armed
//!   timeouts as `TimerFire` events.
//! * [`SpecState::step`] — successor construction in place: apply a
//!   slice of observation events and drain every mandated wakeup after
//!   each, so the successor is quiescent. The realized events are
//!   appended to a caller-owned buffer, so an exploration path is *by
//!   construction* a replayable observation stream. A step that fails
//!   leaves the state partly applied, so a caller that must keep the
//!   original steps a copy.
//! * [`SpecState::canon_digest`] — canonical FNV-1a hash of the
//!   semantic state, for revisit deduplication.
//! * [`SpecState::invariant_violations`] — independent well-formedness
//!   checks (priority fixpoint, no stranded satisfiable waiters, ...)
//!   computed with always-healthy logic, so a mutated spec
//!   ([`SpecMutation`]) is caught the moment its state goes wrong.

use std::cell::Cell;
use std::collections::{BTreeMap, VecDeque};
use std::ops::Index;

use rtk_core::{FlagWaitMode, MtxPolicy, ObsEvent, TaskId, WaitObj, WakeCode};

use crate::scenario::Fnv;

type Tid = u32;
type Er = Result<(), String>;

/// An object table keyed by raw id: a vector of entries sorted by id.
/// It iterates in ascending id order, the order
/// [`SpecState::canon_digest`] hashes in, and copying it is one flat
/// allocation however many objects it holds. Lookups take the id by
/// reference, as `BTreeMap`'s do.
#[derive(Debug)]
struct IdMap<V>(Vec<(u32, V)>);

impl<V: Clone> Clone for IdMap<V> {
    fn clone(&self) -> Self {
        IdMap(self.0.clone())
    }

    /// Clones entry by entry into the entries already there, so each
    /// value reuses its own buffers (a tuple's `clone_from`, which
    /// `Vec::clone_from` would call, allocates afresh).
    fn clone_from(&mut self, source: &Self) {
        self.0.truncate(source.0.len());
        let kept = self.0.len();
        for ((id, v), (src_id, src_v)) in self.0.iter_mut().zip(&source.0) {
            *id = *src_id;
            v.clone_from(src_v);
        }
        self.0.extend_from_slice(&source.0[kept..]);
    }
}

impl<V> Default for IdMap<V> {
    fn default() -> Self {
        IdMap(Vec::new())
    }
}

impl<V> IdMap<V> {
    /// The position of `id` in the table, or `Err` with the position
    /// it would be inserted at.
    fn slot(&self, id: u32) -> Result<usize, usize> {
        self.0.binary_search_by_key(&id, |&(k, _)| k)
    }

    fn get(&self, id: &u32) -> Option<&V> {
        self.slot(*id).ok().map(|i| &self.0[i].1)
    }

    fn get_mut(&mut self, id: &u32) -> Option<&mut V> {
        self.slot(*id).ok().map(|i| &mut self.0[i].1)
    }

    /// The entry at position `slot`, as `(id, value)`.
    fn at_mut(&mut self, slot: usize) -> (u32, &mut V) {
        let (id, v) = &mut self.0[slot];
        (*id, v)
    }

    /// Inserts or replaces the value of `id`.
    fn insert(&mut self, id: u32, v: V) {
        match self.slot(id) {
            Ok(i) => self.0[i].1 = v,
            Err(i) => self.0.insert(i, (id, v)),
        }
    }

    fn remove(&mut self, id: &u32) -> Option<V> {
        self.slot(*id).ok().map(|i| self.0.remove(i).1)
    }

    /// The value of `id`, inserting `V::default()` first if absent.
    fn entry_or_default(&mut self, id: u32) -> &mut V
    where
        V: Default,
    {
        let i = match self.slot(id) {
            Ok(i) => i,
            Err(i) => {
                self.0.insert(i, (id, V::default()));
                i
            }
        };
        &mut self.0[i].1
    }

    fn len(&self) -> usize {
        self.0.len()
    }

    fn iter(&self) -> impl Iterator<Item = (&u32, &V)> {
        self.into_iter()
    }

    fn values(&self) -> impl Iterator<Item = &V> {
        self.0.iter().map(|(_, v)| v)
    }
}

impl<V> Index<&u32> for IdMap<V> {
    type Output = V;

    fn index(&self, id: &u32) -> &V {
        self.get(id).expect("id present in the table")
    }
}

impl<'a, V> IntoIterator for &'a IdMap<V> {
    type Item = (&'a u32, &'a V);
    type IntoIter =
        std::iter::Map<std::slice::Iter<'a, (u32, V)>, fn(&'a (u32, V)) -> (&'a u32, &'a V)>;

    fn into_iter(self) -> Self::IntoIter {
        self.0.iter().map(|(k, v)| (k, v))
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TState {
    Dormant,
    Ready,
    Running,
    Waiting,
    Suspend,
    WaitSuspend,
}

#[derive(Debug)]
struct TaskM {
    base: u8,
    cur: u8,
    state: TState,
    wait: Option<WaitObj>,
    deadline: Option<u64>,
    /// Held mutexes (raw ids) in acquisition order.
    held: Vec<u32>,
    /// Nested suspend count.
    suscnt: u32,
    /// Queued `tk_wup_tsk` requests.
    wupcnt: u32,
    /// Where [`SpecState::priority_fixpoint`] relaxes this task's
    /// priority; scratch, not state (never hashed, read only right
    /// after a fixpoint run).
    fix: Cell<u8>,
}

clone_fields!(TaskM {
    base,
    cur,
    state,
    wait,
    deadline,
    held,
    suscnt,
    wupcnt,
    fix,
});

/// A `TA_TFIFO`/`TA_TPRI` wait queue mirroring the kernel's semantics:
/// entries carry the priority they were (re-)enqueued at; priority
/// insertion goes behind equal priorities; a reprioritised entry is
/// removed and re-enqueued (so it lands behind its new peers).
#[derive(Debug)]
struct Queue {
    pri_order: bool,
    entries: Vec<(Tid, u8)>,
}

clone_fields!(Queue { pri_order, entries });

impl Queue {
    fn new(pri_order: bool) -> Self {
        Queue {
            pri_order,
            entries: Vec::new(),
        }
    }

    fn enqueue(&mut self, tid: Tid, pri: u8) {
        if self.pri_order {
            let pos = self
                .entries
                .iter()
                .position(|&(_, p)| p > pri)
                .unwrap_or(self.entries.len());
            self.entries.insert(pos, (tid, pri));
        } else {
            self.entries.push((tid, pri));
        }
    }

    fn remove(&mut self, tid: Tid) -> bool {
        match self.entries.iter().position(|&(t, _)| t == tid) {
            Some(pos) => {
                self.entries.remove(pos);
                true
            }
            None => false,
        }
    }

    fn reprioritize(&mut self, tid: Tid, pri: u8) {
        if self.remove(tid) {
            self.enqueue(tid, pri);
        }
    }

    fn front(&self) -> Option<Tid> {
        self.entries.first().map(|&(t, _)| t)
    }

    fn pop(&mut self) -> Option<Tid> {
        if self.entries.is_empty() {
            None
        } else {
            Some(self.entries.remove(0).0)
        }
    }

    fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    fn iter_tids(&self) -> impl Iterator<Item = Tid> + '_ {
        self.entries.iter().map(|&(t, _)| t)
    }
}

#[derive(Debug)]
struct SemM {
    count: u32,
    max: u32,
    q: Queue,
}

clone_fields!(SemM { count, max, q });

#[derive(Debug)]
struct FlagM {
    pattern: u32,
    q: Queue,
}

clone_fields!(FlagM { pattern, q });

#[derive(Debug)]
struct MbxM {
    msgs: usize,
    q: Queue,
}

clone_fields!(MbxM { msgs, q });

#[derive(Debug)]
struct MbfM {
    bufsz: usize,
    used: usize,
    msgs: VecDeque<usize>,
    send_q: Queue,
    /// Payload length of each blocked sender.
    send_len: BTreeMap<Tid, usize>,
    recv_q: Queue,
}

clone_fields!(MbfM {
    bufsz,
    used,
    msgs,
    send_q,
    send_len,
    recv_q,
});

#[derive(Debug)]
struct MtxM {
    policy: MtxPolicy,
    owner: Option<Tid>,
    q: Queue,
}

clone_fields!(MtxM { policy, owner, q });

#[derive(Debug)]
struct MpfM {
    total: usize,
    free: usize,
    q: Queue,
}

clone_fields!(MpfM { total, free, q });

/// Allocation alignment of the kernel's variable-size pools.
const MPL_ALIGN: usize = 4;

/// `sz` rounded up to [`MPL_ALIGN`]; `None` when that overflows, and
/// a request that large fits no pool.
fn align_up(sz: usize) -> Option<usize> {
    Some(sz.checked_add(MPL_ALIGN - 1)? & !(MPL_ALIGN - 1))
}

/// First-fit arena shadow of one variable-size pool: the same
/// offset-keyed free/alloc maps the kernel keeps, so the spec computes
/// the exact offsets first-fit mandates and the exact coalescing a
/// release must perform.
#[derive(Debug)]
struct MplM {
    /// Free regions: offset -> length, coalesced.
    free: BTreeMap<usize, usize>,
    /// Live allocations: offset -> length (aligned).
    allocs: BTreeMap<usize, usize>,
    q: Queue,
}

clone_fields!(MplM { free, allocs, q });

impl MplM {
    /// First-fit allocation (mirrors `kernel::mpl::Mpl::try_alloc`).
    fn try_alloc(&mut self, sz: usize) -> Option<usize> {
        let sz = align_up(sz)?;
        let (off, len) = self
            .free
            .iter()
            .find(|&(_, len)| *len >= sz)
            .map(|(o, l)| (*o, *l))?;
        self.free.remove(&off);
        if len > sz {
            self.free.insert(off + sz, len - sz);
        }
        self.allocs.insert(off, sz);
        Some(off)
    }

    /// `true` when a request of `sz` (pre-alignment) would fit now.
    fn can_alloc(&self, sz: usize) -> bool {
        align_up(sz).is_some_and(|sz| self.free.values().any(|&len| len >= sz))
    }

    /// Releases an allocation, coalescing with free neighbours.
    fn release(&mut self, off: usize) -> Result<(), String> {
        let len = self.allocs.remove(&off).ok_or_else(|| {
            format!("release of offset {off} which the spec has no allocation at")
        })?;
        let mut start = off;
        let mut length = len;
        if let Some((&poff, &plen)) = self.free.range(..off).next_back() {
            if poff + plen == off {
                self.free.remove(&poff);
                start = poff;
                length += plen;
            }
        }
        if let Some(&nlen) = self.free.get(&(off + len)) {
            self.free.remove(&(off + len));
            length += nlen;
        }
        self.free.insert(start, length);
        Ok(())
    }
}

#[derive(Debug, Clone)]
struct CycM {
    period: u64,
    /// Absolute tick of the next mandated activation, if armed.
    armed: Option<u64>,
}

#[derive(Debug, Clone, Default)]
struct AlmM {
    /// Absolute tick of the mandated (one-shot) activation, if armed.
    armed: Option<u64>,
}

/// The whole reference-model state: the executable µ-ITRON spec as
/// a value. Constructed empty ([`SpecState::default`]), advanced
/// either by replaying kernel observations ([`SpecState::apply`],
/// what [`super::Checker`] does) or by resolving nondeterministic
/// choices ([`SpecState::step`], what `rtk-farm --explore` does).
#[derive(Debug, Default)]
pub struct SpecState {
    tasks: IdMap<TaskM>,
    /// Ready queue in dispatch order (priority levels, FIFO within,
    /// preempted tasks re-enter at the head of their level).
    ready: Vec<(Tid, u8)>,
    running: Option<Tid>,
    /// `tk_dis_dsp`/`tk_loc_cpu` window: no dispatch, preemption or
    /// blocking may be observed while set.
    dispatch_disabled: bool,
    sems: IdMap<SemM>,
    flags: IdMap<FlagM>,
    mbxs: IdMap<MbxM>,
    mbfs: IdMap<MbfM>,
    mtxs: IdMap<MtxM>,
    mpfs: IdMap<MpfM>,
    mpls: IdMap<MplM>,
    cycs: IdMap<CycM>,
    alms: IdMap<AlmM>,
    /// Wakeups the spec has mandated but the kernel has not yet
    /// reported. Non-empty ⇒ the very next event must be the front
    /// wakeup (wakeups are emitted contiguously after their stimulus).
    expected: VecDeque<(Tid, WaitObj, WakeCode)>,
    /// Deliberately-broken-rule switch for the mutation-sensitivity
    /// proofs; `None` (the default) is the faithful spec, so `Checker`
    /// replay is byte-identical to the pre-split oracle.
    mutation: Option<SpecMutation>,
}

clone_fields!(SpecState {
    tasks,
    ready,
    running,
    dispatch_disabled,
    sems,
    flags,
    mbxs,
    mbfs,
    mtxs,
    mpfs,
    mpls,
    cycs,
    alms,
    expected,
    mutation,
});

fn flag_satisfied(pattern: u32, waiptn: u32, mode: FlagWaitMode) -> bool {
    if mode.and {
        pattern & waiptn == waiptn
    } else {
        pattern & waiptn != 0
    }
}

fn flag_clear(pattern: &mut u32, waiptn: u32, mode: FlagWaitMode) {
    if mode.clear_all {
        *pattern = 0;
    } else if mode.clear_bits {
        *pattern &= !waiptn;
    }
}

impl SpecState {
    fn task(&self, tid: Tid) -> Result<&TaskM, String> {
        self.tasks
            .get(&tid)
            .ok_or_else(|| format!("unknown tsk{tid}"))
    }

    fn task_mut(&mut self, tid: Tid) -> Result<&mut TaskM, String> {
        self.tasks
            .get_mut(&tid)
            .ok_or_else(|| format!("unknown tsk{tid}"))
    }

    /// The caller of a task-context service must be the running task.
    fn require_running(&self, tid: Tid) -> Er {
        if self.running == Some(tid) {
            Ok(())
        } else {
            Err(format!(
                "tsk{tid} performed a task-context operation but the spec's running task is {:?}",
                self.running
            ))
        }
    }

    // ------------------------------------------------------------------
    // Ready queue (mirrors the priority-preemptive scheduler)
    // ------------------------------------------------------------------

    fn ready_tail(&mut self, tid: Tid) {
        let pri = self.tasks[&tid].cur;
        let pos = self
            .ready
            .iter()
            .position(|&(_, p)| p > pri)
            .unwrap_or(self.ready.len());
        self.ready.insert(pos, (tid, pri));
    }

    fn ready_head(&mut self, tid: Tid) {
        let pri = self.tasks[&tid].cur;
        let pos = self
            .ready
            .iter()
            .position(|&(_, p)| p >= pri)
            .unwrap_or(self.ready.len());
        self.ready.insert(pos, (tid, pri));
    }

    fn ready_remove(&mut self, tid: Tid) {
        self.ready.retain(|&(t, _)| t != tid);
    }

    /// Rotates the ready entries of one priority level: the level's
    /// head moves behind its last peer (`tk_rot_rdq`).
    fn rotate_ready(&mut self, pri: u8) {
        let level = |&(_, p): &(Tid, u8)| p == pri;
        if let (Some(first), Some(last)) = (
            self.ready.iter().position(level),
            self.ready.iter().rposition(level),
        ) {
            if first < last {
                let head = self.ready.remove(first);
                self.ready.insert(last, head);
            }
        }
    }

    /// Makes a waiting task ready — or SUSPENDED, when the wait was
    /// doubly blocked (µ-ITRON WAIT-SUSPEND) — and registers the
    /// mandated wakeup event.
    fn wake(&mut self, tid: Tid, code: WakeCode) -> Er {
        let t = self.task_mut(tid)?;
        let obj = t
            .wait
            .take()
            .ok_or_else(|| format!("spec woke tsk{tid} which is not waiting"))?;
        t.deadline = None;
        let suspended = t.state == TState::WaitSuspend;
        t.state = if suspended {
            TState::Suspend
        } else {
            TState::Ready
        };
        if !suspended {
            self.ready_tail(tid);
        }
        self.expected.push_back((tid, obj, code));
        Ok(())
    }

    /// Removes `tid` from the wait queue of whatever it is blocked on
    /// (plus the mbf sender-payload bookkeeping), without completing
    /// the wait. Returns the object, for the re-serve pass.
    fn detach(&mut self, tid: Tid) -> Option<WaitObj> {
        let obj = self.tasks.get(&tid)?.wait?;
        if let WaitObj::MbfSend(id, _) = obj {
            if let Some(m) = self.mbfs.get_mut(&id.raw()) {
                m.send_len.remove(&tid);
            }
        }
        if let Some(q) = self.wait_queue_mut(&obj) {
            q.remove(tid);
        }
        Some(obj)
    }

    /// Re-serves the queue a waiter was just removed from: waiters
    /// behind it may have become satisfiable (semaphore counts, mbf
    /// buffer space, mpl arena space) and µ-ITRON mandates waking them
    /// now, in queue order.
    fn reserve(&mut self, obj: WaitObj) -> Er {
        match obj {
            WaitObj::Sem(id, _) => self.sem_serve(id.raw()),
            WaitObj::MbfSend(id, _) => self.mbf_drain(id.raw()),
            WaitObj::Mpl(id, _) => self.mpl_serve(id.raw()),
            _ => Ok(()),
        }
    }

    /// Wakes satisfiable semaphore waiters strictly from the head.
    fn sem_serve(&mut self, id: u32) -> Er {
        while let Some(front) = self.sems.get(&id).and_then(|s| s.q.front()) {
            let req = match self.tasks.get(&front).and_then(|t| t.wait) {
                Some(WaitObj::Sem(_, req)) => req,
                _ => 1,
            };
            let sem = self.sems.get_mut(&id).expect("checked");
            if sem.count < req {
                break;
            }
            sem.count -= req;
            sem.q.pop();
            self.wake(front, WakeCode::Ok)?;
        }
        Ok(())
    }

    /// Moves blocked senders' messages into the buffer while space
    /// allows, strictly in queue order, waking them.
    fn mbf_drain(&mut self, id: u32) -> Er {
        loop {
            let Some(mbf) = self.mbfs.get_mut(&id) else {
                return Ok(());
            };
            let Some(front) = mbf.send_q.front() else {
                return Ok(());
            };
            let slen = mbf.send_len.get(&front).copied().unwrap_or(0);
            let Some(used) = mbf.used.checked_add(slen).filter(|&u| u <= mbf.bufsz) else {
                return Ok(());
            };
            mbf.used = used;
            mbf.msgs.push_back(slen);
            mbf.send_q.pop();
            mbf.send_len.remove(&front);
            self.wake(front, WakeCode::Ok)?;
        }
    }

    /// Serves queued pool waiters whose requests now fit, strictly in
    /// queue order, allocating in the shadow arena.
    fn mpl_serve(&mut self, id: u32) -> Er {
        loop {
            let Some(front) = self.mpls.get(&id).and_then(|p| p.q.front()) else {
                return Ok(());
            };
            let req = match self.tasks.get(&front).and_then(|t| t.wait) {
                Some(WaitObj::Mpl(_, sz)) => sz,
                _ => return Ok(()),
            };
            let pool = self.mpls.get_mut(&id).expect("checked");
            if pool.try_alloc(req).is_none() {
                return Ok(());
            }
            pool.q.pop();
            self.wake(front, WakeCode::Ok)?;
        }
    }

    // ------------------------------------------------------------------
    // Priorities: ceiling + transitive inheritance, by fixpoint
    // ------------------------------------------------------------------

    /// Recomputes every task's current priority from first principles
    /// ([`SpecState::priority_fixpoint`]). Tasks whose priority changed
    /// are re-sorted in their wait queue (and the ready queue),
    /// mirroring the kernel's reprioritisation rule.
    fn recompute_priorities(&mut self) {
        let transitive = self.mutation != Some(SpecMutation::DirectInheritanceOnly);
        self.priority_fixpoint(transitive);
        for slot in 0..self.tasks.len() {
            let (tid, t) = self.tasks.at_mut(slot);
            let new = t.fix.get();
            if t.cur == new {
                continue;
            }
            t.cur = new;
            match t.state {
                TState::Ready => {
                    self.ready_remove(tid);
                    self.ready_tail(tid);
                }
                TState::Waiting | TState::WaitSuspend => {
                    if let Some(obj) = t.wait {
                        if let Some(q) = self.wait_queue_mut(&obj) {
                            q.reprioritize(tid, new);
                        }
                    }
                }
                _ => {}
            }
        }
    }

    /// The ceiling + inheritance priority fixpoint, left in each
    /// task's `fix`: start at each base priority and relax downward
    /// (more urgent) through held ceiling mutexes and the priorities of
    /// tasks waiting on held inheritance mutexes, until stable.
    /// `transitive` inherits the waiters' current priorities; without
    /// it only their base priorities count (the `DirectInheritanceOnly`
    /// mutation).
    fn priority_fixpoint(&self, transitive: bool) {
        for t in self.tasks.values() {
            t.fix.set(t.base);
        }
        loop {
            let mut changed = false;
            for t in self.tasks.values() {
                let mut p = t.base;
                for mid in &t.held {
                    let Some(m) = self.mtxs.get(mid) else {
                        continue;
                    };
                    match m.policy {
                        MtxPolicy::Ceiling(c) => p = p.min(c),
                        MtxPolicy::Inherit => {
                            for w in m.q.iter_tids() {
                                let w = &self.tasks[&w];
                                let wp = if transitive { w.fix.get() } else { w.base };
                                p = p.min(wp);
                            }
                        }
                        _ => {}
                    }
                }
                if t.fix.get() != p {
                    t.fix.set(p);
                    changed = true;
                }
            }
            if !changed {
                return;
            }
        }
    }

    /// The wait queue a blocked task sits in, if the object is modeled.
    fn wait_queue_mut(&mut self, obj: &WaitObj) -> Option<&mut Queue> {
        match obj {
            WaitObj::Sem(id, _) => self.sems.get_mut(&id.raw()).map(|o| &mut o.q),
            WaitObj::Flag(id, _, _) => self.flags.get_mut(&id.raw()).map(|o| &mut o.q),
            WaitObj::Mbx(id) => self.mbxs.get_mut(&id.raw()).map(|o| &mut o.q),
            WaitObj::MbfSend(id, _) => self.mbfs.get_mut(&id.raw()).map(|o| &mut o.send_q),
            WaitObj::MbfRecv(id) => self.mbfs.get_mut(&id.raw()).map(|o| &mut o.recv_q),
            WaitObj::Mtx(id) => self.mtxs.get_mut(&id.raw()).map(|o| &mut o.q),
            WaitObj::Mpf(id) => self.mpfs.get_mut(&id.raw()).map(|o| &mut o.q),
            WaitObj::Mpl(id, _) => self.mpls.get_mut(&id.raw()).map(|o| &mut o.q),
            WaitObj::Sleep | WaitObj::Delay => None,
        }
    }

    // ------------------------------------------------------------------
    // The replay step
    // ------------------------------------------------------------------

    /// Applies one observed kernel event, verifying it against the
    /// spec's mandated behaviour; an `Err` carries the divergence
    /// detail.
    pub fn apply(&mut self, ev: &ObsEvent) -> Er {
        // Contiguity rule: while mandated wakeups are outstanding, the
        // next event must be exactly the front one.
        if let Some(&(etid, eobj, ecode)) = self.expected.front() {
            match ev {
                ObsEvent::Wakeup { tid, obj, code }
                    if tid.raw() == etid && *obj == eobj && *code == ecode =>
                {
                    self.expected.pop_front();
                    return Ok(());
                }
                _ => {
                    return Err(format!(
                        "spec mandates wakeup of tsk{etid} from {} ({ecode:?}) here",
                        eobj.describe()
                    ));
                }
            }
        }

        match *ev {
            ObsEvent::TaskCreate { tid, pri } => {
                // A task id is free again only once the task is
                // deleted: a live record may sit in a queue.
                if self.tasks.get(&tid.raw()).is_some() {
                    return Err(format!("{tid} created again before it was deleted"));
                }
                self.tasks.insert(
                    tid.raw(),
                    TaskM {
                        base: pri,
                        cur: pri,
                        state: TState::Dormant,
                        wait: None,
                        deadline: None,
                        held: Vec::new(),
                        suscnt: 0,
                        wupcnt: 0,
                        fix: Cell::new(pri),
                    },
                );
                Ok(())
            }
            ObsEvent::TaskStart { tid } => {
                let t = self.task_mut(tid.raw())?;
                if t.state != TState::Dormant {
                    return Err(format!("started task is {:?}, spec says DORMANT", t.state));
                }
                t.state = TState::Ready;
                t.cur = t.base;
                self.ready_tail(tid.raw());
                Ok(())
            }
            ObsEvent::TaskExit { tid } => {
                let tid = tid.raw();
                self.require_running(tid)?;
                let held = std::mem::take(&mut self.task_mut(tid)?.held);
                for mid in held {
                    self.release_mutex(mid)?;
                }
                let t = self.task_mut(tid)?;
                t.state = TState::Dormant;
                t.wait = None;
                t.deadline = None;
                t.suscnt = 0;
                t.wupcnt = 0;
                self.running = None;
                // An exiting task takes its dispatch-disable window
                // with it.
                self.dispatch_disabled = false;
                self.recompute_priorities();
                Ok(())
            }
            ObsEvent::TaskTerminate { tid } => {
                let tid = tid.raw();
                if self.task(tid)?.state == TState::Dormant {
                    return Err("terminate of a task the spec says is DORMANT".into());
                }
                // Order mirrors the kernel: held mutexes transfer
                // first (their wakeups), then the abandoned wait's
                // queue is re-served (its wakeups).
                let held = std::mem::take(&mut self.task_mut(tid)?.held);
                for mid in held {
                    self.release_mutex(mid)?;
                }
                let detached = self.detach(tid);
                if self.running == Some(tid) {
                    self.running = None;
                    // A dispatch-disable window dies with the running
                    // task it belongs to.
                    self.dispatch_disabled = false;
                } else {
                    self.ready_remove(tid);
                }
                let t = self.task_mut(tid)?;
                t.state = TState::Dormant;
                t.wait = None;
                t.deadline = None;
                t.suscnt = 0;
                t.wupcnt = 0;
                if let Some(obj) = detached {
                    self.reserve(obj)?;
                }
                self.recompute_priorities();
                Ok(())
            }
            ObsEvent::TaskDelete { tid } => {
                let tid = tid.raw();
                if self.task(tid)?.state != TState::Dormant {
                    return Err("delete of a task the spec says is not DORMANT".into());
                }
                self.tasks.remove(&tid);
                Ok(())
            }
            ObsEvent::Suspend { tid } => {
                let tid = tid.raw();
                let t = self.task_mut(tid)?;
                match t.state {
                    TState::Dormant => Err("suspend of a DORMANT task".into()),
                    TState::Ready => {
                        t.suscnt += 1;
                        t.state = TState::Suspend;
                        self.ready_remove(tid);
                        Ok(())
                    }
                    TState::Waiting => {
                        t.suscnt += 1;
                        t.state = TState::WaitSuspend;
                        Ok(())
                    }
                    TState::Running => {
                        t.suscnt += 1;
                        t.state = TState::Suspend;
                        self.running = None;
                        Ok(())
                    }
                    TState::Suspend | TState::WaitSuspend => {
                        t.suscnt += 1;
                        Ok(())
                    }
                }
            }
            ObsEvent::Resume { tid, force } => {
                let tid = tid.raw();
                let t = self.task_mut(tid)?;
                if !matches!(t.state, TState::Suspend | TState::WaitSuspend) {
                    return Err(format!(
                        "resume of a task the spec says is {:?}, not suspended",
                        t.state
                    ));
                }
                if t.suscnt == 0 {
                    return Err("resume with a zero spec suspend count".into());
                }
                t.suscnt = if force { 0 } else { t.suscnt - 1 };
                if t.suscnt == 0 {
                    match t.state {
                        TState::Suspend => {
                            t.state = TState::Ready;
                            self.ready_tail(tid);
                        }
                        TState::WaitSuspend => t.state = TState::Waiting,
                        _ => unreachable!("state checked above"),
                    }
                }
                Ok(())
            }
            ObsEvent::RelWai { tid } => {
                let tid = tid.raw();
                if !matches!(self.task(tid)?.state, TState::Waiting | TState::WaitSuspend) {
                    return Err("forced release of a task the spec says is not waiting".into());
                }
                let detached = self.detach(tid);
                self.wake(tid, WakeCode::Released)?;
                if let Some(obj) = detached {
                    self.reserve(obj)?;
                }
                self.recompute_priorities();
                Ok(())
            }
            ObsEvent::RotRdq { pri } => {
                self.rotate_ready(pri);
                Ok(())
            }
            ObsEvent::WupTsk { tid } => {
                let tid = tid.raw();
                let t = self.task(tid)?;
                let sleeping = matches!(t.state, TState::Waiting | TState::WaitSuspend)
                    && t.wait == Some(WaitObj::Sleep);
                if sleeping {
                    self.wake(tid, WakeCode::Ok)
                } else if t.state == TState::Dormant {
                    Err("wakeup of a DORMANT task".into())
                } else {
                    self.task_mut(tid)?.wupcnt += 1;
                    Ok(())
                }
            }
            ObsEvent::WupConsume { tid } => {
                let tid = tid.raw();
                self.require_running(tid)?;
                let t = self.task_mut(tid)?;
                if t.wupcnt == 0 {
                    return Err("consumed a queued wakeup the spec does not have".into());
                }
                t.wupcnt -= 1;
                Ok(())
            }
            ObsEvent::DispCtl { disabled } => {
                self.dispatch_disabled = disabled;
                Ok(())
            }
            ObsEvent::PriChange { tid, base } => {
                self.task_mut(tid.raw())?.base = base;
                self.recompute_priorities();
                Ok(())
            }
            ObsEvent::Dispatch { tid, pri } => {
                let tid = tid.raw();
                if self.dispatch_disabled {
                    return Err("dispatch inside a dispatch-disabled window".into());
                }
                if let Some(r) = self.running {
                    return Err(format!("dispatch while spec still has tsk{r} running"));
                }
                match self.ready.first() {
                    Some(&(head, _)) if head == tid => {}
                    Some(&(head, hp)) => {
                        return Err(format!(
                            "spec's highest-priority ready task is tsk{head} (pri {hp}), not the dispatched one"
                        ));
                    }
                    None => return Err("dispatch with an empty spec ready queue".into()),
                }
                let cur = self.task(tid)?.cur;
                if cur != pri {
                    return Err(format!(
                        "dispatched at priority {pri}, spec computes current priority {cur}"
                    ));
                }
                self.ready.remove(0);
                self.task_mut(tid)?.state = TState::Running;
                self.running = Some(tid);
                Ok(())
            }
            ObsEvent::Preempt { tid } => {
                let tid = tid.raw();
                if self.dispatch_disabled {
                    return Err("preemption inside a dispatch-disabled window".into());
                }
                self.require_running(tid)?;
                self.task_mut(tid)?.state = TState::Ready;
                self.running = None;
                self.ready_head(tid);
                Ok(())
            }
            ObsEvent::Block {
                tid,
                obj,
                deadline_tick,
            } => {
                let tid = tid.raw();
                self.require_running(tid)?;
                if self.dispatch_disabled {
                    return Err("blocking call inside a dispatch-disabled window".into());
                }
                self.check_would_block(tid, &obj)?;
                if obj == WaitObj::Sleep && self.task(tid)?.wupcnt > 0 {
                    return Err("blocked in tk_slp_tsk with a queued wakeup request".into());
                }
                let pri = self.task(tid)?.cur;
                if let WaitObj::MbfSend(id, len) = obj {
                    if let Some(m) = self.mbfs.get_mut(&id.raw()) {
                        m.send_len.insert(tid, len);
                    }
                }
                if let Some(q) = self.wait_queue_mut(&obj) {
                    q.enqueue(tid, pri);
                }
                let t = self.task_mut(tid)?;
                t.state = TState::Waiting;
                t.wait = Some(obj);
                t.deadline = deadline_tick;
                self.running = None;
                self.recompute_priorities();
                Ok(())
            }
            ObsEvent::Wakeup { tid, obj, .. } => Err(format!(
                "kernel woke tsk{} from {} but the spec mandates no wakeup here",
                tid.raw(),
                obj.describe()
            )),
            ObsEvent::TimerFire { tid, tick } => {
                let tid = tid.raw();
                let t = self.task(tid)?;
                if !matches!(t.state, TState::Waiting | TState::WaitSuspend) {
                    return Err(format!(
                        "timeout fired for non-waiting task ({:?})",
                        t.state
                    ));
                }
                match t.deadline {
                    Some(d) if d == tick => {}
                    Some(d) => {
                        return Err(format!(
                            "timeout fired at tick {tick}, spec armed it for tick {d}"
                        ));
                    }
                    None => return Err("timeout fired for a wait without a deadline".into()),
                }
                let detached = self.detach(tid);
                self.wake(tid, WakeCode::Timeout)?;
                // A mutated spec (SkipTimeoutReserve) forgets the
                // mandated re-serve of the queue the waiter left.
                if self.mutation != Some(SpecMutation::SkipTimeoutReserve) {
                    if let Some(obj) = detached {
                        self.reserve(obj)?;
                    }
                }
                self.recompute_priorities();
                Ok(())
            }

            ObsEvent::SemCreate {
                id,
                init,
                max,
                pri_order,
            } => {
                self.sems.insert(
                    id.raw(),
                    SemM {
                        count: init,
                        max,
                        q: Queue::new(pri_order),
                    },
                );
                Ok(())
            }
            ObsEvent::SemSignal { id, cnt } => {
                let id = id.raw();
                let sem = self
                    .sems
                    .get_mut(&id)
                    .ok_or_else(|| format!("unknown sem{id}"))?;
                if sem.count.checked_add(cnt).is_none_or(|v| v > sem.max) {
                    return Err(format!(
                        "signal of {cnt} overflows the spec's count {}/{}",
                        sem.count, sem.max
                    ));
                }
                sem.count += cnt;
                self.sem_serve(id)
            }
            ObsEvent::SemTake { id, tid, cnt } => {
                self.require_running(tid.raw())?;
                let sem = self
                    .sems
                    .get_mut(&id.raw())
                    .ok_or_else(|| format!("unknown {id}"))?;
                if !sem.q.is_empty() {
                    return Err("immediate acquisition barged past waiting tasks".into());
                }
                if sem.count < cnt {
                    return Err(format!(
                        "immediate acquisition of {cnt} with spec count {}",
                        sem.count
                    ));
                }
                sem.count -= cnt;
                Ok(())
            }

            ObsEvent::FlagCreate {
                id,
                init,
                pri_order,
            } => {
                self.flags.insert(
                    id.raw(),
                    FlagM {
                        pattern: init,
                        q: Queue::new(pri_order),
                    },
                );
                Ok(())
            }
            ObsEvent::FlagSet { id, ptn } => {
                let id = id.raw();
                let flag = self
                    .flags
                    .get_mut(&id)
                    .ok_or_else(|| format!("unknown flg{id}"))?;
                flag.pattern |= ptn;
                // Walk the queue in order, re-checking after each
                // release (clears can unsatisfy later waiters).
                let snapshot: Vec<Tid> = flag.q.iter_tids().collect();
                for tid in snapshot {
                    let (waiptn, mode) = match self.tasks.get(&tid).and_then(|t| t.wait) {
                        Some(WaitObj::Flag(_, p, m)) => (p, m),
                        _ => continue,
                    };
                    let flag = self.flags.get_mut(&id).expect("checked");
                    if flag_satisfied(flag.pattern, waiptn, mode) {
                        flag_clear(&mut flag.pattern, waiptn, mode);
                        flag.q.remove(tid);
                        self.wake(tid, WakeCode::Ok)?;
                    }
                }
                Ok(())
            }
            ObsEvent::FlagClear { id, mask } => {
                let flag = self
                    .flags
                    .get_mut(&id.raw())
                    .ok_or_else(|| format!("unknown {id}"))?;
                flag.pattern &= mask;
                Ok(())
            }
            ObsEvent::FlagTake { id, tid, ptn, mode } => {
                self.require_running(tid.raw())?;
                let flag = self
                    .flags
                    .get_mut(&id.raw())
                    .ok_or_else(|| format!("unknown {id}"))?;
                if !flag_satisfied(flag.pattern, ptn, mode) {
                    return Err(format!(
                        "immediate flag wait satisfied by the kernel but not by the spec pattern {:#06x}",
                        flag.pattern
                    ));
                }
                flag_clear(&mut flag.pattern, ptn, mode);
                Ok(())
            }

            ObsEvent::MbxCreate { id, pri_order } => {
                self.mbxs.insert(
                    id.raw(),
                    MbxM {
                        msgs: 0,
                        q: Queue::new(pri_order),
                    },
                );
                Ok(())
            }
            ObsEvent::MbxSend { id } => {
                let mbx = self
                    .mbxs
                    .get_mut(&id.raw())
                    .ok_or_else(|| format!("unknown {id}"))?;
                if let Some(receiver) = mbx.q.pop() {
                    self.wake(receiver, WakeCode::Ok)?;
                } else {
                    mbx.msgs += 1;
                }
                Ok(())
            }
            ObsEvent::MbxTake { id, tid } => {
                self.require_running(tid.raw())?;
                let mbx = self
                    .mbxs
                    .get_mut(&id.raw())
                    .ok_or_else(|| format!("unknown {id}"))?;
                if mbx.msgs == 0 {
                    return Err("immediate receive from a mailbox the spec says is empty".into());
                }
                mbx.msgs -= 1;
                Ok(())
            }

            ObsEvent::MbfCreate {
                id,
                bufsz,
                pri_order,
                ..
            } => {
                self.mbfs.insert(
                    id.raw(),
                    MbfM {
                        bufsz,
                        used: 0,
                        msgs: VecDeque::new(),
                        send_q: Queue::new(pri_order),
                        send_len: BTreeMap::new(),
                        recv_q: Queue::new(pri_order),
                    },
                );
                Ok(())
            }
            ObsEvent::MbfSend { id, len } => {
                let mbf = self
                    .mbfs
                    .get_mut(&id.raw())
                    .ok_or_else(|| format!("unknown {id}"))?;
                let direct = mbf.msgs.is_empty() && mbf.send_q.is_empty();
                if direct {
                    if let Some(receiver) = mbf.recv_q.pop() {
                        return self.wake(receiver, WakeCode::Ok);
                    }
                }
                match mbf.used.checked_add(len) {
                    Some(used) if mbf.send_q.is_empty() && used <= mbf.bufsz => {
                        mbf.used = used;
                        mbf.msgs.push_back(len);
                        Ok(())
                    }
                    _ => Err("immediate send the spec says must block".into()),
                }
            }
            ObsEvent::MbfRecv { id, tid } => {
                let id = id.raw();
                self.require_running(tid.raw())?;
                let mbf = self
                    .mbfs
                    .get_mut(&id)
                    .ok_or_else(|| format!("unknown mbf{id}"))?;
                if let Some(len) = mbf.msgs.pop_front() {
                    mbf.used -= len;
                    // Buffer space freed: blocked senders move in,
                    // strictly in queue order.
                    self.mbf_drain(id)
                } else if let Some(sender) = mbf.send_q.pop() {
                    mbf.send_len.remove(&sender);
                    self.wake(sender, WakeCode::Ok)
                } else {
                    Err("immediate receive the spec says must block".into())
                }
            }

            ObsEvent::MtxCreate { id, policy } => {
                self.mtxs.insert(
                    id.raw(),
                    MtxM {
                        policy,
                        owner: None,
                        q: Queue::new(!matches!(policy, MtxPolicy::Fifo)),
                    },
                );
                Ok(())
            }
            ObsEvent::MtxLock { id, tid } => {
                let tid = tid.raw();
                self.require_running(tid)?;
                let mtx = self
                    .mtxs
                    .get_mut(&id.raw())
                    .ok_or_else(|| format!("unknown {id}"))?;
                if let Some(owner) = mtx.owner {
                    return Err(format!(
                        "immediate lock of a mutex the spec says tsk{owner} owns"
                    ));
                }
                mtx.owner = Some(tid);
                self.task_mut(tid)?.held.push(id.raw());
                self.recompute_priorities();
                Ok(())
            }
            ObsEvent::MtxUnlock { id, tid } => {
                let tid = tid.raw();
                self.require_running(tid)?;
                let id = id.raw();
                let owner = self
                    .mtxs
                    .get(&id)
                    .ok_or_else(|| format!("unknown mtx{id}"))?
                    .owner;
                if owner != Some(tid) {
                    return Err(format!(
                        "unlock by tsk{tid} of a mutex the spec says {owner:?} owns"
                    ));
                }
                self.task_mut(tid)?.held.retain(|m| *m != id);
                self.release_mutex(id)?;
                self.recompute_priorities();
                Ok(())
            }

            ObsEvent::MpfCreate {
                id,
                blocks,
                pri_order,
            } => {
                self.mpfs.insert(
                    id.raw(),
                    MpfM {
                        total: blocks,
                        free: blocks,
                        q: Queue::new(pri_order),
                    },
                );
                Ok(())
            }
            ObsEvent::MpfTake { id, tid } => {
                self.require_running(tid.raw())?;
                let pool = self
                    .mpfs
                    .get_mut(&id.raw())
                    .ok_or_else(|| format!("unknown {id}"))?;
                if !pool.q.is_empty() {
                    return Err("immediate block acquisition barged past waiting tasks".into());
                }
                if pool.free == 0 {
                    return Err("immediate block acquisition from an exhausted pool".into());
                }
                pool.free -= 1;
                Ok(())
            }
            ObsEvent::MpfRel { id } => {
                let pool = self
                    .mpfs
                    .get_mut(&id.raw())
                    .ok_or_else(|| format!("unknown {id}"))?;
                if let Some(waiter) = pool.q.pop() {
                    // Direct handoff: the block never returns to the
                    // free list.
                    self.wake(waiter, WakeCode::Ok)?;
                } else {
                    if pool.free >= pool.total {
                        return Err("release would exceed the pool's block count".into());
                    }
                    pool.free += 1;
                }
                Ok(())
            }

            ObsEvent::MplCreate {
                id,
                size,
                pri_order,
            } => {
                let mut free = BTreeMap::new();
                free.insert(0, size);
                self.mpls.insert(
                    id.raw(),
                    MplM {
                        free,
                        allocs: BTreeMap::new(),
                        q: Queue::new(pri_order),
                    },
                );
                Ok(())
            }
            ObsEvent::MplTake { id, tid, size, off } => {
                self.require_running(tid.raw())?;
                let pool = self
                    .mpls
                    .get_mut(&id.raw())
                    .ok_or_else(|| format!("unknown {id}"))?;
                if !pool.q.is_empty() {
                    return Err("immediate allocation barged past waiting tasks".into());
                }
                match pool.try_alloc(size) {
                    Some(spec_off) if spec_off == off => Ok(()),
                    Some(spec_off) => Err(format!(
                        "allocated at offset {off}, first-fit mandates offset {spec_off}"
                    )),
                    None => Err(format!(
                        "immediate allocation of {size} bytes the spec says cannot fit"
                    )),
                }
            }
            ObsEvent::MplRel { id, off } => {
                let id = id.raw();
                let pool = self
                    .mpls
                    .get_mut(&id)
                    .ok_or_else(|| format!("unknown mpl{id}"))?;
                pool.release(off)?;
                self.mpl_serve(id)
            }

            ObsEvent::CycCreate {
                id,
                period_ticks,
                first_tick,
            } => {
                self.cycs.insert(
                    id.raw(),
                    CycM {
                        period: period_ticks,
                        armed: first_tick,
                    },
                );
                Ok(())
            }
            ObsEvent::CycStart { id, at_tick } => {
                let cyc = self
                    .cycs
                    .get_mut(&id.raw())
                    .ok_or_else(|| format!("unknown {id}"))?;
                cyc.armed = Some(at_tick);
                Ok(())
            }
            ObsEvent::CycStop { id } => {
                let cyc = self
                    .cycs
                    .get_mut(&id.raw())
                    .ok_or_else(|| format!("unknown {id}"))?;
                cyc.armed = None;
                Ok(())
            }
            ObsEvent::CycFire { id, tick } => {
                let cyc = self
                    .cycs
                    .get_mut(&id.raw())
                    .ok_or_else(|| format!("unknown {id}"))?;
                match cyc.armed {
                    Some(at) if at == tick => {
                        // The next activation is one period on.
                        let next = tick.checked_add(cyc.period).ok_or_else(|| {
                            format!("cyclic re-arm at tick {tick} + {} overflows", cyc.period)
                        })?;
                        cyc.armed = Some(next);
                        Ok(())
                    }
                    Some(at) => Err(format!(
                        "cyclic fired at tick {tick}, spec armed it for tick {at}"
                    )),
                    None => Err("cyclic fired while the spec says it is stopped".into()),
                }
            }
            ObsEvent::AlmArm { id, at_tick } => {
                self.alms.entry_or_default(id.raw()).armed = Some(at_tick);
                Ok(())
            }
            ObsEvent::AlmStop { id } => {
                self.alms.entry_or_default(id.raw()).armed = None;
                Ok(())
            }
            ObsEvent::AlmFire { id, tick } => {
                let alm = self
                    .alms
                    .get_mut(&id.raw())
                    .ok_or_else(|| format!("unknown {id}"))?;
                match alm.armed.take() {
                    Some(at) if at == tick => Ok(()),
                    Some(at) => Err(format!(
                        "alarm fired at tick {tick}, spec armed it for tick {at}"
                    )),
                    None => Err("alarm fired while the spec says it is disarmed".into()),
                }
            }
        }
    }

    /// Releases a mutex whose owner gives it up (unlock, exit or
    /// termination): ownership transfers to the head waiter (who
    /// wakes), or clears.
    fn release_mutex(&mut self, id: u32) -> Er {
        let mtx = self
            .mtxs
            .get_mut(&id)
            .ok_or_else(|| format!("unknown mtx{id}"))?;
        match mtx.q.pop() {
            Some(next) => {
                mtx.owner = Some(next);
                self.task_mut(next)?.held.push(id);
                self.wake(next, WakeCode::Ok)?;
            }
            None => mtx.owner = None,
        }
        Ok(())
    }

    /// Verifies that, per the spec, the operation behind `obj` cannot
    /// complete immediately for `tid` (the kernel decided to block).
    fn check_would_block(&self, tid: Tid, obj: &WaitObj) -> Er {
        if self.would_block(tid, obj) {
            Ok(())
        } else {
            Err(format!(
                "kernel blocked on {} but the spec says the request completes immediately",
                obj.describe()
            ))
        }
    }

    /// `true` when the spec says a wait on `obj` by `tid` blocks (the
    /// request cannot complete immediately).
    pub fn would_block(&self, tid: u32, obj: &WaitObj) -> bool {
        match *obj {
            WaitObj::Sleep | WaitObj::Delay => true,
            WaitObj::Sem(id, cnt) => self
                .sems
                .get(&id.raw())
                .is_none_or(|s| !(s.q.is_empty() && s.count >= cnt)),
            WaitObj::Flag(id, ptn, mode) => self
                .flags
                .get(&id.raw())
                .is_none_or(|f| !flag_satisfied(f.pattern, ptn, mode)),
            WaitObj::Mbx(id) => self.mbxs.get(&id.raw()).is_none_or(|m| m.msgs == 0),
            WaitObj::MbfSend(id, len) => self.mbfs.get(&id.raw()).is_none_or(|m| {
                let direct = m.msgs.is_empty() && m.send_q.is_empty() && !m.recv_q.is_empty();
                let fits =
                    m.send_q.is_empty() && m.used.checked_add(len).is_some_and(|u| u <= m.bufsz);
                !(direct || fits)
            }),
            WaitObj::MbfRecv(id) => self
                .mbfs
                .get(&id.raw())
                .is_none_or(|m| m.msgs.is_empty() && m.send_q.is_empty()),
            WaitObj::Mtx(id) => self
                .mtxs
                .get(&id.raw())
                .is_none_or(|m| m.owner.is_some() && m.owner != Some(tid)),
            WaitObj::Mpf(id) => self
                .mpfs
                .get(&id.raw())
                .is_none_or(|p| !(p.q.is_empty() && p.free > 0)),
            WaitObj::Mpl(id, sz) => self
                .mpls
                .get(&id.raw())
                .is_none_or(|p| !(p.q.is_empty() && p.can_alloc(sz))),
        }
    }
}
/// A deliberately broken spec rule, for the mutation-sensitivity
/// proofs (`crates/farm/tests/explore.rs`): exploration must catch
/// each of these while thousands of random-seed replays do not.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpecMutation {
    /// After a timed-out waiter detaches from its queue, skip the
    /// mandated re-serve pass — waiters behind it that became
    /// satisfiable stay blocked.
    SkipTimeoutReserve,
    /// Priority inheritance uses only the waiters' *base* priorities:
    /// no transitive propagation through chained inheritance mutexes.
    DirectInheritanceOnly,
}

impl TState {
    fn tag(self) -> u64 {
        match self {
            TState::Dormant => 1,
            TState::Ready => 2,
            TState::Running => 3,
            TState::Waiting => 4,
            TState::Suspend => 5,
            TState::WaitSuspend => 6,
        }
    }
}

fn h_opt(h: &mut Fnv, v: Option<u64>) {
    match v {
        None => h.u64(0),
        Some(x) => {
            h.u64(1);
            h.u64(x);
        }
    }
}

fn h_queue(h: &mut Fnv, q: &Queue) {
    h.u64(u64::from(q.pri_order));
    h.u64(q.entries.len() as u64);
    for &(t, p) in &q.entries {
        h.u64(u64::from(t));
        h.u64(u64::from(p));
    }
}

fn h_mode(h: &mut Fnv, m: FlagWaitMode) {
    h.u64(u64::from(m.and) | u64::from(m.clear_all) << 1 | u64::from(m.clear_bits) << 2);
}

fn h_wait(h: &mut Fnv, obj: &WaitObj) {
    match *obj {
        WaitObj::Sleep => h.u64(1),
        WaitObj::Delay => h.u64(2),
        WaitObj::Sem(id, n) => {
            h.u64(3);
            h.u64(u64::from(id.raw()));
            h.u64(u64::from(n));
        }
        WaitObj::Flag(id, ptn, mode) => {
            h.u64(4);
            h.u64(u64::from(id.raw()));
            h.u64(u64::from(ptn));
            h_mode(h, mode);
        }
        WaitObj::Mbx(id) => {
            h.u64(5);
            h.u64(u64::from(id.raw()));
        }
        WaitObj::MbfSend(id, len) => {
            h.u64(6);
            h.u64(u64::from(id.raw()));
            h.u64(len as u64);
        }
        WaitObj::MbfRecv(id) => {
            h.u64(7);
            h.u64(u64::from(id.raw()));
        }
        WaitObj::Mtx(id) => {
            h.u64(8);
            h.u64(u64::from(id.raw()));
        }
        WaitObj::Mpf(id) => {
            h.u64(9);
            h.u64(u64::from(id.raw()));
        }
        WaitObj::Mpl(id, sz) => {
            h.u64(10);
            h.u64(u64::from(id.raw()));
            h.u64(sz as u64);
        }
    }
}

fn h_code(h: &mut Fnv, c: WakeCode) {
    h.u64(match c {
        WakeCode::Ok => 1,
        WakeCode::Timeout => 2,
        WakeCode::Released => 3,
        WakeCode::Deleted => 4,
    });
}

impl SpecState {
    /// A fresh spec state: no objects, no tasks, CPU idle.
    pub fn new() -> SpecState {
        SpecState::default()
    }

    /// A fresh spec state carrying a [`SpecMutation`] — the testing
    /// hook behind the mutation-sensitivity proofs.
    pub fn with_mutation(mutation: SpecMutation) -> SpecState {
        SpecState {
            mutation: Some(mutation),
            ..SpecState::default()
        }
    }

    /// The front of the mandated-wakeup queue: the wakeup that must be
    /// the very next observed event, if any. Always `None` for states
    /// produced by [`SpecState::step`] (it drains the queue).
    pub fn pending_wakeup(&self) -> Option<(u32, WaitObj, WakeCode)> {
        self.expected.front().copied()
    }

    /// The running task's raw id, if any.
    pub fn running(&self) -> Option<u32> {
        self.running
    }

    /// The spec-computed current priority of a task (base relaxed
    /// through ceilings and transitive inheritance).
    pub fn current_priority(&self, tid: u32) -> Option<u8> {
        self.tasks.get(&tid).map(|t| t.cur)
    }

    /// Raw ids of every blocked task, ascending.
    pub fn waiting_tasks(&self) -> Vec<u32> {
        self.tasks
            .iter()
            .filter(|(_, t)| matches!(t.state, TState::Waiting | TState::WaitSuspend))
            .map(|(&tid, _)| tid)
            .collect()
    }

    /// The next mandated activation tick of a cyclic handler.
    pub fn cyc_next_fire(&self, id: u32) -> Option<u64> {
        self.cycs.get(&id).and_then(|c| c.armed)
    }

    /// The scheduler move µ-ITRON forces at this (quiescent) state:
    /// `Dispatch` of the ready-queue head onto an idle CPU, or
    /// `Preempt` of the running task when a strictly more urgent task
    /// is ready. `None` inside a dispatch-disabled window, when
    /// neither applies, or while a mandated wakeup is pending.
    pub(crate) fn forced(&self) -> Option<ObsEvent> {
        if !self.expected.is_empty() || self.dispatch_disabled {
            return None;
        }
        let &(head, hp) = self.ready.first()?;
        match self.running {
            None => Some(ObsEvent::Dispatch {
                tid: TaskId::from_raw(head),
                pri: self.tasks[&head].cur,
            }),
            Some(r) if hp < self.tasks[&r].cur => Some(ObsEvent::Preempt {
                tid: TaskId::from_raw(r),
            }),
            Some(_) => None,
        }
    }

    /// The events the spec itself enables at this (quiescent) state.
    /// Exactly one of two shapes:
    ///
    /// * `[Dispatch]` or `[Preempt]` — the move the scheduler is
    ///   forced to make (`SpecState::forced`). Forced singleton.
    /// * the armed timeouts as `TimerFire` events, sorted by
    ///   `(tick, tid)` — every waiting task with a deadline, at the
    ///   tick it would fire. The caller owns time: only timeouts at
    ///   the chosen current tick are firable now, and ties at that
    ///   tick are the real branch.
    ///
    /// Environment stimuli (an IRQ signal, a cyclic activation, a
    /// program operation) are by nature not derivable from spec
    /// state; the explorer merges its own candidates with this set.
    /// A state with a pending mandated wakeup (never produced by
    /// [`SpecState::step`]) enables nothing.
    ///
    /// The events are appended to `out`.
    pub fn enabled(&self, out: &mut Vec<ObsEvent>) {
        if !self.expected.is_empty() {
            return;
        }
        if let Some(ev) = self.forced() {
            out.push(ev);
            return;
        }
        let start = out.len();
        out.extend(
            self.tasks
                .iter()
                .filter(|(_, t)| matches!(t.state, TState::Waiting | TState::WaitSuspend))
                .filter_map(|(&tid, t)| {
                    t.deadline.map(|tick| ObsEvent::TimerFire {
                        tid: TaskId::from_raw(tid),
                        tick,
                    })
                }),
        );
        // The table iterates in ascending id order, so a stable sort by
        // tick orders ties by id.
        out[start..].sort_by_key(|ev| match *ev {
            ObsEvent::TimerFire { tick, .. } => tick,
            _ => unreachable!("only timeouts were appended"),
        });
    }

    /// Successor construction in place: applies each of `evs` to
    /// `self` and drains every mandated wakeup after each one (the
    /// contiguity the kernel itself guarantees). Appends the full
    /// realized event list to `out` — an exploration path is therefore
    /// a replayable observation stream by construction.
    ///
    /// On `Err` the state is left partly applied and `out` holds the
    /// events applied before the failure. A caller that needs the
    /// original state steps a copy.
    pub fn step(&mut self, evs: &[ObsEvent], out: &mut Vec<ObsEvent>) -> Er {
        for ev in evs {
            self.apply(ev)?;
            out.push(*ev);
            while let Some((tid, obj, code)) = self.pending_wakeup() {
                let wake = ObsEvent::Wakeup {
                    tid: TaskId::from_raw(tid),
                    obj,
                    code,
                };
                self.apply(&wake)?;
                out.push(wake);
            }
        }
        Ok(())
    }

    /// Canonical FNV-1a digest of the semantic state: tasks, queues,
    /// every object map and the pending-wakeup queue. Two states with
    /// equal digests are treated as revisits by the explorer, so the
    /// digest covers everything [`SpecState::apply`] reads or writes —
    /// and nothing else (the mutation switch is configuration, not
    /// state).
    pub fn canon_digest(&self) -> u64 {
        let mut h = Fnv::new();
        h.u64(self.tasks.len() as u64);
        for (&tid, t) in &self.tasks {
            h.u64(u64::from(tid));
            h.u64(u64::from(t.base));
            h.u64(u64::from(t.cur));
            h.u64(t.state.tag());
            match &t.wait {
                None => h.u64(0),
                Some(obj) => {
                    h.u64(1);
                    h_wait(&mut h, obj);
                }
            }
            h_opt(&mut h, t.deadline);
            h.u64(t.held.len() as u64);
            for &m in &t.held {
                h.u64(u64::from(m));
            }
            h.u64(u64::from(t.suscnt));
            h.u64(u64::from(t.wupcnt));
        }
        h.u64(self.ready.len() as u64);
        for &(t, p) in &self.ready {
            h.u64(u64::from(t));
            h.u64(u64::from(p));
        }
        h_opt(&mut h, self.running.map(u64::from));
        h.u64(u64::from(self.dispatch_disabled));
        h.u64(self.sems.len() as u64);
        for (&id, s) in &self.sems {
            h.u64(u64::from(id));
            h.u64(u64::from(s.count));
            h.u64(u64::from(s.max));
            h_queue(&mut h, &s.q);
        }
        h.u64(self.flags.len() as u64);
        for (&id, f) in &self.flags {
            h.u64(u64::from(id));
            h.u64(u64::from(f.pattern));
            h_queue(&mut h, &f.q);
        }
        h.u64(self.mbxs.len() as u64);
        for (&id, m) in &self.mbxs {
            h.u64(u64::from(id));
            h.u64(m.msgs as u64);
            h_queue(&mut h, &m.q);
        }
        h.u64(self.mbfs.len() as u64);
        for (&id, m) in &self.mbfs {
            h.u64(u64::from(id));
            h.u64(m.bufsz as u64);
            h.u64(m.used as u64);
            h.u64(m.msgs.len() as u64);
            for &len in &m.msgs {
                h.u64(len as u64);
            }
            h_queue(&mut h, &m.send_q);
            h.u64(m.send_len.len() as u64);
            for (&t, &len) in &m.send_len {
                h.u64(u64::from(t));
                h.u64(len as u64);
            }
            h_queue(&mut h, &m.recv_q);
        }
        h.u64(self.mtxs.len() as u64);
        for (&id, m) in &self.mtxs {
            h.u64(u64::from(id));
            match m.policy {
                MtxPolicy::Fifo => h.u64(1),
                MtxPolicy::Pri => h.u64(2),
                MtxPolicy::Inherit => h.u64(3),
                MtxPolicy::Ceiling(c) => {
                    h.u64(4);
                    h.u64(u64::from(c));
                }
            }
            h_opt(&mut h, m.owner.map(u64::from));
            h_queue(&mut h, &m.q);
        }
        h.u64(self.mpfs.len() as u64);
        for (&id, p) in &self.mpfs {
            h.u64(u64::from(id));
            h.u64(p.total as u64);
            h.u64(p.free as u64);
            h_queue(&mut h, &p.q);
        }
        h.u64(self.mpls.len() as u64);
        for (&id, p) in &self.mpls {
            h.u64(u64::from(id));
            h.u64(p.free.len() as u64);
            for (&off, &len) in &p.free {
                h.u64(off as u64);
                h.u64(len as u64);
            }
            h.u64(p.allocs.len() as u64);
            for (&off, &len) in &p.allocs {
                h.u64(off as u64);
                h.u64(len as u64);
            }
            h_queue(&mut h, &p.q);
        }
        h.u64(self.cycs.len() as u64);
        for (&id, c) in &self.cycs {
            h.u64(u64::from(id));
            h.u64(c.period);
            h_opt(&mut h, c.armed);
        }
        h.u64(self.alms.len() as u64);
        for (&id, a) in &self.alms {
            h.u64(u64::from(id));
            h_opt(&mut h, a.armed);
        }
        h.u64(self.expected.len() as u64);
        for &(tid, obj, code) in &self.expected {
            h.u64(u64::from(tid));
            h_wait(&mut h, &obj);
            h_code(&mut h, code);
        }
        h.finish()
    }

    /// Independent well-formedness checks, computed with always-healthy
    /// logic regardless of any configured [`SpecMutation`] — so an
    /// exploration over a mutated spec flags the first state the
    /// mutation corrupts. Returns human-readable violation strings,
    /// empty for a well-formed state.
    pub fn invariant_violations(&self) -> Vec<String> {
        let mut out = Vec::new();
        // 1. Stored current priorities must equal the healthy
        //    ceiling + transitive-inheritance fixpoint.
        self.priority_fixpoint(true);
        for (&tid, t) in &self.tasks {
            let fix = t.fix.get();
            if t.cur != fix {
                out.push(format!(
                    "tsk{tid}: stored current priority {} but the ceiling/inheritance fixpoint is {fix}",
                    t.cur
                ));
            }
        }
        // 2. No satisfiable semaphore head waiter may stay blocked.
        for (&id, s) in &self.sems {
            if let Some(front) = s.q.front() {
                let req = match self.tasks.get(&front).and_then(|t| t.wait) {
                    Some(WaitObj::Sem(_, req)) => req,
                    _ => 1,
                };
                if s.count >= req {
                    out.push(format!(
                        "sem{id}: head waiter tsk{front} requests {req} with count {} available but stays blocked",
                        s.count
                    ));
                }
            }
        }
        // 3. A fixed pool with free blocks must not keep waiters queued.
        for (&id, p) in &self.mpfs {
            if p.free > 0 {
                if let Some(front) = p.q.front() {
                    out.push(format!(
                        "mpf{id}: tsk{front} queued while {} blocks are free",
                        p.free
                    ));
                }
            }
        }
        // 4. Mutex ownership must be consistent with held lists.
        for (&id, m) in &self.mtxs {
            match m.owner {
                Some(o) => {
                    if !self.tasks.get(&o).is_some_and(|t| t.held.contains(&id)) {
                        out.push(format!(
                            "mtx{id}: owner tsk{o} does not hold it in the spec's held list"
                        ));
                    }
                }
                None => {
                    if let Some(front) = m.q.front() {
                        out.push(format!(
                            "mtx{id}: tsk{front} waits on a mutex with no owner"
                        ));
                    }
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtk_core::{AlmId, CycId, FlgId, MbfId, MbxId, MpfId, MplId, MtxId, SemId};

    /// One creation event per table: a task and one object of every
    /// kind, each with raw id `id` and contents derived from it.
    fn creations(id: u32) -> [ObsEvent; 10] {
        let n = id as usize;
        let t = u64::from(id);
        [
            ObsEvent::TaskCreate {
                tid: TaskId::from_raw(id),
                pri: 10 + id as u8,
            },
            ObsEvent::SemCreate {
                id: SemId::from_raw(id),
                init: id,
                max: 8,
                pri_order: id.is_multiple_of(2),
            },
            ObsEvent::FlagCreate {
                id: FlgId::from_raw(id),
                init: id,
                pri_order: false,
            },
            ObsEvent::MbxCreate {
                id: MbxId::from_raw(id),
                pri_order: true,
            },
            ObsEvent::MbfCreate {
                id: MbfId::from_raw(id),
                bufsz: 16 * n,
                maxmsz: 8,
                pri_order: false,
            },
            ObsEvent::MtxCreate {
                id: MtxId::from_raw(id),
                policy: MtxPolicy::Ceiling(id as u8),
            },
            ObsEvent::MpfCreate {
                id: MpfId::from_raw(id),
                blocks: n,
                pri_order: false,
            },
            ObsEvent::MplCreate {
                id: MplId::from_raw(id),
                size: 64 * n,
                pri_order: true,
            },
            ObsEvent::CycCreate {
                id: CycId::from_raw(id),
                period_ticks: 5 * t,
                first_tick: Some(t),
            },
            ObsEvent::AlmArm {
                id: AlmId::from_raw(id),
                at_tick: 100 + t,
            },
        ]
    }

    fn created(ids: impl IntoIterator<Item = u32>) -> SpecState {
        let mut st = SpecState::new();
        for id in ids {
            for ev in creations(id) {
                st.apply(&ev).expect("a creation applies to any state");
            }
        }
        st
    }

    /// Explore state hashes rest on every table iterating in ascending
    /// id order: the same objects and tasks hash the same whatever
    /// order they were created in, and after a task id is deleted and
    /// re-created.
    #[test]
    fn canon_digest_ignores_creation_order() {
        let ascending = created(1..=4);
        let mut descending = created((1..=4).rev());
        let tid = TaskId::from_raw(2);
        descending
            .apply(&ObsEvent::TaskDelete { tid })
            .expect("task 2 is DORMANT");
        descending
            .apply(&ObsEvent::TaskCreate { tid, pri: 12 })
            .expect("task 2 re-created");
        assert_eq!(ascending.canon_digest(), descending.canon_digest());
        // The digest does see which objects exist.
        assert_ne!(ascending.canon_digest(), created(1..=3).canon_digest());
    }
}
