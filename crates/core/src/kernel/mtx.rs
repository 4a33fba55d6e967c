//! Mutexes (`tk_cre_mtx`, `tk_loc_mtx`, `tk_unl_mtx`, `tk_ref_mtx`)
//! with `TA_INHERIT` (priority inheritance, chained) and `TA_CEILING`
//! (priority ceiling) protocols.

use crate::config::Priority;
use crate::cost::ServiceClass;
use crate::error::{ErCode, KResult};
use crate::ids::{MtxId, TaskId};
use crate::rtos::Sys;
use crate::state::{Delivered, KernelState, QueueOrder, Shared, TaskState, Timeout, WaitObj};

use super::waitq::WaitQueue;
use super::WaitDecision;

/// Mutex locking protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MtxPolicy {
    /// FIFO wait queue, no priority adjustment (`TA_TFIFO`).
    Fifo,
    /// Priority wait queue, no priority adjustment (`TA_TPRI`).
    Pri,
    /// Priority inheritance (`TA_INHERIT`, implies priority queue).
    Inherit,
    /// Priority ceiling (`TA_CEILING`) with the given ceiling priority.
    Ceiling(Priority),
}

/// Mutex control block.
#[derive(Debug)]
pub struct Mtx {
    pub(crate) name: String,
    pub(crate) policy: MtxPolicy,
    pub(crate) owner: Option<TaskId>,
    pub(crate) waitq: WaitQueue,
}

/// Snapshot returned by `tk_ref_mtx`.
#[derive(Debug, Clone)]
pub struct RefMtx {
    /// Mutex name.
    pub name: String,
    /// Current owner, if locked.
    pub owner: Option<TaskId>,
    /// Number of waiting tasks.
    pub waiting: usize,
    /// Locking protocol.
    pub policy: MtxPolicy,
}

/// Recomputes `tid`'s current priority from its base priority plus the
/// effects of held ceiling/inheritance mutexes, then propagates along
/// the wait chain (a task waiting on a mutex boosts its owner).
pub(crate) fn recompute_priority(st: &mut KernelState, tid: TaskId, depth: u32) {
    if depth > st.tasks.max_id() {
        // Cycle guard. A cycle-free waiter→owner chain visits each task
        // at most once, so a legitimate chain can never exceed the live
        // task count — a fixed cutoff here (formerly 32) silently left
        // the far end of deeper chains with a stale priority.
        return;
    }
    let Ok(tcb) = st.tcb(tid) else { return };
    let mut pri = tcb.base_pri;
    for mid in &tcb.held_mutexes {
        let Ok(m) = st.mtxs.get(mid.0) else {
            continue;
        };
        match m.policy {
            MtxPolicy::Ceiling(c) => pri = pri.min(c),
            MtxPolicy::Inherit => {
                if let Some(wp) = m.waitq.highest_pri() {
                    pri = pri.min(wp);
                }
            }
            _ => {}
        }
    }
    let Ok(tcb) = st.tcb_mut(tid) else { return };
    if tcb.cur_pri == pri {
        return;
    }
    tcb.cur_pri = pri;
    let state = tcb.state;
    let wait = tcb.wait;
    match (state, wait) {
        (TaskState::Ready, _) => st.scheduler.reprioritize(tid, pri),
        (TaskState::Wait | TaskState::WaitSuspend, Some(w)) => {
            // Re-sort the wait queue the task sits in, then propagate to
            // the owner if it waits on an inheritance mutex.
            if let Some(q) = super::wait_queue_mut(st, w) {
                q.reprioritize(tid, pri);
            }
            if let WaitObj::Mtx(mid) = w {
                let owner = st
                    .mtxs
                    .get(mid.0)
                    .ok()
                    .filter(|m| m.policy == MtxPolicy::Inherit)
                    .and_then(|m| m.owner);
                if let Some(owner) = owner {
                    recompute_priority(st, owner, depth + 1);
                }
            }
        }
        _ => {}
    }
}

/// `true` if giving `tid` base priority `new_base` would violate the
/// ceiling of any mutex it holds or waits for.
pub(crate) fn violates_ceiling(st: &KernelState, tid: TaskId, new_base: Priority) -> bool {
    let Ok(tcb) = st.tcb(tid) else { return false };
    for mid in &tcb.held_mutexes {
        if let Ok(m) = st.mtxs.get(mid.0) {
            if let MtxPolicy::Ceiling(c) = m.policy {
                if new_base < c {
                    return true;
                }
            }
        }
    }
    if let Some(WaitObj::Mtx(mid)) = tcb.wait {
        if let Ok(m) = st.mtxs.get(mid.0) {
            if let MtxPolicy::Ceiling(c) = m.policy {
                if new_base < c {
                    return true;
                }
            }
        }
    }
    false
}

/// Releases every mutex `tid` holds (task exit/termination): ownership
/// transfers to the first waiter of each, per µ-ITRON cleanup rules.
pub(crate) fn release_all_held(st: &mut KernelState, tid: TaskId, now: sysc::SimTime) {
    let held = match st.tcb_mut(tid) {
        Ok(tcb) => std::mem::take(&mut tcb.held_mutexes),
        Err(_) => return,
    };
    for mid in held {
        transfer_or_free(st, mid, now);
    }
    recompute_priority(st, tid, 0);
}

/// Hands a mutex to its first waiter (waking it) or frees it.
fn transfer_or_free(st: &mut KernelState, mid: MtxId, now: sysc::SimTime) {
    let Ok(m) = st.mtxs.get_mut(mid.0) else {
        return;
    };
    m.owner = m.waitq.pop();
    if let Some(next) = m.owner {
        if let Ok(tcb) = st.tcb_mut(next) {
            tcb.held_mutexes.push(mid);
        }
        Shared::make_ready(st, now, next, Ok(()), Delivered::None);
        recompute_priority(st, next, 0);
    }
}

impl<'a> Sys<'a> {
    /// `tk_cre_mtx` — creates a mutex with the given protocol.
    ///
    /// # Errors
    ///
    /// `E_PAR` if a ceiling priority is out of range.
    pub fn tk_cre_mtx(&mut self, name: &str, policy: MtxPolicy) -> KResult<MtxId> {
        self.service(ServiceClass::Mutex, "tk_cre_mtx", |sys| {
            let mut st = sys.shared.st.borrow_mut();
            if let MtxPolicy::Ceiling(c) = policy {
                if c < 1 || c > st.cfg.max_priority {
                    return Err(ErCode::Par);
                }
            }
            let order = match policy {
                MtxPolicy::Fifo => QueueOrder::Fifo,
                _ => QueueOrder::Priority,
            };
            let id = MtxId(st.mtxs.insert(Mtx {
                name: name.to_string(),
                policy,
                owner: None,
                waitq: WaitQueue::new(order),
            }));
            st.observe(crate::obs::ObsEvent::MtxCreate { id, policy });
            Ok(id)
        })
    }

    /// `tk_del_mtx` — deletes a mutex; waiters released with `E_DLT`,
    /// the owner simply loses it.
    pub fn tk_del_mtx(&mut self, id: MtxId) -> KResult<()> {
        self.service(ServiceClass::Mutex, "tk_del_mtx", |sys| {
            let now = sys.now();
            let mut st = sys.shared.st.borrow_mut();
            let mut mtx = st.mtxs.remove(id.0)?;
            if let Some(owner) = mtx.owner {
                if let Ok(tcb) = st.tcb_mut(owner) {
                    tcb.held_mutexes.retain(|m| *m != id);
                }
                recompute_priority(&mut st, owner, 0);
            }
            super::release_deleted(&mut st, now, mtx.waitq.drain());
            Ok(())
        })
    }

    /// `tk_loc_mtx` — locks the mutex, waiting if it is owned.
    ///
    /// # Errors
    ///
    /// `E_ILUSE` for recursive locking or a ceiling violation; the usual
    /// wait errors otherwise.
    pub fn tk_loc_mtx(&mut self, id: MtxId, tmo: Timeout) -> KResult<()> {
        self.service(ServiceClass::Mutex, "tk_loc_mtx", |sys| {
            sys.wait(
                tmo,
                |st, tid| {
                    let t = st.tcb(tid)?;
                    let (pri, base) = (t.cur_pri, t.base_pri);
                    let mtx = st.mtxs.get_mut(id.0)?;
                    if let MtxPolicy::Ceiling(c) = mtx.policy {
                        if base < c {
                            return Err(ErCode::IlUse);
                        }
                    }
                    match mtx.owner {
                        None => {
                            mtx.owner = Some(tid);
                            st.observe(crate::obs::ObsEvent::MtxLock { id, tid });
                            let tcb = st.tcb_mut(tid).expect("caller exists");
                            tcb.held_mutexes.push(id);
                            recompute_priority(st, tid, 0);
                            Ok(WaitDecision::Served(()))
                        }
                        Some(owner) if owner == tid => Err(ErCode::IlUse),
                        Some(_) if tmo == Timeout::Poll => Err(ErCode::Tmout),
                        Some(owner) => {
                            mtx.waitq.enqueue(tid, pri);
                            // The new waiter may raise an inheriting
                            // owner's priority.
                            if mtx.policy == MtxPolicy::Inherit {
                                recompute_priority(st, owner, 0);
                            }
                            Ok(WaitDecision::Block(WaitObj::Mtx(id)))
                        }
                    }
                },
                Delivered::nothing,
            )
        })
    }

    /// `tk_unl_mtx` — unlocks the mutex; ownership passes to the first
    /// waiter.
    ///
    /// # Errors
    ///
    /// `E_ILUSE` if the caller does not own the mutex.
    pub fn tk_unl_mtx(&mut self, id: MtxId) -> KResult<()> {
        self.service(ServiceClass::Mutex, "tk_unl_mtx", |sys| {
            let tid = sys.require_task()?;
            let now = sys.now();
            let mut st = sys.shared.st.borrow_mut();
            if st.mtxs.get(id.0)?.owner != Some(tid) {
                return Err(ErCode::IlUse);
            }
            if let Ok(tcb) = st.tcb_mut(tid) {
                tcb.held_mutexes.retain(|m| *m != id);
            }
            st.observe(crate::obs::ObsEvent::MtxUnlock { id, tid });
            transfer_or_free(&mut st, id, now);
            recompute_priority(&mut st, tid, 0);
            Ok(())
        })
    }

    /// `tk_ref_mtx` — reference mutex state.
    pub fn tk_ref_mtx(&mut self, id: MtxId) -> KResult<RefMtx> {
        self.service(ServiceClass::Mutex, "tk_ref_mtx", |sys| {
            sys.shared.st.borrow().mtxs.get(id.0).map(RefMtx::of)
        })
    }
}

impl RefMtx {
    /// The snapshot of `m` (`tk_ref_mtx`, `td_ref_mtx`).
    pub(crate) fn of(m: &Mtx) -> Self {
        RefMtx {
            name: m.name.clone(),
            owner: m.owner,
            waiting: m.waitq.len(),
            policy: m.policy,
        }
    }
}
