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
    if depth as usize > st.tasks.len() {
        // Cycle guard. A cycle-free waiter→owner chain visits each task
        // at most once, so a legitimate chain can never exceed the live
        // task count — a fixed cutoff here (formerly 32) silently left
        // the far end of deeper chains with a stale priority.
        return;
    }
    let Ok(tcb) = st.tcb(tid) else { return };
    let mut pri = tcb.base_pri;
    let held = tcb.held_mutexes.clone();
    for mid in held {
        let Ok(m) = super::table_get(&st.mtxs, mid.0) else {
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
    match state {
        TaskState::Ready => st.scheduler.reprioritize(tid, pri),
        TaskState::Wait | TaskState::WaitSuspend => {
            // Re-sort the wait queue the task sits in, then propagate to
            // the owner if it waits on an inheritance mutex.
            if let Some(WaitObj::Mtx(mid)) = wait {
                let owner = match super::table_get_mut(&mut st.mtxs, mid.0) {
                    Ok(m) => {
                        m.waitq.reprioritize(tid, pri);
                        if m.policy == MtxPolicy::Inherit {
                            m.owner
                        } else {
                            None
                        }
                    }
                    Err(_) => None,
                };
                if let Some(owner) = owner {
                    recompute_priority(st, owner, depth + 1);
                }
            } else if let Some(w) = wait {
                resort_wait_queue(st, tid, pri, w);
            }
        }
        _ => {}
    }
}

/// Re-sorts `tid` inside whatever priority-ordered wait queue it is in.
fn resort_wait_queue(st: &mut KernelState, tid: TaskId, pri: Priority, w: WaitObj) {
    match w {
        WaitObj::Sem(id, _) => {
            if let Ok(s) = super::table_get_mut(&mut st.sems, id.0) {
                s.waitq.reprioritize(tid, pri);
            }
        }
        WaitObj::Flag(id, _, _) => {
            if let Ok(f) = super::table_get_mut(&mut st.flags, id.0) {
                f.waitq.reprioritize(tid, pri);
            }
        }
        WaitObj::Mbx(id) => {
            if let Ok(m) = super::table_get_mut(&mut st.mbxs, id.0) {
                m.waitq.reprioritize(tid, pri);
            }
        }
        WaitObj::MbfSend(id, _) => {
            if let Ok(m) = super::table_get_mut(&mut st.mbfs, id.0) {
                m.send_q.reprioritize(tid, pri);
            }
        }
        WaitObj::MbfRecv(id) => {
            if let Ok(m) = super::table_get_mut(&mut st.mbfs, id.0) {
                m.recv_q.reprioritize(tid, pri);
            }
        }
        WaitObj::Mpf(id) => {
            if let Ok(p) = super::table_get_mut(&mut st.mpfs, id.0) {
                p.waitq.reprioritize(tid, pri);
            }
        }
        WaitObj::Mpl(id, _) => {
            if let Ok(p) = super::table_get_mut(&mut st.mpls, id.0) {
                p.waitq.reprioritize(tid, pri);
            }
        }
        WaitObj::Mtx(_) | WaitObj::Sleep | WaitObj::Delay => {}
    }
}

/// `true` if giving `tid` base priority `new_base` would violate the
/// ceiling of any mutex it holds or waits for.
pub(crate) fn violates_ceiling(st: &KernelState, tid: TaskId, new_base: Priority) -> bool {
    let Ok(tcb) = st.tcb(tid) else { return false };
    for mid in &tcb.held_mutexes {
        if let Ok(m) = super::table_get(&st.mtxs, mid.0) {
            if let MtxPolicy::Ceiling(c) = m.policy {
                if new_base < c {
                    return true;
                }
            }
        }
    }
    if let Some(WaitObj::Mtx(mid)) = tcb.wait {
        if let Ok(m) = super::table_get(&st.mtxs, mid.0) {
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
    let next = match super::table_get_mut(&mut st.mtxs, mid.0) {
        Ok(m) => {
            let next = m.waitq.pop();
            m.owner = next;
            next
        }
        Err(_) => return,
    };
    if let Some(next) = next {
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
        self.service_cost(ServiceClass::Mutex, "tk_cre_mtx");
        let r = {
            let mut st = self.shared.st.borrow_mut();
            if let MtxPolicy::Ceiling(c) = policy {
                if c < 1 || c > st.cfg.max_priority {
                    drop(st);
                    self.service_exit();
                    return Err(ErCode::Par);
                }
            }
            let order = match policy {
                MtxPolicy::Fifo => QueueOrder::Fifo,
                _ => QueueOrder::Priority,
            };
            let raw = super::table_insert(
                &mut st.mtxs,
                Mtx {
                    name: name.to_string(),
                    policy,
                    owner: None,
                    waitq: WaitQueue::new(order),
                },
            );
            st.observe(crate::obs::ObsEvent::MtxCreate {
                id: MtxId(raw),
                policy,
            });
            Ok(MtxId(raw))
        };
        self.service_exit();
        r
    }

    /// `tk_del_mtx` — deletes a mutex; waiters released with `E_DLT`,
    /// the owner simply loses it.
    pub fn tk_del_mtx(&mut self, id: MtxId) -> KResult<()> {
        self.service_cost(ServiceClass::Mutex, "tk_del_mtx");
        let r = {
            let mut st = self.shared.st.borrow_mut();
            let now = self.proc.now();
            match super::table_get_mut(&mut st.mtxs, id.0) {
                Err(e) => Err(e),
                Ok(mtx) => {
                    let waiters = mtx.waitq.drain();
                    let owner = mtx.owner;
                    st.mtxs[id.0 as usize - 1] = None;
                    if let Some(owner) = owner {
                        if let Ok(tcb) = st.tcb_mut(owner) {
                            tcb.held_mutexes.retain(|m| *m != id);
                        }
                        recompute_priority(&mut st, owner, 0);
                    }
                    for tid in waiters {
                        Shared::make_ready(&mut st, now, tid, Err(ErCode::Dlt), Delivered::None);
                    }
                    Ok(())
                }
            }
        };
        self.service_exit();
        r
    }

    /// `tk_loc_mtx` — locks the mutex, waiting if it is owned.
    ///
    /// # Errors
    ///
    /// `E_ILUSE` for recursive locking or a ceiling violation; the usual
    /// wait errors otherwise.
    pub fn tk_loc_mtx(&mut self, id: MtxId, tmo: Timeout) -> KResult<()> {
        self.service_cost(ServiceClass::Mutex, "tk_loc_mtx");
        let r = (|| {
            let tid = self.check_blockable()?;
            let decision = {
                let mut st = self.shared.st.borrow_mut();
                let (pri, base) = {
                    let t = st.tcb(tid)?;
                    (t.cur_pri, t.base_pri)
                };
                let mtx = super::table_get_mut(&mut st.mtxs, id.0)?;
                if let MtxPolicy::Ceiling(c) = mtx.policy {
                    if base < c {
                        return Err(ErCode::IlUse);
                    }
                }
                match mtx.owner {
                    None => {
                        mtx.owner = Some(tid);
                        st.observe(crate::obs::ObsEvent::MtxLock { id, tid });
                        st.tcb_mut(tid)
                            .expect("caller exists")
                            .held_mutexes
                            .push(id);
                        recompute_priority(&mut st, tid, 0);
                        Ok(())
                    }
                    Some(owner) if owner == tid => Err(ErCode::IlUse),
                    Some(owner) => {
                        if tmo == Timeout::Poll {
                            Err(ErCode::Tmout)
                        } else {
                            mtx.waitq.enqueue(tid, pri);
                            if super::table_get(&st.mtxs, id.0).expect("exists").policy
                                == MtxPolicy::Inherit
                            {
                                recompute_priority(&mut st, owner, 0);
                            }
                            Err(ErCode::Sys) // sentinel: must block
                        }
                    }
                }
            };
            match decision {
                Ok(()) => Ok(()),
                Err(ErCode::Sys) => {
                    let shared = &self.shared;
                    let (res, _) = shared.block_current(self.proc, tid, WaitObj::Mtx(id), tmo);
                    res
                }
                Err(e) => Err(e),
            }
        })();
        self.service_exit();
        r
    }

    /// `tk_unl_mtx` — unlocks the mutex; ownership passes to the first
    /// waiter.
    ///
    /// # Errors
    ///
    /// `E_ILUSE` if the caller does not own the mutex.
    pub fn tk_unl_mtx(&mut self, id: MtxId) -> KResult<()> {
        self.service_cost(ServiceClass::Mutex, "tk_unl_mtx");
        let r = {
            let tid = self.require_task()?;
            let mut st = self.shared.st.borrow_mut();
            let now = self.proc.now();
            match super::table_get(&st.mtxs, id.0) {
                Err(e) => Err(e),
                Ok(mtx) if mtx.owner != Some(tid) => Err(ErCode::IlUse),
                Ok(_) => {
                    if let Ok(tcb) = st.tcb_mut(tid) {
                        tcb.held_mutexes.retain(|m| *m != id);
                    }
                    st.observe(crate::obs::ObsEvent::MtxUnlock { id, tid });
                    transfer_or_free(&mut st, id, now);
                    recompute_priority(&mut st, tid, 0);
                    Ok(())
                }
            }
        };
        self.service_exit();
        r
    }

    /// `tk_ref_mtx` — reference mutex state.
    pub fn tk_ref_mtx(&mut self, id: MtxId) -> KResult<RefMtx> {
        self.service_cost(ServiceClass::Mutex, "tk_ref_mtx");
        let r = {
            let st = self.shared.st.borrow();
            super::table_get(&st.mtxs, id.0).map(|m| RefMtx {
                name: m.name.clone(),
                owner: m.owner,
                waiting: m.waitq.len(),
                policy: m.policy,
            })
        };
        self.service_exit();
        r
    }
}
