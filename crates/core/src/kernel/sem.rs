//! Semaphores (`tk_cre_sem`, `tk_del_sem`, `tk_sig_sem`, `tk_wai_sem`,
//! `tk_ref_sem`).
//!
//! µ-ITRON counting semaphores with a maximum count, FIFO or priority
//! wait queues, and strict queue ordering on release: returned counts
//! wake waiters from the head while their requests can be satisfied and
//! stop at the first waiter that cannot (no barging).

use crate::cost::ServiceClass;
use crate::error::{ErCode, KResult};
use crate::ids::{SemId, TaskId};
use crate::rtos::Sys;
use crate::state::{Delivered, KernelState, QueueOrder, Shared, Timeout, WaitObj};

use super::waitq::WaitQueue;
use super::WaitDecision;

/// Semaphore control block.
#[derive(Debug)]
pub struct Sem {
    pub(crate) name: String,
    pub(crate) count: u32,
    pub(crate) max: u32,
    pub(crate) waitq: WaitQueue,
}

/// Snapshot returned by `tk_ref_sem`.
#[derive(Debug, Clone)]
pub struct RefSem {
    /// Semaphore name.
    pub name: String,
    /// Current count.
    pub count: u32,
    /// Maximum count.
    pub max: u32,
    /// Number of waiting tasks.
    pub waiting: usize,
    /// The first waiting task, if any.
    pub first_waiter: Option<TaskId>,
}

/// Wakes satisfiable waiters from the head of the queue, in strict
/// queue order, stopping at the first waiter whose request the count
/// cannot cover (no barging). Shared by `tk_sig_sem` and the
/// waiter-detach paths (timeout / `tk_rel_wai` / `tk_ter_tsk` of a
/// queued waiter can make the next waiters satisfiable).
pub(crate) fn serve_waiters(st: &mut KernelState, id: SemId, now: sysc::SimTime) {
    loop {
        let Some(front) = st.sems.get(id.0).ok().and_then(|s| s.waitq.front()) else {
            return;
        };
        let req = match st.tcb(front).ok().and_then(|t| t.wait) {
            Some(WaitObj::Sem(_, req)) => req,
            _ => 1,
        };
        let sem = st.sems.get_mut(id.0).expect("still exists");
        if sem.count < req {
            return;
        }
        sem.count -= req;
        sem.waitq.pop();
        // Waking touches neither the count nor the queue, so the next
        // waiter is judged exactly as if every wake came afterwards.
        Shared::make_ready(st, now, front, Ok(()), Delivered::None);
    }
}

impl<'a> Sys<'a> {
    /// `tk_cre_sem` — creates a semaphore with initial count `init` and
    /// ceiling `max`.
    ///
    /// # Errors
    ///
    /// `E_PAR` if `max == 0` or `init > max`.
    pub fn tk_cre_sem(
        &mut self,
        name: &str,
        init: u32,
        max: u32,
        order: QueueOrder,
    ) -> KResult<SemId> {
        self.service(ServiceClass::Semaphore, "tk_cre_sem", |sys| {
            if max == 0 || init > max {
                return Err(ErCode::Par);
            }
            let mut st = sys.shared.st.borrow_mut();
            let id = SemId(st.sems.insert(Sem {
                name: name.to_string(),
                count: init,
                max,
                waitq: WaitQueue::new(order),
            }));
            st.observe(crate::obs::ObsEvent::SemCreate {
                id,
                init,
                max,
                pri_order: order == QueueOrder::Priority,
            });
            Ok(id)
        })
    }

    /// `tk_del_sem` — deletes a semaphore; waiters are released with
    /// `E_DLT`.
    pub fn tk_del_sem(&mut self, id: SemId) -> KResult<()> {
        self.service(ServiceClass::Semaphore, "tk_del_sem", |sys| {
            let now = sys.now();
            let mut st = sys.shared.st.borrow_mut();
            let mut sem = st.sems.remove(id.0)?;
            super::release_deleted(&mut st, now, sem.waitq.drain());
            Ok(())
        })
    }

    /// `tk_sig_sem` — returns `cnt` counts to the semaphore, waking
    /// waiters in queue order while their requests are satisfiable.
    ///
    /// # Errors
    ///
    /// `E_PAR` if `cnt == 0`; `E_QOVR` if the count would exceed the
    /// maximum.
    pub fn tk_sig_sem(&mut self, id: SemId, cnt: u32) -> KResult<()> {
        self.service(ServiceClass::Semaphore, "tk_sig_sem", |sys| {
            let now = sys.now();
            let mut st = sys.shared.st.borrow_mut();
            if cnt == 0 {
                return Err(ErCode::Par);
            }
            let sem = st.sems.get_mut(id.0)?;
            if sem.count.checked_add(cnt).is_none_or(|v| v > sem.max) {
                return Err(ErCode::QOvr);
            }
            sem.count += cnt;
            st.observe(crate::obs::ObsEvent::SemSignal { id, cnt });
            serve_waiters(&mut st, id, now);
            Ok(())
        })
    }

    /// `tk_wai_sem` — acquires `cnt` counts, waiting if necessary.
    ///
    /// # Errors
    ///
    /// `E_PAR` for a zero or unsatisfiable request, `E_CTX` from
    /// non-blockable contexts, `E_TMOUT`, `E_RLWAI`, `E_DLT`.
    pub fn tk_wai_sem(&mut self, id: SemId, cnt: u32, tmo: Timeout) -> KResult<()> {
        self.service(ServiceClass::Semaphore, "tk_wai_sem", |sys| {
            sys.wait(
                tmo,
                |st, tid| {
                    let pri = st.tcb(tid)?.cur_pri;
                    let sem = st.sems.get_mut(id.0)?;
                    if cnt == 0 || cnt > sem.max {
                        return Err(ErCode::Par);
                    }
                    if sem.waitq.is_empty() && sem.count >= cnt {
                        sem.count -= cnt;
                        st.observe(crate::obs::ObsEvent::SemTake { id, tid, cnt });
                        Ok(WaitDecision::Served(()))
                    } else if tmo == Timeout::Poll {
                        Err(ErCode::Tmout)
                    } else {
                        sem.waitq.enqueue(tid, pri);
                        Ok(WaitDecision::Block(WaitObj::Sem(id, cnt)))
                    }
                },
                Delivered::nothing,
            )
        })
    }

    /// `tk_ref_sem` — reference semaphore state.
    pub fn tk_ref_sem(&mut self, id: SemId) -> KResult<RefSem> {
        self.service(ServiceClass::Semaphore, "tk_ref_sem", |sys| {
            sys.shared.st.borrow().sems.get(id.0).map(RefSem::of)
        })
    }
}

impl RefSem {
    /// The snapshot of `s` (`tk_ref_sem`, `td_ref_sem`).
    pub(crate) fn of(s: &Sem) -> Self {
        RefSem {
            name: s.name.clone(),
            count: s.count,
            max: s.max,
            waiting: s.waitq.len(),
            first_waiter: s.waitq.front(),
        }
    }
}
