//! The T-Kernel/OS simulation model: object tables and `tk_*` services.
//!
//! Each submodule implements one service family of the µ-ITRON / T-Kernel
//! specification surface described in the paper (§2): task management and
//! synchronisation, semaphores, event flags, mailboxes, message buffers,
//! mutexes, fixed/variable memory pools, time management (system time,
//! cyclic and alarm handlers), interrupt management and system
//! management.
//!
//! Every service takes one path through three shared pieces:
//!
//! * the bracket `Sys::service` charges the class's atomic cost, runs
//!   the service and ends at the preemption point on every return,
//!   errors included. Only `tk_dis_dsp` and `tk_loc_cpu` charge their
//!   cost without it: dispatching is masked when they return, so they
//!   have no preemption point. `tk_ext_tsk` and `tk_exd_tsk` never
//!   return and charge nothing;
//! * the ten services that may block run `Sys::wait` inside the
//!   bracket; their object answers with a `WaitDecision`: served now
//!   with a value, or the caller enqueued and blocking on a `WaitObj`;
//! * every object class lives in an `ObjTable`, which maps the 1-based
//!   ID to its slot; ID 0 and unknown IDs are `E_NOEXS`.

pub mod flag;
pub mod int;
pub mod mbf;
pub mod mbx;
pub mod mpf;
pub mod mpl;
pub mod mtx;
pub mod sem;
pub mod sysmgmt;
pub mod task;
pub mod time;
pub(crate) mod waitq;

use crate::error::{ErCode, KResult};
use crate::ids::TaskId;
use crate::rtos::Sys;
use crate::state::{Delivered, KernelState, Shared, Timeout, WaitObj};

use waitq::WaitQueue;

/// A table of kernel records indexed by ID. IDs start at 1 and are
/// handed out densely, so slot `id - 1` holds the record of `id`. ID 0
/// is never issued: it and every ID past the end look up as `E_NOEXS`.
pub(crate) struct ObjTable<T> {
    slots: Vec<Option<T>>,
}

impl<T> Default for ObjTable<T> {
    fn default() -> Self {
        ObjTable { slots: Vec::new() }
    }
}

impl<T> ObjTable<T> {
    /// The slot of `id`; ID 0 has none.
    fn index(id: u32) -> Option<usize> {
        (id as usize).checked_sub(1)
    }

    /// The record of `id`, or `E_NOEXS`.
    pub(crate) fn get(&self, id: u32) -> KResult<&T> {
        Self::index(id)
            .and_then(|i| self.slots.get(i)?.as_ref())
            .ok_or(ErCode::NoExs)
    }

    /// Mutable variant of [`ObjTable::get`].
    pub(crate) fn get_mut(&mut self, id: u32) -> KResult<&mut T> {
        Self::index(id)
            .and_then(|i| self.slots.get_mut(i)?.as_mut())
            .ok_or(ErCode::NoExs)
    }

    /// Stores `value` in the first free slot, so the lowest free ID is
    /// reused first, and returns its ID.
    pub(crate) fn insert(&mut self, value: T) -> u32 {
        let i = match self.slots.iter().position(Option::is_none) {
            Some(i) => i,
            None => {
                self.slots.push(None);
                self.slots.len() - 1
            }
        };
        self.slots[i] = Some(value);
        i as u32 + 1
    }

    /// Takes the record of `id` out of the table, freeing the ID.
    pub(crate) fn remove(&mut self, id: u32) -> KResult<T> {
        Self::index(id)
            .and_then(|i| self.slots.get_mut(i)?.take())
            .ok_or(ErCode::NoExs)
    }

    /// The highest ID the table has reached; no record lies above it.
    pub(crate) fn max_id(&self) -> u32 {
        self.slots.len() as u32
    }

    /// Every record with its ID, in ID order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (u32, &T)> {
        (1..)
            .zip(&self.slots)
            .filter_map(|(id, slot)| Some((id, slot.as_ref()?)))
    }
}

/// What the object of a blocking service decided about the caller.
pub(crate) enum WaitDecision<T> {
    /// The call is served now with this value.
    Served(T),
    /// The caller is enqueued on the object and blocks on this wait.
    Block(WaitObj),
}

impl Sys<'_> {
    /// The wait path of every blocking service, run inside its bracket.
    /// `E_CTX` unless the caller is a task that may block; then, in one
    /// state borrow, the object's `decide`: serve the call now, answer
    /// `TMO_POL` with `E_TMOUT`, or enqueue the caller. A blocked caller
    /// gets its wait result and the payload `unpack` takes out of the
    /// delivery; a payload that does not match the wait is `E_SYS`.
    pub(crate) fn wait<T>(
        &mut self,
        tmo: Timeout,
        decide: impl FnOnce(&mut KernelState, TaskId) -> KResult<WaitDecision<T>>,
        unpack: impl FnOnce(Delivered) -> Option<T>,
    ) -> KResult<T> {
        let tid = self.require_task()?;
        let decision = {
            let mut st = self.shared.st.borrow_mut();
            if st.dispatch_masked() {
                return Err(ErCode::Ctx);
            }
            decide(&mut st, tid)?
        };
        match decision {
            WaitDecision::Served(v) => Ok(v),
            WaitDecision::Block(obj) => {
                let (res, delivered) = self.shared.block_current(self.proc, tid, obj, tmo);
                res?;
                unpack(delivered).ok_or(ErCode::Sys)
            }
        }
    }
}

/// Releases the waiters of a deleted object with `E_DLT`, in order.
pub(crate) fn release_deleted(
    st: &mut KernelState,
    now: sysc::SimTime,
    waiters: impl IntoIterator<Item = TaskId>,
) {
    for tid in waiters {
        Shared::make_ready(st, now, tid, Err(ErCode::Dlt), Delivered::None);
    }
}

/// The wait queue a task blocked on `obj` sits in; `None` for a sleep
/// or a delay, which have none, and for a deleted object.
pub(crate) fn wait_queue_mut(st: &mut KernelState, obj: WaitObj) -> Option<&mut WaitQueue> {
    Some(match obj {
        WaitObj::Sleep | WaitObj::Delay => return None,
        WaitObj::Sem(id, _) => &mut st.sems.get_mut(id.0).ok()?.waitq,
        WaitObj::Flag(id, _, _) => &mut st.flags.get_mut(id.0).ok()?.waitq,
        WaitObj::Mbx(id) => &mut st.mbxs.get_mut(id.0).ok()?.waitq,
        WaitObj::MbfSend(id, _) => &mut st.mbfs.get_mut(id.0).ok()?.send_q,
        WaitObj::MbfRecv(id) => &mut st.mbfs.get_mut(id.0).ok()?.recv_q,
        WaitObj::Mtx(id) => &mut st.mtxs.get_mut(id.0).ok()?.waitq,
        WaitObj::Mpf(id) => &mut st.mpfs.get_mut(id.0).ok()?.waitq,
        WaitObj::Mpl(id, _) => &mut st.mpls.get_mut(id.0).ok()?.waitq,
    })
}

/// Removes `tid` from whatever wait queue it is blocked on (timeout,
/// forced release, termination) and cleans the object-side bookkeeping
/// of the pending request (a blocked mbf sender's stashed payload).
/// Mutex waits additionally trigger a priority-inheritance
/// recomputation on the owner. Returns the wait object the task was
/// detached from so the caller can re-serve its queue (see
/// [`reserve_after_detach`]) once the victim's own wakeup has been
/// delivered.
pub(crate) fn detach_waiter(st: &mut KernelState, tid: TaskId) -> Option<WaitObj> {
    let wait = st.tcb(tid).ok().and_then(|t| t.wait)?;
    if let Some(q) = wait_queue_mut(st, wait) {
        q.remove(tid);
    }
    match wait {
        WaitObj::MbfSend(id, _) => {
            // The stashed payload of the abandoned send must go with
            // it: leaving it would leak, and a later send by the same
            // task could deliver the stale bytes.
            if let Ok(m) = st.mbfs.get_mut(id.0) {
                m.send_data.remove(&tid);
            }
        }
        WaitObj::Mtx(id) => {
            if let Some(owner) = st.mtxs.get(id.0).ok().and_then(|m| m.owner) {
                mtx::recompute_priority(st, owner, 0);
            }
        }
        _ => {}
    }
    Some(wait)
}

/// Re-serves the wait queue of `obj` after one of its waiters was
/// removed without being satisfied (timeout, `tk_rel_wai`,
/// `tk_ter_tsk`). Removing the head waiter can make the next waiters
/// satisfiable — a semaphore whose count could not cover the head's
/// request, a message buffer whose head sender's message did not fit,
/// a variable pool whose head allocation was too large — and µ-ITRON's
/// wait-release rules mandate serving them immediately, in queue
/// order. Call after the victim's own wakeup (if any) has been
/// delivered, so the observation stream keeps its
/// stimulus-then-consequences order.
pub(crate) fn reserve_after_detach(st: &mut KernelState, obj: WaitObj, now: sysc::SimTime) {
    match obj {
        WaitObj::Sem(id, _) => sem::serve_waiters(st, id, now),
        WaitObj::MbfSend(id, _) => mbf::drain_senders(st, id, now),
        WaitObj::Mpl(id, _) => mpl::serve_waiters(st, id, now),
        // Removing a waiter cannot unblock the remaining waiters of
        // the other classes: flag patterns and mailbox contents are
        // unchanged, mutexes transfer only on unlock, and a fixed pool
        // with waiters has no free blocks by invariant.
        _ => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_insert_reuses_free_slots() {
        let mut t = ObjTable::default();
        assert_eq!(t.insert(10), 1);
        assert_eq!(t.insert(20), 2);
        assert_eq!(t.remove(1), Ok(10));
        assert_eq!(t.insert(30), 1);
        assert_eq!(t.get(1), Ok(&30));
        assert_eq!(t.get(2), Ok(&20));
        assert_eq!(t.insert(40), 3);
        assert_eq!(t.max_id(), 3);
    }

    #[test]
    fn table_get_missing_is_noexs() {
        let mut t = ObjTable::default();
        t.insert(1u32);
        t.remove(1).unwrap();
        for id in [0, 1, 2, u32::MAX] {
            assert_eq!(t.get(id), Err(ErCode::NoExs), "get {id}");
            assert_eq!(t.get_mut(id), Err(ErCode::NoExs), "get_mut {id}");
            assert_eq!(t.remove(id), Err(ErCode::NoExs), "remove {id}");
        }
    }

    #[test]
    fn table_iterates_by_id_and_reuses_freed_ids() {
        let mut t = ObjTable::default();
        for c in ['a', 'b', 'c'] {
            t.insert(c);
        }
        assert_eq!(t.remove(2), Ok('b'));
        assert_eq!(t.iter().collect::<Vec<_>>(), [(1, &'a'), (3, &'c')]);
        assert_eq!(t.insert('B'), 2);
        assert_eq!(
            t.iter().collect::<Vec<_>>(),
            [(1, &'a'), (2, &'B'), (3, &'c')]
        );
    }
}
