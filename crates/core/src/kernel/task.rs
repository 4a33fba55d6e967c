//! Task management and task-attached synchronisation
//! (`tk_cre_tsk` … `tk_ref_tsk`, `tk_slp_tsk`/`tk_wup_tsk`,
//! suspend/resume, delay, forced wait release).

use std::cell::RefCell;
use std::rc::Rc;

use sysc::{ProcCtx, SpawnMode};

use crate::config::Priority;
use crate::cost::ServiceClass;
use crate::error::{ErCode, KResult};
use crate::ids::{TaskId, ThreadRef};
use crate::rtos::Sys;
use crate::state::{Delivered, Shared, TThreadRec, TaskBody, TaskState, Tcb, Timeout, WaitObj};
use crate::trace::TraceKind;
use crate::tthread::{ExecContext, TThreadEvent};

use super::WaitDecision;

/// Snapshot returned by `tk_ref_tsk`.
#[derive(Debug, Clone)]
pub struct RefTsk {
    /// Task name.
    pub name: String,
    /// Current task state.
    pub state: TaskState,
    /// Base (assigned) priority.
    pub base_pri: Priority,
    /// Current priority (after mutex inheritance/ceiling).
    pub cur_pri: Priority,
    /// Queued wakeup requests.
    pub wupcnt: u32,
    /// Nested suspend count.
    pub suscnt: u32,
    /// What the task is waiting on, if waiting.
    pub wait: Option<WaitObj>,
    /// Number of activations so far.
    pub activations: u64,
}

impl<'a> Sys<'a> {
    /// `tk_cre_tsk` — creates a task in the DORMANT state.
    ///
    /// # Errors
    ///
    /// `E_PAR` if the priority is out of range.
    pub fn tk_cre_tsk<F>(&mut self, name: &str, pri: Priority, body: F) -> KResult<TaskId>
    where
        F: FnMut(&mut Sys<'_>, i32) + 'static,
    {
        self.service(ServiceClass::Task, "tk_cre_tsk", |sys| {
            sys.shared.create_task_raw(name, pri, Box::new(body))
        })
    }

    /// `tk_del_tsk` — deletes a DORMANT task.
    ///
    /// # Errors
    ///
    /// `E_NOEXS` if the task does not exist; `E_OBJ` if it is not
    /// DORMANT.
    pub fn tk_del_tsk(&mut self, tid: TaskId) -> KResult<()> {
        self.service(ServiceClass::Task, "tk_del_tsk", |sys| {
            let mut st = sys.shared.st.borrow_mut();
            if st.tcb(tid)?.state != TaskState::Dormant {
                return Err(ErCode::Obj);
            }
            st.observe(crate::obs::ObsEvent::TaskDelete { tid });
            st.tasks.remove(tid.0)?;
            Ok(())
        })
    }

    /// `tk_sta_tsk` — starts a DORMANT task with start code `stacd`.
    ///
    /// # Errors
    ///
    /// `E_NOEXS` / `E_OBJ` as per the specification.
    pub fn tk_sta_tsk(&mut self, tid: TaskId, stacd: i32) -> KResult<()> {
        self.service(ServiceClass::Task, "tk_sta_tsk", |sys| {
            sys.shared.start_task(tid, stacd, sys.proc.now())
        })
    }

    /// `tk_ext_tsk` — ends the calling task (returns it to DORMANT).
    /// Never returns.
    ///
    /// # Panics
    ///
    /// Panics if called from handler context (a real kernel would fall
    /// into a system error; `E_CTX` cannot be returned from a diverging
    /// call).
    pub fn tk_ext_tsk(&mut self) -> ! {
        let tid = self
            .require_task()
            .expect("tk_ext_tsk must be called from task context");
        let shared = &self.shared;
        shared.task_exit_bookkeeping(tid, self.proc.now(), false);
        self.proc.exit()
    }

    /// `tk_exd_tsk` — ends and deletes the calling task. Never returns.
    ///
    /// # Panics
    ///
    /// Panics if called from handler context.
    pub fn tk_exd_tsk(&mut self) -> ! {
        let tid = self
            .require_task()
            .expect("tk_exd_tsk must be called from task context");
        let shared = &self.shared;
        shared.task_exit_bookkeeping(tid, self.proc.now(), true);
        self.proc.exit()
    }

    /// `tk_ter_tsk` — forcibly terminates another task (to DORMANT).
    ///
    /// # Errors
    ///
    /// `E_OBJ` if the target is DORMANT or is the caller itself.
    pub fn tk_ter_tsk(&mut self, tid: TaskId) -> KResult<()> {
        self.service(ServiceClass::Task, "tk_ter_tsk", |sys| {
            if sys.who == ThreadRef::Task(tid) {
                return Err(ErCode::Obj);
            }
            sys.shared.terminate_task(tid, sys.proc.now())
        })
    }

    /// `tk_chg_pri` — changes a task's base priority (`pri == 0` resets
    /// to the creation priority, `TPRI_INI`).
    ///
    /// # Errors
    ///
    /// `E_PAR` for out-of-range priorities, `E_NOEXS`/`E_OBJ` for bad
    /// targets, `E_ILUSE` if the new priority violates a held ceiling
    /// mutex.
    pub fn tk_chg_pri(&mut self, tid: TaskId, pri: Priority) -> KResult<()> {
        self.service(ServiceClass::Task, "tk_chg_pri", |sys| {
            let mut st = sys.shared.st.borrow_mut();
            let tcb = st.tcb(tid)?;
            if tcb.state == TaskState::Dormant {
                return Err(ErCode::Obj);
            }
            let new_base = if pri == 0 { tcb.ini_pri } else { pri };
            if pri > st.cfg.max_priority {
                return Err(ErCode::Par);
            }
            if super::mtx::violates_ceiling(&st, tid, new_base) {
                return Err(ErCode::IlUse);
            }
            st.tcb_mut(tid).expect("checked above").base_pri = new_base;
            st.observe(crate::obs::ObsEvent::PriChange {
                tid,
                base: new_base,
            });
            super::mtx::recompute_priority(&mut st, tid, 0);
            Ok(())
        })
    }

    /// `tk_rot_rdq` — rotates the ready queue of priority `pri`
    /// (`pri == 0`: the caller's current priority).
    pub fn tk_rot_rdq(&mut self, pri: Priority) -> KResult<()> {
        self.service(ServiceClass::Task, "tk_rot_rdq", |sys| {
            let mut st = sys.shared.st.borrow_mut();
            let pri = if pri == 0 {
                st.tcb(sys.require_task()?)?.cur_pri
            } else if pri > st.cfg.max_priority {
                return Err(ErCode::Par);
            } else {
                pri
            };
            st.scheduler.rotate(pri);
            st.observe(crate::obs::ObsEvent::RotRdq { pri });
            Ok(())
        })
    }

    /// `tk_get_tid` — the calling task's ID (`None` from handler
    /// context, the specification's `TSK_NONE`).
    pub fn tk_get_tid(&self) -> Option<TaskId> {
        match self.who {
            ThreadRef::Task(t) => Some(t),
            _ => None,
        }
    }

    /// `tk_ref_tsk` — reference task state.
    ///
    /// # Errors
    ///
    /// `E_NOEXS` if the task does not exist.
    pub fn tk_ref_tsk(&mut self, tid: TaskId) -> KResult<RefTsk> {
        self.service(ServiceClass::Task, "tk_ref_tsk", |sys| {
            sys.shared.st.borrow().tcb(tid).map(RefTsk::of)
        })
    }

    // ------------------------------------------------------------------
    // Task-attached synchronisation
    // ------------------------------------------------------------------

    /// `tk_slp_tsk` — sleeps until `tk_wup_tsk` (or timeout). A queued
    /// wakeup request is consumed immediately.
    ///
    /// # Errors
    ///
    /// `E_CTX` from handler context or while dispatching is disabled;
    /// `E_TMOUT` / `E_RLWAI` per the specification.
    pub fn tk_slp_tsk(&mut self, tmo: Timeout) -> KResult<()> {
        self.service(ServiceClass::TaskSync, "tk_slp_tsk", |sys| {
            sys.wait(
                tmo,
                |st, tid| {
                    let tcb = st.tcb_mut(tid).expect("caller exists");
                    if tcb.wupcnt > 0 {
                        tcb.wupcnt -= 1;
                        st.observe(crate::obs::ObsEvent::WupConsume { tid });
                        Ok(WaitDecision::Served(()))
                    } else if tmo == Timeout::Poll {
                        Err(ErCode::Tmout)
                    } else {
                        Ok(WaitDecision::Block(WaitObj::Sleep))
                    }
                },
                Delivered::nothing,
            )
        })
    }

    /// `tk_wup_tsk` — wakes a sleeping task or queues the wakeup.
    ///
    /// # Errors
    ///
    /// `E_OBJ` for DORMANT targets or self, `E_QOVR` if the wakeup queue
    /// overflows.
    pub fn tk_wup_tsk(&mut self, tid: TaskId) -> KResult<()> {
        self.service(ServiceClass::TaskSync, "tk_wup_tsk", |sys| {
            let now = sys.now();
            let mut st = sys.shared.st.borrow_mut();
            if sys.who == ThreadRef::Task(tid) {
                return Err(ErCode::Obj);
            }
            let tcb = st.tcb(tid)?;
            if tcb.state == TaskState::Dormant {
                return Err(ErCode::Obj);
            }
            let sleeping = matches!(
                (tcb.state, tcb.wait),
                (
                    TaskState::Wait | TaskState::WaitSuspend,
                    Some(WaitObj::Sleep)
                )
            );
            if sleeping {
                st.observe(crate::obs::ObsEvent::WupTsk { tid });
                Shared::make_ready(&mut st, now, tid, Ok(()), Delivered::None);
                return Ok(());
            }
            let max = st.cfg.max_wakeup_count;
            let tcb = st.tcb_mut(tid).expect("checked above");
            if tcb.wupcnt >= max {
                return Err(ErCode::QOvr);
            }
            tcb.wupcnt += 1;
            st.observe(crate::obs::ObsEvent::WupTsk { tid });
            Ok(())
        })
    }

    /// `tk_can_wup` — returns and clears the queued wakeup count.
    pub fn tk_can_wup(&mut self, tid: TaskId) -> KResult<u32> {
        self.service(ServiceClass::TaskSync, "tk_can_wup", |sys| {
            let mut st = sys.shared.st.borrow_mut();
            let tcb = st.tcb_mut(tid)?;
            if tcb.state == TaskState::Dormant {
                return Err(ErCode::Obj);
            }
            Ok(std::mem::take(&mut tcb.wupcnt))
        })
    }

    /// `tk_dly_tsk` — delays the calling task for at least `d`
    /// (releasable only by `tk_rel_wai`).
    ///
    /// # Errors
    ///
    /// `E_CTX` from handler context; `E_RLWAI` on forced release.
    pub fn tk_dly_tsk(&mut self, d: sysc::SimTime) -> KResult<()> {
        self.service(ServiceClass::TaskSync, "tk_dly_tsk", |sys| {
            let delay = sys.wait(
                Timeout::Finite(d),
                |_, _| {
                    Ok(if d.is_zero() {
                        WaitDecision::Served(())
                    } else {
                        WaitDecision::Block(WaitObj::Delay)
                    })
                },
                Delivered::nothing,
            );
            // Normal delay completion is reported as success.
            match delay {
                Err(ErCode::Tmout) => Ok(()),
                r => r,
            }
        })
    }

    /// `tk_rel_wai` — forcibly releases another task from waiting (it
    /// completes with `E_RLWAI`).
    ///
    /// # Errors
    ///
    /// `E_OBJ` if the target is not waiting.
    pub fn tk_rel_wai(&mut self, tid: TaskId) -> KResult<()> {
        self.service(ServiceClass::TaskSync, "tk_rel_wai", |sys| {
            let now = sys.now();
            let mut st = sys.shared.st.borrow_mut();
            if !matches!(st.tcb(tid)?.state, TaskState::Wait | TaskState::WaitSuspend) {
                return Err(ErCode::Obj);
            }
            st.observe(crate::obs::ObsEvent::RelWai { tid });
            let detached = super::detach_waiter(&mut st, tid);
            Shared::make_ready(&mut st, now, tid, Err(ErCode::RlWai), Delivered::None);
            // Removing the waiter can make the ones behind it
            // satisfiable (semaphore counts, mbf buffer space, mpl
            // arena space): serve them now.
            if let Some(obj) = detached {
                super::reserve_after_detach(&mut st, obj, now);
            }
            Ok(())
        })
    }

    /// `tk_sus_tsk` — suspends another task (nested).
    ///
    /// # Errors
    ///
    /// `E_OBJ` for DORMANT targets or self; `E_QOVR` on suspend-count
    /// overflow.
    pub fn tk_sus_tsk(&mut self, tid: TaskId) -> KResult<()> {
        self.service(ServiceClass::TaskSync, "tk_sus_tsk", |sys| {
            let mut st = sys.shared.st.borrow_mut();
            if sys.who == ThreadRef::Task(tid) {
                return Err(ErCode::Obj);
            }
            let tcb = st.tcb(tid)?;
            if tcb.state == TaskState::Dormant {
                return Err(ErCode::Obj);
            }
            if tcb.suscnt >= st.cfg.max_suspend_count {
                return Err(ErCode::QOvr);
            }
            st.observe(crate::obs::ObsEvent::Suspend { tid });
            let tcb = st.tcb_mut(tid).expect("checked above");
            tcb.suscnt += 1;
            match tcb.state {
                TaskState::Ready => {
                    tcb.state = TaskState::Suspend;
                    st.scheduler.remove(tid);
                }
                TaskState::Wait => tcb.state = TaskState::WaitSuspend,
                TaskState::Running => {
                    // Only reachable from handler context (the frozen
                    // running task). Demote it.
                    tcb.state = TaskState::Suspend;
                    tcb.thread.marking = ExecContext::Preempted;
                    // A suspended task must not keep a CPU grant it has
                    // not consumed yet.
                    tcb.thread.cpu_granted = false;
                    st.running = None;
                }
                _ => {}
            }
            Ok(())
        })
    }

    /// `tk_rsm_tsk` — resumes a suspended task (one nesting level).
    pub fn tk_rsm_tsk(&mut self, tid: TaskId) -> KResult<()> {
        self.resume_task_inner(tid, false)
    }

    /// `tk_frsm_tsk` — forcibly resumes a suspended task (all levels).
    pub fn tk_frsm_tsk(&mut self, tid: TaskId) -> KResult<()> {
        self.resume_task_inner(tid, true)
    }

    fn resume_task_inner(&mut self, tid: TaskId, force: bool) -> KResult<()> {
        self.service(ServiceClass::TaskSync, "tk_rsm_tsk", |sys| {
            let mut st = sys.shared.st.borrow_mut();
            if !matches!(
                st.tcb(tid)?.state,
                TaskState::Suspend | TaskState::WaitSuspend
            ) {
                return Err(ErCode::Obj);
            }
            st.observe(crate::obs::ObsEvent::Resume { tid, force });
            let tcb = st.tcb_mut(tid).expect("checked above");
            tcb.suscnt = if force { 0 } else { tcb.suscnt - 1 };
            if tcb.suscnt == 0 {
                match tcb.state {
                    TaskState::Suspend => {
                        tcb.state = TaskState::Ready;
                        let pri = tcb.cur_pri;
                        st.scheduler.enqueue(tid, pri, false);
                    }
                    TaskState::WaitSuspend => tcb.state = TaskState::Wait,
                    _ => unreachable!("state checked above"),
                }
            }
            Ok(())
        })
    }
}

impl RefTsk {
    /// The snapshot of `tcb` (`tk_ref_tsk`, `td_ref_tsk`).
    pub(crate) fn of(tcb: &Tcb) -> Self {
        RefTsk {
            name: tcb.name.clone(),
            state: tcb.state,
            base_pri: tcb.base_pri,
            cur_pri: tcb.cur_pri,
            wupcnt: tcb.wupcnt,
            suscnt: tcb.suscnt,
            wait: tcb.wait,
            activations: tcb.activations,
        }
    }
}

impl Shared {
    /// Creates a task control block, with its T-THREAD record, in the
    /// DORMANT state. Shared by `tk_cre_tsk` and the Boot module (which
    /// creates the initialization task).
    pub(crate) fn create_task_raw(
        &self,
        name: &str,
        pri: Priority,
        body: Box<TaskBody>,
    ) -> KResult<TaskId> {
        let mut st = self.st.borrow_mut();
        if pri < 1 || pri > st.cfg.max_priority {
            return Err(ErCode::Par);
        }
        let tid = TaskId(st.tasks.insert(Tcb {
            name: name.to_string(),
            ini_pri: pri,
            base_pri: pri,
            cur_pri: pri,
            state: TaskState::Dormant,
            wupcnt: 0,
            suscnt: 0,
            wait: None,
            wait_gen: 0,
            wait_result: None,
            held_mutexes: Vec::new(),
            body: Rc::new(RefCell::new(body)),
            stacd: 0,
            activations: 0,
            thread: TThreadRec::new(&self.h),
            proc: None,
        }));
        st.observe(crate::obs::ObsEvent::TaskCreate { tid, pri });
        Ok(tid)
    }

    /// Implements `tk_sta_tsk`: DORMANT → READY plus spawning the
    /// activation process.
    pub(crate) fn start_task(
        self: &Rc<Self>,
        tid: TaskId,
        stacd: i32,
        now: sysc::SimTime,
    ) -> KResult<()> {
        let mut st = self.st.borrow_mut();
        if st.tcb(tid)?.state != TaskState::Dormant {
            return Err(ErCode::Obj);
        }
        let tcb = st.tcb_mut(tid).expect("checked above");
        tcb.stacd = stacd;
        tcb.state = TaskState::Ready;
        tcb.cur_pri = tcb.base_pri;
        tcb.activations += 1;
        tcb.thread.marking = ExecContext::Startup;
        let pri = tcb.cur_pri;
        let resume_ev = tcb.thread.resume_ev;
        st.observe(crate::obs::ObsEvent::TaskStart { tid });
        st.scheduler.enqueue(tid, pri, false);
        Shared::trace_point(&mut st, now, ThreadRef::Task(tid), TraceKind::Startup);
        // Spawn the per-activation process, parked until dispatched.
        let shared = Rc::clone(self);
        let pid = self
            .h
            .spawn_thread(SpawnMode::WaitEvent(resume_ev), move |proc| {
                shared.run_task_activation(proc, tid);
            });
        st.tcb_mut(tid).expect("checked above").proc = Some(pid);
        Ok(())
    }

    /// The body wrapper of one task activation.
    fn run_task_activation(self: Rc<Shared>, proc: &mut ProcCtx, tid: TaskId) {
        let who = ThreadRef::Task(tid);
        // The spawn wait was satisfied by a dispatch notification, but the
        // grant may have been revoked by a same-delta interrupt; wait for
        // an actual CPU grant.
        self.park_until_granted(proc, who);
        let (body, stacd) = {
            let mut st = self.st.borrow_mut();
            let rec = st.thread_mut(who);
            rec.stats.sigma.fire(TThreadEvent::Es);
            rec.marking = ExecContext::TaskBody;
            rec.prev_marking = ExecContext::TaskBody;
            let tcb = st.tcb(tid).expect("started task exists");
            (Rc::clone(&tcb.body), tcb.stacd)
        };
        {
            let mut body = body.borrow_mut();
            let mut sys = Sys {
                shared: Rc::clone(&self),
                proc,
                who,
            };
            (body)(&mut sys, stacd);
        }
        // Implicit tk_ext_tsk when the body returns.
        self.task_exit_bookkeeping(tid, proc.now(), false);
        // The sysc process ends by returning (no need to unwind).
    }

    /// DORMANT bookkeeping shared by `tk_ext_tsk`, `tk_exd_tsk` and the
    /// implicit exit when a task body returns.
    pub(crate) fn task_exit_bookkeeping(&self, tid: TaskId, now: sysc::SimTime, delete: bool) {
        let who = ThreadRef::Task(tid);
        let (frozen_ev, next_resume, int_kick) = {
            let mut st = self.st.borrow_mut();
            // Observation order: the exit is the stimulus, the mutex
            // ownership-transfer wakeups below are its consequences.
            st.observe(crate::obs::ObsEvent::TaskExit { tid });
            super::mtx::release_all_held(&mut st, tid, now);
            // An exiting task takes its dispatch-disable / CPU-lock
            // window with it (µ-ITRON: exit restores the dispatching
            // enabled, CPU unlocked state) — otherwise the system would
            // be wedged with dispatching disabled forever.
            let was_masked = st.dispatch_disabled || st.cpu_locked;
            st.dispatch_disabled = false;
            st.cpu_locked = false;
            if was_masked {
                st.observe(crate::obs::ObsEvent::DispCtl { disabled: false });
            }
            let tcb = st.tcb_mut(tid).expect("exiting task exists");
            tcb.state = TaskState::Dormant;
            tcb.wupcnt = 0;
            tcb.suscnt = 0;
            tcb.wait = None;
            tcb.proc = None;
            let rec = &mut tcb.thread;
            rec.marking = ExecContext::Dormant;
            rec.stats.cycles += 1;
            rec.parked = true;
            rec.cpu_granted = false;
            let frozen_ev = std::mem::take(&mut rec.ctrl_pending).then_some(rec.frozen_ev);
            debug_assert_eq!(st.running, Some(tid), "only the running task can exit");
            st.running = None;
            Shared::trace_point(&mut st, now, who, TraceKind::Exit);
            if delete {
                st.observe(crate::obs::ObsEvent::TaskDelete { tid });
                st.tasks.remove(tid.0).expect("exiting task exists");
            }
            let next_resume = if frozen_ev.is_none() {
                Shared::pick_and_switch(&mut st, now)
            } else {
                None
            };
            // Interrupts pended behind a CPU lock must be delivered now
            // that the lock died with its holder.
            let int_kick = if was_masked && !st.pending_ints.is_empty() {
                st.int_req_ev
            } else {
                None
            };
            Shared::update_idle(&mut st, now);
            (frozen_ev, next_resume, int_kick)
        };
        if let Some(ev) = frozen_ev {
            self.h.notify(ev);
        }
        if let Some(ev) = next_resume {
            self.h.notify(ev);
        }
        if let Some(ev) = int_kick {
            self.h.notify(ev);
        }
    }

    /// Implements `tk_ter_tsk`.
    pub(crate) fn terminate_task(&self, tid: TaskId, now: sysc::SimTime) -> KResult<()> {
        let who = ThreadRef::Task(tid);
        let (proc, int_kick) = {
            let mut st = self.st.borrow_mut();
            if st.tcb(tid)?.state == TaskState::Dormant {
                return Err(ErCode::Obj);
            }
            // Stimulus first: the mutex ownership-transfer and
            // queue-re-serve wakeups below are its consequences.
            st.observe(crate::obs::ObsEvent::TaskTerminate { tid });
            super::mtx::release_all_held(&mut st, tid, now);
            let detached = super::detach_waiter(&mut st, tid);
            let was_running = st.running == Some(tid);
            let mut int_kick = None;
            let mut window_torn_down = false;
            if was_running {
                st.running = None;
                // Terminating the running task (only possible from
                // handler context) tears down any dispatch-disable /
                // CPU-lock window it had open — leaving the flags set
                // would wedge dispatching forever.
                let was_masked = st.dispatch_disabled || st.cpu_locked;
                st.dispatch_disabled = false;
                st.cpu_locked = false;
                window_torn_down = was_masked;
                if was_masked && !st.pending_ints.is_empty() {
                    int_kick = st.int_req_ev;
                }
            } else {
                st.scheduler.remove(tid);
            }
            let tcb = st.tcb_mut(tid).expect("checked above");
            tcb.state = TaskState::Dormant;
            tcb.wupcnt = 0;
            tcb.suscnt = 0;
            tcb.wait = None;
            let proc = tcb.proc.take();
            let rec = &mut tcb.thread;
            rec.marking = ExecContext::Dormant;
            rec.stats.cycles += 1;
            rec.ctrl_pending = false;
            rec.parked = true;
            rec.cpu_granted = false;
            // The abandoned wait's queue may hold now-satisfiable
            // waiters (the terminated head was holding them back).
            if let Some(obj) = detached {
                super::reserve_after_detach(&mut st, obj, now);
            }
            // Emitted after the termination's mandated wakeups so they
            // stay contiguous with their stimulus.
            if window_torn_down {
                st.observe(crate::obs::ObsEvent::DispCtl { disabled: false });
            }
            Shared::trace_point(&mut st, now, who, TraceKind::Exit);
            Shared::update_idle(&mut st, now);
            (proc, int_kick)
        };
        if let Some(pid) = proc {
            self.h.kill(pid);
        }
        if let Some(ev) = int_kick {
            self.h.notify(ev);
        }
        Ok(())
    }
}
