//! SIM_API — the simulation library that extends the sysc engine with
//! RTOS execution semantics (paper §4, Table 1).
//!
//! The paper's SIM_API keeps a thread hash table (`SIM_HashTB`), a
//! stack for nested interrupts (`SIM_Stack`, here
//! `KernelState::int_stack`, one `(thread, level)` frame per active
//! handler), and provides the programming constructs used by kernel
//! simulation models. The paper's table is a hash so that `SIM_Wait`,
//! `SIM_Dispatch` and the freeze handshake find their thread in
//! constant time; here each T-THREAD record sits in the control block
//! it models (task, cyclic, alarm, ISR; the timer's in the kernel
//! state), and `KernelState::thread_mut` finds it through the dense
//! object tables (ISRs keyed by interrupt number), so a lookup is an
//! index and iteration follows `ThreadRef` order. The constructs:
//!
//! | Paper construct            | Here |
//! |----------------------------|------|
//! | `SIM_RegisterThread`       | `TThreadRec::new`, stored with the control block at creation |
//! | `SIM_Wait`                 | `Shared::sim_wait` (preemptible) / `Shared::sim_wait_atomic` |
//! | `SIM_Sleep` / `SIM_Wakeup` | `Shared::block_current` / `Shared::make_ready` |
//! | `SIM_Preempt`              | `Shared::freeze_occupant` + scheduler demotion |
//! | `SIM_Dispatch`             | `Shared::dispatch_from_scheduler` / `Shared::preemption_point` |
//! | delayed dispatching        | dispatch deferred until the interrupt stack empties |
//! | service call atomicity     | service costs consumed via `sim_wait_atomic` |
//!
//! # The single-CPU protocol
//!
//! Only one T-THREAD consumes modeled execution time at any simulated
//! instant. Two mechanisms guarantee this:
//!
//! * **Freeze handshake.** To take the CPU from the executing occupant, a
//!   dispatcher sets the occupant's `ctrl_pending` bit, notifies its
//!   `ctrl_ev` and waits on `frozen_ev`. The occupant — woken mid-slice
//!   from the interruptible wait inside `Shared::sim_wait`, or on
//!   reaching its next preemption point — accounts the time actually
//!   executed, acknowledges via `frozen_ev` and parks. If the occupant
//!   is inside an *atomic* section (service-call atomicity, a BFM bus
//!   transaction), the acknowledgment is delayed until the section
//!   completes — which models interrupt latency.
//! * **Grant tokens.** A parked thread only resumes execution when a
//!   dispatcher has set its `cpu_granted` token (and then notified
//!   `resume_ev`). A freezer that finds the occupant already parked
//!   simply revokes the token, so a thread that was granted the CPU but
//!   not yet scheduled by the sysc engine re-parks instead of running
//!   concurrently with a handler.
//!
//! Dispatchers themselves serialize through the `cpu_transfer` flag: the
//! tick and an external interrupt arriving in the same delta cannot both
//! mount a frame at once — the loser defers and is replayed when the
//! interrupt stack unwinds.

pub mod scheduler;

use sysc::{EventId, ProcCtx, SimTime, WaitOutcome};

use crate::cost::{Cost, Energy};
use crate::error::ErCode;
use crate::ids::{TaskId, ThreadRef};
use crate::state::{Delivered, KernelState, Shared, TaskState, Timeout, TimerAction, WaitObj};
use crate::trace::{TraceKind, TraceRecord};
use crate::tthread::{ExecContext, TThreadEvent};

impl Shared {
    // ------------------------------------------------------------------
    // Tracing
    // ------------------------------------------------------------------

    /// Appends one execution-trace record for `who` while the trace is
    /// being recorded. `kind` is built only then, so an unrecorded run
    /// clones no thread name and no label.
    pub(crate) fn trace_record(
        st: &mut KernelState,
        who: ThreadRef,
        start: SimTime,
        end: SimTime,
        kind: impl FnOnce() -> TraceKind,
        energy: Energy,
    ) {
        if st.trace.is_none() {
            return;
        }
        let record = TraceRecord {
            start,
            end,
            who,
            name: st.thread_name(who).to_string(),
            kind: kind(),
            energy,
        };
        if let Some(trace) = &mut st.trace {
            trace.push(record);
        }
    }

    /// Records a zero-width trace point for `who`.
    pub(crate) fn trace_point(st: &mut KernelState, now: SimTime, who: ThreadRef, kind: TraceKind) {
        Self::trace_record(st, who, now, now, || kind, Energy::ZERO);
    }

    // ------------------------------------------------------------------
    // SIM_Wait — consuming modeled execution time and energy
    // ------------------------------------------------------------------

    /// Consumes `cost` of execution time/energy in context `ctx`,
    /// preemptibly: an interrupt freeze request takes effect mid-slice
    /// with exact elapsed-time accounting.
    ///
    /// This is the paper's `SIM_Wait`: it inherits `sc_wait`'s time
    /// modeling, extends it with energy, and performs the
    /// interruption/preemption check.
    pub(crate) fn sim_wait(
        &self,
        proc: &mut ProcCtx,
        who: ThreadRef,
        ctx: ExecContext,
        label: &str,
        cost: Cost,
    ) {
        self.sim_wait_inner(proc, who, ctx, label, cost, true);
    }

    /// Like [`Shared::sim_wait`] but uninterruptible: the whole time
    /// budget is consumed before any pending freeze is acknowledged.
    /// Used for service-call atomicity and BFM bus transactions.
    pub(crate) fn sim_wait_atomic(
        &self,
        proc: &mut ProcCtx,
        who: ThreadRef,
        ctx: ExecContext,
        label: &str,
        cost: Cost,
    ) {
        self.sim_wait_inner(proc, who, ctx, label, cost, false);
    }

    fn sim_wait_inner(
        &self,
        proc: &mut ProcCtx,
        who: ThreadRef,
        ctx: ExecContext,
        label: &str,
        cost: Cost,
        preemptible: bool,
    ) {
        /// What one state borrow decided about the next slice (grant
        /// batching: the freeze check and the slice preparation share a
        /// single borrow instead of one each).
        enum Prep {
            /// A freeze is pending: acknowledge via this event and park.
            Frozen(EventId),
            /// The budget is consumed.
            Done,
            /// Run the next slice.
            Slice(EventId, crate::cost::Power),
        }
        let slice = || TraceKind::Slice {
            context: ctx,
            label: label.to_string(),
        };
        let mut remaining = cost.time;
        let mut explicit_pending = cost.energy;
        loop {
            let prep = {
                let mut st = self.st.borrow_mut();
                let now = proc.now();
                let active = st.cfg.cost.active_power;
                let rec = st.thread_mut(who);
                if std::mem::take(&mut rec.ctrl_pending) {
                    Prep::Frozen(Self::freeze_ack(&mut st, now, who))
                } else if remaining.is_zero() {
                    Prep::Done
                } else {
                    rec.marking = ctx;
                    rec.prev_marking = ctx;
                    Prep::Slice(rec.ctrl_ev, active)
                }
            };
            let (ctrl_ev, power) = match prep {
                Prep::Frozen(frozen_ev) => {
                    self.h.notify(frozen_ev);
                    self.park_until_granted(proc, who);
                    // Loop: a freshly resumed thread can be frozen again
                    // immediately (back-to-back interrupts).
                    continue;
                }
                Prep::Done => break,
                Prep::Slice(ctrl_ev, power) => (ctrl_ev, power),
            };
            let start = proc.now();
            let consumed = if preemptible {
                match proc.wait_event_timeout(ctrl_ev, remaining) {
                    WaitOutcome::TimedOut => remaining,
                    WaitOutcome::Fired => proc.now() - start,
                }
            } else {
                proc.wait_time(remaining);
                remaining
            };
            remaining -= consumed;
            let end = proc.now();
            let mut st = self.st.borrow_mut();
            let mut energy = power.energy_over(consumed);
            if remaining.is_zero() {
                // Attribute the explicit EEM annotation to the final slice.
                energy += explicit_pending;
                explicit_pending = Energy::ZERO;
            }
            let rec = st.thread_mut(who);
            rec.stats.consume(ctx, consumed, energy);
            if remaining.is_zero() {
                rec.stats.sigma.fire(TThreadEvent::Ec);
            }
            Self::trace_record(&mut st, who, start, end, slice, energy);
        }
        // Zero-time annotations still record their explicit energy.
        if !explicit_pending.is_zero() {
            let now = proc.now();
            let mut st = self.st.borrow_mut();
            let rec = st.thread_mut(who);
            rec.stats.consume(ctx, SimTime::ZERO, explicit_pending);
            rec.stats.sigma.fire(TThreadEvent::Ec);
            Self::trace_record(&mut st, who, now, now, slice, explicit_pending);
        }
    }

    // ------------------------------------------------------------------
    // Parking and granting
    // ------------------------------------------------------------------

    /// Parks the calling thread until a dispatcher grants it the CPU,
    /// then records the resume transition (`Ei`/`Ex`). The caller must
    /// already have marked the thread parked (in the state borrow).
    pub(crate) fn park_until_granted(&self, proc: &mut ProcCtx, who: ThreadRef) {
        loop {
            let (granted, resume_ev) = {
                let mut st = self.st.borrow_mut();
                let rec = st.thread_mut(who);
                if rec.cpu_granted {
                    rec.parked = false;
                    (true, rec.resume_ev)
                } else {
                    (false, rec.resume_ev)
                }
            };
            if granted {
                break;
            }
            proc.wait_event(resume_ev);
        }
        self.record_resume(proc.now(), who);
    }

    /// The freeze-acknowledge state transition (caller holds the state
    /// borrow and has already consumed `ctrl_pending`): marks `who`
    /// interrupted and off-CPU, revokes its grant, records the trace
    /// point. Returns the `frozen_ev` the caller must notify before
    /// parking. Shared between [`Shared::check_ctrl_and_park`], the
    /// single-borrow slice path of [`Shared::sim_wait`] and the borrow
    /// that closes a handler activation (`Shared::run_handler`).
    pub(crate) fn freeze_ack(st: &mut KernelState, now: SimTime, who: ThreadRef) -> EventId {
        let rec = st.thread_mut(who);
        rec.prev_marking = rec.marking;
        rec.marking = ExecContext::Interrupted;
        rec.parked = true;
        rec.cpu_granted = false;
        rec.stats.interruptions += 1;
        let ev = rec.frozen_ev;
        Shared::trace_point(st, now, who, TraceKind::InterruptEnter);
        ev
    }

    /// If a freeze request is pending against `who`, acknowledge it and
    /// park until granted again. Loops because a freshly resumed thread
    /// can be frozen again immediately (back-to-back interrupts).
    pub(crate) fn check_ctrl_and_park(&self, proc: &mut ProcCtx, who: ThreadRef) {
        loop {
            let frozen_ev = {
                let mut st = self.st.borrow_mut();
                let now = proc.now();
                let rec = st.thread_mut(who);
                if std::mem::take(&mut rec.ctrl_pending) {
                    Some(Self::freeze_ack(&mut st, now, who))
                } else {
                    None
                }
            };
            let Some(frozen_ev) = frozen_ev else {
                return;
            };
            self.h.notify(frozen_ev);
            self.park_until_granted(proc, who);
        }
    }

    /// Records the Petri-net transition for a thread that was just handed
    /// the CPU back, read from the place it was parked in (`Ei` out of
    /// `Interrupted`, `Ex` out of `Preempted`; a wakeup or a first start
    /// fires nothing here), and restores the place it ran in.
    pub(crate) fn record_resume(&self, now: SimTime, who: ThreadRef) {
        let mut st = self.st.borrow_mut();
        let rec = st.thread_mut(who);
        let kind = match rec.marking {
            ExecContext::Interrupted => {
                rec.stats.sigma.fire(TThreadEvent::Ei);
                Some(TraceKind::ResumeFromInterrupt)
            }
            ExecContext::Preempted => {
                rec.stats.sigma.fire(TThreadEvent::Ex);
                Some(TraceKind::ResumeFromPreempt)
            }
            _ => None,
        };
        rec.marking = rec.prev_marking;
        if let Some(kind) = kind {
            Shared::trace_point(&mut st, now, who, kind);
        }
    }

    // ------------------------------------------------------------------
    // Freeze protocol
    // ------------------------------------------------------------------

    /// Freezes the current CPU occupant (if any) and ensures it is
    /// parked. Zero simulated time unless the occupant is inside an
    /// atomic section (modeled interrupt latency). The caller must hold
    /// the `cpu_transfer` token.
    pub(crate) fn freeze_occupant(&self, proc: &mut ProcCtx) -> Option<ThreadRef> {
        let (who, handshake) = {
            let mut st = self.st.borrow_mut();
            let occ = st.occupant()?;
            let rec = st.thread_mut(occ);
            if rec.parked {
                // Already off-CPU (e.g. granted but not yet run, or
                // frozen earlier). Revoke any grant so it re-parks.
                rec.cpu_granted = false;
                (occ, None)
            } else {
                debug_assert!(!rec.ctrl_pending, "freeze already pending against {occ}");
                rec.ctrl_pending = true;
                (occ, Some((rec.ctrl_ev, rec.frozen_ev)))
            }
        };
        if let Some((ctrl_ev, frozen_ev)) = handshake {
            self.h.notify(ctrl_ev);
            proc.wait_event(frozen_ev);
        }
        Some(who)
    }

    // ------------------------------------------------------------------
    // Dispatching
    // ------------------------------------------------------------------

    /// Scheduler-context dispatch (`SIM_Dispatch` after delayed
    /// dispatching): no task thread is executing; decide who gets the
    /// CPU next and hand it over. Called when the interrupt stack
    /// unwinds to empty and by the boot sequence.
    pub(crate) fn dispatch_from_scheduler(&self, now: SimTime) {
        let resume = {
            let mut st = self.st.borrow_mut();
            let resume = Self::pick_and_switch(&mut st, now);
            Self::update_idle(&mut st, now);
            resume
        };
        if let Some(ev) = resume {
            self.h.notify(ev);
        }
    }

    /// Core scheduling decision; returns the resume event to notify.
    /// Grants the CPU token to the chosen task.
    pub(crate) fn pick_and_switch(st: &mut KernelState, now: SimTime) -> Option<EventId> {
        if !st.int_stack.is_empty() {
            return None;
        }
        match st.running {
            Some(r) => {
                let r_pri = st.tcb(r).expect("running task exists").cur_pri;
                if !st.dispatch_masked() && st.scheduler.should_preempt(r_pri) {
                    Self::demote_running(st, now, true);
                    Some(Self::start_next(st, now))
                } else {
                    // The (frozen) running task keeps the CPU: re-grant.
                    // This is *not* a dispatch, so it happens even
                    // inside a dispatch-disabled window — an interrupt
                    // returning to the task that disabled dispatching
                    // must hand the CPU back, or the window wedges the
                    // system on the next tick.
                    let rec = st.thread_mut(ThreadRef::Task(r));
                    rec.cpu_granted = true;
                    Some(rec.resume_ev)
                }
            }
            None => {
                if !st.dispatch_masked() && st.scheduler.peek().is_some() {
                    Some(Self::start_next(st, now))
                } else {
                    None
                }
            }
        }
    }

    /// Demotes the (parked) running task to ready, recording the
    /// preemption. A preempted task re-enters at the head of its level
    /// (`at_head`); one whose time slice is spent, at the tail.
    pub(crate) fn demote_running(st: &mut KernelState, now: SimTime, at_head: bool) {
        let r = st.running.take().expect("a running task to demote");
        let tcb = st.tcb_mut(r).expect("running task exists");
        tcb.state = TaskState::Ready;
        let pri = tcb.cur_pri;
        st.scheduler.enqueue(r, pri, at_head);
        st.observe(crate::obs::ObsEvent::Preempt { tid: r });
        let rec = st.thread_mut(ThreadRef::Task(r));
        rec.marking = ExecContext::Preempted;
        rec.cpu_granted = false;
        rec.stats.preemptions += 1;
        Shared::trace_point(st, now, ThreadRef::Task(r), TraceKind::Preempt);
    }

    /// Pops the scheduler's head, marks it running, grants it the CPU
    /// and returns its resume event.
    pub(crate) fn start_next(st: &mut KernelState, now: SimTime) -> EventId {
        let next = st.scheduler.pop().expect("caller checked non-empty");
        let tcb = st.tcb_mut(next).expect("ready task exists");
        tcb.state = TaskState::Running;
        let pri = tcb.cur_pri;
        st.running = Some(next);
        st.observe(crate::obs::ObsEvent::Dispatch { tid: next, pri });
        let rec = st.thread_mut(ThreadRef::Task(next));
        rec.cpu_granted = true;
        let resume_ev = rec.resume_ev;
        st.dispatches += 1;
        Shared::trace_point(st, now, ThreadRef::Task(next), TraceKind::Dispatch);
        resume_ev
    }

    /// Recomputes idle bookkeeping after an occupancy change.
    pub(crate) fn update_idle(st: &mut KernelState, now: SimTime) {
        if !st.booted {
            return;
        }
        let busy = st.occupant().is_some();
        match (busy, st.idle_since.is_some()) {
            (true, true) => st.leave_idle(now),
            (false, false) => st.enter_idle(now),
            _ => {}
        }
    }

    /// Preemption point at the exit of a service call executed from task
    /// context: if a strictly higher-priority task is ready (and
    /// dispatching is allowed), self-preempt.
    pub(crate) fn preemption_point(&self, proc: &mut ProcCtx, tid: TaskId) {
        let who = ThreadRef::Task(tid);
        // An interrupt may have requested a freeze during our atomic
        // section; honour it first (its return will re-dispatch us).
        self.check_ctrl_and_park(proc, who);
        let next_resume = {
            let mut st = self.st.borrow_mut();
            let now = proc.now();
            if st.dispatch_masked() || !st.int_stack.is_empty() || st.running != Some(tid) {
                None
            } else {
                let my_pri = st.tcb(tid).expect("current task exists").cur_pri;
                if st.scheduler.should_preempt(my_pri) {
                    Self::demote_running(&mut st, now, true);
                    let rec = st.thread_mut(who);
                    rec.parked = true;
                    Some(Self::start_next(&mut st, now))
                } else {
                    None
                }
            }
        };
        if let Some(next_resume) = next_resume {
            self.h.notify(next_resume);
            self.park_until_granted(proc, who);
            self.check_ctrl_and_park(proc, who);
        }
    }

    // ------------------------------------------------------------------
    // Blocking and waking (SIM_Sleep / SIM_Wakeup)
    // ------------------------------------------------------------------

    /// Blocks the current task on `waitobj` with `timeout`, dispatching
    /// the next ready task, and parks until the wait completes. Returns
    /// the wait result and any delivered payload.
    ///
    /// The caller must already have enqueued the task on the object's
    /// wait queue and checked `E_CTX` conditions.
    pub(crate) fn block_current(
        &self,
        proc: &mut ProcCtx,
        tid: TaskId,
        waitobj: WaitObj,
        timeout: Timeout,
    ) -> (Result<(), ErCode>, Delivered) {
        let who = ThreadRef::Task(tid);
        let wake = {
            let mut st = self.st.borrow_mut();
            let now = proc.now();
            debug_assert_eq!(st.running, Some(tid), "only the running task can block");
            let tcb = st.tcb_mut(tid).expect("current task exists");
            tcb.state = TaskState::Wait;
            tcb.wait = Some(waitobj);
            tcb.wait_gen += 1;
            tcb.wait_result = None;
            let wait_gen = tcb.wait_gen;
            let mut deadline_tick = None;
            if let Timeout::Finite(d) = timeout {
                let deadline = st.deadline_ticks(d);
                deadline_tick = Some(deadline);
                st.push_timer(deadline, TimerAction::TaskTimeout { tid, wait_gen });
            }
            st.observe(crate::obs::ObsEvent::Block {
                tid,
                obj: waitobj,
                deadline_tick,
            });
            let rec = st.thread_mut(who);
            rec.prev_marking = ExecContext::ServiceCall;
            rec.marking = ExecContext::Sleeping;
            rec.parked = true;
            rec.cpu_granted = false;
            Shared::trace_point(&mut st, now, who, TraceKind::Sleep);
            st.running = None;
            // Delayed dispatching: if an interrupt freeze is pending
            // against us, the interrupt machinery owns the next dispatch
            // decision — we only acknowledge (notify `frozen_ev`) and
            // park. Otherwise hand the CPU to the next ready task.
            let rec = st.thread_mut(who);
            let wake = if std::mem::take(&mut rec.ctrl_pending) {
                Some(rec.frozen_ev)
            } else {
                Self::pick_and_switch(&mut st, now)
            };
            Self::update_idle(&mut st, now);
            wake
        };
        if let Some(ev) = wake {
            self.h.notify(ev);
        }
        self.park_until_granted(proc, who);
        self.check_ctrl_and_park(proc, who);
        let mut st = self.st.borrow_mut();
        let tcb = st.tcb_mut(tid).expect("current task exists");
        tcb.wait_result
            .take()
            .expect("woken task must have a wait result")
    }

    /// Completes `tid`'s wait with `result`/`delivered` and makes it
    /// ready (µ-ITRON wait-release). Fires the `Ew` transition. The
    /// caller decides when to dispatch (a preemption point from task
    /// context, delayed dispatching from handler context).
    ///
    /// If the task was WAIT-SUSPENDED it transitions to SUSPENDED and is
    /// *not* enqueued.
    pub(crate) fn make_ready(
        st: &mut KernelState,
        now: SimTime,
        tid: TaskId,
        result: Result<(), ErCode>,
        delivered: Delivered,
    ) {
        let tcb = st.tcb_mut(tid).expect("waiting task exists");
        debug_assert!(
            matches!(tcb.state, TaskState::Wait | TaskState::WaitSuspend),
            "make_ready on non-waiting task {tid}"
        );
        if let Some(obj) = tcb.wait {
            let code = crate::obs::WakeCode::of(&result);
            st.observe(crate::obs::ObsEvent::Wakeup { tid, obj, code });
        }
        let tcb = st.tcb_mut(tid).expect("waiting task exists");
        tcb.wait = None;
        tcb.wait_gen += 1; // invalidate any pending timeout
        tcb.wait_result = Some((result, delivered));
        let enqueue = match tcb.state {
            TaskState::Wait => {
                tcb.state = TaskState::Ready;
                true
            }
            _ => {
                tcb.state = TaskState::Suspend;
                false
            }
        };
        let pri = tcb.cur_pri;
        if enqueue {
            st.scheduler.enqueue(tid, pri, false);
        }
        let who = ThreadRef::Task(tid);
        st.thread_mut(who).stats.sigma.fire(TThreadEvent::Ew);
        Shared::trace_point(st, now, who, TraceKind::Wakeup);
    }
}
