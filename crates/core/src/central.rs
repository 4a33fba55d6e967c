//! The central module (paper Fig. 3): three coordinator processes —
//! **Boot**, **Thread Dispatch** and **Interrupt Dispatch** — sensitive
//! to the reset, system-tick and external-interrupt signals respectively.
//!
//! * **Boot** performs the kernel startup sequence upon reset:
//!   initializes the kernel internal state and starts the initialization
//!   task, which calls the user main entry to create & start tasks,
//!   handlers, and allocate application resources.
//! * **Thread Dispatch** activates the timer handler on every system
//!   tick: it updates the system clock, checks for cyclic, alarm, and
//!   task-resuming events in the timer queue, and then dispatches —
//!   starting a new task/handler or preempting the running task if a
//!   higher-priority task is ready.
//! * **Interrupt Dispatch** identifies and responds to external
//!   interrupts by activating their dedicated interrupt service
//!   routines, with nesting by priority level and *delayed dispatching*
//!   (dispatch requests raised inside handlers take effect only when the
//!   outermost handler returns).

use std::rc::Rc;

use sysc::{EventId, ProcCtx, SpawnMode};

use crate::error::ErCode;
use crate::ids::ThreadRef;
use crate::state::{Delivered, IntRequest, KernelState, Shared, TaskBody, TimerAction};
use crate::tthread::{ExecContext, TThreadEvent};

/// Installs the central module processes into the simulation and
/// schedules the boot sequence.
pub(crate) fn install(shared: &Rc<Shared>, main: Box<TaskBody>) {
    let h = shared.h.clone();
    let tick_ev = h.create_event();
    let int_req_ev = h.create_event();
    {
        let mut st = shared.st.borrow_mut();
        st.tick_ev = Some(tick_ev);
        st.int_req_ev = Some(int_req_ev);
    }

    // Thread Dispatch: sensitive to the system tick.
    let sh = Rc::clone(shared);
    h.spawn_loop(tick_ev, move |proc| sh.on_tick(proc));

    // Interrupt Dispatch: sensitive to external interrupt requests.
    let sh = Rc::clone(shared);
    h.spawn_loop(int_req_ev, move |proc| sh.drain_interrupts(proc));

    // Boot: sensitive to reset (modeled as immediate activation at t=0).
    let sh = Rc::clone(shared);
    h.spawn_thread(SpawnMode::Immediate, move |proc| {
        sh.boot(proc, main);
    });
}

impl Shared {
    /// The kernel startup sequence (Boot module).
    fn boot(self: &Rc<Shared>, proc: &mut ProcCtx, main: Box<TaskBody>) {
        let (boot_cost, tick, init_pri, tick_ev) = {
            let st = self.st.borrow();
            (
                st.cfg.boot_cost,
                st.cfg.tick,
                st.cfg.init_task_priority,
                st.tick_ev.expect("central module installed"),
            )
        };
        if !boot_cost.is_zero() {
            proc.wait_time(boot_cost);
        }
        let tid = self
            .create_task_raw("init", init_pri, main)
            .expect("init task creation cannot fail");
        self.start_task(tid, 0, proc.now())
            .expect("init task start cannot fail");
        {
            let mut st = self.st.borrow_mut();
            st.booted = true;
        }
        // Start the real-time clock driving the kernel central module
        // (paper §5.1: default timing resolution 1 ms).
        self.h.make_periodic(tick_ev, tick, tick);
        self.dispatch_from_scheduler(proc.now());
    }

    /// One system tick (Thread Dispatch body): timer handler activation,
    /// timer-queue expiry, handler activations, then delayed dispatch.
    fn on_tick(self: &Rc<Shared>, proc: &mut ProcCtx) {
        {
            let mut st = self.st.borrow_mut();
            if !st.booted {
                return;
            }
            // If a handler frame holds the CPU, or another dispatcher is
            // mid-handshake, pend the tick; it is replayed when the
            // interrupt stack unwinds.
            if st.cpu_transfer || st.current_int_level().is_some() {
                st.tick_pending = true;
                return;
            }
            st.cpu_transfer = true;
        }
        self.freeze_occupant(proc);
        let tick_cost = {
            let mut st = self.st.borrow_mut();
            // The timer frame sits above both 8051 interrupt levels, so
            // nothing nests above it: external requests arriving during
            // the tick sequence, cyclic and alarm handlers included
            // (they run on this process, in frames of this level), stay
            // pending until the frame pops.
            st.int_stack.push((ThreadRef::Timer, u8::MAX));
            st.cpu_transfer = false;
            st.ticks += 1;
            st.systim_ms += st.cfg.tick.as_ms().max(1);
            let rec = &mut st.timer;
            rec.parked = false;
            rec.marking = ExecContext::Handler;
            rec.stats.sigma.fire(TThreadEvent::Es);
            Shared::update_idle(&mut st, proc.now());
            st.cfg.cost.timer_tick
        };
        if !tick_cost.is_zero() {
            self.sim_wait_atomic(
                proc,
                ThreadRef::Timer,
                ExecContext::Handler,
                "tick",
                tick_cost,
            );
        }
        // Round-robin style schedulers may request a time-slice
        // preemption of the running task.
        {
            let mut st = self.st.borrow_mut();
            let running = st.running;
            // Time-slice preemption respects dispatch-disable windows
            // just like every other dispatch decision. The guard comes
            // *before* `on_tick` so the scheduler never consumes (and
            // silently discards) a slice expiry inside a window — the
            // slice clock simply pauses until the window closes.
            if !st.dispatch_masked() && st.scheduler.on_tick(running) && st.running.is_some() {
                // Requeue at the *tail*: the slice is spent.
                Shared::demote_running(&mut st, proc.now(), false);
            }
        }
        // Expire timer-queue entries due at this tick, one action at a
        // time: the cyclic and alarm handlers run below, between two
        // actions, and may arm new ones.
        loop {
            let action = self.st.borrow_mut().pop_due_timer();
            let Some(action) = action else { break };
            match action {
                TimerAction::TaskTimeout { tid, wait_gen } => {
                    let mut st = self.st.borrow_mut();
                    let valid = st
                        .tcb(tid)
                        .map(|t| {
                            t.wait_gen == wait_gen
                                && matches!(
                                    t.state,
                                    crate::state::TaskState::Wait
                                        | crate::state::TaskState::WaitSuspend
                                )
                        })
                        .unwrap_or(false);
                    if valid {
                        let tick = st.ticks;
                        let now = proc.now();
                        st.observe(crate::obs::ObsEvent::TimerFire { tid, tick });
                        let detached = crate::kernel::detach_waiter(&mut st, tid);
                        Shared::make_ready(&mut st, now, tid, Err(ErCode::Tmout), Delivered::None);
                        // The timed-out waiter may have been holding
                        // back now-satisfiable waiters behind it.
                        if let Some(obj) = detached {
                            crate::kernel::reserve_after_detach(&mut st, obj, now);
                        }
                    }
                }
                TimerAction::CyclicFire { id, gen } => {
                    crate::kernel::time::fire_cyclic(self, proc, id, gen);
                }
                TimerAction::AlarmFire { id, gen } => {
                    crate::kernel::time::fire_alarm(self, proc, id, gen);
                }
            }
        }
        // Pop the timer frame and perform the delayed dispatch.
        {
            let mut st = self.st.borrow_mut();
            let top = st.int_stack.pop();
            debug_assert_eq!(top, Some((ThreadRef::Timer, u8::MAX)));
            let rec = &mut st.timer;
            rec.marking = ExecContext::Dormant;
            rec.parked = true;
            rec.stats.cycles += 1;
        }
        self.after_frame_pop(proc);
    }

    /// Interrupt Dispatch body: deliver every deliverable pending
    /// request (new requests arriving while we work are caught by the
    /// loop in `install`).
    fn drain_interrupts(self: &Rc<Shared>, proc: &mut ProcCtx) {
        loop {
            let req = {
                let mut st = self.st.borrow_mut();
                if st.cpu_transfer {
                    // Another dispatcher is mid-handshake; the stack
                    // unwind will replay pending requests.
                    None
                } else {
                    Self::next_deliverable(&mut st)
                }
            };
            let Some(req) = req else { return };
            // Take the CPU.
            {
                let mut st = self.st.borrow_mut();
                st.cpu_transfer = true;
            }
            self.freeze_occupant(proc);
            let activate = {
                let mut st = self.st.borrow_mut();
                st.cpu_transfer = false;
                Self::mount_isr_frame(&mut st, req, proc.now())
            };
            self.h.notify(activate);
        }
    }

    /// Picks the first pending interrupt that may be delivered now:
    /// the CPU must be unlocked, the kernel booted, the line's ISR
    /// defined and not on the SIM_Stack already, and the request's
    /// level strictly above the current interrupt level (8051 two-level
    /// nesting rule; anything is deliverable when no handler is active).
    /// A request for a line whose ISR is mid-body (running or frozen)
    /// waits for that activation's own return, which chains it.
    pub(crate) fn next_deliverable(st: &mut KernelState) -> Option<IntRequest> {
        if !st.booted || st.cpu_locked {
            return None;
        }
        let current = st.current_int_level();
        let pos = st.pending_ints.iter().position(|req| {
            let who = ThreadRef::Isr(req.intno);
            st.isrs.contains_key(&req.intno)
                && current.is_none_or(|l| req.level > l)
                && !st.int_stack.iter().any(|&(frame, _)| frame == who)
        })?;
        st.pending_ints.remove(pos)
    }

    /// Pushes the frame of a defined ISR and returns its activation
    /// event (the ISR's `resume_ev`, where its activation loop parks).
    pub(crate) fn mount_isr_frame(
        st: &mut KernelState,
        req: IntRequest,
        now: sysc::SimTime,
    ) -> EventId {
        let who = ThreadRef::Isr(req.intno);
        st.int_stack.push((who, req.level));
        let rec = st.thread_mut(who);
        rec.parked = false;
        rec.marking = ExecContext::Handler;
        rec.stats.sigma.fire(TThreadEvent::Es);
        let activation = rec.resume_ev;
        Shared::update_idle(st, now);
        activation
    }

    /// Common continuation after any interrupt-stack frame is popped:
    /// chain into the next pending interrupt, resume the interrupted
    /// frame below, replay a pended tick, or perform the delayed
    /// dispatch.
    pub(crate) fn after_frame_pop(self: &Rc<Shared>, proc: &mut ProcCtx) {
        let now = proc.now();
        enum Next {
            Activate(EventId),
            ResumeLower(EventId),
            ReplayTick(EventId),
            Dispatch,
        }
        let next = {
            let mut st = self.st.borrow_mut();
            if let Some(req) = Self::next_deliverable(&mut st) {
                // Everything below is parked; mount without a handshake.
                Next::Activate(Self::mount_isr_frame(&mut st, req, now))
            } else if let Some(&(lower, _)) = st.int_stack.last() {
                let rec = st.thread_mut(lower);
                rec.cpu_granted = true;
                Next::ResumeLower(rec.resume_ev)
            } else if st.tick_pending {
                st.tick_pending = false;
                Next::ReplayTick(st.tick_ev.expect("central installed"))
            } else {
                Next::Dispatch
            }
        };
        match next {
            Next::Activate(ev) | Next::ResumeLower(ev) | Next::ReplayTick(ev) => {
                self.h.notify(ev);
            }
            Next::Dispatch => self.dispatch_from_scheduler(now),
        }
    }
}
