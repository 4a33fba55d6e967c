//! The event core and the phase-structured scheduler loop:
//! evaluate → update → delta-notify → advance-time, exactly mirroring
//! the SystemC 2.0 simulation cycle the reproduced paper builds on.
//!
//! # Borrow discipline
//!
//! All kernel state lives in one `RefCell` ([`Kernel::st`]); the whole
//! simulation runs on one host thread, so there is nothing to lock. A
//! borrow is **never** held while a process body runs: it ends before
//! control switches into a thread process and before a method callback
//! is invoked, so process bodies are free to call any
//! [`super::SimHandle`] API. Breaking the rule panics with a
//! `BorrowMutError` at the offending call.
//!
//! # Chained dispatch
//!
//! The phase loop is one pure state-transition function, [`next_step`],
//! shared by two drivers:
//!
//! * the **kernel root context** ([`run_kernel`]) — runs method
//!   callbacks and signal updates, and returns the [`RunOutcome`];
//! * the **yielding process** ([`yield_from_process`]) — after
//!   registering its own wait it calls [`next_step`] in the same state
//!   borrow and, when the next runnable is another thread process,
//!   switches *directly* into it. In thread-to-thread steady state
//!   (exactly the paper's co-simulation shape: T-THREADs exchanging
//!   the CPU through kernel objects) the root never runs: every
//!   handoff is one context switch instead of the
//!   process→root→process pair.
//!
//! The root stays suspended while a chain runs and regains control,
//! with the gate token of [`Kernel::rt`] set, when the chain needs it:
//! a method process is due, the update phase has work, the run reached
//! an outcome, or a process panicked ([`KState::pending_panic`] ferries
//! the payload).
//!
//! # The fast-forward run budget (grant batching)
//!
//! A suspending process that can prove it is the *only* activity before
//! its own wake deadline — no runnable process, no pending delta
//! activity or updates, no live timed action at or before the deadline,
//! the deadline within the run limit — does not need the engine at all:
//! it advances simulated time itself in one state borrow
//! ([`KState::try_fast_forward`]) and keeps running. Cancelled entries
//! at the front of the timed queue (a timeout whose event fired first,
//! a re-armed or cancelled notification) are purged before the check,
//! so they do not veto the budget. Consecutive time-consume slices of
//! one thread (the RTOS layer's quantum loop) then cost one borrow each
//! instead of a round trip through the engine.

use std::panic::{self, AssertUnwindSafe};
use std::rc::Rc;

use crate::ids::{EventId, ProcId};
use crate::runtime::coro::CoroShared;
use crate::runtime::{Panic, WaitSpec};
use crate::time::SimTime;
use crate::trace::{KernelStats, Tracer};

use super::procs::{MethodCallback, ProcBody, ProcState, ProcTable};
use super::timed_queue::{TimedEntry, TimedQueue};
use super::{DeltaQueues, Kernel, RunOutcome, CURRENT_NONE};

/// What a pending notification of an event currently is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub(crate) enum Pending {
    #[default]
    None,
    Delta,
    At(SimTime),
}

/// Payload of a timed-queue entry.
#[derive(Debug, PartialEq, Eq)]
pub(crate) enum TimedAction {
    FireEvent { event: EventId, gen: u64 },
    WakeProc { proc: ProcId, gen: u64 },
}

impl TimedAction {
    /// Whether delivery acts on this entry: neither its event's nor its
    /// process's generation has moved on since it was filed.
    fn is_live(&self, events: &[EventEntry], procs: &ProcTable) -> bool {
        match *self {
            TimedAction::FireEvent { event, gen } => events[event.index()].gen == gen,
            TimedAction::WakeProc { proc, gen } => {
                let pe = procs.get(proc);
                pe.wait_gen == gen && pe.state == ProcState::Waiting
            }
        }
    }
}

#[derive(Default)]
pub(crate) struct EventEntry {
    /// Thread processes dynamically waiting on this event: `(proc, gen)`.
    pub(crate) waiters: Vec<(ProcId, u64)>,
    /// Method processes statically sensitive to this event.
    pub(crate) method_subs: Vec<ProcId>,
    pub(crate) pending: Pending,
    /// Bumped on fire/cancel/renotify; stale timed-queue entries are
    /// ignored.
    pub(crate) gen: u64,
    /// If set, the event re-notifies itself this long after each firing
    /// (periodic clock support; re-armed through the timed queue).
    pub(crate) auto_renotify: Option<SimTime>,
    pub(crate) fire_count: u64,
}

/// The whole mutable kernel state (behind [`Kernel::st`]).
pub(crate) struct KState {
    pub(crate) now: SimTime,
    /// Index of the currently executing process (`CURRENT_NONE` when
    /// the scheduler itself runs).
    pub(crate) current: u32,
    pub(crate) procs: ProcTable,
    pub(crate) events: Vec<EventEntry>,
    pub(crate) dq: DeltaQueues,
    pub(crate) timed: TimedQueue<TimedAction>,
    pub(crate) tracer: Option<Rc<dyn Tracer>>,
    pub(crate) stats: KernelStats,
    pub(crate) in_run: bool,
    pub(crate) max_deltas_per_timestep: u64,
    /// The `run_until` limit of the active run (valid while `in_run`);
    /// read by chained dispatch and the fast-forward budget check.
    pub(crate) run_limit: SimTime,
    /// Delta cycles at the current timestep (shared between the kernel
    /// loop and chained dispatch; reset on every time advance).
    pub(crate) deltas_this_step: u64,
    /// A process-body panic caught inside a coroutine, to be re-raised
    /// by the kernel root when the gate hands control back.
    pub(crate) pending_panic: Option<Panic>,
    /// Reused buffer of due timed-queue entries (advance-time phase).
    due: Vec<TimedEntry<TimedAction>>,
}

impl KState {
    pub(crate) fn new() -> Self {
        KState {
            now: SimTime::ZERO,
            current: CURRENT_NONE,
            procs: ProcTable::default(),
            events: Vec::new(),
            dq: DeltaQueues::default(),
            timed: TimedQueue::new(),
            tracer: None,
            stats: KernelStats::default(),
            in_run: false,
            max_deltas_per_timestep: 1_000_000,
            run_limit: SimTime::ZERO,
            deltas_this_step: 0,
            pending_panic: None,
            due: Vec::new(),
        }
    }

    /// Makes a waiting process runnable, recording whether its deadline
    /// ended the wait, and invalidates its other registrations.
    pub(crate) fn wake(&mut self, p: ProcId, timed_out: bool) {
        let e = self.procs.get_mut(p);
        debug_assert_eq!(e.state, ProcState::Waiting);
        e.wait_gen += 1;
        e.timed_out = timed_out;
        e.state = ProcState::Ready;
        self.dq.runnable.push_back(p);
    }

    /// Delivers one event firing: wakes dynamic waiters, queues sensitive
    /// methods, and re-arms auto-renotify clocks.
    pub(crate) fn fire_event(&mut self, id: EventId) {
        let now = self.now;
        self.stats.events_fired += 1;
        let renotify = {
            let ev = &mut self.events[id.index()];
            ev.pending = Pending::None;
            ev.gen += 1;
            ev.fire_count += 1;
            ev.auto_renotify
        };
        if let Some(period) = renotify {
            // Saturate at end-of-time: a period pushing past the `u64`
            // picosecond range must clamp, not wrap into the past.
            let at = now.saturating_add(period);
            let gen = self.events[id.index()].gen;
            self.events[id.index()].pending = Pending::At(at);
            self.timed
                .insert(at.as_ps(), TimedAction::FireEvent { event: id, gen });
        }
        // Walk the waiters by index and clear the list afterwards, so the
        // next wait reuses its capacity. Waking registers no waiter, so
        // the list cannot change under the walk.
        for i in 0..self.events[id.index()].waiters.len() {
            let (p, gen) = self.events[id.index()].waiters[i];
            let entry = self.procs.get(p);
            if entry.wait_gen == gen && entry.state == ProcState::Waiting {
                self.wake(p, false);
            }
        }
        self.events[id.index()].waiters.clear();
        // Queue statically-sensitive methods without cloning the
        // subscription list (hot path: once per clock tick).
        for i in 0..self.events[id.index()].method_subs.len() {
            let m = self.events[id.index()].method_subs[i];
            let entry = self.procs.get_mut(m);
            if entry.state == ProcState::Finished {
                continue;
            }
            if let ProcBody::Method { queued, .. } = &mut entry.body {
                if !*queued {
                    *queued = true;
                    self.dq.runnable.push_back(m);
                }
            }
        }
    }

    /// Registers the wait request of a just-suspended thread process.
    pub(crate) fn register_wait(&mut self, p: ProcId, spec: WaitSpec) {
        let now = self.now;
        let gen = {
            let e = self.procs.get_mut(p);
            e.state = ProcState::Waiting;
            e.wait_gen += 1;
            e.wait_gen
        };
        match spec {
            WaitSpec::Time(d) if d.is_zero() => self.dq.next_delta_runnable.push_back(p),
            WaitSpec::Time(d) => {
                self.timed.insert(
                    now.saturating_add(d).as_ps(),
                    TimedAction::WakeProc { proc: p, gen },
                );
            }
            WaitSpec::Event(e) => self.events[e.index()].waiters.push((p, gen)),
            WaitSpec::EventTimeout(e, d) => {
                self.events[e.index()].waiters.push((p, gen));
                self.timed.insert(
                    now.saturating_add(d).as_ps(),
                    TimedAction::WakeProc { proc: p, gen },
                );
            }
        }
    }

    // ------------------------------------------------------------------
    // Notification primitives (callers hold the state borrow).
    // ------------------------------------------------------------------

    /// Immediate notification: fires now, waking waiters into the
    /// current evaluation phase. Overrides any pending notification.
    pub(crate) fn notify_now(&mut self, e: EventId) {
        let ev = &mut self.events[e.index()];
        ev.gen += 1; // invalidate any pending timed entry
        ev.pending = Pending::None;
        self.fire_event(e);
    }

    /// Delta notification: fires in the next delta cycle. Overrides a
    /// pending timed notification; keeps an existing delta one.
    pub(crate) fn notify_delta(&mut self, e: EventId) {
        let ev = &mut self.events[e.index()];
        match ev.pending {
            Pending::Delta => {}
            _ => {
                ev.gen += 1;
                ev.pending = Pending::Delta;
                self.dq.delta_notified.push(e);
            }
        }
    }

    /// Timed notification after `delay` (`sc_event` override rule: an
    /// earlier pending notification wins; a later one is replaced).
    /// Zero delay degenerates to a delta notification.
    pub(crate) fn notify_after(&mut self, e: EventId, delay: SimTime) {
        if delay.is_zero() {
            return self.notify_delta(e);
        }
        let at = self.now.saturating_add(delay);
        let ev = &mut self.events[e.index()];
        match ev.pending {
            Pending::Delta => return,
            Pending::At(t) if t <= at => return,
            _ => {}
        }
        ev.gen += 1;
        let gen = ev.gen;
        ev.pending = Pending::At(at);
        self.timed
            .insert(at.as_ps(), TimedAction::FireEvent { event: e, gen });
    }

    /// Advances `now` to `to`, counting the advance; idempotent when
    /// `now` is already there.
    fn advance_now_to(&mut self, to: SimTime) {
        if self.now != to {
            self.now = to;
            self.stats.time_advances += 1;
        }
    }

    /// The fast-forward run budget: if the calling (running) process is
    /// provably the only activity before `now + d`, advance simulated
    /// time in place and return `true` — the process keeps control and
    /// no engine round trip happens. See the module docs. A traced run
    /// never takes it, so it is the engine-path reference the budget is
    /// tested against.
    pub(crate) fn try_fast_forward(&mut self, d: SimTime) -> bool {
        if !self.in_run || self.tracer.is_some() {
            return false;
        }
        if !self.dq.runnable.is_empty()
            || !self.dq.next_delta_runnable.is_empty()
            || !self.dq.delta_notified.is_empty()
            || !self.dq.updates.is_empty()
        {
            return false;
        }
        let deadline = self.now.saturating_add(d);
        if deadline <= self.now || deadline > self.run_limit {
            return false;
        }
        // Cancelled entries at the front would veto the budget although
        // delivery ignores them; drop them first.
        let (events, procs) = (&self.events, &self.procs);
        self.timed.pop_while(|e| !e.action.is_live(events, procs));
        // Any live timed action at or before the deadline — including
        // one scheduled for the exact same instant, whose delivery
        // order matters — forces the ordinary engine path.
        if let Some(next) = self.timed.next_at() {
            if next <= deadline.as_ps() {
                return false;
            }
        }
        self.deltas_this_step = 0;
        self.stats.fast_forwards += 1;
        self.advance_now_to(deadline);
        true
    }
}

/// What the phase loop decided must happen next.
pub(crate) enum NextStep {
    /// Hand control to this thread process.
    Thread(Rc<CoroShared>),
    /// Run this method callback, moved out of the process table until
    /// it returns (kernel root only).
    Method(ProcId, MethodCallback),
    /// The update phase has work (kernel root only).
    Updates,
    /// Chained dispatch cannot continue; the kernel root must decide.
    WakeKernel,
    /// The run is over.
    Outcome(RunOutcome),
}

/// Dispatch bookkeeping shared by the kernel root and a yielding
/// process: the `current` marker and the activation counter.
fn dispatch_bookkeeping(st: &mut KState, pid: ProcId) {
    st.current = pid.index() as u32;
    st.stats.process_runs += 1;
}

/// One turn of the phase engine: runs evaluate/update/delta-notify/
/// advance-time bookkeeping until something must execute (or the run is
/// over). Caller holds the state borrow.
///
/// With `from_process` the caller is a yielding process chaining the
/// dispatch: anything only the kernel root may do (method callbacks,
/// signal updates, returning an outcome) yields
/// [`NextStep::WakeKernel`] instead, leaving the state for the kernel
/// to re-derive — all such exits are idempotent.
pub(crate) fn next_step(st: &mut KState, from_process: bool) -> NextStep {
    loop {
        if st.deltas_this_step > st.max_deltas_per_timestep {
            return if from_process {
                NextStep::WakeKernel
            } else {
                NextStep::Outcome(RunOutcome::DeltaLimitExceeded)
            };
        }

        // ---- Evaluate phase: pop the next runnable process ------------
        while let Some(pid) = st.dq.runnable.pop_front() {
            enum Picked {
                Thread(Rc<CoroShared>),
                Method(MethodCallback),
                Defer,
                Skip,
            }
            let picked = {
                let entry = st.procs.get_mut(pid);
                match (&mut entry.body, entry.state) {
                    (_, ProcState::Finished) => Picked::Skip,
                    (ProcBody::Thread { shared }, ProcState::Ready) => {
                        entry.state = ProcState::Running;
                        Picked::Thread(Rc::clone(shared))
                    }
                    // Methods run on the kernel root only.
                    (ProcBody::Method { .. }, _) if from_process => Picked::Defer,
                    (ProcBody::Method { cb, queued }, _) => {
                        *queued = false;
                        match cb.take() {
                            Some(cb) => Picked::Method(cb),
                            None => Picked::Skip,
                        }
                    }
                    _ => Picked::Skip,
                }
            };
            match picked {
                Picked::Skip => continue,
                Picked::Defer => {
                    st.dq.runnable.push_front(pid);
                    return NextStep::WakeKernel;
                }
                Picked::Thread(shared) => {
                    dispatch_bookkeeping(st, pid);
                    return NextStep::Thread(shared);
                }
                Picked::Method(cb) => {
                    dispatch_bookkeeping(st, pid);
                    return NextStep::Method(pid, cb);
                }
            }
        }

        // ---- Update phase (callbacks run outside the borrow) ----------
        if !st.dq.updates.is_empty() {
            return if from_process {
                NextStep::WakeKernel
            } else {
                NextStep::Updates
            };
        }

        // ---- Delta-notify phase ---------------------------------------
        // Walk by index and clear the list afterwards, so the next
        // notification reuses its capacity. Firing queues no delta
        // notification, so the list cannot change under the walk.
        for i in 0..st.dq.delta_notified.len() {
            let e = st.dq.delta_notified[i];
            if st.events[e.index()].pending == Pending::Delta {
                st.fire_event(e);
            }
        }
        st.dq.delta_notified.clear();
        while let Some(p) = st.dq.next_delta_runnable.pop_front() {
            if st.procs.get(p).state == ProcState::Waiting {
                st.wake(p, false);
            }
        }
        if !st.dq.runnable.is_empty() {
            st.stats.delta_cycles += 1;
            st.deltas_this_step += 1;
            continue;
        }

        // ---- Advance-time phase ---------------------------------------
        let at = match st.timed.next_at().map(SimTime::from_ps) {
            None => {
                return if from_process {
                    NextStep::WakeKernel
                } else {
                    NextStep::Outcome(RunOutcome::Starved)
                };
            }
            Some(at) if at > st.run_limit => {
                let limit = st.run_limit;
                st.advance_now_to(limit);
                return if from_process {
                    NextStep::WakeKernel
                } else {
                    NextStep::Outcome(RunOutcome::ReachedLimit)
                };
            }
            Some(at) => at,
        };
        st.deltas_this_step = 0;
        st.advance_now_to(at);
        // Deliver every action scheduled at-or-before this timestamp
        // (in `(at, seq)` order).
        let mut due = std::mem::take(&mut st.due);
        st.timed.advance_to(at.as_ps(), &mut due);
        for entry in due.drain(..) {
            if !entry.action.is_live(&st.events, &st.procs) {
                continue;
            }
            match entry.action {
                TimedAction::FireEvent { event, .. } => st.fire_event(event),
                TimedAction::WakeProc { proc, .. } => st.wake(proc, true),
            }
        }
        st.due = due;
    }
}

/// Process-side yield: the scheduler bookkeeping for the suspending
/// process, then chained dispatch — switch straight into the next
/// runnable thread process, or signal the kernel gate.
///
/// Time-bounded waits first try the fast-forward run budget in the
/// same (single) state borrow: on success the process never suspends,
/// and its wait ends timed out.
pub(crate) fn yield_from_process(k: &Rc<Kernel>, pid: ProcId, spec: WaitSpec) {
    let next = {
        let mut st = k.st.borrow_mut();
        let served = match spec {
            // For a `wait(t, e)` the budget also proves that nothing
            // fires the event before the deadline: no runnable process
            // exists to notify it, and any pending timed/delta
            // notification fails the budget checks. A zero duration
            // (one delta) fails the deadline check.
            WaitSpec::Time(d) | WaitSpec::EventTimeout(_, d) => st.try_fast_forward(d),
            WaitSpec::Event(_) => false,
        };
        if served {
            st.procs.get_mut(pid).timed_out = true;
            return;
        }
        st.current = CURRENT_NONE;
        // Only re-register if still marked Running (the body may have
        // been torn down).
        if st.procs.get(pid).state == ProcState::Running {
            st.register_wait(pid, spec);
        }
        match next_step(&mut st, true) {
            NextStep::Thread(nshared) => Some(nshared),
            _ => None,
        }
    };
    match next {
        // Direct process-to-process handoff (possibly to ourselves, in
        // which case the switch returns at once).
        Some(nshared) => nshared.post(),
        None => k.rt.signal(),
    }
}

/// The finish bookkeeping of a process body: marks the process
/// finished in one state borrow and decides where control goes next —
/// `Some` names the next thread process to chain to, `None` means the
/// kernel root must take over (including the panic case, whose payload
/// is parked in the kernel state for the root to re-raise).
pub(crate) fn finish_step(
    k: &Rc<Kernel>,
    pid: ProcId,
    panic: Option<Panic>,
) -> Option<Rc<CoroShared>> {
    let mut st = k.st.borrow_mut();
    st.current = CURRENT_NONE;
    st.procs.get_mut(pid).finish();
    if panic.is_some() {
        st.pending_panic = panic;
        return None;
    }
    match next_step(&mut st, true) {
        NextStep::Thread(nshared) => Some(nshared),
        _ => None,
    }
}

/// The scheduler entry point (used by `Simulation::run_until`).
pub(crate) fn run_kernel(k: &Rc<Kernel>, limit: SimTime) -> RunOutcome {
    {
        let mut st = k.st.borrow_mut();
        assert!(!st.in_run, "Simulation::run_* is not reentrant");
        st.in_run = true;
        st.run_limit = limit;
        st.deltas_this_step = 0;
    }
    let outcome = run_kernel_inner(k);
    k.st.borrow_mut().in_run = false;
    match outcome {
        Ok(o) => o,
        Err(payload) => panic::resume_unwind(payload),
    }
}

fn run_kernel_inner(k: &Rc<Kernel>) -> Result<RunOutcome, Panic> {
    loop {
        let step = {
            let mut st = k.st.borrow_mut();
            if let Some(payload) = st.pending_panic.take() {
                return Err(payload);
            }
            next_step(&mut st, false)
        };
        match step {
            NextStep::Thread(shared) => {
                // `post` switches into the chain and returns when
                // control comes back here, with the gate token already
                // set; `wait` consumes it.
                shared.post();
                k.rt.wait();
            }
            NextStep::Method(pid, mut cb) => {
                // The state is NOT borrowed around the callback; the box
                // goes back into the table afterwards.
                let result = panic::catch_unwind(AssertUnwindSafe(&mut cb));
                let mut st = k.st.borrow_mut();
                st.current = CURRENT_NONE;
                let entry = st.procs.get_mut(pid);
                if let Err(payload) = result {
                    entry.finish();
                    return Err(payload);
                }
                if let ProcBody::Method { cb: slot, .. } = &mut entry.body {
                    *slot = Some(cb);
                }
            }
            NextStep::Updates => {
                let mut updates = std::mem::take(&mut k.st.borrow_mut().dq.updates);
                for u in updates.drain(..) {
                    if let Some(changed) = u.apply_update() {
                        let mut st = k.st.borrow_mut();
                        st.stats.signal_updates += 1;
                        if let Some(t) = &st.tracer {
                            let (name, value) = u.describe();
                            t.signal_changed(st.now, &name, &value);
                        }
                        // Schedule the value-changed event for the
                        // delta-notify phase (SystemC: signal updates
                        // notify the next delta).
                        st.notify_delta(changed);
                    }
                }
                // The emptied buffer goes back and keeps its capacity,
                // behind any request made while it was out.
                let mut st = k.st.borrow_mut();
                updates.append(&mut st.dq.updates);
                st.dq.updates = updates;
            }
            NextStep::WakeKernel => unreachable!("kernel-mode next_step never defers"),
            NextStep::Outcome(outcome) => return Ok(outcome),
        }
    }
}
