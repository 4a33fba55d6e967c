//! [`SimHandle`] — the cloneable notification/creation handle.

use std::panic;
use std::rc::Rc;

use crate::ids::{EventId, ProcId};
use crate::runtime::coro::{CoroShared, Terminal};
use crate::runtime::{panic_of, WaitSpec};
use crate::signal::UpdateTarget;
use crate::time::SimTime;
use crate::trace::KernelStats;

use super::procs::{MethodCallback, ProcBody, ProcEntry, ProcState};
use super::sched::{EventEntry, Pending};
use super::{Kernel, ProcCtx, SpawnMode};

/// Cloneable handle to a simulation: event/process creation and
/// notification. Usable from the embedding code and from inside process
/// bodies, on the simulation's own thread: like [`crate::Simulation`],
/// a handle is not `Send`.
///
/// ```compile_fail
/// fn assert_send<T: Send>() {}
/// assert_send::<sysc::SimHandle>();
/// ```
#[derive(Clone)]
pub struct SimHandle {
    pub(crate) k: Rc<Kernel>,
}

impl std::fmt::Debug for SimHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SimHandle").finish_non_exhaustive()
    }
}

impl SimHandle {
    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.k.st.borrow().now
    }

    /// Kernel activity counters.
    pub fn stats(&self) -> KernelStats {
        self.k.st.borrow().stats
    }

    /// Creates an event.
    pub fn create_event(&self) -> EventId {
        let mut st = self.k.st.borrow_mut();
        let id = EventId(st.events.len() as u32);
        st.events.push(EventEntry::default());
        id
    }

    /// Immediate notification: fires now, waking waiters into the current
    /// evaluation phase. Overrides (cancels) any pending notification.
    pub fn notify(&self, e: EventId) {
        self.k.st.borrow_mut().notify_now(e);
    }

    /// Delta notification: fires in the next delta cycle. Overrides a
    /// pending timed notification; keeps an existing delta notification.
    pub fn notify_delta(&self, e: EventId) {
        self.k.st.borrow_mut().notify_delta(e);
    }

    /// Timed notification after `delay`. Follows the `sc_event` override
    /// rule: an earlier pending notification wins; a later one is
    /// replaced. A zero delay degenerates to a delta notification.
    pub fn notify_after(&self, e: EventId, delay: SimTime) {
        self.k.st.borrow_mut().notify_after(e, delay);
    }

    /// Cancels any pending (delta or timed) notification.
    pub fn cancel(&self, e: EventId) {
        let mut st = self.k.st.borrow_mut();
        let ev = &mut st.events[e.index()];
        ev.gen += 1;
        ev.pending = Pending::None;
    }

    /// Turns the event into a periodic clock: after each firing it
    /// re-notifies itself `period` later. The first firing is scheduled
    /// `first_after` from now. Each firing re-arms the event with one
    /// timed-queue insert.
    pub fn make_periodic(&self, e: EventId, period: SimTime, first_after: SimTime) {
        assert!(!period.is_zero(), "periodic event needs a non-zero period");
        let mut st = self.k.st.borrow_mut();
        st.events[e.index()].auto_renotify = Some(period);
        st.notify_after(e, first_after);
    }

    /// Stops the periodic re-notification of an event (the currently
    /// pending firing, if any, still happens unless cancelled).
    pub fn stop_periodic(&self, e: EventId) {
        self.k.st.borrow_mut().events[e.index()].auto_renotify = None;
    }

    /// Number of times the event has fired.
    pub fn event_fire_count(&self, e: EventId) -> u64 {
        self.k.st.borrow().events[e.index()].fire_count
    }

    /// Whether the process has finished (returned or been killed).
    pub fn is_finished(&self, p: ProcId) -> bool {
        self.k.st.borrow().procs.get(p).state == ProcState::Finished
    }

    /// Spawns a thread process. The body runs as a stackful coroutine
    /// on a heap stack leased from the global pool ([`crate::runtime`])
    /// and may suspend anywhere via [`ProcCtx`]. The stack is recycled
    /// when the body finishes, so campaigns of many short simulations
    /// stop paying a stack allocation per process.
    pub fn spawn_thread<F>(&self, mode: SpawnMode, body: F) -> ProcId
    where
        F: FnOnce(&mut ProcCtx) + 'static,
    {
        let shared = CoroShared::new(Rc::clone(&self.k.rt));
        let entry = ProcEntry::new(ProcBody::Thread {
            shared: Rc::clone(&shared),
        });
        let id = self.k.st.borrow_mut().procs.push(entry);
        launch(&shared, self.clone(), id, body);
        let mut st = self.k.st.borrow_mut();
        match mode {
            SpawnMode::Immediate => st.dq.runnable.push_back(id),
            SpawnMode::WaitEvent(e) => {
                let gen = {
                    let pe = st.procs.get_mut(id);
                    pe.state = ProcState::Waiting;
                    pe.wait_gen += 1;
                    pe.wait_gen
                };
                st.events[e.index()].waiters.push((id, gen));
            }
        }
        id
    }

    /// Spawns an activation loop: a thread process that parks on
    /// `activation`, runs `body` once per firing, and parks again — the
    /// shape of every SystemC process sensitive to one event.
    ///
    /// A kill or teardown that finds the loop parked on `activation`
    /// ends it by return, with no unwind: nothing of `body` is live
    /// there. One that arrives while `body` runs (inside one of its own
    /// waits) unwinds it like any thread process, running `Drop` impls
    /// on the way out.
    pub fn spawn_loop<F>(&self, activation: EventId, mut body: F) -> ProcId
    where
        F: FnMut(&mut ProcCtx) + 'static,
    {
        self.spawn_thread(SpawnMode::WaitEvent(activation), move |ctx| loop {
            body(ctx);
            if !ctx.wait(WaitSpec::Event(activation)) {
                return;
            }
        })
    }

    /// Spawns a method process statically sensitive to `sensitivity`:
    /// the callback runs once per delta cycle in which any of the
    /// events fired. It runs on the kernel thread (no stack switch) and
    /// must not block; a callback that needs the simulation captures a
    /// [`SimHandle`].
    pub fn spawn_method<F>(&self, sensitivity: &[EventId], callback: F) -> ProcId
    where
        F: FnMut() + 'static,
    {
        let mut st = self.k.st.borrow_mut();
        let id = st.procs.push(ProcEntry::new(ProcBody::Method {
            cb: Some(Box::new(callback)),
            queued: false,
        }));
        for e in sensitivity {
            st.events[e.index()].method_subs.push(id);
        }
        id
    }

    /// Terminates another process: its stack unwinds (running `Drop`
    /// impls) and it never runs again. An activation loop parked on its
    /// activation returns instead ([`SimHandle::spawn_loop`]). Method
    /// processes are simply descheduled (their callback is dropped).
    ///
    /// # Panics
    ///
    /// Panics if `p` is the currently running process — a process exits
    /// itself with [`ProcCtx::exit`] instead.
    pub fn kill(&self, p: ProcId) {
        enum Victim {
            Thread(Rc<CoroShared>),
            Method(Option<MethodCallback>),
        }
        let victim = {
            let mut st = self.k.st.borrow_mut();
            assert!(
                st.current != p.index() as u32,
                "a process cannot kill itself; use ProcCtx::exit"
            );
            if st.procs.get(p).state == ProcState::Finished {
                return;
            }
            let entry = st.procs.get_mut(p);
            entry.finish();
            match &mut entry.body {
                ProcBody::Thread { shared } => Victim::Thread(Rc::clone(shared)),
                ProcBody::Method { cb, .. } => Victim::Method(cb.take()),
            }
        };
        match victim {
            Victim::Thread(s) => {
                // Return or cooperative unwind; a panic from a
                // misbehaving Drop comes back, and we surface it.
                if let Some(payload) = s.terminate() {
                    panic::resume_unwind(payload)
                }
            }
            // Dropped outside the state borrow: the `Drop` of a captured
            // value may use the simulation.
            Victim::Method(cb) => drop(cb),
        }
    }

    /// Queues an update target for the next update phase (signal
    /// infrastructure; see [`crate::Signal`]).
    pub(crate) fn request_update(&self, target: Rc<dyn UpdateTarget>) {
        self.k.st.borrow_mut().dq.updates.push(target);
    }
}

/// Parks a spawned process body in its coroutine until first dispatch.
///
/// The wrapper's lifetime: first dispatch → body under `catch_unwind`
/// → finish path (back through the terminate handshake when a
/// kill/teardown is waiting, chained finish bookkeeping otherwise). It
/// **returns** the final transfer as a [`Terminal`] instead of
/// performing it, so the last context switch executes after the wrapper
/// frame — and every `Rc` it held — is gone (see
/// [`crate::runtime::coro`] on leak-free teardown).
fn launch<F>(shared: &Rc<CoroShared>, handle: SimHandle, id: ProcId, body: F)
where
    F: FnOnce(&mut ProcCtx) + 'static,
{
    let shared2 = Rc::clone(shared);
    shared.set_entry(Box::new(move || -> Terminal {
        // A terminate before first dispatch drops this job unrun
        // (`CoroShared::terminate`), so the body always starts.
        let k = Rc::clone(&handle.k);
        let mut ctx = ProcCtx {
            handle,
            shared: Rc::clone(&shared2),
            id,
        };
        let result = panic::catch_unwind(panic::AssertUnwindSafe(|| body(&mut ctx)));
        drop(ctx);
        let panic = panic_of(result);
        if shared2.is_terminating() {
            // kill()/teardown regain control through the link.
            Terminal::Link(panic)
        } else {
            match super::sched::finish_step(&k, id, panic) {
                Some(next) => Terminal::Post(next),
                None => Terminal::Gate,
            }
        }
    }));
}
