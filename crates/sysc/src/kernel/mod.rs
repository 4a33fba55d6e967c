//! The discrete-event kernel, split by phase responsibility:
//!
//! * [`sched`] — the event core and the evaluate → update →
//!   delta-notify → advance-time scheduler loop;
//! * [`timed_queue`] — the `(at, seq)`-ordered heap holding timed and
//!   periodic notifications and process timeouts;
//! * [`delta`] — the per-delta queues (runnable, yields, delta
//!   notifications, signal updates);
//! * [`procs`] — the process table (thread and method processes).
//!
//! This module keeps the public surface: [`Simulation`], [`SimHandle`]
//! and [`ProcCtx`].
//!
//! # Ending a thread process
//!
//! A kill ([`SimHandle::kill`]) or teardown (dropping the
//! [`Simulation`]) marks the process terminating and switches into it,
//! so its pending wait returns and sees the mark. An activation loop
//! ([`SimHandle::spawn_loop`]) parked on its activation holds nothing
//! of its body, so it ends by return. Every other wait unwinds the
//! body, so that the `Drop` of whatever it owns across the wait runs: a
//! body may keep an owned value alive across a wait, and only an unwind
//! reaches it. A return is much the cheaper of the two (DESIGN.md,
//! "Ending processes").

mod delta;
mod handle;
mod procs;
mod sched;
pub(crate) mod timed_queue;

use std::cell::RefCell;
use std::rc::Rc;

use crate::ids::{EventId, ProcId};
use crate::runtime::coro::{CoroRt, CoroShared};
use crate::runtime::{raise_terminate, WaitSpec};
use crate::time::SimTime;
use crate::trace::{KernelStats, Tracer};

pub(crate) use delta::DeltaQueues;
pub use handle::SimHandle;
use procs::{ProcBody, ProcState};
use sched::KState;

/// Sentinel for "no process currently executing".
pub(crate) const CURRENT_NONE: u32 = u32::MAX;

/// Why a call to [`Simulation::run_until`] returned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunOutcome {
    /// No future activity exists: every process is waiting with nothing
    /// pending (event starvation), or all processes finished.
    Starved,
    /// The requested time limit was reached; activity remains pending.
    ReachedLimit,
    /// The per-timestep delta-cycle limit was exceeded (a combinational
    /// loop or a zero-delay oscillation).
    DeltaLimitExceeded,
}

/// Outcome of a `wait_event_timeout`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WaitOutcome {
    /// The event fired before the timeout.
    Fired,
    /// The timeout elapsed first.
    TimedOut,
}

/// How a newly spawned thread process starts.
#[derive(Debug, Clone, Copy)]
pub enum SpawnMode {
    /// Runnable immediately (current/initial evaluation phase).
    Immediate,
    /// Parked until the given event fires for the first time.
    WaitEvent(EventId),
}

pub(crate) struct Kernel {
    /// All mutable kernel state. Borrowed briefly, never across a
    /// context switch or a process/method body (see the `sched` docs).
    pub(crate) st: RefCell<KState>,
    /// The coroutine runtime: the root context, which holds the
    /// kernel's chained-dispatch gate (see [`crate::runtime`]).
    pub(crate) rt: Rc<CoroRt>,
}

impl Kernel {
    fn new() -> Self {
        Kernel {
            st: RefCell::new(KState::new()),
            rt: CoroRt::new(),
        }
    }
}

/// The simulation owner: spawns processes, runs the scheduler, and tears
/// everything down on drop.
///
/// A simulation and its [`SimHandle`]s live on the thread that built
/// them: the kernel state is single-threaded (`Rc`/`RefCell`), so
/// neither type is `Send`. Parallel campaigns move the *inputs* of a
/// run to a worker and build the simulation there.
///
/// ```compile_fail
/// fn assert_send<T: Send>() {}
/// assert_send::<sysc::Simulation>();
/// ```
///
/// # Examples
///
/// ```
/// use sysc::{Simulation, SimTime};
///
/// let mut sim = Simulation::new();
/// let h = sim.handle();
/// let done = h.create_event();
/// h.spawn_thread(sysc::SpawnMode::Immediate, move |ctx| {
///     ctx.wait_time(SimTime::from_us(5));
///     ctx.handle().notify(done);
/// });
/// let outcome = sim.run_until(SimTime::from_ms(1));
/// assert_eq!(outcome, sysc::RunOutcome::Starved);
/// assert_eq!(sim.handle().event_fire_count(done), 1);
/// ```
pub struct Simulation {
    k: Rc<Kernel>,
}

impl std::fmt::Debug for Simulation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Simulation")
            .field("now", &self.now())
            .finish()
    }
}

impl Default for Simulation {
    fn default() -> Self {
        Self::new()
    }
}

impl Simulation {
    /// Creates an empty simulation at time zero. Its thread processes
    /// run as stackful coroutines on the thread that drives it.
    pub fn new() -> Self {
        Simulation {
            k: Rc::new(Kernel::new()),
        }
    }

    /// A cloneable handle for creating events/processes and notifying.
    pub fn handle(&self) -> SimHandle {
        SimHandle {
            k: Rc::clone(&self.k),
        }
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.k.st.borrow().now
    }

    /// Kernel activity counters.
    pub fn stats(&self) -> KernelStats {
        self.k.st.borrow().stats
    }

    /// Attaches a tracer (replacing any previous one). From then on
    /// every wait is served through the engine (see [`Tracer`]).
    pub fn set_tracer(&self, tracer: Rc<dyn Tracer>) {
        self.k.st.borrow_mut().tracer = Some(tracer);
    }

    /// Sets the delta-cycle limit per timestep (oscillation guard).
    pub fn set_max_deltas_per_timestep(&self, limit: u64) {
        self.k.st.borrow_mut().max_deltas_per_timestep = limit;
    }

    /// Runs until simulated time reaches `limit` (inclusive of activity
    /// scheduled exactly at `limit`) or no activity remains.
    ///
    /// On [`RunOutcome::ReachedLimit`] the simulation time is left at
    /// `limit` and the remaining activity stays pending, so `run_until`
    /// may be called again with a later limit (step mode).
    ///
    /// # Panics
    ///
    /// Re-raises any panic that occurred inside a process body.
    pub fn run_until(&mut self, limit: SimTime) -> RunOutcome {
        sched::run_kernel(&self.k, limit)
    }

    /// Runs for `d` more simulated time (see [`Simulation::run_until`]).
    pub fn run_for(&mut self, d: SimTime) -> RunOutcome {
        let limit = self.now().saturating_add(d);
        self.run_until(limit)
    }

    /// Runs until event starvation (or the delta guard trips).
    pub fn run_to_completion(&mut self) -> RunOutcome {
        self.run_until(SimTime::MAX)
    }
}

impl Drop for Simulation {
    fn drop(&mut self) {
        // Terminate every live thread process. The terminate handshake
        // is synchronous (it returns only after the body has returned
        // or unwound, see the module docs), and the stacks
        // return to the stack pool on their own — there is nothing to
        // join. Method callbacks come out of the table too: one that
        // holds a `SimHandle` (directly or through a device model)
        // would otherwise keep this kernel alive forever.
        let mut shareds = Vec::new();
        let mut callbacks = Vec::new();
        {
            let mut st = self.k.st.borrow_mut();
            for p in st.procs.iter_mut() {
                match &mut p.body {
                    ProcBody::Thread { shared } => {
                        if p.state != ProcState::Finished {
                            p.state = ProcState::Finished;
                            shareds.push(Rc::clone(shared));
                        }
                    }
                    ProcBody::Method { cb, .. } => callbacks.extend(cb.take()),
                }
            }
        }
        for s in shareds {
            // A panic comes back if a Drop impl inside the process
            // misbehaved; we are tearing down and must not panic here.
            let _ = s.terminate();
        }
        // Dropped outside the state borrow, like a killed method's: the
        // `Drop` of a captured value may use the simulation.
        drop(callbacks);
    }
}

/// Per-process context passed to thread-process bodies; provides the wait
/// primitives (the only way a process may consume simulated time).
pub struct ProcCtx {
    handle: SimHandle,
    shared: Rc<CoroShared>,
    id: ProcId,
}

impl std::fmt::Debug for ProcCtx {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ProcCtx")
            .field("id", &self.id)
            .finish_non_exhaustive()
    }
}

impl ProcCtx {
    /// This process's id.
    pub fn id(&self) -> ProcId {
        self.id
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.handle.now()
    }

    /// The simulation handle (notify, spawn, ...).
    pub fn handle(&self) -> &SimHandle {
        &self.handle
    }

    /// Waits for `spec`; `false` means a kill or teardown ended the
    /// wait.
    fn wait(&mut self, spec: WaitSpec) -> bool {
        // Register the wait and chain-dispatch the next runnable under
        // one kernel-state borrow — or get the wait served in place from
        // the fast-forward run budget. Control comes back here when
        // this process is next dispatched, or when a terminate
        // handshake switches in.
        sched::yield_from_process(&self.handle.k, self.id, spec);
        !self.shared.is_terminating()
    }

    /// Waits for `spec`, unwinding the body if a kill or teardown ends
    /// the wait.
    fn suspend(&mut self, spec: WaitSpec) {
        if !self.wait(spec) {
            raise_terminate()
        }
    }

    /// Suspends for a duration of simulated time. A zero duration waits
    /// one delta cycle (SystemC `wait(SC_ZERO_TIME)`).
    ///
    /// When this process is the only activity before `now + d` (no
    /// runnable process, no pending delta work, no timed action at or
    /// before the deadline), the wait is served from the fast-forward
    /// run budget: simulated time advances in place, with no engine
    /// round trip (see the `crate::kernel` scheduler docs).
    pub fn wait_time(&mut self, d: SimTime) {
        self.suspend(WaitSpec::Time(d));
    }

    /// Suspends until `e` fires.
    pub fn wait_event(&mut self, e: EventId) {
        self.suspend(WaitSpec::Event(e));
    }

    /// Suspends until `e` fires or `timeout` elapses.
    ///
    /// Like [`ProcCtx::wait_time`], a wait that provably cannot be
    /// interrupted before its deadline — nothing runnable, and `e`
    /// cannot fire without some other activity running first — is
    /// served from the fast-forward run budget without suspending.
    pub fn wait_event_timeout(&mut self, e: EventId, timeout: SimTime) -> WaitOutcome {
        self.suspend(WaitSpec::EventTimeout(e, timeout));
        if self.handle.k.st.borrow().procs.get(self.id).timed_out {
            WaitOutcome::TimedOut
        } else {
            WaitOutcome::Fired
        }
    }

    /// Ends this process immediately, unwinding its stack (running
    /// `Drop` impls on the way out).
    pub fn exit(&mut self) -> ! {
        raise_terminate()
    }
}
