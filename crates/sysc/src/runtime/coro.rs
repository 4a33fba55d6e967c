//! The stackful-coroutine process runtime.
//!
//! One [`CoroRt`] per simulation holds the *root context* (the code
//! driving `run_until`, or performing a terminate handshake) and tracks
//! which context currently executes. Each thread process owns a
//! [`CoroShared`]: a leased heap stack plus the saved stack pointer of
//! its suspended context, its `terminating` flag, and the slot that
//! carries a panic back from a terminate handshake (see the [`super`]
//! docs). Both are `Rc`-shared and never leave the simulation's thread;
//! every slot is only touched by the context that currently has
//! control.
//!
//! # Leak-free teardown
//!
//! A terminate handshake ([`CoroShared::terminate`]) ends a suspended
//! process through its pending wait, which sees the `terminating` flag:
//! an activation loop parked on its activation returns from its body,
//! any other wait unwinds it (see the `crate::kernel` docs). Both
//! finish through the same wrapper and the same [`Terminal::Link`]
//! transfer below.
//!
//! A finished coroutine can never unwind its own final frames (control
//! leaves them forever), so nothing owning heap memory may be live
//! across the last switch. The wrapper job therefore *returns* its
//! [`Terminal`] action instead of performing it: by the time
//! [`coro_entry`] applies the terminal transfer, the job frame — and
//! every `Rc` the process ever held — has been popped. The terminal
//! transfer itself only moves values into slots owned by others and
//! drops its own `Rc` before switching.
//!
//! Stack recycling: a context cannot free the stack it is executing
//! on, so a dying coroutine deposits its stack into the runtime's
//! *graveyard* slot just before the final switch. The next context to
//! (re)gain control — any [`CoroRt::transfer`] return, or a fresh
//! [`coro_entry`] — reaps it back to the global pool. At most one death
//! can be outstanding, because control passes synchronously from the
//! dying context to a live one, which reaps before anything else can
//! die.

use std::cell::{Cell, UnsafeCell};
use std::ptr;
use std::rc::Rc;

use super::{ctx, Panic};

/// A boxed coroutine job: the whole lifetime of one process body,
/// ending with the terminal transfer it wants performed.
pub(crate) type CoroJob = Box<dyn FnOnce() -> Terminal>;

/// What a finished coroutine does with control, applied by
/// [`coro_entry`] *after* the job frame (and all its owned state) is
/// gone.
pub(crate) enum Terminal {
    /// Chained dispatch: hand control to this process (normal finish
    /// with a runnable successor).
    Post(Rc<CoroShared>),
    /// Hand control to the kernel's root context (normal finish, no
    /// successor the chain may run — or a pending panic to re-raise).
    Gate,
    /// Terminate handshake: return to the terminator, with the panic
    /// (if any) it must re-raise.
    Link(Option<Panic>),
}

thread_local! {
    /// Hands the `CoroShared` pointer to [`coro_entry`] across the
    /// first switch into a fresh stack (the switch itself carries no
    /// arguments). Set immediately before that switch; consumed as the
    /// very first action on the new stack — single-threaded, so no
    /// other transfer can intervene.
    static STARTING: Cell<*const CoroShared> = const { Cell::new(ptr::null()) };
}

/// Per-simulation coroutine-runtime state: the root context's save slot
/// and the "who executes now" tracker.
pub(crate) struct CoroRt {
    /// Save slot of the root context (the kernel driver).
    root_slot: UnsafeCell<*mut u8>,
    /// Save slot of the context currently executing. Every transfer
    /// retargets this *before* switching, so a context that regains
    /// control finds itself named here.
    current: Cell<*mut *mut u8>,
    /// The evaluate-phase gate token: set by the switch that hands
    /// control to the root, consumed by the kernel loop's `wait`. A
    /// root that regains control without it is a protocol bug.
    token: Cell<bool>,
    /// Stack of the most recently finished coroutine, deposited by its
    /// final switch and reaped by the next context to gain control.
    graveyard: UnsafeCell<Option<ctx::CoroStack>>,
}

impl CoroRt {
    pub(crate) fn new() -> Rc<CoroRt> {
        let rt = Rc::new(CoroRt {
            root_slot: UnsafeCell::new(ptr::null_mut()),
            current: Cell::new(ptr::null_mut()),
            token: Cell::new(false),
            graveyard: UnsafeCell::new(None),
        });
        // The root executes first; its slot address is stable inside
        // the Rc allocation.
        rt.current.set(rt.root_slot.get());
        rt
    }

    /// Switches from the current context to `target`, saving the
    /// current one into whatever slot [`CoroRt::current`] names.
    /// Returns when some later transfer switches back.
    fn transfer(&self, target: *mut *mut u8) {
        let save = self.current.replace(target);
        // SAFETY: `save` and `target` are live slots (CoroRt/CoroShared
        // allocations pinned by the simulation); `target` holds a stack
        // pointer forged by `init_stack` or saved by a previous switch,
        // and its context is suspended (single-context discipline).
        unsafe { ctx::rtk_sysc_ctx_switch(save, target) };
        // Control is back: if a coroutine died while we were suspended,
        // its stack waits in the graveyard.
        self.reap();
    }

    /// Returns the most recently finished coroutine's stack (if any) to
    /// the pool. Called wherever a context (re)gains control; the dead
    /// stack is never the one currently executing.
    fn reap(&self) {
        // SAFETY: we hold control; the deposit happened strictly before
        // the switch that gave us control.
        if let Some(stack) = unsafe { (*self.graveyard.get()).take() } {
            ctx::give_back(stack);
        }
    }

    /// Process side: hands control to the kernel's root context with
    /// the gate token set. Returns when this process is next
    /// dispatched.
    pub(crate) fn signal(&self) {
        debug_assert!(!self.token.get(), "gate signalled twice without a wait");
        self.token.set(true);
        self.transfer(self.root_slot.get());
    }

    /// Kernel side: consumes the token set by the switch that brought
    /// control back to the root.
    pub(crate) fn wait(&self) {
        assert!(
            self.token.replace(false),
            "kernel regained control without a gate token"
        );
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CoroState {
    /// Spawned; no stack leased yet (the entry job sits in `entry`).
    NotStarted,
    /// Stack leased, context live (running or suspended).
    Started,
    /// Control has permanently left the coroutine.
    Finished,
}

/// One process's coroutine context plus its terminate-handshake state.
pub(crate) struct CoroShared {
    rt: Rc<CoroRt>,
    /// Saved stack pointer while this context is suspended.
    slot: UnsafeCell<*mut u8>,
    /// The panic a terminated body left, handed to the terminator.
    panic: UnsafeCell<Option<Panic>>,
    /// The terminator's save slot during a terminate handshake; the
    /// victim's final switch targets it.
    link: Cell<*mut *mut u8>,
    /// Set by [`CoroShared::terminate`]: the wait the victim resumes
    /// in ends the body instead of returning to it.
    terminating: Cell<bool>,
    state: Cell<CoroState>,
    /// The wrapper job, parked here until first activation. Holds an
    /// `Rc` back to this `CoroShared` (for the `ProcCtx`); the cycle
    /// breaks when the job is taken at start — or dropped by the
    /// never-started terminate short-circuit.
    entry: UnsafeCell<Option<CoroJob>>,
    stack: UnsafeCell<Option<ctx::CoroStack>>,
}

impl CoroShared {
    pub(crate) fn new(rt: Rc<CoroRt>) -> Rc<CoroShared> {
        Rc::new(CoroShared {
            rt,
            slot: UnsafeCell::new(ptr::null_mut()),
            panic: UnsafeCell::new(None),
            link: Cell::new(ptr::null_mut()),
            terminating: Cell::new(false),
            state: Cell::new(CoroState::NotStarted),
            entry: UnsafeCell::new(None),
            stack: UnsafeCell::new(None),
        })
    }

    /// Parks the wrapper job until first activation.
    pub(crate) fn set_entry(&self, job: CoroJob) {
        // SAFETY: called once at spawn, before any transfer can reach
        // this context.
        let slot = unsafe { &mut *self.entry.get() };
        debug_assert!(slot.is_none(), "coroutine entry set twice");
        *slot = Some(job);
    }

    /// Leases a stack and forges the bootstrap frame; first switch-in
    /// lands in [`coro_entry`].
    fn start(&self) {
        let stack = ctx::lease();
        let sp = ctx::init_stack(&stack, coro_entry);
        // SAFETY: we hold control and the context is not yet live.
        unsafe {
            *self.slot.get() = sp;
            *self.stack.get() = Some(stack);
        }
        self.state.set(CoroState::Started);
        STARTING.with(|s| s.set(self as *const CoroShared));
    }

    /// Hands control to this process (dispatch): switches into the
    /// coroutine and returns when control next comes back to the
    /// calling context (which may be immediately, for a self-post).
    pub(crate) fn post(&self) {
        if self.state.get() == CoroState::NotStarted {
            self.start();
        }
        debug_assert_eq!(
            self.state.get(),
            CoroState::Started,
            "post to a finished coroutine"
        );
        self.rt.transfer(self.slot.get());
    }

    /// The synchronous terminate handshake (kill / teardown): switches
    /// into the victim so it returns or unwinds, and returns the panic
    /// its body (or a `Drop` on the way out) raised, if any. The
    /// victim's stack is recycled here — control has provably left it.
    pub(crate) fn terminate(&self) -> Option<Panic> {
        self.terminating.set(true);
        match self.state.get() {
            // Never started: drop the parked job (running it would only
            // unwind immediately) — no stack was ever leased.
            CoroState::NotStarted => {
                // SAFETY: we hold control; no context exists to race.
                unsafe { (*self.entry.get()).take() };
                self.state.set(CoroState::Finished);
                None
            }
            CoroState::Finished => None,
            CoroState::Started => {
                // The victim's final switch must come back to *us*.
                self.link.set(self.rt.current.get());
                self.rt.transfer(self.slot.get());
                // Control is back: the victim finished through the link
                // (its stack went through the graveyard, reaped by the
                // transfer above).
                debug_assert_eq!(self.state.get(), CoroState::Finished);
                // SAFETY: we hold control and the victim is finished —
                // nothing can touch its panic cell anymore.
                unsafe { (*self.panic.get()).take() }
            }
        }
    }

    /// `true` once a terminate handshake is in flight.
    pub(crate) fn is_terminating(&self) -> bool {
        self.terminating.get()
    }

    /// The coroutine's last act (runs on its own stack, with the job
    /// frame already popped): publish the terminal action's payload,
    /// drop any owned handles, switch away forever.
    fn finish_with(&self, terminal: Terminal) -> ! {
        self.state.set(CoroState::Finished);
        let target: *mut *mut u8 = match terminal {
            Terminal::Post(next) => {
                if next.state.get() == CoroState::NotStarted {
                    next.start();
                }
                let t = next.slot.get();
                // The process table keeps `next` alive; dropping our
                // Rc *before* the switch keeps this dead stack free of
                // owned handles.
                drop(next);
                t
            }
            Terminal::Gate => {
                debug_assert!(!self.rt.token.get(), "gate signalled twice without a wait");
                self.rt.token.set(true);
                self.rt.root_slot.get()
            }
            Terminal::Link(panic) => {
                // SAFETY: the terminator consumes the slot only after
                // this switch returns control to it.
                unsafe {
                    *self.panic.get() = panic;
                }
                self.link.get()
            }
        };
        // Deposit our stack for the target context to reap — we are
        // still executing on it, so we cannot free it ourselves. (Moving
        // the handle does not touch the stack memory.)
        // SAFETY: we hold control; any earlier deposit was reaped when
        // this context gained control.
        unsafe {
            let g = &mut *self.rt.graveyard.get();
            debug_assert!(
                g.is_none(),
                "two coroutine deaths without an intervening reap"
            );
            *g = (*self.stack.get()).take();
        }
        self.rt.current.set(target);
        // SAFETY: `target` is a live suspended context; our own slot
        // serves as the (dead) save destination — nothing ever switches
        // back into a finished coroutine.
        unsafe { ctx::rtk_sysc_ctx_switch(self.slot.get(), target) };
        unreachable!("control returned to a finished coroutine")
    }
}

impl Drop for CoroRt {
    fn drop(&mut self) {
        // Normally empty: the last death's deposit is reaped by the
        // root's transfer return. Kept as a backstop for leaked
        // mid-flight simulations.
        self.reap();
    }
}

impl Drop for CoroShared {
    fn drop(&mut self) {
        // Finished coroutines recycled their stack through the
        // graveyard. A `Started` stack here means the simulation itself
        // was leaked mid-flight; the stack memory is freed (by
        // `CoroStack::drop`) but its suspended frames never unwind.
        debug_assert!(
            self.state.get() != CoroState::Finished || self.stack.get_mut().is_none(),
            "finished coroutine kept its stack past the graveyard"
        );
    }
}

/// Every coroutine's first (and outermost) frame. `extern "C"` so an
/// unwind escaping the job's `catch_unwind` aborts instead of running
/// off the forged bootstrap frame.
extern "C" fn coro_entry() -> ! {
    let me = STARTING.with(|s| s.replace(ptr::null()));
    debug_assert!(
        !me.is_null(),
        "coroutine entered without a STARTING pointer"
    );
    // SAFETY: the process table holds the `CoroShared` alive for the
    // whole simulation, which in turn outlives every moment this
    // coroutine can run (teardown terminates it first).
    let me = unsafe { &*me };
    // A fresh stack is also a (re)gain-control point: a chained finish
    // may have started us directly, with its own death still unreaped.
    me.rt.reap();
    // SAFETY: this context holds control, and the entry job was
    // deposited by `set_entry` strictly before the first transfer that
    // could have started this stack.
    let job = unsafe { (*me.entry.get()).take() }.expect("coroutine started without an entry job");
    let terminal = job();
    // The job frame is gone: nothing owned remains on this stack except
    // what `terminal` carries, which `finish_with` disposes of before
    // the final switch.
    me.finish_with(terminal)
}
