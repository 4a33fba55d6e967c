//! The process runtime: how thread-process bodies get a suspendable
//! stack.
//!
//! Each thread process runs on a heap-allocated stack as a hand-rolled
//! stackful coroutine (`coro`, `ctx`). The whole simulation executes on
//! **one** host thread, and a handoff is a userspace register swap: no
//! system call, no parking.
//!
//! The kernel (`crate::kernel`) and the coroutines talk through a small
//! call protocol. A switch carries no message: a dispatched process
//! finds its wait's outcome in the process table, and a process resumed
//! by a terminate handshake finds its coroutine marked terminating.
//!
//! | op          | what it does                                      |
//! |-------------|---------------------------------------------------|
//! | `post`      | switch into the target (dispatch)                 |
//! | `terminate` | terminate handshake: switch in, back via a link    |
//! | `signal`    | set the gate token, switch to the kernel's root   |
//! | `wait`      | root side: assert and consume the gate token      |
//!
//! The protocol vocabulary (`WaitSpec`, the terminate unwind) lives
//! here; `coro` implements the transfers and `ctx` the raw switch plus
//! the stack pool.

use std::any::Any;
use std::panic;

use crate::ids::EventId;
use crate::time::SimTime;

pub(crate) mod coro;
mod ctx;

pub use ctx::{prewarm as prewarm_stacks, stack_stats, StackPoolStats};

/// The process runtime of a [`crate::Simulation`]. Stackful coroutines
/// are the only one; the type remains so that code which names a
/// runtime, and trace headers that record one, keep working.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum Runtime {
    /// Stackful coroutines on heap stacks; the whole simulation runs on
    /// the driving thread.
    #[default]
    Coro,
}

impl Runtime {
    /// The runtime a simulation actually runs on: always `self`. The
    /// benchmark (`farmbench/`) still calls it, so it goes together with
    /// this type when the benchmark stops naming a runtime.
    pub fn resolve(self) -> Runtime {
        self
    }

    /// Stable lowercase name, as recorded in trace headers.
    pub fn as_str(self) -> &'static str {
        match self {
            Runtime::Coro => "coro",
        }
    }
}

// ---------------------------------------------------------------------
// Protocol vocabulary (shared by the coroutines and the kernel).
// ---------------------------------------------------------------------

/// What a process asks the kernel to do when it suspends: SystemC's
/// `wait(t)`, `wait(e)` and `wait(t, e)`.
#[derive(Debug, Clone, Copy)]
pub(crate) enum WaitSpec {
    /// Sleep for a duration of simulated time; zero waits one delta.
    Time(SimTime),
    /// Sleep until an event fires.
    Event(EventId),
    /// Sleep until an event fires or a timeout elapses, whichever is first.
    EventTimeout(EventId, SimTime),
}

/// A panic payload caught on a process stack, carried to the context
/// that re-raises it.
pub(crate) type Panic = Box<dyn Any + Send>;

/// Panic payload used to unwind a process stack on termination.
///
/// The wrapper installed by the kernel catches this payload and treats
/// it as a clean finish ([`panic_of`]), so user `Drop` impls still run.
pub(crate) struct TerminateSignal;

/// The panic a finished process body leaves to re-raise: `None` for a
/// return or a cooperative termination.
pub(crate) fn panic_of(result: std::thread::Result<()>) -> Option<Panic> {
    result
        .err()
        .filter(|payload| !payload.is::<TerminateSignal>())
}

/// Unwinds the current process stack as a cooperative termination.
pub(crate) fn raise_terminate() -> ! {
    panic::resume_unwind(Box::new(TerminateSignal))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn terminate_payload_is_recognised() {
        assert!(panic_of(Ok(())).is_none());
        assert!(panic_of(Err(Box::new(TerminateSignal))).is_none());
        assert!(panic_of(Err(Box::new("boom"))).is_some());
    }
}
