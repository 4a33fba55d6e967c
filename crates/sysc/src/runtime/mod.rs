//! The process runtime: how thread-process bodies get a suspendable
//! stack.
//!
//! Each thread process runs on a heap-allocated stack as a hand-rolled
//! stackful coroutine (`coro`, `ctx`). The whole simulation executes on
//! **one** host thread, and a handoff is a userspace register swap: no
//! system call, no parking.
//!
//! The kernel (`crate::kernel`) and the coroutines talk through a small
//! call protocol:
//!
//! | op          | what it does                                      |
//! |-------------|---------------------------------------------------|
//! | `post`      | store a command in the target, switch into it     |
//! | `await_cmd` | take the command (having control *is* the turn)   |
//! | `resume`    | terminate handshake: switch in, reply via a link  |
//! | `signal`    | set the gate token, switch to the kernel's root   |
//! | `wait`      | root side: assert and consume the gate token      |
//!
//! The protocol vocabulary (`Cmd`, `Reply`, `WakeReason`, `WaitSpec`,
//! the terminate unwind) lives here; `coro` implements the transfers
//! and `ctx` the raw switch plus the stack pool.

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

/// Why a suspended process was resumed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum WakeReason {
    /// First activation of the process.
    Start,
    /// A `wait_time` completed.
    TimeElapsed,
    /// The awaited event fired.
    Fired,
    /// A `wait_event_timeout` expired before the event fired.
    TimedOut,
    /// A zero-time wait completed (next delta cycle reached).
    Yielded,
}

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

/// Kernel-to-process command.
pub(crate) enum Cmd {
    /// Continue execution; carries the reason the wait completed.
    Run(WakeReason),
    /// End the process (kill / simulation teardown): an activation loop
    /// parked on its activation returns, any other wait unwinds the
    /// body (see the `crate::kernel` docs).
    Terminate,
}

/// Process-to-kernel reply on the terminate handshake (normal yields
/// do their own scheduler bookkeeping and never construct a reply).
pub(crate) enum Reply {
    /// The process body returned (or unwound on termination).
    Finished,
    /// The process body panicked; payload to be re-thrown by the kernel.
    Panicked(Box<dyn Any + Send>),
}

/// Panic payload used to unwind a process stack on termination.
///
/// The wrapper installed by the kernel catches this payload and converts
/// it into a clean [`Reply::Finished`], so user `Drop` impls still run.
pub(crate) struct TerminateSignal;

/// Converts a caught panic payload into a reply, recognising cooperative
/// termination.
pub(crate) fn reply_from_panic(payload: Box<dyn Any + Send>) -> Reply {
    if payload.is::<TerminateSignal>() {
        Reply::Finished
    } else {
        Reply::Panicked(payload)
    }
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
        let r = reply_from_panic(Box::new(TerminateSignal));
        assert!(matches!(r, Reply::Finished));
        let r = reply_from_panic(Box::new("boom"));
        assert!(matches!(r, Reply::Panicked(_)));
    }
}
