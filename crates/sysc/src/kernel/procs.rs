//! The process table: thread- and method-process bookkeeping.
//!
//! Thread processes are stackful coroutines ([`crate::runtime`]);
//! method processes are plain callbacks, which the scheduler moves out
//! of the table for the call, so that the callback may use any
//! `SimHandle` API while the kernel state is unborrowed.

use std::rc::Rc;

use crate::ids::ProcId;
use crate::runtime::coro::CoroShared;

/// A boxed method-process callback.
pub(crate) type MethodCallback = Box<dyn FnMut()>;

pub(crate) enum ProcBody {
    Thread {
        /// The coroutine context, on a stack leased at first dispatch
        /// ([`crate::runtime`]). There is no join handle; teardown is
        /// the terminate handshake, after which the stack is recycled.
        shared: Rc<CoroShared>,
    },
    Method {
        /// `None` while the callback runs and after a kill or teardown.
        cb: Option<MethodCallback>,
        queued: bool,
    },
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ProcState {
    Ready,
    Running,
    Waiting,
    Finished,
}

pub(crate) struct ProcEntry {
    pub(crate) body: ProcBody,
    pub(crate) state: ProcState,
    /// Bumped on every registration and wake; stale registrations carry
    /// an older generation and are ignored.
    pub(crate) wait_gen: u64,
    /// How the last wait ended: `true` when its deadline passed (a
    /// timed-queue wake or the fast-forward budget), `false` when an
    /// event or the next delta woke it. Read by `wait_event_timeout`.
    pub(crate) timed_out: bool,
}

impl ProcEntry {
    pub(crate) fn new(body: ProcBody) -> Self {
        ProcEntry {
            body,
            state: ProcState::Ready,
            wait_gen: 0,
            timed_out: false,
        }
    }

    /// Marks the process finished and invalidates its registrations.
    pub(crate) fn finish(&mut self) {
        self.state = ProcState::Finished;
        self.wait_gen += 1;
    }
}

/// Dense table of all processes of one simulation.
#[derive(Default)]
pub(crate) struct ProcTable {
    entries: Vec<ProcEntry>,
}

impl ProcTable {
    pub(crate) fn push(&mut self, entry: ProcEntry) -> ProcId {
        let id = ProcId(self.entries.len() as u32);
        self.entries.push(entry);
        id
    }

    pub(crate) fn get(&self, p: ProcId) -> &ProcEntry {
        &self.entries[p.index()]
    }

    pub(crate) fn get_mut(&mut self, p: ProcId) -> &mut ProcEntry {
        &mut self.entries[p.index()]
    }

    pub(crate) fn iter_mut(&mut self) -> impl Iterator<Item = &mut ProcEntry> {
        self.entries.iter_mut()
    }
}
