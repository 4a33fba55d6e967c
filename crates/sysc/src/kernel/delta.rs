//! The evaluate/update/delta-notify queues of one timestep.
//!
//! Groups everything that cycles once per delta: the runnable queue fed
//! by wakes and notifications, the next-delta runnable queue (yields),
//! the list of events with a pending delta notification, and the
//! request-update targets of the signal infrastructure.

use std::collections::VecDeque;
use std::rc::Rc;

use crate::ids::{EventId, ProcId};
use crate::signal::UpdateTarget;

#[derive(Default)]
pub(crate) struct DeltaQueues {
    /// Processes to dispatch in the current evaluation phase (FIFO).
    pub(crate) runnable: VecDeque<ProcId>,
    /// Processes that yielded and become runnable at the next delta.
    pub(crate) next_delta_runnable: VecDeque<ProcId>,
    /// Events with a pending delta notification.
    pub(crate) delta_notified: Vec<EventId>,
    /// Signal update requests for the next update phase.
    pub(crate) updates: Vec<Rc<dyn UpdateTarget>>,
}
