//! RTOS-level execution trace.
//!
//! Once [`crate::Rtos::record_trace`] has started recording, the kernel
//! keeps every slice of consumed execution time/energy and every
//! dispatch, preemption and interrupt transition as a [`TraceRecord`];
//! [`crate::Rtos::trace_records`] reads them back. Without recording,
//! no record is built. The `rtk-analysis` crate renders the records
//! into the paper's Fig. 6 Gantt chart.

use sysc::SimTime;

use crate::cost::Energy;
use crate::ids::ThreadRef;
use crate::tthread::ExecContext;

/// One trace entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceKind {
    /// A T-THREAD consumed execution time in some context (a Gantt bar).
    Slice {
        /// Execution context of the slice (pattern in the Gantt chart).
        context: ExecContext,
        /// What was being executed, e.g. a service-call or BFM-call name.
        label: String,
    },
    /// A T-THREAD was dispatched (given the CPU).
    Dispatch,
    /// A T-THREAD was preempted by a higher-priority T-THREAD.
    Preempt,
    /// A T-THREAD resumed after preemption (event `Ex`).
    ResumeFromPreempt,
    /// Interrupt entry: the T-THREAD was frozen by an interrupt.
    InterruptEnter,
    /// A T-THREAD resumed after an interrupt returned (event `Ei`).
    ResumeFromInterrupt,
    /// The T-THREAD voluntarily started waiting (event `Ew` pending).
    Sleep,
    /// The T-THREAD's wait was satisfied (event `Ew` delivered).
    Wakeup,
    /// Task startup (event `Es`).
    Startup,
    /// Task exit (returned to DORMANT).
    Exit,
}

/// A timed trace record attributed to one T-THREAD.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceRecord {
    /// Slice start (for point events, the event time).
    pub start: SimTime,
    /// Slice end (equal to `start` for point events).
    pub end: SimTime,
    /// Which T-THREAD.
    pub who: ThreadRef,
    /// Thread name (human-readable, stable for rendering).
    pub name: String,
    /// What happened.
    pub kind: TraceKind,
    /// Energy consumed during the slice (zero for point events).
    pub energy: Energy,
}

impl TraceRecord {
    /// Duration of the record (zero for point events).
    pub fn duration(&self) -> SimTime {
        self.end - self.start
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::TaskId;

    #[test]
    fn duration_of_point_and_slice() {
        let rec = TraceRecord {
            start: SimTime::from_us(10),
            end: SimTime::from_us(25),
            who: ThreadRef::Task(TaskId(1)),
            name: "lcd".into(),
            kind: TraceKind::Slice {
                context: ExecContext::TaskBody,
                label: "block".into(),
            },
            energy: Energy::from_nj(3),
        };
        assert_eq!(rec.duration(), SimTime::from_us(15));
        let point = TraceRecord {
            start: SimTime::from_us(10),
            end: SimTime::from_us(10),
            who: ThreadRef::Timer,
            name: "timer".into(),
            kind: TraceKind::Dispatch,
            energy: Energy::ZERO,
        };
        assert_eq!(point.duration(), SimTime::ZERO);
    }

    #[test]
    fn records_are_cloneable_and_comparable() {
        fn assert_value_type<T: Clone + PartialEq + std::fmt::Debug>() {}
        assert_value_type::<TraceRecord>();
        assert_value_type::<TraceKind>();
    }
}
