//! Kernel observation hooks.
//!
//! A [`Tracer`] can be attached to a simulation to observe scheduler
//! activity: process dispatches, event firings, signal updates and time
//! advances. The `rtk-analysis` crate's `WaveProbe` builds VCD waveform
//! dumps on this hook; the speed reports read [`KernelStats`].
//!
//! Tracer methods are invoked while the kernel state is borrowed;
//! tracer implementations must record and return — they must **not**
//! call back into the simulation (that would panic with a
//! `BorrowMutError`). With chained dispatch the hooks may fire on any
//! process's coroutine stack (the scheduler runs in whichever process
//! is yielding), always on the simulation's one host thread.

use crate::ids::{EventId, ProcId};
use crate::time::SimTime;

/// Observer of kernel activity. All methods have empty default bodies so
/// implementers only override what they need.
#[allow(unused_variables)]
pub trait Tracer {
    /// A process was handed the processor in the evaluate phase.
    fn process_dispatched(&self, now: SimTime, proc: ProcId, name: &str) {}

    /// A process suspended (waited) or finished.
    fn process_suspended(&self, now: SimTime, proc: ProcId) {}

    /// An event notification fired (waiters have been woken).
    fn event_fired(&self, now: SimTime, event: EventId, name: &str) {}

    /// Simulated time advanced from `from` to `to`.
    fn time_advanced(&self, from: SimTime, to: SimTime) {}

    /// A signal changed value in the update phase. `value` is the
    /// signal's VCD-style rendering.
    fn signal_changed(&self, now: SimTime, name: &str, value: &str) {}

    /// A delta cycle completed at the current time.
    fn delta_cycle(&self, now: SimTime, delta: u64) {}
}

/// Counters maintained by the kernel; cheap always-on statistics used by
/// the Table 2 speed harness.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KernelStats {
    /// Number of process activations (thread resumes + method calls).
    pub process_runs: u64,
    /// Number of event notifications delivered.
    pub events_fired: u64,
    /// Number of delta cycles executed.
    pub delta_cycles: u64,
    /// Number of distinct simulated-time advances.
    pub time_advances: u64,
    /// Number of signal value changes applied in update phases.
    pub signal_updates: u64,
    /// Number of waits served from the fast-forward run budget (the
    /// waiting process advanced time in place, no context switch).
    pub fast_forwards: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    struct NullTracer;
    impl Tracer for NullTracer {}

    #[test]
    fn default_methods_are_callable() {
        let t = NullTracer;
        t.process_dispatched(SimTime::ZERO, ProcId(0), "p");
        t.process_suspended(SimTime::ZERO, ProcId(0));
        t.event_fired(SimTime::ZERO, EventId(0), "e");
        t.time_advanced(SimTime::ZERO, SimTime::from_ns(1));
        t.signal_changed(SimTime::ZERO, "s", "1");
        t.delta_cycle(SimTime::ZERO, 0);
    }

    #[test]
    fn stats_default_is_zeroed() {
        let s = KernelStats::default();
        assert_eq!(s.process_runs, 0);
        assert_eq!(s.events_fired, 0);
        assert_eq!(s.delta_cycles, 0);
        assert_eq!(s.time_advances, 0);
        assert_eq!(s.signal_updates, 0);
    }
}
