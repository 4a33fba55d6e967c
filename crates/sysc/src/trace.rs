//! The kernel's one probe point and its counters.
//!
//! A [`Tracer`] attached to a simulation sees every signal change in
//! the update phase; the `rtk-analysis` crate's `WaveProbe` builds VCD
//! waveform dumps on it (paper Fig. 4). The speed reports read
//! [`KernelStats`].
//!
//! The hook is invoked while the kernel state is borrowed; an
//! implementation must record and return — it must **not** call back
//! into the simulation (that would panic with a `BorrowMutError`).
//!
//! A simulation with a tracer attached serves every wait through the
//! engine, never from the fast-forward run budget (see the
//! `crate::kernel` scheduler docs). The budget leaves the schedule
//! unchanged, so a traced run is the reference an untraced one is
//! tested against.

use crate::time::SimTime;

/// Observer of signal changes. The hook's body is empty by default, so
/// a unit struct with an empty `impl` is a tracer that only moves its
/// simulation onto the engine path.
#[allow(unused_variables)]
pub trait Tracer {
    /// A signal changed value in the update phase. `value` is the
    /// signal's VCD-style rendering.
    fn signal_changed(&self, now: SimTime, name: &str, value: &str) {}
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
        NullTracer.signal_changed(SimTime::ZERO, "s", "1");
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
