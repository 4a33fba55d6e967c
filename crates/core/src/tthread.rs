//! The T-THREAD process model (paper §3, Fig. 2).
//!
//! A T-THREAD captures the real-time behaviour of an application task or
//! a handler (cyclic, alarm, external interrupt, or the kernel timer) as
//! a synchronized Petri net:
//!
//! * it is a cyclic object of atomic **transitions** with a single
//!   **token** marking its state (the current [`ExecContext`] *place*);
//! * transitions fire on RTOS events `E = {Es, Ec, Ex, Ei, Ew}`
//!   ([`TThreadEvent`]);
//! * a **firing sequence** has a characteristic vector `σ(S)` counting
//!   how often each transition fired, an execution-time model `ETM(S)`
//!   and an energy model `EEM(S)`;
//! * per place, consumed execution time `CET` and energy `CEE`
//!   accumulate over the thread's activation cycles:
//!   `CET = Σ_cycles ETM(S)` and `CEE = Σ_cycles EEM(S)`.
//!
//! This module is pure bookkeeping — the *enforcement* of the execution
//! semantics (who may consume time when) lives in [`crate::sim_api`].

use sysc::SimTime;

use crate::cost::Energy;
use crate::ids::ThreadRef;

/// The Petri-net *places* a T-THREAD token can mark: the context in which
/// the thread is currently executing (or parked). The Gantt widget of
/// Fig. 6 assigns each context a distinct pattern.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[non_exhaustive]
pub enum ExecContext {
    /// Kernel startup / task activation prologue.
    Startup,
    /// Application code inside a task body (a "basic block").
    TaskBody,
    /// Inside a kernel service call (service-call atomicity applies).
    ServiceCall,
    /// Inside a handler body (cyclic, alarm, ISR, or timer).
    Handler,
    /// Accessing hardware through the bus functional model.
    BfmAccess,
    /// Voluntarily waiting (sleep, object wait, delay).
    Sleeping,
    /// Ready but preempted by a higher-priority T-THREAD.
    Preempted,
    /// Frozen by an interrupt.
    Interrupted,
    /// Dormant (not activated).
    Dormant,
}

impl ExecContext {
    /// Every place, in declaration order.
    const ALL: [ExecContext; 9] = [
        ExecContext::Startup,
        ExecContext::TaskBody,
        ExecContext::ServiceCall,
        ExecContext::Handler,
        ExecContext::BfmAccess,
        ExecContext::Sleeping,
        ExecContext::Preempted,
        ExecContext::Interrupted,
        ExecContext::Dormant,
    ];

    /// Short label used by the trace/Gantt renderers.
    pub const fn label(self) -> &'static str {
        match self {
            ExecContext::Startup => "startup",
            ExecContext::TaskBody => "task",
            ExecContext::ServiceCall => "service",
            ExecContext::Handler => "handler",
            ExecContext::BfmAccess => "bfm",
            ExecContext::Sleeping => "sleep",
            ExecContext::Preempted => "preempted",
            ExecContext::Interrupted => "interrupted",
            ExecContext::Dormant => "dormant",
        }
    }
}

/// The RTOS event alphabet of the T-THREAD Petri net (paper Fig. 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum TThreadEvent {
    /// `Es` — startup event after kernel initialization; always
    /// associated with the source transition `T0`.
    Es,
    /// `Ec` — continue-run event (normal execution).
    Ec,
    /// `Ex` — return from preemption.
    Ex,
    /// `Ei` — return from an interrupt.
    Ei,
    /// `Ew` — arrival of a sleep event the thread was waiting for.
    Ew,
}

impl TThreadEvent {
    /// All events, in specification order.
    pub const ALL: [TThreadEvent; 5] = [
        TThreadEvent::Es,
        TThreadEvent::Ec,
        TThreadEvent::Ex,
        TThreadEvent::Ei,
        TThreadEvent::Ew,
    ];

    /// The paper's symbol, e.g. `Es`.
    pub const fn symbol(self) -> &'static str {
        match self {
            TThreadEvent::Es => "Es",
            TThreadEvent::Ec => "Ec",
            TThreadEvent::Ex => "Ex",
            TThreadEvent::Ei => "Ei",
            TThreadEvent::Ew => "Ew",
        }
    }
}

/// The characteristic vector `σ(S)` of a firing sequence: how many times
/// each transition (keyed by its enabling event) fired.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CharacteristicVector {
    counts: [u64; 5],
}

impl CharacteristicVector {
    /// Count for one event kind.
    pub fn count(&self, e: TThreadEvent) -> u64 {
        self.counts[Self::idx(e)]
    }

    /// Records one firing.
    pub fn fire(&mut self, e: TThreadEvent) {
        self.counts[Self::idx(e)] += 1;
    }

    /// Total number of transition firings.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    fn idx(e: TThreadEvent) -> usize {
        match e {
            TThreadEvent::Es => 0,
            TThreadEvent::Ec => 1,
            TThreadEvent::Ex => 2,
            TThreadEvent::Ei => 3,
            TThreadEvent::Ew => 4,
        }
    }
}

/// Accumulated statistics of one T-THREAD: the consumed execution time
/// (`CET`) and consumed execution energy (`CEE`) per place, the
/// characteristic vector, and activation counts.
#[derive(Debug, Clone, Default)]
pub struct TThreadStats {
    /// Per-place `(CET, CEE)` accumulators, indexed by place.
    per_context: [(SimTime, Energy); ExecContext::ALL.len()],
    /// Bit `place as usize` is set once the place consumed a slice,
    /// even a zero-length one.
    visited: u16,
    /// Transition firing counts.
    pub sigma: CharacteristicVector,
    /// Number of completed activation cycles (task activations or handler
    /// invocations).
    pub cycles: u64,
    /// Number of times this thread was preempted.
    pub preemptions: u64,
    /// Number of times this thread was frozen by an interrupt.
    pub interruptions: u64,
}

impl TThreadStats {
    /// Adds a consumed execution slice to a place.
    pub fn consume(&mut self, ctx: ExecContext, time: SimTime, energy: Energy) {
        let entry = &mut self.per_context[ctx as usize];
        entry.0 += time;
        entry.1 += energy;
        self.visited |= 1 << ctx as usize;
    }

    /// Consumed execution time in one place.
    pub fn cet(&self, ctx: ExecContext) -> SimTime {
        self.per_context[ctx as usize].0
    }

    /// Consumed execution energy in one place.
    pub fn cee(&self, ctx: ExecContext) -> Energy {
        self.per_context[ctx as usize].1
    }

    /// Total consumed execution time over all places.
    pub fn total_cet(&self) -> SimTime {
        self.per_context.iter().map(|(t, _)| *t).sum()
    }

    /// Total consumed execution energy over all places.
    pub fn total_cee(&self) -> Energy {
        self.per_context.iter().map(|(_, e)| *e).sum()
    }

    /// Iterates `(place, CET, CEE)` over the places that consumed any
    /// slice, in declaration order.
    pub fn iter(&self) -> impl Iterator<Item = (ExecContext, SimTime, Energy)> + '_ {
        ExecContext::ALL
            .into_iter()
            .filter(|c| self.visited & (1 << *c as usize) != 0)
            .map(|c| (c, self.cet(c), self.cee(c)))
    }
}

/// The kind of T-THREAD (what it wraps).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TThreadKind {
    /// An application task.
    Task,
    /// A cyclic handler.
    CyclicHandler,
    /// An alarm handler.
    AlarmHandler,
    /// An external interrupt service routine.
    InterruptHandler,
    /// The kernel's timer handler.
    TimerHandler,
}

/// Public snapshot of a T-THREAD's identity and statistics, as stored in
/// the SIM_HashTB and displayed by the debug widgets.
#[derive(Debug, Clone)]
pub struct TThreadInfo {
    /// Which kernel entity this thread models.
    pub who: ThreadRef,
    /// Human-readable name.
    pub name: String,
    /// Thread kind.
    pub kind: TThreadKind,
    /// Current Petri-net place (token position).
    pub marking: ExecContext,
    /// Accumulated statistics.
    pub stats: TThreadStats,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::Energy;

    #[test]
    fn characteristic_vector_counts_firings() {
        let mut v = CharacteristicVector::default();
        v.fire(TThreadEvent::Es);
        v.fire(TThreadEvent::Ec);
        v.fire(TThreadEvent::Ec);
        v.fire(TThreadEvent::Ew);
        assert_eq!(v.count(TThreadEvent::Es), 1);
        assert_eq!(v.count(TThreadEvent::Ec), 2);
        assert_eq!(v.count(TThreadEvent::Ex), 0);
        assert_eq!(v.count(TThreadEvent::Ei), 0);
        assert_eq!(v.count(TThreadEvent::Ew), 1);
        assert_eq!(v.total(), 4);
    }

    #[test]
    fn cet_cee_accumulate_per_place() {
        let mut s = TThreadStats::default();
        s.consume(
            ExecContext::TaskBody,
            SimTime::from_us(10),
            Energy::from_nj(5),
        );
        s.consume(
            ExecContext::TaskBody,
            SimTime::from_us(15),
            Energy::from_nj(7),
        );
        s.consume(
            ExecContext::ServiceCall,
            SimTime::from_us(3),
            Energy::from_nj(1),
        );
        assert_eq!(s.cet(ExecContext::TaskBody), SimTime::from_us(25));
        assert_eq!(s.cee(ExecContext::TaskBody), Energy::from_nj(12));
        assert_eq!(s.cet(ExecContext::ServiceCall), SimTime::from_us(3));
        assert_eq!(s.cet(ExecContext::BfmAccess), SimTime::ZERO);
        assert_eq!(s.total_cet(), SimTime::from_us(28));
        assert_eq!(s.total_cee(), Energy::from_nj(13));
    }

    #[test]
    fn cet_is_sum_over_cycles() {
        // The paper's defining property: CET = Σ_cycles ETM(S).
        let mut s = TThreadStats::default();
        let per_cycle = SimTime::from_us(50);
        for _ in 0..10 {
            s.consume(ExecContext::Handler, per_cycle, Energy::from_nj(2));
            s.cycles += 1;
        }
        assert_eq!(s.cet(ExecContext::Handler), per_cycle * 10);
        assert_eq!(s.cee(ExecContext::Handler), Energy::from_nj(20));
        assert_eq!(s.cycles, 10);
    }

    #[test]
    fn iter_is_stable_order() {
        let mut s = TThreadStats::default();
        s.consume(ExecContext::Sleeping, SimTime::from_us(1), Energy::ZERO);
        s.consume(ExecContext::Startup, SimTime::from_us(2), Energy::ZERO);
        s.consume(ExecContext::TaskBody, SimTime::from_us(3), Energy::ZERO);
        // A zero-length slice (a freeze landing at a slice's first
        // instant) still marks its place as visited.
        s.consume(ExecContext::Preempted, SimTime::ZERO, Energy::ZERO);
        let order: Vec<ExecContext> = s.iter().map(|(c, _, _)| c).collect();
        // Places are listed in enum declaration order.
        assert_eq!(
            order,
            vec![
                ExecContext::Startup,
                ExecContext::TaskBody,
                ExecContext::Sleeping,
                ExecContext::Preempted
            ]
        );
    }

    #[test]
    fn event_symbols() {
        let symbols: Vec<&str> = TThreadEvent::ALL.iter().map(|e| e.symbol()).collect();
        assert_eq!(symbols, vec!["Es", "Ec", "Ex", "Ei", "Ew"]);
    }

    #[test]
    fn context_labels_are_distinct() {
        use std::collections::HashSet;
        let all = [
            ExecContext::Startup,
            ExecContext::TaskBody,
            ExecContext::ServiceCall,
            ExecContext::Handler,
            ExecContext::BfmAccess,
            ExecContext::Sleeping,
            ExecContext::Preempted,
            ExecContext::Interrupted,
            ExecContext::Dormant,
        ];
        let labels: HashSet<&str> = all.iter().map(|c| c.label()).collect();
        assert_eq!(labels.len(), all.len());
    }
}
