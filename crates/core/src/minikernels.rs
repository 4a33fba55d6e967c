//! RTK-Spec I and RTK-Spec II — the two user-defined kernel
//! specifications the paper built *before* RTK-Spec TRON to validate
//! SIM_API coverage (§4): "we used SIM_API to build three kernel
//! simulation models: RTK-Spec I, II, and TRON. RTK-Spec I (round robin
//! scheduler) and II (priority-based preemptive scheduler) are examples
//! of user defined kernel specifications running on 8051
//! micro-controllers".
//!
//! Both reuse the same SIM_API machinery (T-THREAD control, freeze
//! protocol, dispatching) and differ only in the scheduler plug-in and
//! the reduced configuration a small 8051 kernel would offer —
//! demonstrating that the SIM_API layer is kernel-agnostic.

use sysc::SimTime;

use crate::config::KernelConfig;
use crate::cost::CostModel;
use crate::rtos::{Rtos, Sys};
use crate::sim_api::scheduler::{PriorityScheduler, RoundRobinScheduler};

/// Builds an RTK-Spec I kernel: round-robin scheduling with a time slice
/// of `slice_ticks` system ticks. Priorities passed to `tk_cre_tsk` are
/// recorded but ignored by the dispatcher.
///
/// # Examples
///
/// ```
/// use rtk_core::minikernels::rtk_spec_i;
/// use sysc::SimTime;
///
/// let mut k = rtk_spec_i(2, |sys, _| {
///     for name in ["a", "b"] {
///         let t = sys
///             .tk_cre_tsk(name, 1, |sys, _| {
///                 sys.exec(SimTime::from_ms(5));
///             })
///             .unwrap();
///         sys.tk_sta_tsk(t, 0).unwrap();
///     }
/// });
/// k.run_for(SimTime::from_ms(20));
/// ```
pub fn rtk_spec_i<F>(slice_ticks: u64, main: F) -> Rtos
where
    F: FnMut(&mut Sys<'_>, i32) + 'static,
{
    let cfg = KernelConfig {
        cost: CostModel::mcu_8051(),
        ..KernelConfig::paper()
    };
    Rtos::with_scheduler(cfg, Box::new(RoundRobinScheduler::new(slice_ticks)), main)
}

/// RTK-Spec I with an explicit configuration (e.g. zero-cost for
/// semantics tests).
pub fn rtk_spec_i_with(
    cfg: KernelConfig,
    slice_ticks: u64,
    main: impl FnMut(&mut Sys<'_>, i32) + 'static,
) -> Rtos {
    Rtos::with_scheduler(cfg, Box::new(RoundRobinScheduler::new(slice_ticks)), main)
}

/// Builds an RTK-Spec II kernel: priority-based preemptive scheduling on
/// an 8051-class cost model — the same policy as RTK-Spec TRON but with
/// the smaller µ-ITRON-style configuration (16 priority levels).
pub fn rtk_spec_ii<F>(main: F) -> Rtos
where
    F: FnMut(&mut Sys<'_>, i32) + 'static,
{
    let cfg = KernelConfig {
        max_priority: 16,
        cost: CostModel::mcu_8051(),
        ..KernelConfig::paper()
    };
    Rtos::with_scheduler(
        cfg.clone(),
        Box::new(PriorityScheduler::new(cfg.max_priority)),
        main,
    )
}

/// RTK-Spec II with an explicit configuration.
pub fn rtk_spec_ii_with(cfg: KernelConfig, main: impl FnMut(&mut Sys<'_>, i32) + 'static) -> Rtos {
    let max = cfg.max_priority;
    Rtos::with_scheduler(cfg, Box::new(PriorityScheduler::new(max)), main)
}

/// The default RTK-Spec I time slice used in the paper-era examples:
/// 5 ticks (5 ms at the 1 ms tick).
pub const DEFAULT_SLICE_TICKS: u64 = 5;

/// Convenience: the 1 ms tick the 8051 BFM real-time clock provides.
pub const TICK: SimTime = SimTime::from_ms(1);

#[cfg(test)]
mod tests {
    use super::*;
    use crate::state::Timeout;
    use std::cell::{Cell, RefCell};
    use std::rc::Rc;

    #[test]
    fn rtk_spec_i_time_slices_round_robin() {
        // Two CPU-bound tasks; with a 2-tick slice both make progress
        // interleaved, ignoring priorities.
        let progress = Rc::new(RefCell::new(Vec::new()));
        let p1 = Rc::clone(&progress);
        let p2 = Rc::clone(&progress);
        let mut k = rtk_spec_i_with(KernelConfig::zero_cost(), 2, move |sys, _| {
            let p1 = Rc::clone(&p1);
            let a = sys
                .tk_cre_tsk("a", 10, move |sys, _| {
                    for _ in 0..4 {
                        sys.exec(SimTime::from_ms(1));
                        p1.borrow_mut().push("a");
                    }
                })
                .unwrap();
            let p2 = Rc::clone(&p2);
            let b = sys
                .tk_cre_tsk("b", 1, move |sys, _| {
                    for _ in 0..4 {
                        sys.exec(SimTime::from_ms(1));
                        p2.borrow_mut().push("b");
                    }
                })
                .unwrap();
            sys.tk_sta_tsk(a, 0).unwrap();
            sys.tk_sta_tsk(b, 0).unwrap();
        });
        k.run_for(SimTime::from_ms(30));
        let log = progress.take();
        assert_eq!(log.len(), 8);
        // Interleaving: both tasks appear within the first half of the
        // log (with strict priority scheduling one task would fully
        // precede the other).
        let first_half: Vec<&str> = log[..4].to_vec();
        assert!(first_half.contains(&"a") && first_half.contains(&"b"));
    }

    #[test]
    fn rtk_spec_ii_is_strictly_priority_preemptive() {
        let order = Rc::new(RefCell::new(Vec::new()));
        let o = Rc::clone(&order);
        let mut k = rtk_spec_ii_with(KernelConfig::zero_cost(), move |sys, _| {
            let o_lo = Rc::clone(&o);
            let lo = sys
                .tk_cre_tsk("lo", 12, move |sys, _| {
                    sys.exec(SimTime::from_us(100));
                    o_lo.borrow_mut().push("lo");
                })
                .unwrap();
            let o_hi = Rc::clone(&o);
            let hi = sys
                .tk_cre_tsk("hi", 3, move |sys, _| {
                    sys.exec(SimTime::from_us(100));
                    o_hi.borrow_mut().push("hi");
                })
                .unwrap();
            // Started in "wrong" order; priority decides.
            sys.tk_sta_tsk(lo, 0).unwrap();
            sys.tk_sta_tsk(hi, 0).unwrap();
        });
        k.run_for(SimTime::from_ms(10));
        assert_eq!(order.take(), vec!["hi", "lo"]);
    }

    #[test]
    fn rtk_spec_i_supports_sleep_wakeup() {
        // The mini-kernel exposes the same task-sync services through
        // the shared SIM_API plumbing.
        let woke = Rc::new(Cell::new(0));
        let w = Rc::clone(&woke);
        let mut k = rtk_spec_i_with(KernelConfig::zero_cost(), 1, move |sys, _| {
            let w2 = Rc::clone(&w);
            let sleeper = sys
                .tk_cre_tsk("sleeper", 1, move |sys, _| {
                    sys.tk_slp_tsk(Timeout::Forever).unwrap();
                    w2.set(sys.now().as_ms());
                })
                .unwrap();
            sys.tk_sta_tsk(sleeper, 0).unwrap();
            sys.tk_dly_tsk(SimTime::from_ms(3)).unwrap();
            sys.tk_wup_tsk(sleeper).unwrap();
        });
        k.run_for(SimTime::from_ms(10));
        assert_eq!(woke.get(), 3);
    }

    #[test]
    fn default_constants() {
        assert_eq!(DEFAULT_SLICE_TICKS, 5);
        assert_eq!(TICK, SimTime::from_ms(1));
    }
}
