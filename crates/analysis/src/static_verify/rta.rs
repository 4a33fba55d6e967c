//! Response-time analysis (RTA) for fixed-priority preemptive
//! scheduling with blocking and modelled interference.
//!
//! For each periodic task `i` the worst-case response time is the
//! least fixpoint of the classic recurrence (Joseph & Pandya / Audsley
//! et al.), extended with the model's non-task interference sources:
//!
//! ```text
//! R_i = C_i + B_i + Σ_{j ∈ hp(i)} ⌈R_i/T_j⌉·(C_j + PREEMPT)
//!                 + Σ_{s ∈ interference} ⌈R_i/T_s⌉·C_s
//! ```
//!
//! where `hp(i)` are the periodic tasks at least as urgent as `i`,
//! `B_i` is the blocking bound from [`super::blocking`], and `PREEMPT`
//! pads each preempting job with two context switches (which the
//! simulated kernel does not charge: the pad is slack). Release offsets
//! are ignored (the critical-instant assumption — offsets can only
//! reduce interference, so the bound stays sound). The task set is
//! schedulable iff every measured task's fixpoint converges within its
//! deadline.

use rtk_core::SysModel;

use super::blocking::{PREEMPT_OVERHEAD_US, UNBOUNDED_US};
use super::AnalysisOptions;

/// Outcome of the RTA recurrence for one task.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ResponseBound {
    /// The bound reached (last iterate when diverging).
    pub r_us: u64,
    /// `true` when the recurrence reached a fixpoint; `false` when it
    /// escaped the search cap (no bound exists below it).
    pub converged: bool,
}

impl ResponseBound {
    /// The bound, if the recurrence converged.
    pub fn certified_us(&self) -> Option<u64> {
        self.converged.then_some(self.r_us)
    }
}

/// Interference from non-task sources accumulated over a window.
pub(crate) fn interference_in(model: &SysModel, window_us: u64) -> u64 {
    model
        .interference
        .iter()
        .filter(|s| s.period_us > 0)
        .map(|s| window_us.div_ceil(s.period_us) * s.cost_us)
        .sum()
}

/// Computes the response-time bound of every task, in model order.
/// `None` marks aperiodic tasks (no job-level deadline to bound).
pub fn response_times(
    model: &SysModel,
    blocking: &[u64],
    opts: &AnalysisOptions,
) -> Vec<Option<ResponseBound>> {
    model
        .tasks
        .iter()
        .enumerate()
        .map(|(i, t)| {
            if t.period_us == 0 {
                return None;
            }
            Some(response_time(model, i, blocking[i], opts))
        })
        .collect()
}

fn response_time(
    model: &SysModel,
    i: usize,
    blocking_us: u64,
    opts: &AnalysisOptions,
) -> ResponseBound {
    let task = &model.tasks[i];
    if blocking_us >= UNBOUNDED_US {
        return ResponseBound {
            r_us: UNBOUNDED_US,
            converged: false,
        };
    }
    // An aperiodic task that can preempt `i` has no job bound: give up.
    if model
        .tasks
        .iter()
        .enumerate()
        .any(|(j, o)| j != i && o.period_us == 0 && o.priority <= task.priority)
    {
        return ResponseBound {
            r_us: UNBOUNDED_US,
            converged: false,
        };
    }
    let base = task.cost_us + blocking_us;
    // Search past the deadline (so a near-miss reports its true bound)
    // but not unboundedly.
    let cap = task.deadline_us.saturating_mul(4).max(base);
    let mut r = base;
    loop {
        let mut next = base;
        for (j, o) in model.tasks.iter().enumerate() {
            if j == i || o.period_us == 0 || o.priority > task.priority {
                continue;
            }
            next += r.div_ceil(o.period_us) * (o.cost_us + PREEMPT_OVERHEAD_US);
        }
        if !opts.ignore_interference {
            next += interference_in(model, r);
        }
        if next == r {
            return ResponseBound {
                r_us: r,
                converged: true,
            };
        }
        if next > cap {
            return ResponseBound {
                r_us: next,
                converged: false,
            };
        }
        r = next;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtk_core::{InterferenceModel, SysModel, TaskModel};

    fn task(pri: u8, period_us: u64, cost_us: u64) -> TaskModel {
        TaskModel {
            name: format!("p{pri}"),
            priority: pri,
            period_us,
            offset_us: 0,
            deadline_us: period_us,
            cost_us,
            sections: Vec::new(),
            measured: true,
        }
    }

    fn model(tasks: Vec<TaskModel>) -> SysModel {
        let mut m = SysModel::empty();
        m.tasks = tasks;
        m.timing_complete = true;
        m
    }

    #[test]
    fn textbook_recurrence() {
        // Classic example: C=(1000,2000,3000), T=(4000,10000,20000)
        // with zero overheads folded in via PREEMPT pads.
        let m = model(vec![
            task(1, 4_000, 1_000),
            task(2, 10_000, 2_000),
            task(3, 20_000, 3_000),
        ]);
        let b = vec![0, 0, 0];
        let r = response_times(&m, &b, &AnalysisOptions::default());
        let r0 = r[0].unwrap();
        assert!(r0.converged);
        assert_eq!(r0.r_us, 1_000);
        let r1 = r[1].unwrap();
        assert!(r1.converged);
        // 2000 + 1×(1000+120) = 3120.
        assert_eq!(r1.r_us, 3_120);
        let r2 = r[2].unwrap();
        assert!(r2.converged && r2.r_us <= 20_000, "{r2:?}");
    }

    #[test]
    fn blocking_shifts_the_bound() {
        let m = model(vec![task(1, 10_000, 1_000)]);
        let free = response_times(&m, &[0], &AnalysisOptions::default())[0].unwrap();
        let blocked = response_times(&m, &[500], &AnalysisOptions::default())[0].unwrap();
        assert_eq!(blocked.r_us, free.r_us + 500);
    }

    #[test]
    fn overload_exceeds_deadline() {
        let m = model(vec![task(1, 1_000, 600), task(2, 1_000, 600)]);
        let r = response_times(&m, &[0, 0], &AnalysisOptions::default());
        let r1 = r[1].unwrap();
        // The recurrence may still find a fixpoint past the deadline
        // (600 + 3·720 = 2760); certification requires r ≤ deadline.
        assert!(r1.r_us > 1_000, "{r1:?}");
        // Total starvation (util far beyond the cap) never converges.
        let m = model(vec![task(1, 1_000, 900), task(2, 1_000, 900)]);
        let r = response_times(&m, &[0, 0], &AnalysisOptions::default());
        assert!(!r[1].unwrap().converged);
    }

    #[test]
    fn interference_raises_bounds_and_mutation_removes_it() {
        let mut m = model(vec![task(1, 10_000, 1_000)]);
        m.interference.push(InterferenceModel {
            name: "tick".into(),
            period_us: 1_000,
            cost_us: 80,
        });
        let with = response_times(&m, &[0], &AnalysisOptions::default())[0].unwrap();
        let without = response_times(
            &m,
            &[0],
            &AnalysisOptions {
                ignore_interference: true,
                ..Default::default()
            },
        )[0]
        .unwrap();
        assert!(with.r_us > without.r_us);
        assert_eq!(without.r_us, 1_000);
    }

    #[test]
    fn aperiodic_preemptor_blocks_certification() {
        let mut m = model(vec![task(10, 10_000, 1_000)]);
        m.tasks.push(TaskModel {
            period_us: 0,
            ..task(1, 0, 400)
        });
        let r = response_times(&m, &[0, 0], &AnalysisOptions::default());
        assert!(!r[0].unwrap().converged);
        assert!(r[1].is_none());
    }
}
