//! Worst-case blocking bounds (priority inversion) per task.
//!
//! Three disciplines, three bounds:
//!
//! * **Immediate ceiling** (`TA_CEILING`): a task is blocked at most
//!   once per job, before it starts, by a single lower-priority
//!   section on a resource whose ceiling is at least its priority.
//! * **Priority inheritance** (`TA_INHERIT`): a lower-priority holder
//!   inherits the waiter's priority (transitively along chains), so
//!   each blocking section runs without medium-priority interference;
//!   a task can be blocked once per such resource.
//! * **Bare semaphore** ([`rtk_core::LockPolicy::None`]): no priority
//!   protocol at all — while the waiter queues, *medium*-priority
//!   tasks preempt the holder freely (the classic unbounded-inversion
//!   shape). The inversion is still finite here because every
//!   competitor is periodic with a declared budget: the bound is the
//!   least fixpoint of an inversion-window recurrence
//!   `W = ahead + Σ_k ceil(W/T_k)·C_k` over all other periodic tasks
//!   plus modelled interference, where `ahead` totals the critical
//!   sections that can sit between the waiter and the free semaphore
//!   (every other user under FIFO queuing; higher-priority users plus
//!   one lower section under priority queuing).
//!
//! For the ceiling/inheritance disciplines the per-resource term is
//! summed (sound; under pure PCP the single max would do), and every
//! blocking term is padded with [`PREEMPT_OVERHEAD_US`] for the
//! context switches a handoff costs on hardware (the simulated kernel
//! charges none, so the pad only makes the bound more pessimistic).

use rtk_core::{LockPolicy, SysModel, TaskModel};

use super::AnalysisOptions;

/// Sentinel bound meaning "no finite blocking bound exists" (the RTA
/// recurrence can never converge from it).
pub const UNBOUNDED_US: u64 = u64::MAX / 4;

/// Context-switch padding charged per blocking handoff and per
/// preempting job: two dispatches of about 60 machine cycles on an
/// 8051-class MCU. The simulated kernel charges no time for a switch, so
/// the pad is slack the analyzer adds, not a cost it mirrors.
pub const PREEMPT_OVERHEAD_US: u64 = 120;

/// Longest declared section of `task` on resource `r` (0 if unused).
fn section_len(model: &SysModel, task: &TaskModel, r: usize) -> u64 {
    model
        .sections_of(task)
        .iter()
        .filter(|s| s.resource == r)
        .map(|s| s.len_us)
        .max()
        .unwrap_or(0)
}

/// Computes the blocking bound for every task, in model order.
pub fn bounds(model: &SysModel, opts: &AnalysisOptions) -> Vec<u64> {
    if opts.ignore_blocking {
        return vec![0; model.tasks.len()];
    }
    model
        .tasks
        .iter()
        .map(|t| bound_for(model, t, opts))
        .collect()
}

fn bound_for(model: &SysModel, task: &TaskModel, opts: &AnalysisOptions) -> u64 {
    let mut total: u64 = 0;
    for (r, res) in model.resources.iter().enumerate() {
        let uses = section_len(model, task, r) > 0;
        let term = match res.policy {
            LockPolicy::Ceiling(c) => {
                // Blocks `task` if it uses r, or the ceiling pushes a
                // holder to (or above) task's priority.
                if uses || c <= task.priority {
                    lower_section_max(model, task, r)
                } else {
                    0
                }
            }
            LockPolicy::Inherit => {
                // Blocks `task` if it uses r, or a holder can inherit a
                // priority at or above task's from a more urgent user.
                let urgent_user = model
                    .tasks
                    .iter()
                    .any(|j| j.priority <= task.priority && section_len(model, j, r) > 0);
                if uses || urgent_user {
                    lower_section_max(model, task, r)
                } else {
                    0
                }
            }
            LockPolicy::None => {
                if uses {
                    match sem_wait_bound(model, task, r, res.pri_order, opts) {
                        Some(w) => w,
                        None => return UNBOUNDED_US,
                    }
                } else {
                    0
                }
            }
        };
        if term > 0 {
            total = total
                .saturating_add(term)
                .saturating_add(PREEMPT_OVERHEAD_US);
        }
    }
    total
}

/// Longest section on `r` among tasks strictly less urgent than `task`.
fn lower_section_max(model: &SysModel, task: &TaskModel, r: usize) -> u64 {
    model
        .tasks
        .iter()
        .filter(|j| j.priority > task.priority)
        .map(|j| section_len(model, j, r))
        .max()
        .unwrap_or(0)
}

/// Inversion-window fixpoint for a bare-semaphore resource: the
/// *decomposed* blocking term for `task` waiting on `r`. `None` when
/// the window never converges (or a non-periodic competitor makes it
/// unboundable).
///
/// The window counts only what the RTA recurrence does not already
/// charge over the full response window: the critical sections queued
/// ahead of the waiter, the handoff dispatches, and jobs of
/// *less-urgent* competitors landing inside the window (they can
/// preempt a less-urgent holder while the waiter is blocked).
/// Higher-priority jobs and the modelled interference sources are
/// charged once by RTA over `R ⊇ W`, so they are deliberately absent
/// here — the sum `C + B + hp + interference` covers everything once.
///
/// One sound exclusion keeps the term from exploding: the single
/// least-urgent lower-priority task never runs during the window
/// unless it is itself the holder. Some holder is ready for the whole
/// window, and every candidate holder is at least as urgent as that
/// task; when it *is* the holder, its section is already in `ahead`
/// and the rest of its job is preempted by the waiter.
fn sem_wait_bound(
    model: &SysModel,
    task: &TaskModel,
    r: usize,
    pri_order: bool,
    _opts: &AnalysisOptions,
) -> Option<u64> {
    // A competitor without a period cannot be bounded by job counting.
    if model
        .tasks
        .iter()
        .any(|j| j.period_us == 0 && (j.priority < task.priority || section_len(model, j, r) > 0))
    {
        return None;
    }
    let mut ahead: u64 = 0;
    let mut handoffs: u64 = 0;
    let mut lower_max: u64 = 0;
    for j in model.tasks.iter() {
        if std::ptr::eq(j, task) {
            continue;
        }
        let len = section_len(model, j, r);
        if len == 0 {
            continue;
        }
        if !pri_order || j.priority <= task.priority {
            ahead += len;
            handoffs += 1;
        } else {
            lower_max = lower_max.max(len);
        }
    }
    if pri_order && lower_max > 0 {
        // One in-flight lower-priority holder ahead of us.
        ahead += lower_max;
        handoffs += 1;
    }
    if ahead == 0 {
        return Some(0);
    }
    // Less-urgent competitors whose jobs can land inside the window,
    // minus the least urgent one (see above).
    let mut medium: Vec<&TaskModel> = model
        .tasks
        .iter()
        .filter(|k| !std::ptr::eq(*k, task) && k.period_us > 0 && k.priority > task.priority)
        .collect();
    if let Some(least) = medium.iter().map(|k| k.priority).max() {
        let pos = medium.iter().position(|k| k.priority == least).unwrap();
        medium.remove(pos);
    }
    let base = ahead + handoffs * PREEMPT_OVERHEAD_US;
    // The window is bounded by each waiter's own deadline: past it the
    // verdict is "not certified" anyway, so cap the search there (with
    // slack so a near-miss is reported as the bound it is).
    let cap = task
        .deadline_us
        .saturating_mul(4)
        .max(base.saturating_mul(4));
    let mut w = base;
    loop {
        let mut next = base;
        for k in &medium {
            next += w.div_ceil(k.period_us) * (k.cost_us + PREEMPT_OVERHEAD_US);
        }
        if next == w {
            return Some(w);
        }
        if next > cap {
            return None;
        }
        w = next;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtk_core::{ResourceModel, SectionModel, SysModel, TaskModel};

    fn task(pri: u8, period_us: u64, cost_us: u64, secs: Vec<SectionModel>) -> TaskModel {
        TaskModel {
            name: format!("p{pri}"),
            priority: pri,
            period_us,
            offset_us: 0,
            deadline_us: period_us,
            cost_us,
            sections: secs,
            measured: true,
        }
    }

    fn with_resource(policy: LockPolicy, pri_order: bool, tasks: Vec<TaskModel>) -> SysModel {
        let mut m = SysModel::empty();
        m.resources.push(ResourceModel {
            name: "r0".into(),
            policy,
            pri_order,
        });
        m.tasks = tasks;
        m.timing_complete = true;
        m
    }

    #[test]
    fn ceiling_blocks_once_by_longest_lower_section() {
        let m = with_resource(
            LockPolicy::Ceiling(10),
            true,
            vec![
                task(10, 10_000, 500, vec![SectionModel::leaf(0, 100)]),
                task(20, 20_000, 500, vec![SectionModel::leaf(0, 300)]),
                task(30, 40_000, 500, vec![SectionModel::leaf(0, 200)]),
            ],
        );
        let b = bounds(&m, &AnalysisOptions::default());
        // Highest task: blocked by the longest lower section (300).
        assert_eq!(b[0], 300 + PREEMPT_OVERHEAD_US);
        // Lowest task: nobody lower to block it.
        assert_eq!(b[2], 0);
    }

    #[test]
    fn ceiling_push_through_blocks_non_users() {
        // Task 10 never touches r0, but the ceiling (5) lifts holders
        // above it.
        let m = with_resource(
            LockPolicy::Ceiling(5),
            true,
            vec![
                task(10, 10_000, 500, vec![]),
                task(20, 20_000, 500, vec![SectionModel::leaf(0, 250)]),
            ],
        );
        let b = bounds(&m, &AnalysisOptions::default());
        assert_eq!(b[0], 250 + PREEMPT_OVERHEAD_US);
    }

    #[test]
    fn inherit_push_through_requires_urgent_user() {
        // r0 is shared by priorities 20 and 30 only; priority 10 never
        // waits and no inheritance can reach or exceed it.
        let m = with_resource(
            LockPolicy::Inherit,
            true,
            vec![
                task(10, 10_000, 500, vec![]),
                task(20, 20_000, 500, vec![SectionModel::leaf(0, 250)]),
                task(30, 40_000, 500, vec![SectionModel::leaf(0, 100)]),
            ],
        );
        let b = bounds(&m, &AnalysisOptions::default());
        assert_eq!(b[0], 0);
        assert!(b[1] > 0);
    }

    #[test]
    fn sem_fifo_window_sums_all_other_users() {
        let m = with_resource(
            LockPolicy::None,
            false,
            vec![
                task(10, 100_000, 500, vec![SectionModel::leaf(0, 100)]),
                task(20, 100_000, 500, vec![SectionModel::leaf(0, 100)]),
                task(30, 100_000, 500, vec![SectionModel::leaf(0, 100)]),
            ],
        );
        let b = bounds(&m, &AnalysisOptions::default());
        // Everyone can queue behind the other two sections, plus the
        // competitors' own jobs landing inside the window.
        for &bi in &b {
            assert!(bi >= 200, "window must cover both other sections: {bi}");
            assert!(bi < 100_000, "window must converge well under the period");
        }
    }

    #[test]
    fn sem_priority_window_smaller_for_urgent_task() {
        let mk = |pri_order| {
            with_resource(
                LockPolicy::None,
                pri_order,
                vec![
                    task(10, 100_000, 2_000, vec![SectionModel::leaf(0, 400)]),
                    task(20, 100_000, 2_000, vec![SectionModel::leaf(0, 400)]),
                    task(30, 100_000, 2_000, vec![SectionModel::leaf(0, 400)]),
                ],
            )
        };
        let fifo = bounds(&mk(false), &AnalysisOptions::default());
        let prio = bounds(&mk(true), &AnalysisOptions::default());
        // The most urgent task jumps the priority queue: only one
        // in-flight lower section ahead of it instead of two.
        assert!(prio[0] < fifo[0], "prio {} vs fifo {}", prio[0], fifo[0]);
    }

    #[test]
    fn aperiodic_competitor_makes_sem_wait_unbounded() {
        let m = with_resource(
            LockPolicy::None,
            false,
            vec![
                task(10, 10_000, 500, vec![SectionModel::leaf(0, 100)]),
                task(20, 0, 500, vec![SectionModel::leaf(0, 100)]),
            ],
        );
        let b = bounds(&m, &AnalysisOptions::default());
        assert_eq!(b[0], UNBOUNDED_US);
    }

    #[test]
    fn ignore_blocking_mutation_zeroes_everything() {
        let m = with_resource(
            LockPolicy::Ceiling(10),
            true,
            vec![
                task(10, 10_000, 500, vec![SectionModel::leaf(0, 100)]),
                task(20, 20_000, 500, vec![SectionModel::leaf(0, 300)]),
            ],
        );
        let b = bounds(
            &m,
            &AnalysisOptions {
                ignore_blocking: true,
                ..Default::default()
            },
        );
        assert_eq!(b, vec![0, 0]);
    }
}
