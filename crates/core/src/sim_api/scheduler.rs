//! Pluggable ready-queue schedulers.
//!
//! The paper's SIM_API "interacts directly with external schedulers to
//! schedule the next T-THREAD to run" and was validated with three
//! kernels: RTK-Spec I (round robin), RTK-Spec II (priority preemptive)
//! and RTK-Spec TRON (T-Kernel, priority preemptive). The [`Scheduler`]
//! trait is that plug-in point; [`PriorityScheduler`] and
//! [`RoundRobinScheduler`] are the two policies used by those kernels.

use std::collections::VecDeque;

use crate::config::Priority;
use crate::ids::TaskId;

/// A ready-queue policy. The kernel tells the scheduler which tasks are
/// ready (with their current priority); the scheduler decides who runs
/// next and whether the running task should be preempted.
pub trait Scheduler {
    /// Adds a task to the ready set. `at_head` requeues a preempted task
    /// before its priority peers (µ-ITRON preemption rule).
    fn enqueue(&mut self, tid: TaskId, pri: Priority, at_head: bool);

    /// Removes a task from the ready set (it blocked, was suspended, or
    /// was terminated).
    fn remove(&mut self, tid: TaskId);

    /// The next candidate without removing it.
    fn peek(&self) -> Option<TaskId>;

    /// Takes the next candidate out of the ready set.
    fn pop(&mut self) -> Option<TaskId>;

    /// `true` if the head candidate should preempt a running task of
    /// priority `running_pri`.
    fn should_preempt(&self, running_pri: Priority) -> bool;

    /// Re-sorts a task after a priority change.
    fn reprioritize(&mut self, tid: TaskId, new_pri: Priority);

    /// Rotates the ready queue of one priority level (`tk_rot_rdq`).
    fn rotate(&mut self, pri: Priority);

    /// Called on every system tick with the running task (if any);
    /// returns `true` if the policy wants the running task preempted
    /// (round-robin time slicing).
    fn on_tick(&mut self, running: Option<TaskId>) -> bool;

    /// Policy name for DS listings.
    fn name(&self) -> &'static str;

    /// Number of ready tasks.
    fn len(&self) -> usize;

    /// `true` if no task is ready.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Priority-preemptive scheduler: a bitmap of non-empty levels plus one
/// FIFO per level. Lower numeric priority runs first. This is the
/// T-Kernel (and RTK-Spec II) policy.
///
/// Bit `l` of the bitmap is set exactly while level `l` (priority
/// `l + 1`) holds a ready task; 256 bits cover every [`Priority`]. The
/// highest ready level is the lowest set bit, so `peek`, `pop` and
/// `should_preempt` read at most four words instead of every level.
#[derive(Debug)]
pub struct PriorityScheduler {
    /// One FIFO per level; `pri -> level index` is `pri - 1`
    /// (priorities are 1-based).
    levels: Vec<VecDeque<TaskId>>,
    /// Non-empty levels: bit `l % 64` of word `l / 64`.
    ready: [u64; 4],
    count: usize,
    /// Cached priority of each enqueued task (index = raw id - 1).
    pris: Vec<Option<Priority>>,
}

impl PriorityScheduler {
    /// Creates a scheduler with `max_priority` levels (1..=max).
    pub fn new(max_priority: Priority) -> Self {
        PriorityScheduler {
            levels: (0..max_priority as usize)
                .map(|_| VecDeque::new())
                .collect(),
            ready: [0; 4],
            count: 0,
            pris: Vec::new(),
        }
    }

    fn slot(&mut self, tid: TaskId) -> &mut Option<Priority> {
        let idx = tid.raw() as usize - 1;
        if self.pris.len() <= idx {
            self.pris.resize(idx + 1, None);
        }
        &mut self.pris[idx]
    }

    fn highest_level(&self) -> Option<usize> {
        let (w, bits) = self.ready.iter().enumerate().find(|(_, b)| **b != 0)?;
        Some(w * 64 + bits.trailing_zeros() as usize)
    }

    /// Re-derives level `l`'s bit after its FIFO changed.
    fn sync_level(&mut self, l: usize) {
        let bit = 1u64 << (l % 64);
        if self.levels[l].is_empty() {
            self.ready[l / 64] &= !bit;
        } else {
            self.ready[l / 64] |= bit;
        }
    }
}

impl Scheduler for PriorityScheduler {
    fn enqueue(&mut self, tid: TaskId, pri: Priority, at_head: bool) {
        debug_assert!(pri >= 1 && (pri as usize) <= self.levels.len());
        *self.slot(tid) = Some(pri);
        let l = pri as usize - 1;
        let q = &mut self.levels[l];
        if at_head {
            q.push_front(tid);
        } else {
            q.push_back(tid);
        }
        self.sync_level(l);
        self.count += 1;
    }

    fn remove(&mut self, tid: TaskId) {
        let Some(pri) = self.slot(tid).take() else {
            return;
        };
        let l = pri as usize - 1;
        let q = &mut self.levels[l];
        if let Some(pos) = q.iter().position(|t| *t == tid) {
            q.remove(pos);
            self.sync_level(l);
            self.count -= 1;
        }
    }

    fn peek(&self) -> Option<TaskId> {
        self.highest_level()
            .and_then(|l| self.levels[l].front().copied())
    }

    fn pop(&mut self) -> Option<TaskId> {
        let l = self.highest_level()?;
        let tid = self.levels[l].pop_front()?;
        self.sync_level(l);
        *self.slot(tid) = None;
        self.count -= 1;
        Some(tid)
    }

    fn should_preempt(&self, running_pri: Priority) -> bool {
        match self.highest_level() {
            Some(l) => (l as Priority + 1) < running_pri,
            None => false,
        }
    }

    fn reprioritize(&mut self, tid: TaskId, new_pri: Priority) {
        if self.slot(tid).is_some() {
            self.remove(tid);
            // A reprioritized task goes to the tail of its new level
            // (µ-ITRON `tk_chg_pri` rule).
            self.enqueue(tid, new_pri, false);
        }
    }

    fn rotate(&mut self, pri: Priority) {
        let q = &mut self.levels[pri as usize - 1];
        if let Some(front) = q.pop_front() {
            q.push_back(front);
        }
    }

    fn on_tick(&mut self, _running: Option<TaskId>) -> bool {
        false
    }

    fn name(&self) -> &'static str {
        "priority-preemptive"
    }

    fn len(&self) -> usize {
        self.count
    }
}

/// Round-robin scheduler with a fixed time slice in ticks: the RTK-Spec I
/// policy. Priorities are ignored; every `slice_ticks` ticks the running
/// task is preempted and requeued at the tail.
#[derive(Debug)]
pub struct RoundRobinScheduler {
    queue: VecDeque<TaskId>,
    slice_ticks: u64,
    elapsed_in_slice: u64,
}

impl RoundRobinScheduler {
    /// Creates a round-robin scheduler preempting every `slice_ticks`
    /// ticks.
    ///
    /// # Panics
    ///
    /// Panics if `slice_ticks` is zero.
    pub fn new(slice_ticks: u64) -> Self {
        assert!(slice_ticks > 0, "time slice must be at least one tick");
        RoundRobinScheduler {
            queue: VecDeque::new(),
            slice_ticks,
            elapsed_in_slice: 0,
        }
    }
}

impl Scheduler for RoundRobinScheduler {
    fn enqueue(&mut self, tid: TaskId, _pri: Priority, at_head: bool) {
        if at_head {
            self.queue.push_front(tid);
        } else {
            self.queue.push_back(tid);
        }
    }

    fn remove(&mut self, tid: TaskId) {
        if let Some(pos) = self.queue.iter().position(|t| *t == tid) {
            self.queue.remove(pos);
        }
    }

    fn peek(&self) -> Option<TaskId> {
        self.queue.front().copied()
    }

    fn pop(&mut self) -> Option<TaskId> {
        self.elapsed_in_slice = 0;
        self.queue.pop_front()
    }

    fn should_preempt(&self, _running_pri: Priority) -> bool {
        false
    }

    fn reprioritize(&mut self, _tid: TaskId, _new_pri: Priority) {}

    fn rotate(&mut self, _pri: Priority) {
        if let Some(front) = self.queue.pop_front() {
            self.queue.push_back(front);
        }
    }

    fn on_tick(&mut self, running: Option<TaskId>) -> bool {
        if running.is_none() {
            self.elapsed_in_slice = 0;
            return false;
        }
        self.elapsed_in_slice += 1;
        if self.elapsed_in_slice >= self.slice_ticks && !self.queue.is_empty() {
            self.elapsed_in_slice = 0;
            true
        } else {
            false
        }
    }

    fn name(&self) -> &'static str {
        "round-robin"
    }

    fn len(&self) -> usize {
        self.queue.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(n: u32) -> TaskId {
        TaskId(n)
    }

    #[test]
    fn priority_order_and_fifo_ties() {
        let mut s = PriorityScheduler::new(16);
        s.enqueue(t(1), 5, false);
        s.enqueue(t(2), 3, false);
        s.enqueue(t(3), 5, false);
        s.enqueue(t(4), 3, false);
        assert_eq!(s.len(), 4);
        assert_eq!(s.pop(), Some(t(2)));
        assert_eq!(s.pop(), Some(t(4)));
        assert_eq!(s.pop(), Some(t(1)));
        assert_eq!(s.pop(), Some(t(3)));
        assert_eq!(s.pop(), None);
        assert!(s.is_empty());
    }

    #[test]
    fn preempted_task_requeues_at_head() {
        let mut s = PriorityScheduler::new(16);
        s.enqueue(t(1), 5, false);
        s.enqueue(t(2), 5, true); // preempted: goes first
        assert_eq!(s.pop(), Some(t(2)));
        assert_eq!(s.pop(), Some(t(1)));
    }

    #[test]
    fn should_preempt_is_strict() {
        let mut s = PriorityScheduler::new(16);
        s.enqueue(t(1), 5, false);
        assert!(s.should_preempt(6));
        assert!(!s.should_preempt(5)); // equal priority never preempts
        assert!(!s.should_preempt(4));
    }

    #[test]
    fn remove_mid_queue() {
        let mut s = PriorityScheduler::new(16);
        s.enqueue(t(1), 5, false);
        s.enqueue(t(2), 5, false);
        s.enqueue(t(3), 5, false);
        s.remove(t(2));
        assert_eq!(s.len(), 2);
        assert_eq!(s.pop(), Some(t(1)));
        assert_eq!(s.pop(), Some(t(3)));
        // Removing an absent task is a no-op.
        s.remove(t(9));
    }

    #[test]
    fn reprioritize_moves_to_new_level_tail() {
        let mut s = PriorityScheduler::new(16);
        s.enqueue(t(1), 5, false);
        s.enqueue(t(2), 3, false);
        s.reprioritize(t(1), 3);
        assert_eq!(s.pop(), Some(t(2)));
        assert_eq!(s.pop(), Some(t(1)));
    }

    #[test]
    fn rotate_cycles_one_level() {
        let mut s = PriorityScheduler::new(16);
        s.enqueue(t(1), 7, false);
        s.enqueue(t(2), 7, false);
        s.enqueue(t(3), 7, false);
        s.rotate(7);
        assert_eq!(s.pop(), Some(t(2)));
        assert_eq!(s.pop(), Some(t(3)));
        assert_eq!(s.pop(), Some(t(1)));
    }

    #[test]
    fn round_robin_slices() {
        let mut s = RoundRobinScheduler::new(3);
        s.enqueue(t(1), 1, false);
        s.enqueue(t(2), 1, false);
        assert_eq!(s.pop(), Some(t(1)));
        // t1 runs; two ticks pass without preemption, third triggers it.
        assert!(!s.on_tick(Some(t(1))));
        assert!(!s.on_tick(Some(t(1))));
        assert!(s.on_tick(Some(t(1))));
        // No preemption when the queue is empty.
        let mut s2 = RoundRobinScheduler::new(1);
        s2.enqueue(t(1), 1, false);
        assert_eq!(s2.pop(), Some(t(1)));
        assert!(!s2.on_tick(Some(t(1))));
    }

    #[test]
    fn round_robin_ignores_priority() {
        let mut s = RoundRobinScheduler::new(1);
        s.enqueue(t(1), 10, false);
        s.enqueue(t(2), 1, false);
        assert_eq!(s.pop(), Some(t(1))); // FIFO, not priority
        assert!(!s.should_preempt(200));
    }

    #[test]
    #[should_panic(expected = "at least one tick")]
    fn round_robin_rejects_zero_slice() {
        let _ = RoundRobinScheduler::new(0);
    }
}
