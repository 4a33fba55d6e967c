//! The timed queue backing the advance-time phase: timed and periodic
//! notifications and process timeouts wait here for their deadlines.
//!
//! It is a binary min-heap ordered by `(at, seq)`. The engine keeps it
//! short: over a 1000-seed `--quick` campaign it holds 4.8 entries on
//! average and 55 at most (7 at most in the videogame co-simulation),
//! while [`TimedQueue::next_at`] runs on every fast-forward check and
//! every advance-time phase. At that size an insert is a few
//! comparisons and `next_at` is a peek; a hierarchical timing wheel's
//! O(1) insert does not pay back its level scans and cascades
//! (DESIGN.md, "The timed queue").
//!
//! * [`TimedQueue::next_at`] returns the *exact* earliest deadline —
//!   the simulation jumps straight to it;
//! * [`TimedQueue::advance_to`] delivers everything due at or before
//!   the target;
//! * entries carry a monotonic sequence number so same-instant actions
//!   fire in insertion order (the determinism guarantee);
//! * cancellation stays O(1) and external: stale entries are filtered
//!   by generation counters at delivery, and a caller may purge them
//!   from the front with [`TimedQueue::pop_while`] (the event core does
//!   so before a fast-forward check, so that a cancelled deadline does
//!   not veto the budget).

use std::cmp::Ordering;
use std::collections::binary_heap::{BinaryHeap, PeekMut};

/// A scheduled entry: an exact deadline, an insertion sequence number
/// (for same-instant FIFO ordering) and the caller's payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TimedEntry<T> {
    /// Absolute deadline (in the queue's deadline unit).
    pub at: u64,
    /// Insertion order; unique per queue.
    pub seq: u64,
    /// Caller payload (what to do when due).
    pub action: T,
}

/// Heap order of an entry: earliest `(at, seq)` on top. The payload
/// takes no part, so it needs no `Ord`.
#[derive(Debug)]
struct Earliest<T>(TimedEntry<T>);

impl<T> Earliest<T> {
    fn key(&self) -> (u64, u64) {
        (self.0.at, self.0.seq)
    }
}

impl<T> PartialEq for Earliest<T> {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}

impl<T> Eq for Earliest<T> {}

impl<T> PartialOrd for Earliest<T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<T> Ord for Earliest<T> {
    /// Reversed, because `BinaryHeap` keeps its greatest element on top.
    fn cmp(&self, other: &Self) -> Ordering {
        other.key().cmp(&self.key())
    }
}

/// A queue of actions keyed by absolute `u64` deadlines, delivered in
/// `(at, seq)` order.
///
/// Deadline units are the caller's choice: the sysc event core uses
/// picoseconds ([`crate::SimTime::as_ps`]), while the RTOS layer reuses
/// the queue for its tick-granular timer queue with tick counts as
/// deadlines. Generic over the scheduled payload.
#[derive(Debug)]
pub struct TimedQueue<T> {
    heap: BinaryHeap<Earliest<T>>,
    /// The furthest target [`TimedQueue::advance_to`] has reached.
    elapsed: u64,
    seq: u64,
}

impl<T> Default for TimedQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> TimedQueue<T> {
    /// An empty queue positioned at time zero.
    pub fn new() -> Self {
        TimedQueue {
            heap: BinaryHeap::new(),
            elapsed: 0,
            seq: 0,
        }
    }

    /// Number of pending entries (including ones a caller may consider
    /// logically cancelled).
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// `true` if nothing is pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// The queue's current position: the furthest target advanced to.
    pub fn elapsed(&self) -> u64 {
        self.elapsed
    }

    /// Schedules `action` at absolute time `at`, returning its sequence
    /// number. O(log n). A deadline at or before the current position
    /// is delivered by the next [`TimedQueue::advance_to`].
    pub fn insert(&mut self, at: u64, action: T) -> u64 {
        let seq = self.seq;
        self.seq += 1;
        self.heap.push(Earliest(TimedEntry { at, seq, action }));
        seq
    }

    /// The exact earliest pending deadline, if any. May belong to an
    /// entry the caller has logically cancelled.
    pub fn next_at(&self) -> Option<u64> {
        self.heap.peek().map(|e| e.0.at)
    }

    /// Pops entries from the front, in `(at, seq)` order, while `stale`
    /// holds for the earliest one; the popped entries are dropped. A
    /// caller that cancels entries by generation purges them here, so
    /// that [`TimedQueue::next_at`] names a live deadline.
    pub(crate) fn pop_while(&mut self, mut stale: impl FnMut(&TimedEntry<T>) -> bool) {
        while let Some(top) = self.heap.peek_mut() {
            if !stale(&top.0) {
                break;
            }
            PeekMut::pop(top);
        }
    }

    /// Pops the earliest entry if it is due at or before `t`. Popping
    /// until `None` yields what [`TimedQueue::advance_to`] would, in
    /// the same order, and lets the caller insert entries in between.
    pub fn pop_due(&mut self, t: u64) -> Option<TimedEntry<T>> {
        let top = self.heap.peek_mut()?;
        (top.0.at <= t).then(|| PeekMut::pop(top).0)
    }

    /// Advances the queue to `t`, appending every entry due at or
    /// before `t` to `due` in `(at, seq)` order.
    pub fn advance_to(&mut self, t: u64, due: &mut Vec<TimedEntry<T>>) {
        debug_assert!(t >= self.elapsed);
        while let Some(top) = self.heap.peek_mut() {
            if top.0.at > t {
                break;
            }
            due.push(PeekMut::pop(top).0);
        }
        self.elapsed = self.elapsed.max(t);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain_until<T>(w: &mut TimedQueue<T>, t: u64) -> Vec<(u64, T)> {
        let mut due = Vec::new();
        w.advance_to(t, &mut due);
        due.into_iter().map(|e| (e.at, e.action)).collect()
    }

    #[test]
    fn fires_in_time_then_insertion_order() {
        let mut w = TimedQueue::new();
        w.insert(500, "b");
        w.insert(100, "a");
        w.insert(500, "c");
        assert_eq!(w.next_at(), Some(100));
        assert_eq!(drain_until(&mut w, 100), vec![(100, "a")]);
        assert_eq!(w.next_at(), Some(500));
        assert_eq!(drain_until(&mut w, 500), vec![(500, "b"), (500, "c")]);
        assert!(w.is_empty());
        assert_eq!(w.next_at(), None);
    }

    #[test]
    fn wide_spread_of_deadlines_cascades_correctly() {
        let mut w = TimedQueue::new();
        // Deadlines spanning 9 orders of magnitude.
        let times = [
            3u64,
            64,
            65,
            4_095,
            4_097,
            1_000_000,
            999_999_999,
            1_000_000_001,
            u64::from(u32::MAX) + 17,
        ];
        for (i, t) in times.iter().enumerate() {
            w.insert(*t, i);
        }
        let mut fired = Vec::new();
        while let Some(at) = w.next_at() {
            let batch = drain_until(&mut w, at);
            assert!(batch.iter().all(|(t, _)| *t == at));
            fired.extend(batch);
        }
        let mut expect = times
            .iter()
            .copied()
            .enumerate()
            .map(|(i, t)| (t, i))
            .collect::<Vec<_>>();
        expect.sort_unstable();
        assert_eq!(fired, expect);
    }

    #[test]
    fn at_or_before_elapsed_goes_to_immediate() {
        let mut w = TimedQueue::new();
        let mut due = Vec::new();
        w.advance_to(1000, &mut due);
        assert!(due.is_empty());
        w.insert(1000, "now");
        w.insert(400, "past");
        assert_eq!(w.next_at(), Some(400));
        assert_eq!(
            drain_until(&mut w, 1000),
            vec![(400, "past"), (1000, "now")]
        );
    }

    #[test]
    fn advance_into_middle_of_higher_level_slot() {
        let mut w = TimedQueue::new();
        // A partial advance leaves the later entry pending.
        w.insert(70, "early");
        w.insert(120, "late");
        assert_eq!(drain_until(&mut w, 70), vec![(70, "early")]);
        assert_eq!(w.len(), 1);
        assert_eq!(w.next_at(), Some(120));
        assert_eq!(drain_until(&mut w, 200), vec![(120, "late")]);
    }

    #[test]
    fn pop_due_takes_only_due_entries_in_order() {
        let mut w = TimedQueue::new();
        w.insert(6, "c");
        w.insert(5, "a");
        w.insert(5, "b");
        assert_eq!(w.pop_due(4), None);
        assert_eq!(w.pop_due(5).map(|e| e.action), Some("a"));
        // An entry inserted at the due instant queues behind the others.
        w.insert(5, "d");
        let rest: Vec<_> = std::iter::from_fn(|| w.pop_due(5))
            .map(|e| e.action)
            .collect();
        assert_eq!(rest, ["b", "d"]);
        assert_eq!(w.next_at(), Some(6));
    }

    #[test]
    fn pop_while_stops_at_the_first_kept_entry() {
        let mut w = TimedQueue::new();
        w.insert(300, 3);
        w.insert(100, -1);
        w.insert(200, -2);
        w.insert(400, -4);
        w.pop_while(|e| e.action < 0);
        assert_eq!(w.next_at(), Some(300));
        assert_eq!(w.len(), 2);
        assert_eq!(drain_until(&mut w, 400), vec![(300, 3), (400, -4)]);
        w.pop_while(|_| true);
        assert!(w.is_empty());
    }

    #[test]
    fn max_deadline_is_representable() {
        let mut w = TimedQueue::new();
        w.insert(u64::MAX, "end-of-time");
        assert_eq!(w.next_at(), Some(u64::MAX));
        assert_eq!(
            drain_until(&mut w, u64::MAX),
            vec![(u64::MAX, "end-of-time")]
        );
    }
}
