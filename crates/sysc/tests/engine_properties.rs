//! Property-based tests of the discrete-event engine: temporal ordering,
//! determinism, and notification-rule invariants under random inputs.

use std::sync::{Arc, Mutex};

use proptest::prelude::*;
use sysc::{RunOutcome, SimTime, Simulation, SpawnMode};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Timed notifications fire in non-decreasing time order regardless
    /// of the order they were scheduled in, and every distinct event
    /// fires exactly once.
    #[test]
    fn timed_events_fire_in_time_order(delays in proptest::collection::vec(1u64..10_000, 1..40)) {
        let mut sim = Simulation::new();
        let h = sim.handle();
        let fired: Arc<Mutex<Vec<(u64, usize)>>> = Arc::new(Mutex::new(Vec::new()));
        for (i, d) in delays.iter().enumerate() {
            let e = h.create_event();
            let f = Arc::clone(&fired);
            h.spawn_thread(SpawnMode::WaitEvent(e), move |ctx| {
                f.lock().unwrap().push((ctx.now().as_us(), i));
            });
            h.notify_after(e, SimTime::from_us(*d));
        }
        prop_assert_eq!(sim.run_to_completion(), RunOutcome::Starved);
        let fired = fired.lock().unwrap().clone();
        prop_assert_eq!(fired.len(), delays.len());
        // Times non-decreasing.
        for w in fired.windows(2) {
            prop_assert!(w[0].0 <= w[1].0, "out of order: {w:?}");
        }
        // Each waiter woke at its own delay.
        for (t, i) in &fired {
            prop_assert_eq!(*t, delays[*i]);
        }
    }

    /// The engine is deterministic: the same random program produces the
    /// same execution log twice.
    #[test]
    fn random_programs_are_deterministic(
        procs in proptest::collection::vec((1u64..500, 1u8..5), 2..8),
    ) {
        fn run(procs: &[(u64, u8)]) -> Vec<String> {
            let mut sim = Simulation::new();
            let h = sim.handle();
            let log: Arc<Mutex<Vec<String>>> = Arc::new(Mutex::new(Vec::new()));
            let sync = h.create_event();
            for (i, (delay, rounds)) in procs.iter().enumerate() {
                let (delay, rounds) = (*delay, *rounds);
                let l = Arc::clone(&log);
                h.spawn_thread(SpawnMode::Immediate, move |ctx| {
                    for r in 0..rounds {
                        ctx.wait_time(SimTime::from_us(delay));
                        l.lock().unwrap().push(format!("p{i}r{r}@{}", ctx.now()));
                        if i == 0 {
                            ctx.handle().notify(sync);
                        }
                    }
                });
            }
            sim.run_to_completion();
            let out = log.lock().unwrap().clone();
            out
        }
        prop_assert_eq!(run(&procs), run(&procs));
    }

    /// The sc_event override rule: of several timed notifications on the
    /// SAME event, the earliest pending one wins and the event fires
    /// exactly once per notification "generation".
    #[test]
    fn earliest_pending_notification_wins(delays in proptest::collection::vec(1u64..1000, 2..12)) {
        let mut sim = Simulation::new();
        let h = sim.handle();
        let e = h.create_event();
        let fired_at: Arc<Mutex<Vec<u64>>> = Arc::new(Mutex::new(Vec::new()));
        let f = Arc::clone(&fired_at);
        let h2 = h.clone();
        h.spawn_method(&[e], move || {
            f.lock().unwrap().push(h2.now().as_us());
        });
        for d in &delays {
            h.notify_after(e, SimTime::from_us(*d));
        }
        sim.run_to_completion();
        let fired = fired_at.lock().unwrap().clone();
        let min = *delays.iter().min().unwrap();
        prop_assert_eq!(fired, vec![min]);
    }

    /// Periodic events tick exactly floor(horizon/period) times.
    #[test]
    fn periodic_events_tick_exactly(period_us in 10u64..500, horizon_ms in 1u64..20) {
        let mut sim = Simulation::new();
        let h = sim.handle();
        let e = h.create_event();
        h.make_periodic(e, SimTime::from_us(period_us), SimTime::from_us(period_us));
        sim.run_until(SimTime::from_ms(horizon_ms));
        let expected = SimTime::from_ms(horizon_ms) / SimTime::from_us(period_us);
        prop_assert_eq!(sim.handle().event_fire_count(e), expected);
    }

    /// The hierarchical timing wheel delivers exactly what a reference
    /// `(at, seq)`-ordered binary heap delivers — same entries, same
    /// order — under randomized interleavings of inserts and advances.
    #[test]
    fn wheel_matches_reference_heap(ops in proptest::collection::vec((0u64..50_000, 0u8..4), 1..200)) {
        use std::cmp::Reverse;
        use std::collections::BinaryHeap;

        let mut wheel: sysc::TimedQueue<u64> = sysc::TimedQueue::new();
        let mut heap: BinaryHeap<Reverse<(u64, u64)>> = BinaryHeap::new();
        let mut now = 0u64;
        let mut seq = 0u64;
        let mut due = Vec::new();

        let mut drain_to = |target: u64,
                            wheel: &mut sysc::TimedQueue<u64>,
                            heap: &mut BinaryHeap<Reverse<(u64, u64)>>|
         -> Result<(), TestCaseError> {
            let mut expect = Vec::new();
            while heap.peek().is_some_and(|Reverse((at, _))| *at <= target) {
                let Reverse(e) = heap.pop().expect("peeked");
                expect.push(e);
            }
            due.clear();
            wheel.advance_to(target, &mut due);
            let got: Vec<(u64, u64)> = due.iter().map(|e| (e.at, e.action)).collect();
            prop_assert_eq!(got, expect, "divergence advancing to {}", target);
            Ok(())
        };

        for (delay, kind) in ops {
            if kind == 0 && !heap.is_empty() {
                // Advance to the earliest pending deadline (what the
                // scheduler's advance-time phase does).
                let target = heap.peek().map(|Reverse((at, _))| *at).expect("non-empty");
                prop_assert_eq!(wheel.next_at(), Some(target));
                drain_to(target, &mut wheel, &mut heap)?;
                now = now.max(target);
            } else {
                let at = now + delay;
                heap.push(Reverse((at, seq)));
                wheel.insert(at, seq);
                seq += 1;
            }
        }
        // Drain everything left.
        drain_to(u64::MAX, &mut wheel, &mut heap)?;
        prop_assert!(wheel.is_empty());
    }

    /// Randomized `notify_after`/`cancel`/`make_periodic` schedules on
    /// one event, run through the engine (and thus the wheel), fire at
    /// exactly the times the `sc_event` rules predict: earliest pending
    /// notification wins, cancel clears, a periodic event re-arms one
    /// period after each firing.
    #[test]
    fn wheel_backed_notifications_match_sc_event_rules(
        cmds in proptest::collection::vec((0u8..8, 1u64..2_000), 1..24),
        period_us in 50u64..400,
        periodic in proptest::any::<bool>(),
    ) {
        const HORIZON_US: u64 = 10_000;
        let mut sim = Simulation::new();
        let h = sim.handle();
        let e = h.create_event();
        let fired: Arc<Mutex<Vec<u64>>> = Arc::new(Mutex::new(Vec::new()));
        let f = Arc::clone(&fired);
        let h2 = h.clone();
        h.spawn_method(&[e], move || {
            f.lock().unwrap().push(h2.now().as_us());
        });

        // Reference model of the single-pending-notification rule.
        let mut pending: Option<u64> = None;
        for (kind, d) in &cmds {
            if *kind == 0 {
                h.cancel(e);
                pending = None;
            } else {
                h.notify_after(e, SimTime::from_us(*d));
                pending = Some(pending.map_or(*d, |p| p.min(*d)));
            }
        }
        if periodic {
            h.make_periodic(e, SimTime::from_us(period_us), SimTime::from_us(period_us));
            pending = Some(pending.map_or(period_us, |p| p.min(period_us)));
        }

        sim.run_until(SimTime::from_us(HORIZON_US));

        let mut expect = Vec::new();
        if let Some(t0) = pending {
            if periodic {
                let mut t = t0;
                while t <= HORIZON_US {
                    expect.push(t);
                    t += period_us;
                }
            } else if t0 <= HORIZON_US {
                expect.push(t0);
            }
        }
        let fired = fired.lock().unwrap().clone();
        prop_assert_eq!(fired, expect);
    }

    /// Same wheel-vs-heap differential, but with deadline deltas spread
    /// over the full `u64` range (far beyond one rotation of any wheel
    /// level) and advances to arbitrary non-deadline targets, so
    /// high-level cascades and partial-slot re-filing are exercised.
    /// A long deadline must come back out at its exact residual — never
    /// early, never saturated to a nearer slot.
    #[test]
    fn wheel_preserves_residuals_beyond_one_rotation(
        ops in proptest::collection::vec((0u32..64, any::<u64>(), 0u8..3), 1..120),
    ) {
        use std::cmp::Reverse;
        use std::collections::BinaryHeap;

        let mut wheel: sysc::TimedQueue<u64> = sysc::TimedQueue::new();
        let mut heap: BinaryHeap<Reverse<(u64, u64)>> = BinaryHeap::new();
        let mut now = 0u64;
        let mut seq = 0u64;
        let mut due = Vec::new();

        for (magnitude, raw, kind) in ops {
            // Exponentially distributed delta: up to 2^magnitude.
            let delta = raw % (1u64 << magnitude.min(63)).max(1);
            if kind == 0 {
                // Advance to an arbitrary target (not necessarily a
                // deadline) — the run_until(limit) shape.
                let target = now.saturating_add(delta);
                let mut expect = Vec::new();
                while heap.peek().is_some_and(|Reverse((at, _))| *at <= target) {
                    let Reverse(e) = heap.pop().expect("peeked");
                    expect.push(e);
                }
                let expect_next = expect
                    .iter()
                    .map(|&(at, _)| at)
                    .chain(heap.peek().map(|Reverse((at, _))| *at))
                    .min();
                prop_assert_eq!(wheel.next_at(), expect_next);
                due.clear();
                wheel.advance_to(target, &mut due);
                let got: Vec<(u64, u64)> = due.iter().map(|e| (e.at, e.action)).collect();
                prop_assert_eq!(got, expect, "divergence advancing to {}", target);
                now = target;
            } else {
                let at = now.saturating_add(delta);
                heap.push(Reverse((at, seq)));
                wheel.insert(at, seq);
                seq += 1;
            }
        }
        let mut expect = Vec::new();
        while let Some(Reverse(e)) = heap.pop() {
            expect.push(e);
        }
        due.clear();
        wheel.advance_to(u64::MAX, &mut due);
        let got: Vec<(u64, u64)> = due.iter().map(|e| (e.at, e.action)).collect();
        prop_assert_eq!(got, expect, "final drain diverged");
        prop_assert!(wheel.is_empty());
    }

    /// A timeout so large that `now + d` exceeds the representable time
    /// range must clamp to end-of-time (effectively never) — not wrap
    /// around and fire immediately. The event path must still win.
    #[test]
    fn huge_timeouts_never_fire_early(fire_at_us in 1u64..5_000) {
        let mut sim = Simulation::new();
        let h = sim.handle();
        let e = h.create_event();
        let woke: Arc<Mutex<Vec<(u64, bool)>>> = Arc::new(Mutex::new(Vec::new()));
        let w = Arc::clone(&woke);
        h.spawn_thread(SpawnMode::Immediate, move |ctx| {
            // Effectively-forever timeout: would overflow `u64` ps.
            let outcome = ctx.wait_event_timeout(e, SimTime::MAX);
            w.lock()
                .unwrap()
                .push((ctx.now().as_us(), outcome == sysc::WaitOutcome::Fired));
        });
        h.notify_after(e, SimTime::from_us(fire_at_us));
        sim.run_until(SimTime::from_ms(100));
        let woke = woke.lock().unwrap().clone();
        prop_assert_eq!(woke, vec![(fire_at_us, true)]);
    }

    /// Killing random subsets of processes never deadlocks the engine
    /// and the survivors finish.
    #[test]
    fn kill_any_subset_is_safe(kill_mask in 0u32..256) {
        let mut sim = Simulation::new();
        let h = sim.handle();
        let done = Arc::new(std::sync::atomic::AtomicU32::new(0));
        let mut ids = Vec::new();
        for _ in 0..8 {
            let d = Arc::clone(&done);
            let pid = h.spawn_thread(SpawnMode::Immediate, move |ctx| {
                ctx.wait_time(SimTime::from_ms(5));
                d.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
            });
            ids.push(pid);
        }
        sim.run_until(SimTime::from_ms(1));
        let mut killed = 0;
        for (i, pid) in ids.iter().enumerate() {
            if kill_mask & (1 << i) != 0 {
                sim.handle().kill(*pid);
                killed += 1;
            }
        }
        prop_assert_eq!(sim.run_to_completion(), RunOutcome::Starved);
        prop_assert_eq!(
            done.load(std::sync::atomic::Ordering::SeqCst),
            8 - killed
        );
    }
}
