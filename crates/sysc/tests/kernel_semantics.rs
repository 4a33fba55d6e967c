//! Semantic tests for the sysc discrete-event kernel: scheduling order,
//! notification rules, delta cycles, waits, kills and panics.

use std::cell::{Cell, RefCell};
use std::rc::Rc;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use sysc::{ProcId, RunOutcome, Signal, SimTime, Simulation, SpawnMode, Tracer, WaitOutcome};

fn ms(v: u64) -> SimTime {
    SimTime::from_ms(v)
}
fn us(v: u64) -> SimTime {
    SimTime::from_us(v)
}

/// Shared log used to assert deterministic ordering.
#[derive(Clone, Default)]
struct Log(Arc<Mutex<Vec<String>>>);

impl Log {
    fn push(&self, s: impl Into<String>) {
        self.0.lock().unwrap().push(s.into());
    }
    fn take(&self) -> Vec<String> {
        std::mem::take(&mut self.0.lock().unwrap())
    }
}

#[test]
fn empty_simulation_starves_immediately() {
    let mut sim = Simulation::new();
    assert_eq!(sim.run_to_completion(), RunOutcome::Starved);
    assert_eq!(sim.now(), SimTime::ZERO);
}

#[test]
fn wait_time_advances_clock() {
    let mut sim = Simulation::new();
    let log = Log::default();
    let l = log.clone();
    sim.handle().spawn_thread(SpawnMode::Immediate, move |ctx| {
        l.push(format!("start@{}", ctx.now()));
        ctx.wait_time(us(100));
        l.push(format!("mid@{}", ctx.now()));
        ctx.wait_time(us(250));
        l.push(format!("end@{}", ctx.now()));
    });
    assert_eq!(sim.run_to_completion(), RunOutcome::Starved);
    assert_eq!(log.take(), vec!["start@0 s", "mid@100 us", "end@350 us"]);
    assert_eq!(sim.now(), us(350));
}

#[test]
fn run_until_pauses_and_resumes() {
    let mut sim = Simulation::new();
    let counter = Arc::new(AtomicU64::new(0));
    let c = Arc::clone(&counter);
    sim.handle()
        .spawn_thread(SpawnMode::Immediate, move |ctx| loop {
            ctx.wait_time(ms(1));
            c.fetch_add(1, Ordering::SeqCst);
        });
    assert_eq!(sim.run_until(ms(5)), RunOutcome::ReachedLimit);
    assert_eq!(counter.load(Ordering::SeqCst), 5);
    assert_eq!(sim.now(), ms(5));
    assert_eq!(sim.run_until(ms(12)), RunOutcome::ReachedLimit);
    assert_eq!(counter.load(Ordering::SeqCst), 12);
}

#[test]
fn processes_run_in_spawn_order_within_a_phase() {
    let mut sim = Simulation::new();
    let log = Log::default();
    for i in 0..5 {
        let l = log.clone();
        sim.handle()
            .spawn_thread(SpawnMode::Immediate, move |_ctx| {
                l.push(format!("p{i}"));
            });
    }
    sim.run_to_completion();
    assert_eq!(log.take(), vec!["p0", "p1", "p2", "p3", "p4"]);
}

#[test]
fn immediate_notification_wakes_in_same_eval_phase() {
    let mut sim = Simulation::new();
    let h = sim.handle();
    let e = h.create_event();
    let log = Log::default();

    let l = log.clone();
    h.spawn_thread(SpawnMode::Immediate, move |ctx| {
        ctx.wait_event(e);
        l.push(format!("woken@{}", ctx.now()));
    });
    let l = log.clone();
    h.spawn_thread(SpawnMode::Immediate, move |ctx| {
        ctx.handle().notify(e);
        l.push("notified".to_string());
    });
    sim.run_to_completion();
    // Waiter runs first (spawn order), waits; notifier fires immediately;
    // waiter wakes within the same evaluation phase at time zero.
    assert_eq!(log.take(), vec!["notified", "woken@0 s"]);
}

#[test]
fn delta_notification_wakes_one_delta_later() {
    let mut sim = Simulation::new();
    let h = sim.handle();
    let e = h.create_event();
    let log = Log::default();

    let l = log.clone();
    h.spawn_thread(SpawnMode::Immediate, move |ctx| {
        ctx.wait_event(e);
        l.push("woken".to_string());
    });
    let l = log.clone();
    h.spawn_thread(SpawnMode::Immediate, move |ctx| {
        ctx.handle().notify_delta(e);
        l.push("posted".to_string());
        ctx.wait_time(SimTime::ZERO);
        l.push("after-delta".to_string());
    });
    sim.run_to_completion();
    let entries = log.take();
    assert_eq!(entries[0], "posted");
    // Both wake in the next delta; waiter was registered first.
    assert_eq!(entries[1], "woken");
    assert_eq!(entries[2], "after-delta");
}

#[test]
fn timed_notification_fires_at_the_right_time() {
    let mut sim = Simulation::new();
    let h = sim.handle();
    let e = h.create_event();
    let log = Log::default();
    let l = log.clone();
    h.spawn_thread(SpawnMode::Immediate, move |ctx| {
        ctx.wait_event(e);
        l.push(format!("woken@{}", ctx.now()));
    });
    h.notify_after(e, us(777));
    sim.run_to_completion();
    assert_eq!(log.take(), vec!["woken@777 us"]);
}

#[test]
fn earlier_timed_notification_overrides_later() {
    let mut sim = Simulation::new();
    let h = sim.handle();
    let e = h.create_event();
    h.notify_after(e, us(500));
    h.notify_after(e, us(100)); // earlier wins
    h.notify_after(e, us(900)); // ignored: later than pending
    let log = Log::default();
    let l = log.clone();
    h.spawn_thread(SpawnMode::Immediate, move |ctx| {
        ctx.wait_event(e);
        l.push(format!("woken@{}", ctx.now()));
    });
    sim.run_to_completion();
    assert_eq!(log.take(), vec!["woken@100 us"]);
    assert_eq!(sim.handle().event_fire_count(e), 1);
}

#[test]
fn cancel_removes_pending_notification() {
    let mut sim = Simulation::new();
    let h = sim.handle();
    let e = h.create_event();
    h.notify_after(e, us(100));
    h.cancel(e);
    assert_eq!(sim.run_to_completion(), RunOutcome::Starved);
    assert_eq!(sim.handle().event_fire_count(e), 0);
}

#[test]
fn wait_event_timeout_fires_and_times_out() {
    let mut sim = Simulation::new();
    let h = sim.handle();
    let e = h.create_event();
    let log = Log::default();

    let l = log.clone();
    h.spawn_thread(SpawnMode::Immediate, move |ctx| {
        // First: event arrives before timeout.
        ctx.handle().notify_after(e, us(10));
        let r = ctx.wait_event_timeout(e, us(100));
        l.push(format!("{r:?}@{}", ctx.now()));
        // Second: timeout elapses first.
        let r = ctx.wait_event_timeout(e, us(50));
        l.push(format!("{r:?}@{}", ctx.now()));
    });
    sim.run_to_completion();
    assert_eq!(log.take(), vec!["Fired@10 us", "TimedOut@60 us"]);
}

/// A `wait_event_timeout` deadline and a notification of its event
/// land on the same instant: the timed queue delivers in arming order,
/// so whichever was armed first decides the outcome. Checked untraced
/// and with a tracer attached, which keeps every wait on the engine
/// path.
#[test]
fn event_timeout_tie_goes_to_the_first_armed() {
    struct Null;
    impl Tracer for Null {}
    for traced in [false, true] {
        let mut sim = Simulation::new();
        if traced {
            sim.set_tracer(Rc::new(Null));
        }
        let h = sim.handle();
        let (e, f, kick) = (h.create_event(), h.create_event(), h.create_event());
        let log = Log::default();
        let l = log.clone();
        h.spawn_thread(SpawnMode::Immediate, move |ctx| {
            // The notification is armed before the deadline: it fires.
            ctx.handle().notify_after(e, us(10));
            let r = ctx.wait_event_timeout(e, us(10));
            l.push(format!("{r:?}@{}", ctx.now()));
            // The deadline is armed a delta before the notification:
            // it expires.
            ctx.handle().notify_delta(kick);
            let r = ctx.wait_event_timeout(f, us(10));
            l.push(format!("{r:?}@{}", ctx.now()));
        });
        h.spawn_thread(SpawnMode::WaitEvent(kick), move |ctx| {
            ctx.handle().notify_after(f, us(10));
        });
        sim.run_to_completion();
        assert_eq!(
            log.take(),
            vec!["Fired@10 us", "TimedOut@20 us"],
            "traced: {traced}"
        );
    }
}

#[test]
fn timeout_cancellation_does_not_wake_later() {
    // After the event fires first, the stale timeout must not wake the
    // process out of its next wait — nor keep that wait off the
    // fast-forward budget: delivery would ignore the stale entry.
    let mut sim = Simulation::new();
    let h = sim.handle();
    let e = h.create_event();
    let log = Log::default();
    let l = log.clone();
    h.spawn_thread(SpawnMode::Immediate, move |ctx| {
        ctx.handle().notify_after(e, us(10));
        let r = ctx.wait_event_timeout(e, us(1000));
        assert_eq!(r, WaitOutcome::Fired);
        // Now sleep over the stale timeout's expiry (t=1000us).
        let before = ctx.handle().stats().fast_forwards;
        ctx.wait_time(us(5000));
        let served = ctx.handle().stats().fast_forwards - before;
        l.push(format!("woke@{} fast_forwards+{served}", ctx.now()));
    });
    sim.run_to_completion();
    assert_eq!(log.take(), vec!["woke@5010 us fast_forwards+1"]);
    assert_eq!(sim.now(), us(5010));
}

#[test]
fn spawn_waiting_on_event_starts_parked() {
    let mut sim = Simulation::new();
    let h = sim.handle();
    let start = h.create_event();
    let log = Log::default();
    let l = log.clone();
    h.spawn_thread(SpawnMode::WaitEvent(start), move |ctx| {
        l.push(format!("started@{}", ctx.now()));
    });
    // Nothing happens until the start event; with no timed activity the
    // run starves at time zero (SystemC semantics: `now` stays at the
    // last activity).
    assert_eq!(sim.run_until(ms(1)), RunOutcome::Starved);
    assert!(log.take().is_empty());
    assert_eq!(sim.now(), SimTime::ZERO);
    sim.handle().notify_after(start, us(500));
    sim.run_until(ms(3));
    assert_eq!(log.take(), vec!["started@500 us"]);
}

#[test]
fn dynamic_spawn_from_running_process() {
    let mut sim = Simulation::new();
    let log = Log::default();
    let l = log.clone();
    sim.handle().spawn_thread(SpawnMode::Immediate, move |ctx| {
        ctx.wait_time(us(10));
        let l2 = l.clone();
        ctx.handle()
            .spawn_thread(SpawnMode::Immediate, move |cctx| {
                l2.push(format!("child@{}", cctx.now()));
                cctx.wait_time(us(5));
                l2.push(format!("child-done@{}", cctx.now()));
            });
        l.push(format!("parent@{}", ctx.now()));
    });
    sim.run_to_completion();
    // Child becomes runnable in the same eval phase, after parent yields.
    assert_eq!(
        log.take(),
        vec!["parent@10 us", "child@10 us", "child-done@15 us"]
    );
}

#[test]
fn kill_unwinds_target_and_runs_drops() {
    struct Guard(Log);
    impl Drop for Guard {
        fn drop(&mut self) {
            self.0.push("dropped");
        }
    }
    let mut sim = Simulation::new();
    let h = sim.handle();
    let log = Log::default();
    let l = log.clone();
    let victim = h.spawn_thread(SpawnMode::Immediate, move |ctx| {
        let _g = Guard(l.clone());
        ctx.wait_time(SimTime::from_secs(100));
        l.push("should never run");
    });
    let l = log.clone();
    h.spawn_thread(SpawnMode::Immediate, move |ctx| {
        ctx.wait_time(us(10));
        ctx.handle().kill(victim);
        l.push("killed");
    });
    sim.run_to_completion();
    assert_eq!(log.take(), vec!["dropped", "killed"]);
    assert!(sim.handle().is_finished(victim));
}

/// Records, when dropped, whether the drop ran during an unwind.
struct UnwindProbe(Rc<Cell<Option<bool>>>);

impl Drop for UnwindProbe {
    fn drop(&mut self) {
        self.0.set(Some(std::thread::panicking()));
    }
}

/// A simulation running one activation loop whose body owns an
/// [`UnwindProbe`].
struct ProbedLoop {
    sim: Simulation,
    pid: ProcId,
    /// `Some(panicking)` once the body, and with it the probe, is gone.
    dropped: Rc<Cell<Option<bool>>>,
    runs: Rc<Cell<u32>>,
}

/// Spawns the loop: its body counts its runs, then waits `inner` if
/// non-zero. Fires the activation every 10 µs from t = 10 µs and runs
/// to `until`.
fn probed_loop(inner: SimTime, until: SimTime) -> ProbedLoop {
    let mut sim = Simulation::new();
    let h = sim.handle();
    let act = h.create_event();
    let dropped = Rc::new(Cell::new(None));
    let probe = UnwindProbe(Rc::clone(&dropped));
    let runs = Rc::new(Cell::new(0));
    let r = Rc::clone(&runs);
    let pid = h.spawn_loop(act, move |ctx| {
        let _owned = &probe;
        r.set(r.get() + 1);
        if !inner.is_zero() {
            ctx.wait_time(inner);
        }
    });
    h.make_periodic(act, us(10), us(10));
    sim.run_until(until);
    ProbedLoop {
        sim,
        pid,
        dropped,
        runs,
    }
}

#[test]
fn spawn_loop_runs_body_once_per_firing() {
    let l = probed_loop(SimTime::ZERO, us(55));
    assert_eq!(l.runs.get(), 5);
    assert_eq!(l.sim.stats().process_runs, 5);
}

#[test]
fn spawn_loop_parked_on_its_activation_ends_by_return() {
    // Teardown.
    let l = probed_loop(SimTime::ZERO, us(35));
    assert_eq!(l.runs.get(), 3);
    assert_eq!(l.dropped.get(), None);
    drop(l.sim);
    assert_eq!(l.dropped.get(), Some(false));

    // Kill.
    let l = probed_loop(SimTime::ZERO, us(35));
    l.sim.handle().kill(l.pid);
    assert_eq!(l.dropped.get(), Some(false));
    assert!(l.sim.handle().is_finished(l.pid));
}

#[test]
fn spawn_loop_torn_down_inside_body_unwinds() {
    let l = probed_loop(ms(1), us(35));
    assert_eq!(l.runs.get(), 1);
    drop(l.sim);
    assert_eq!(l.dropped.get(), Some(true));
}

/// Counts its drop, then panics.
struct PanicOnDrop(Rc<Cell<u32>>);

impl Drop for PanicOnDrop {
    fn drop(&mut self) {
        self.0.set(self.0.get() + 1);
        panic!("drop boom");
    }
}

/// Spawns an activation loop whose body owns a [`PanicOnDrop`] and runs
/// it once, so that it is parked on its activation: a never-started
/// process is dropped without a terminate handshake.
fn parked_bomb_loop(sim: &mut Simulation, drops: &Rc<Cell<u32>>) -> ProcId {
    let h = sim.handle();
    let act = h.create_event();
    let bomb = PanicOnDrop(Rc::clone(drops));
    let pid = h.spawn_loop(act, move |_ctx| {
        let _owned = &bomb;
    });
    h.notify(act);
    sim.run_until(sim.now() + us(1));
    pid
}

#[test]
fn terminate_handshake_carries_a_drop_panic() {
    let drops = Rc::new(Cell::new(0));
    let mut sim = Simulation::new();
    let first = parked_bomb_loop(&mut sim, &drops);
    let second = parked_bomb_loop(&mut sim, &drops);
    let h = sim.handle();
    // The killed loop returns and drops its body; the panic comes back
    // through the handshake and out of `kill`.
    let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| h.kill(first)))
        .expect_err("kill must re-raise the panic of the victim's drop");
    assert_eq!(payload.downcast_ref::<&str>(), Some(&"drop boom"));
    assert!(h.is_finished(first));
    assert!(!h.is_finished(second));
    assert_eq!(drops.get(), 1);
    // Teardown swallows the same panic from the loop still parked.
    drop(h);
    let teardown = std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || drop(sim)));
    assert!(teardown.is_ok(), "dropping the simulation panicked");
    assert_eq!(drops.get(), 2);
}

#[test]
fn kill_is_idempotent() {
    let mut sim = Simulation::new();
    let h = sim.handle();
    let victim = h.spawn_thread(SpawnMode::Immediate, |ctx| {
        ctx.wait_time(SimTime::from_secs(100));
    });
    sim.run_until(us(1));
    sim.handle().kill(victim);
    sim.handle().kill(victim); // no-op
    assert!(sim.handle().is_finished(victim));
}

#[test]
fn exit_terminates_early_with_drops() {
    struct Guard(Log);
    impl Drop for Guard {
        fn drop(&mut self) {
            self.0.push("dropped");
        }
    }
    let mut sim = Simulation::new();
    let log = Log::default();
    let l = log.clone();
    sim.handle().spawn_thread(SpawnMode::Immediate, move |ctx| {
        let _g = Guard(l.clone());
        l.push("before-exit");
        ctx.exit();
    });
    sim.run_to_completion();
    assert_eq!(log.take(), vec!["before-exit", "dropped"]);
}

#[test]
#[should_panic(expected = "process boom")]
fn process_panic_propagates_to_run() {
    let mut sim = Simulation::new();
    sim.handle().spawn_thread(SpawnMode::Immediate, |_ctx| {
        panic!("process boom");
    });
    sim.run_to_completion();
}

#[test]
fn method_process_runs_once_per_firing() {
    let mut sim = Simulation::new();
    let h = sim.handle();
    let e = h.create_event();
    let count = Arc::new(AtomicU64::new(0));
    let c = Arc::clone(&count);
    h.spawn_method(&[e], move || {
        c.fetch_add(1, Ordering::SeqCst);
    });
    h.make_periodic(e, ms(1), ms(1));
    sim.run_until(ms(7));
    assert_eq!(count.load(Ordering::SeqCst), 7);
}

#[test]
fn method_triggered_once_per_delta_even_with_multiple_events() {
    let mut sim = Simulation::new();
    let h = sim.handle();
    let e1 = h.create_event();
    let e2 = h.create_event();
    let count = Arc::new(AtomicU64::new(0));
    let c = Arc::clone(&count);
    h.spawn_method(&[e1, e2], move || {
        c.fetch_add(1, Ordering::SeqCst);
    });
    // Both events in the same delta.
    h.notify_after(e1, us(10));
    h.notify_after(e2, us(10));
    sim.run_to_completion();
    assert_eq!(count.load(Ordering::SeqCst), 1);
}

#[test]
fn zero_time_wait_is_one_delta() {
    let mut sim = Simulation::new();
    let h = sim.handle();
    let log = Log::default();
    let l = log.clone();
    h.spawn_thread(SpawnMode::Immediate, move |ctx| {
        l.push("a1");
        ctx.wait_time(SimTime::ZERO);
        l.push("a2");
    });
    let l = log.clone();
    h.spawn_thread(SpawnMode::Immediate, move |_ctx| {
        l.push("b");
    });
    sim.run_to_completion();
    // a's second half runs in the next delta, after b.
    assert_eq!(log.take(), vec!["a1", "b", "a2"]);
}

#[test]
fn delta_limit_guard_catches_oscillation() {
    let mut sim = Simulation::new();
    sim.set_max_deltas_per_timestep(100);
    let h = sim.handle();
    let e = h.create_event();
    h.spawn_thread(SpawnMode::Immediate, move |ctx| loop {
        ctx.handle().notify_delta(e);
        ctx.wait_event(e);
    });
    assert_eq!(sim.run_to_completion(), RunOutcome::DeltaLimitExceeded);
}

#[test]
fn stats_are_counted() {
    let mut sim = Simulation::new();
    let h = sim.handle();
    let e = h.create_event();
    h.make_periodic(e, ms(1), ms(1));
    let _p = h.spawn_thread(SpawnMode::Immediate, move |ctx| {
        for _ in 0..5 {
            ctx.wait_event(e);
        }
    });
    sim.run_until(ms(10));
    let stats = sim.stats();
    assert_eq!(stats.events_fired, 10);
    assert!(stats.process_runs >= 6); // 1 initial + 5 wakes
    assert!(stats.time_advances >= 10);
}

#[test]
fn stop_periodic_halts_a_periodic_event() {
    let mut sim = Simulation::new();
    let h = sim.handle();
    let e = h.create_event();
    h.make_periodic(e, ms(1), ms(1));
    sim.run_until(ms(3));
    // The firing already pending at 4 ms still happens unless cancelled.
    h.stop_periodic(e);
    h.cancel(e);
    sim.run_until(ms(10));
    assert_eq!(h.event_fire_count(e), 3);
}

#[test]
fn tracer_sees_signal_changes() {
    #[derive(Default)]
    struct T(RefCell<Vec<String>>);
    impl Tracer for T {
        fn signal_changed(&self, now: SimTime, name: &str, value: &str) {
            self.0.borrow_mut().push(format!("{name}={value}@{now}"));
        }
    }
    let mut sim = Simulation::new();
    let tracer = Rc::new(T::default());
    sim.set_tracer(Rc::clone(&tracer) as Rc<dyn Tracer>);
    let h = sim.handle();
    let sig: Signal<u8> = Signal::new(&h, "port", 0);
    h.spawn_thread(SpawnMode::Immediate, move |ctx| {
        sig.write(5);
        ctx.wait_time(us(10));
        sig.write(5); // same value: no change to report
        ctx.wait_time(us(10));
        sig.write(6);
    });
    sim.run_to_completion();
    assert_eq!(*tracer.0.borrow(), vec!["port=b101@0 s", "port=b110@20 us"]);
}

#[test]
fn drop_terminates_live_processes_cleanly() {
    let log = Log::default();
    struct Guard(Log);
    impl Drop for Guard {
        fn drop(&mut self) {
            self.0.push("cleaned");
        }
    }
    {
        let mut sim = Simulation::new();
        let l = log.clone();
        sim.handle().spawn_thread(SpawnMode::Immediate, move |ctx| {
            let _g = Guard(l.clone());
            loop {
                ctx.wait_time(ms(1));
            }
        });
        sim.run_until(ms(3));
        // sim dropped here with p still waiting.
    }
    assert_eq!(log.take(), vec!["cleaned"]);
}

#[test]
fn drop_frees_method_callbacks_holding_a_handle() {
    // A callback that holds a `SimHandle` keeps the kernel alive, which
    // owns the callback: only teardown can break that cycle.
    let probe = Rc::new(());
    let alive = Rc::downgrade(&probe);
    {
        let mut sim = Simulation::new();
        let h = sim.handle();
        let e = h.create_event();
        let h2 = h.clone();
        h.spawn_method(&[e], move || {
            let _owned = &probe;
            h2.notify_after(e, us(10));
        });
        h.notify(e);
        sim.run_until(us(35));
        assert_eq!(h.event_fire_count(e), 4);
    }
    assert!(
        alive.upgrade().is_none(),
        "the callback outlived its simulation"
    );
}

#[test]
fn two_identical_runs_produce_identical_logs() {
    fn run_once() -> Vec<String> {
        let mut sim = Simulation::new();
        let h = sim.handle();
        let log = Log::default();
        let e = h.create_event();
        for i in 0..4 {
            let l = log.clone();
            h.spawn_thread(SpawnMode::Immediate, move |ctx| {
                for round in 0..10 {
                    ctx.wait_time(us(10 * (i + 1)));
                    l.push(format!("w{i}r{round}@{}", ctx.now()));
                    if i == 0 {
                        ctx.handle().notify(e);
                    }
                }
            });
        }
        sim.run_to_completion();
        log.take()
    }
    assert_eq!(run_once(), run_once());
}

#[test]
fn many_processes_scale() {
    let mut sim = Simulation::new();
    let h = sim.handle();
    let counter = Arc::new(AtomicU64::new(0));
    for i in 0..100 {
        let c = Arc::clone(&counter);
        h.spawn_thread(SpawnMode::Immediate, move |ctx| {
            for _ in 0..10 {
                ctx.wait_time(us(i + 1));
            }
            c.fetch_add(1, Ordering::SeqCst);
        });
    }
    sim.run_to_completion();
    assert_eq!(counter.load(Ordering::SeqCst), 100);
}

#[test]
fn notify_between_runs_is_delivered_on_next_run() {
    let mut sim = Simulation::new();
    let h = sim.handle();
    let e = h.create_event();
    let log = Log::default();
    let l = log.clone();
    h.spawn_thread(SpawnMode::Immediate, move |ctx| {
        ctx.wait_event(e);
        l.push(format!("woken@{}", ctx.now()));
    });
    assert_eq!(sim.run_until(ms(1)), RunOutcome::Starved);
    assert!(log.take().is_empty());
    sim.handle().notify(e); // immediate notify while paused (still t=0)
    sim.run_until(ms(2));
    assert_eq!(log.take(), vec!["woken@0 s"]);
}
