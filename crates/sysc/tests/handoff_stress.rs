//! Stress and lifecycle tests of the coroutine handoff machinery,
//! exercised through the public `Simulation` API: panic-in-process,
//! terminate-then-reuse, chained dispatch under many-process churn,
//! drop with suspended processes, and the fast-forward run budget.
//!
//! (Stack-pool accounting lives in `coro_runtime.rs`, which serializes
//! the tests that lease stacks; the pool mechanics themselves are unit
//! tested in `sysc::runtime`.)

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use sysc::{RunOutcome, SimTime, Simulation, SpawnMode};

/// A two-process ping-pong with `rounds` handoffs per side.
fn pingpong(rounds: u64) -> Simulation {
    let mut sim = Simulation::new();
    let h = sim.handle();
    let ping = h.create_event();
    let pong = h.create_event();
    h.spawn_thread(SpawnMode::Immediate, move |ctx| {
        for _ in 0..rounds {
            ctx.handle().notify_after(ping, SimTime::from_ns(10));
            ctx.wait_event(pong);
        }
    });
    let h2 = sim.handle();
    h2.spawn_thread(SpawnMode::WaitEvent(ping), move |ctx| loop {
        ctx.handle().notify(pong);
        ctx.wait_event(ping);
    });
    assert_eq!(sim.run_to_completion(), RunOutcome::Starved);
    sim
}

#[test]
fn chained_handoff_is_deterministic_over_many_rounds() {
    let sim = pingpong(20_000);
    assert_eq!(sim.now(), SimTime::from_ns(10 * 20_000));
}

/// A panicking process body must surface through `run_until`, and the
/// recycled coroutine stacks must serve later simulations cleanly.
#[test]
fn panic_in_process_propagates_and_runtime_recovers() {
    for round in 0..20 {
        let result = std::panic::catch_unwind(|| {
            let mut sim = Simulation::new();
            let h = sim.handle();
            h.spawn_thread(SpawnMode::Immediate, move |ctx| {
                ctx.wait_time(SimTime::from_us(3));
                panic!("deliberate process panic");
            });
            sim.run_to_completion();
        });
        let payload = result.expect_err("process panic must propagate");
        let msg = payload
            .downcast_ref::<&str>()
            .copied()
            .unwrap_or_default()
            .to_string();
        assert!(msg.contains("deliberate"), "round {round}: got {msg:?}");

        // A poisoned stack or leaked protocol state would break the
        // follow-up simulation.
        let sim = pingpong(50);
        assert_eq!(sim.now(), SimTime::from_ns(500));
    }
}

/// Kill (cooperative terminate) followed by fresh simulations reusing
/// the recycled stacks: a recycled stack must never observe the
/// previous occupant's protocol state.
#[test]
fn terminate_then_reuse_of_recycled_contexts() {
    for _ in 0..50 {
        let mut sim = Simulation::new();
        let h = sim.handle();
        let tick = h.create_event();
        h.make_periodic(tick, SimTime::from_us(1), SimTime::from_us(1));
        let victim = h.spawn_thread(SpawnMode::Immediate, move |ctx| loop {
            ctx.wait_event(tick);
        });
        sim.run_until(SimTime::from_us(5));
        h.kill(victim);
        assert!(h.is_finished(victim));
        // Dropping the simulation terminates the remaining processes;
        // their stacks are recycled.
        drop(sim);

        let sim = pingpong(20);
        assert_eq!(sim.now(), SimTime::from_ns(200));
    }
}

/// Drop with processes parked mid-wait (never terminated explicitly):
/// teardown must unwind them synchronously and release their contexts.
#[test]
fn drop_midwait_releases_contexts() {
    struct CountDrop(Arc<AtomicU64>);
    impl Drop for CountDrop {
        fn drop(&mut self) {
            self.0.fetch_add(1, Ordering::SeqCst);
        }
    }

    let drops = Arc::new(AtomicU64::new(0));
    for _ in 0..25 {
        let mut sim = Simulation::new();
        let h = sim.handle();
        let d = CountDrop(Arc::clone(&drops));
        h.spawn_thread(SpawnMode::Immediate, move |ctx| {
            let _guard = d;
            loop {
                ctx.wait_time(SimTime::from_ms(1));
            }
        });
        sim.run_until(SimTime::from_us(100));
        // Drop without terminating: the Drop impl inside the body must
        // still run (cooperative unwind through the coroutine).
    }
    assert_eq!(drops.load(Ordering::SeqCst), 25);
}

/// Many concurrent simulations on separate OS threads, all leasing
/// from the same global stack pool: exercises cross-simulation stack
/// churn.
#[test]
fn concurrent_simulations_share_the_global_pools() {
    let handles: Vec<_> = (0..4)
        .map(|_| {
            std::thread::spawn(move || {
                for _ in 0..10 {
                    let sim = pingpong(200);
                    assert_eq!(sim.now(), SimTime::from_ns(2_000));
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
}

/// The fast-forward run budget must leave behavior identical: a solo
/// time-slicing process interleaved with a timed event observes the
/// same schedule with and without an observer (tracing disables the
/// fast path, so both paths are exercised against each other).
#[test]
fn fast_forward_matches_engine_path() {
    fn run(traced: bool) -> (SimTime, u64, u64) {
        let mut sim = Simulation::new();
        if traced {
            struct Null;
            impl sysc::Tracer for Null {}
            sim.set_tracer(std::rc::Rc::new(Null));
        }
        let h = sim.handle();
        let tick = h.create_event();
        h.make_periodic(tick, SimTime::from_us(7), SimTime::from_us(7));
        let hits = Arc::new(AtomicU64::new(0));
        let hits2 = Arc::clone(&hits);
        h.spawn_thread(SpawnMode::Immediate, move |ctx| {
            for _ in 0..1000 {
                ctx.wait_time(SimTime::from_us(1));
                hits2.fetch_add(1, Ordering::Relaxed);
            }
        });
        let outcome = sim.run_until(SimTime::from_ms(2));
        assert_eq!(outcome, RunOutcome::ReachedLimit);
        let fires = sim.handle().event_fire_count(tick);
        (sim.now(), hits.load(Ordering::Relaxed), fires)
    }
    assert_eq!(run(false), run(true));
}

/// wait_event_timeout with no possible firing source must fast-forward
/// to the timeout; with a pending notification inside the window it
/// must take the engine path and report the firing.
#[test]
fn event_timeout_fast_path_respects_pending_notifications() {
    let mut sim = Simulation::new();
    let h = sim.handle();
    let e = h.create_event();
    let log = Arc::new(std::sync::Mutex::new(Vec::new()));
    let log2 = Arc::clone(&log);
    h.spawn_thread(SpawnMode::Immediate, move |ctx| {
        // Nothing can fire `e`: fast-forwarded timeout.
        let r1 = ctx.wait_event_timeout(e, SimTime::from_us(5));
        log2.lock().unwrap().push((format!("{r1:?}"), ctx.now()));
        // A pending notification lands inside the window: must fire.
        ctx.handle().notify_after(e, SimTime::from_us(2));
        let r2 = ctx.wait_event_timeout(e, SimTime::from_us(10));
        log2.lock().unwrap().push((format!("{r2:?}"), ctx.now()));
        // And one landing after the window: times out at the deadline.
        ctx.handle().notify_after(e, SimTime::from_us(50));
        let r3 = ctx.wait_event_timeout(e, SimTime::from_us(10));
        log2.lock().unwrap().push((format!("{r3:?}"), ctx.now()));
    });
    sim.run_to_completion();
    let log = log.lock().unwrap().clone();
    assert_eq!(
        log,
        vec![
            ("TimedOut".to_string(), SimTime::from_us(5)),
            ("Fired".to_string(), SimTime::from_us(7)),
            ("TimedOut".to_string(), SimTime::from_us(17)),
        ]
    );
}
