//! Coroutine-runtime lifecycle tests: stack recycling across the panic
//! and terminate paths, never-started processes, kill from inside
//! another process body, and nested simulations on one OS thread.
//!
//! (Handoff stress coverage lives in `handoff_stress.rs`.)
//!
//! The stack pool and its counters are process-wide, so every test that
//! leases stacks holds [`POOL`] for its whole body: the counter deltas
//! it asserts are then its own, whatever the test harness runs beside
//! it.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

use sysc::{RunOutcome, Runtime, SimTime, Simulation, SpawnMode};

/// Serializes the tests that lease coroutine stacks (see module docs).
static POOL: Mutex<()> = Mutex::new(());

fn lock_pool() -> MutexGuard<'static, ()> {
    // A failed test poisons the lock; the others must still run.
    POOL.lock().unwrap_or_else(|e| e.into_inner())
}

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
    h.spawn_thread(SpawnMode::WaitEvent(ping), move |ctx| loop {
        ctx.handle().notify(pong);
        ctx.wait_event(ping);
    });
    assert_eq!(sim.run_to_completion(), RunOutcome::Starved);
    sim
}

#[test]
fn coro_is_the_only_runtime() {
    assert_eq!(Runtime::default(), Runtime::Coro);
    assert_eq!(Runtime::Coro.resolve(), Runtime::Coro);
    // Trace headers record this name.
    assert_eq!(Runtime::Coro.as_str(), "coro");
}

/// A panic mid-scenario must give the panicked process's stack back to
/// the pool (the unwind travels through the coroutine switch, so a bug
/// here leaks 512 KiB per poisoned seed).
#[test]
fn panicked_process_stack_is_recycled() {
    let _pool = lock_pool();
    let before = sysc::runtime::stack_stats();
    for _ in 0..10 {
        let result = std::panic::catch_unwind(|| {
            let mut sim = Simulation::new();
            let h = sim.handle();
            h.spawn_thread(SpawnMode::Immediate, |ctx| {
                ctx.wait_time(SimTime::from_ms(10));
            });
            h.spawn_thread(SpawnMode::Immediate, |ctx| {
                ctx.wait_time(SimTime::from_us(1));
                panic!("boom in coroutine");
            });
            sim.run_to_completion();
        });
        assert!(result.is_err());
    }
    let after = sysc::runtime::stack_stats();
    assert_eq!(after.leases - before.leases, 20, "two stacks per run");
    // When both stacks come back (the bomb's through the panic path,
    // the bystander's through terminate-on-drop), the first run's
    // stacks serve all the later ones. A leaked stack forces a fresh
    // allocation in every run after it.
    let fresh = after.stacks_allocated - before.stacks_allocated;
    assert!(fresh <= 2, "leaked stacks: {fresh} fresh allocations");
}

/// Terminating a process that was spawned but never dispatched must not
/// lease a stack at all, and must not leak the parked entry closure
/// (which owns a self-referential Arc).
#[test]
fn never_started_process_is_terminated_without_a_stack() {
    struct CountDrop(Arc<AtomicU64>);
    impl Drop for CountDrop {
        fn drop(&mut self) {
            self.0.fetch_add(1, Ordering::SeqCst);
        }
    }
    let _pool = lock_pool();
    let drops = Arc::new(AtomicU64::new(0));
    let before = sysc::runtime::stack_stats();
    {
        let mut sim = Simulation::new();
        let h = sim.handle();
        let never = h.create_event();
        let d = CountDrop(Arc::clone(&drops));
        h.spawn_thread(SpawnMode::WaitEvent(never), move |_ctx| {
            let _guard = d;
            unreachable!("the event never fires");
        });
        assert_eq!(sim.run_to_completion(), RunOutcome::Starved);
        // Drop terminates the dormant process before it ever ran.
    }
    assert_eq!(
        drops.load(Ordering::SeqCst),
        1,
        "captured state must be dropped"
    );
    let after = sysc::runtime::stack_stats();
    assert_eq!(
        after.leases, before.leases,
        "no stack for a never-started process"
    );
}

/// One process killing another mid-wait: the terminate handshake runs
/// coroutine-to-coroutine (the killer, not the kernel root, is the
/// resumer) and control must return to the killer afterwards.
#[test]
fn kill_from_inside_another_process() {
    let _pool = lock_pool();
    let log = Arc::new(Mutex::new(Vec::new()));
    let mut sim = Simulation::new();
    let h = sim.handle();
    let log2 = Arc::clone(&log);
    let victim = h.spawn_thread(SpawnMode::Immediate, move |ctx| {
        log2.lock().unwrap().push("victim-start");
        loop {
            ctx.wait_time(SimTime::from_us(1));
        }
    });
    let log3 = Arc::clone(&log);
    h.spawn_thread(SpawnMode::Immediate, move |ctx| {
        ctx.wait_time(SimTime::from_us(5));
        log3.lock().unwrap().push("kill");
        ctx.handle().kill(victim);
        assert!(ctx.handle().is_finished(victim));
        log3.lock().unwrap().push("after-kill");
        ctx.wait_time(SimTime::from_us(5));
        log3.lock().unwrap().push("killer-done");
    });
    assert_eq!(sim.run_to_completion(), RunOutcome::Starved);
    assert_eq!(
        *log.lock().unwrap(),
        vec!["victim-start", "kill", "after-kill", "killer-done"]
    );
}

/// A process body driving a nested, independent simulation on the same
/// OS thread: two live `CoroRt`s must not clobber each other's notion
/// of the current context.
#[test]
fn nested_simulation_inside_a_coroutine() {
    let _pool = lock_pool();
    let mut outer = Simulation::new();
    let h = outer.handle();
    let result = Arc::new(AtomicU64::new(0));
    let result2 = Arc::clone(&result);
    h.spawn_thread(SpawnMode::Immediate, move |ctx| {
        ctx.wait_time(SimTime::from_us(1));
        let mut inner = Simulation::new();
        let ih = inner.handle();
        let r = Arc::clone(&result2);
        ih.spawn_thread(SpawnMode::Immediate, move |ictx| {
            for _ in 0..10 {
                ictx.wait_time(SimTime::from_ns(100));
            }
            r.store(ictx.now().as_ns(), Ordering::SeqCst);
        });
        assert_eq!(inner.run_to_completion(), RunOutcome::Starved);
        // Back in the outer coroutine: its own clock is untouched.
        ctx.wait_time(SimTime::from_us(1));
        assert_eq!(ctx.now(), SimTime::from_us(2));
    });
    assert_eq!(outer.run_to_completion(), RunOutcome::Starved);
    assert_eq!(result.load(Ordering::SeqCst), 1_000);
}

/// Heavy process churn within one simulation: spawn-run-finish cycles
/// must plateau at a small number of distinct stacks.
#[test]
fn sequential_process_churn_reuses_stacks() {
    let _pool = lock_pool();
    let before = sysc::runtime::stack_stats();
    let mut sim = Simulation::new();
    let h = sim.handle();
    let total = Arc::new(AtomicU64::new(0));
    for i in 0..200 {
        let t = Arc::clone(&total);
        h.spawn_thread(SpawnMode::Immediate, move |ctx| {
            ctx.wait_time(SimTime::from_ns(10 + i));
            t.fetch_add(1, Ordering::Relaxed);
        });
        sim.run_to_completion();
    }
    assert_eq!(total.load(Ordering::Relaxed), 200);
    let after = sysc::runtime::stack_stats();
    assert_eq!(after.leases - before.leases, 200);
    assert!(
        after.stacks_allocated - before.stacks_allocated <= 4,
        "churn should reuse stacks, allocated {} fresh ones",
        after.stacks_allocated - before.stacks_allocated
    );
}

/// Consecutive simulations reuse the stacks earlier ones gave back.
#[test]
fn coro_runtime_recycles_stacks() {
    let _pool = lock_pool();
    let before = sysc::runtime::stack_stats();
    for _ in 0..50 {
        let sim = pingpong(20);
        assert_eq!(sim.now(), SimTime::from_ns(200));
    }
    let after = sysc::runtime::stack_stats();
    assert_eq!(after.leases - before.leases, 100, "two stacks per sim");
    // Only the first simulation can find the pool short of stacks.
    let fresh = after.stacks_allocated - before.stacks_allocated;
    assert!(fresh <= 2, "stack pool recycled too little: {fresh} fresh");
    assert!(after.recycled - before.recycled >= 98);
}
