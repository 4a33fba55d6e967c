//! The engine's steady state makes no heap allocation: once a periodic
//! clock and a two-process ping-pong, or a signal writer, have run for
//! a while, the event waiter lists, the timed queue, the delta-phase
//! queues and the scratch buffers they use have the capacity they
//! need, so running on costs no allocator call.
//!
//! A test binary of its own, because it installs a counting global
//! allocator. The count is per thread: the whole simulation, coroutine
//! bodies included, runs on the test's thread, so tests running on
//! other threads cannot disturb it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::rc::Rc;

use sysc::{Signal, SimTime, Simulation, SpawnMode, WaitOutcome};

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// Allocation calls (`alloc`, `alloc_zeroed`, `realloc`) made so far on
/// the calling thread.
fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

fn count() {
    // `try_with`: the allocator also runs while thread-locals are torn
    // down. A const-initialized `Cell` never allocates itself.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`, so
// `System` upholds the `GlobalAlloc` contract; counting only touches a
// thread-local `Cell`.
unsafe impl GlobalAlloc for Counting {
    // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract, which
    // is passed on to `System` as is.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: same layout the caller gave us (see above).
        unsafe { System.alloc(layout) }
    }

    // SAFETY: as for `alloc`.
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: same layout the caller gave us.
        unsafe { System.alloc_zeroed(layout) }
    }

    // SAFETY: the caller guarantees `ptr` came from this allocator with
    // `layout`; every block did come from `System`.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: `ptr` was allocated by `System` with `layout`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    // SAFETY: as for `realloc`.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was allocated by `System` with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

fn us(v: u64) -> SimTime {
    SimTime::from_us(v)
}

/// A 100 µs periodic clock paces a ping-pong between two thread
/// processes, through every wait and notification kind:
///
/// * `a` waits for the clock (`wait_event`), pings `b` 10 µs later
///   (`notify_after`) and waits up to 30 µs for the pong
///   (`wait_event_timeout`), then pauses 5 µs (`wait_time`);
/// * `b` answers every ping (`notify`), every other one 50 µs late, so
///   `a` alternately gets its pong and times out, and the late pong
///   fires over a stale waiter entry.
///
/// After a 50 ms warm-up, 1000 simulated milliseconds must make no
/// allocation at all.
#[test]
fn periodic_clock_and_ping_pong_allocate_nothing_in_steady_state() {
    let mut sim = Simulation::new();
    let h = sim.handle();
    let clk = h.create_event();
    let ping = h.create_event();
    let pong = h.create_event();
    h.make_periodic(clk, us(100), us(100));

    let fired = Rc::new(Cell::new(0u64));
    let timed_out = Rc::new(Cell::new(0u64));
    let (f, t) = (Rc::clone(&fired), Rc::clone(&timed_out));
    h.spawn_thread(SpawnMode::Immediate, move |ctx| loop {
        ctx.wait_event(clk);
        ctx.handle().notify_after(ping, us(10));
        match ctx.wait_event_timeout(pong, us(30)) {
            WaitOutcome::Fired => f.set(f.get() + 1),
            WaitOutcome::TimedOut => t.set(t.get() + 1),
        }
        ctx.wait_time(us(5));
    });
    h.spawn_thread(SpawnMode::WaitEvent(ping), move |ctx| {
        let mut late = false;
        loop {
            if late {
                ctx.wait_time(us(50));
            }
            late = !late;
            ctx.handle().notify(pong);
            ctx.wait_event(ping);
        }
    });

    sim.run_until(SimTime::from_ms(50));
    let before = allocs();
    sim.run_until(SimTime::from_ms(1050));
    let made = allocs() - before;

    assert_eq!(made, 0, "allocation calls in 1000 steady-state ms");
    // The window really ran the traffic it claims to measure. The round
    // the last tick (at the limit) starts is still waiting for its pong.
    assert_eq!(h.event_fire_count(clk), 10_500);
    assert_eq!((fired.get(), timed_out.get()), (5_250, 5_249));
}

/// A process toggles a `Signal<bool>` and delta-notifies an event every
/// 10 µs, and a second one waits on that event, so every step runs the
/// update and delta-notify phases. After a 1 ms warm-up, 10 simulated
/// milliseconds must make no allocation at all.
#[test]
fn signal_writes_and_delta_notifications_allocate_nothing_in_steady_state() {
    let mut sim = Simulation::new();
    let h = sim.handle();
    let sig = Signal::new(&h, "flag", false);
    let ev = h.create_event();
    let s = sig.clone();
    h.spawn_thread(SpawnMode::Immediate, move |ctx| loop {
        s.write(!s.read());
        ctx.handle().notify_delta(ev);
        ctx.wait_time(us(10));
    });
    h.spawn_thread(SpawnMode::Immediate, move |ctx| loop {
        ctx.wait_event(ev);
    });

    sim.run_until(SimTime::from_ms(1));
    let before = allocs();
    sim.run_until(SimTime::from_ms(11));
    let made = allocs() - before;

    assert_eq!(made, 0, "allocation calls in 10 steady-state ms");
    // The window really ran the traffic it claims to measure: one write
    // and one notification at 0, 10, ..., 11,000 µs.
    assert_eq!(h.event_fire_count(ev), 1_101);
    assert_eq!(h.event_fire_count(sig.value_changed_event()), 1_101);
}
