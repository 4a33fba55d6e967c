// Microbenchmarks of the sysc discrete-event engine, quantifying the
// paper's host-code-execution speed argument along the axes the
// phase-structured scheduler optimizes:
//
// * raw event throughput for thread processes (coroutine handoff) vs
//   method processes (lock-free fast-path callbacks);
// * the timed-notification path through the timed queue, including
//   the periodic-clock re-arm on every tick;
// * the timed queue vs a bare `BinaryHeap` on a 100k-entry bulk load
//   (insert + pop-in-order), a shape the engine never produces;
// * the timed queue under the engine's own traffic: a few pending
//   deadlines, one delivered and one filed per advance;
// * immediate notification of a burst of events.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use criterion::{criterion_group, criterion_main, Criterion};
use sysc::{SimTime, Simulation, SpawnMode, TimedQueue};

fn thread_pingpong(events: u64) {
    let mut sim = Simulation::new();
    let h = sim.handle();
    let ping = h.create_event();
    let pong = h.create_event();
    h.spawn_thread(SpawnMode::Immediate, move |ctx| {
        for _ in 0..events {
            ctx.handle().notify_after(ping, SimTime::from_ns(10));
            ctx.wait_event(pong);
        }
    });
    let h2 = sim.handle();
    h2.spawn_thread(SpawnMode::WaitEvent(ping), move |ctx| loop {
        ctx.handle().notify(pong);
        ctx.wait_event(ping);
    });
    sim.run_to_completion();
}

fn method_cascade(events: u64) {
    let mut sim = Simulation::new();
    let h = sim.handle();
    let tick = h.create_event();
    h.make_periodic(tick, SimTime::from_ns(100), SimTime::from_ns(100));
    let counter = std::sync::Arc::new(std::sync::atomic::AtomicU64::new(0));
    let c = counter.clone();
    let h2 = h.clone();
    h.spawn_method(&[tick], move || {
        if c.fetch_add(1, std::sync::atomic::Ordering::Relaxed) >= events {
            h2.stop_periodic(tick);
            h2.cancel(tick);
        }
    });
    sim.run_to_completion();
}

/// One solitary process consuming `n` back-to-back time slices: the
/// RTOS layer's quantum-consume shape. Served by the fast-forward run
/// budget (grant batching) — time advances in place with no context
/// switch and no timed-queue traffic.
fn solo_timeslices(n: u64) {
    let mut sim = Simulation::new();
    let h = sim.handle();
    h.spawn_thread(SpawnMode::Immediate, move |ctx| {
        for _ in 0..n {
            ctx.wait_time(SimTime::from_us(1));
        }
    });
    sim.run_to_completion();
    assert_eq!(sim.now(), SimTime::from_us(n));
}

/// `n` one-shot timed notifications at spread-out delays: `n` entries
/// pending at once, then delivered in deadline order.
fn timed_spread(n: u64) {
    let mut sim = Simulation::new();
    let h = sim.handle();
    let events: Vec<_> = (0..n)
        .map(|i| {
            let e = h.create_event();
            // Delays from 1 us to ~0.5 s, deterministically scattered.
            let d = 1 + (i * 2_654_435_761) % 500_000;
            h.notify_after(e, SimTime::from_us(d));
            e
        })
        .collect();
    sim.run_to_completion();
    assert!(events.iter().all(|e| h.event_fire_count(*e) == 1));
}

/// One periodic clock over `ticks` periods: one delivery and one
/// re-arm per tick.
fn periodic_clock(ticks: u64) {
    let mut sim = Simulation::new();
    let h = sim.handle();
    let clk = h.create_event();
    h.make_periodic(clk, SimTime::from_us(1), SimTime::from_us(1));
    sim.run_until(SimTime::from_us(ticks));
    assert_eq!(h.event_fire_count(clk), ticks);
}

/// Reference model of the timed queue: a bare `(at, seq)`-ordered heap.
fn heap_insert_pop(n: u64) -> u64 {
    let mut heap: BinaryHeap<Reverse<(u64, u64)>> = BinaryHeap::new();
    let mut acc = 0u64;
    for i in 0..n {
        let at = 1 + (i * 2_654_435_761) % 500_000_000;
        heap.push(Reverse((at, i)));
    }
    while let Some(Reverse((at, _))) = heap.pop() {
        acc = acc.wrapping_add(at);
    }
    acc
}

/// The same workload through the timed queue (the row keeps the name
/// of the timing wheel it once measured).
fn wheel_insert_pop(n: u64) -> u64 {
    let mut queue: TimedQueue<()> = TimedQueue::new();
    let mut acc = 0u64;
    for i in 0..n {
        let at = 1 + (i * 2_654_435_761) % 500_000_000;
        queue.insert(at, ());
    }
    let mut due = Vec::new();
    while let Some(at) = queue.next_at() {
        due.clear();
        queue.advance_to(at, &mut due);
        for e in &due {
            acc = acc.wrapping_add(e.at);
        }
    }
    acc
}

/// The engine's real timed-queue traffic: a handful of deadlines
/// pending (4.8 on average, at most 55, over a 1000-seed quick
/// campaign), each advance delivering the earliest one and filing its
/// successor 1–2 ms of picoseconds ahead. `advances` steps with 8
/// entries pending throughout.
fn steady_pending(advances: u64) -> u64 {
    const PENDING: u64 = 8;
    const MS_PS: u64 = 1_000_000_000;
    let ahead = |i: u64| MS_PS + (i * 2_654_435_761) % MS_PS;
    let mut queue: TimedQueue<u64> = TimedQueue::new();
    for i in 0..PENDING {
        queue.insert(ahead(i), i);
    }
    let mut acc = 0u64;
    let mut filed = PENDING;
    let mut due = Vec::new();
    for _ in 0..advances {
        let at = queue.next_at().expect("entries stay pending");
        due.clear();
        queue.advance_to(at, &mut due);
        for e in &due {
            acc = acc.wrapping_add(e.action);
            queue.insert(at + ahead(filed), filed);
            filed += 1;
        }
    }
    acc
}

/// `rounds` bursts of 16 notifications, one state borrow per event.
fn notify_singles(rounds: u64) {
    let sim = Simulation::new();
    let h = sim.handle();
    let events: Vec<_> = (0..16).map(|_| h.create_event()).collect();
    for _ in 0..rounds {
        for e in &events {
            h.notify(*e);
        }
    }
}

fn bench_engine(c: &mut Criterion) {
    let mut group = c.benchmark_group("sim_engine");
    group.sample_size(10);
    // A handoff is a userspace context switch on one host thread.
    group.bench_function("thread_handoff_x10k", |b| {
        b.iter(|| thread_pingpong(std::hint::black_box(10_000)))
    });
    group.bench_function("method_events_x10k", |b| {
        b.iter(|| method_cascade(std::hint::black_box(10_000)))
    });
    group.bench_function("solo_timeslices_x10k", |b| {
        b.iter(|| solo_timeslices(std::hint::black_box(10_000)))
    });
    group.bench_function("timed_spread_x10k", |b| {
        b.iter(|| timed_spread(std::hint::black_box(10_000)))
    });
    group.bench_function("periodic_clock_x100k", |b| {
        b.iter(|| periodic_clock(std::hint::black_box(100_000)))
    });
    group.finish();
}

fn bench_timed_queue(c: &mut Criterion) {
    let mut group = c.benchmark_group("timed_queue");
    group.sample_size(10);
    group.bench_function("heap_insert_pop_x100k", |b| {
        b.iter(|| heap_insert_pop(std::hint::black_box(100_000)))
    });
    group.bench_function("wheel_insert_pop_x100k", |b| {
        b.iter(|| wheel_insert_pop(std::hint::black_box(100_000)))
    });
    group.bench_function("steady_8_pending_x100k", |b| {
        b.iter(|| steady_pending(std::hint::black_box(100_000)))
    });
    group.finish();
}

fn bench_notify(c: &mut Criterion) {
    let mut group = c.benchmark_group("notify_batching");
    group.sample_size(10);
    group.bench_function("notify_single_16x10k", |b| {
        b.iter(|| notify_singles(std::hint::black_box(10_000)))
    });
    group.finish();
}

criterion_group!(benches, bench_engine, bench_timed_queue, bench_notify);
criterion_main!(benches);
