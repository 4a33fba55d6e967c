//! Microbenchmarks of the kernel service-call machinery: how much host
//! time one simulated service interaction costs (the SIM_API overhead
//! the paper's speed argument rests on).

use std::cell::Cell;
use std::rc::Rc;

use criterion::{criterion_group, criterion_main, Criterion};
use rtk_core::{KernelConfig, QueueOrder, Rtos, Timeout};
use sysc::SimTime;

/// Runs a kernel whose init task performs `n` semaphore signal/wait
/// pairs against itself (no blocking).
fn sem_pairs(n: u64) -> Rtos {
    let mut rtos = Rtos::new(KernelConfig::zero_cost(), move |sys, _| {
        let sem = sys.tk_cre_sem("s", 0, 10, QueueOrder::Fifo).unwrap();
        for _ in 0..n {
            sys.tk_sig_sem(sem, 1).unwrap();
            sys.tk_wai_sem(sem, 1, Timeout::Poll).unwrap();
        }
    });
    rtos.run_until(SimTime::from_ms(50));
    rtos
}

/// Two tasks ping-ponging through sleep/wakeup: `n` full context-switch
/// round trips. Each round trip also consumes 1 µs of `b`'s execution,
/// so the run stops at `2n` µs: after the last round trip and before
/// the first 1 ms system tick, so no idle ticks are timed.
fn switch_pairs(n: u64) -> Rtos {
    let woken = Rc::new(Cell::new(0u64));
    let counter = Rc::clone(&woken);
    let mut rtos = Rtos::new(KernelConfig::zero_cost(), move |sys, _| {
        let counter = Rc::clone(&counter);
        let a = sys
            .tk_cre_tsk("a", 10, move |sys, _| {
                for _ in 0..n {
                    if sys.tk_slp_tsk(Timeout::Forever).is_err() {
                        return;
                    }
                    counter.set(counter.get() + 1);
                }
            })
            .unwrap();
        sys.tk_sta_tsk(a, 0).unwrap();
        let b = sys
            .tk_cre_tsk("b", 20, move |sys, _| {
                for _ in 0..n {
                    while sys.tk_wup_tsk(a).is_err() {
                        sys.exec(SimTime::from_us(1));
                    }
                    sys.exec(SimTime::from_us(1));
                }
            })
            .unwrap();
        sys.tk_sta_tsk(b, 0).unwrap();
    });
    rtos.run_until(SimTime::from_us(2 * n));
    assert_eq!(woken.get(), n, "every round trip completed");
    assert_eq!(rtos.run_stats().ticks, 0, "no system tick was timed");
    rtos
}

/// Builds a zero-cost kernel with `handlers` cyclic handlers on the
/// 1 ms tick and one task sleeping in 1 ms steps, runs it past five
/// ticks and drops it. Teardown ends every handler loop, both
/// dispatchers and the task, as each campaign scenario does.
fn teardown_kernel(handlers: u32) -> SimTime {
    let mut rtos = Rtos::new(KernelConfig::zero_cost(), move |sys, _| {
        for i in 0..handlers {
            let period = SimTime::from_ms(1);
            let cyc = sys
                .tk_cre_cyc(&format!("cyc{i}"), period, period, true, |_| {})
                .unwrap();
            sys.tk_sta_cyc(cyc).unwrap();
        }
        let t = sys
            .tk_cre_tsk("sleeper", 10, |sys, _| {
                while sys.tk_dly_tsk(SimTime::from_ms(1)).is_ok() {}
            })
            .unwrap();
        sys.tk_sta_tsk(t, 0).unwrap();
    });
    rtos.run_until(SimTime::from_us(5_500));
    assert_eq!(rtos.run_stats().ticks, 5, "the kernel ran past five ticks");
    rtos.now()
}

fn bench_primitives(c: &mut Criterion) {
    let mut group = c.benchmark_group("kernel_primitives");
    group.sample_size(10);
    group.bench_function("sem_sig_wai_x1000", |b| {
        b.iter(|| std::hint::black_box(sem_pairs(1000).now()))
    });
    group.bench_function("context_switch_x200", |b| {
        b.iter(|| std::hint::black_box(switch_pairs(200).now()))
    });
    group.bench_function("teardown_cyc6", |b| {
        b.iter(|| std::hint::black_box(teardown_kernel(6)))
    });
    group.finish();
}

criterion_group!(benches, bench_primitives);
criterion_main!(benches);
