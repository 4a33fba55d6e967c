//! External-interrupt semantics: ISR delivery, preemption of the running
//! task, two-level nesting, pending-interrupt queueing, delayed
//! dispatching, interrupt latency through atomic sections, and CPU lock.

mod common;

use std::cell::OnceCell;
use std::rc::Rc;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use common::Log;
use rtk_core::{Cost, ExecContext, IntNo, IntPort, KernelConfig, Rtos, Timeout};
use sysc::SimTime;

fn ms(v: u64) -> SimTime {
    SimTime::from_ms(v)
}
fn us(v: u64) -> SimTime {
    SimTime::from_us(v)
}

/// Schedules an interrupt to fire at an absolute simulated time using a
/// plain sysc thread (models an external hardware source).
fn hardware_int_at(rtos: &Rtos, at: SimTime, intno: IntNo, level: u8) {
    let port = rtos.int_port();
    rtos.sim_handle()
        .spawn_thread(sysc::SpawnMode::Immediate, move |ctx| {
            ctx.wait_time(at);
            port.raise(intno, level);
        });
}

#[test]
fn isr_interrupts_running_task_and_returns() {
    let log = Log::default();
    let l = log.clone();
    let mut rtos = Rtos::new(KernelConfig::zero_cost(), move |sys, _| {
        let l_isr = l.clone();
        sys.tk_def_int(IntNo(0), 0, "isr0", move |sys| {
            l_isr.push(format!("isr@{}", sys.now().as_us()));
        })
        .unwrap();
        let l_t = l.clone();
        let t = sys
            .tk_cre_tsk("worker", 10, move |sys, _| {
                l_t.push(format!("start@{}", sys.now().as_us()));
                sys.exec(us(500));
                l_t.push(format!("end@{}", sys.now().as_us()));
            })
            .unwrap();
        sys.tk_sta_tsk(t, 0).unwrap();
    });
    hardware_int_at(&rtos, us(200), IntNo(0), 0);
    rtos.run_for(ms(5));
    // The ISR fires mid-execution; the task still accumulates exactly
    // 500 us of execution (the interrupt freeze preserves remaining
    // budget).
    assert_eq!(log.take(), vec!["start@0", "isr@200", "end@500"]);
}

#[test]
fn isr_wakes_task_with_delayed_dispatch() {
    let log = Log::default();
    let l = log.clone();
    let mut rtos = Rtos::new(KernelConfig::zero_cost(), move |sys, _| {
        let l_hi = l.clone();
        let hi = sys
            .tk_cre_tsk("hi", 5, move |sys, _| {
                sys.tk_slp_tsk(Timeout::Forever).unwrap();
                l_hi.push(format!("hi@{}", sys.now().as_us()));
            })
            .unwrap();
        sys.tk_sta_tsk(hi, 0).unwrap();
        let l_isr = l.clone();
        sys.tk_def_int(IntNo(1), 0, "isr1", move |sys| {
            l_isr.push(format!("isr-begin@{}", sys.now().as_us()));
            sys.tk_wup_tsk(hi).unwrap();
            // The woken higher-priority task must NOT run inside the
            // handler (delayed dispatching).
            sys.exec(us(50));
            l_isr.push(format!("isr-end@{}", sys.now().as_us()));
        })
        .unwrap();
        let l_lo = l.clone();
        let lo = sys
            .tk_cre_tsk("lo", 50, move |sys, _| {
                sys.exec(ms(2));
                l_lo.push(format!("lo-end@{}", sys.now().as_us()));
            })
            .unwrap();
        sys.tk_sta_tsk(lo, 0).unwrap();
    });
    hardware_int_at(&rtos, us(300), IntNo(1), 0);
    rtos.run_for(ms(10));
    let entries = log.take();
    assert_eq!(entries[0], "isr-begin@300");
    assert_eq!(entries[1], "isr-end@350");
    assert_eq!(entries[2], "hi@350"); // dispatched only after the handler
    assert_eq!(entries[3], "lo-end@2050"); // lo lost 50 us to the ISR
}

#[test]
fn higher_level_interrupt_nests_over_lower() {
    let log = Log::default();
    let l = log.clone();
    let mut rtos = Rtos::new(KernelConfig::zero_cost(), move |sys, _| {
        let l0 = l.clone();
        sys.tk_def_int(IntNo(0), 0, "low", move |sys| {
            l0.push(format!("low-begin@{}", sys.now().as_us()));
            sys.exec(us(100));
            l0.push(format!("low-end@{}", sys.now().as_us()));
        })
        .unwrap();
        let l1 = l.clone();
        sys.tk_def_int(IntNo(1), 1, "high", move |sys| {
            l1.push(format!("high@{}", sys.now().as_us()));
            sys.exec(us(20));
        })
        .unwrap();
        let t = sys
            .tk_cre_tsk("bg", 50, move |sys, _| {
                sys.exec(ms(1));
            })
            .unwrap();
        sys.tk_sta_tsk(t, 0).unwrap();
    });
    hardware_int_at(&rtos, us(100), IntNo(0), 0);
    hardware_int_at(&rtos, us(150), IntNo(1), 1); // nests over "low"
    rtos.run_for(ms(10));
    let entries = log.take();
    assert_eq!(entries[0], "low-begin@100");
    assert_eq!(entries[1], "high@150");
    // low resumes after high finishes (150+20), completes its remaining
    // 50 us at 220.
    assert_eq!(entries[2], "low-end@220");
}

#[test]
fn equal_level_interrupt_pends_until_return() {
    let log = Log::default();
    let l = log.clone();
    let mut rtos = Rtos::new(KernelConfig::zero_cost(), move |sys, _| {
        let l0 = l.clone();
        sys.tk_def_int(IntNo(0), 0, "a", move |sys| {
            l0.push(format!("a-begin@{}", sys.now().as_us()));
            sys.exec(us(100));
            l0.push(format!("a-end@{}", sys.now().as_us()));
        })
        .unwrap();
        let l1 = l.clone();
        sys.tk_def_int(IntNo(1), 0, "b", move |sys| {
            l1.push(format!("b@{}", sys.now().as_us()));
        })
        .unwrap();
        let t = sys
            .tk_cre_tsk("bg", 50, move |sys, _| {
                sys.exec(ms(1));
            })
            .unwrap();
        sys.tk_sta_tsk(t, 0).unwrap();
    });
    hardware_int_at(&rtos, us(100), IntNo(0), 0);
    hardware_int_at(&rtos, us(150), IntNo(1), 0); // same level: pends
    rtos.run_for(ms(10));
    let entries = log.take();
    assert_eq!(entries[0], "a-begin@100");
    assert_eq!(entries[1], "a-end@200");
    assert_eq!(entries[2], "b@200"); // chained right after a returns
}

#[test]
fn atomic_section_delays_interrupt_delivery() {
    // A BFM access (atomic) of 300 us is in flight when the interrupt
    // arrives at t=100; the ISR must start only at t=300 (modeled
    // interrupt latency from bus-transaction atomicity).
    let log = Log::default();
    let l = log.clone();
    let mut rtos = Rtos::new(KernelConfig::zero_cost(), move |sys, _| {
        let l_isr = l.clone();
        sys.tk_def_int(IntNo(2), 1, "isr", move |sys| {
            l_isr.push(format!("isr@{}", sys.now().as_us()));
        })
        .unwrap();
        let l_t = l.clone();
        let t = sys
            .tk_cre_tsk("dma", 10, move |sys, _| {
                sys.bfm_access("burst", Cost::time(us(300)));
                l_t.push(format!("burst-done@{}", sys.now().as_us()));
            })
            .unwrap();
        sys.tk_sta_tsk(t, 0).unwrap();
    });
    hardware_int_at(&rtos, us(100), IntNo(2), 1);
    rtos.run_for(ms(5));
    let entries = log.take();
    assert_eq!(entries[0], "isr@300");
    assert_eq!(entries[1], "burst-done@300");
}

#[test]
fn undefined_interrupt_is_ignored() {
    let count = Arc::new(AtomicU64::new(0));
    let c = Arc::clone(&count);
    let mut rtos = Rtos::new(KernelConfig::zero_cost(), move |sys, _| {
        let c2 = Arc::clone(&c);
        let t = sys
            .tk_cre_tsk("bg", 50, move |sys, _| {
                sys.exec(ms(1));
                c2.fetch_add(1, Ordering::SeqCst);
            })
            .unwrap();
        sys.tk_sta_tsk(t, 0).unwrap();
    });
    hardware_int_at(&rtos, us(100), IntNo(7), 1); // no handler defined
    rtos.run_for(ms(5));
    assert_eq!(count.load(Ordering::SeqCst), 1);
}

#[test]
fn cpu_lock_defers_interrupts() {
    let log = Log::default();
    let l = log.clone();
    let mut rtos = Rtos::new(KernelConfig::zero_cost(), move |sys, _| {
        let l_isr = l.clone();
        sys.tk_def_int(IntNo(0), 1, "isr", move |sys| {
            l_isr.push(format!("isr@{}", sys.now().as_us()));
        })
        .unwrap();
        let l_t = l.clone();
        let t = sys
            .tk_cre_tsk("locker", 10, move |sys, _| {
                sys.tk_loc_cpu().unwrap();
                sys.exec(us(500)); // interrupt at 100 must wait
                l_t.push(format!("unlocking@{}", sys.now().as_us()));
                sys.tk_unl_cpu().unwrap();
                sys.exec(us(100));
            })
            .unwrap();
        sys.tk_sta_tsk(t, 0).unwrap();
    });
    hardware_int_at(&rtos, us(100), IntNo(0), 1);
    rtos.run_for(ms(5));
    let entries = log.take();
    assert_eq!(entries[0], "unlocking@500");
    assert_eq!(entries[1], "isr@500");
}

#[test]
fn interrupt_counts_accumulate_in_ds() {
    let mut rtos = Rtos::new(KernelConfig::zero_cost(), move |sys, _| {
        sys.tk_def_int(IntNo(3), 0, "tick-isr", move |_| {})
            .unwrap();
        let t = sys
            .tk_cre_tsk("bg", 50, move |sys, _| {
                sys.exec(ms(3));
            })
            .unwrap();
        sys.tk_sta_tsk(t, 0).unwrap();
    });
    for i in 0..5 {
        hardware_int_at(&rtos, us(100 + i * 137), IntNo(3), 0);
    }
    rtos.run_for(ms(10));
    assert_eq!(rtos.ds().td_ref_int(IntNo(3)).unwrap().count, 5);
}

#[test]
fn interrupt_during_idle_cpu() {
    // No task is running when the interrupt fires; the ISR runs alone
    // and the CPU goes idle again.
    let log = Log::default();
    let l = log.clone();
    let mut rtos = Rtos::new(KernelConfig::zero_cost(), move |sys, _| {
        let l_isr = l.clone();
        sys.tk_def_int(IntNo(0), 0, "isr", move |sys| {
            l_isr.push(format!("isr@{}", sys.now().as_us()));
        })
        .unwrap();
    });
    hardware_int_at(&rtos, us(2500), IntNo(0), 0);
    rtos.run_for(ms(10));
    assert_eq!(log.take(), vec!["isr@2500"]);
    let (idle, _) = rtos.idle_stats();
    assert!(idle > ms(9));
}

#[test]
fn interrupt_storm_preserves_task_budget() {
    // 20 interrupts while a task executes 1 ms: the task's end time is
    // pushed out by exactly the ISR time (zero-cost model: 10 us each).
    let log = Log::default();
    let l = log.clone();
    let mut rtos = Rtos::new(KernelConfig::zero_cost(), move |sys, _| {
        sys.tk_def_int(IntNo(0), 0, "isr", move |sys| {
            sys.exec(us(10));
        })
        .unwrap();
        let l_t = l.clone();
        let t = sys
            .tk_cre_tsk("worker", 10, move |sys, _| {
                sys.exec(ms(1));
                l_t.push(format!("end@{}", sys.now().as_us()));
            })
            .unwrap();
        sys.tk_sta_tsk(t, 0).unwrap();
    });
    for i in 0..20 {
        hardware_int_at(&rtos, us(30 + i * 40), IntNo(0), 0);
    }
    rtos.run_for(ms(10));
    assert_eq!(log.take(), vec!["end@1200"]);
}

/// The same line raised again at a higher level while its ISR runs (the
/// 8051 controller can move a source to the high level between two
/// raises) waits for that activation's return, which chains it. Mounting
/// it as a nested frame would notify an ISR parked mid-body, and nothing
/// would run again: no tick, no task.
#[test]
fn same_line_raised_at_a_higher_level_waits_for_its_own_return() {
    let log = Log::default();
    let l = log.clone();
    let mut rtos = Rtos::new(KernelConfig::zero_cost(), move |sys, _| {
        let l_isr = l.clone();
        sys.tk_def_int(IntNo(0), 0, "isr0", move |sys| {
            l_isr.push(format!("isr-begin@{}", sys.now().as_us()));
            sys.exec(us(300));
            l_isr.push(format!("isr-end@{}", sys.now().as_us()));
        })
        .unwrap();
        let l_t = l.clone();
        let t = sys
            .tk_cre_tsk("worker", 10, move |sys, _| {
                sys.exec(ms(2));
                l_t.push(format!("task-end@{}", sys.now().as_us()));
            })
            .unwrap();
        sys.tk_sta_tsk(t, 0).unwrap();
    });
    hardware_int_at(&rtos, us(200), IntNo(0), 0);
    hardware_int_at(&rtos, us(300), IntNo(0), 1);
    rtos.run_for(ms(20));
    assert_eq!(
        log.take(),
        [
            "isr-begin@200",
            "isr-end@500",
            "isr-begin@500",
            "isr-end@800",
            "task-end@2600"
        ]
    );
    assert_eq!(rtos.ds().td_ref_int(IntNo(0)).unwrap().count, 2);
    assert_eq!(rtos.run_stats().ticks, 20);
}

/// An interrupt raised inside a cyclic handler stays pending until the
/// timer frame pops: nothing nests above it. The ISR body starts
/// `int_exit + int_entry` after the cyclic body ends (paper costs:
/// 8 + 12 µs), and the cyclic handler's `Handler` CET holds its entry,
/// body and exit costs only.
#[test]
fn interrupt_raised_in_a_cyclic_handler_waits_for_the_timer_frame() {
    let log = Log::default();
    let port: Rc<OnceCell<IntPort>> = Rc::default();
    let (l, p) = (log.clone(), Rc::clone(&port));
    let mut rtos = Rtos::new(KernelConfig::paper(), move |sys, _| {
        let l_isr = l.clone();
        sys.tk_def_int(IntNo(1), 1, "isr1", move |sys| {
            l_isr.push(format!("isr@{}", sys.now().as_us()));
        })
        .unwrap();
        let (l_cyc, p) = (l.clone(), Rc::clone(&p));
        let mut raised = false;
        sys.tk_cre_cyc("cyc", ms(2), SimTime::ZERO, true, move |sys| {
            sys.exec(us(100));
            if !std::mem::replace(&mut raised, true) {
                p.get().expect("port installed").raise(IntNo(1), 1);
            }
            sys.exec(us(100));
            l_cyc.push(format!("cyc-end@{}", sys.now().as_us()));
        })
        .unwrap();
    });
    port.set(rtos.int_port()).expect("set once");
    rtos.run_for(ms(5));
    assert_eq!(log.take(), ["cyc-end@2752", "isr@2772", "cyc-end@4752"]);
    let threads = rtos.threads();
    let cyc = threads.iter().find(|t| t.name == "cyc").unwrap();
    assert_eq!(cyc.stats.cycles, 2);
    assert_eq!(cyc.stats.cet(ExecContext::Handler), us(440));
}

/// Under zero costs an ISR whose body takes no time ends while a
/// higher-level request raised in the same burst waits for it to
/// acknowledge its freeze. The ISR acknowledges before its frame pops,
/// so the higher-level ISR runs and the tick keeps firing.
#[test]
fn zero_time_isr_acknowledges_a_freeze_before_its_return() {
    let log = Log::default();
    let l = log.clone();
    let mut rtos = Rtos::new(KernelConfig::zero_cost(), move |sys, _| {
        let l0 = l.clone();
        sys.tk_def_int(IntNo(0), 0, "a", move |sys| {
            l0.push(format!("a@{}", sys.now().as_us()));
        })
        .unwrap();
        let l1 = l.clone();
        sys.tk_def_int(IntNo(1), 1, "b", move |sys| {
            l1.push(format!("b@{}", sys.now().as_us()));
        })
        .unwrap();
        let l_t = l.clone();
        let t = sys
            .tk_cre_tsk("worker", 10, move |sys, _| {
                sys.exec(ms(2));
                l_t.push(format!("task-end@{}", sys.now().as_us()));
            })
            .unwrap();
        sys.tk_sta_tsk(t, 0).unwrap();
    });
    let port = rtos.int_port();
    rtos.sim_handle()
        .spawn_thread(sysc::SpawnMode::Immediate, move |ctx| {
            ctx.wait_time(us(200));
            port.raise_many(&[(IntNo(0), 0), (IntNo(1), 1)]);
        });
    rtos.run_for(ms(20));
    assert_eq!(log.take(), ["a@200", "b@200", "task-end@2000"]);
    assert_eq!(rtos.run_stats().ticks, 20);
}
