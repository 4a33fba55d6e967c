//! Nested interrupts and delayed dispatching: a low-level ISR is
//! preempted by a high-level one; a task woken inside a handler runs
//! only after the outermost handler returns (the paper's footnote-1
//! dynamics).
//!
//! Run with: `cargo run --example interrupt_nesting`

use rtk_spec_tron::core::{IntNo, KernelConfig, Rtos, Timeout};
use rtk_spec_tron::sysc::{SimTime, SpawnMode};

fn main() {
    let mut rtos = Rtos::new(KernelConfig::paper(), |sys, _| {
        let woken = sys
            .tk_cre_tsk("woken", 5, |sys, _| {
                println!("[{}] task 'woken' dispatched (after handlers)", sys.now());
            })
            .unwrap();

        sys.tk_def_int(IntNo(0), 0, "low_isr", move |sys| {
            println!("[{}]   low_isr begins, wakes the task...", sys.now());
            sys.tk_sta_tsk(woken, 0).unwrap();
            sys.exec(SimTime::from_us(400)); // long handler body
            println!("[{}]   low_isr ends", sys.now());
        })
        .unwrap();

        sys.tk_def_int(IntNo(1), 1, "high_isr", move |sys| {
            println!("[{}]     high_isr nests over low_isr", sys.now());
            sys.exec(SimTime::from_us(100));
            println!("[{}]     high_isr returns", sys.now());
        })
        .unwrap();

        let bg = sys
            .tk_cre_tsk("background", 50, |sys, _| {
                println!("[{}] background task starts", sys.now());
                sys.exec(SimTime::from_ms(3));
                println!("[{}] background task done", sys.now());
                sys.tk_slp_tsk(Timeout::Forever).ok();
            })
            .unwrap();
        sys.tk_sta_tsk(bg, 0).unwrap();
    });

    // External hardware raises the two interrupts mid-execution.
    let port = rtos.int_port();
    rtos.sim_handle()
        .spawn_thread(SpawnMode::Immediate, move |ctx| {
            ctx.wait_time(SimTime::from_us(1200));
            port.raise(IntNo(0), 0); // low level
            ctx.wait_time(SimTime::from_us(150));
            port.raise(IntNo(1), 1); // nests over the low handler
        });

    rtos.run_for(SimTime::from_ms(10));
}
