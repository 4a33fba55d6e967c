//! Quickstart: two tasks synchronising through a semaphore on the
//! RTK-Spec TRON kernel, with a Gantt chart of what happened.
//!
//! Run with: `cargo run --example quickstart`

use rtk_spec_tron::analysis::{GanttChart, GanttConfig};
use rtk_spec_tron::core::{KernelConfig, QueueOrder, Rtos, Timeout};
use rtk_spec_tron::sysc::SimTime;

fn main() {
    // Build a kernel; the closure is the user main entry, running as
    // the initialization task after boot.
    let mut rtos = Rtos::new(KernelConfig::paper(), |sys, _| {
        let sem = sys.tk_cre_sem("gate", 0, 8, QueueOrder::Fifo).unwrap();

        let consumer = sys
            .tk_cre_tsk("consumer", 10, move |sys, _| {
                for i in 0..5 {
                    sys.tk_wai_sem(sem, 1, Timeout::Forever).unwrap();
                    println!("[{}] consumer got item {i}", sys.now());
                    sys.exec(SimTime::from_us(300)); // process the item
                }
            })
            .unwrap();

        let producer = sys
            .tk_cre_tsk("producer", 20, move |sys, _| {
                for i in 0..5 {
                    sys.exec(SimTime::from_ms(2)); // produce an item
                    println!("[{}] producer signals item {i}", sys.now());
                    sys.tk_sig_sem(sem, 1).unwrap();
                }
            })
            .unwrap();

        sys.tk_sta_tsk(consumer, 0).unwrap();
        sys.tk_sta_tsk(producer, 0).unwrap();
    });

    rtos.record_trace();

    rtos.run_for(SimTime::from_ms(15));

    println!();
    let chart = GanttChart::new(GanttConfig {
        width: 90,
        show_markers: true,
    });
    println!(
        "{}",
        chart.render(&rtos.trace_records(), SimTime::ZERO, SimTime::from_ms(15))
    );
    println!("{}", rtos.ds().dump_listing());
}
