//! The paper's SIM_API coverage demonstration (§4): the same workload on
//! the three kernels — RTK-Spec I (round robin), RTK-Spec II (priority
//! preemptive, 16 levels) and RTK-Spec TRON (T-Kernel) — showing how the
//! scheduler plug-in changes the execution order while the SIM_API layer
//! stays identical.
//!
//! Run with: `cargo run --example three_kernels`

use std::cell::RefCell;
use std::rc::Rc;

use rtk_spec_tron::core::minikernels::{rtk_spec_i, rtk_spec_ii};
use rtk_spec_tron::core::{KernelConfig, Rtos, Sys};
use rtk_spec_tron::sysc::SimTime;

fn workload(log: Rc<RefCell<Vec<String>>>) -> impl FnMut(&mut Sys<'_>, i32) {
    move |sys, _| {
        for (name, pri) in [("alpha", 12u8), ("beta", 10), ("gamma", 14)] {
            let log = Rc::clone(&log);
            let t = sys
                .tk_cre_tsk(name, pri, move |sys, _| {
                    for round in 0..3 {
                        sys.exec(SimTime::from_ms(2));
                        log.borrow_mut().push(format!("{name}{round}"));
                    }
                })
                .unwrap();
            sys.tk_sta_tsk(t, 0).unwrap();
        }
    }
}

fn run(label: &str, mut rtos: Rtos, log: Rc<RefCell<Vec<String>>>) {
    rtos.run_for(SimTime::from_ms(60));
    println!("{label:<32} {}", log.borrow().join(" "));
}

fn main() {
    println!("completion order of 3 tasks x 3 rounds (2 ms each):\n");

    let log = Rc::new(RefCell::new(Vec::new()));
    run(
        "RTK-Spec I (round robin, 2t)",
        rtk_spec_i(2, workload(Rc::clone(&log))),
        log,
    );

    let log = Rc::new(RefCell::new(Vec::new()));
    run(
        "RTK-Spec II (priority, 16 lvl)",
        rtk_spec_ii(workload(Rc::clone(&log))),
        log,
    );

    let log = Rc::new(RefCell::new(Vec::new()));
    run(
        "RTK-Spec TRON (T-Kernel)",
        Rtos::new(KernelConfig::paper(), workload(Rc::clone(&log))),
        log,
    );

    println!(
        "\nround robin interleaves; the priority kernels run beta (pri 10) to completion first"
    );
}
