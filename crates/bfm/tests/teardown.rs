//! A kernel built with its BFM is freed when both are dropped. Two
//! reference cycles run through the pair: the serial port's and the
//! timers' method processes hold the interrupt controller, whose port
//! holds the kernel that owns those processes; and a task that keeps a
//! device clone holds the same port from inside the kernel's task
//! table.

use std::rc::{Rc, Weak};

use rtk_bfm::Bfm;
use rtk_core::{KernelConfig, Timeout};
use sysc::{SimTime, Tracer};

/// Attached to the engine, it lives exactly as long as the kernel.
struct KernelProbe;
impl Tracer for KernelProbe {}

/// Boots a BFM kernel with one sleeping task that owns a probe (and a
/// clone of the serial port, if asked), runs it and drops kernel and
/// BFM. Returns the task's probe and the kernel's.
fn run_and_drop(keep_serial: bool) -> (Weak<()>, Weak<KernelProbe>) {
    let probe = Rc::new(());
    let task = Rc::downgrade(&probe);
    let (mut rtos, bfm) = Bfm::boot(KernelConfig::zero_cost(), move |sys, bfm| {
        let serial = keep_serial.then(|| bfm.serial.clone());
        let tid = sys
            .tk_cre_tsk("holder", 10, move |sys, _| {
                let _ = (&probe, &serial);
                sys.tk_slp_tsk(Timeout::Forever).unwrap();
            })
            .unwrap();
        sys.tk_sta_tsk(tid, 0).unwrap();
    });
    let tracer = Rc::new(KernelProbe);
    let kernel = Rc::downgrade(&tracer);
    rtos.set_sim_tracer(tracer);
    rtos.run_for(SimTime::from_ms(5));
    drop(rtos);
    drop(bfm);
    (task, kernel)
}

#[test]
fn dropping_a_bfm_kernel_frees_it_and_its_tasks() {
    for keep_serial in [false, true] {
        let (task, kernel) = run_and_drop(keep_serial);
        assert!(
            task.upgrade().is_none(),
            "keep_serial={keep_serial}: task body outlived its kernel"
        );
        assert!(
            kernel.upgrade().is_none(),
            "keep_serial={keep_serial}: kernel outlived its drop"
        );
    }
}
