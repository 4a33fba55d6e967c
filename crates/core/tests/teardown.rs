//! A dropped kernel is freed. A task or handler body that owns an
//! interrupt port into its own kernel (what a BFM device model holds)
//! closes a reference cycle through the kernel's tables; dropping the
//! `Rtos` must break it.

use std::cell::OnceCell;
use std::rc::Rc;

use rtk_core::{IntNo, IntPort, KernelConfig, Rtos, Sys};
use sysc::SimTime;

/// Builds a kernel whose init task hands `install` a value that holds
/// an `IntPort` into this same kernel; `install` stores it in one
/// kernel table. Runs the kernel past boot, drops it and reports
/// whether the value outlived it.
fn outlives_its_kernel<F>(install: F) -> bool
where
    F: FnOnce(&mut Sys<'_>, Rc<OnceCell<IntPort>>) + 'static,
{
    let port: Rc<OnceCell<IntPort>> = Rc::default();
    let alive = Rc::downgrade(&port);
    let mut install = Some((install, port.clone()));
    let mut rtos = Rtos::new(KernelConfig::zero_cost(), move |sys, _| {
        if let Some((install, port)) = install.take() {
            install(sys, port);
        }
    });
    assert!(port.set(rtos.int_port()).is_ok());
    drop(port);
    rtos.run_for(SimTime::from_ms(5));
    drop(rtos);
    alive.upgrade().is_some()
}

#[test]
fn dropping_an_rtos_frees_bodies_that_hold_its_interrupt_port() {
    let task = outlives_its_kernel(|sys, port| {
        sys.tk_cre_tsk("holder", 10, move |_, _| {
            let _ = &port;
        })
        .unwrap();
    });
    let cyclic = outlives_its_kernel(|sys, port| {
        let ms = SimTime::from_ms(1);
        sys.tk_cre_cyc("holder", ms, ms, true, move |_| {
            let _ = &port;
        })
        .unwrap();
    });
    let alarm = outlives_its_kernel(|sys, port| {
        sys.tk_cre_alm("holder", move |_| {
            let _ = &port;
        })
        .unwrap();
    });
    let isr = outlives_its_kernel(|sys, port| {
        sys.tk_def_int(IntNo(1), 0, "holder", move |_| {
            let _ = &port;
        })
        .unwrap();
    });
    assert_eq!(
        (task, cyclic, alarm, isr),
        (false, false, false, false),
        "(task, cyclic, alarm, isr) body outlived its kernel"
    );
}

/// The init task itself is a table entry too: a main entry that
/// captures the port is freed with its kernel.
#[test]
fn dropping_an_rtos_frees_a_main_entry_that_holds_its_interrupt_port() {
    let port: Rc<OnceCell<IntPort>> = Rc::default();
    let alive = Rc::downgrade(&port);
    let p = port.clone();
    let mut rtos = Rtos::new(KernelConfig::zero_cost(), move |_, _| {
        let _ = &p;
    });
    assert!(port.set(rtos.int_port()).is_ok());
    drop(port);
    rtos.run_for(SimTime::from_ms(5));
    drop(rtos);
    assert!(
        alive.upgrade().is_none(),
        "the main entry outlived its kernel"
    );
}
