//! BFM–kernel co-simulation: driver calls consume bus time, peripherals
//! raise interrupts into the RTOS, and device state is visible to the
//! host.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use rtk_bfm::{Bfm, IntSource};
use rtk_core::{KernelConfig, Timeout};
use sysc::SimTime;

fn ms(v: u64) -> SimTime {
    SimTime::from_ms(v)
}
fn us(v: u64) -> SimTime {
    SimTime::from_us(v)
}

#[test]
fn lcd_write_takes_bus_time_and_updates_framebuffer() {
    let elapsed = Arc::new(AtomicU64::new(0));
    let e = Arc::clone(&elapsed);
    let (mut rtos, bfm) = Bfm::boot(KernelConfig::zero_cost(), move |sys, bfm| {
        let t0 = sys.now();
        bfm.lcd.write_line(sys, 0, "SCORE 0042");
        e.store((sys.now() - t0).as_us(), Ordering::SeqCst);
    });
    rtos.run_for(ms(50));
    assert_eq!(bfm.lcd.snapshot()[0], "SCORE 0042      ");
    // 1 cursor cmd (3 cycles) + 16 data writes (43 cycles each).
    assert_eq!(elapsed.load(Ordering::SeqCst), 3 + 16 * 43);
}

#[test]
fn keypad_interrupt_reaches_isr_and_task() {
    let got = Arc::new(AtomicU64::new(999));
    let g = Arc::clone(&got);
    let (mut rtos, bfm) = Bfm::boot(KernelConfig::zero_cost(), move |sys, bfm| {
        bfm.intc.set_global_enable(true);
        bfm.intc.set_enabled(IntSource::Ext1, true);
        bfm.intc.set_high_priority(IntSource::Ext1, true);
        let kp = bfm.keypad.clone();
        let g2 = Arc::clone(&g);
        let consumer = sys
            .tk_cre_tsk("consumer", 10, move |sys, _| {
                sys.tk_slp_tsk(Timeout::Forever).unwrap();
                if let Some(k) = kp.scan(sys) {
                    g2.store(k as u64, Ordering::SeqCst);
                }
            })
            .unwrap();
        sys.tk_sta_tsk(consumer, 0).unwrap();
        sys.tk_def_int(IntSource::Ext1.vector(), 1, "keypad-isr", move |sys| {
            sys.tk_wup_tsk(consumer).unwrap();
        })
        .unwrap();
    });
    // Press a key from "hardware" at 3 ms.
    let kp = bfm.keypad.clone();
    rtos.sim_handle()
        .spawn_thread(sysc::SpawnMode::Immediate, move |ctx| {
            ctx.wait_time(ms(3));
            kp.press(7);
        });
    rtos.run_for(ms(10));
    assert_eq!(got.load(Ordering::SeqCst), 7);
    assert_eq!(bfm.intc.raised_count(IntSource::Ext1), 1);
}

#[test]
fn serial_tx_completes_with_wire_timing_and_interrupt() {
    let ti_count = Arc::new(AtomicU64::new(0));
    let t = Arc::clone(&ti_count);
    let (mut rtos, bfm) = Bfm::boot(KernelConfig::zero_cost(), move |sys, bfm| {
        bfm.intc.set_global_enable(true);
        bfm.intc.set_enabled(IntSource::Serial, true);
        let t2 = Arc::clone(&t);
        sys.tk_def_int(IntSource::Serial.vector(), 0, "serial-isr", move |_| {
            t2.fetch_add(1, Ordering::SeqCst);
        })
        .unwrap();
        let serial = bfm.serial.clone();
        let tx = sys
            .tk_cre_tsk("logger", 10, move |sys, _| {
                serial.send_str(sys, "OK");
            })
            .unwrap();
        sys.tk_sta_tsk(tx, 0).unwrap();
    });
    rtos.run_for(ms(50));
    assert_eq!(bfm.serial.tx_string(), "OK");
    // One TI interrupt per byte.
    assert_eq!(ti_count.load(Ordering::SeqCst), 2);
}

#[test]
fn hw_timer_overflows_raise_interrupts() {
    let fired = Arc::new(AtomicU64::new(0));
    let f = Arc::clone(&fired);
    let (mut rtos, bfm) = Bfm::boot(KernelConfig::zero_cost(), move |sys, bfm| {
        bfm.intc.set_global_enable(true);
        bfm.intc.set_enabled(IntSource::Timer0, true);
        let f2 = Arc::clone(&f);
        sys.tk_def_int(IntSource::Timer0.vector(), 0, "t0-isr", move |_| {
            f2.fetch_add(1, Ordering::SeqCst);
        })
        .unwrap();
        bfm.timer0.start(ms(2));
    });
    rtos.run_for(ms(11));
    assert_eq!(fired.load(Ordering::SeqCst), 5); // 2,4,6,8,10
    assert_eq!(bfm.timer0.overflows(), 5);
    bfm.timer0.stop();
    rtos.run_for(ms(10));
    assert_eq!(fired.load(Ordering::SeqCst), 5);
}

#[test]
fn ssd_shows_number_with_latch_cost() {
    let elapsed = Arc::new(AtomicU64::new(0));
    let e = Arc::clone(&elapsed);
    let (mut rtos, bfm) = Bfm::boot(KernelConfig::zero_cost(), move |sys, bfm| {
        let t0 = sys.now();
        bfm.ssd.show_number(sys, 1234);
        e.store((sys.now() - t0).as_us(), Ordering::SeqCst);
    });
    rtos.run_for(ms(5));
    assert_eq!(bfm.ssd.value(), 1234);
    assert_eq!(bfm.ssd.digits(), [1, 2, 3, 4]);
    assert_eq!(elapsed.load(Ordering::SeqCst), 4 * 2); // 4 digits x 2 cycles
}

#[test]
fn disabled_interrupt_latches_until_enabled() {
    let fired = Arc::new(AtomicU64::new(0));
    let f = Arc::clone(&fired);
    let (mut rtos, bfm) = Bfm::boot(KernelConfig::zero_cost(), move |sys, bfm| {
        let f2 = Arc::clone(&f);
        sys.tk_def_int(IntSource::Ext1.vector(), 1, "isr", move |_| {
            f2.fetch_add(1, Ordering::SeqCst);
        })
        .unwrap();
        // Interrupts NOT enabled yet.
        let intc = bfm.intc.clone();
        let enabler = sys
            .tk_cre_tsk("enabler", 10, move |sys, _| {
                sys.tk_dly_tsk(ms(5)).unwrap();
                intc.set_global_enable(true);
                intc.set_enabled(IntSource::Ext1, true);
            })
            .unwrap();
        sys.tk_sta_tsk(enabler, 0).unwrap();
    });
    let kp = bfm.keypad.clone();
    rtos.sim_handle()
        .spawn_thread(sysc::SpawnMode::Immediate, move |ctx| {
            ctx.wait_time(ms(1));
            kp.press(3); // latched: interrupts disabled
        });
    rtos.run_for(ms(3));
    assert_eq!(fired.load(Ordering::SeqCst), 0);
    assert!(bfm.intc.is_pending(IntSource::Ext1));
    rtos.run_for(ms(10));
    assert_eq!(fired.load(Ordering::SeqCst), 1); // delivered on enable
}

#[test]
fn port_writes_are_probeable_signals() {
    let (mut rtos, bfm) = Bfm::boot(KernelConfig::zero_cost(), move |sys, bfm| {
        bfm.ports.write(sys, 1, 0x5A);
        sys.exec(us(10));
        bfm.ports.ext_bus_write(sys, 0x20, 0x77);
    });
    rtos.run_for(ms(5));
    assert_eq!(bfm.ports.peek(1), 0x5A);
    // The external bus leaves the data phase value on P0.
    assert_eq!(bfm.ports.peek(0), 0x77);
}
