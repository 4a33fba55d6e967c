//! Property-based tests of the BFM: memory consistency against a
//! reference model, timing linearity of bus accesses, and interrupt
//! latch behaviour under random enable/raise sequences.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use proptest::prelude::*;
use rtk_bfm::{Bfm, BusTiming, IntController, IntSource};
use rtk_core::KernelConfig;
use sysc::SimTime;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// XRAM behaves as a 64 KiB byte array: reads return the last write,
    /// and total bus time is exactly 2 machine cycles per access.
    #[test]
    fn xram_matches_reference_model(
        ops in proptest::collection::vec((any::<u16>(), any::<u8>(), any::<bool>()), 1..60),
    ) {
        let elapsed = Arc::new(AtomicU64::new(0));
        let violations = Arc::new(AtomicU64::new(0));
        let (e2, v2) = (Arc::clone(&elapsed), Arc::clone(&violations));
        let n_ops = ops.len() as u64;
        let (mut rtos, _bfm) = Bfm::boot(KernelConfig::zero_cost(), move |sys, bfm| {
            let mut model: HashMap<u16, u8> = HashMap::new();
            let t0 = sys.now();
            for (addr, val, is_write) in &ops {
                if *is_write {
                    bfm.mem.write_xram(sys, *addr, *val);
                    model.insert(*addr, *val);
                } else {
                    let got = bfm.mem.read_xram(sys, *addr);
                    let want = model.get(addr).copied().unwrap_or(0);
                    if got != want {
                        v2.fetch_add(1, Ordering::SeqCst);
                    }
                }
            }
            e2.store((sys.now() - t0).as_us(), Ordering::SeqCst);
        });
        rtos.run_for(SimTime::from_ms(50));
        prop_assert_eq!(violations.load(Ordering::SeqCst), 0);
        // MOVX = 2 machine cycles = 2 us each.
        prop_assert_eq!(elapsed.load(Ordering::SeqCst), n_ops * 2);
    }

    /// The interrupt controller's latch model: raises while disabled are
    /// pending; enabling delivers each latched source at most once; raise
    /// counts are conserved.
    #[test]
    fn intc_latch_conservation(
        raises in proptest::collection::vec(0usize..5, 1..20),
        enable_order in proptest::collection::vec(0usize..5, 0..5),
    ) {
        let intc = IntController::new();
        // No port connected: delivery is a no-op, but latch bookkeeping
        // must stay consistent.
        for r in &raises {
            intc.raise(IntSource::ALL[*r]);
        }
        for src in IntSource::ALL {
            let count = raises.iter().filter(|r| IntSource::ALL[**r] == src).count() as u64;
            prop_assert_eq!(intc.raised_count(src), count);
            prop_assert_eq!(intc.is_pending(src), count > 0);
        }
        intc.set_global_enable(true);
        for e in &enable_order {
            intc.set_enabled(IntSource::ALL[*e], true);
            // Once enabled, the latch for that source must be clear.
            prop_assert!(!intc.is_pending(IntSource::ALL[*e]));
        }
    }

    /// LCD write_line always leaves exactly LCD_COLS characters in the
    /// row, regardless of input length, and costs a fixed budget.
    #[test]
    fn lcd_line_writes_are_fixed_width(text in ".{0,40}") {
        let elapsed = Arc::new(AtomicU64::new(0));
        let e2 = Arc::clone(&elapsed);
        let text2 = text.clone();
        let (mut rtos, bfm) = Bfm::boot(KernelConfig::zero_cost(), move |sys, bfm| {
            let t0 = sys.now();
            bfm.lcd.write_line(sys, 0, &text2);
            e2.store((sys.now() - t0).as_us(), Ordering::SeqCst);
        });
        rtos.run_for(SimTime::from_ms(100));
        let row = &bfm.lcd.snapshot()[0];
        prop_assert_eq!(row.chars().count(), rtk_bfm::LCD_COLS);
        // Cursor cmd (3 cycles) + 16 data writes (43 cycles each),
        // independent of the input length.
        prop_assert_eq!(elapsed.load(Ordering::SeqCst), 3 + 16 * 43);
    }

    /// Bus timing is linear in cycle count.
    #[test]
    fn bus_access_cost_is_linear(cycles in 1u64..10_000) {
        let t = BusTiming::mcu_8051_12mhz();
        let one = t.access(1);
        let many = t.access(cycles);
        prop_assert_eq!(many.time.as_ps(), one.time.as_ps() * cycles);
        prop_assert_eq!(many.energy.as_pj(), one.energy.as_pj() * cycles);
    }
}
