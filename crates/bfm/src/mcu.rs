//! The assembled bus functional model (paper §5.1, Fig. 5): "the BFM
//! consists of: Real Time Clock driving the kernel Central Module with
//! default timing resolution = 1 ms, Memory controller, Interrupt
//! controller, Serial I/O, and Multiplexed Parallel I/O interface to
//! which several external peripheral devices are connected."
//!
//! The real-time clock itself lives in the kernel's central module (the
//! `KernelConfig::tick`); everything else is wired here.

use std::cell::Cell;
use std::rc::Rc;

use rtk_core::{KernelConfig, Rtos, Sys};

use crate::intc::IntController;
use crate::memory::Memory;
use crate::peripherals::{Keypad, Lcd, Ssd};
use crate::ports::Ports;
use crate::serial::Serial;
use crate::timers::HwTimer;
use crate::timing::BusTiming;

/// The complete i8051-class bus functional model.
///
/// Its devices share state through `Rc`/`RefCell` with the kernel that
/// drives them, so a `Bfm` stays on the thread that built it, as its
/// [`Rtos`] does.
///
/// ```compile_fail
/// fn assert_send<T: Send>() {}
/// assert_send::<rtk_bfm::Bfm>();
/// ```
#[derive(Debug, Clone)]
pub struct Bfm {
    /// Memory controller (IRAM / XRAM / SFR).
    pub mem: Memory,
    /// Interrupt controller (IE/IP, 5 sources, 2 levels).
    pub intc: IntController,
    /// Serial I/O (SBUF/SCON).
    pub serial: Serial,
    /// Parallel ports P0–P3 + external multiplexed bus.
    pub ports: Ports,
    /// Hardware timer 0.
    pub timer0: HwTimer,
    /// Hardware timer 1.
    pub timer1: HwTimer,
    /// Character LCD on the external bus.
    pub lcd: Lcd,
    /// 4×4 matrix keypad (raises INT1).
    pub keypad: Keypad,
    /// 4-digit seven-segment display.
    pub ssd: Ssd,
    /// Bus timing used by every component.
    pub timing: BusTiming,
}

impl Bfm {
    /// Builds a kernel and its BFM together. `main` is the kernel's user
    /// main entry (the initialization task) and receives the BFM, which
    /// exists before the kernel first runs. The init task keeps neither
    /// `main` nor the BFM once `main` returns; what a task must keep, it
    /// clones.
    pub fn boot<F>(cfg: KernelConfig, main: F) -> (Rtos, Bfm)
    where
        F: FnOnce(&mut Sys<'_>, &Bfm) + 'static,
    {
        let slot = Rc::new(Cell::new(None));
        let wired = Rc::clone(&slot);
        let mut main = Some(main);
        let rtos = Rtos::new(cfg, move |sys, _| {
            if let (Some(main), Some(bfm)) = (main.take(), wired.take()) {
                main(sys, &bfm);
            }
        });
        let bfm = Bfm::new(&rtos);
        slot.set(Some(bfm.clone()));
        (rtos, bfm)
    }

    /// Builds the BFM and connects its interrupt controller to the
    /// kernel's Interrupt Dispatch module.
    pub fn new(rtos: &Rtos) -> Self {
        Self::with_timing(rtos, BusTiming::default(), Serial::byte_time_for_baud(9600))
    }

    /// Builds the BFM with explicit bus timing and serial byte time.
    pub fn with_timing(rtos: &Rtos, timing: BusTiming, serial_byte_time: sysc::SimTime) -> Self {
        let handle = rtos.sim_handle();
        let intc = IntController::new();
        intc.connect(rtos.int_port());
        let serial = Serial::new(&handle, intc.clone(), timing, serial_byte_time);
        Bfm {
            mem: Memory::new(timing),
            serial,
            ports: Ports::new(&handle, timing),
            timer0: HwTimer::new(&handle, intc.clone(), crate::intc::IntSource::Timer0),
            timer1: HwTimer::new(&handle, intc.clone(), crate::intc::IntSource::Timer1),
            lcd: Lcd::new(timing),
            keypad: Keypad::new(intc.clone(), timing),
            ssd: Ssd::new(timing),
            intc,
            timing,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bfm_builds_against_a_kernel() {
        let rtos = Rtos::new(KernelConfig::zero_cost(), |_sys, _| {});
        let bfm = Bfm::new(&rtos);
        assert_eq!(bfm.timing.machine_cycle, sysc::SimTime::from_us(1));
        assert!(!bfm.timer0.is_running());
        assert_eq!(bfm.ssd.value(), 0);
    }

    #[test]
    fn boot_hands_the_bfm_to_main_and_then_drops_main() {
        let token = Rc::new(());
        let held = Rc::clone(&token);
        let (mut rtos, bfm) = Bfm::boot(KernelConfig::zero_cost(), move |sys, bfm| {
            let _held = &held;
            bfm.ssd.show_number(sys, 7);
        });
        assert_eq!(Rc::strong_count(&token), 2);
        rtos.run_for(sysc::SimTime::from_ms(1));
        assert_eq!(bfm.ssd.value(), 7);
        assert_eq!(Rc::strong_count(&token), 1, "main outlived its run");
    }
}
