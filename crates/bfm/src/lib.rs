//! # rtk-bfm — i8051 bus functional model for RTOS-centric co-simulation
//!
//! The hardware side of the RTK-Spec TRON co-simulation framework
//! (paper §5, Fig. 5): a cycle-budgeted bus functional model that
//! "approaches the 8051 core architecture in many structure and timing
//! aspects", exposed to application tasks as driver-model handshake
//! functions. Each BFM call carries a machine-cycle budget and an energy
//! estimate, consumed through the kernel's `SIM_Wait` machinery as an
//! uninterruptible bus transaction.
//!
//! Components: [`Memory`] (IRAM/XRAM/SFR), [`IntController`] (five
//! sources, two levels, pending latches), [`Serial`] (SBUF with per-byte
//! wire timing), [`Ports`] (P0–P3 as waveform-probeable signals plus the
//! ALE-multiplexed external bus), [`HwTimer`]s, and the case-study
//! peripherals [`Lcd`], [`Keypad`], [`Ssd`] with their headless GUI
//! [`widgets`].
//!
//! # Example
//!
//! ```
//! use rtk_bfm::Bfm;
//! use rtk_core::KernelConfig;
//! use sysc::SimTime;
//!
//! let (mut rtos, bfm) = Bfm::boot(KernelConfig::zero_cost(), |sys, bfm| {
//!     bfm.lcd.write_line(sys, 0, "hello");
//! });
//! rtos.run_for(SimTime::from_ms(1));
//! assert_eq!(bfm.lcd.snapshot()[0].trim(), "hello");
//! ```

#![warn(missing_docs)]

pub mod intc;
pub mod mcu;
pub mod memory;
pub mod peripherals;
pub mod ports;
pub mod serial;
pub mod timers;
pub mod timing;
pub mod widgets;

pub use intc::{IntController, IntSource};
pub use mcu::Bfm;
pub use memory::Memory;
pub use peripherals::{Keypad, Lcd, Ssd, LCD_COLS, LCD_ROWS, SSD_DIGITS};
pub use ports::Ports;
pub use serial::Serial;
pub use timers::HwTimer;
pub use timing::{cycles, BusTiming};
pub use widgets::{
    GuiCost, KeypadWidget, LcdWidget, SerialWidget, SsdWidget, Widget, WidgetManager,
};
