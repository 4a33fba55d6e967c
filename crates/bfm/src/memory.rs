//! Memory controller: 256 B internal RAM, 64 KiB external RAM, and the
//! special-function-register space, with per-access cycle budgets.

use std::cell::RefCell;
use std::rc::Rc;

use rtk_core::Sys;

use crate::timing::{cycles, BusTiming};

struct MemInner {
    iram: [u8; 256],
    xram: Vec<u8>,
    /// SFR space 0x80..=0xFF (index 0 = address 0x80).
    sfr: [u8; 128],
}

/// The memory controller; cloneable handle (shared state).
#[derive(Clone)]
pub struct Memory {
    inner: Rc<RefCell<MemInner>>,
    timing: BusTiming,
}

impl std::fmt::Debug for Memory {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Memory").finish_non_exhaustive()
    }
}

impl Memory {
    /// Creates a zeroed memory system.
    pub fn new(timing: BusTiming) -> Self {
        Memory {
            inner: Rc::new(RefCell::new(MemInner {
                iram: [0; 256],
                xram: vec![0; 65536],
                sfr: [0; 128],
            })),
            timing,
        }
    }

    /// Timed internal-RAM read (1 machine cycle).
    pub fn read_iram(&self, sys: &mut Sys<'_>, addr: u8) -> u8 {
        sys.bfm_access("iram.rd", self.timing.access(cycles::IRAM));
        self.inner.borrow().iram[addr as usize]
    }

    /// Timed internal-RAM write (1 machine cycle).
    pub fn write_iram(&self, sys: &mut Sys<'_>, addr: u8, value: u8) {
        sys.bfm_access("iram.wr", self.timing.access(cycles::IRAM));
        self.inner.borrow_mut().iram[addr as usize] = value;
    }

    /// Timed external-RAM read (`MOVX`, 2 machine cycles).
    pub fn read_xram(&self, sys: &mut Sys<'_>, addr: u16) -> u8 {
        sys.bfm_access("xram.rd", self.timing.access(cycles::XRAM));
        self.inner.borrow().xram[addr as usize]
    }

    /// Timed external-RAM write (`MOVX`, 2 machine cycles).
    pub fn write_xram(&self, sys: &mut Sys<'_>, addr: u16, value: u8) {
        sys.bfm_access("xram.wr", self.timing.access(cycles::XRAM));
        self.inner.borrow_mut().xram[addr as usize] = value;
    }

    /// Timed external-RAM block write (one MOVX per byte). The address
    /// wraps at 16 bits, as `MOVX @DPTR` with `INC DPTR` does, so a block
    /// that crosses 0xFFFF continues at 0x0000.
    pub fn write_xram_block(&self, sys: &mut Sys<'_>, addr: u16, data: &[u8]) {
        sys.bfm_access(
            "xram.blk",
            self.timing.access(cycles::XRAM * data.len() as u64),
        );
        let mut inner = self.inner.borrow_mut();
        for (i, b) in data.iter().enumerate() {
            inner.xram[usize::from(addr.wrapping_add(i as u16))] = *b;
        }
    }

    /// Timed SFR read (address must be in `0x80..=0xFF`).
    ///
    /// # Panics
    ///
    /// Panics on an address below the SFR window.
    pub fn read_sfr(&self, sys: &mut Sys<'_>, addr: u8) -> u8 {
        assert!(addr >= 0x80, "SFR space starts at 0x80");
        sys.bfm_access("sfr.rd", self.timing.access(cycles::SFR));
        self.inner.borrow().sfr[(addr - 0x80) as usize]
    }

    /// Timed SFR write.
    ///
    /// # Panics
    ///
    /// Panics on an address below the SFR window.
    pub fn write_sfr(&self, sys: &mut Sys<'_>, addr: u8, value: u8) {
        assert!(addr >= 0x80, "SFR space starts at 0x80");
        sys.bfm_access("sfr.wr", self.timing.access(cycles::SFR));
        self.inner.borrow_mut().sfr[(addr - 0x80) as usize] = value;
    }

    /// Untimed host-side peek (debug/waveform probing).
    pub fn peek_xram(&self, addr: u16) -> u8 {
        self.inner.borrow().xram[addr as usize]
    }

    /// Untimed host-side poke (test-bench initialisation).
    pub fn poke_xram(&self, addr: u16, value: u8) {
        self.inner.borrow_mut().xram[addr as usize] = value;
    }

    /// Untimed IRAM peek.
    pub fn peek_iram(&self, addr: u8) -> u8 {
        self.inner.borrow().iram[addr as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtk_core::{KernelConfig, Rtos};
    use std::cell::Cell;

    #[test]
    fn memory_round_trip_with_timing() {
        let elapsed = Rc::new(Cell::new(0));
        let e = Rc::clone(&elapsed);
        let mem = Memory::new(BusTiming::default());
        let m = mem.clone();
        let mut rtos = Rtos::new(KernelConfig::zero_cost(), move |sys, _| {
            let t0 = sys.now();
            m.write_iram(sys, 0x10, 0xAB);
            assert_eq!(m.read_iram(sys, 0x10), 0xAB);
            m.write_xram(sys, 0x1234, 0xCD);
            assert_eq!(m.read_xram(sys, 0x1234), 0xCD);
            m.write_sfr(sys, 0x90, 0x55);
            assert_eq!(m.read_sfr(sys, 0x90), 0x55);
            e.set((sys.now() - t0).as_us());
        });
        rtos.run_for(sysc::SimTime::from_ms(5));
        // 1+1 (iram) + 2+2 (xram) + 1+1 (sfr) = 8 machine cycles = 8 us.
        assert_eq!(elapsed.get(), 8);
        assert_eq!(mem.peek_xram(0x1234), 0xCD);
        assert_eq!(mem.peek_iram(0x10), 0xAB);
    }

    #[test]
    fn block_write_costs_per_byte() {
        let elapsed = Rc::new(Cell::new(0));
        let e = Rc::clone(&elapsed);
        let mem = Memory::new(BusTiming::default());
        let m = mem.clone();
        let mut rtos = Rtos::new(KernelConfig::zero_cost(), move |sys, _| {
            let t0 = sys.now();
            m.write_xram_block(sys, 0x100, &[1, 2, 3, 4, 5]);
            e.set((sys.now() - t0).as_us());
        });
        rtos.run_for(sysc::SimTime::from_ms(5));
        assert_eq!(elapsed.get(), 10); // 5 bytes x 2 cycles
        assert_eq!(mem.peek_xram(0x102), 3);
    }

    #[test]
    fn block_write_wraps_at_the_top_of_xram() {
        let mem = Memory::new(BusTiming::default());
        let m = mem.clone();
        let mut rtos = Rtos::new(KernelConfig::zero_cost(), move |sys, _| {
            m.write_xram_block(sys, 0xFFFF, &[1, 2]);
        });
        rtos.run_for(sysc::SimTime::from_ms(5));
        assert_eq!(mem.peek_xram(0xFFFF), 1);
        assert_eq!(mem.peek_xram(0x0000), 2);
    }
}
