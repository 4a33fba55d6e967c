//! Serial I/O (the 8051 UART): SBUF transmit/receive with per-byte
//! timing derived from the baud rate, TI/RI completion flags, and the
//! serial interrupt.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::Rc;

use rtk_core::Sys;
use sysc::{SimHandle, SimTime};

use crate::intc::{IntController, IntSource};
use crate::timing::{cycles, BusTiming};

struct SerialInner {
    /// Bytes on the TX wire (completed transmissions), host-readable.
    tx_log: Vec<u8>,
    /// Transmit queue (bytes loaded into SBUF while the shifter is busy).
    tx_queue: VecDeque<u8>,
    tx_busy: bool,
    /// Receive FIFO (host-injected, timing applied at injection).
    rx_fifo: VecDeque<u8>,
    /// TI flag: a transmission completed.
    ti: bool,
    /// RI flag: a byte is available.
    ri: bool,
}

/// The serial port; cloneable handle.
#[derive(Clone)]
pub struct Serial {
    inner: Rc<RefCell<SerialInner>>,
    timing: BusTiming,
    byte_time: SimTime,
    intc: IntController,
    handle: SimHandle,
    tx_done_ev: sysc::EventId,
}

impl std::fmt::Debug for Serial {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Serial")
            .field("byte_time", &self.byte_time)
            .finish_non_exhaustive()
    }
}

impl Serial {
    /// Creates the serial port. `byte_time` is the time to shift one
    /// 10-bit frame (default from [`Serial::byte_time_for_baud`]).
    pub fn new(
        handle: &SimHandle,
        intc: IntController,
        timing: BusTiming,
        byte_time: SimTime,
    ) -> Self {
        let tx_done_ev = handle.create_event();
        let serial = Serial {
            inner: Rc::new(RefCell::new(SerialInner {
                tx_log: Vec::new(),
                tx_queue: VecDeque::new(),
                tx_busy: false,
                rx_fifo: VecDeque::new(),
                ti: false,
                ri: false,
            })),
            timing,
            byte_time,
            intc,
            handle: handle.clone(),
            tx_done_ev,
        };
        // TX-shifter completion logic as a method process.
        let s2 = serial.clone();
        handle.spawn_method(&[tx_done_ev], move || s2.on_tx_done());
        serial
    }

    /// 10-bit frame time for a baud rate, rounded to whole microseconds
    /// (the 8051's timer-derived bauds are approximate anyway).
    pub fn byte_time_for_baud(baud: u64) -> SimTime {
        SimTime::from_us(10 * 1_000_000 / baud)
    }

    /// Task-side: loads a byte into SBUF (1 machine cycle). The byte is
    /// queued if the shifter is busy; TI + a serial interrupt fire when
    /// the frame completes.
    pub fn send(&self, sys: &mut Sys<'_>, byte: u8) {
        sys.bfm_access("sbuf.wr", self.timing.access(cycles::SBUF));
        let start = {
            let mut inner = self.inner.borrow_mut();
            if inner.tx_busy {
                inner.tx_queue.push_back(byte);
                false
            } else {
                inner.tx_busy = true;
                inner.tx_queue.push_back(byte);
                true
            }
        };
        if start {
            self.handle.notify_after(self.tx_done_ev, self.byte_time);
        }
    }

    /// Task-side: sends a whole string (each byte individually timed at
    /// the SBUF interface; wire time runs concurrently).
    pub fn send_str(&self, sys: &mut Sys<'_>, s: &str) {
        for b in s.bytes() {
            self.send(sys, b);
        }
    }

    fn on_tx_done(&self) {
        let more = {
            let mut inner = self.inner.borrow_mut();
            let done = inner.tx_queue.pop_front();
            if let Some(b) = done {
                inner.tx_log.push(b);
            }
            inner.ti = true;
            if inner.tx_queue.is_empty() {
                inner.tx_busy = false;
                false
            } else {
                true
            }
        };
        self.intc.raise(IntSource::Serial);
        if more {
            self.handle.notify_after(self.tx_done_ev, self.byte_time);
        }
    }

    /// Task-side: reads the received byte from SBUF (1 machine cycle);
    /// `None` if the RX FIFO is empty.
    pub fn recv(&self, sys: &mut Sys<'_>) -> Option<u8> {
        sys.bfm_access("sbuf.rd", self.timing.access(cycles::SBUF));
        let mut inner = self.inner.borrow_mut();
        let b = inner.rx_fifo.pop_front();
        inner.ri = !inner.rx_fifo.is_empty();
        b
    }

    /// Task-side: reads and clears the TI flag (SCON access).
    pub fn take_ti(&self, sys: &mut Sys<'_>) -> bool {
        sys.bfm_access("scon.rd", self.timing.access(cycles::SFR));
        let mut inner = self.inner.borrow_mut();
        std::mem::take(&mut inner.ti)
    }

    /// Task-side: reads the RI flag (SCON access).
    pub fn ri(&self, sys: &mut Sys<'_>) -> bool {
        sys.bfm_access("scon.rd", self.timing.access(cycles::SFR));
        self.inner.borrow().ri
    }

    /// Host-side: injects received bytes (as if arriving on the wire
    /// now); sets RI and raises the serial interrupt once.
    pub fn inject_rx(&self, bytes: &[u8]) {
        {
            let mut inner = self.inner.borrow_mut();
            inner.rx_fifo.extend(bytes.iter().copied());
            inner.ri = true;
        }
        self.intc.raise(IntSource::Serial);
    }

    /// Host-side: everything transmitted so far.
    pub fn tx_log(&self) -> Vec<u8> {
        self.inner.borrow().tx_log.clone()
    }

    /// Host-side: transmitted bytes as a lossy string.
    pub fn tx_string(&self) -> String {
        String::from_utf8_lossy(&self.inner.borrow().tx_log).into_owned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn byte_time_from_baud() {
        assert_eq!(Serial::byte_time_for_baud(9600), SimTime::from_us(1041));
        assert_eq!(Serial::byte_time_for_baud(115200), SimTime::from_us(86));
    }
}
