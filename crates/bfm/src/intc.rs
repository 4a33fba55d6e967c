//! The 8051-style interrupt controller: five sources, two priority
//! levels (IP), per-source and global enables (IE), with pending latches
//! for requests raised while a source is disabled.

use std::cell::RefCell;
use std::rc::Rc;

use rtk_core::{IntNo, IntPort};

/// The five interrupt sources of the classic 8051, in vector order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum IntSource {
    /// External interrupt 0 (pin INT0).
    Ext0,
    /// Timer 0 overflow.
    Timer0,
    /// External interrupt 1 (pin INT1).
    Ext1,
    /// Timer 1 overflow.
    Timer1,
    /// Serial port (TI/RI).
    Serial,
}

impl IntSource {
    /// All sources in vector order.
    pub const ALL: [IntSource; 5] = [
        IntSource::Ext0,
        IntSource::Timer0,
        IntSource::Ext1,
        IntSource::Timer1,
        IntSource::Serial,
    ];

    /// The interrupt vector number (used as the kernel `IntNo`).
    pub const fn vector(self) -> IntNo {
        IntNo(self.index() as u32)
    }

    /// Dense index 0..5.
    pub const fn index(self) -> usize {
        match self {
            IntSource::Ext0 => 0,
            IntSource::Timer0 => 1,
            IntSource::Ext1 => 2,
            IntSource::Timer1 => 3,
            IntSource::Serial => 4,
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct SourceState {
    enabled: bool,
    /// IP bit: `true` = high priority (level 1).
    high_priority: bool,
    /// Latched request waiting for enable.
    pending: bool,
    raised: u64,
}

struct IntcInner {
    global_enable: bool,
    sources: [SourceState; 5],
    port: Option<IntPort>,
}

/// The interrupt controller; cloneable handle.
#[derive(Clone)]
pub struct IntController {
    inner: Rc<RefCell<IntcInner>>,
}

impl std::fmt::Debug for IntController {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("IntController").finish_non_exhaustive()
    }
}

impl Default for IntController {
    fn default() -> Self {
        Self::new()
    }
}

impl IntController {
    /// Creates a controller with everything disabled (reset state).
    pub fn new() -> Self {
        IntController {
            inner: Rc::new(RefCell::new(IntcInner {
                global_enable: false,
                sources: [SourceState {
                    enabled: false,
                    high_priority: false,
                    pending: false,
                    raised: 0,
                }; 5],
                port: None,
            })),
        }
    }

    /// Connects the controller to the kernel's Interrupt Dispatch.
    pub fn connect(&self, port: IntPort) {
        self.inner.borrow_mut().port = Some(port);
    }

    /// Sets the global interrupt enable (IE.EA).
    pub fn set_global_enable(&self, on: bool) {
        self.inner.borrow_mut().global_enable = on;
        if on {
            self.flush_pending();
        }
    }

    /// Enables/disables one source (IE bit).
    pub fn set_enabled(&self, src: IntSource, on: bool) {
        self.inner.borrow_mut().sources[src.index()].enabled = on;
        if on {
            self.flush_pending();
        }
    }

    /// Sets one source's priority level (IP bit): `true` = high.
    pub fn set_high_priority(&self, src: IntSource, high: bool) {
        self.inner.borrow_mut().sources[src.index()].high_priority = high;
    }

    /// Raises an interrupt request from a peripheral. Disabled requests
    /// are latched and delivered on enable.
    pub fn raise(&self, src: IntSource) {
        let deliver = {
            let mut inner = self.inner.borrow_mut();
            let s = &mut inner.sources[src.index()];
            s.raised += 1;
            if inner.global_enable && inner.sources[src.index()].enabled {
                Some((
                    src.vector(),
                    u8::from(inner.sources[src.index()].high_priority),
                    inner.port.clone(),
                ))
            } else {
                inner.sources[src.index()].pending = true;
                None
            }
        };
        if let Some((no, level, Some(port))) = deliver {
            port.raise(no, level);
        }
    }

    /// Delivers latched requests that have become deliverable, as one
    /// batch: a single Interrupt Dispatch wake-up however many sources
    /// flush.
    fn flush_pending(&self) {
        let (port, to_send) = {
            let mut inner = self.inner.borrow_mut();
            if !inner.global_enable {
                return;
            }
            let port = inner.port.clone();
            let mut to_send = Vec::new();
            for src in IntSource::ALL {
                let s = &mut inner.sources[src.index()];
                if s.pending && s.enabled {
                    s.pending = false;
                    if port.is_some() {
                        to_send.push((src.vector(), u8::from(s.high_priority)));
                    }
                }
            }
            (port, to_send)
        };
        if let Some(port) = port {
            port.raise_many(&to_send);
        }
    }

    /// Number of times a source has been raised (diagnostics).
    pub fn raised_count(&self, src: IntSource) -> u64 {
        self.inner.borrow().sources[src.index()].raised
    }

    /// Whether a source currently has a latched (undelivered) request.
    pub fn is_pending(&self, src: IntSource) -> bool {
        self.inner.borrow().sources[src.index()].pending
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vectors_are_in_8051_order() {
        assert_eq!(IntSource::Ext0.vector(), IntNo(0));
        assert_eq!(IntSource::Timer0.vector(), IntNo(1));
        assert_eq!(IntSource::Ext1.vector(), IntNo(2));
        assert_eq!(IntSource::Timer1.vector(), IntNo(3));
        assert_eq!(IntSource::Serial.vector(), IntNo(4));
    }

    #[test]
    fn disabled_requests_latch() {
        let intc = IntController::new();
        intc.raise(IntSource::Ext0);
        assert!(intc.is_pending(IntSource::Ext0));
        assert_eq!(intc.raised_count(IntSource::Ext0), 1);
    }

    #[test]
    fn enable_flushes_latched_requests_without_port() {
        // Without a connected port, enable simply clears the latch.
        let intc = IntController::new();
        intc.raise(IntSource::Serial);
        intc.set_global_enable(true);
        intc.set_enabled(IntSource::Serial, true);
        assert!(!intc.is_pending(IntSource::Serial));
    }
}
