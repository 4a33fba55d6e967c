//! Hardware timers 0/1: modeled at the overflow level (auto-reload
//! mode 2): a periodic sysc event raises the timer interrupt, instead of
//! simulating every increment — the discrete-event equivalent of the
//! RTL counter.

use std::cell::RefCell;
use std::rc::Rc;

use sysc::{SimHandle, SimTime};

use crate::intc::{IntController, IntSource};

struct TimerInner {
    running: bool,
    period: SimTime,
    overflows: u64,
}

/// One hardware timer; cloneable handle.
#[derive(Clone)]
pub struct HwTimer {
    inner: Rc<RefCell<TimerInner>>,
    source: IntSource,
    handle: SimHandle,
    overflow_ev: sysc::EventId,
}

impl std::fmt::Debug for HwTimer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.inner.borrow();
        f.debug_struct("HwTimer")
            .field("source", &self.source)
            .field("running", &inner.running)
            .field("period", &inner.period)
            .finish()
    }
}

impl HwTimer {
    /// Creates a stopped timer bound to `source` (Timer0 or Timer1).
    pub fn new(handle: &SimHandle, intc: IntController, source: IntSource) -> Self {
        let overflow_ev = handle.create_event();
        let timer = HwTimer {
            inner: Rc::new(RefCell::new(TimerInner {
                running: false,
                period: SimTime::from_ms(1),
                overflows: 0,
            })),
            source,
            handle: handle.clone(),
            overflow_ev,
        };
        let t2 = timer.clone();
        handle.spawn_method(&[overflow_ev], move || {
            t2.inner.borrow_mut().overflows += 1;
            intc.raise(t2.source);
        });
        timer
    }

    /// Starts the timer with the given overflow period.
    ///
    /// # Panics
    ///
    /// Panics if `period` is zero.
    pub fn start(&self, period: SimTime) {
        assert!(!period.is_zero(), "timer period must be non-zero");
        {
            let mut inner = self.inner.borrow_mut();
            inner.running = true;
            inner.period = period;
        }
        self.handle.make_periodic(self.overflow_ev, period, period);
    }

    /// Stops the timer.
    pub fn stop(&self) {
        self.inner.borrow_mut().running = false;
        self.handle.stop_periodic(self.overflow_ev);
        self.handle.cancel(self.overflow_ev);
    }

    /// Number of overflows so far.
    pub fn overflows(&self) -> u64 {
        self.inner.borrow().overflows
    }

    /// Whether the timer is running.
    pub fn is_running(&self) -> bool {
        self.inner.borrow().running
    }
}
