//! Signals with SystemC update-phase semantics.
//!
//! A [`Signal`] holds a current value readable by any process. Writes go
//! to a *next* slot and are applied in the kernel's update phase; if the
//! value actually changed, the signal's `value_changed_event` is notified
//! in the following delta cycle. This is exactly `sc_signal`'s
//! request-update/update protocol, which the paper's BFM relies on for
//! race-free hardware modeling.

use std::cell::RefCell;
use std::fmt::Debug;
use std::rc::Rc;

use crate::ids::EventId;
use crate::kernel::SimHandle;

/// Values that can live in a [`Signal`].
///
/// The `vcd_value` rendering is used by waveform tracers (Fig. 4 of the
/// paper); the default renders via `Debug`.
pub trait SignalValue: Clone + PartialEq + Debug + 'static {
    /// VCD-style value rendering (e.g. `1`/`0` for bool, `b1010` for
    /// integers).
    fn vcd_value(&self) -> String {
        format!("{self:?}")
    }
}

impl SignalValue for bool {
    fn vcd_value(&self) -> String {
        if *self { "1" } else { "0" }.to_string()
    }
}

macro_rules! impl_signal_value_int {
    ($($t:ty),*) => {$(
        impl SignalValue for $t {
            fn vcd_value(&self) -> String {
                format!("b{:b}", self)
            }
        }
    )*};
}

impl_signal_value_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl SignalValue for char {}
impl SignalValue for String {}

/// Type-erased hook the kernel calls during the update phase.
pub(crate) trait UpdateTarget {
    /// Applies the pending write; returns the value-changed event if the
    /// value actually changed.
    fn apply_update(&self) -> Option<EventId>;
    /// `(name, current value)` for tracing, called only after a change.
    fn describe(&self) -> (String, String);
}

struct SignalInner<T: SignalValue> {
    name: String,
    current: RefCell<T>,
    next: RefCell<Option<T>>,
    changed_event: EventId,
}

impl<T: SignalValue> UpdateTarget for SignalInner<T> {
    fn apply_update(&self) -> Option<EventId> {
        let next = self.next.borrow_mut().take();
        if let Some(v) = next {
            let mut cur = self.current.borrow_mut();
            if *cur != v {
                *cur = v;
                return Some(self.changed_event);
            }
        }
        None
    }

    fn describe(&self) -> (String, String) {
        (self.name.clone(), self.current.borrow().vcd_value())
    }
}

/// A `sc_signal`-like channel: read anywhere, writes take effect in the
/// next update phase, changes notify an event one delta later.
///
/// # Examples
///
/// ```
/// use sysc::{Simulation, Signal, SimTime, SpawnMode};
///
/// let mut sim = Simulation::new();
/// let h = sim.handle();
/// let sig: Signal<u32> = Signal::new(&h, "bus", 0);
/// let watcher_saw = h.create_event();
/// let s = sig.clone();
/// h.spawn_thread(SpawnMode::Immediate, move |ctx| {
///     ctx.wait_event(s.value_changed_event());
///     assert_eq!(s.read(), 42);
///     ctx.handle().notify(watcher_saw);
/// });
/// let s2 = sig.clone();
/// h.spawn_thread(SpawnMode::Immediate, move |ctx| {
///     ctx.wait_time(SimTime::from_ns(10));
///     s2.write(42);
/// });
/// sim.run_to_completion();
/// assert_eq!(sim.handle().event_fire_count(watcher_saw), 1);
/// ```
pub struct Signal<T: SignalValue> {
    inner: Rc<SignalInner<T>>,
    handle: SimHandle,
}

impl<T: SignalValue> Clone for Signal<T> {
    fn clone(&self) -> Self {
        Signal {
            inner: Rc::clone(&self.inner),
            handle: self.handle.clone(),
        }
    }
}

impl<T: SignalValue> Debug for Signal<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Signal")
            .field("name", &self.inner.name)
            .field("value", &*self.inner.current.borrow())
            .finish()
    }
}

impl<T: SignalValue> Signal<T> {
    /// Creates a signal with an initial value. `name` labels its
    /// changes for a [`crate::Tracer`].
    pub fn new(handle: &SimHandle, name: &str, init: T) -> Self {
        let changed_event = handle.create_event();
        Signal {
            inner: Rc::new(SignalInner {
                name: name.to_string(),
                current: RefCell::new(init),
                next: RefCell::new(None),
                changed_event,
            }),
            handle: handle.clone(),
        }
    }

    /// The signal's name.
    pub fn name(&self) -> &str {
        &self.inner.name
    }

    /// Current value (as of the last completed update phase).
    pub fn read(&self) -> T {
        self.inner.current.borrow().clone()
    }

    /// Schedules a write for the next update phase.
    pub fn write(&self, value: T) {
        let first_request = self.inner.next.replace(Some(value)).is_none();
        if first_request {
            self.handle
                .request_update(Rc::clone(&self.inner) as Rc<dyn UpdateTarget>);
        }
    }

    /// Event notified (one delta after the update phase) whenever the
    /// value changes.
    pub fn value_changed_event(&self) -> EventId {
        self.inner.changed_event
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::{Simulation, SpawnMode};
    use crate::time::SimTime;

    #[test]
    fn signal_updates_in_update_phase_not_immediately() {
        let mut sim = Simulation::new();
        let h = sim.handle();
        let sig: Signal<u32> = Signal::new(&h, "s", 7);
        let s = sig.clone();
        let checked = h.create_event();
        h.spawn_thread(SpawnMode::Immediate, move |ctx| {
            s.write(9);
            // Write not visible until the update phase.
            assert_eq!(s.read(), 7);
            ctx.wait_time(SimTime::ZERO);
            assert_eq!(s.read(), 9);
            ctx.handle().notify(checked);
        });
        sim.run_to_completion();
        assert_eq!(sim.handle().event_fire_count(checked), 1);
    }

    #[test]
    fn last_write_in_a_delta_wins() {
        let mut sim = Simulation::new();
        let h = sim.handle();
        let sig: Signal<u32> = Signal::new(&h, "s", 0);
        let s = sig.clone();
        h.spawn_thread(SpawnMode::Immediate, move |ctx| {
            s.write(1);
            s.write(2);
            s.write(3);
            ctx.wait_time(SimTime::ZERO);
            assert_eq!(s.read(), 3);
        });
        sim.run_to_completion();
    }

    #[test]
    fn no_change_no_event() {
        let mut sim = Simulation::new();
        let h = sim.handle();
        let sig: Signal<bool> = Signal::new(&h, "s", true);
        let s = sig.clone();
        h.spawn_thread(SpawnMode::Immediate, move |ctx| {
            s.write(true); // same value: no value-changed notification
            ctx.wait_time(SimTime::from_ns(5));
        });
        sim.run_to_completion();
        assert_eq!(sim.handle().event_fire_count(sig.value_changed_event()), 0);
    }

    #[test]
    fn vcd_value_renderings() {
        assert_eq!(true.vcd_value(), "1");
        assert_eq!(false.vcd_value(), "0");
        assert_eq!(5u8.vcd_value(), "b101");
        assert_eq!(10u32.vcd_value(), "b1010");
        assert_eq!('x'.vcd_value(), "'x'");
    }
}
