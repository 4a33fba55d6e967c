//! Interrupt management (`tk_def_int`; `tk_ret_int` is implicit when the
//! handler body returns).
//!
//! External interrupts are raised by hardware models through
//! [`crate::IntPort`]; the central module's Interrupt Dispatch process
//! identifies them and activates the defined interrupt service routine
//! as a T-THREAD, with two-level 8051-style nesting (a level-1 request
//! preempts a level-0 handler; equal levels queue).

use std::cell::RefCell;
use std::collections::btree_map::Entry;
use std::rc::Rc;

use crate::cost::ServiceClass;
use crate::error::{ErCode, KResult};
use crate::ids::{IntNo, ThreadRef};
use crate::rtos::Sys;
use crate::state::HandlerBody;
use crate::tthread::TThreadKind;

/// Interrupt-handler definition record.
pub struct IsrRec {
    pub(crate) name: String,
    pub(crate) level: u8,
    pub(crate) count: u64,
    pub(crate) body: Rc<RefCell<Box<HandlerBody>>>,
}

impl std::fmt::Debug for IsrRec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("IsrRec")
            .field("name", &self.name)
            .field("level", &self.level)
            .field("count", &self.count)
            .finish()
    }
}

/// Snapshot returned by [`Sys::tk_ref_int`].
#[derive(Debug, Clone)]
pub struct RefInt {
    /// Handler name.
    pub name: String,
    /// Hardware priority level the handler was defined at.
    pub level: u8,
    /// Completed activations.
    pub count: u64,
}

impl<'a> Sys<'a> {
    /// `tk_def_int` — defines the interrupt service routine for
    /// interrupt number `intno` at hardware priority `level`.
    ///
    /// # Errors
    ///
    /// `E_OBJ` if a handler is already defined for `intno`.
    pub fn tk_def_int<F>(&mut self, intno: IntNo, level: u8, name: &str, body: F) -> KResult<()>
    where
        F: FnMut(&mut Sys<'_>) + 'static,
    {
        self.service(ServiceClass::Interrupt, "tk_def_int", |sys| {
            let mut st = sys.shared.st.borrow_mut();
            let Entry::Vacant(e) = st.isrs.entry(intno) else {
                return Err(ErCode::Obj);
            };
            e.insert(IsrRec {
                name: name.to_string(),
                level,
                count: 0,
                body: Rc::new(RefCell::new(Box::new(body) as Box<HandlerBody>)),
            });
            drop(st);
            let who = ThreadRef::Isr(intno);
            sys.shared
                .register_thread(who, name, TThreadKind::InterruptHandler);
            sys.shared.spawn_handler_thread(who);
            Ok(())
        })
    }

    /// `tk_ref_int` (extension) — reference an interrupt handler
    /// definition.
    pub fn tk_ref_int(&mut self, intno: IntNo) -> KResult<RefInt> {
        self.service(ServiceClass::Interrupt, "tk_ref_int", |sys| {
            let st = sys.shared.st.borrow();
            st.isrs.get(&intno).map(RefInt::of).ok_or(ErCode::NoExs)
        })
    }
}

impl RefInt {
    /// The snapshot of `i` (`tk_ref_int`, `td_ref_int`).
    pub(crate) fn of(i: &IsrRec) -> Self {
        RefInt {
            name: i.name.clone(),
            level: i.level,
            count: i.count,
        }
    }
}
