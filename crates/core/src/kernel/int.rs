//! Interrupt management (`tk_def_int`; `tk_ret_int` is implicit when the
//! handler body returns).
//!
//! External interrupts are raised by hardware models through
//! [`crate::IntPort`]; the central module's Interrupt Dispatch process
//! identifies them and activates the defined interrupt service routine
//! as a T-THREAD, with two-level 8051-style nesting (a level-1 request
//! preempts a level-0 handler; equal levels queue).
//!
//! Each ISR runs on a sysc process of its own, because a higher-level
//! request must be able to freeze it mid-body. Between activations the
//! process parks on the ISR's `resume_ev`, as a task does before its
//! first dispatch.

use std::cell::RefCell;
use std::collections::btree_map::Entry;
use std::rc::Rc;

use sysc::ProcCtx;

use crate::cost::ServiceClass;
use crate::error::{ErCode, KResult};
use crate::ids::{IntNo, ThreadRef};
use crate::rtos::Sys;
use crate::state::{HandlerBody, Shared, TThreadRec};

/// Interrupt-handler definition record.
pub struct IsrRec {
    pub(crate) name: String,
    pub(crate) level: u8,
    pub(crate) count: u64,
    pub(crate) body: Rc<RefCell<Box<HandlerBody>>>,
    pub(crate) thread: TThreadRec,
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
            let activation = e
                .insert(IsrRec {
                    name: name.to_string(),
                    level,
                    count: 0,
                    body: Rc::new(RefCell::new(Box::new(body) as Box<HandlerBody>)),
                    thread: TThreadRec::new(&sys.shared.h),
                })
                .thread
                .resume_ev;
            drop(st);
            let shared = Rc::clone(&sys.shared);
            sys.shared.h.spawn_loop(activation, move |proc| {
                // `true`: the next activation of this same line was
                // mounted on the spot; waiting for the event would miss
                // it.
                while shared.run_isr_activation(proc, intno) {}
            });
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

impl Shared {
    /// One ISR activation on the ISR's own process: the handler, then
    /// the implicit `tk_ret_int`, which pops the ISR's frame and
    /// continues the delivery chain. Returns `true` when it mounted the
    /// next request of this same line itself (run again at once).
    fn run_isr_activation(self: &Rc<Shared>, proc: &mut ProcCtx, no: IntNo) -> bool {
        let who = ThreadRef::Isr(no);
        self.run_handler(proc, who);
        let rerun = {
            let mut st = self.st.borrow_mut();
            let top = st.int_stack.pop().map(|(top, _)| top);
            debug_assert_eq!(top, Some(who), "ISR must be top of the SIM_Stack");
            let isr = st.isrs.get_mut(&no).expect("isr defined");
            isr.thread.parked = true;
            isr.count += 1;
            // A further pending request for this same line must be
            // mounted here, on this process: it is not back at its
            // activation wait yet, so a notification from
            // `after_frame_pop` would be lost and the mounted frame
            // would jam the interrupt stack forever.
            match Self::next_deliverable(&mut st) {
                Some(req) if req.intno == no => {
                    Self::mount_isr_frame(&mut st, req, proc.now());
                    true
                }
                Some(req) => {
                    // Not ours: put it back for `after_frame_pop`.
                    st.pending_ints.push_front(req);
                    false
                }
                None => false,
            }
        };
        if !rerun {
            self.after_frame_pop(proc);
        }
        rerun
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
