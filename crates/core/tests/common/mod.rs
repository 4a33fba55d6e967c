//! Helpers shared by more than one test binary.

use std::cell::RefCell;
use std::rc::Rc;

/// Shared ordered log: task and handler bodies push, the test takes.
#[derive(Clone, Default)]
pub struct Log(Rc<RefCell<Vec<String>>>);

impl Log {
    pub fn push(&self, s: impl Into<String>) {
        self.0.borrow_mut().push(s.into());
    }

    pub fn take(&self) -> Vec<String> {
        self.0.take()
    }
}
