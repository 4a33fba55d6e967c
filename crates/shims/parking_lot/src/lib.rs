//! Placeholder for the vendored `parking_lot` stand-in. No crate in the
//! workspace uses it any more: the simulation is single-threaded
//! (`Rc`/`RefCell`), and the one lock left, sysc's global coroutine
//! stack pool, is a `std::sync::Mutex`.
//!
//! The crate remains only because `farmbench/Cargo.lock` records it,
//! through the dependency lines that sysc, rtk-core and rtk-analysis
//! keep for that reason. It is deleted, with those lines and its lock
//! entries, by the next change to `farmbench/`.
