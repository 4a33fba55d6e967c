//! Event flags (`tk_cre_flg`, `tk_set_flg`, `tk_clr_flg`, `tk_wai_flg`,
//! `tk_ref_flg`).
//!
//! A 32-bit pattern; tasks wait for AND/OR combinations with optional
//! clear-on-release (`TWF_CLR`) or clear-released-bits
//! (`TWF_BITCLR`). The `TA_WSGL` attribute restricts the flag to a
//! single waiter.

use crate::cost::ServiceClass;
use crate::error::{ErCode, KResult};
use crate::ids::{FlgId, TaskId};
use crate::rtos::Sys;
use crate::state::{Delivered, FlagWaitMode, QueueOrder, Shared, Timeout, WaitObj};

use super::waitq::WaitQueue;
use super::WaitDecision;

/// Event-flag control block.
#[derive(Debug)]
pub struct Flag {
    pub(crate) name: String,
    pub(crate) pattern: u32,
    /// `TA_WSGL`: only one task may wait at a time.
    pub(crate) single_wait: bool,
    pub(crate) waitq: WaitQueue,
}

/// Snapshot returned by `tk_ref_flg`.
#[derive(Debug, Clone)]
pub struct RefFlg {
    /// Flag name.
    pub name: String,
    /// Current bit pattern.
    pub pattern: u32,
    /// Number of waiting tasks.
    pub waiting: usize,
    /// The first waiting task, if any.
    pub first_waiter: Option<TaskId>,
}

fn satisfied(pattern: u32, waiptn: u32, mode: FlagWaitMode) -> bool {
    if mode.and {
        pattern & waiptn == waiptn
    } else {
        pattern & waiptn != 0
    }
}

fn apply_clear(pattern: &mut u32, waiptn: u32, mode: FlagWaitMode) {
    if mode.clear_all {
        *pattern = 0;
    } else if mode.clear_bits {
        *pattern &= !waiptn;
    }
}

impl<'a> Sys<'a> {
    /// `tk_cre_flg` — creates an event flag with initial pattern
    /// `iflgptn`. `single_wait` is the `TA_WSGL` attribute.
    pub fn tk_cre_flg(
        &mut self,
        name: &str,
        iflgptn: u32,
        single_wait: bool,
        order: QueueOrder,
    ) -> KResult<FlgId> {
        self.service(ServiceClass::EventFlag, "tk_cre_flg", |sys| {
            let mut st = sys.shared.st.borrow_mut();
            let id = FlgId(st.flags.insert(Flag {
                name: name.to_string(),
                pattern: iflgptn,
                single_wait,
                waitq: WaitQueue::new(order),
            }));
            st.observe(crate::obs::ObsEvent::FlagCreate {
                id,
                init: iflgptn,
                pri_order: order == QueueOrder::Priority,
            });
            Ok(id)
        })
    }

    /// `tk_del_flg` — deletes an event flag; waiters are released with
    /// `E_DLT`.
    pub fn tk_del_flg(&mut self, id: FlgId) -> KResult<()> {
        self.service(ServiceClass::EventFlag, "tk_del_flg", |sys| {
            let now = sys.now();
            let mut st = sys.shared.st.borrow_mut();
            let mut flag = st.flags.remove(id.0)?;
            super::release_deleted(&mut st, now, flag.waitq.drain());
            Ok(())
        })
    }

    /// `tk_set_flg` — ORs `setptn` into the pattern and releases every
    /// waiter whose condition becomes true (in queue order, re-checking
    /// after each clear-on-release).
    pub fn tk_set_flg(&mut self, id: FlgId, setptn: u32) -> KResult<()> {
        self.service(ServiceClass::EventFlag, "tk_set_flg", |sys| {
            let now = sys.now();
            let mut st = sys.shared.st.borrow_mut();
            let flag = st.flags.get_mut(id.0)?;
            flag.pattern |= setptn;
            let snapshot: Vec<TaskId> = flag.waitq.iter().collect();
            st.observe(crate::obs::ObsEvent::FlagSet { id, ptn: setptn });
            for tid in snapshot {
                let (waiptn, mode) = match st.tcb(tid).ok().and_then(|t| t.wait) {
                    Some(WaitObj::Flag(_, p, m)) => (p, m),
                    _ => continue,
                };
                let flag = st.flags.get_mut(id.0).expect("still exists");
                if satisfied(flag.pattern, waiptn, mode) {
                    let released = flag.pattern;
                    apply_clear(&mut flag.pattern, waiptn, mode);
                    flag.waitq.remove(tid);
                    let delivered = Delivered::FlagPattern(released);
                    Shared::make_ready(&mut st, now, tid, Ok(()), delivered);
                }
            }
            Ok(())
        })
    }

    /// `tk_clr_flg` — ANDs the pattern with `clrptn` (the specification's
    /// mask semantics: bits *not* in `clrptn` are cleared).
    pub fn tk_clr_flg(&mut self, id: FlgId, clrptn: u32) -> KResult<()> {
        self.service(ServiceClass::EventFlag, "tk_clr_flg", |sys| {
            let mut st = sys.shared.st.borrow_mut();
            st.flags.get_mut(id.0)?.pattern &= clrptn;
            st.observe(crate::obs::ObsEvent::FlagClear { id, mask: clrptn });
            Ok(())
        })
    }

    /// `tk_wai_flg` — waits until the flag pattern satisfies
    /// `waiptn`/`mode`; returns the pattern at release time.
    ///
    /// # Errors
    ///
    /// `E_PAR` for an empty pattern, `E_OBJ` if a second task waits on a
    /// `TA_WSGL` flag, plus the usual wait errors.
    pub fn tk_wai_flg(
        &mut self,
        id: FlgId,
        waiptn: u32,
        mode: FlagWaitMode,
        tmo: Timeout,
    ) -> KResult<u32> {
        self.service(ServiceClass::EventFlag, "tk_wai_flg", |sys| {
            sys.wait(
                tmo,
                |st, tid| {
                    let pri = st.tcb(tid)?.cur_pri;
                    let flag = st.flags.get_mut(id.0)?;
                    if waiptn == 0 {
                        return Err(ErCode::Par);
                    }
                    if satisfied(flag.pattern, waiptn, mode) {
                        let released = flag.pattern;
                        apply_clear(&mut flag.pattern, waiptn, mode);
                        st.observe(crate::obs::ObsEvent::FlagTake {
                            id,
                            tid,
                            ptn: waiptn,
                            mode,
                        });
                        Ok(WaitDecision::Served(released))
                    } else if flag.single_wait && !flag.waitq.is_empty() {
                        Err(ErCode::Obj)
                    } else if tmo == Timeout::Poll {
                        Err(ErCode::Tmout)
                    } else {
                        flag.waitq.enqueue(tid, pri);
                        Ok(WaitDecision::Block(WaitObj::Flag(id, waiptn, mode)))
                    }
                },
                |d| match d {
                    Delivered::FlagPattern(p) => Some(p),
                    _ => None,
                },
            )
        })
    }

    /// `tk_ref_flg` — reference event-flag state.
    pub fn tk_ref_flg(&mut self, id: FlgId) -> KResult<RefFlg> {
        self.service(ServiceClass::EventFlag, "tk_ref_flg", |sys| {
            sys.shared.st.borrow().flags.get(id.0).map(RefFlg::of)
        })
    }
}

impl RefFlg {
    /// The snapshot of `f` (`tk_ref_flg`, `td_ref_flg`).
    pub(crate) fn of(f: &Flag) -> Self {
        RefFlg {
            name: f.name.clone(),
            pattern: f.pattern,
            waiting: f.waitq.len(),
            first_waiter: f.waitq.front(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn satisfaction_modes() {
        assert!(satisfied(0b1010, 0b1010, FlagWaitMode::AND));
        assert!(!satisfied(0b1000, 0b1010, FlagWaitMode::AND));
        assert!(satisfied(0b1000, 0b1010, FlagWaitMode::OR));
        assert!(!satisfied(0b0100, 0b1010, FlagWaitMode::OR));
    }

    #[test]
    fn clear_modes() {
        let mut p = 0b1111;
        apply_clear(&mut p, 0b0011, FlagWaitMode::OR); // no clear
        assert_eq!(p, 0b1111);
        apply_clear(&mut p, 0b0011, FlagWaitMode::OR.with_bitclear());
        assert_eq!(p, 0b1100);
        apply_clear(&mut p, 0b0011, FlagWaitMode::OR.with_clear());
        assert_eq!(p, 0);
    }
}
