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
        self.service_cost(ServiceClass::EventFlag, "tk_cre_flg");
        let r = {
            let mut st = self.shared.st.borrow_mut();
            let raw = super::table_insert(
                &mut st.flags,
                Flag {
                    name: name.to_string(),
                    pattern: iflgptn,
                    single_wait,
                    waitq: WaitQueue::new(order),
                },
            );
            st.observe(crate::obs::ObsEvent::FlagCreate {
                id: FlgId(raw),
                init: iflgptn,
                pri_order: order == QueueOrder::Priority,
            });
            Ok(FlgId(raw))
        };
        self.service_exit();
        r
    }

    /// `tk_del_flg` — deletes an event flag; waiters are released with
    /// `E_DLT`.
    pub fn tk_del_flg(&mut self, id: FlgId) -> KResult<()> {
        self.service_cost(ServiceClass::EventFlag, "tk_del_flg");
        let r = {
            let mut st = self.shared.st.borrow_mut();
            let now = self.proc.now();
            match super::table_get_mut(&mut st.flags, id.0) {
                Err(e) => Err(e),
                Ok(flag) => {
                    let waiters = flag.waitq.drain();
                    st.flags[id.0 as usize - 1] = None;
                    for tid in waiters {
                        Shared::make_ready(&mut st, now, tid, Err(ErCode::Dlt), Delivered::None);
                    }
                    Ok(())
                }
            }
        };
        self.service_exit();
        r
    }

    /// `tk_set_flg` — ORs `setptn` into the pattern and releases every
    /// waiter whose condition becomes true (in queue order, re-checking
    /// after each clear-on-release).
    pub fn tk_set_flg(&mut self, id: FlgId, setptn: u32) -> KResult<()> {
        self.service_cost(ServiceClass::EventFlag, "tk_set_flg");
        let r = {
            let mut st = self.shared.st.borrow_mut();
            let now = self.proc.now();
            match super::table_get_mut(&mut st.flags, id.0) {
                Err(e) => Err(e),
                Ok(flag) => {
                    flag.pattern |= setptn;
                    let snapshot: Vec<TaskId> = flag.waitq.iter().collect();
                    st.observe(crate::obs::ObsEvent::FlagSet { id, ptn: setptn });
                    for tid in snapshot {
                        let (waiptn, mode) = match st.tcb(tid).ok().and_then(|t| t.wait) {
                            Some(WaitObj::Flag(_, p, m)) => (p, m),
                            _ => continue,
                        };
                        let flag = super::table_get_mut(&mut st.flags, id.0).expect("still exists");
                        if satisfied(flag.pattern, waiptn, mode) {
                            let released = flag.pattern;
                            apply_clear(&mut flag.pattern, waiptn, mode);
                            flag.waitq.remove(tid);
                            Shared::make_ready(
                                &mut st,
                                now,
                                tid,
                                Ok(()),
                                Delivered::FlagPattern(released),
                            );
                        }
                    }
                    Ok(())
                }
            }
        };
        self.service_exit();
        r
    }

    /// `tk_clr_flg` — ANDs the pattern with `clrptn` (the specification's
    /// mask semantics: bits *not* in `clrptn` are cleared).
    pub fn tk_clr_flg(&mut self, id: FlgId, clrptn: u32) -> KResult<()> {
        self.service_cost(ServiceClass::EventFlag, "tk_clr_flg");
        let r = {
            let mut st = self.shared.st.borrow_mut();
            let r = super::table_get_mut(&mut st.flags, id.0).map(|f| {
                f.pattern &= clrptn;
            });
            if r.is_ok() {
                st.observe(crate::obs::ObsEvent::FlagClear { id, mask: clrptn });
            }
            r
        };
        self.service_exit();
        r
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
        self.service_cost(ServiceClass::EventFlag, "tk_wai_flg");
        let r = (|| {
            let tid = self.check_blockable()?;
            let decision = {
                let mut st = self.shared.st.borrow_mut();
                let pri = st.tcb(tid)?.cur_pri;
                let flag = super::table_get_mut(&mut st.flags, id.0)?;
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
                    Ok(released)
                } else if flag.single_wait && !flag.waitq.is_empty() {
                    Err(ErCode::Obj)
                } else if tmo == Timeout::Poll {
                    Err(ErCode::Tmout)
                } else {
                    flag.waitq.enqueue(tid, pri);
                    Err(ErCode::Sys) // sentinel: must block
                }
            };
            match decision {
                Ok(p) => Ok(p),
                Err(ErCode::Sys) => {
                    let shared = &self.shared;
                    let (res, delivered) =
                        shared.block_current(self.proc, tid, WaitObj::Flag(id, waiptn, mode), tmo);
                    res.map(|()| match delivered {
                        Delivered::FlagPattern(p) => p,
                        _ => 0,
                    })
                }
                Err(e) => Err(e),
            }
        })();
        self.service_exit();
        r
    }

    /// `tk_ref_flg` — reference event-flag state.
    pub fn tk_ref_flg(&mut self, id: FlgId) -> KResult<RefFlg> {
        self.service_cost(ServiceClass::EventFlag, "tk_ref_flg");
        let r = {
            let st = self.shared.st.borrow();
            super::table_get(&st.flags, id.0).map(|f| RefFlg {
                name: f.name.clone(),
                pattern: f.pattern,
                waiting: f.waitq.len(),
                first_waiter: f.waitq.front(),
            })
        };
        self.service_exit();
        r
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
