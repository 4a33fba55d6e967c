//! Mailboxes (`tk_cre_mbx`, `tk_snd_mbx`, `tk_rcv_mbx`, `tk_ref_mbx`).
//!
//! A mailbox passes discrete messages. The real kernel passes pointers
//! with priority headers; the simulation model passes owned
//! [`MsgPacket`]s, which preserves the visible semantics (message
//! priority ordering with `TA_MPRI`, FIFO otherwise) without modeling
//! target memory.

use crate::cost::ServiceClass;
use crate::error::{ErCode, KResult};
use crate::ids::{MbxId, TaskId};
use crate::rtos::Sys;
use crate::state::{Delivered, QueueOrder, Shared, Timeout, WaitObj};

use super::waitq::WaitQueue;

/// A mailbox message: a priority header plus a payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MsgPacket {
    /// Message priority (smaller = more urgent; used with `TA_MPRI`).
    pub pri: u8,
    /// Payload bytes.
    pub data: Vec<u8>,
}

impl MsgPacket {
    /// Creates a message with priority 0.
    pub fn new(data: impl Into<Vec<u8>>) -> Self {
        MsgPacket {
            pri: 0,
            data: data.into(),
        }
    }

    /// Creates a prioritized message.
    pub fn with_pri(pri: u8, data: impl Into<Vec<u8>>) -> Self {
        MsgPacket {
            pri,
            data: data.into(),
        }
    }
}

/// Mailbox control block.
#[derive(Debug)]
pub struct Mbx {
    pub(crate) name: String,
    pub(crate) msgs: Vec<MsgPacket>,
    /// `TA_MPRI`: messages are queued in priority order.
    pub(crate) msg_pri: bool,
    pub(crate) waitq: WaitQueue,
}

/// Snapshot returned by `tk_ref_mbx`.
#[derive(Debug, Clone)]
pub struct RefMbx {
    /// Mailbox name.
    pub name: String,
    /// Queued messages.
    pub msg_count: usize,
    /// Number of waiting (receiving) tasks.
    pub waiting: usize,
    /// The first waiting task, if any.
    pub first_waiter: Option<TaskId>,
}

impl<'a> Sys<'a> {
    /// `tk_cre_mbx` — creates a mailbox. `msg_pri` is `TA_MPRI`
    /// (priority-ordered messages); `order` orders the task wait queue.
    pub fn tk_cre_mbx(&mut self, name: &str, msg_pri: bool, order: QueueOrder) -> KResult<MbxId> {
        self.service_cost(ServiceClass::Mailbox, "tk_cre_mbx");
        let r = {
            let mut st = self.shared.st.borrow_mut();
            let raw = super::table_insert(
                &mut st.mbxs,
                Mbx {
                    name: name.to_string(),
                    msgs: Vec::new(),
                    msg_pri,
                    waitq: WaitQueue::new(order),
                },
            );
            st.observe(crate::obs::ObsEvent::MbxCreate {
                id: MbxId(raw),
                pri_order: order == QueueOrder::Priority,
            });
            Ok(MbxId(raw))
        };
        self.service_exit();
        r
    }

    /// `tk_del_mbx` — deletes a mailbox; waiters are released with
    /// `E_DLT`.
    pub fn tk_del_mbx(&mut self, id: MbxId) -> KResult<()> {
        self.service_cost(ServiceClass::Mailbox, "tk_del_mbx");
        let r = {
            let mut st = self.shared.st.borrow_mut();
            let now = self.proc.now();
            match super::table_get_mut(&mut st.mbxs, id.0) {
                Err(e) => Err(e),
                Ok(mbx) => {
                    let waiters = mbx.waitq.drain();
                    st.mbxs[id.0 as usize - 1] = None;
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

    /// `tk_snd_mbx` — sends a message (never blocks; a waiting receiver
    /// gets it directly).
    pub fn tk_snd_mbx(&mut self, id: MbxId, msg: MsgPacket) -> KResult<()> {
        self.service_cost(ServiceClass::Mailbox, "tk_snd_mbx");
        let r = {
            let mut st = self.shared.st.borrow_mut();
            let now = self.proc.now();
            match super::table_get_mut(&mut st.mbxs, id.0) {
                Err(e) => Err(e),
                Ok(mbx) => {
                    if let Some(receiver) = mbx.waitq.pop() {
                        st.observe(crate::obs::ObsEvent::MbxSend { id });
                        Shared::make_ready(&mut st, now, receiver, Ok(()), Delivered::Msg(msg));
                    } else {
                        if mbx.msg_pri {
                            let pos = mbx
                                .msgs
                                .iter()
                                .position(|m| m.pri > msg.pri)
                                .unwrap_or(mbx.msgs.len());
                            mbx.msgs.insert(pos, msg);
                        } else {
                            mbx.msgs.push(msg);
                        }
                        st.observe(crate::obs::ObsEvent::MbxSend { id });
                    }
                    Ok(())
                }
            }
        };
        self.service_exit();
        r
    }

    /// `tk_rcv_mbx` — receives the next message, waiting if the mailbox
    /// is empty.
    pub fn tk_rcv_mbx(&mut self, id: MbxId, tmo: Timeout) -> KResult<MsgPacket> {
        self.service_cost(ServiceClass::Mailbox, "tk_rcv_mbx");
        let r = (|| {
            let tid = self.check_blockable()?;
            let decision = {
                let mut st = self.shared.st.borrow_mut();
                let pri = st.tcb(tid)?.cur_pri;
                let mbx = super::table_get_mut(&mut st.mbxs, id.0)?;
                if !mbx.msgs.is_empty() {
                    let msg = mbx.msgs.remove(0);
                    st.observe(crate::obs::ObsEvent::MbxTake { id, tid });
                    Ok(msg)
                } else if tmo == Timeout::Poll {
                    Err(ErCode::Tmout)
                } else {
                    mbx.waitq.enqueue(tid, pri);
                    Err(ErCode::Sys) // sentinel: must block
                }
            };
            match decision {
                Ok(m) => Ok(m),
                Err(ErCode::Sys) => {
                    let shared = &self.shared;
                    let (res, delivered) =
                        shared.block_current(self.proc, tid, WaitObj::Mbx(id), tmo);
                    res.and(match delivered {
                        Delivered::Msg(m) => Ok(m),
                        _ => Err(ErCode::Sys),
                    })
                }
                Err(e) => Err(e),
            }
        })();
        self.service_exit();
        r
    }

    /// `tk_ref_mbx` — reference mailbox state.
    pub fn tk_ref_mbx(&mut self, id: MbxId) -> KResult<RefMbx> {
        self.service_cost(ServiceClass::Mailbox, "tk_ref_mbx");
        let r = {
            let st = self.shared.st.borrow();
            super::table_get(&st.mbxs, id.0).map(|m| RefMbx {
                name: m.name.clone(),
                msg_count: m.msgs.len(),
                waiting: m.waitq.len(),
                first_waiter: m.waitq.front(),
            })
        };
        self.service_exit();
        r
    }
}
