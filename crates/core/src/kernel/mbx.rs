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
use super::WaitDecision;

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
        self.service(ServiceClass::Mailbox, "tk_cre_mbx", |sys| {
            let mut st = sys.shared.st.borrow_mut();
            let id = MbxId(st.mbxs.insert(Mbx {
                name: name.to_string(),
                msgs: Vec::new(),
                msg_pri,
                waitq: WaitQueue::new(order),
            }));
            st.observe(crate::obs::ObsEvent::MbxCreate {
                id,
                pri_order: order == QueueOrder::Priority,
            });
            Ok(id)
        })
    }

    /// `tk_del_mbx` — deletes a mailbox; waiters are released with
    /// `E_DLT`.
    pub fn tk_del_mbx(&mut self, id: MbxId) -> KResult<()> {
        self.service(ServiceClass::Mailbox, "tk_del_mbx", |sys| {
            let now = sys.now();
            let mut st = sys.shared.st.borrow_mut();
            let mut mbx = st.mbxs.remove(id.0)?;
            super::release_deleted(&mut st, now, mbx.waitq.drain());
            Ok(())
        })
    }

    /// `tk_snd_mbx` — sends a message (never blocks; a waiting receiver
    /// gets it directly).
    pub fn tk_snd_mbx(&mut self, id: MbxId, msg: MsgPacket) -> KResult<()> {
        self.service(ServiceClass::Mailbox, "tk_snd_mbx", |sys| {
            let now = sys.now();
            let mut st = sys.shared.st.borrow_mut();
            let mbx = st.mbxs.get_mut(id.0)?;
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
        })
    }

    /// `tk_rcv_mbx` — receives the next message, waiting if the mailbox
    /// is empty.
    pub fn tk_rcv_mbx(&mut self, id: MbxId, tmo: Timeout) -> KResult<MsgPacket> {
        self.service(ServiceClass::Mailbox, "tk_rcv_mbx", |sys| {
            sys.wait(
                tmo,
                |st, tid| {
                    let pri = st.tcb(tid)?.cur_pri;
                    let mbx = st.mbxs.get_mut(id.0)?;
                    if !mbx.msgs.is_empty() {
                        let msg = mbx.msgs.remove(0);
                        st.observe(crate::obs::ObsEvent::MbxTake { id, tid });
                        Ok(WaitDecision::Served(msg))
                    } else if tmo == Timeout::Poll {
                        Err(ErCode::Tmout)
                    } else {
                        mbx.waitq.enqueue(tid, pri);
                        Ok(WaitDecision::Block(WaitObj::Mbx(id)))
                    }
                },
                |d| match d {
                    Delivered::Msg(m) => Some(m),
                    _ => None,
                },
            )
        })
    }

    /// `tk_ref_mbx` — reference mailbox state.
    pub fn tk_ref_mbx(&mut self, id: MbxId) -> KResult<RefMbx> {
        self.service(ServiceClass::Mailbox, "tk_ref_mbx", |sys| {
            sys.shared.st.borrow().mbxs.get(id.0).map(RefMbx::of)
        })
    }
}

impl RefMbx {
    /// The snapshot of `m` (`tk_ref_mbx`, `td_ref_mbx`).
    pub(crate) fn of(m: &Mbx) -> Self {
        RefMbx {
            name: m.name.clone(),
            msg_count: m.msgs.len(),
            waiting: m.waitq.len(),
            first_waiter: m.waitq.front(),
        }
    }
}
