//! Message buffers (`tk_cre_mbf`, `tk_snd_mbf`, `tk_rcv_mbf`,
//! `tk_ref_mbf`).
//!
//! A byte-stream buffer carrying variable-size messages. Senders block
//! while the buffer lacks space; receivers block while it is empty. A
//! zero-size buffer degenerates to a synchronous rendezvous (the
//! specification's synchronous message passing).

use std::collections::HashMap;
use std::collections::VecDeque;

use crate::cost::ServiceClass;
use crate::error::{ErCode, KResult};
use crate::ids::{MbfId, TaskId};
use crate::rtos::Sys;
use crate::state::{Delivered, KernelState, QueueOrder, Shared, Timeout, WaitObj};

use super::waitq::WaitQueue;

/// Message-buffer control block.
#[derive(Debug)]
pub struct Mbf {
    pub(crate) name: String,
    /// Buffer capacity in bytes (0 = synchronous).
    pub(crate) bufsz: usize,
    /// Maximum message size.
    pub(crate) maxmsz: usize,
    /// Bytes currently buffered.
    pub(crate) used: usize,
    pub(crate) msgs: VecDeque<Vec<u8>>,
    pub(crate) send_q: WaitQueue,
    pub(crate) recv_q: WaitQueue,
    /// Payloads of blocked senders.
    pub(crate) send_data: HashMap<TaskId, Vec<u8>>,
}

/// Snapshot returned by `tk_ref_mbf`.
#[derive(Debug, Clone)]
pub struct RefMbf {
    /// Buffer name.
    pub name: String,
    /// Free bytes.
    pub free: usize,
    /// Queued messages.
    pub msg_count: usize,
    /// Blocked senders.
    pub senders_waiting: usize,
    /// Blocked receivers.
    pub receivers_waiting: usize,
}

/// Moves messages from blocked senders into the buffer while space
/// allows, in strict queue order; wakes the senders. Shared by
/// `tk_rcv_mbf` and the waiter-detach paths (removing a blocked head
/// sender can make room-wise smaller messages behind it fit).
pub(crate) fn drain_senders(st: &mut KernelState, id: MbfId, now: sysc::SimTime) {
    loop {
        let action = {
            let Ok(mbf) = super::table_get_mut(&mut st.mbfs, id.0) else {
                return;
            };
            let Some(front) = mbf.send_q.front() else {
                return;
            };
            let len = mbf.send_data.get(&front).map(|d| d.len()).unwrap_or(0);
            if mbf.used + len <= mbf.bufsz {
                let data = mbf.send_data.remove(&front).unwrap_or_default();
                mbf.used += data.len();
                mbf.msgs.push_back(data);
                mbf.send_q.pop();
                Some(front)
            } else {
                None
            }
        };
        match action {
            Some(tid) => Shared::make_ready(st, now, tid, Ok(()), Delivered::None),
            None => return,
        }
    }
}

impl<'a> Sys<'a> {
    /// `tk_cre_mbf` — creates a message buffer of `bufsz` bytes carrying
    /// messages up to `maxmsz` bytes.
    ///
    /// # Errors
    ///
    /// `E_PAR` if `maxmsz == 0`.
    pub fn tk_cre_mbf(
        &mut self,
        name: &str,
        bufsz: usize,
        maxmsz: usize,
        order: QueueOrder,
    ) -> KResult<MbfId> {
        self.service_cost(ServiceClass::MessageBuffer, "tk_cre_mbf");
        let r = {
            if maxmsz == 0 {
                Err(ErCode::Par)
            } else {
                let mut st = self.shared.st.borrow_mut();
                let raw = super::table_insert(
                    &mut st.mbfs,
                    Mbf {
                        name: name.to_string(),
                        bufsz,
                        maxmsz,
                        used: 0,
                        msgs: VecDeque::new(),
                        send_q: WaitQueue::new(order),
                        recv_q: WaitQueue::new(order),
                        send_data: HashMap::new(),
                    },
                );
                st.observe(crate::obs::ObsEvent::MbfCreate {
                    id: MbfId(raw),
                    bufsz,
                    maxmsz,
                    pri_order: order == QueueOrder::Priority,
                });
                Ok(MbfId(raw))
            }
        };
        self.service_exit();
        r
    }

    /// `tk_del_mbf` — deletes a message buffer; all waiters are released
    /// with `E_DLT`.
    pub fn tk_del_mbf(&mut self, id: MbfId) -> KResult<()> {
        self.service_cost(ServiceClass::MessageBuffer, "tk_del_mbf");
        let r = {
            let mut st = self.shared.st.borrow_mut();
            let now = self.proc.now();
            match super::table_get_mut(&mut st.mbfs, id.0) {
                Err(e) => Err(e),
                Ok(mbf) => {
                    let mut waiters = mbf.send_q.drain();
                    waiters.extend(mbf.recv_q.drain());
                    st.mbfs[id.0 as usize - 1] = None;
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

    /// `tk_snd_mbf` — sends a message, waiting for buffer space if
    /// necessary.
    ///
    /// # Errors
    ///
    /// `E_PAR` for empty or oversized messages, plus the usual wait
    /// errors.
    pub fn tk_snd_mbf(&mut self, id: MbfId, msg: &[u8], tmo: Timeout) -> KResult<()> {
        self.service_cost(ServiceClass::MessageBuffer, "tk_snd_mbf");
        let r = (|| {
            let tid = self.check_blockable()?;
            let decision = {
                let mut st = self.shared.st.borrow_mut();
                let now = self.proc.now();
                let pri = st.tcb(tid)?.cur_pri;
                enum Act {
                    Direct(TaskId),
                    Stored,
                    Poll,
                    Block,
                }
                let act = {
                    let mbf = super::table_get_mut(&mut st.mbfs, id.0)?;
                    if msg.is_empty() || msg.len() > mbf.maxmsz {
                        return Err(ErCode::Par);
                    }
                    // Direct handoff only when no older message waits.
                    let direct = if mbf.msgs.is_empty() && mbf.send_q.is_empty() {
                        mbf.recv_q.pop()
                    } else {
                        None
                    };
                    if let Some(receiver) = direct {
                        Act::Direct(receiver)
                    } else if mbf.send_q.is_empty() && mbf.used + msg.len() <= mbf.bufsz {
                        mbf.used += msg.len();
                        mbf.msgs.push_back(msg.to_vec());
                        Act::Stored
                    } else if tmo == Timeout::Poll {
                        Act::Poll
                    } else {
                        mbf.send_data.insert(tid, msg.to_vec());
                        mbf.send_q.enqueue(tid, pri);
                        Act::Block
                    }
                };
                match act {
                    Act::Direct(receiver) => {
                        st.observe(crate::obs::ObsEvent::MbfSend { id, len: msg.len() });
                        Shared::make_ready(
                            &mut st,
                            now,
                            receiver,
                            Ok(()),
                            Delivered::MbfMsg(msg.to_vec()),
                        );
                        Ok(())
                    }
                    Act::Stored => {
                        st.observe(crate::obs::ObsEvent::MbfSend { id, len: msg.len() });
                        Ok(())
                    }
                    Act::Poll => Err(ErCode::Tmout),
                    Act::Block => Err(ErCode::Sys), // sentinel: must block
                }
            };
            match decision {
                Ok(()) => Ok(()),
                Err(ErCode::Sys) => {
                    let shared = &self.shared;
                    let (res, _) =
                        shared.block_current(self.proc, tid, WaitObj::MbfSend(id, msg.len()), tmo);
                    res
                }
                Err(e) => Err(e),
            }
        })();
        self.service_exit();
        r
    }

    /// `tk_rcv_mbf` — receives the next message, waiting if the buffer
    /// is empty.
    pub fn tk_rcv_mbf(&mut self, id: MbfId, tmo: Timeout) -> KResult<Vec<u8>> {
        self.service_cost(ServiceClass::MessageBuffer, "tk_rcv_mbf");
        let r = (|| {
            let tid = self.check_blockable()?;
            let decision = {
                let mut st = self.shared.st.borrow_mut();
                let now = self.proc.now();
                let pri = st.tcb(tid)?.cur_pri;
                enum Act {
                    Got(Vec<u8>),
                    Rendezvous(TaskId, Vec<u8>),
                    Poll,
                    Block,
                }
                let act = {
                    let mbf = super::table_get_mut(&mut st.mbfs, id.0)?;
                    if let Some(data) = mbf.msgs.pop_front() {
                        mbf.used -= data.len();
                        Act::Got(data)
                    } else if let Some(sender) = mbf.send_q.pop() {
                        // Synchronous rendezvous (bufsz == 0, or
                        // everything buffered was consumed).
                        let data = mbf.send_data.remove(&sender).unwrap_or_default();
                        Act::Rendezvous(sender, data)
                    } else if tmo == Timeout::Poll {
                        Act::Poll
                    } else {
                        mbf.recv_q.enqueue(tid, pri);
                        Act::Block
                    }
                };
                match act {
                    Act::Got(data) => {
                        st.observe(crate::obs::ObsEvent::MbfRecv { id, tid });
                        drain_senders(&mut st, id, now);
                        Ok(data)
                    }
                    Act::Rendezvous(sender, data) => {
                        st.observe(crate::obs::ObsEvent::MbfRecv { id, tid });
                        Shared::make_ready(&mut st, now, sender, Ok(()), Delivered::None);
                        Ok(data)
                    }
                    Act::Poll => Err(ErCode::Tmout),
                    Act::Block => Err(ErCode::Sys), // sentinel: must block
                }
            };
            match decision {
                Ok(m) => Ok(m),
                Err(ErCode::Sys) => {
                    let shared = &self.shared;
                    let (res, delivered) =
                        shared.block_current(self.proc, tid, WaitObj::MbfRecv(id), tmo);
                    res.and(match delivered {
                        Delivered::MbfMsg(m) => Ok(m),
                        _ => Err(ErCode::Sys),
                    })
                }
                Err(e) => Err(e),
            }
        })();
        self.service_exit();
        r
    }

    /// `tk_ref_mbf` — reference message-buffer state.
    pub fn tk_ref_mbf(&mut self, id: MbfId) -> KResult<RefMbf> {
        self.service_cost(ServiceClass::MessageBuffer, "tk_ref_mbf");
        let r = {
            let st = self.shared.st.borrow();
            super::table_get(&st.mbfs, id.0).map(|m| RefMbf {
                name: m.name.clone(),
                free: m.bufsz - m.used,
                msg_count: m.msgs.len(),
                senders_waiting: m.send_q.len(),
                receivers_waiting: m.recv_q.len(),
            })
        };
        self.service_exit();
        r
    }
}
