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
use super::WaitDecision;

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
        let Ok(mbf) = st.mbfs.get_mut(id.0) else {
            return;
        };
        let Some(front) = mbf.send_q.front() else {
            return;
        };
        let len = mbf.send_data.get(&front).map(|d| d.len()).unwrap_or(0);
        if mbf.used + len > mbf.bufsz {
            return;
        }
        let data = mbf.send_data.remove(&front).unwrap_or_default();
        mbf.used += data.len();
        mbf.msgs.push_back(data);
        mbf.send_q.pop();
        Shared::make_ready(st, now, front, Ok(()), Delivered::None);
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
        self.service(ServiceClass::MessageBuffer, "tk_cre_mbf", |sys| {
            if maxmsz == 0 {
                return Err(ErCode::Par);
            }
            let mut st = sys.shared.st.borrow_mut();
            let id = MbfId(st.mbfs.insert(Mbf {
                name: name.to_string(),
                bufsz,
                maxmsz,
                used: 0,
                msgs: VecDeque::new(),
                send_q: WaitQueue::new(order),
                recv_q: WaitQueue::new(order),
                send_data: HashMap::new(),
            }));
            st.observe(crate::obs::ObsEvent::MbfCreate {
                id,
                bufsz,
                maxmsz,
                pri_order: order == QueueOrder::Priority,
            });
            Ok(id)
        })
    }

    /// `tk_del_mbf` — deletes a message buffer; all waiters are released
    /// with `E_DLT`.
    pub fn tk_del_mbf(&mut self, id: MbfId) -> KResult<()> {
        self.service(ServiceClass::MessageBuffer, "tk_del_mbf", |sys| {
            let now = sys.now();
            let mut st = sys.shared.st.borrow_mut();
            let mut mbf = st.mbfs.remove(id.0)?;
            let mut waiters = mbf.send_q.drain();
            waiters.extend(mbf.recv_q.drain());
            super::release_deleted(&mut st, now, waiters);
            Ok(())
        })
    }

    /// `tk_snd_mbf` — sends a message, waiting for buffer space if
    /// necessary.
    ///
    /// # Errors
    ///
    /// `E_PAR` for empty or oversized messages, plus the usual wait
    /// errors.
    pub fn tk_snd_mbf(&mut self, id: MbfId, msg: &[u8], tmo: Timeout) -> KResult<()> {
        self.service(ServiceClass::MessageBuffer, "tk_snd_mbf", |sys| {
            let now = sys.now();
            sys.wait(
                tmo,
                |st, tid| {
                    let pri = st.tcb(tid)?.cur_pri;
                    let mbf = st.mbfs.get_mut(id.0)?;
                    if msg.is_empty() || msg.len() > mbf.maxmsz {
                        return Err(ErCode::Par);
                    }
                    let sent = crate::obs::ObsEvent::MbfSend { id, len: msg.len() };
                    // Direct handoff only when no older message waits.
                    let direct = if mbf.msgs.is_empty() && mbf.send_q.is_empty() {
                        mbf.recv_q.pop()
                    } else {
                        None
                    };
                    if let Some(receiver) = direct {
                        st.observe(sent);
                        let delivered = Delivered::MbfMsg(msg.to_vec());
                        Shared::make_ready(st, now, receiver, Ok(()), delivered);
                    } else if mbf.send_q.is_empty() && mbf.used + msg.len() <= mbf.bufsz {
                        mbf.used += msg.len();
                        mbf.msgs.push_back(msg.to_vec());
                        st.observe(sent);
                    } else if tmo == Timeout::Poll {
                        return Err(ErCode::Tmout);
                    } else {
                        mbf.send_data.insert(tid, msg.to_vec());
                        mbf.send_q.enqueue(tid, pri);
                        return Ok(WaitDecision::Block(WaitObj::MbfSend(id, msg.len())));
                    }
                    Ok(WaitDecision::Served(()))
                },
                Delivered::nothing,
            )
        })
    }

    /// `tk_rcv_mbf` — receives the next message, waiting if the buffer
    /// is empty.
    pub fn tk_rcv_mbf(&mut self, id: MbfId, tmo: Timeout) -> KResult<Vec<u8>> {
        self.service(ServiceClass::MessageBuffer, "tk_rcv_mbf", |sys| {
            let now = sys.now();
            sys.wait(
                tmo,
                |st, tid| {
                    let pri = st.tcb(tid)?.cur_pri;
                    let mbf = st.mbfs.get_mut(id.0)?;
                    if let Some(data) = mbf.msgs.pop_front() {
                        mbf.used -= data.len();
                        st.observe(crate::obs::ObsEvent::MbfRecv { id, tid });
                        drain_senders(st, id, now);
                        Ok(WaitDecision::Served(data))
                    } else if let Some(sender) = mbf.send_q.pop() {
                        // Synchronous rendezvous (bufsz == 0, or
                        // everything buffered was consumed).
                        let data = mbf.send_data.remove(&sender).unwrap_or_default();
                        st.observe(crate::obs::ObsEvent::MbfRecv { id, tid });
                        Shared::make_ready(st, now, sender, Ok(()), Delivered::None);
                        Ok(WaitDecision::Served(data))
                    } else if tmo == Timeout::Poll {
                        Err(ErCode::Tmout)
                    } else {
                        mbf.recv_q.enqueue(tid, pri);
                        Ok(WaitDecision::Block(WaitObj::MbfRecv(id)))
                    }
                },
                |d| match d {
                    Delivered::MbfMsg(m) => Some(m),
                    _ => None,
                },
            )
        })
    }

    /// `tk_ref_mbf` — reference message-buffer state.
    pub fn tk_ref_mbf(&mut self, id: MbfId) -> KResult<RefMbf> {
        self.service(ServiceClass::MessageBuffer, "tk_ref_mbf", |sys| {
            sys.shared.st.borrow().mbfs.get(id.0).map(RefMbf::of)
        })
    }
}

impl RefMbf {
    /// The snapshot of `m` (`tk_ref_mbf`, `td_ref_mbf`).
    pub(crate) fn of(m: &Mbf) -> Self {
        RefMbf {
            name: m.name.clone(),
            free: m.bufsz - m.used,
            msg_count: m.msgs.len(),
            senders_waiting: m.send_q.len(),
            receivers_waiting: m.recv_q.len(),
        }
    }
}
