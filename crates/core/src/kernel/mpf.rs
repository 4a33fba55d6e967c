//! Fixed-size memory pools (`tk_cre_mpf`, `tk_get_mpf`, `tk_rel_mpf`,
//! `tk_ref_mpf`).
//!
//! The pool hands out block indices into a simulated arena. A released
//! block is handed directly to the first waiter, preserving queue order.

use crate::cost::ServiceClass;
use crate::error::{ErCode, KResult};
use crate::ids::MpfId;
use crate::rtos::Sys;
use crate::state::{Delivered, QueueOrder, Shared, Timeout, WaitObj};

use super::waitq::WaitQueue;
use super::WaitDecision;

/// Fixed-size pool control block.
#[derive(Debug)]
pub struct Mpf {
    pub(crate) name: String,
    pub(crate) blksz: usize,
    pub(crate) total: usize,
    pub(crate) free_list: Vec<usize>,
    /// Allocation bitmap (index = block).
    pub(crate) in_use: Vec<bool>,
    pub(crate) waitq: WaitQueue,
}

/// Snapshot returned by `tk_ref_mpf`.
#[derive(Debug, Clone)]
pub struct RefMpf {
    /// Pool name.
    pub name: String,
    /// Free blocks.
    pub free_blocks: usize,
    /// Total blocks.
    pub total_blocks: usize,
    /// Block size in bytes.
    pub block_size: usize,
    /// Number of waiting tasks.
    pub waiting: usize,
}

impl<'a> Sys<'a> {
    /// `tk_cre_mpf` — creates a pool of `blkcnt` blocks of `blksz` bytes.
    ///
    /// # Errors
    ///
    /// `E_PAR` if either dimension is zero.
    pub fn tk_cre_mpf(
        &mut self,
        name: &str,
        blkcnt: usize,
        blksz: usize,
        order: QueueOrder,
    ) -> KResult<MpfId> {
        self.service(ServiceClass::MemoryPool, "tk_cre_mpf", |sys| {
            if blkcnt == 0 || blksz == 0 {
                return Err(ErCode::Par);
            }
            let mut st = sys.shared.st.borrow_mut();
            let id = MpfId(st.mpfs.insert(Mpf {
                name: name.to_string(),
                blksz,
                total: blkcnt,
                free_list: (0..blkcnt).rev().collect(),
                in_use: vec![false; blkcnt],
                waitq: WaitQueue::new(order),
            }));
            st.observe(crate::obs::ObsEvent::MpfCreate {
                id,
                blocks: blkcnt,
                pri_order: order == QueueOrder::Priority,
            });
            Ok(id)
        })
    }

    /// `tk_del_mpf` — deletes a pool; waiters released with `E_DLT`.
    pub fn tk_del_mpf(&mut self, id: MpfId) -> KResult<()> {
        self.service(ServiceClass::MemoryPool, "tk_del_mpf", |sys| {
            let now = sys.now();
            let mut st = sys.shared.st.borrow_mut();
            let mut pool = st.mpfs.remove(id.0)?;
            super::release_deleted(&mut st, now, pool.waitq.drain());
            Ok(())
        })
    }

    /// `tk_get_mpf` — acquires one block, waiting if none is free.
    /// Returns the block index.
    pub fn tk_get_mpf(&mut self, id: MpfId, tmo: Timeout) -> KResult<usize> {
        self.service(ServiceClass::MemoryPool, "tk_get_mpf", |sys| {
            sys.wait(
                tmo,
                |st, tid| {
                    let pri = st.tcb(tid)?.cur_pri;
                    let pool = st.mpfs.get_mut(id.0)?;
                    if pool.waitq.is_empty() {
                        if let Some(blk) = pool.free_list.pop() {
                            pool.in_use[blk] = true;
                            st.observe(crate::obs::ObsEvent::MpfTake { id, tid });
                            return Ok(WaitDecision::Served(blk));
                        }
                    }
                    if tmo == Timeout::Poll {
                        return Err(ErCode::Tmout);
                    }
                    pool.waitq.enqueue(tid, pri);
                    Ok(WaitDecision::Block(WaitObj::Mpf(id)))
                },
                |d| match d {
                    Delivered::MpfBlock(b) => Some(b),
                    _ => None,
                },
            )
        })
    }

    /// `tk_rel_mpf` — releases a block (handed to the first waiter if
    /// any).
    ///
    /// # Errors
    ///
    /// `E_PAR` for an invalid or already-free block index.
    pub fn tk_rel_mpf(&mut self, id: MpfId, blk: usize) -> KResult<()> {
        self.service(ServiceClass::MemoryPool, "tk_rel_mpf", |sys| {
            let now = sys.now();
            let mut st = sys.shared.st.borrow_mut();
            let pool = st.mpfs.get_mut(id.0)?;
            if blk >= pool.total || !pool.in_use[blk] {
                return Err(ErCode::Par);
            }
            if let Some(waiter) = pool.waitq.pop() {
                // Hand the block over directly (stays in_use).
                st.observe(crate::obs::ObsEvent::MpfRel { id });
                Shared::make_ready(&mut st, now, waiter, Ok(()), Delivered::MpfBlock(blk));
            } else {
                pool.in_use[blk] = false;
                pool.free_list.push(blk);
                st.observe(crate::obs::ObsEvent::MpfRel { id });
            }
            Ok(())
        })
    }

    /// `tk_ref_mpf` — reference pool state.
    pub fn tk_ref_mpf(&mut self, id: MpfId) -> KResult<RefMpf> {
        self.service(ServiceClass::MemoryPool, "tk_ref_mpf", |sys| {
            sys.shared.st.borrow().mpfs.get(id.0).map(RefMpf::of)
        })
    }
}

impl RefMpf {
    /// The snapshot of `p` (`tk_ref_mpf`, `td_ref_mpf`).
    pub(crate) fn of(p: &Mpf) -> Self {
        RefMpf {
            name: p.name.clone(),
            free_blocks: p.free_list.len(),
            total_blocks: p.total,
            block_size: p.blksz,
            waiting: p.waitq.len(),
        }
    }
}
