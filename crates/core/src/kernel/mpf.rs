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
        self.service_cost(ServiceClass::MemoryPool, "tk_cre_mpf");
        let r = {
            if blkcnt == 0 || blksz == 0 {
                Err(ErCode::Par)
            } else {
                let mut st = self.shared.st.borrow_mut();
                let raw = super::table_insert(
                    &mut st.mpfs,
                    Mpf {
                        name: name.to_string(),
                        blksz,
                        total: blkcnt,
                        free_list: (0..blkcnt).rev().collect(),
                        in_use: vec![false; blkcnt],
                        waitq: WaitQueue::new(order),
                    },
                );
                st.observe(crate::obs::ObsEvent::MpfCreate {
                    id: MpfId(raw),
                    blocks: blkcnt,
                    pri_order: order == QueueOrder::Priority,
                });
                Ok(MpfId(raw))
            }
        };
        self.service_exit();
        r
    }

    /// `tk_del_mpf` — deletes a pool; waiters released with `E_DLT`.
    pub fn tk_del_mpf(&mut self, id: MpfId) -> KResult<()> {
        self.service_cost(ServiceClass::MemoryPool, "tk_del_mpf");
        let r = {
            let mut st = self.shared.st.borrow_mut();
            let now = self.proc.now();
            match super::table_get_mut(&mut st.mpfs, id.0) {
                Err(e) => Err(e),
                Ok(pool) => {
                    let waiters = pool.waitq.drain();
                    st.mpfs[id.0 as usize - 1] = None;
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

    /// `tk_get_mpf` — acquires one block, waiting if none is free.
    /// Returns the block index.
    pub fn tk_get_mpf(&mut self, id: MpfId, tmo: Timeout) -> KResult<usize> {
        self.service_cost(ServiceClass::MemoryPool, "tk_get_mpf");
        let r = (|| {
            let tid = self.check_blockable()?;
            let decision = {
                let mut st = self.shared.st.borrow_mut();
                let pri = st.tcb(tid)?.cur_pri;
                let pool = super::table_get_mut(&mut st.mpfs, id.0)?;
                if pool.waitq.is_empty() {
                    if let Some(blk) = pool.free_list.pop() {
                        pool.in_use[blk] = true;
                        st.observe(crate::obs::ObsEvent::MpfTake { id, tid });
                        return Ok(blk);
                    }
                }
                if tmo == Timeout::Poll {
                    Err(ErCode::Tmout)
                } else {
                    pool.waitq.enqueue(tid, pri);
                    Err(ErCode::Sys) // sentinel: must block
                }
            };
            match decision {
                Ok(blk) => Ok(blk),
                Err(ErCode::Sys) => {
                    let shared = &self.shared;
                    let (res, delivered) =
                        shared.block_current(self.proc, tid, WaitObj::Mpf(id), tmo);
                    res.and(match delivered {
                        Delivered::MpfBlock(b) => Ok(b),
                        _ => Err(ErCode::Sys),
                    })
                }
                Err(e) => Err(e),
            }
        })();
        self.service_exit();
        r
    }

    /// `tk_rel_mpf` — releases a block (handed to the first waiter if
    /// any).
    ///
    /// # Errors
    ///
    /// `E_PAR` for an invalid or already-free block index.
    pub fn tk_rel_mpf(&mut self, id: MpfId, blk: usize) -> KResult<()> {
        self.service_cost(ServiceClass::MemoryPool, "tk_rel_mpf");
        let r = {
            let mut st = self.shared.st.borrow_mut();
            let now = self.proc.now();
            match super::table_get_mut(&mut st.mpfs, id.0) {
                Err(e) => Err(e),
                Ok(pool) => {
                    if blk >= pool.total || !pool.in_use[blk] {
                        Err(ErCode::Par)
                    } else if let Some(waiter) = pool.waitq.pop() {
                        // Hand the block over directly (stays in_use).
                        st.observe(crate::obs::ObsEvent::MpfRel { id });
                        Shared::make_ready(&mut st, now, waiter, Ok(()), Delivered::MpfBlock(blk));
                        Ok(())
                    } else {
                        pool.in_use[blk] = false;
                        pool.free_list.push(blk);
                        st.observe(crate::obs::ObsEvent::MpfRel { id });
                        Ok(())
                    }
                }
            }
        };
        self.service_exit();
        r
    }

    /// `tk_ref_mpf` — reference pool state.
    pub fn tk_ref_mpf(&mut self, id: MpfId) -> KResult<RefMpf> {
        self.service_cost(ServiceClass::MemoryPool, "tk_ref_mpf");
        let r = {
            let st = self.shared.st.borrow();
            super::table_get(&st.mpfs, id.0).map(|p| RefMpf {
                name: p.name.clone(),
                free_blocks: p.free_list.len(),
                total_blocks: p.total,
                block_size: p.blksz,
                waiting: p.waitq.len(),
            })
        };
        self.service_exit();
        r
    }
}
