//! Variable-size memory pools (`tk_cre_mpl`, `tk_get_mpl`, `tk_rel_mpl`,
//! `tk_ref_mpl`).
//!
//! A first-fit allocator over a byte arena with neighbor coalescing on
//! release. Waiters are served in strict queue order: allocation for the
//! head waiter is attempted on every release; service stops at the first
//! waiter whose request still does not fit.

use std::collections::BTreeMap;

use crate::cost::ServiceClass;
use crate::error::{ErCode, KResult};
use crate::ids::MplId;
use crate::rtos::Sys;
use crate::state::{Delivered, KernelState, QueueOrder, Shared, Timeout, WaitObj};

use super::waitq::WaitQueue;
use super::WaitDecision;

/// Allocation alignment (T-Kernel aligns to the machine word).
const ALIGN: usize = 4;

fn align_up(sz: usize) -> usize {
    (sz + ALIGN - 1) & !(ALIGN - 1)
}

/// Variable-size pool control block.
#[derive(Debug)]
pub struct Mpl {
    pub(crate) name: String,
    pub(crate) size: usize,
    /// Free regions: offset -> length, coalesced.
    pub(crate) free: BTreeMap<usize, usize>,
    /// Live allocations: offset -> length.
    pub(crate) allocs: BTreeMap<usize, usize>,
    pub(crate) waitq: WaitQueue,
}

impl Mpl {
    /// Total free bytes.
    pub(crate) fn free_total(&self) -> usize {
        self.free.values().sum()
    }

    /// First-fit allocation.
    fn try_alloc(&mut self, sz: usize) -> Option<usize> {
        let sz = align_up(sz);
        let (off, len) = self
            .free
            .iter()
            .find(|&(_, len)| *len >= sz)
            .map(|(o, l)| (*o, *l))?;
        self.free.remove(&off);
        if len > sz {
            self.free.insert(off + sz, len - sz);
        }
        self.allocs.insert(off, sz);
        Some(off)
    }

    /// Releases an allocation, coalescing with free neighbours.
    fn release(&mut self, off: usize) -> Result<(), ErCode> {
        let len = self.allocs.remove(&off).ok_or(ErCode::Par)?;
        let mut start = off;
        let mut length = len;
        // Coalesce with the previous free region.
        if let Some((&poff, &plen)) = self.free.range(..off).next_back() {
            if poff + plen == off {
                self.free.remove(&poff);
                start = poff;
                length += plen;
            }
        }
        // Coalesce with the following free region.
        if let Some(&nlen) = self.free.get(&(off + len)) {
            self.free.remove(&(off + len));
            length += nlen;
        }
        self.free.insert(start, length);
        Ok(())
    }
}

/// Snapshot returned by `tk_ref_mpl`.
#[derive(Debug, Clone)]
pub struct RefMpl {
    /// Pool name.
    pub name: String,
    /// Total free bytes.
    pub free: usize,
    /// Largest contiguous free region.
    pub max_block: usize,
    /// Number of waiting tasks.
    pub waiting: usize,
}

/// Serves queued waiters after a release, in strict queue order.
/// Also called by the waiter-detach paths: removing the head waiter
/// (timeout / `tk_rel_wai` / `tk_ter_tsk`) can make the next waiters'
/// smaller requests fit.
pub(crate) fn serve_waiters(st: &mut KernelState, id: MplId, now: sysc::SimTime) {
    loop {
        let Some(front) = st.mpls.get(id.0).ok().and_then(|p| p.waitq.front()) else {
            return;
        };
        let Some(WaitObj::Mpl(_, req)) = st.tcb(front).ok().and_then(|t| t.wait) else {
            return;
        };
        let pool = st.mpls.get_mut(id.0).expect("exists");
        let Some(off) = pool.try_alloc(req) else {
            return;
        };
        pool.waitq.pop();
        Shared::make_ready(st, now, front, Ok(()), Delivered::MplBlock(off));
    }
}

impl<'a> Sys<'a> {
    /// `tk_cre_mpl` — creates a variable-size pool of `size` bytes.
    ///
    /// # Errors
    ///
    /// `E_PAR` if `size` is zero.
    pub fn tk_cre_mpl(&mut self, name: &str, size: usize, order: QueueOrder) -> KResult<MplId> {
        self.service(ServiceClass::MemoryPool, "tk_cre_mpl", |sys| {
            if size == 0 {
                return Err(ErCode::Par);
            }
            let size = align_up(size);
            let mut st = sys.shared.st.borrow_mut();
            let id = MplId(st.mpls.insert(Mpl {
                name: name.to_string(),
                size,
                free: BTreeMap::from([(0, size)]),
                allocs: BTreeMap::new(),
                waitq: WaitQueue::new(order),
            }));
            st.observe(crate::obs::ObsEvent::MplCreate {
                id,
                size,
                pri_order: order == QueueOrder::Priority,
            });
            Ok(id)
        })
    }

    /// `tk_del_mpl` — deletes a pool; waiters released with `E_DLT`.
    pub fn tk_del_mpl(&mut self, id: MplId) -> KResult<()> {
        self.service(ServiceClass::MemoryPool, "tk_del_mpl", |sys| {
            let now = sys.now();
            let mut st = sys.shared.st.borrow_mut();
            let mut pool = st.mpls.remove(id.0)?;
            super::release_deleted(&mut st, now, pool.waitq.drain());
            Ok(())
        })
    }

    /// `tk_get_mpl` — allocates `sz` bytes, waiting for space if
    /// necessary. Returns the arena offset of the allocation.
    ///
    /// # Errors
    ///
    /// `E_PAR` if `sz` is zero or exceeds the pool size.
    pub fn tk_get_mpl(&mut self, id: MplId, sz: usize, tmo: Timeout) -> KResult<usize> {
        self.service(ServiceClass::MemoryPool, "tk_get_mpl", |sys| {
            sys.wait(
                tmo,
                |st, tid| {
                    let pri = st.tcb(tid)?.cur_pri;
                    let pool = st.mpls.get_mut(id.0)?;
                    if sz == 0 || align_up(sz) > pool.size {
                        return Err(ErCode::Par);
                    }
                    let immediate = if pool.waitq.is_empty() {
                        pool.try_alloc(sz)
                    } else {
                        None
                    };
                    if let Some(off) = immediate {
                        st.observe(crate::obs::ObsEvent::MplTake {
                            id,
                            tid,
                            size: sz,
                            off,
                        });
                        return Ok(WaitDecision::Served(off));
                    }
                    if tmo == Timeout::Poll {
                        return Err(ErCode::Tmout);
                    }
                    pool.waitq.enqueue(tid, pri);
                    Ok(WaitDecision::Block(WaitObj::Mpl(id, sz)))
                },
                |d| match d {
                    Delivered::MplBlock(off) => Some(off),
                    _ => None,
                },
            )
        })
    }

    /// `tk_rel_mpl` — releases an allocation at `off`.
    ///
    /// # Errors
    ///
    /// `E_PAR` if `off` is not a live allocation.
    pub fn tk_rel_mpl(&mut self, id: MplId, off: usize) -> KResult<()> {
        self.service(ServiceClass::MemoryPool, "tk_rel_mpl", |sys| {
            let now = sys.now();
            let mut st = sys.shared.st.borrow_mut();
            st.mpls.get_mut(id.0)?.release(off)?;
            st.observe(crate::obs::ObsEvent::MplRel { id, off });
            serve_waiters(&mut st, id, now);
            Ok(())
        })
    }

    /// `tk_ref_mpl` — reference pool state.
    pub fn tk_ref_mpl(&mut self, id: MplId) -> KResult<RefMpl> {
        self.service(ServiceClass::MemoryPool, "tk_ref_mpl", |sys| {
            sys.shared.st.borrow().mpls.get(id.0).map(RefMpl::of)
        })
    }
}

impl RefMpl {
    /// The snapshot of `p` (`tk_ref_mpl`, `td_ref_mpl`).
    pub(crate) fn of(p: &Mpl) -> Self {
        RefMpl {
            name: p.name.clone(),
            free: p.free_total(),
            max_block: p.free.values().copied().max().unwrap_or(0),
            waiting: p.waitq.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pool(size: usize) -> Mpl {
        let mut free = BTreeMap::new();
        free.insert(0, size);
        Mpl {
            name: "p".into(),
            size,
            free,
            allocs: BTreeMap::new(),
            waitq: WaitQueue::new(QueueOrder::Fifo),
        }
    }

    #[test]
    fn first_fit_and_split() {
        let mut p = pool(64);
        let a = p.try_alloc(16).unwrap();
        let b = p.try_alloc(16).unwrap();
        assert_eq!(a, 0);
        assert_eq!(b, 16);
        assert_eq!(p.free_total(), 32);
    }

    #[test]
    fn release_coalesces_both_sides() {
        let mut p = pool(64);
        let a = p.try_alloc(16).unwrap();
        let b = p.try_alloc(16).unwrap();
        let c = p.try_alloc(16).unwrap();
        p.release(a).unwrap();
        p.release(c).unwrap();
        // Free: [0,16) and [32,64) — two regions.
        assert_eq!(p.free.len(), 2);
        p.release(b).unwrap();
        // All coalesced back into one region.
        assert_eq!(p.free.len(), 1);
        assert_eq!(p.free_total(), 64);
        assert_eq!(*p.free.get(&0).unwrap(), 64);
    }

    #[test]
    fn double_free_is_par() {
        let mut p = pool(64);
        let a = p.try_alloc(8).unwrap();
        p.release(a).unwrap();
        assert_eq!(p.release(a), Err(ErCode::Par));
    }

    #[test]
    fn alloc_aligns_requests() {
        let mut p = pool(64);
        let a = p.try_alloc(5).unwrap(); // rounds to 8
        let b = p.try_alloc(1).unwrap(); // rounds to 4
        assert_eq!(a, 0);
        assert_eq!(b, 8);
    }

    #[test]
    fn exhaustion_returns_none() {
        let mut p = pool(16);
        assert!(p.try_alloc(16).is_some());
        assert!(p.try_alloc(4).is_none());
    }
}
