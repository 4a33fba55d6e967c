//! T-Kernel/DS — debugger support (paper §2, Fig. 8).
//!
//! DS "acts as a debugger that references different resources and kernel
//! internal states". All functions are read-only snapshots (`td_*`
//! naming, after the T-Kernel/DS specification) usable from outside the
//! simulation between run calls; [`Ds::dump_listing`] renders the
//! Fig. 8-style output listing.

use std::fmt::Write as _;
use std::rc::Rc;

use crate::error::{ErCode, KResult};
use crate::ids::*;
use crate::kernel::flag::RefFlg;
use crate::kernel::int::RefInt;
use crate::kernel::mbf::RefMbf;
use crate::kernel::mbx::RefMbx;
use crate::kernel::mpf::RefMpf;
use crate::kernel::mpl::RefMpl;
use crate::kernel::mtx::RefMtx;
use crate::kernel::sem::RefSem;
use crate::kernel::task::RefTsk;
use crate::kernel::time::{RefAlm, RefCyc};
use crate::state::{Shared, TaskState};

/// The debugger-support interface handle.
pub struct Ds {
    shared: Rc<Shared>,
}

impl std::fmt::Debug for Ds {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Ds").finish_non_exhaustive()
    }
}

impl Ds {
    pub(crate) fn new(shared: Rc<Shared>) -> Self {
        Ds { shared }
    }

    /// `td_lst_tsk` — lists every existing task ID.
    pub fn td_lst_tsk(&self) -> Vec<TaskId> {
        let st = self.shared.st.borrow();
        st.tasks
            .iter()
            .filter_map(|t| t.as_ref().map(|t| t.id))
            .collect()
    }

    /// `td_ref_tsk` — task state snapshot.
    pub fn td_ref_tsk(&self, tid: TaskId) -> KResult<RefTsk> {
        let st = self.shared.st.borrow();
        st.tcb(tid).map(|tcb| RefTsk {
            name: tcb.name.clone(),
            state: tcb.state,
            base_pri: tcb.base_pri,
            cur_pri: tcb.cur_pri,
            wupcnt: tcb.wupcnt,
            suscnt: tcb.suscnt,
            wait: tcb.wait,
            activations: tcb.activations,
        })
    }

    /// `td_ref_sem` — semaphore snapshot.
    pub fn td_ref_sem(&self, id: SemId) -> KResult<RefSem> {
        let st = self.shared.st.borrow();
        crate::kernel::table_get(&st.sems, id.0).map(|s| RefSem {
            name: s.name.clone(),
            count: s.count,
            max: s.max,
            waiting: s.waitq.len(),
            first_waiter: s.waitq.front(),
        })
    }

    /// `td_ref_flg` — event-flag snapshot.
    pub fn td_ref_flg(&self, id: FlgId) -> KResult<RefFlg> {
        let st = self.shared.st.borrow();
        crate::kernel::table_get(&st.flags, id.0).map(|f| RefFlg {
            name: f.name.clone(),
            pattern: f.pattern,
            waiting: f.waitq.len(),
            first_waiter: f.waitq.front(),
        })
    }

    /// `td_ref_mbx` — mailbox snapshot.
    pub fn td_ref_mbx(&self, id: MbxId) -> KResult<RefMbx> {
        let st = self.shared.st.borrow();
        crate::kernel::table_get(&st.mbxs, id.0).map(|m| RefMbx {
            name: m.name.clone(),
            msg_count: m.msgs.len(),
            waiting: m.waitq.len(),
            first_waiter: m.waitq.front(),
        })
    }

    /// `td_ref_mbf` — message-buffer snapshot.
    pub fn td_ref_mbf(&self, id: MbfId) -> KResult<RefMbf> {
        let st = self.shared.st.borrow();
        crate::kernel::table_get(&st.mbfs, id.0).map(|m| RefMbf {
            name: m.name.clone(),
            free: m.bufsz - m.used,
            msg_count: m.msgs.len(),
            senders_waiting: m.send_q.len(),
            receivers_waiting: m.recv_q.len(),
        })
    }

    /// `td_ref_mtx` — mutex snapshot.
    pub fn td_ref_mtx(&self, id: MtxId) -> KResult<RefMtx> {
        let st = self.shared.st.borrow();
        crate::kernel::table_get(&st.mtxs, id.0).map(|m| RefMtx {
            name: m.name.clone(),
            owner: m.owner,
            waiting: m.waitq.len(),
            policy: m.policy,
        })
    }

    /// `td_ref_mpf` — fixed-pool snapshot.
    pub fn td_ref_mpf(&self, id: MpfId) -> KResult<RefMpf> {
        let st = self.shared.st.borrow();
        crate::kernel::table_get(&st.mpfs, id.0).map(|p| RefMpf {
            name: p.name.clone(),
            free_blocks: p.free_list.len(),
            total_blocks: p.total,
            block_size: p.blksz,
            waiting: p.waitq.len(),
        })
    }

    /// `td_ref_mpl` — variable-pool snapshot.
    pub fn td_ref_mpl(&self, id: MplId) -> KResult<RefMpl> {
        let st = self.shared.st.borrow();
        crate::kernel::table_get(&st.mpls, id.0).map(|p| RefMpl {
            name: p.name.clone(),
            free: p.free.values().sum(),
            max_block: p.free.values().copied().max().unwrap_or(0),
            waiting: p.waitq.len(),
        })
    }

    /// `td_ref_cyc` — cyclic-handler snapshot.
    pub fn td_ref_cyc(&self, id: CycId) -> KResult<RefCyc> {
        let st = self.shared.st.borrow();
        crate::kernel::table_get(&st.cycs, id.0).map(|c| RefCyc {
            name: c.name.clone(),
            active: c.active,
            period_ticks: c.cyctim_ticks,
            count: c.count,
        })
    }

    /// `td_ref_alm` — alarm-handler snapshot.
    pub fn td_ref_alm(&self, id: AlmId) -> KResult<RefAlm> {
        let st = self.shared.st.borrow();
        crate::kernel::table_get(&st.alms, id.0).map(|a| RefAlm {
            name: a.name.clone(),
            active: a.active,
            count: a.count,
        })
    }

    /// `td_ref_int` — interrupt-handler snapshot.
    pub fn td_ref_int(&self, no: IntNo) -> KResult<RefInt> {
        let st = self.shared.st.borrow();
        st.isrs
            .get(&no)
            .map(|i| RefInt {
                name: i.name.clone(),
                level: i.level,
                count: i.count,
            })
            .ok_or(ErCode::NoExs)
    }

    /// `td_ref_sys` — system snapshot: (running task, ready count,
    /// interrupt nesting depth, ticks).
    pub fn td_ref_sys(&self) -> (Option<TaskId>, usize, usize, u64) {
        let st = self.shared.st.borrow();
        (st.running, st.scheduler.len(), st.int_stack.len(), st.ticks)
    }

    /// `td_ref_tim` — system time in milliseconds.
    pub fn td_ref_tim(&self) -> u64 {
        self.shared.st.borrow_mut().systim_ms
    }

    /// Renders a Fig. 8-style kernel state listing: tasks with state /
    /// priority / wait object, then every kernel object with its vital
    /// statistics.
    pub fn dump_listing(&self) -> String {
        let st = self.shared.st.borrow();
        let mut out = String::new();
        let _ = writeln!(out, "=== T-Kernel/DS: kernel state listing ===");
        let _ = writeln!(
            out,
            "systim={} ms  ticks={}  scheduler={}  int_nest={}",
            st.systim_ms,
            st.ticks,
            st.scheduler.name(),
            st.int_stack.len()
        );
        let _ = writeln!(out, "--- tasks ---");
        let _ = writeln!(
            out,
            "{:<6} {:<14} {:<8} {:>4} {:>4} {:>6} {:>6}  waitobj",
            "id", "name", "state", "bpri", "cpri", "wupcnt", "actcnt"
        );
        for tcb in st.tasks.iter().flatten() {
            let run = if st.running == Some(tcb.id) && tcb.state == TaskState::Running {
                "*"
            } else {
                " "
            };
            let _ = writeln!(
                out,
                "{:<6} {:<14} {:<8} {:>4} {:>4} {:>6} {:>6}  {}{}",
                tcb.id.to_string(),
                tcb.name,
                tcb.state.mnemonic(),
                tcb.base_pri,
                tcb.cur_pri,
                tcb.wupcnt,
                tcb.activations,
                tcb.wait.map(|w| w.describe()).unwrap_or_else(|| "-".into()),
                run,
            );
        }
        if st.sems.iter().flatten().count() > 0 {
            let _ = writeln!(out, "--- semaphores ---");
            for (i, s) in st.sems.iter().enumerate() {
                if let Some(s) = s {
                    let _ = writeln!(
                        out,
                        "sem{:<3} {:<14} cnt={}/{} wait={}",
                        i + 1,
                        s.name,
                        s.count,
                        s.max,
                        s.waitq.len()
                    );
                }
            }
        }
        if st.flags.iter().flatten().count() > 0 {
            let _ = writeln!(out, "--- event flags ---");
            for (i, f) in st.flags.iter().enumerate() {
                if let Some(f) = f {
                    let _ = writeln!(
                        out,
                        "flg{:<3} {:<14} ptn={:#010b} wait={}",
                        i + 1,
                        f.name,
                        f.pattern,
                        f.waitq.len()
                    );
                }
            }
        }
        if st.mbxs.iter().flatten().count() > 0 {
            let _ = writeln!(out, "--- mailboxes ---");
            for (i, m) in st.mbxs.iter().enumerate() {
                if let Some(m) = m {
                    let _ = writeln!(
                        out,
                        "mbx{:<3} {:<14} msgs={} wait={}",
                        i + 1,
                        m.name,
                        m.msgs.len(),
                        m.waitq.len()
                    );
                }
            }
        }
        if st.mbfs.iter().flatten().count() > 0 {
            let _ = writeln!(out, "--- message buffers ---");
            for (i, m) in st.mbfs.iter().enumerate() {
                if let Some(m) = m {
                    let _ = writeln!(
                        out,
                        "mbf{:<3} {:<14} used={}/{} msgs={} sndw={} rcvw={}",
                        i + 1,
                        m.name,
                        m.used,
                        m.bufsz,
                        m.msgs.len(),
                        m.send_q.len(),
                        m.recv_q.len()
                    );
                }
            }
        }
        if st.mtxs.iter().flatten().count() > 0 {
            let _ = writeln!(out, "--- mutexes ---");
            for (i, m) in st.mtxs.iter().enumerate() {
                if let Some(m) = m {
                    let _ = writeln!(
                        out,
                        "mtx{:<3} {:<14} owner={} wait={} policy={:?}",
                        i + 1,
                        m.name,
                        m.owner.map(|o| o.to_string()).unwrap_or_else(|| "-".into()),
                        m.waitq.len(),
                        m.policy
                    );
                }
            }
        }
        if st.mpfs.iter().flatten().count() > 0 {
            let _ = writeln!(out, "--- fixed memory pools ---");
            for (i, p) in st.mpfs.iter().enumerate() {
                if let Some(p) = p {
                    let _ = writeln!(
                        out,
                        "mpf{:<3} {:<14} free={}/{} blksz={} wait={}",
                        i + 1,
                        p.name,
                        p.free_list.len(),
                        p.total,
                        p.blksz,
                        p.waitq.len()
                    );
                }
            }
        }
        if st.mpls.iter().flatten().count() > 0 {
            let _ = writeln!(out, "--- variable memory pools ---");
            for (i, p) in st.mpls.iter().enumerate() {
                if let Some(p) = p {
                    let free: usize = p.free.values().sum();
                    let _ = writeln!(
                        out,
                        "mpl{:<3} {:<14} free={}/{} wait={}",
                        i + 1,
                        p.name,
                        free,
                        p.size,
                        p.waitq.len()
                    );
                }
            }
        }
        if st.cycs.iter().flatten().count() > 0 {
            let _ = writeln!(out, "--- cyclic handlers ---");
            for (i, c) in st.cycs.iter().enumerate() {
                if let Some(c) = c {
                    let _ = writeln!(
                        out,
                        "cyc{:<3} {:<14} {} period={}t fired={}",
                        i + 1,
                        c.name,
                        if c.active { "STA" } else { "STP" },
                        c.cyctim_ticks,
                        c.count
                    );
                }
            }
        }
        if st.alms.iter().flatten().count() > 0 {
            let _ = writeln!(out, "--- alarm handlers ---");
            for (i, a) in st.alms.iter().enumerate() {
                if let Some(a) = a {
                    let _ = writeln!(
                        out,
                        "alm{:<3} {:<14} {} fired={}",
                        i + 1,
                        a.name,
                        if a.active { "armed" } else { "idle" },
                        a.count
                    );
                }
            }
        }
        if !st.isrs.is_empty() {
            let _ = writeln!(out, "--- interrupt handlers ---");
            for (no, isr) in &st.isrs {
                let _ = writeln!(
                    out,
                    "{:<6} {:<14} level={} fired={}",
                    no.to_string(),
                    isr.name,
                    isr.level,
                    isr.count
                );
            }
        }
        out
    }
}
