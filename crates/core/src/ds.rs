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
        st.tasks.iter().map(|(id, _)| TaskId(id)).collect()
    }

    /// `td_ref_tsk` — task state snapshot.
    pub fn td_ref_tsk(&self, tid: TaskId) -> KResult<RefTsk> {
        self.shared.st.borrow().tcb(tid).map(RefTsk::of)
    }

    /// `td_ref_sem` — semaphore snapshot.
    pub fn td_ref_sem(&self, id: SemId) -> KResult<RefSem> {
        self.shared.st.borrow().sems.get(id.0).map(RefSem::of)
    }

    /// `td_ref_flg` — event-flag snapshot.
    pub fn td_ref_flg(&self, id: FlgId) -> KResult<RefFlg> {
        self.shared.st.borrow().flags.get(id.0).map(RefFlg::of)
    }

    /// `td_ref_mbx` — mailbox snapshot.
    pub fn td_ref_mbx(&self, id: MbxId) -> KResult<RefMbx> {
        self.shared.st.borrow().mbxs.get(id.0).map(RefMbx::of)
    }

    /// `td_ref_mbf` — message-buffer snapshot.
    pub fn td_ref_mbf(&self, id: MbfId) -> KResult<RefMbf> {
        self.shared.st.borrow().mbfs.get(id.0).map(RefMbf::of)
    }

    /// `td_ref_mtx` — mutex snapshot.
    pub fn td_ref_mtx(&self, id: MtxId) -> KResult<RefMtx> {
        self.shared.st.borrow().mtxs.get(id.0).map(RefMtx::of)
    }

    /// `td_ref_mpf` — fixed-pool snapshot.
    pub fn td_ref_mpf(&self, id: MpfId) -> KResult<RefMpf> {
        self.shared.st.borrow().mpfs.get(id.0).map(RefMpf::of)
    }

    /// `td_ref_mpl` — variable-pool snapshot.
    pub fn td_ref_mpl(&self, id: MplId) -> KResult<RefMpl> {
        self.shared.st.borrow().mpls.get(id.0).map(RefMpl::of)
    }

    /// `td_ref_cyc` — cyclic-handler snapshot.
    pub fn td_ref_cyc(&self, id: CycId) -> KResult<RefCyc> {
        self.shared.st.borrow().cycs.get(id.0).map(RefCyc::of)
    }

    /// `td_ref_alm` — alarm-handler snapshot.
    pub fn td_ref_alm(&self, id: AlmId) -> KResult<RefAlm> {
        self.shared.st.borrow().alms.get(id.0).map(RefAlm::of)
    }

    /// `td_ref_int` — interrupt-handler snapshot.
    pub fn td_ref_int(&self, no: IntNo) -> KResult<RefInt> {
        let st = self.shared.st.borrow();
        st.isrs.get(&no).map(RefInt::of).ok_or(ErCode::NoExs)
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
        for (id, tcb) in st.tasks.iter() {
            let run = if st.running == Some(TaskId(id)) && tcb.state == TaskState::Running {
                "*"
            } else {
                " "
            };
            let _ = writeln!(
                out,
                "{:<6} {:<14} {:<8} {:>4} {:>4} {:>6} {:>6}  {}{}",
                TaskId(id).to_string(),
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
        section(&mut out, "semaphores", st.sems.iter(), |(id, s)| {
            format!(
                "sem{id:<3} {:<14} cnt={}/{} wait={}",
                s.name,
                s.count,
                s.max,
                s.waitq.len()
            )
        });
        section(&mut out, "event flags", st.flags.iter(), |(id, f)| {
            format!(
                "flg{id:<3} {:<14} ptn={:#010b} wait={}",
                f.name,
                f.pattern,
                f.waitq.len()
            )
        });
        section(&mut out, "mailboxes", st.mbxs.iter(), |(id, m)| {
            format!(
                "mbx{id:<3} {:<14} msgs={} wait={}",
                m.name,
                m.msgs.len(),
                m.waitq.len()
            )
        });
        section(&mut out, "message buffers", st.mbfs.iter(), |(id, m)| {
            format!(
                "mbf{id:<3} {:<14} used={}/{} msgs={} sndw={} rcvw={}",
                m.name,
                m.used,
                m.bufsz,
                m.msgs.len(),
                m.send_q.len(),
                m.recv_q.len()
            )
        });
        section(&mut out, "mutexes", st.mtxs.iter(), |(id, m)| {
            format!(
                "mtx{id:<3} {:<14} owner={} wait={} policy={:?}",
                m.name,
                m.owner.map(|o| o.to_string()).unwrap_or_else(|| "-".into()),
                m.waitq.len(),
                m.policy
            )
        });
        section(&mut out, "fixed memory pools", st.mpfs.iter(), |(id, p)| {
            format!(
                "mpf{id:<3} {:<14} free={}/{} blksz={} wait={}",
                p.name,
                p.free_list.len(),
                p.total,
                p.blksz,
                p.waitq.len()
            )
        });
        section(
            &mut out,
            "variable memory pools",
            st.mpls.iter(),
            |(id, p)| {
                let free = p.free_total();
                format!(
                    "mpl{id:<3} {:<14} free={free}/{} wait={}",
                    p.name,
                    p.size,
                    p.waitq.len()
                )
            },
        );
        section(&mut out, "cyclic handlers", st.cycs.iter(), |(id, c)| {
            format!(
                "cyc{id:<3} {:<14} {} period={}t fired={}",
                c.name,
                if c.active { "STA" } else { "STP" },
                c.cyctim_ticks,
                c.count
            )
        });
        section(&mut out, "alarm handlers", st.alms.iter(), |(id, a)| {
            format!(
                "alm{id:<3} {:<14} {} fired={}",
                a.name,
                if a.active { "armed" } else { "idle" },
                a.count
            )
        });
        section(&mut out, "interrupt handlers", st.isrs.iter(), |(no, i)| {
            let no = no.to_string();
            format!("{no:<6} {:<14} level={} fired={}", i.name, i.level, i.count)
        });
        out
    }
}

/// Appends a `--- title ---` section with one line per row; a section
/// without rows is left out.
fn section<I: Iterator>(out: &mut String, title: &str, rows: I, line: impl Fn(I::Item) -> String) {
    let mut rows = rows.peekable();
    if rows.peek().is_some() {
        let _ = writeln!(out, "--- {title} ---");
        for row in rows {
            let _ = writeln!(out, "{}", line(row));
        }
    }
}
