//! System management (`tk_ref_ver`, `tk_ref_sys`, dispatch and CPU-lock
//! control).

use crate::cost::ServiceClass;
use crate::error::{ErCode, KResult};
use crate::ids::TaskId;
use crate::rtos::Sys;

/// System state reported by `tk_ref_sys` (`TSS_*`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SysState {
    /// Normal task context.
    Task,
    /// Task context with dispatching disabled.
    DisabledDispatch,
    /// Task context with interrupts locked (`tk_loc_cpu`).
    Locked,
    /// Task-independent context (handler running).
    TaskIndependent,
}

impl SysState {
    /// Specification mnemonic.
    pub const fn mnemonic(self) -> &'static str {
        match self {
            SysState::Task => "TSS_TSK",
            SysState::DisabledDispatch => "TSS_DDSP",
            SysState::Locked => "TSS_LOC",
            SysState::TaskIndependent => "TSS_INDP",
        }
    }
}

/// Snapshot returned by `tk_ref_sys`.
#[derive(Debug, Clone)]
pub struct RefSys {
    /// Current system state.
    pub sysstat: SysState,
    /// The running task, if any.
    pub runtskid: Option<TaskId>,
    /// The task that would be scheduled next (head of the ready queue).
    pub schedtskid: Option<TaskId>,
    /// Interrupt nesting depth (incl. the timer frame).
    pub int_nest: usize,
    /// Ticks since boot.
    pub ticks: u64,
}

/// Snapshot returned by `tk_ref_ver`.
#[derive(Debug, Clone)]
pub struct RefVer {
    /// Maker code.
    pub maker: &'static str,
    /// Product identifier.
    pub prid: &'static str,
    /// Specification version modeled.
    pub spver: &'static str,
    /// Product version.
    pub prver: &'static str,
}

impl<'a> Sys<'a> {
    /// `tk_ref_ver` — kernel version information.
    pub fn tk_ref_ver(&mut self) -> KResult<RefVer> {
        self.service(ServiceClass::System, "tk_ref_ver", |_| {
            Ok(RefVer {
                maker: "rtk-spec-tron (reproduction)",
                prid: "RTK-Spec TRON",
                spver: "uITRON 4.0 / T-Kernel 1.0 (subset)",
                prver: env!("CARGO_PKG_VERSION"),
            })
        })
    }

    /// `tk_ref_sys` — reference system status.
    pub fn tk_ref_sys(&mut self) -> KResult<RefSys> {
        self.service(ServiceClass::System, "tk_ref_sys", |sys| {
            let st = sys.shared.st.borrow();
            let sysstat = if !st.int_stack.is_empty() {
                SysState::TaskIndependent
            } else if st.cpu_locked {
                SysState::Locked
            } else if st.dispatch_disabled {
                SysState::DisabledDispatch
            } else {
                SysState::Task
            };
            Ok(RefSys {
                sysstat,
                runtskid: st.running,
                schedtskid: st.scheduler.peek(),
                int_nest: st.int_stack.len(),
                ticks: st.ticks,
            })
        })
    }

    /// `tk_dis_dsp` — disables task dispatching.
    ///
    /// # Errors
    ///
    /// `E_CTX` from handler context or while the CPU is locked
    /// (µ-ITRON forbids dispatch control inside a `tk_loc_cpu` window).
    pub fn tk_dis_dsp(&mut self) -> KResult<()> {
        // Outside the bracket: dispatching is masked when this returns,
        // so there is no preemption point to end at.
        self.service_cost(ServiceClass::System, "tk_dis_dsp");
        self.require_task()?;
        let mut st = self.shared.st.borrow_mut();
        if st.cpu_locked {
            return Err(ErCode::Ctx);
        }
        st.dispatch_disabled = true;
        st.observe(crate::obs::ObsEvent::DispCtl { disabled: true });
        Ok(())
    }

    /// `tk_ena_dsp` — re-enables task dispatching; a deferred dispatch
    /// request takes effect immediately.
    ///
    /// # Errors
    ///
    /// `E_CTX` from handler context or while the CPU is locked.
    pub fn tk_ena_dsp(&mut self) -> KResult<()> {
        self.service(ServiceClass::System, "tk_ena_dsp", |sys| {
            sys.require_task()?;
            let mut st = sys.shared.st.borrow_mut();
            if st.cpu_locked {
                return Err(ErCode::Ctx);
            }
            st.dispatch_disabled = false;
            st.observe(crate::obs::ObsEvent::DispCtl { disabled: false });
            Ok(())
        })
    }

    /// `tk_loc_cpu` — locks the CPU: interrupts are not delivered and
    /// dispatching is masked until [`Sys::tk_unl_cpu`]. The CPU-locked
    /// and dispatch-disabled states are independent (µ-ITRON):
    /// unlocking does not touch a `tk_dis_dsp` window.
    ///
    /// # Errors
    ///
    /// `E_CTX` from handler context.
    pub fn tk_loc_cpu(&mut self) -> KResult<()> {
        // Outside the bracket: dispatching is masked when this returns,
        // so there is no preemption point to end at.
        self.service_cost(ServiceClass::System, "tk_loc_cpu");
        self.require_task()?;
        let mut st = self.shared.st.borrow_mut();
        st.cpu_locked = true;
        st.observe(crate::obs::ObsEvent::DispCtl { disabled: true });
        Ok(())
    }

    /// `tk_unl_cpu` — unlocks the CPU; pended interrupts are delivered.
    /// An independently opened `tk_dis_dsp` window stays in force.
    ///
    /// # Errors
    ///
    /// `E_CTX` from handler context.
    pub fn tk_unl_cpu(&mut self) -> KResult<()> {
        self.service(ServiceClass::System, "tk_unl_cpu", |sys| {
            sys.require_task()?;
            let kick = {
                let mut st = sys.shared.st.borrow_mut();
                st.cpu_locked = false;
                let disabled = st.dispatch_masked();
                st.observe(crate::obs::ObsEvent::DispCtl { disabled });
                if st.pending_ints.is_empty() {
                    None
                } else {
                    st.int_req_ev
                }
            };
            if let Some(ev) = kick {
                sys.shared.h.notify(ev);
            }
            Ok(())
        })
    }
}
