//! # rtk-core — RTK-Spec TRON: an ITRON/T-Kernel RTOS simulation model
//!
//! Rust reproduction of the DATE 2005 paper *"RTK-Spec TRON: A
//! Simulation Model of an ITRON Based RTOS Kernel in SystemC"* (Hassan,
//! Sakanushi, Takeuchi, Imai). The original builds on SystemC 2.0; this
//! crate builds on [`sysc`], a SystemC-like discrete-event kernel.
//!
//! The crate provides the paper's three artifacts:
//!
//! * **T-THREAD** ([`tthread`]) — the controllable process model with
//!   Petri-net execution semantics: event alphabet `{Es, Ec, Ex, Ei,
//!   Ew}`, execution-time/energy models and per-place `CET`/`CEE`
//!   accumulation.
//! * **SIM_API** ([`sim_api`]) — the simulation library controlling
//!   T-THREADs: the SIM_HashTB thread records (kept in each control
//!   block), the SIM_Stack of nested interrupts, `SIM_Wait` with
//!   preemption points, dispatching and delayed dispatching,
//!   service-call atomicity, and pluggable schedulers.
//! * **RTK-Spec TRON** ([`Rtos`]) — the T-Kernel/OS simulation model:
//!   priority-based preemptive scheduling; semaphores, event flags,
//!   mailboxes, message buffers, mutexes (inheritance/ceiling); fixed
//!   and variable memory pools; system time, cyclic and alarm handlers;
//!   interrupt handling with two-level nesting; system management; and
//!   T-Kernel/DS ([`Ds`]) debugger output.
//!
//! # Quickstart
//!
//! ```
//! use rtk_core::{KernelConfig, QueueOrder, Rtos, Timeout};
//! use sysc::SimTime;
//!
//! let mut rtos = Rtos::new(KernelConfig::zero_cost(), |sys, _| {
//!     let sem = sys.tk_cre_sem("gate", 0, 1, QueueOrder::Fifo).unwrap();
//!     let waiter = sys
//!         .tk_cre_tsk("waiter", 10, move |sys, _| {
//!             sys.tk_wai_sem(sem, 1, Timeout::Forever).unwrap();
//!         })
//!         .unwrap();
//!     let signaler = sys
//!         .tk_cre_tsk("signaler", 20, move |sys, _| {
//!             sys.exec(SimTime::from_us(50));
//!             sys.tk_sig_sem(sem, 1).unwrap();
//!         })
//!         .unwrap();
//!     sys.tk_sta_tsk(waiter, 0).unwrap();
//!     sys.tk_sta_tsk(signaler, 0).unwrap();
//! });
//! rtos.run_for(SimTime::from_ms(10));
//! ```

#![warn(missing_docs)]

pub mod calibrate;
mod central;
mod config;
mod cost;
mod ds;
mod error;
mod ids;
pub mod kernel;
pub mod minikernels;
pub mod model;
pub mod obs;
mod rtos;
pub mod sim_api;
mod state;
pub mod trace;
pub mod tthread;

pub use calibrate::{calibrate, ReferenceProfile, ReferenceSample};
pub use config::{KernelConfig, Priority};
pub use cost::{Cost, CostModel, Energy, Power, ServiceClass};
pub use ds::Ds;
pub use error::{ErCode, KResult};
pub use ids::{
    AlmId, CycId, FlgId, IntNo, MbfId, MbxId, MpfId, MplId, MtxId, SemId, TaskId, ThreadRef,
};
pub use kernel::flag::RefFlg;
pub use kernel::int::RefInt;
pub use kernel::mbf::RefMbf;
pub use kernel::mbx::{MsgPacket, RefMbx};
pub use kernel::mpf::RefMpf;
pub use kernel::mpl::RefMpl;
pub use kernel::mtx::{MtxPolicy, RefMtx};
pub use kernel::sem::RefSem;
pub use kernel::sysmgmt::{RefSys, RefVer, SysState};
pub use kernel::task::RefTsk;
pub use kernel::time::{RefAlm, RefCyc};
pub use model::{InterferenceModel, LockPolicy, ResourceModel, SectionModel, SysModel, TaskModel};
pub use obs::{
    ObsEvent, ObsStream, StampedEvent, StreamClose, StreamSink, WakeCode, GRAMMAR_VERSION,
};
pub use rtos::{IntPort, Rtos, RunStats, Sys};
pub use state::{Delivered, FlagWaitMode, IntRequest, QueueOrder, TaskState, Timeout, WaitObj};
pub use trace::{TraceKind, TraceRecord};
pub use tthread::{
    CharacteristicVector, ExecContext, TThreadEvent, TThreadInfo, TThreadKind, TThreadStats,
};
