//! The differential ITRON oracle: a pure, single-threaded executable
//! spec of the scheduling + synchronisation semantics, replayed in
//! lockstep against the kernel's observed decision stream.
//!
//! The kernel records an [`ObsEvent`] for every semantic operation and
//! every decision (see `rtk_core::obs`). [`check`] replays that history
//! through an independent reference model:
//!
//! * **Stimuli** (object creation, `tk_sig_sem`, `tk_set_flg`, a mutex
//!   unlock, a timeout expiry, a forced release, a termination, ...)
//!   update the model *and* compute the set of wakeups the µ-ITRON
//!   rules mandate, in order.
//! * **Decisions** (a dispatch, a wakeup, an immediate acquisition) are
//!   verified against the model: the dispatched task must be the head
//!   of the model's ready queue *at the model's computed current
//!   priority* (base priority relaxed through priority-ceiling and
//!   transitive priority-inheritance, computed to fixpoint — an
//!   implementation independent of the kernel's incremental
//!   propagation); a wakeup must be exactly the next mandated one.
//!
//! The first deviation is reported as a [`Divergence`] with the event
//! index, so `seed + index` replays the exact decision under a
//! debugger.
//!
//! # Scope
//!
//! The spec models the full surface a farm scenario can produce:
//!
//! * the default priority-preemptive scheduler, with `tk_rot_rdq`
//!   rotation;
//! * waits ending by satisfaction, timeout or forced release
//!   (`tk_rel_wai`), including the re-serve of waiters that become
//!   satisfiable when a queued waiter is removed;
//! * task lifecycle: `tk_ter_tsk` (release-all-held-mutexes with
//!   priority re-propagation), `tk_exd_tsk`, `tk_del_tsk`, restart;
//! * nested suspend/resume (`tk_sus_tsk`/`tk_rsm_tsk`/`tk_frsm_tsk`),
//!   including waits completing into SUSPENDED;
//! * dispatch-disable / CPU-lock windows (`tk_dis_dsp`/`tk_loc_cpu`):
//!   no dispatch, preemption or blocking may be observed inside one;
//! * task-attached sleep/wakeup (`tk_slp_tsk`/`tk_wup_tsk` with
//!   wakeup-request queueing);
//! * variable-size pools via a first-fit arena shadow mirroring the
//!   kernel's allocator (exact offsets, coalescing, waiter service in
//!   queue order);
//! * cyclic/alarm handler fire ticks (armed tick and period
//!   re-arming).
//!
//! Object deletion with live waiters ([`rtk_core::WakeCode::Deleted`]),
//! `tk_can_wup`, and custom schedulers remain outside the modeled
//! subset; streams containing them are rejected rather than validated
//! (see `rtk_core::obs`, "Checker scope").

use std::fmt;

use rtk_core::ObsEvent;

mod spec;

pub use spec::{SpecMutation, SpecState};

/// First observed deviation between the kernel and the reference model.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Divergence {
    /// Index of the offending event in the observation stream.
    pub index: usize,
    /// The offending event, rendered.
    pub event: String,
    /// What the spec mandated instead.
    pub detail: String,
}

impl fmt::Display for Divergence {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "event #{}: {} -- {}",
            self.index, self.event, self.detail
        )
    }
}

/// Result of replaying one observation stream through the spec.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OracleVerdict {
    /// Events replayed (all of them when no divergence was found).
    pub events_checked: u64,
    /// The first divergence, if any.
    pub divergence: Option<Divergence>,
}

/// Replays `events` through the sequential reference model and returns
/// the verdict.
pub fn check(events: &[ObsEvent]) -> OracleVerdict {
    let mut checker = Checker::new();
    for ev in events {
        checker.push(ev);
    }
    checker.verdict(true)
}

/// Incremental form of [`check`]: feed events one at a time (e.g. from
/// an `ObsStream` sink while the simulation runs, or from a trace file
/// during `--replay`) and ask for the verdict at the end.
///
/// Equivalent to [`check`] over the same stream: the first failing
/// event freezes the checker — `events_checked` stays at the
/// divergence index and later pushes are ignored, exactly as the
/// batch replay would have stopped there.
#[derive(Debug, Default)]
pub struct Checker {
    model: SpecState,
    checked: u64,
    divergence: Option<Divergence>,
}

impl Checker {
    /// A checker with a fresh reference model.
    pub fn new() -> Self {
        Checker::default()
    }

    /// A checker whose reference model carries a [`SpecMutation`] —
    /// the testing hook behind the mutation-sensitivity proofs: a
    /// mutated checker must stay green across random-seed replays
    /// while `--explore` convicts the same mutation.
    pub fn with_mutation(mutation: SpecMutation) -> Self {
        Checker {
            model: SpecState::with_mutation(mutation),
            ..Checker::default()
        }
    }

    /// Replays one event. No-op once a divergence has been recorded.
    pub fn push(&mut self, ev: &ObsEvent) {
        if self.divergence.is_some() {
            return;
        }
        if let Err(detail) = self.model.apply(ev) {
            self.divergence = Some(Divergence {
                index: self.checked as usize,
                event: format!("{ev:?}"),
                detail,
            });
        } else {
            self.checked += 1;
        }
    }

    /// `true` once a pushed event has deviated from the spec.
    pub fn diverged(&self) -> bool {
        self.divergence.is_some()
    }

    /// The verdict so far. `check_end` additionally applies the
    /// end-of-stream invariant (every mandated wakeup was observed);
    /// pass `false` for truncated streams — an aborted run legitimately
    /// stops mid-operation, so pending wakeups are not a divergence.
    pub fn verdict(&self, check_end: bool) -> OracleVerdict {
        if let Some(d) = &self.divergence {
            return OracleVerdict {
                events_checked: self.checked,
                divergence: Some(d.clone()),
            };
        }
        let divergence = if check_end {
            self.model.pending_wakeup().map(|(tid, obj, _)| Divergence {
                index: self.checked as usize,
                event: "<end of run>".into(),
                detail: format!(
                    "mandated wakeup of tsk{tid} from {} never observed",
                    obj.describe()
                ),
            })
        } else {
            None
        };
        OracleVerdict {
            events_checked: self.checked,
            divergence,
        }
    }
}
