//! Declarative mirror of [`crate::run_scenario`]: expands a
//! [`ScenarioSpec`] into the [`SysModel`] the static analyzer consumes.
//!
//! This module must describe **exactly** the workload `build.rs`
//! assembles — same critical-section lengths (both read
//! `Topology::crit_us` and the churn victim's constants), same lock
//! policies, same release machinery — or the analyzer certifies a
//! fiction. The farm
//! keeps the two honest in both directions: the conformance sink
//! checks the observed stream against this model, and every positive
//! verdict is cross-validated against the dynamic run
//! (`docs/STATIC_ANALYSIS.md`).
//!
//! Modelling policy, per topology family:
//!
//! * `independent`, `sem_chain`, `mbx_pipeline`, `flag_barrier`,
//!   `mtx_inherit`, `mtx_ceiling` — every timing aspect is bounded:
//!   `timing_complete = true`, so schedulability verdicts are issued.
//! * `mbf_pipeline`, `mpf_pool`, `mpl_pressure` — jobs wait on
//!   undersized buffers/pools with a 2×period timeout, which exceeds
//!   the implicit deadline *by design*; `lifecycle_churn`,
//!   `disp_window`/`cpu_lock_window`, `alm_cyc_storm` — lifecycle
//!   churn, dispatch-control windows and alarm races defeat job-level
//!   budgets. All declare `timing_complete = false`: structural
//!   (deadlock) verdicts only.
//! * A `delay_every_nth_release` fault plan deliberately makes jobs
//!   miss; `fault_degraded = true` withholds schedulability claims.
//!   Dropped-IRQ faults only *reduce* load and keep certification.
//!
//! Costs come from the paper's 8051 cost model
//! ([`rtk_core::CostModel::mcu_8051`]) plus explicit slack pads: the
//! analyzer's bounds must stay *sound* (never below dynamic reality),
//! so every kernel-path estimate rounds up. The pads are validated
//! empirically by the 1000-seed `--analyze` campaign, which fails on
//! any observed latency above a certified bound.

use rtk_core::{
    InterferenceModel, KernelConfig, LockPolicy, ResourceModel, SectionModel, ServiceClass,
    SysModel, TaskModel,
};

use crate::build::{CHURN_VICTIM_CRIT_US, CHURN_VICTIM_PRI};
use crate::scenario::{ScenarioSpec, Topology};

/// Measurement warm-up window, µs: releases stamped before this are
/// exempt from bound/deadline cross-checks. Kernel boot plus object
/// creation runs at init priority 1 and can delay the very first jobs
/// by more than a short period — a startup transient outside the
/// steady-state RTA model (see `docs/STATIC_ANALYSIS.md`).
pub const WARMUP_US: u64 = 20_000;

/// Per-job kernel overhead pad, µs: gate-semaphore bookkeeping, the
/// wakeup dispatch into the job and the dispatch away at its end,
/// plus slack for stamp/queue handling in the release path.
const JOB_OVERHEAD_US: u64 = 200;

/// Per-occurrence pads on modelled interference sources (µs).
const TICK_PAD_US: u64 = 20;
const CYC_PAD_US: u64 = 15;
const ISR_PAD_US: u64 = 25;

/// Builds the declarative model of a generated scenario.
pub fn static_model(spec: &ScenarioSpec) -> SysModel {
    let cfg = KernelConfig::paper();
    let us = |class: ServiceClass| cfg.cost.service(class).time.as_us();
    let sem = us(ServiceClass::Semaphore);
    let mtx = us(ServiceClass::Mutex);
    let flg = us(ServiceClass::EventFlag);
    let mbx = us(ServiceClass::Mailbox);
    let mbf = us(ServiceClass::MessageBuffer);
    let time = us(ServiceClass::Time);
    let int = us(ServiceClass::Interrupt);
    let tick_us = cfg.tick.as_us();
    let int_entry = cfg.cost.int_entry.time.as_us();
    let int_exit = cfg.cost.int_exit.time.as_us();

    let mut m = SysModel::empty();
    m.fault_degraded = spec.faults.delay_every_nth_release.is_some();
    m.timing_complete = matches!(
        spec.topology,
        Topology::Independent
            | Topology::SemChain
            | Topology::MbxPipeline
            | Topology::FlagBarrier
            | Topology::MtxChain { .. }
    );

    // Shared resource of the topology (mirrors the creation order in
    // `build.rs`: topology objects first, per-task gates after).
    let top_pri = spec.tasks.iter().map(|t| t.priority).min().unwrap_or(1);
    match spec.topology {
        Topology::SemChain => {
            m.resources.push(ResourceModel {
                name: "chain".into(),
                policy: LockPolicy::None,
                pri_order: spec.priority_queues,
            });
            // The chain semaphore is the first SemCreate; the per-task
            // gates that follow are not lock resources.
            m.sem_resources = vec![0];
        }
        Topology::MtxChain { ceiling } => {
            m.resources.push(ResourceModel {
                name: "chain".into(),
                policy: if ceiling {
                    LockPolicy::Ceiling(top_pri)
                } else {
                    LockPolicy::Inherit
                },
                pri_order: true,
            });
            m.mutex_resources = vec![0];
        }
        Topology::LifecycleChurn => {
            m.resources.push(ResourceModel {
                name: "churn".into(),
                policy: LockPolicy::Inherit,
                pri_order: true,
            });
            m.mutex_resources = vec![0];
        }
        _ => {}
    }

    // The measured periodic tasks.
    let t0_period_us = u64::from(spec.tasks[0].period_ms) * 1000;
    for (i, t) in spec.tasks.iter().enumerate() {
        let exec = u64::from(t.exec_us);
        let period_us = u64::from(t.period_ms) * 1000;
        let mut cost = exec + sem + JOB_OVERHEAD_US;
        let mut sections = Vec::new();
        match spec.topology {
            Topology::Independent => {}
            Topology::SemChain => {
                let crit = spec.topology.crit_us(exec);
                cost += 2 * sem;
                sections.push(SectionModel::leaf(0, crit + sem));
            }
            Topology::MbxPipeline => {
                if i == 0 {
                    // The drain polls every pending record plus one
                    // failing poll. Pending is bounded by what the
                    // other tasks can send across two drain periods
                    // (accumulation window + the drain job's own
                    // response time ≤ its period when certified).
                    let msgs: u64 = spec
                        .tasks
                        .iter()
                        .skip(1)
                        .map(|s| (2 * t0_period_us).div_ceil(u64::from(s.period_ms) * 1000) + 2)
                        .sum();
                    cost += (msgs + 1) * mbx;
                } else {
                    cost += mbx;
                }
            }
            Topology::FlagBarrier => cost += flg,
            Topology::MtxChain { .. } => {
                let crit = spec.topology.crit_us(exec);
                cost += 2 * mtx;
                sections.push(SectionModel::leaf(0, crit + mtx));
            }
            Topology::MbfPipeline => cost += mbf,
            Topology::MpfPool => cost += 2 * us(ServiceClass::MemoryPool),
            Topology::LifecycleChurn => {
                let crit = spec.topology.crit_us(exec);
                cost += 2 * mtx;
                sections.push(SectionModel::leaf(0, crit + mtx));
            }
            Topology::DispWindow { .. } => {}
            Topology::MplPressure => cost += 2 * us(ServiceClass::MemoryPool),
            Topology::AlmCycStorm => cost += 2 * time + 2 * sem,
        }
        m.tasks.push(TaskModel {
            name: format!("tsk{i}"),
            priority: t.priority,
            period_us,
            offset_us: u64::from(t.phase_ms) * 1000,
            deadline_us: period_us,
            cost_us: cost,
            sections,
            measured: true,
        });
    }

    // Aperiodic helper with a declared critical section: the churn
    // victim (its section blocks measured tasks).
    if matches!(spec.topology, Topology::LifecycleChurn) {
        m.tasks.push(TaskModel {
            name: "victim".into(),
            priority: CHURN_VICTIM_PRI,
            period_us: 0,
            offset_us: 0,
            deadline_us: 0,
            cost_us: CHURN_VICTIM_CRIT_US + mtx,
            sections: vec![SectionModel::leaf(0, CHURN_VICTIM_CRIT_US + mtx)],
            measured: false,
        });
    }

    // Interference sources: the system tick, each task's release
    // cyclic (stamp + gate signal in tick context), and the ISR storm.
    m.interference.push(InterferenceModel {
        name: "tick".into(),
        period_us: tick_us,
        cost_us: cfg.cost.timer_tick.time.as_us() + int_entry + int_exit + TICK_PAD_US,
    });
    for (i, t) in spec.tasks.iter().enumerate() {
        m.interference.push(InterferenceModel {
            name: format!("rel{i}"),
            period_us: u64::from(t.period_ms) * 1000,
            cost_us: sem + time + CYC_PAD_US,
        });
    }
    if let Some(storm) = &spec.storm {
        m.interference.push(InterferenceModel {
            name: "storm".into(),
            period_us: u64::from(storm.gap_us),
            cost_us: u64::from(storm.isr_us) + int_entry + int_exit + int + ISR_PAD_US,
        });
    }

    m
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::Tuning;
    use rtk_analysis::static_verify::{analyze, AnalysisOptions, Verdict};

    #[test]
    fn model_mirrors_spec_shape() {
        let t = Tuning::default();
        for seed in 0..300 {
            let spec = ScenarioSpec::generate(seed, &t);
            let m = static_model(&spec);
            let measured = m.tasks.iter().filter(|t| t.measured).count();
            assert_eq!(measured, spec.tasks.len(), "seed {seed}");
            for (task, spec_task) in m.tasks.iter().zip(&spec.tasks) {
                assert!(task.cost_us > u64::from(spec_task.exec_us));
                assert_eq!(task.period_us, u64::from(spec_task.period_ms) * 1000);
            }
            // Interference always includes the tick.
            assert!(m.interference.iter().any(|s| s.name == "tick"));
            if spec.storm.is_some() {
                assert!(m.interference.iter().any(|s| s.name == "storm"));
            }
        }
    }

    #[test]
    fn model_is_pure() {
        let t = Tuning {
            quick: true,
            faults: true,
        };
        for seed in [0u64, 17, 99, 1234] {
            let spec = ScenarioSpec::generate(seed, &t);
            assert_eq!(static_model(&spec), static_model(&spec));
        }
    }

    #[test]
    fn certified_families_are_analyzable() {
        // Across a seed scan, each certifiable family must produce at
        // least one certified-schedulable verdict, and structural
        // families must stay deadlock-certified with verdicts Unknown.
        let t = Tuning {
            quick: true,
            faults: false,
        };
        let mut sched_certified = std::collections::BTreeSet::new();
        for seed in 0..600 {
            let spec = ScenarioSpec::generate(seed, &t);
            let m = static_model(&spec);
            let r = analyze(&m, &AnalysisOptions::default());
            // Single-resource (or no-resource) scenarios can never
            // have a lock-order cycle.
            assert_eq!(r.deadlock, Verdict::Certified, "seed {seed}");
            if m.timing_complete {
                if r.schedulable == Verdict::Certified {
                    sched_certified.insert(spec.topology.label());
                }
            } else {
                assert_eq!(r.schedulable, Verdict::Unknown, "seed {seed}");
            }
        }
        for family in ["independent", "sem_chain", "flag_barrier"] {
            assert!(
                sched_certified.contains(family),
                "no certified scenario in family {family}: {sched_certified:?}"
            );
        }
    }
}
