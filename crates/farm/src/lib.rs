//! # rtk-farm — parallel seeded scenario campaigns over RTK-Spec TRON
//!
//! The simulation farm turns the single-instance examples of the paper
//! reproduction into *campaigns*: thousands of parameterized scenarios,
//! each a complete kernel instance with its own workload, executed
//! across worker threads and mined into distribution summaries.
//!
//! Pipeline (`seed → scenario → runner → aggregate`):
//!
//! 1. **Seed expansion** ([`ScenarioSpec::generate`]) — a pure function
//!    from a `u64` seed to a workload description: periodic task sets,
//!    sem/mailbox/event-flag topologies, interrupt storms and optional
//!    fault injection (dropped interrupts, delayed releases).
//! 2. **Execution** ([`run_scenario`]) — builds one [`rtk_core::Rtos`]
//!    per job, runs it to the horizon, measures response latencies,
//!    deadline misses, context switches and energy. Panics are caught
//!    per scenario; stalls and livelocks are flagged. A [`RunPlan`]
//!    names what observes the run, none of which changes its outcome:
//!    the oracle replays every kernel decision through a sequential
//!    ITRON reference model ([`oracle`]) and the first spec divergence
//!    flags the scenario; an in-memory copy of the stream and the
//!    static-model conformance checker are the others.
//! 3. **Parallel runner** ([`run_campaign`]) — kernels are
//!    independent, so the campaign is embarrassingly parallel: worker
//!    threads claim seed offsets from one shared atomic cursor, and each
//!    outcome lands in its offset's slot.
//! 4. **Aggregation** ([`CampaignReport`]) — nearest-rank percentile
//!    summaries and the deterministic `BENCH_farm.json`: byte-identical
//!    for a fixed seed set regardless of thread count.
//!
//! On top of the pipeline sits the streaming trace platform: with a
//! [`TraceConfig`] every scenario's observation stream (grammar:
//! `docs/OBS_GRAMMAR.md`) is collected, encoded on its worker and
//! written by one writer thread into a binary `.rtkt` file (format:
//! `docs/TRACE_FORMAT.md`), and [`replay`] re-runs the
//! differential oracle from those files alone — same verdicts, same
//! first-divergence indexes, no kernel execution.
//!
//! ```
//! use rtk_farm::{run_campaign, CampaignConfig, CampaignReport, Tuning};
//!
//! let cfg = CampaignConfig {
//!     base_seed: 1,
//!     seeds: 4,
//!     threads: 2,
//!     tuning: Tuning { quick: true, faults: true },
//!     oracle: true,
//!     ..CampaignConfig::default()
//! };
//! let outcomes = run_campaign(&cfg);
//! let report = CampaignReport::new(cfg, outcomes);
//! assert!(report.all_healthy());
//! ```

#![warn(missing_docs)]

/// Implements `Clone` for a struct field by field, with a `clone_from`
/// that forwards to each field's own, so cloning into a spent value
/// reuses the buffers it holds (a derived `clone_from` is
/// `*self = source.clone()`). `clone` builds the struct from the list,
/// so a field missing from it does not compile.
macro_rules! clone_fields {
    ($ty:ident { $($field:ident),+ $(,)? }) => {
        impl Clone for $ty {
            fn clone(&self) -> Self {
                $ty { $($field: self.$field.clone()),+ }
            }

            fn clone_from(&mut self, source: &Self) {
                $(self.$field.clone_from(&source.$field);)+
            }
        }
    };
}

mod build;
pub mod explore;
pub mod model;
pub mod oracle;
pub mod replay;
mod report;
mod rng;
mod runner;
mod scenario;
pub mod verify;

pub use build::{
    run_scenario, run_scenario_checked_on, run_scenario_observed, run_scenario_traced, RunPlan,
    ScenarioOutcome, TraceConfig,
};
pub use explore::{
    run_exploration, write_counterexamples, Counterexample, ExploreConfig, ExploreOutcome,
    ExploreReport, Family, Violation,
};
pub use model::static_model;
pub use oracle::{check, Checker, Divergence, OracleVerdict, SpecMutation, SpecState};
pub use replay::{
    replay_analysis, replay_path, replay_report_json_analyzed, replay_trace, ReplayedAnalysis,
    ReplayedTrace,
};
pub use report::{Aggregate, CampaignReport};
pub use rng::FarmRng;
pub use runner::{run_campaign, CampaignConfig};
pub use scenario::{FaultPlan, ScenarioSpec, StormSpec, TaskSpec, Topology, Tuning};
pub use verify::{analyze_spec, verify_outcome, AnalysisRecord};
