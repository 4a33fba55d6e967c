//! The campaign runner: N-thousand scenarios across worker threads.
//!
//! Kernel instances are fully independent, so a campaign is
//! embarrassingly parallel: each job expands one seed, builds one
//! kernel, runs it to the horizon and measures — entirely on one
//! worker. Workers share one cursor over the campaign's seed offsets
//! and claim the next offset with one atomic increment, so a worker
//! that draws a long scenario simply claims fewer. Scenario wall times
//! vary by an order of magnitude, yet no queue, lock or steal is
//! needed: farmbench measures `runner.parallel_efficiency` 0.99 for
//! 1000 quick seeds on 2 workers.
//!
//! Determinism: each outcome is stored in the slot of its seed offset,
//! so aggregation order — and therefore the campaign report — is
//! independent of which worker ran which job and in what order.
//!
//! `.rtkt` capture keeps the file system off the workers: a worker
//! collects a scenario's stream, encodes it once the run is over and
//! hands the bytes to one writer thread, which makes every file-system
//! call. Creating a file costs more than writing it, and now and then
//! a create stalls for milliseconds; the writer absorbs both.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, OnceLock};

use crate::build::{
    encode_capture, run_scenario, write_capture, RunPlan, ScenarioOutcome, TraceConfig,
};
use crate::scenario::{ScenarioSpec, Tuning};

/// Campaign parameters (the CLI surface).
#[derive(Debug, Clone)]
pub struct CampaignConfig {
    /// First seed of the campaign.
    pub base_seed: u64,
    /// Number of consecutive seeds to run.
    pub seeds: u64,
    /// Worker threads (`0` = all available cores).
    pub threads: usize,
    /// Generator knobs shared by every scenario.
    pub tuning: Tuning,
    /// Replay every scenario through the differential ITRON oracle; a
    /// divergence makes the scenario unhealthy.
    pub oracle: bool,
    /// Run only the seeds whose expanded scenario has this topology
    /// label (see `Topology::ALL_LABELS`) — one-command divergence
    /// repro for a single scenario family.
    pub topology: Option<String>,
    /// When set, every scenario's observation stream is captured into
    /// a binary `.rtkt` trace file in the given directory
    /// (`--trace-dir`, which must exist) — replayable offline with
    /// `rtk-farm --replay`. Every file is complete when
    /// [`run_campaign`] returns. Host-side instrumentation only: never
    /// changes outcomes or the campaign digest.
    pub trace: Option<TraceConfig>,
    /// Run the static scenario analyzer as a pre-pass on every seed
    /// and cross-validate its verdicts against the dynamic run
    /// (`--analyze`, see `docs/STATIC_ANALYSIS.md`). Host-side only:
    /// adds digest-excluded verification fields to outcomes and an
    /// analysis block to the report, never changing the campaign
    /// digest.
    pub analyze: bool,
}

impl Default for CampaignConfig {
    fn default() -> Self {
        CampaignConfig {
            base_seed: 1,
            seeds: 256,
            threads: 0,
            tuning: Tuning::default(),
            oracle: false,
            topology: None,
            trace: None,
            analyze: false,
        }
    }
}

impl CampaignConfig {
    /// The effective worker count: the configured value, or the number
    /// of available cores, never more than there are jobs.
    pub fn effective_threads(&self) -> usize {
        let hw = std::thread::available_parallelism().map_or(1, |n| n.get());
        let t = if self.threads == 0 { hw } else { self.threads };
        t.clamp(1, self.seeds.max(1) as usize)
    }
}

/// Runs the whole campaign; returns the outcomes in seed order. With a
/// topology filter, only the seeds whose (purely seed-derived)
/// scenario carries that label run — the rest of the pipeline is
/// unchanged, so filtered reports stay deterministic too.
pub fn run_campaign(cfg: &CampaignConfig) -> Vec<ScenarioOutcome> {
    if cfg.seeds == 0 {
        return Vec::new();
    }
    let plan = RunPlan {
        oracle: cfg.oracle,
        collect_events: cfg.trace.is_some(),
        analyze: cfg.analyze,
    };
    let workers = cfg.effective_threads();

    // Scenario kernels lease their T-THREAD coroutine stacks from a
    // global pool; across a campaign the same stacks serve thousands of
    // scenarios. Pre-warm one wave's worth (a quick scenario runs
    // roughly 4–10 thread processes: tasks, boot, timer, storm) so the
    // first scenarios don't pay allocation latency either.
    sysc::runtime::prewarm_stacks(workers.saturating_mul(8));

    // One slot per seed offset, claimed through the shared cursor; a
    // seed outside the topology filter leaves its slot empty. The
    // cursor publishes nothing but the offset (the slots and the
    // scope's join publish the outcomes), so `Relaxed` suffices.
    let cursor = AtomicUsize::new(0);
    let slots: Vec<OnceLock<ScenarioOutcome>> = (0..cfg.seeds).map(|_| OnceLock::new()).collect();
    // Encoded traces travel as `(offset, bytes, events)`, one channel
    // slot per worker; the writer returns the offsets whose file it
    // could not write, with their event counts. The scope joins it, so
    // every file is complete before the outcomes are returned.
    let (traces, inbox) = mpsc::sync_channel::<(usize, Vec<u8>, u64)>(workers);
    let lost = std::thread::scope(|scope| {
        let writer = cfg.trace.as_ref().map(|tc| {
            scope.spawn(move || {
                inbox
                    .into_iter()
                    .filter(|(offset, bytes, _)| {
                        !write_capture(&tc.path(cfg.base_seed + *offset as u64), bytes)
                    })
                    .map(|(offset, _, events)| (offset, events))
                    .collect::<Vec<_>>()
            })
        });
        for _ in 0..workers {
            let (traces, cursor, slots, plan) = (traces.clone(), &cursor, &slots, &plan);
            scope.spawn(move || loop {
                let offset = cursor.fetch_add(1, Ordering::Relaxed);
                let Some(slot) = slots.get(offset) else {
                    break;
                };
                let spec = ScenarioSpec::generate(cfg.base_seed + offset as u64, &cfg.tuning);
                if matches!(&cfg.topology, Some(label) if spec.topology.label() != label) {
                    continue;
                }
                let (mut outcome, events) = run_scenario(&spec, plan);
                if let Some(tc) = &cfg.trace {
                    let bytes = encode_capture(&spec, tc, &events, &mut outcome);
                    traces
                        .send((offset, bytes, events.len() as u64))
                        .expect("the trace writer outlives the workers");
                }
                assert!(slot.set(outcome).is_ok(), "offset {offset} run twice");
            });
        }
        // The writer stops once every worker has dropped its sender.
        drop(traces);
        writer.map_or_else(Vec::new, |w| w.join().expect("trace writer panicked"))
    });
    let mut outcomes: Vec<Option<ScenarioOutcome>> =
        slots.into_iter().map(OnceLock::into_inner).collect();
    for (offset, events) in lost {
        if let Some(outcome) = &mut outcomes[offset] {
            outcome.obs_dropped = events;
        }
    }
    outcomes.into_iter().flatten().collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_cfg(seeds: u64, threads: usize) -> CampaignConfig {
        CampaignConfig {
            base_seed: 100,
            seeds,
            threads,
            tuning: Tuning {
                quick: true,
                faults: true,
            },
            oracle: false,
            topology: None,
            trace: None,
            analyze: false,
        }
    }

    #[test]
    fn campaign_returns_seed_ordered_outcomes() {
        let outcomes = run_campaign(&quick_cfg(6, 3));
        assert_eq!(outcomes.len(), 6);
        for (i, o) in outcomes.iter().enumerate() {
            assert_eq!(o.seed, 100 + i as u64);
        }
    }

    #[test]
    fn thread_count_does_not_change_results() {
        let seq: Vec<u64> = run_campaign(&quick_cfg(8, 1))
            .iter()
            .map(|o| o.digest())
            .collect();
        let par: Vec<u64> = run_campaign(&quick_cfg(8, 4))
            .iter()
            .map(|o| o.digest())
            .collect();
        assert_eq!(seq, par);
    }

    #[test]
    fn zero_seeds_is_empty() {
        assert!(run_campaign(&quick_cfg(0, 2)).is_empty());
    }

    #[test]
    fn topology_filter_selects_matching_seeds_only() {
        let mut cfg = quick_cfg(64, 2);
        cfg.topology = Some("sem_chain".into());
        let outcomes = run_campaign(&cfg);
        assert!(!outcomes.is_empty(), "64 seeds must contain a sem_chain");
        for o in &outcomes {
            let spec = ScenarioSpec::generate(o.seed, &cfg.tuning);
            assert_eq!(spec.topology.label(), "sem_chain", "seed {}", o.seed);
        }
        // Unfiltered superset contains exactly the same outcomes for
        // those seeds.
        let full = run_campaign(&quick_cfg(64, 2));
        for o in &outcomes {
            let twin = full
                .iter()
                .find(|f| f.seed == o.seed)
                .expect("seed in superset");
            assert_eq!(twin.digest(), o.digest());
        }
    }

    #[test]
    fn effective_threads_clamps() {
        assert_eq!(quick_cfg(4, 16).effective_threads(), 4);
        assert_eq!(quick_cfg(4, 1).effective_threads(), 1);
        assert!(quick_cfg(100, 0).effective_threads() >= 1);
    }
}
