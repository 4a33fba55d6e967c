//! Campaign aggregation and the `BENCH_farm.json` report.
//!
//! The report is the perf-trajectory artifact CI uploads on every run,
//! so it is **fully deterministic**: only simulated-domain quantities
//! (integer microseconds, picojoules, counts) appear, aggregation runs
//! in seed order, and the JSON writer emits fields in a fixed order
//! with integer-only values. A fixed seed set therefore produces a
//! byte-identical file regardless of host, thread count or run.
//! Wall-clock throughput (`wall_clock_ms`, `scenarios_per_sec`) is
//! host-dependent by nature: the CLI records it via
//! [`CampaignReport::to_json_timed`], but it never enters
//! `campaign_digest`, and the plain [`CampaignReport::to_json`] the
//! determinism tests compare omits it entirely.

use std::fmt::Write as _;

use rtk_analysis::json_escape;
use rtk_analysis::oracle_report::{divergences_json, DivergenceRecord};
use rtk_analysis::percentile::Summary;
use rtk_analysis::static_verify::{AnalysisOptions, Verdict};

use crate::build::ScenarioOutcome;
use crate::runner::CampaignConfig;
use crate::scenario::{Fnv, ScenarioSpec};
use crate::verify::{analyze_spec, verify_outcome, AnalysisRecord};

/// Aggregated view of a finished campaign.
#[derive(Debug, Clone)]
pub struct CampaignReport {
    /// The campaign parameters (for report provenance).
    pub cfg: CampaignConfig,
    /// Per-scenario outcomes in seed order.
    pub outcomes: Vec<ScenarioOutcome>,
    /// Static-analysis records, one per outcome in seed order; empty
    /// unless the campaign ran with `--analyze`.
    analysis: Vec<AnalysisRecord>,
}

/// The distribution summaries of a campaign.
#[derive(Debug, Clone, Copy, Default)]
pub struct Aggregate {
    /// Job response latencies pooled over every scenario (µs).
    pub latency_us: Summary,
    /// Per-scenario dispatch (context switch) counts.
    pub dispatches: Summary,
    /// Per-scenario preemption counts.
    pub preemptions: Summary,
    /// Per-scenario total modeled energy (nJ).
    pub energy_nj: Summary,
    /// Per-scenario deadline-miss counts.
    pub misses: Summary,
    /// Total releases over the campaign.
    pub releases: u64,
    /// Total completions over the campaign.
    pub completions: u64,
    /// Total deadline misses over the campaign.
    pub deadline_misses: u64,
    /// Tasks that starved (never completed despite ≥4 releases),
    /// summed over the campaign.
    pub starved_tasks: u64,
    /// Scenarios that panicked.
    pub panicked: u64,
    /// Scenarios that stalled (deadlock indicator).
    pub stalled: u64,
    /// Scenarios that hit the delta-cycle livelock guard.
    pub livelocked: u64,
    /// Scenarios whose engine run starved (event queue went dead
    /// before the horizon — impossible with a healthy periodic tick).
    pub engine_starved: u64,
    /// Kernel decisions replayed through the oracle over the whole
    /// campaign (0 when the oracle was off).
    pub oracle_events: u64,
    /// Scenarios whose decision stream diverged from the spec.
    pub diverged: u64,
    /// Observation events dropped by stream sinks over the campaign
    /// (bounded trace capture, I/O failure). Host-side accounting:
    /// reported in the timed JSON only, never in the digest.
    pub obs_dropped: u64,
}

impl CampaignReport {
    /// Builds the report from seed-ordered outcomes. An `--analyze`
    /// campaign derives its static-analysis records here, once per
    /// scenario: the analyzer is a pure function of the spec, so each
    /// seed's spec is regenerated, analysed and cross-validated against
    /// the stored outcome.
    pub fn new(cfg: CampaignConfig, outcomes: Vec<ScenarioOutcome>) -> Self {
        let analysis = if cfg.analyze {
            outcomes
                .iter()
                .map(|o| {
                    let spec = ScenarioSpec::generate(o.seed, &cfg.tuning);
                    let analysis = analyze_spec(&spec, &AnalysisOptions::default());
                    verify_outcome(&spec, &analysis, o)
                })
                .collect()
        } else {
            Vec::new()
        };
        CampaignReport {
            cfg,
            outcomes,
            analysis,
        }
    }

    /// Computes the distribution summaries (one pass, seed order).
    pub fn aggregate(&self) -> Aggregate {
        let mut agg = Aggregate::default();
        let mut latencies = Vec::new();
        let mut dispatches = Vec::new();
        let mut preemptions = Vec::new();
        let mut energies = Vec::new();
        let mut misses = Vec::new();
        for o in &self.outcomes {
            latencies.extend_from_slice(&o.latencies_us);
            dispatches.push(o.stats.dispatches);
            preemptions.push(o.stats.preemptions);
            energies.push(o.stats.total_energy().as_pj() / 1000);
            misses.push(o.deadline_misses);
            agg.releases += o.releases;
            agg.completions += o.completions;
            agg.deadline_misses += o.deadline_misses;
            agg.starved_tasks += o.starved_tasks;
            agg.panicked += u64::from(o.panicked.is_some());
            agg.stalled += u64::from(o.stalled);
            agg.livelocked += u64::from(o.engine_outcome == "delta_limit");
            agg.engine_starved += u64::from(o.engine_outcome == "starved");
            agg.oracle_events += o.oracle_events;
            agg.diverged += u64::from(o.divergence.is_some());
            agg.obs_dropped += o.obs_dropped;
        }
        agg.latency_us = Summary::of(&mut latencies);
        agg.dispatches = Summary::of(&mut dispatches);
        agg.preemptions = Summary::of(&mut preemptions);
        agg.energy_nj = Summary::of(&mut energies);
        agg.misses = Summary::of(&mut misses);
        agg
    }

    /// Campaign digest: FNV-1a over every scenario digest in seed
    /// order. Equal digests ⇒ the campaigns measured identical
    /// simulated behaviour.
    pub fn digest(&self) -> u64 {
        let mut h = Fnv::new();
        for o in &self.outcomes {
            h.u64(o.digest());
        }
        h.finish()
    }

    /// `true` when every scenario is healthy (no panic, stall or
    /// livelock) — the CI gate.
    pub fn all_healthy(&self) -> bool {
        self.outcomes.iter().all(|o| o.healthy())
    }

    /// Seeds of unhealthy scenarios with a short reason each.
    pub fn failures(&self) -> Vec<(u64, String)> {
        self.outcomes
            .iter()
            .filter(|o| !o.healthy())
            .map(|o| {
                let why = if let Some(msg) = &o.panicked {
                    format!("panicked: {msg}")
                } else if let Some((_, d)) = &o.divergence {
                    format!("oracle divergence: {d}")
                } else if o.stalled {
                    "stalled (task stopped completing jobs)".to_string()
                } else if o.engine_outcome == "starved" {
                    "engine starved (event queue dead before the horizon)".to_string()
                } else {
                    "delta-cycle livelock".to_string()
                };
                (o.seed, why)
            })
            .collect()
    }

    /// Static-analysis records, one per scenario in seed order; empty
    /// unless the campaign ran with `--analyze` (derived once, by
    /// [`CampaignReport::new`]).
    pub fn analysis_records(&self) -> &[AnalysisRecord] {
        &self.analysis
    }

    /// Static/dynamic contradictions over the campaign: `(seed,
    /// account)` pairs. Any entry fails an `--analyze` campaign.
    pub fn contradictions(&self) -> Vec<(u64, String)> {
        self.analysis
            .iter()
            .flat_map(|r| r.contradictions.iter().map(|c| (r.seed, c.clone())))
            .collect()
    }

    /// Divergence records for the oracle section of the report.
    pub fn divergences(&self) -> Vec<DivergenceRecord> {
        self.outcomes
            .iter()
            .filter_map(|o| {
                o.divergence
                    .as_ref()
                    .map(|(index, detail)| DivergenceRecord {
                        seed: o.seed,
                        event_index: *index,
                        detail: detail.clone(),
                    })
            })
            .collect()
    }

    /// Renders the `BENCH_farm.json` document (deterministic; see the
    /// module docs).
    pub fn to_json(&self) -> String {
        self.render_json(None)
    }

    /// Like [`CampaignReport::to_json`] but with wall-clock throughput
    /// fields (`wall_clock_ms`, `scenarios_per_sec`) for perf-trajectory
    /// tracking. These are host-dependent by nature, so they are
    /// **excluded from `campaign_digest`** (which hashes only
    /// simulated-domain outcomes) and omitted from the plain
    /// [`CampaignReport::to_json`] the determinism tests compare.
    pub fn to_json_timed(&self, wall_ms: u64) -> String {
        self.render_json(Some(wall_ms))
    }

    fn render_json(&self, wall_ms: Option<u64>) -> String {
        let agg = self.aggregate();
        let mut j = String::with_capacity(4096);
        j.push_str("{\n");
        let _ = writeln!(j, "  \"schema\": \"rtk-farm-bench-v1\",");
        let _ = writeln!(j, "  \"base_seed\": {},", self.cfg.base_seed);
        let _ = writeln!(j, "  \"seeds\": {},", self.cfg.seeds);
        let _ = writeln!(j, "  \"quick\": {},", self.cfg.tuning.quick);
        let _ = writeln!(j, "  \"faults\": {},", self.cfg.tuning.faults);
        let _ = writeln!(j, "  \"oracle\": {},", self.cfg.oracle);
        let _ = writeln!(j, "  \"campaign_digest\": \"{:016x}\",", self.digest());
        if let Some(ms) = wall_ms {
            // Host-execution metadata: informational, digest-excluded,
            // and omitted from the plain rendering the determinism
            // tests compare.
            let per_sec = self.outcomes.len() as u64 * 1000 / ms.max(1);
            let _ = writeln!(j, "  \"wall_clock_ms\": {ms},");
            let _ = writeln!(j, "  \"scenarios_per_sec\": {per_sec},");
            // Sink drop accounting is host-side too (whether a trace
            // was captured, and with what cap, is a CLI choice).
            let _ = writeln!(j, "  \"obs_dropped\": {},", agg.obs_dropped);
        }
        let _ = writeln!(j, "  \"scenarios\": {},", self.outcomes.len());
        let _ = writeln!(j, "  \"releases\": {},", agg.releases);
        let _ = writeln!(j, "  \"completions\": {},", agg.completions);
        let _ = writeln!(j, "  \"deadline_misses\": {},", agg.deadline_misses);
        let _ = writeln!(j, "  \"starved_tasks\": {},", agg.starved_tasks);
        let _ = writeln!(j, "  \"panicked\": {},", agg.panicked);
        let _ = writeln!(j, "  \"stalled\": {},", agg.stalled);
        let _ = writeln!(j, "  \"livelocked\": {},", agg.livelocked);
        let _ = writeln!(j, "  \"engine_starved\": {},", agg.engine_starved);
        let _ = writeln!(j, "  \"oracle_events\": {},", agg.oracle_events);
        let _ = writeln!(
            j,
            "  \"oracle_divergences\": {},",
            divergences_json(&self.divergences())
        );
        write_summary(&mut j, "latency_us", &agg.latency_us);
        write_summary(&mut j, "dispatches", &agg.dispatches);
        write_summary(&mut j, "preemptions", &agg.preemptions);
        write_summary(&mut j, "energy_nj", &agg.energy_nj);
        write_summary(&mut j, "deadline_misses_per_scenario", &agg.misses);
        // The static-analysis block (`--analyze` campaigns only).
        // Digest-excluded by construction: `campaign_digest` hashes the
        // per-scenario outcome digests, which ignore every analysis
        // field — a campaign with analysis on reports the same digest
        // as one without.
        if self.cfg.analyze {
            let records = &self.analysis;
            j.push_str("  \"analysis\": {\n");
            write_verdict_counts(&mut j, records, |r| [r.deadlock, r.schedulable]);
            j.push_str("    \"contradictions\": [");
            for (i, (seed, why)) in self.contradictions().iter().enumerate() {
                if i > 0 {
                    j.push_str(", ");
                }
                let _ = write!(j, "{{\"seed\": {seed}, \"why\": \"{}\"}}", json_escape(why));
            }
            j.push_str("],\n");
            j.push_str("    \"verdicts\": [\n");
            for (i, r) in records.iter().enumerate() {
                let _ = write!(
                    j,
                    "      {{\"seed\": {}, \"deadlock\": \"{}\", \"schedulable\": \"{}\", \"util_ppm\": {}}}",
                    r.seed, r.deadlock, r.schedulable, r.utilization_ppm
                );
                j.push_str(if i + 1 < records.len() { ",\n" } else { "\n" });
            }
            j.push_str("    ]\n  },\n");
        }
        let failures = self.failures();
        j.push_str("  \"failures\": [");
        for (i, (seed, why)) in failures.iter().enumerate() {
            if i > 0 {
                j.push_str(", ");
            }
            let _ = write!(j, "{{\"seed\": {seed}, \"why\": \"{}\"}}", json_escape(why));
        }
        j.push_str("]\n}\n");
        j
    }
}

/// Renders the deterministic `rtk-farm-explore-v1` JSON document for
/// one exploration run (see `docs/EXPLORATION.md`). Same discipline as
/// the bench report: fixed field order, integer/quoted-hex values
/// only, no host quantities — byte-identical across thread counts and
/// hosts.
pub(crate) fn render_explore_json(r: &crate::explore::ExploreReport) -> String {
    let mut j = String::with_capacity(2048);
    j.push_str("{\n");
    let _ = writeln!(j, "  \"schema\": \"rtk-farm-explore-v1\",");
    let _ = writeln!(j, "  \"family\": \"{}\",", r.family);
    let _ = writeln!(j, "  \"por\": {},", r.por);
    let _ = writeln!(j, "  \"adversarial\": {},", r.adversarial);
    let _ = writeln!(j, "  \"faults\": {},", r.faults);
    let _ = writeln!(j, "  \"depth_limit\": {},", r.depth_limit);
    let _ = writeln!(j, "  \"max_states\": {},", r.max_states);
    let _ = writeln!(j, "  \"horizon\": {},", r.horizon);
    let _ = writeln!(j, "  \"states\": {},", r.states);
    let _ = writeln!(j, "  \"transitions\": {},", r.transitions);
    let _ = writeln!(j, "  \"deduped\": {},", r.deduped);
    let _ = writeln!(j, "  \"collapsed\": {},", r.collapsed);
    let _ = writeln!(j, "  \"max_depth\": {},", r.max_depth);
    let _ = writeln!(j, "  \"truncated\": {},", r.truncated);
    let _ = writeln!(j, "  \"preemptions\": {},", r.preemptions);
    let _ = writeln!(j, "  \"deadlocks\": {},", r.deadlocks);
    let _ = writeln!(j, "  \"invariant_violations\": {},", r.invariant_violations);
    let _ = writeln!(j, "  \"spec_errors\": {},", r.spec_errors);
    let _ = writeln!(j, "  \"state_hash\": \"{:016x}\",", r.state_hash);
    let _ = writeln!(j, "  \"certificate\": \"{}\",", r.certificate);
    match &r.certificate_contradiction {
        Some(why) => {
            let _ = writeln!(
                j,
                "  \"certificate_contradiction\": \"{}\",",
                json_escape(why)
            );
        }
        None => {
            let _ = writeln!(j, "  \"certificate_contradiction\": null,");
        }
    }
    let _ = writeln!(
        j,
        "  \"cross_execution\": \"{}\",",
        json_escape(&r.cross_execution)
    );
    j.push_str("  \"violations\": [");
    for (i, v) in r.violations.iter().enumerate() {
        if i > 0 {
            j.push_str(", ");
        }
        let _ = write!(
            j,
            "{{\"kind\": \"{}\", \"tick\": {}, \"state\": \"{:016x}\", \"trace\": \"{}\", \"why\": \"{}\"}}",
            v.kind,
            v.tick,
            v.state_hash,
            v.trace,
            json_escape(&v.detail)
        );
    }
    j.push_str("]\n}\n");
    j
}

/// Writes the `"deadlock"` and `"schedulable"` lines of an `analysis`
/// block: how many records each verdict certified, refuted or left
/// unknown. `verdicts` reads a record's `[deadlock, schedulable]`. The
/// campaign and the replay report share it.
pub(crate) fn write_verdict_counts<T>(
    j: &mut String,
    records: &[T],
    verdicts: fn(&T) -> [Verdict; 2],
) {
    for (k, name) in ["deadlock", "schedulable"].into_iter().enumerate() {
        let count = |v| records.iter().filter(|r| verdicts(r)[k] == v).count();
        let _ = writeln!(
            j,
            "    \"{name}\": {{\"certified\": {}, \"refuted\": {}, \"unknown\": {}}},",
            count(Verdict::Certified),
            count(Verdict::Refuted),
            count(Verdict::Unknown)
        );
    }
}

/// Writes one `Summary` as a nested JSON object (integer fields only).
/// Always followed by another field (the `failures` array closes the
/// document), hence the unconditional trailing comma.
fn write_summary(j: &mut String, name: &str, s: &Summary) {
    let _ = writeln!(
        j,
        "  \"{name}\": {{\"count\": {}, \"min\": {}, \"mean\": {}, \"p50\": {}, \"p90\": {}, \"p99\": {}, \"max\": {}}},",
        s.count,
        s.min,
        s.mean(),
        s.p50,
        s.p90,
        s.p99,
        s.max
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::run_campaign;
    use crate::scenario::Tuning;

    fn small_campaign(threads: usize) -> CampaignReport {
        let cfg = CampaignConfig {
            base_seed: 7,
            seeds: 5,
            threads,
            tuning: Tuning {
                quick: true,
                faults: true,
            },
            oracle: true,
            topology: None,
            trace: None,
            analyze: false,
        };
        let outcomes = run_campaign(&cfg);
        CampaignReport::new(cfg, outcomes)
    }

    #[test]
    fn analyze_block_appears_without_touching_the_digest() {
        let mk = |analyze: bool| {
            let cfg = CampaignConfig {
                base_seed: 7,
                seeds: 6,
                threads: 2,
                tuning: Tuning {
                    quick: true,
                    faults: true,
                },
                oracle: false,
                topology: None,
                trace: None,
                analyze,
            };
            let outcomes = run_campaign(&cfg);
            CampaignReport::new(cfg, outcomes)
        };
        let plain = mk(false);
        let analyzed = mk(true);
        assert_eq!(plain.digest(), analyzed.digest());
        assert!(!plain.to_json().contains("\"analysis\""));
        let j = analyzed.to_json();
        assert!(j.contains("\"analysis\""));
        assert!(j.contains("\"verdicts\""));
        assert!(j.contains("\"contradictions\": []"), "{j}");
        assert!(analyzed.contradictions().is_empty());
        assert_eq!(analyzed.analysis_records().len(), 6);
    }

    #[test]
    fn json_is_byte_identical_across_thread_counts() {
        let a = small_campaign(1).to_json();
        let b = small_campaign(3).to_json();
        assert_eq!(a, b);
    }

    #[test]
    fn json_has_expected_fields() {
        let j = small_campaign(2).to_json();
        for field in [
            "\"schema\": \"rtk-farm-bench-v1\"",
            "\"campaign_digest\"",
            "\"latency_us\"",
            "\"dispatches\"",
            "\"energy_nj\"",
            "\"failures\"",
        ] {
            assert!(j.contains(field), "missing {field} in:\n{j}");
        }
        // Exactly one top-level JSON object, no trailing comma issues:
        // crude but effective given the fixed writer.
        assert!(j.starts_with("{\n"));
        assert!(j.ends_with("]\n}\n"));
    }

    #[test]
    fn empty_campaign_report_is_valid_and_healthy() {
        // `--seeds 0`: no scenarios, but the report must still be a
        // well-formed document with all-zero aggregates (the CLI path
        // exits 0 on it).
        let cfg = CampaignConfig {
            seeds: 0,
            ..CampaignConfig::default()
        };
        let r = CampaignReport::new(cfg, Vec::new());
        assert!(r.all_healthy());
        assert!(r.failures().is_empty());
        let agg = r.aggregate();
        assert_eq!(agg.completions, 0);
        assert_eq!(agg.latency_us.count, 0);
        let j = r.to_json();
        assert!(j.contains("\"scenarios\": 0"));
        assert!(j.contains("\"oracle_divergences\": []"));
        assert!(j.starts_with("{\n") && j.ends_with("]\n}\n"));
    }

    #[test]
    fn timed_json_adds_wall_fields_without_touching_the_digest() {
        let r = small_campaign(2);
        let timed = r.to_json_timed(2500);
        assert!(timed.contains("\"wall_clock_ms\": 2500"));
        assert!(timed.contains("\"scenarios_per_sec\": 2")); // 5 * 1000 / 2500
        let plain = r.to_json();
        assert!(!plain.contains("wall_clock_ms"));
        // Identical digest line in both renderings.
        let digest_line = |j: &str| {
            j.lines()
                .find(|l| l.contains("campaign_digest"))
                .unwrap()
                .to_string()
        };
        assert_eq!(digest_line(&timed), digest_line(&plain));
    }

    #[test]
    fn aggregate_counts_add_up() {
        let r = small_campaign(2);
        let agg = r.aggregate();
        assert_eq!(
            agg.latency_us.count,
            r.outcomes
                .iter()
                .map(|o| o.latencies_us.len() as u64)
                .sum::<u64>()
        );
        assert_eq!(agg.dispatches.count, r.outcomes.len() as u64);
        assert!(agg.completions > 0);
    }
}
