//! Offline trace replay: re-run the differential oracle from `.rtkt`
//! trace files alone (`rtk-farm --replay`), without re-executing a
//! single kernel.
//!
//! A trace captured with `--trace-dir` records every kernel decision
//! (see `docs/TRACE_FORMAT.md`); replaying it through the same
//! incremental [`Checker`] the live campaign uses reproduces the exact
//! oracle verdict — including the first-divergence event index — so a
//! divergence can be triaged (or bisected against a changed spec) from
//! the artifact alone.

use std::path::{Path, PathBuf};

use rtk_analysis::json_escape;
use rtk_analysis::oracle_report::{divergences_json, DivergenceRecord};
use rtk_analysis::static_verify::{AnalysisOptions, Conformance, Verdict};
use rtk_analysis::trace_codec::{read_trace, CodecError, DecodedTrace, TraceHeader};
use rtk_core::{StampedEvent, StreamClose, StreamSink};

use crate::model::static_model;
use crate::oracle::{Checker, OracleVerdict};
use crate::report::write_verdict_counts;
use crate::scenario::{ScenarioSpec, Tuning};
use crate::verify::analyze_spec;

/// One replayed trace file: provenance, the decoded stream, and the
/// oracle's verdict over it.
#[derive(Debug)]
pub struct ReplayedTrace {
    /// Where the trace was read from.
    pub path: PathBuf,
    /// The trace header (seed, topology, runtime, versions).
    pub header: TraceHeader,
    /// The decoded event stream (kept for exporters).
    pub events: Vec<StampedEvent>,
    /// `true` when the file carried a trailer (the writer closed the
    /// stream; a missing trailer means it died mid-write).
    pub complete: bool,
    /// `true` when the trailer says the run ended cleanly (not by
    /// panic) — only then do end-of-stream oracle invariants apply.
    pub clean: bool,
    /// Events the writer dropped (bounded capture).
    pub dropped: u64,
    /// The oracle verdict, matching what the live run would report.
    pub verdict: OracleVerdict,
}

/// Replays one decoded trace through the oracle.
///
/// The end-of-stream invariant (every mandated wakeup observed) is
/// applied only to complete, clean, drop-free traces: an aborted run
/// legitimately stops mid-operation, and a capped or truncated capture
/// is missing the tail — exactly as the live campaign ignores the
/// verdict of panicked runs.
pub fn replay_decoded(path: PathBuf, decoded: DecodedTrace) -> ReplayedTrace {
    let complete = decoded.complete();
    let (clean, dropped) = match decoded.trailer {
        Some(t) => (t.close == StreamClose::Clean, t.dropped),
        None => (false, 0),
    };
    let mut checker = Checker::new();
    checker.batch(&decoded.events);
    let check_end = complete && clean && dropped == 0 && decoded.skipped == 0;
    ReplayedTrace {
        path,
        header: decoded.header,
        events: decoded.events,
        complete,
        clean,
        dropped,
        verdict: checker.verdict(check_end),
    }
}

/// Replays one `.rtkt` file.
pub fn replay_trace(path: &Path) -> Result<ReplayedTrace, CodecError> {
    Ok(replay_decoded(path.to_path_buf(), read_trace(path)?))
}

/// Replays a trace file, or every `*.rtkt` file in a directory. The
/// result is sorted by recorded seed, so directory iteration order
/// (host-dependent) never shows through.
pub fn replay_path(path: &Path) -> Result<Vec<ReplayedTrace>, CodecError> {
    let mut traces = Vec::new();
    if path.is_dir() {
        let mut files: Vec<PathBuf> = std::fs::read_dir(path)
            .map_err(CodecError::Io)?
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| p.extension().is_some_and(|x| x == "rtkt"))
            .collect();
        files.sort();
        for file in files {
            traces.push(replay_trace(&file)?);
        }
    } else {
        traces.push(replay_trace(path)?);
    }
    traces.sort_by_key(|t| t.header.seed);
    Ok(traces)
}

/// Static verdicts recomputed from a trace file alone (`rtk-farm
/// --replay DIR --analyze`): the header's seed + tuning regenerate the
/// scenario spec, the analyzer re-derives its verdicts from the
/// declarative model, and the decoded stream is checked against the
/// declared lock model. Timing cross-checks (response bounds, deadline
/// misses) need live measurements that traces do not carry, so they
/// remain live-campaign-only — see `docs/STATIC_ANALYSIS.md`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplayedAnalysis {
    /// The seed recorded in the trace header.
    pub seed: u64,
    /// Static deadlock verdict.
    pub deadlock: Verdict,
    /// Static schedulability verdict.
    pub schedulable: Verdict,
    /// RM utilization of the modelled task set, parts-per-million.
    pub utilization_ppm: u64,
    /// One-line deterministic account of the analysis.
    pub summary: String,
    /// Lock-model conformance violations committed by the decoded
    /// stream (event-driven, so valid for truncated captures too).
    pub conformance_violations: u64,
    /// Rendered accounts of the first conformance violations.
    pub conformance_details: Vec<String>,
}

impl ReplayedAnalysis {
    /// `true` when the replayed stream contradicts the static model.
    pub fn consistent(&self) -> bool {
        self.conformance_violations == 0
    }
}

/// Recomputes the static analysis for one replayed trace.
///
/// Fails when the header carries no tuning record (traces captured
/// before the analyzer existed): the tuning changes the generator's
/// draw sequence, so without it the spec cannot be regenerated. Also
/// fails when the regenerated topology does not match the recorded
/// one — a header/generator version skew that would silently analyze
/// the wrong scenario.
pub fn replay_analysis(t: &ReplayedTrace) -> Result<ReplayedAnalysis, String> {
    let Some(tuning) = t.header.tuning else {
        return Err(format!(
            "{}: header carries no tuning record; re-capture with a \
             current rtk-farm --trace-dir to analyze offline",
            t.path.display()
        ));
    };
    let spec = ScenarioSpec::generate(
        t.header.seed,
        &Tuning {
            quick: tuning.quick,
            faults: tuning.faults,
        },
    );
    if spec.topology.label() != t.header.topology {
        return Err(format!(
            "{}: regenerated topology {:?} does not match recorded {:?} \
             (generator/header version skew)",
            t.path.display(),
            spec.topology.label(),
            t.header.topology
        ));
    }
    let analysis = analyze_spec(&spec, &AnalysisOptions::default());
    let mut conformance = Conformance::from_model(&static_model(&spec));
    conformance.batch(&t.events);
    Ok(ReplayedAnalysis {
        seed: t.header.seed,
        deadlock: analysis.deadlock,
        schedulable: analysis.schedulable,
        utilization_ppm: analysis.utilization_ppm,
        summary: analysis.summary(),
        conformance_violations: conformance.violation_count(),
        conformance_details: conformance.violations().to_vec(),
    })
}

/// Renders the replay report (`rtk-farm-replay-v1`). The oracle fields
/// mirror the live campaign report's (`oracle_events`, the
/// `oracle_divergences` array), so a replay can be diffed against the
/// live run's verdicts field-for-field. With `analyses` (`--analyze`
/// recomputed the static verdicts) the report also carries an
/// `analysis` block mirroring the live campaign report's.
pub fn replay_report_json_analyzed(
    traces: &[ReplayedTrace],
    analyses: Option<&[ReplayedAnalysis]>,
) -> String {
    use std::fmt::Write as _;
    let mut j = String::with_capacity(1024);
    let divergences: Vec<DivergenceRecord> = traces
        .iter()
        .filter_map(|t| {
            t.verdict.divergence.as_ref().map(|d| DivergenceRecord {
                seed: t.header.seed,
                event_index: d.index as u64,
                detail: d.to_string(),
            })
        })
        .collect();
    j.push_str("{\n");
    let _ = writeln!(j, "  \"schema\": \"rtk-farm-replay-v1\",");
    let _ = writeln!(j, "  \"traces\": {},", traces.len());
    let _ = writeln!(
        j,
        "  \"incomplete\": {},",
        traces.iter().filter(|t| !t.complete).count()
    );
    let _ = writeln!(
        j,
        "  \"aborted\": {},",
        traces.iter().filter(|t| t.complete && !t.clean).count()
    );
    let _ = writeln!(
        j,
        "  \"obs_dropped\": {},",
        traces.iter().map(|t| t.dropped).sum::<u64>()
    );
    let _ = writeln!(
        j,
        "  \"oracle_events\": {},",
        traces.iter().map(|t| t.verdict.events_checked).sum::<u64>()
    );
    let _ = writeln!(
        j,
        "  \"oracle_divergences\": {},",
        divergences_json(&divergences)
    );
    if let Some(analyses) = analyses {
        j.push_str("  \"analysis\": {\n");
        write_verdict_counts(&mut j, analyses, |a| [a.deadlock, a.schedulable]);
        let _ = writeln!(
            j,
            "    \"conformance_violations\": {},",
            analyses
                .iter()
                .map(|a| a.conformance_violations)
                .sum::<u64>()
        );
        j.push_str("    \"verdicts\": [");
        for (i, a) in analyses.iter().enumerate() {
            if i > 0 {
                j.push_str(", ");
            }
            let _ = write!(
                j,
                "{{\"seed\": {}, \"deadlock\": \"{}\", \"schedulable\": \"{}\", \
                 \"util_ppm\": {}, \"conformance_violations\": {}}}",
                a.seed, a.deadlock, a.schedulable, a.utilization_ppm, a.conformance_violations,
            );
        }
        j.push_str("]\n  },\n");
    }
    j.push_str("  \"seeds\": [");
    for (i, t) in traces.iter().enumerate() {
        if i > 0 {
            j.push_str(", ");
        }
        let _ = write!(
            j,
            "{{\"seed\": {}, \"topology\": \"{}\", \"events\": {}, \"diverged\": {}}}",
            t.header.seed,
            json_escape(&t.header.topology),
            t.verdict.events_checked,
            t.verdict.divergence.is_some(),
        );
    }
    j.push_str("]\n}\n");
    j
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::{run_scenario, run_scenario_traced, RunPlan, ScenarioOutcome, TraceConfig};
    use crate::runner::{run_campaign, CampaignConfig};
    use crate::scenario::{ScenarioSpec, Tuning};
    use rtk_analysis::trace_codec::TraceTuning;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("rtk_replay_{tag}_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// Captures `seeds` quick seeds from `base_seed` into `dir` on two
    /// workers.
    fn capture(
        dir: &Path,
        base_seed: u64,
        seeds: u64,
        oracle: bool,
        tuning: Option<TraceTuning>,
    ) -> Vec<ScenarioOutcome> {
        run_campaign(&CampaignConfig {
            base_seed,
            seeds,
            threads: 2,
            tuning: Tuning {
                quick: true,
                faults: true,
            },
            oracle,
            trace: Some(TraceConfig {
                dir: dir.to_path_buf(),
                cap: 0,
                tuning,
            }),
            ..CampaignConfig::default()
        })
    }

    #[test]
    fn replay_matches_live_verdict_for_clean_seeds() {
        let dir = tmp_dir("clean");
        let live = capture(&dir, 300, 8, true, None);
        let replayed = replay_path(&dir).unwrap();
        assert_eq!(replayed.len(), live.len());
        for (r, l) in replayed.iter().zip(&live) {
            assert_eq!(r.header.seed, l.seed);
            assert!(r.complete && r.clean, "seed {}", l.seed);
            assert_eq!(r.verdict.events_checked, l.oracle_events, "seed {}", l.seed);
            assert_eq!(
                r.verdict.divergence.as_ref().map(|d| d.index as u64),
                l.divergence.as_ref().map(|(i, _)| *i),
                "seed {}",
                l.seed
            );
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn traced_run_has_same_outcome_as_untraced() {
        let dir = tmp_dir("digest");
        let tuning = Tuning {
            quick: true,
            faults: true,
        };
        let spec = ScenarioSpec::generate(42, &tuning);
        let tc = TraceConfig {
            dir: dir.clone(),
            cap: 0,
            tuning: None,
        };
        let plan = RunPlan {
            oracle: true,
            ..RunPlan::default()
        };
        let (plain, _) = run_scenario(&spec, &plan);
        let traced = run_scenario_traced(&spec, true, sysc::Runtime::default(), &tc);
        assert_eq!(plain.digest(), traced.digest());
        assert!(replay_trace(&tc.path(42)).unwrap().complete);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn replay_analysis_matches_live_verdicts() {
        let dir = tmp_dir("analyze");
        let tuning = Tuning {
            quick: true,
            faults: true,
        };
        let recorded = TraceTuning {
            quick: true,
            faults: true,
        };
        capture(&dir, 400, 8, false, Some(recorded));
        let traces = replay_path(&dir).unwrap();
        assert_eq!(traces.len(), 8);
        let mut recs = Vec::new();
        for t in &traces {
            let rec = replay_analysis(t).unwrap();
            // Offline verdicts are byte-identical to what the live
            // campaign's analyzer derives for the same seed.
            let spec = ScenarioSpec::generate(t.header.seed, &tuning);
            let live = analyze_spec(&spec, &AnalysisOptions::default());
            assert_eq!(rec.deadlock, live.deadlock, "seed {}", t.header.seed);
            assert_eq!(rec.schedulable, live.schedulable, "seed {}", t.header.seed);
            assert_eq!(rec.summary, live.summary(), "seed {}", t.header.seed);
            // A healthy capture conforms to its declared lock model.
            assert!(
                rec.consistent(),
                "seed {}: {:?}",
                t.header.seed,
                rec.conformance_details
            );
            recs.push(rec);
        }
        let j = replay_report_json_analyzed(&traces, Some(&recs));
        assert!(j.contains("\"analysis\": {"));
        assert!(j.contains("\"conformance_violations\": 0"));

        // A header without a tuning record cannot be re-analyzed: the
        // tuning changes the generator's draw sequence.
        let mut stripped = traces.into_iter().next().unwrap();
        stripped.header.tuning = None;
        let err = replay_analysis(&stripped).unwrap_err();
        assert!(err.contains("tuning"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn replay_report_shape() {
        let dir = tmp_dir("report");
        let tuning = Tuning {
            quick: true,
            faults: false,
        };
        let tc = TraceConfig {
            dir: dir.clone(),
            cap: 0,
            tuning: None,
        };
        let spec = ScenarioSpec::generate(5, &tuning);
        run_scenario_traced(&spec, true, sysc::Runtime::default(), &tc);
        let traces = replay_path(&dir).unwrap();
        let j = replay_report_json_analyzed(&traces, None);
        assert!(j.contains("\"schema\": \"rtk-farm-replay-v1\""));
        assert!(j.contains("\"traces\": 1"));
        assert!(j.contains("\"incomplete\": 0"));
        assert!(j.contains("\"oracle_divergences\": []"));
        std::fs::remove_dir_all(&dir).ok();
    }
}
