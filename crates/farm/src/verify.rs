//! Static/dynamic cross-validation: the `--analyze` pre-pass and its
//! contradiction rule.
//!
//! For every scenario the farm can run the static analyzer over the
//! declarative model ([`crate::model::static_model`] →
//! [`rtk_analysis::static_verify::analyze`]) *before* simulating, and
//! then hold the two accountable to each other:
//!
//! * a scenario **certified deadlock-free** must not wedge dynamically
//!   (stall or abnormal engine outcome without a panic);
//! * a scenario **certified schedulable** must not miss a post-warmup
//!   deadline, and no task may exceed its certified response bound;
//! * the observed stream must **conform** to the declared lock model
//!   (no undeclared mutexes, orders, or re-acquisitions).
//!
//! Any of these is a *contradiction* — evidence that the analyzer, the
//! model, or the kernel is wrong — and fails the campaign. The reverse
//! direction deliberately is not checked: `Refuted`/`Unknown` are
//! conservative analysis outcomes, so a refuted scenario behaving well
//! dynamically is expected, not contradictory. See
//! `docs/STATIC_ANALYSIS.md` for the full semantics.

use rtk_analysis::static_verify::{analyze, AnalysisOptions, AnalysisResult, Verdict};

use crate::build::ScenarioOutcome;
use crate::model::static_model;
use crate::scenario::ScenarioSpec;

/// Per-scenario static verdicts plus any static/dynamic
/// contradictions. Everything in here is a pure function of the spec
/// and the (digest-stable) outcome, so records are byte-identical
/// across worker-thread counts, process runtimes and hosts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AnalysisRecord {
    /// The seed that named the scenario.
    pub seed: u64,
    /// Static deadlock verdict.
    pub deadlock: Verdict,
    /// Static schedulability verdict.
    pub schedulable: Verdict,
    /// RM utilization of the modelled task set, parts-per-million.
    pub utilization_ppm: u64,
    /// One-line deterministic account of the analysis.
    pub summary: String,
    /// Certified response-time bound per measured task (µs), in task
    /// order; `None` when the recurrence did not certify the task.
    pub response_us: Vec<Option<u64>>,
    /// Static/dynamic contradictions (empty = consistent).
    pub contradictions: Vec<String>,
}

impl AnalysisRecord {
    /// `true` when the static and dynamic views agree.
    pub fn consistent(&self) -> bool {
        self.contradictions.is_empty()
    }
}

/// Runs the static analyzer over a scenario's declarative model.
pub fn analyze_spec(spec: &ScenarioSpec, opts: &AnalysisOptions) -> AnalysisResult {
    analyze(&static_model(spec), opts)
}

/// Cross-checks an exhaustive exploration against the `rtk-verify`
/// deadlock certificate (`analysis`, see [`analyze_spec`]) of the
/// explored family's kernel-executable twin `spec`. A twin certified
/// deadlock-free whose schedule tree still contains a reachable
/// deadlock state is a contradiction: the certificate, the spec, or the
/// explorer's model of the topology is wrong, and the explore run
/// fails. The reverse (refuted/unknown but no deadlock found) is
/// conservative analysis, not a contradiction.
pub fn explore_certificate_contradiction(
    spec: &ScenarioSpec,
    analysis: &AnalysisResult,
    deadlocks: u64,
) -> Option<String> {
    (deadlocks > 0 && analysis.deadlock == Verdict::Certified).then(|| {
        format!(
            "rtk-verify certifies the twin (seed {}) deadlock-free, \
             but exploration reached {deadlocks} deadlock state(s)",
            spec.seed
        )
    })
}

/// Cross-validates one scenario's static analysis against its dynamic
/// outcome; returns the combined record.
pub fn verify_outcome(
    spec: &ScenarioSpec,
    analysis: &AnalysisResult,
    out: &ScenarioOutcome,
) -> AnalysisRecord {
    let mut contradictions = Vec::new();

    // A panic is its own (already campaign-failing) finding; the
    // wreckage of a half-run scenario proves nothing about verdicts.
    let clean = out.panicked.is_none();

    if clean && analysis.deadlock == Verdict::Certified {
        let wedged = out.stalled || out.engine_outcome != "limit";
        if wedged {
            contradictions.push(format!(
                "certified deadlock-free but dynamically wedged \
                 (engine={}, stalled={})",
                out.engine_outcome, out.stalled
            ));
        }
    }

    if clean && analysis.schedulable == Verdict::Certified {
        if out.post_warmup_misses > 0 {
            contradictions.push(format!(
                "certified schedulable but {} post-warmup deadline miss(es) observed",
                out.post_warmup_misses
            ));
        }
        // Per-task response bounds vs observed post-warmup maxima.
        // `max_latency_by_task` is indexed like `spec.tasks`, and the
        // model lists the measured tasks first in the same order.
        let measured = analysis.tasks.iter().filter(|t| t.measured);
        for (i, ta) in measured.enumerate() {
            let observed = out.max_latency_by_task.get(i).copied().unwrap_or(0);
            if let Some(bound) = ta.response_us {
                if observed > bound {
                    contradictions.push(format!(
                        "task {} observed {}us response, above certified bound {}us",
                        ta.name, observed, bound
                    ));
                }
            }
        }
    }

    if out.conformance_violations > 0 {
        let first = out
            .conformance_details
            .first()
            .map(String::as_str)
            .unwrap_or("");
        contradictions.push(format!(
            "{} lock-model conformance violation(s), first: {first}",
            out.conformance_violations
        ));
    }

    AnalysisRecord {
        seed: spec.seed,
        deadlock: analysis.deadlock,
        schedulable: analysis.schedulable,
        utilization_ppm: analysis.utilization_ppm,
        summary: analysis.summary(),
        response_us: analysis
            .tasks
            .iter()
            .filter(|t| t.measured)
            .map(|t| t.response_us)
            .collect(),
        contradictions,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::{run_scenario, RunPlan};
    use crate::scenario::Tuning;

    fn quick(faults: bool) -> Tuning {
        Tuning {
            quick: true,
            faults,
        }
    }

    #[test]
    fn healthy_scan_is_contradiction_free() {
        // A slice of the campaign: static verdicts must survive the
        // dynamic cross-check on every seed (the CI job scans more).
        for seed in 0..24 {
            let spec = ScenarioSpec::generate(seed, &quick(true));
            let analysis = analyze_spec(&spec, &AnalysisOptions::default());
            let plan = RunPlan {
                analyze: true,
                ..RunPlan::default()
            };
            let (out, _) = run_scenario(&spec, &plan);
            let rec = verify_outcome(&spec, &analysis, &out);
            assert!(
                rec.consistent(),
                "seed {seed} ({}): {:?}\n{}",
                spec.topology.label(),
                rec.contradictions,
                rec.summary
            );
        }
    }

    #[test]
    fn wedged_run_contradicts_deadlock_certificate() {
        let spec = ScenarioSpec::generate(0, &quick(false));
        let analysis = analyze_spec(&spec, &AnalysisOptions::default());
        assert_eq!(analysis.deadlock, Verdict::Certified);
        let out = ScenarioOutcome {
            seed: spec.seed,
            engine_outcome: "starved",
            stalled: true,
            ..ScenarioOutcome::default()
        };
        let rec = verify_outcome(&spec, &analysis, &out);
        assert!(!rec.consistent());
        assert!(rec.contradictions[0].contains("wedged"));
    }

    #[test]
    fn observed_miss_contradicts_schedulable_certificate() {
        // Find a seed whose scenario certifies schedulable, then forge
        // a post-warmup miss into its outcome.
        let (spec, analysis) = (0..500)
            .map(|seed| {
                let spec = ScenarioSpec::generate(seed, &quick(false));
                let analysis = analyze_spec(&spec, &AnalysisOptions::default());
                (spec, analysis)
            })
            .find(|(_, a)| a.schedulable == Verdict::Certified)
            .expect("some seed certifies");
        let out = ScenarioOutcome {
            seed: spec.seed,
            engine_outcome: "limit",
            post_warmup_misses: 3,
            ..ScenarioOutcome::default()
        };
        let rec = verify_outcome(&spec, &analysis, &out);
        assert!(!rec.consistent());
        assert!(rec.contradictions[0].contains("deadline miss"));
    }

    #[test]
    fn conformance_violations_always_contradict() {
        let spec = ScenarioSpec::generate(1, &quick(false));
        let analysis = analyze_spec(&spec, &AnalysisOptions::default());
        let out = ScenarioOutcome {
            seed: spec.seed,
            engine_outcome: "limit",
            conformance_violations: 2,
            conformance_details: vec!["tsk1 took undeclared lock order a -> b".into()],
            ..ScenarioOutcome::default()
        };
        let rec = verify_outcome(&spec, &analysis, &out);
        assert!(!rec.consistent());
        assert!(rec.contradictions[0].contains("conformance"));
    }
}
