//! Static analyzer properties the campaign relies on:
//!
//! 1. **Determinism** — analysis records (verdicts, bounds, rendered
//!    summaries) are byte-identical across worker-thread counts, like
//!    everything else digest-adjacent.
//! 2. **Mutation sensitivity** — deleting an analysis term (blocking,
//!    interference) must flip a pinned verdict AND get convicted by the
//!    dynamic cross-check. This is the evidence that the analyzer's
//!    certificates are falsifiable rather than vacuously agreeable: a
//!    weakened analyzer certifies scenarios the kernel then visibly
//!    breaks, and `--analyze` turns that into a campaign failure.
//!
//! The pinned seeds were found by scanning `quick`+faults seeds for
//! verdict flips; they are regression anchors, so a generator change
//! that re-maps seeds should re-pin them (see docs/STATIC_ANALYSIS.md).

use rtk_analysis::static_verify::{AnalysisOptions, Verdict};
use rtk_farm::{
    analyze_spec, run_campaign, run_scenario, verify_outcome, CampaignConfig, CampaignReport,
    RunPlan, ScenarioSpec, Tuning,
};

fn quick() -> Tuning {
    Tuning {
        quick: true,
        faults: true,
    }
}

/// Analyzer verdicts and contradiction records are a pure function of
/// the seed: campaigns on 1 worker and on 4 must produce identical
/// analysis records and byte-identical report JSON (the analysis block
/// included).
#[test]
fn analysis_records_are_thread_count_invariant() {
    let cfg = |threads| CampaignConfig {
        base_seed: 40,
        seeds: 12,
        threads,
        tuning: quick(),
        oracle: false,
        topology: None,
        trace: None,
        analyze: true,
    };
    let reports: Vec<CampaignReport> = [cfg(1), cfg(4)]
        .into_iter()
        .map(|c| CampaignReport::new(c.clone(), run_campaign(&c)))
        .collect();

    let baseline_records = reports[0].analysis_records();
    assert_eq!(baseline_records.len(), 12);
    assert_eq!(reports[1].analysis_records(), baseline_records);
    assert_eq!(reports[1].to_json(), reports[0].to_json());
    // And the healthy analyzer survives its own cross-check.
    for rec in baseline_records {
        assert!(
            rec.consistent(),
            "seed {}: {:?}",
            rec.seed,
            rec.contradictions
        );
    }
}

/// Runs one pinned mutation-sensitivity case: the healthy analyzer
/// refutes the seed, the mutated one certifies it, and the dynamic run
/// convicts the mutant while leaving the healthy verdict consistent.
fn assert_mutant_convicted(seed: u64, mutate: fn(&mut AnalysisOptions), expect: &str) {
    let spec = ScenarioSpec::generate(seed, &quick());
    let healthy = analyze_spec(&spec, &AnalysisOptions::default());
    assert_eq!(
        healthy.schedulable,
        Verdict::Refuted,
        "seed {seed} must be refuted by the full analysis: {}",
        healthy.summary()
    );

    let mut opts = AnalysisOptions::default();
    mutate(&mut opts);
    let mutated = analyze_spec(&spec, &opts);
    assert_eq!(
        mutated.schedulable,
        Verdict::Certified,
        "the mutation must flip seed {seed} to certified: {}",
        mutated.summary()
    );

    let plan = RunPlan {
        analyze: true,
        ..RunPlan::default()
    };
    let (out, _) = run_scenario(&spec, &plan);
    let healthy_rec = verify_outcome(&spec, &healthy, &out);
    assert!(
        healthy_rec.consistent(),
        "healthy verdict must survive dynamics: {:?}",
        healthy_rec.contradictions
    );
    let mutated_rec = verify_outcome(&spec, &mutated, &out);
    assert!(
        !mutated_rec.consistent(),
        "the mutant's certificate must be dynamically convicted (seed {seed})"
    );
    assert!(
        mutated_rec
            .contradictions
            .iter()
            .any(|c| c.contains(expect)),
        "expected a contradiction mentioning {expect:?}, got {:?}",
        mutated_rec.contradictions
    );
}

/// Mutation 1: drop the preemption/interference term from the RTA
/// recurrence. Pinned seed 94 (flag_barrier) then certifies — and the
/// kernel observably misses post-warmup deadlines.
#[test]
fn dropping_interference_term_is_dynamically_convicted() {
    assert_mutant_convicted(94, |o| o.ignore_interference = true, "deadline miss");
}

/// Mutation 2: zero all blocking bounds. Pinned seed 70 (sem_chain)
/// then certifies — and the kernel observably misses post-warmup
/// deadlines under the real semaphore inversion window.
#[test]
fn dropping_blocking_term_is_dynamically_convicted() {
    assert_mutant_convicted(70, |o| o.ignore_blocking = true, "deadline miss");
}
