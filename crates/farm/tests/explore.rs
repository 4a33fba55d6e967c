//! Properties of the `--explore` bounded model checker:
//!
//! 1. **Termination + determinism** — every healthy family's schedule
//!    tree is finite under the default bounds and two runs produce
//!    byte-identical reports.
//! 2. **POR soundness with teeth** — partial-order reduction must
//!    visit *strictly fewer* states while reaching identical verdicts
//!    (the reduction prunes orders, never outcomes).
//! 3. **Mutation sensitivity beyond the random hunt** — two spec
//!    mutations that thousands of random-seed campaign replays cannot
//!    distinguish from the healthy spec are convicted by exhaustive
//!    exploration, and the conviction is distilled into a concrete
//!    `.rtkt` counterexample that replays and convicts offline too.
//! 4. **Deadlock reachability** — the demonstration family's deadlock
//!    is found, counterexampled, replayable and exportable.
//!
//! See `docs/EXPLORATION.md` for the semantics these tests pin.

use rtk_farm::{
    replay_trace, run_exploration, run_scenario, write_counterexamples, Checker, ExploreConfig,
    ExploreOutcome, Family, RunPlan, ScenarioSpec, SpecMutation, SpecState, Tuning,
};
use std::collections::BTreeSet;
use std::path::PathBuf;
use sysc::Runtime;

fn cfg(family: Family) -> ExploreConfig {
    ExploreConfig {
        family,
        ..ExploreConfig::default()
    }
}

fn explore(c: &ExploreConfig) -> ExploreOutcome {
    run_exploration(c, Runtime::default())
}

fn tmp_dir(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The healthy families terminate inside the default bounds without a
/// single violation, and the whole report is a pure function of the
/// config.
#[test]
fn healthy_families_terminate_clean_and_deterministic() {
    for family in [Family::Mtx, Family::Irq, Family::Chain] {
        let c = cfg(family);
        let a = explore(&c);
        let b = explore(&c);
        assert!(
            !a.report.truncated,
            "{family}: exploration must exhaust the tree within default bounds"
        );
        assert!(
            a.report.clean(),
            "{family}: healthy spec must explore clean, got {:?}",
            a.report.violations
        );
        assert!(a.report.states > 1, "{family}: trivial tree");
        assert!(a.report.transitions >= a.report.states - 1);
        assert_eq!(
            a.report.to_json(),
            b.report.to_json(),
            "{family}: explore report must be deterministic"
        );
    }
}

/// POR visits strictly fewer states than the unreduced walk, with
/// identical verdicts (violation kinds, deadlock presence, cleanness)
/// — with and without fault branch points.
#[test]
fn por_reduces_states_with_identical_verdicts() {
    let kinds = |o: &ExploreOutcome| -> BTreeSet<String> {
        o.report.violations.iter().map(|v| v.kind.clone()).collect()
    };
    for family in [Family::Mtx, Family::Irq, Family::Chain] {
        for faults in [true, false] {
            let on = explore(&ExploreConfig {
                family,
                faults,
                ..ExploreConfig::default()
            });
            let off = explore(&ExploreConfig {
                family,
                faults,
                por: false,
                ..ExploreConfig::default()
            });
            assert!(!on.report.truncated && !off.report.truncated);
            if family == Family::Chain {
                // Chain's staggered releases never produce a commuting
                // frontier: POR must then be a no-op, not a distortion.
                assert!(
                    on.report.states <= off.report.states,
                    "{family} (faults={faults}): POR enlarged the tree"
                );
            } else {
                // The acceptance-pinned 2-task families: coincident
                // independent release/arrival frontiers must collapse.
                assert!(
                    on.report.states < off.report.states,
                    "{family} (faults={faults}): POR-on must visit strictly fewer states \
                     ({} vs {})",
                    on.report.states,
                    off.report.states
                );
                assert!(on.report.collapsed > 0, "{family}: nothing collapsed");
            }
            assert_eq!(
                on.report.clean(),
                off.report.clean(),
                "{family} (faults={faults}): POR changed the verdict"
            );
            assert_eq!(
                on.report.deadlocks > 0,
                off.report.deadlocks > 0,
                "{family} (faults={faults}): POR changed deadlock reachability"
            );
            assert_eq!(
                kinds(&on),
                kinds(&off),
                "{family} (faults={faults}): POR changed the violation kinds"
            );
        }
    }
}

/// Replays every observed event stream of a random quick campaign
/// slice through a checker carrying `mutation`, asserting the mutant
/// stays indistinguishable from the healthy spec on random schedules.
fn assert_random_hunt_misses(mutation: SpecMutation, seeds: u64) {
    let tuning = Tuning {
        quick: true,
        faults: true,
    };
    for seed in 0..seeds {
        let spec = ScenarioSpec::generate(seed, &tuning);
        let plan = RunPlan {
            oracle: true,
            collect_events: true,
            ..RunPlan::default()
        };
        let (_, events) = run_scenario(&spec, &plan);
        let mut mutated = Checker::with_mutation(mutation);
        let mut healthy = Checker::new();
        for se in &events {
            mutated.push(&se.ev);
            healthy.push(&se.ev);
        }
        assert!(
            !healthy.diverged(),
            "seed {seed}: healthy checker must accept its own kernel stream"
        );
        assert!(
            !mutated.diverged(),
            "seed {seed}: the {mutation:?} mutant must survive random replays \
             (otherwise the random hunt would already catch it)"
        );
    }
}

/// Runs one mutation-sensitivity proof: exploration of `family` with
/// the mutated spec reports invariant violations (red), the healthy
/// exploration of the same family is clean (green, pinned by
/// `healthy_families_terminate_clean_and_deterministic`), and the
/// `.rtkt` counterexample convicts the mutant offline: replaying it
/// through the *mutated* spec reproduces the broken state (its
/// invariants fail), while the *healthy* spec either rejects the
/// stream outright (a mandated wakeup is missing) or traverses it
/// without ever entering a broken state.
fn assert_exploration_convicts(family: Family, mutation: SpecMutation, dir: &str) {
    let out = explore(&ExploreConfig {
        family,
        mutation: Some(mutation),
        ..ExploreConfig::default()
    });
    assert!(
        out.report.invariant_violations > 0,
        "{family}: exploration must convict {mutation:?}, report clean={}",
        out.report.clean()
    );
    assert!(
        !out.counterexamples.is_empty(),
        "{family}: conviction must come with a counterexample"
    );

    let dir = tmp_dir(dir);
    let written = write_counterexamples(&out, &dir).expect("write counterexamples");
    assert_eq!(
        written.len(),
        out.counterexamples.len().min(8),
        "one .rtkt per retained counterexample"
    );
    let replayed = replay_trace(&written[0]).expect("counterexample must decode");
    assert!(replayed.complete && replayed.clean);

    // Red: the mutant accepts its own counterexample stream and lands
    // in the state whose invariants the explorer flagged.
    let mut mutant = SpecState::with_mutation(mutation);
    for se in &replayed.events {
        mutant
            .apply(&se.ev)
            .expect("the mutant must accept its own counterexample stream");
    }
    assert!(
        !mutant.invariant_violations().is_empty(),
        "{family}: replaying the counterexample through the mutant must \
         reproduce the broken state"
    );

    // Green: the healthy spec never reaches a broken state on the same
    // stream — it either rejects an event (the stream omits a wakeup
    // the µ-ITRON rules mandate) or stays invariant-clean throughout.
    let mut healthy = SpecState::new();
    let mut rejected = false;
    for se in &replayed.events {
        if healthy.apply(&se.ev).is_err() {
            rejected = true;
            break;
        }
        assert!(
            healthy.invariant_violations().is_empty(),
            "{family}: the healthy spec reached a broken state on the \
             counterexample stream — the invariant, not the mutant, is wrong"
        );
    }
    let _ = rejected; // either outcome above is a valid green
}

/// Mutation 1: skip the post-timeout re-serve of semaphore waiters
/// (`SkipTimeoutReserve`). Random campaign streams never arm a
/// multi-count wait in front of banked counts, so the mutant survives
/// the hunt; the `irq` family's timeout tie convicts it exhaustively.
#[test]
fn skip_timeout_reserve_is_convicted_by_exploration_not_by_the_hunt() {
    assert_random_hunt_misses(SpecMutation::SkipTimeoutReserve, 48);
    assert_exploration_convicts(
        Family::Irq,
        SpecMutation::SkipTimeoutReserve,
        "explore-ce-irq",
    );
}

/// Mutation 2: compute priority inheritance from direct waiters only
/// (`DirectInheritanceOnly`). No random topology nests inheritance
/// mutexes, so the mutant survives the hunt; the `chain` family's
/// transitive T1→m1→T2→m2→T3 chain convicts it exhaustively.
#[test]
fn direct_inheritance_only_is_convicted_by_exploration_not_by_the_hunt() {
    assert_random_hunt_misses(SpecMutation::DirectInheritanceOnly, 48);
    assert_exploration_convicts(
        Family::Chain,
        SpecMutation::DirectInheritanceOnly,
        "explore-ce-chain",
    );
}

/// The deadlock demonstration family: every schedule wedges, the
/// explorer reports it, and the counterexample replays *clean* through
/// the healthy spec (the deadlock is real kernel behaviour, not a spec
/// divergence) and exports through the analysis export paths.
#[test]
fn deadlock_family_is_found_replayable_and_exportable() {
    let out = explore(&cfg(Family::Deadlock));
    assert!(out.report.deadlocks > 0, "the deadlock must be reachable");
    assert!(!out.report.clean());
    assert!(!out.counterexamples.is_empty());

    let dir = tmp_dir("explore-ce-deadlock");
    let written = write_counterexamples(&out, &dir).expect("write counterexamples");
    let replayed = replay_trace(&written[0]).expect("counterexample must decode");
    assert!(replayed.complete && replayed.clean);
    assert!(
        replayed.verdict.divergence.is_none(),
        "a healthy-spec deadlock stream must replay clean: {:?}",
        replayed.verdict.divergence
    );

    // The statically-found deadlock renders like any replayed trace.
    let vcd = rtk_analysis::obs_to_vcd(&replayed.events, replayed.header.tick_us);
    assert!(vcd.contains("$enddefinitions"));
    let chrome = rtk_analysis::obs_to_chrome_trace(&replayed.events, replayed.header.tick_us);
    assert!(chrome.starts_with('[') && chrome.contains("\"ph\""));
}

/// The families with a kernel-executable twin cross-execute healthy
/// and carry a certificate verdict; the healthy explorations contradict
/// no certificate.
#[test]
fn twin_families_cross_execute_and_certificates_hold() {
    for family in [Family::Mtx, Family::Irq] {
        let out = explore(&cfg(family));
        assert_eq!(
            out.report.cross_execution, "healthy",
            "{family}: twin must cross-execute clean on the real kernel"
        );
        assert_ne!(
            out.report.certificate, "none",
            "{family}: twin must be analyzed"
        );
        assert!(out.report.certificate_contradiction.is_none());
    }
    // Families without a twin stay unanchored, not wrong.
    let out = explore(&cfg(Family::Chain));
    assert_eq!(out.report.certificate, "none");
    assert_eq!(out.report.cross_execution, "none");
}

/// The adversarial scheduler mode is a pruning of the exhaustive tree:
/// it visits no more states, still terminates, and finds no violation
/// the exhaustive walk would not (the healthy families stay clean even
/// under maximum preemption pressure).
#[test]
fn adversarial_mode_prunes_and_stays_clean() {
    for family in [Family::Mtx, Family::Irq] {
        let full = explore(&ExploreConfig {
            family,
            por: false,
            ..ExploreConfig::default()
        });
        let adv = explore(&ExploreConfig {
            family,
            adversarial: true,
            ..ExploreConfig::default()
        });
        assert!(!adv.report.truncated);
        assert!(
            adv.report.clean(),
            "{family}: adversarial walk must stay clean"
        );
        assert!(
            adv.report.states <= full.report.states,
            "{family}: adversarial mode must not enlarge the tree"
        );
        assert!(!adv.report.por, "POR is off in adversarial mode");
    }
}
