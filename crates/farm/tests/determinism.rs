//! Farm determinism properties: the whole value of a seeded campaign
//! rests on `seed ⇒ scenario ⇒ outcome` being a pure function,
//! independent of worker-thread count and scheduling.

use std::collections::BTreeSet;
use std::path::Path;

use proptest::prelude::*;
use rtk_analysis::trace_codec::{encode_trace, read_trace, TraceHeader};
use rtk_farm::{
    run_campaign, run_exploration, run_scenario, run_scenario_traced, write_counterexamples,
    CampaignConfig, CampaignReport, ExploreConfig, ExploreOutcome, Family, RunPlan, ScenarioSpec,
    SpecMutation, TraceConfig, Tuning,
};
use sysc::Runtime;

fn quick(faults: bool) -> Tuning {
    Tuning {
        quick: true,
        faults,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    /// Same seed ⇒ identical expanded scenario and identical digest,
    /// for both fault settings.
    fn spec_expansion_is_pure(seed in 0u64..1_000_000, faults in any::<bool>()) {
        let t = quick(faults);
        let a = ScenarioSpec::generate(seed, &t);
        let b = ScenarioSpec::generate(seed, &t);
        prop_assert_eq!(a.digest(), b.digest());
        prop_assert_eq!(a, b);
    }
}

proptest! {
    // Each case runs two full kernel simulations; keep the count low.
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    /// Same scenario ⇒ identical measured outcome (latency vector,
    /// counters, kernel stats), run-to-run.
    fn scenario_outcome_is_reproducible(seed in 0u64..10_000) {
        let spec = ScenarioSpec::generate(seed, &quick(true));
        let (a, _) = run_scenario(&spec, &RunPlan::default());
        let (b, _) = run_scenario(&spec, &RunPlan::default());
        prop_assert_eq!(a.digest(), b.digest());
        prop_assert_eq!(a.latencies_us, b.latencies_us);
        prop_assert_eq!(a.stats, b.stats);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    #[test]
    /// A campaign over a fixed seed window produces the identical
    /// aggregate digest and byte-identical JSON with 1 worker and with
    /// N workers.
    fn campaign_is_thread_count_invariant(
        base in 0u64..50_000,
        nseeds in 3u64..10,
        threads in 2usize..5,
    ) {
        let cfg1 = CampaignConfig {
            base_seed: base,
            seeds: nseeds,
            threads: 1,
            tuning: quick(true),
            oracle: true,
            topology: None,
            trace: None,
            analyze: false,
        };
        let cfgn = CampaignConfig { threads, ..cfg1.clone() };

        let r1 = CampaignReport::new(cfg1.clone(), run_campaign(&cfg1));
        let rn = CampaignReport::new(cfgn.clone(), run_campaign(&cfgn));
        prop_assert_eq!(r1.digest(), rn.digest());
        // The config echoed in the JSON provenance block must not leak
        // the thread count (it would break byte-identity).
        prop_assert_eq!(r1.to_json(), rn.to_json());
    }
}

#[test]
fn campaign_json_is_stable_across_repeated_runs() {
    let cfg = CampaignConfig {
        base_seed: 42,
        seeds: 8,
        threads: 3,
        tuning: quick(true),
        oracle: true,
        topology: None,
        trace: None,
        analyze: false,
    };
    let a = CampaignReport::new(cfg.clone(), run_campaign(&cfg)).to_json();
    let b = CampaignReport::new(cfg.clone(), run_campaign(&cfg)).to_json();
    assert_eq!(a, b);
}

// ---------------------------------------------------------------------
// Goldens. Taken while a pooled-OS-thread process runtime still ran
// beside the coroutine one and both produced every value below, so they
// pin what the cross-runtime comparisons used to check.
// ---------------------------------------------------------------------

/// FNV-1a (64-bit) over `bytes`.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Per seed (quick tuning, faults on): the number of kernel decisions
/// an oracle run with `collect_events` records and the FNV-1a digest of their
/// `.rtkt` encoding, which covers every event and its tick.
const OBS_GOLDENS: [(u64, usize, u64); 5] = [
    (3, 434, 0x6ed0_9628_a05a_ac9a),
    (17, 194, 0x9d7d_4114_91d8_d35d),
    (42, 326, 0xc27c_f8b7_e8d2_653d),
    (100, 81, 0xc7a7_6218_2ec8_fadb),
    (257, 565, 0x234f_d452_abee_752d),
];

#[test]
fn obs_streams_match_goldens() {
    for (seed, events, digest) in OBS_GOLDENS {
        let spec = ScenarioSpec::generate(seed, &quick(true));
        let plan = RunPlan {
            oracle: true,
            collect_events: true,
            ..RunPlan::default()
        };
        let (out, obs) = run_scenario(&spec, &plan);
        assert!(out.healthy(), "seed {seed}: {out:?}");
        let header = TraceHeader::new(seed, spec.topology.label(), "golden");
        let got = (obs.len(), fnv1a(&encode_trace(&header, &obs, None)));
        assert_eq!(
            got,
            (events, digest),
            "seed {seed}: got ({}, {:#018x})",
            got.0,
            got.1
        );
    }
}

/// Every attachment only observes. On each golden seed, all 8
/// combinations of a [`RunPlan`], and `.rtkt` capture with and without
/// the oracle, give the same outcome digest once the oracle's own event
/// count is zeroed, the same oracle verdict wherever the oracle ran,
/// and the golden stream length wherever the stream was collected or
/// captured.
#[test]
fn every_run_plan_gives_the_same_outcome() {
    let dir = std::env::temp_dir().join(format!("rtk_run_plans_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let tc = TraceConfig {
        dir: dir.clone(),
        cap: 0,
        tuning: None,
    };
    for (seed, events, _) in OBS_GOLDENS {
        let spec = ScenarioSpec::generate(seed, &quick(true));
        let mut digests = BTreeSet::new();
        let mut verdicts = BTreeSet::new();
        for bits in 0..8u8 {
            let plan = RunPlan {
                oracle: bits & 1 != 0,
                collect_events: bits & 2 != 0,
                analyze: bits & 4 != 0,
            };
            let (mut out, stream) = run_scenario(&spec, &plan);
            assert!(out.healthy(), "seed {seed}, {plan:?}: {out:?}");
            let want = if plan.collect_events { events } else { 0 };
            assert_eq!(stream.len(), want, "seed {seed}, {plan:?}");
            if plan.oracle {
                verdicts.insert((out.oracle_events, out.divergence.clone()));
            }
            out.oracle_events = 0;
            digests.insert(out.digest());
        }
        for oracle in [false, true] {
            let mut out = run_scenario_traced(&spec, oracle, Runtime::default(), &tc);
            assert!(out.healthy(), "seed {seed}, traced: {out:?}");
            let trace = read_trace(&tc.path(seed)).unwrap();
            assert_eq!(trace.events.len(), events, "seed {seed}, traced");
            if oracle {
                verdicts.insert((out.oracle_events, out.divergence.clone()));
            }
            out.oracle_events = 0;
            digests.insert(out.digest());
        }
        assert_eq!(digests.len(), 1, "seed {seed}: {digests:x?}");
        assert_eq!(verdicts.len(), 1, "seed {seed}: {verdicts:?}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// The 12-seed oracle campaign at base seed 500.
#[test]
fn oracle_campaign_digest_matches_golden() {
    let cfg = CampaignConfig {
        base_seed: 500,
        seeds: 12,
        threads: 2,
        tuning: quick(true),
        oracle: true,
        ..CampaignConfig::default()
    };
    let report = CampaignReport::new(cfg.clone(), run_campaign(&cfg));
    assert!(report.all_healthy(), "{:?}", report.failures());
    assert_eq!(format!("{:016x}", report.digest()), "4844bf1d25a82a45");
}

/// How one pinned exploration differs from the default config.
#[derive(Debug, Clone, Copy)]
enum Walk {
    Default,
    NoPor,
    Adversarial,
    NoFaults,
    /// The default walk over the spec with this [`SpecMutation`].
    SkipTimeoutReserve,
    /// The default walk over the spec with this [`SpecMutation`].
    DirectInheritanceOnly,
}

/// FNV-1a over an exploration's whole output: the report's JSON, then
/// the `.rtkt` bytes of every retained counterexample, in the order
/// `write_counterexamples` writes them into `dir`.
fn explore_output_digest(out: &ExploreOutcome, dir: &Path) -> u64 {
    let mut bytes = out.report.to_json().into_bytes();
    for path in write_counterexamples(out, dir).expect("counterexamples written") {
        bytes.extend(std::fs::read(&path).expect("counterexample read back"));
        std::fs::remove_file(&path).expect("counterexample removed");
    }
    fnv1a(&bytes)
}

/// States, transitions, state hash and whole-output digest of every
/// explore family with partial-order reduction on (the default config),
/// under `--adversarial` and under `--no-faults`, of the two families
/// whose counts change with POR off, and of the two `SpecMutation`
/// convictions. `chain` and `deadlock` have no fault branch and
/// `--adversarial` prunes none of their frontiers, so both flags leave
/// them unchanged. The output digest covers the report byte for byte
/// and the counterexamples of `deadlock` and of both convictions.
#[test]
fn explore_reports_match_goldens() {
    use Family::*;
    use Walk::*;
    // Family, walk, states, transitions, state hash, output digest.
    #[rustfmt::skip]
    let goldens = [
        (Mtx,      Default,                339,  368, 0x8ce0_4cab_dd0c_1150, 0x5e25_aeaa_3efa_d571),
        (Irq,      Default,               1032, 1450, 0xbaa8_38d9_bcbe_a5cf, 0xa6cd_8b58_e0ae_f7fc),
        (Chain,    Default,                 44,   43, 0xb2e0_83bd_88ca_d553, 0xc97d_272d_fb07_f38f),
        (Deadlock, Default,                  8,    7, 0xd906_bf62_a104_bc2c, 0x59c1_ef1d_391f_ca8b),
        (Mtx,      NoPor,                  363,  403, 0xa78e_be56_6974_272a, 0x2a26_00ed_73c4_c5e5),
        (Irq,      NoPor,                 1049, 1486, 0xcc41_c0b6_18b3_e22b, 0x396b_d462_99d1_60e4),
        (Mtx,      Adversarial,            277,  299, 0xbb0c_53cb_0d6a_830f, 0x6580_e537_b4bd_ea8c),
        (Irq,      Adversarial,            923, 1254, 0x1c1f_b99c_539d_4d72, 0x2987_e987_7555_7cbf),
        (Chain,    Adversarial,             44,   43, 0xb2e0_83bd_88ca_d553, 0x39ab_4e5f_600d_8e3d),
        (Deadlock, Adversarial,              8,    7, 0xd906_bf62_a104_bc2c, 0xc158_94dc_c71a_2881),
        (Mtx,      NoFaults,                64,   65, 0xfa1c_f591_a433_1fe9, 0x7b44_3535_a0f3_a229),
        (Irq,      NoFaults,               512,  678, 0x6a3b_8d6d_dacd_bdeb, 0xf493_f7b8_3ba1_66b8),
        (Chain,    NoFaults,                44,   43, 0xb2e0_83bd_88ca_d553, 0xa737_b9a5_8b32_3344),
        (Deadlock, NoFaults,                 8,    7, 0xd906_bf62_a104_bc2c, 0xd8f0_fb09_8913_9d10),
        (Irq,      SkipTimeoutReserve,     516,  725, 0x9bce_5746_8236_fbb1, 0xa112_739f_b471_5215),
        (Chain,    DirectInheritanceOnly,   44,   43, 0x07f4_b46e_9e83_2490, 0xa9dc_0646_1704_d6f1),
    ];
    let dir = std::env::temp_dir().join(format!("rtk_explore_pins_{}", std::process::id()));
    for (family, walk, states, transitions, hash, output) in goldens {
        let cfg = ExploreConfig {
            family,
            por: !matches!(walk, NoPor),
            adversarial: matches!(walk, Adversarial),
            faults: !matches!(walk, NoFaults),
            mutation: match walk {
                SkipTimeoutReserve => Some(SpecMutation::SkipTimeoutReserve),
                DirectInheritanceOnly => Some(SpecMutation::DirectInheritanceOnly),
                _ => None,
            },
            ..ExploreConfig::default()
        };
        let out = run_exploration(&cfg, Runtime::default());
        let r = &out.report;
        let por = !matches!(walk, NoPor | Adversarial);
        assert!(r.por == por && !r.truncated, "{family} {walk:?}");
        let got = (
            r.states,
            r.transitions,
            r.state_hash,
            explore_output_digest(&out, &dir),
        );
        assert_eq!(
            got,
            (states, transitions, hash, output),
            "{family} {walk:?}: got ({}, {}, {:#018x}, {:#018x})",
            got.0,
            got.1,
            got.2,
            got.3
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}
