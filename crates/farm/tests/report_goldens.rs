//! Byte-for-byte goldens of the two `--analyze` reports: the
//! `BENCH_farm.json` document of a 32-seed quick oracle campaign that
//! also captures `.rtkt` traces, and the replay report over those
//! traces. Both are deterministic (simulated domain only), so a change
//! that alters either must regenerate the golden on purpose:
//!
//! ```sh
//! rtk-farm --seeds 32 --quick --oracle --analyze --trace-dir /tmp/g --out /tmp/c.json
//! grep -v -E '"wall_clock_ms"|"scenarios_per_sec"|"obs_dropped"' /tmp/c.json \
//!     > crates/farm/tests/goldens/campaign_analyze.json
//! rtk-farm --replay /tmp/g --analyze --out crates/farm/tests/goldens/replay_analyze.json
//! ```

use std::path::Path;

use rtk_analysis::trace_codec::TraceTuning;
use rtk_farm::{
    replay_analysis, replay_path, replay_report_json_analyzed, run_campaign, CampaignConfig,
    CampaignReport, TraceConfig, Tuning,
};

fn assert_matches_golden(name: &str, got: &str) {
    let golden = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/goldens")
        .join(name);
    let want = std::fs::read_to_string(&golden)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", golden.display()));
    if got != want {
        let line = got
            .lines()
            .zip(want.lines())
            .position(|(g, w)| g != w)
            .unwrap_or_else(|| got.lines().count().min(want.lines().count()));
        panic!(
            "{name} differs from {} at line {}:\n  got:  {:?}\n  want: {:?}",
            golden.display(),
            line + 1,
            got.lines().nth(line),
            want.lines().nth(line),
        );
    }
}

#[test]
fn analyzed_campaign_and_its_replay_match_goldens() {
    let dir = std::env::temp_dir().join(format!("rtk_report_goldens_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let cfg = CampaignConfig {
        base_seed: 1,
        seeds: 32,
        threads: 2,
        tuning: Tuning {
            quick: true,
            faults: true,
        },
        oracle: true,
        analyze: true,
        trace: Some(TraceConfig {
            dir: dir.clone(),
            cap: 0,
            tuning: Some(TraceTuning {
                quick: true,
                faults: true,
            }),
        }),
        ..CampaignConfig::default()
    };
    let report = CampaignReport::new(cfg.clone(), run_campaign(&cfg));
    assert_matches_golden("campaign_analyze.json", &report.to_json());

    let traces = replay_path(&dir).expect("replay the captured traces");
    assert_eq!(traces.len(), 32);
    let analyses: Vec<_> = traces
        .iter()
        .map(|t| replay_analysis(t).expect("headers carry the tuning"))
        .collect();
    assert_matches_golden(
        "replay_analyze.json",
        &replay_report_json_analyzed(&traces, Some(&analyses)),
    );
    std::fs::remove_dir_all(&dir).ok();
}
