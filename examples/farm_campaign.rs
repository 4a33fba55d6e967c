//! A small in-process simulation-farm campaign: expand a window of
//! seeds into scenarios, run them across worker threads, and print the
//! aggregate distributions — the library-API version of what the
//! `rtk-farm` CLI does at thousand-seed scale.
//!
//! Run with: `cargo run --release --example farm_campaign`

use rtk_farm::{run_campaign, CampaignConfig, CampaignReport, ScenarioSpec, Tuning};

fn main() {
    let cfg = CampaignConfig {
        base_seed: 1,
        seeds: 32,
        threads: 0, // all cores
        tuning: Tuning {
            quick: true,
            faults: true,
        },
        // Check every kernel decision against the ITRON reference model.
        oracle: true,
        topology: None,
        // No .rtkt capture here; see `rtk-farm --trace-dir`.
        trace: None,
        // No static-analysis cross-check here; see `rtk-farm --analyze`.
        analyze: false,
    };

    // Every seed names a complete scenario; show a few.
    println!("seed → scenario (first 4 of {}):", cfg.seeds);
    for seed in cfg.base_seed..cfg.base_seed + 4 {
        let s = ScenarioSpec::generate(seed, &cfg.tuning);
        println!(
            "  seed {seed}: {} tasks, {:>12}, storm {}, faults {}, util {:>2}%",
            s.tasks.len(),
            s.topology.label(),
            if s.storm.is_some() { "yes" } else { "no " },
            if s.faults.is_clean() { "no " } else { "yes" },
            s.utilization_pct(),
        );
    }

    let t0 = std::time::Instant::now();
    let outcomes = run_campaign(&cfg);
    let wall = t0.elapsed();
    let report = CampaignReport::new(cfg, outcomes);
    let agg = report.aggregate();

    println!(
        "\n{} scenarios in {:.2}s — digest {:016x}",
        report.outcomes.len(),
        wall.as_secs_f64(),
        report.digest()
    );
    println!(
        "jobs: {} released, {} completed, {} deadline misses, {} starved tasks",
        agg.releases, agg.completions, agg.deadline_misses, agg.starved_tasks
    );
    println!(
        "latency µs:  p50 {:>6}  p90 {:>6}  p99 {:>6}  max {:>6}",
        agg.latency_us.p50, agg.latency_us.p90, agg.latency_us.p99, agg.latency_us.max
    );
    println!(
        "dispatches:  p50 {:>6}  p90 {:>6}  p99 {:>6}  max {:>6}",
        agg.dispatches.p50, agg.dispatches.p90, agg.dispatches.p99, agg.dispatches.max
    );
    println!(
        "energy nJ:   p50 {:>6}  p90 {:>6}  p99 {:>6}  max {:>6}",
        agg.energy_nj.p50, agg.energy_nj.p90, agg.energy_nj.p99, agg.energy_nj.max
    );
    assert!(
        report.all_healthy(),
        "unhealthy scenarios: {:?}",
        report.failures()
    );
    println!("\nall scenarios healthy; same seeds ⇒ same digest on any machine");
}
