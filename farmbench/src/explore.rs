//! The `explore_sweep` workload: `run_exploration` over the four
//! hand-built families, with partial-order reduction on and off.

use std::path::{Path, PathBuf};
use std::time::Instant;

use rtk_farm::{run_exploration, ExploreConfig, ExploreReport, Family, ScenarioSpec, Tuning};

use crate::campaign::{
    build, fresh_dir, observe, prewarm, seed_metrics, stack_counts, stack_metrics, trace_config,
    SeedRun,
};
use crate::spans::{Layers, Recorder};
use crate::{off_and_on, Pass, Round, Tally, Workload};

/// Sweeps (4 families × POR on/off) per measured pass.
const SWEEPS_PER_PASS: usize = 12;

/// Pinned report per family and POR setting: states, transitions,
/// state hash, whether the family must reach its deadlock, and the
/// kernel twin's cross-execution verdict.
const PINNED: [(&str, bool, u64, u64, u64, bool, &str); 8] = [
    (
        "mtx",
        true,
        339,
        368,
        0x8ce0_4cab_dd0c_1150,
        false,
        "healthy",
    ),
    (
        "mtx",
        false,
        363,
        403,
        0xa78e_be56_6974_272a,
        false,
        "healthy",
    ),
    (
        "irq",
        true,
        1032,
        1450,
        0xbaa8_38d9_bcbe_a5cf,
        false,
        "healthy",
    ),
    (
        "irq",
        false,
        1049,
        1486,
        0xcc41_c0b6_18b3_e22b,
        false,
        "healthy",
    ),
    ("chain", true, 44, 43, 0xb2e0_83bd_88ca_d553, false, "none"),
    ("chain", false, 44, 43, 0xb2e0_83bd_88ca_d553, false, "none"),
    ("deadlock", true, 8, 7, 0xd906_bf62_a104_bc2c, true, "none"),
    ("deadlock", false, 8, 7, 0xd906_bf62_a104_bc2c, true, "none"),
];

/// The exploration sweep; `--seed` rotates the family order.
pub struct Sweep {
    order: Vec<Family>,
    work: PathBuf,
}

impl Sweep {
    pub fn new(seed: u64, work: &Path) -> Result<Sweep, String> {
        let mut order: Vec<Family> = Family::ALL_LABELS
            .iter()
            .map(|l| Family::parse(l).expect("every listed family parses"))
            .collect();
        let turn = (seed % order.len() as u64) as usize;
        order.rotate_left(turn);
        std::fs::create_dir_all(work).map_err(|e| format!("{}: {e}", work.display()))?;
        prewarm();
        Ok(Sweep {
            order,
            work: work.to_path_buf(),
        })
    }

    /// One sweep: every family with POR on and off, each exploration in
    /// a `farm::explore` span, each report checked against its pin.
    fn sweep(&self, rec: &Recorder, tally: &mut Tally) -> Vec<ExploreReport> {
        let mut reports = Vec::with_capacity(2 * self.order.len());
        for &family in &self.order {
            for por in [true, false] {
                let cfg = ExploreConfig {
                    family,
                    por,
                    ..ExploreConfig::default()
                };
                let id = PINNED
                    .iter()
                    .position(|p| p.0 == family.label() && p.1 == por)
                    .expect("every family is pinned") as u64;
                let out = rec.span("farm::explore", id, None, |_| {
                    run_exploration(&cfg, sysc::Runtime::default())
                });
                gate(&out.report, tally);
                reports.push(out.report);
            }
        }
        reports
    }

    fn sweep_and_twins(
        &self,
        rec: &Recorder,
        tally: &mut Tally,
    ) -> (Vec<ExploreReport>, Vec<SeedRun>) {
        let reports = self.sweep(rec, tally);
        let dir = fresh_dir(&self.work.join("twins"));
        let tc = trace_config(&dir, &Tuning::default());
        let twins: Vec<SeedRun> = [
            ScenarioSpec::explore_mtx_cross(),
            ScenarioSpec::explore_irq_cross(),
        ]
        .into_iter()
        .map(|spec| {
            let mut run = rec.span("bench::seed", spec.seed, None, |p| {
                build(rec, p, spec, Some(&tc))
            });
            observe(rec, &mut run, &tc);
            run
        })
        .collect();
        let _ = std::fs::remove_dir_all(&dir);
        for t in &twins {
            tally.check(t.problems.is_empty(), || {
                format!("twin {}: {}", t.id, t.problems.join("; "))
            });
        }
        (reports, twins)
    }
}

fn gate(r: &ExploreReport, tally: &mut Tally) {
    let pin = PINNED
        .iter()
        .find(|p| p.0 == r.family && p.1 == r.por)
        .expect("every family is pinned");
    let got = (
        r.states,
        r.transitions,
        r.state_hash,
        r.deadlocks > 0,
        r.cross_execution.as_str(),
        r.truncated,
    );
    let want = (pin.2, pin.3, pin.4, pin.5, pin.6, false);
    let clean_as_pinned = r.clean() != pin.5;
    tally.check(got == want && clean_as_pinned, || {
        format!(
            "explore {} por={}: (states, transitions, hash, deadlock, cross, truncated) = {got:?}, \
             pinned {want:?}",
            r.family, r.por
        )
    });
}

impl Workload for Sweep {
    fn warm_up(&mut self, tally: &mut Tally) {
        self.pass(&Recorder::new(false), tally);
    }

    fn pass(&mut self, rec: &Recorder, tally: &mut Tally) -> Pass {
        let t = Instant::now();
        let mut states = 0;
        for _ in 0..SWEEPS_PER_PASS {
            states += self.sweep(rec, tally).iter().map(|r| r.states).sum::<u64>();
        }
        let items_s = t.elapsed().as_secs_f64();
        Pass {
            group: 0,
            items: states,
            items_s,
            pass_s: items_s,
            replay: None,
        }
    }

    /// One sweep plus the two kernel twins `run_exploration`
    /// cross-executes (through the per-layer calls), recorder off and on.
    fn round(&mut self, on: &Recorder, off: &Recorder, on_first: bool, tally: &mut Tally) -> Round {
        let mark = on.mark();
        let ((reports, twins, before, after), on_s, off_s) = off_and_on(on, off, on_first, |rec| {
            let before = stack_counts();
            let (reports, twins) =
                rec.span("bench::pass", 0, None, |_| self.sweep_and_twins(rec, tally));
            (reports, twins, before, stack_counts())
        });

        let mut round = Round {
            workers: 1,
            on_s,
            off_s,
            ..Round::default()
        };
        let spans = on.since(mark);
        let l = Layers::new(&spans);
        seed_metrics(&l, &twins, 1, on_s, &mut round);
        let states: u64 = reports.iter().map(|r| r.states).sum();
        round.timed.insert(
            "explore.us_per_state",
            l.total_ns("farm::explore") as f64 / 1e3 / states as f64,
        );
        for r in &reports {
            let mode = if r.por { "por" } else { "nopor" };
            for (field, v) in [
                ("states", r.states),
                ("transitions", r.transitions),
                ("deduped", r.deduped),
                ("collapsed", r.collapsed),
            ] {
                round
                    .exact
                    .insert(format!("explore.{}.{mode}.{field}", r.family), v);
            }
        }
        stack_metrics(before, after, &mut round);
        // The layer table lists explorations by pinned index.
        let twin_items = std::mem::take(&mut round.item_us);
        round.item_us = l
            .of("farm::explore")
            .map(|s| {
                let pin = PINNED[s.id as usize];
                let mode = if pin.1 { "por" } else { "nopor" };
                (s.id, s.dur_ns() / 1000, format!("{} {mode}", pin.0))
            })
            .chain(twin_items)
            .collect();
        round.spans = spans;
        round
    }
}
