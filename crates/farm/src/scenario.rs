//! Seed → scenario expansion.
//!
//! A [`ScenarioSpec`] is plain data: everything the builder needs to
//! assemble a kernel instance plus its workload, and nothing else. The
//! expansion from a `u64` seed is a pure function ([`ScenarioSpec::generate`]),
//! so a seed names the same scenario on every host and the spec can be
//! hashed ([`ScenarioSpec::digest`]) to prove it.
//!
//! The generated shape follows the paper's evaluation workloads, scaled
//! into a campaign: periodic tasks released by cyclic handlers (the
//! video-game frame/input pattern), optional blocking topologies over
//! kernel objects (semaphore critical sections, mailbox pipelines,
//! event-flag barriers, inheritance/ceiling mutex chains with timed
//! locks, bounded message-buffer pipelines, undersized fixed memory
//! pools), optional external interrupt storms through the BFM path
//! (§ interrupt nesting), and optional fault injection (dropped
//! interrupt requests, delayed releases) in the spirit of the FreeRTOS
//! dependability campaigns in PAPERS.md.

use crate::rng::FarmRng;

/// One periodic task of a scenario.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TaskSpec {
    /// Task priority (T-Kernel: smaller = more urgent).
    pub priority: u8,
    /// Release period in milliseconds (also the implicit deadline).
    pub period_ms: u32,
    /// First release offset in milliseconds (< period).
    pub phase_ms: u32,
    /// Per-job execution cost in microseconds.
    pub exec_us: u32,
}

/// How the tasks of a scenario interact through kernel objects.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Topology {
    /// No sharing: purely periodic, independent tasks.
    Independent,
    /// All tasks contend for one semaphore-guarded critical section
    /// (a fraction of each job runs while holding it).
    SemChain,
    /// Every task posts a completion message to a shared mailbox; the
    /// highest-priority task drains it (poll) at each of its jobs.
    MbxPipeline,
    /// Every task sets its bit in a shared event flag; a low-priority
    /// collector task waits for the AND of all bits (with clear).
    FlagBarrier,
    /// All tasks guard their critical section with one shared mutex
    /// (priority inversion under preemption); `ceiling` selects
    /// `TA_CEILING` over `TA_INHERIT`. Locks use a finite timeout, so
    /// contention also exercises the timeout path.
    MtxChain {
        /// `TA_CEILING` when `true`, `TA_INHERIT` otherwise.
        ceiling: bool,
    },
    /// Every task sends a completion record into a small shared message
    /// buffer; a low-priority drain task receives in a loop. The buffer
    /// is sized to fill up, so senders block and rendezvous handoffs
    /// occur.
    MbfPipeline,
    /// Tasks hold a block from an undersized fixed memory pool across
    /// their job body, so the pool wait queue stays busy and released
    /// blocks are handed to waiters directly.
    MpfPool,
    /// Task-lifecycle churn: a victim task cycles through an
    /// inheritance-mutex critical section (shared with the measured
    /// tasks) and timed sleeps while a high-priority saboteur
    /// terminates/restarts it, forcibly releases its waits, drives
    /// nested suspend/resume, and queues wakeups — the
    /// `tk_ter_tsk`/`tk_rel_wai`/`tk_sus_tsk` surface under load.
    LifecycleChurn,
    /// Every job wraps part of its execution in a dispatch-control
    /// window — `tk_loc_cpu`/`tk_unl_cpu` when `lock_cpu`,
    /// `tk_dis_dsp`/`tk_ena_dsp` otherwise — with a `tk_rot_rdq`
    /// inside, so preemptions and interrupt deliveries pend against
    /// the window and replay at its end.
    DispWindow {
        /// `tk_loc_cpu` (interrupts masked too) instead of
        /// `tk_dis_dsp`.
        lock_cpu: bool,
    },
    /// Tasks allocate seeded variable-size blocks from an undersized
    /// first-fit pool (timed waits), while a hoarder task holds
    /// several blocks across sleeps and releases them in varying
    /// permutations — fragmentation, coalescing and waiter re-serve.
    MplPressure,
    /// Every task arms a personal one-shot alarm per job (sometimes
    /// stopping it before it fires) and collects the handler's
    /// semaphore signal; a spare cyclic handler is started/stopped on
    /// the fly — the time-event storm over the alarm/cyclic surface.
    AlmCycStorm,
}

impl Topology {
    /// Stable label used in reports and digests.
    pub const fn label(self) -> &'static str {
        match self {
            Topology::Independent => "independent",
            Topology::SemChain => "sem_chain",
            Topology::MbxPipeline => "mbx_pipeline",
            Topology::FlagBarrier => "flag_barrier",
            Topology::MtxChain { ceiling: false } => "mtx_inherit",
            Topology::MtxChain { ceiling: true } => "mtx_ceiling",
            Topology::MbfPipeline => "mbf_pipeline",
            Topology::MpfPool => "mpf_pool",
            Topology::LifecycleChurn => "lifecycle_churn",
            Topology::DispWindow { lock_cpu: false } => "disp_window",
            Topology::DispWindow { lock_cpu: true } => "cpu_lock_window",
            Topology::MplPressure => "mpl_pressure",
            Topology::AlmCycStorm => "alm_cyc_storm",
        }
    }

    /// Every label the generator can draw (the `--topology` filter
    /// validates against this list).
    pub const ALL_LABELS: [&'static str; 13] = [
        "independent",
        "sem_chain",
        "mbx_pipeline",
        "flag_barrier",
        "mtx_inherit",
        "mtx_ceiling",
        "mbf_pipeline",
        "mpf_pool",
        "lifecycle_churn",
        "disp_window",
        "cpu_lock_window",
        "mpl_pressure",
        "alm_cyc_storm",
    ];
}

/// An external interrupt storm raised by a simulated hardware process.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StormSpec {
    /// Number of interrupt lines used (1 or 2: the 8051's two levels).
    pub lines: u8,
    /// Simulated time of the first request, in microseconds.
    pub first_us: u32,
    /// Gap between consecutive requests, in microseconds.
    pub gap_us: u32,
    /// ISR body execution cost per activation, in microseconds.
    pub isr_us: u32,
}

/// Deterministic fault-injection toggles.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FaultPlan {
    /// Drop every Nth interrupt request before it reaches the kernel
    /// (a flaky interrupt line).
    pub drop_every_nth_irq: Option<u32>,
    /// Defer every Nth periodic release to the following cycle (a
    /// delayed timer): the release timestamp keeps the intended time,
    /// so the added latency surfaces as deadline misses.
    pub delay_every_nth_release: Option<u32>,
}

impl FaultPlan {
    /// `true` when no fault is armed.
    pub fn is_clean(&self) -> bool {
        self.drop_every_nth_irq.is_none() && self.delay_every_nth_release.is_none()
    }
}

/// Knobs of the generator that are campaign-wide (not per-seed).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Tuning {
    /// Shorter horizon for smoke campaigns (CI).
    pub quick: bool,
    /// Allow fault-injection draws.
    pub faults: bool,
}

impl Default for Tuning {
    fn default() -> Self {
        Tuning {
            quick: false,
            faults: true,
        }
    }
}

/// A complete, self-contained scenario description.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScenarioSpec {
    /// The seed this spec was expanded from.
    pub seed: u64,
    /// The periodic task set (2..=6 tasks).
    pub tasks: Vec<TaskSpec>,
    /// Wait-queue order of shared objects (`TA_TFIFO`/`TA_TPRI`).
    pub priority_queues: bool,
    /// Inter-task topology.
    pub topology: Topology,
    /// Optional interrupt storm.
    pub storm: Option<StormSpec>,
    /// Fault-injection plan (all-`None` when the campaign disables it).
    pub faults: FaultPlan,
    /// Simulated horizon in milliseconds.
    pub horizon_ms: u32,
}

/// Candidate release periods (ms). Harmonic-ish small set keeps the
/// hyperperiod short and the scenarios busy.
const PERIODS_MS: [u32; 8] = [2, 4, 5, 8, 10, 20, 25, 40];

impl ScenarioSpec {
    /// Expands a seed into a scenario (pure function of `seed` and
    /// `tuning`).
    pub fn generate(seed: u64, tuning: &Tuning) -> ScenarioSpec {
        let mut rng = FarmRng::new(seed);
        let ntasks = rng.range(2, 6) as usize;

        // Total CPU utilization target of the task set, percent. Kept
        // below saturation so a healthy scenario has no structural
        // overload; storms and faults then perturb it.
        let util_pct = rng.range(30, 75);
        let weights: Vec<u64> = (0..ntasks).map(|_| rng.range(1, 10)).collect();
        let weight_sum: u64 = weights.iter().sum();

        let mut tasks = Vec::with_capacity(ntasks);
        for (i, &w) in weights.iter().enumerate() {
            let period_ms = PERIODS_MS[rng.below(PERIODS_MS.len() as u64) as usize];
            let phase_ms = rng.below(u64::from(period_ms)) as u32;
            let task_util = util_pct * w / weight_sum; // percent
            let exec_us = (u64::from(period_ms) * 1000 * task_util / 100).clamp(50, 30_000) as u32;
            // Distinct priorities, higher-frequency tasks not forced
            // rate-monotonic on purpose: mis-ordered priorities are
            // interesting scenarios too.
            let priority = (10 + i as u64 * 10 + rng.below(8)) as u8;
            tasks.push(TaskSpec {
                priority,
                period_ms,
                phase_ms,
                exec_us,
            });
        }

        let topology = match rng.below(11) {
            0 => Topology::Independent,
            1 => Topology::SemChain,
            2 => Topology::MbxPipeline,
            3 => Topology::FlagBarrier,
            4 => Topology::MtxChain {
                ceiling: rng.chance(1, 2),
            },
            5 => Topology::MbfPipeline,
            6 => Topology::MpfPool,
            7 => Topology::LifecycleChurn,
            8 => Topology::DispWindow {
                lock_cpu: rng.chance(1, 2),
            },
            9 => Topology::MplPressure,
            _ => Topology::AlmCycStorm,
        };

        let storm = if rng.chance(3, 5) {
            Some(StormSpec {
                lines: rng.range(1, 2) as u8,
                first_us: rng.range(100, 2000) as u32,
                gap_us: rng.range(150, 1500) as u32,
                isr_us: rng.range(20, 120) as u32,
            })
        } else {
            None
        };

        let faults = if tuning.faults {
            FaultPlan {
                drop_every_nth_irq: if storm.is_some() && rng.chance(3, 10) {
                    Some(rng.range(3, 8) as u32)
                } else {
                    None
                },
                delay_every_nth_release: if rng.chance(3, 10) {
                    Some(rng.range(4, 10) as u32)
                } else {
                    None
                },
            }
        } else {
            FaultPlan::default()
        };

        ScenarioSpec {
            seed,
            tasks,
            priority_queues: rng.chance(1, 2),
            topology,
            storm,
            faults,
            horizon_ms: if tuning.quick { 120 } else { 400 },
        }
    }

    /// FNV-1a digest over the canonical field encoding — two equal
    /// specs always hash equal, and the farm report embeds the digest
    /// so a campaign is auditable without re-running it.
    pub fn digest(&self) -> u64 {
        let mut h = Fnv::new();
        h.u64(self.seed);
        h.u64(self.tasks.len() as u64);
        for t in &self.tasks {
            h.u64(u64::from(t.priority));
            h.u64(u64::from(t.period_ms));
            h.u64(u64::from(t.phase_ms));
            h.u64(u64::from(t.exec_us));
        }
        h.u64(u64::from(self.priority_queues));
        h.bytes(self.topology.label().as_bytes());
        match &self.storm {
            None => h.u64(0),
            Some(s) => {
                h.u64(1);
                h.u64(u64::from(s.lines));
                h.u64(u64::from(s.first_us));
                h.u64(u64::from(s.gap_us));
                h.u64(u64::from(s.isr_us));
            }
        }
        h.u64(self.faults.drop_every_nth_irq.map_or(0, u64::from));
        h.u64(self.faults.delay_every_nth_release.map_or(0, u64::from));
        h.u64(u64::from(self.horizon_ms));
        h.finish()
    }

    /// Total task-set utilization in percent (storm load excluded).
    pub fn utilization_pct(&self) -> u64 {
        self.tasks
            .iter()
            .map(|t| u64::from(t.exec_us) * 100 / (u64::from(t.period_ms) * 1000))
            .sum()
    }
}

/// Minimal FNV-1a 64-bit hasher (stable across platforms, unlike
/// `DefaultHasher`, which documents no cross-version stability).
pub(crate) struct Fnv(u64);

const FNV_PRIME: u64 = 0x100_0000_01b3;

/// `FNV_PRIME^k` for `k = 0..=8`: the whole effect of `k` zero bytes,
/// since FNV-1a xors a zero byte in as a no-op and then multiplies.
const FNV_PRIME_POW: [u64; 9] = {
    let mut pow = [1u64; 9];
    let mut k = 1;
    while k < 9 {
        pow[k] = pow[k - 1].wrapping_mul(FNV_PRIME);
        k += 1;
    }
    pow
};

impl Fnv {
    pub(crate) fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    pub(crate) fn bytes(&mut self, data: &[u8]) {
        for &b in data {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(FNV_PRIME);
        }
    }

    /// Hashes `v`'s eight little-endian bytes, exactly as
    /// `bytes(&v.to_le_bytes())` would. The zero high bytes come last,
    /// so they fold, with the multiply of the last significant byte,
    /// into one multiply by the matching prime power: a value below
    /// 256 costs one multiply. Zero counts as one significant byte,
    /// since xoring it in changes nothing.
    pub(crate) fn u64(&mut self, v: u64) {
        let significant = (64 - v.leading_zeros() as usize).div_ceil(8).max(1);
        let mut rest = v;
        for _ in 1..significant {
            self.0 ^= rest & 0xff;
            self.0 = self.0.wrapping_mul(FNV_PRIME);
            rest >>= 8;
        }
        self.0 = (self.0 ^ rest).wrapping_mul(FNV_PRIME_POW[9 - significant]);
    }

    pub(crate) fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Byte-at-a-time FNV-1a over `v`'s little-endian bytes from
    /// running state `state`: the reference `Fnv::u64` must equal.
    fn fnv1a_reference(state: u64, v: u64) -> u64 {
        v.to_le_bytes().iter().fold(state, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
        })
    }

    fn folded(state: u64, v: u64) -> u64 {
        let mut h = Fnv(state);
        h.u64(v);
        h.finish()
    }

    /// `0`, `u64::MAX` and both sides of every byte-width boundary:
    /// among them the cases on either side of the folds, zero, one
    /// significant byte at its top (255), two bytes (256) and the top
    /// byte alone (`1 << 56`).
    fn edge_values() -> Vec<u64> {
        let mut vs = vec![0, u64::MAX];
        for k in 1..=7 {
            vs.push((1u64 << (8 * k)) - 1);
            vs.push(1u64 << (8 * k));
        }
        vs
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2000))]

        #[test]
        /// The folded `Fnv::u64` is exactly byte-at-a-time FNV-1a, from
        /// the offset basis and from a random running state, on random
        /// values and on every byte-width edge.
        fn folded_u64_is_fnv1a(v in any::<u64>(), state in any::<u64>()) {
            for s in [Fnv::new().finish(), state] {
                for x in edge_values().into_iter().chain([v]) {
                    prop_assert_eq!(
                        folded(s, x),
                        fnv1a_reference(s, x),
                        "state {:#x}, value {:#x}",
                        s,
                        x
                    );
                }
            }
        }
    }

    #[test]
    fn generation_is_pure() {
        let t = Tuning::default();
        for seed in 0..200 {
            let a = ScenarioSpec::generate(seed, &t);
            let b = ScenarioSpec::generate(seed, &t);
            assert_eq!(a, b);
            assert_eq!(a.digest(), b.digest());
        }
    }

    #[test]
    fn specs_are_well_formed() {
        let t = Tuning::default();
        for seed in 0..500 {
            let s = ScenarioSpec::generate(seed, &t);
            assert!((2..=6).contains(&s.tasks.len()), "seed {seed}");
            for task in &s.tasks {
                assert!(task.phase_ms < task.period_ms);
                assert!(task.exec_us >= 50);
                assert!(u64::from(task.exec_us) < u64::from(task.period_ms) * 1000);
                assert!((1..=140).contains(&task.priority));
            }
            // Below structural overload even with rounding slack.
            assert!(
                s.utilization_pct() <= 80,
                "seed {seed}: {}",
                s.utilization_pct()
            );
            if let Some(storm) = &s.storm {
                assert!((1..=2).contains(&storm.lines));
                assert!(storm.gap_us >= 150);
            }
        }
    }

    #[test]
    fn digests_differ_across_seeds() {
        let t = Tuning::default();
        let mut digests: Vec<u64> = (0..300)
            .map(|s| ScenarioSpec::generate(s, &t).digest())
            .collect();
        digests.sort_unstable();
        digests.dedup();
        assert_eq!(digests.len(), 300, "digest collision in first 300 seeds");
    }

    #[test]
    fn fault_toggle_is_respected() {
        let clean = Tuning {
            faults: false,
            ..Tuning::default()
        };
        for seed in 0..200 {
            assert!(ScenarioSpec::generate(seed, &clean).faults.is_clean());
        }
        // And with faults enabled, some scenario actually draws one.
        let t = Tuning::default();
        assert!((0..200).any(|s| !ScenarioSpec::generate(s, &t).faults.is_clean()));
    }
}
