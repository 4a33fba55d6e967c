//! Property-based tests: kernel objects are checked against reference
//! models under random operation sequences, and the simulation is
//! checked for determinism and conservation invariants.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::Rc;

use proptest::prelude::*;
use rtk_spec_tron::core::sim_api::scheduler::{PriorityScheduler, Scheduler};
use rtk_spec_tron::core::{ErCode, KernelConfig, Power, QueueOrder, Rtos, TaskId, Timeout};
use rtk_spec_tron::sysc::SimTime;

/// Runs `ops` inside a fresh kernel's init task and returns collected
/// violation messages.
fn run_in_kernel<F>(f: F) -> Vec<String>
where
    F: FnOnce(&mut rtk_spec_tron::core::Sys<'_>, &mut Vec<String>) + 'static,
{
    let violations: Rc<RefCell<Vec<String>>> = Rc::default();
    let v2 = Rc::clone(&violations);
    let mut f = Some(f);
    let mut rtos = Rtos::new(KernelConfig::zero_cost(), move |sys, _| {
        if let Some(f) = f.take() {
            let mut local = Vec::new();
            f(sys, &mut local);
            v2.borrow_mut().extend(local);
        }
    });
    rtos.run_for(SimTime::from_ms(100));
    violations.take()
}

#[derive(Debug, Clone)]
enum SemOp {
    Sig(u32),
    WaiPoll(u32),
}

fn sem_op() -> impl Strategy<Value = SemOp> {
    prop_oneof![
        (1u32..4).prop_map(SemOp::Sig),
        (1u32..4).prop_map(SemOp::WaiPoll),
    ]
}

#[derive(Debug, Clone)]
enum SchedOp {
    Enqueue { tid: u32, pri: u8, at_head: bool },
    Remove(u32),
    Pop,
    Reprioritize(u32, u8),
    Rotate(u8),
}

/// Priorities on both sides of the 64-level bitmap word boundaries, at
/// the default top level (140) and the widest one (255), plus uniform
/// draws. Applied clamped to the scheduler's range.
fn sched_pri() -> impl Strategy<Value = u8> {
    prop_oneof![
        prop_oneof![
            Just(1u8),
            Just(63),
            Just(64),
            Just(65),
            Just(127),
            Just(128),
            Just(129),
            Just(140),
            Just(141),
            Just(255),
        ],
        1u8..255,
    ]
}

/// Task IDs 1..12 can be enqueued; removals and priority changes also
/// name IDs that never are.
fn sched_op() -> impl Strategy<Value = SchedOp> {
    let enqueue =
        || {
            (1u32..12, sched_pri(), any::<bool>())
                .prop_map(|(tid, pri, at_head)| SchedOp::Enqueue { tid, pri, at_head })
        };
    prop_oneof![
        enqueue(),
        enqueue(),
        (1u32..16).prop_map(SchedOp::Remove),
        Just(SchedOp::Pop),
        (1u32..16, sched_pri()).prop_map(|(tid, pri)| SchedOp::Reprioritize(tid, pri)),
        sched_pri().prop_map(SchedOp::Rotate),
    ]
}

/// A value of exactly `bits` significant bits (`1..=64`): the top bit
/// set, the rest taken from `noise`.
fn with_width(bits: u32, noise: u64) -> u64 {
    (noise >> (64 - bits)) | (1 << (bits - 1))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// `Power::energy_over` matches the 128-bit formula
    /// `P[µW] × t[ps] / 10⁶`, saturated to `u64`, whether the product
    /// fits in 64 bits or not: widths summing to at most 64 bits give a
    /// product below 2^64, widths summing to 66 one at or above it.
    #[test]
    fn energy_over_matches_the_128_bit_formula(
        above in any::<bool>(),
        power_bits in 2u32..64,
        power_noise in any::<u64>(),
        time_noise in any::<u64>(),
    ) {
        let time_bits = if above { 66 - power_bits } else { 64 - power_bits };
        let uw = with_width(power_bits, power_noise);
        let ps = with_width(time_bits, time_noise);
        let product = u128::from(uw) * u128::from(ps);
        prop_assert_eq!(product >= 1 << 64, above);
        let reference = u64::try_from(product / 1_000_000).unwrap_or(u64::MAX);
        let got = Power::from_uw(uw).energy_over(SimTime::from_ps(ps)).as_pj();
        prop_assert_eq!(got, reference);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Semaphore behaviour matches a simple counter model: `sig` adds
    /// (E_QOVR past max), polling `wai` subtracts (E_TMOUT when short),
    /// and the count never leaves `0..=max`.
    #[test]
    fn semaphore_matches_counter_model(
        init in 0u32..5,
        max in 1u32..8,
        ops in proptest::collection::vec(sem_op(), 1..40),
    ) {
        prop_assume!(init <= max);
        let violations = run_in_kernel(move |sys, out| {
            let sem = sys.tk_cre_sem("s", init, max, QueueOrder::Fifo).unwrap();
            let mut model = init;
            for op in ops {
                match op {
                    SemOp::Sig(n) => {
                        let expect_ok = model + n <= max;
                        let got = sys.tk_sig_sem(sem, n);
                        match (expect_ok, got) {
                            (true, Ok(())) => model += n,
                            (false, Err(ErCode::QOvr)) => {}
                            (e, g) => out.push(format!("sig({n}): model={model} expect_ok={e} got={g:?}")),
                        }
                    }
                    SemOp::WaiPoll(n) => {
                        let satisfiable = n <= max;
                        let expect_ok = satisfiable && model >= n;
                        let got = sys.tk_wai_sem(sem, n, Timeout::Poll);
                        match (expect_ok, got) {
                            (true, Ok(())) => model -= n,
                            (false, Err(ErCode::Tmout)) if satisfiable => {}
                            (false, Err(ErCode::Par)) if !satisfiable => {}
                            (e, g) => out.push(format!("wai({n}): model={model} expect_ok={e} got={g:?}")),
                        }
                    }
                }
                let count = sys.tk_ref_sem(sem).unwrap().count;
                if count != model {
                    out.push(format!("count drift: kernel={count} model={model}"));
                }
            }
        });
        prop_assert!(violations.is_empty(), "{violations:?}");
    }

    /// `PriorityScheduler` matches a linear-scan model (one FIFO per
    /// level, the first non-empty level wins) after every step, with
    /// 140 and with 255 levels, so ready tasks sit in every word of its
    /// non-empty-level bitmap. The kernel never enqueues a task that is
    /// already ready, so neither does the test.
    #[test]
    fn priority_scheduler_matches_linear_scan_model(
        ops in proptest::collection::vec(sched_op(), 1..120),
    ) {
        for max in [140u8, 255] {
            let mut s = PriorityScheduler::new(max);
            let mut model: Vec<VecDeque<TaskId>> = vec![VecDeque::new(); max as usize];
            let level = |pri: u8| pri.min(max) as usize - 1;
            let find = |model: &[VecDeque<TaskId>], tid: TaskId| {
                model.iter().enumerate().find_map(|(l, q)| {
                    q.iter().position(|t| *t == tid).map(|i| (l, i))
                })
            };
            for (step, op) in ops.iter().enumerate() {
                let at = format!("max {max}, step {step}: {op:?}");
                match *op {
                    SchedOp::Enqueue { tid, pri, at_head } => {
                        let tid = TaskId::from_raw(tid);
                        if find(&model, tid).is_none() {
                            s.enqueue(tid, pri.min(max), at_head);
                            let q = &mut model[level(pri)];
                            if at_head {
                                q.push_front(tid);
                            } else {
                                q.push_back(tid);
                            }
                        }
                    }
                    SchedOp::Remove(tid) => {
                        let tid = TaskId::from_raw(tid);
                        s.remove(tid);
                        if let Some((l, i)) = find(&model, tid) {
                            model[l].remove(i);
                        }
                    }
                    SchedOp::Pop => {
                        let want = model.iter_mut().find_map(|q| q.pop_front());
                        let got = s.pop();
                        prop_assert_eq!(got, want, "{at}: pop {got:?}, model {want:?}");
                    }
                    SchedOp::Reprioritize(tid, pri) => {
                        let tid = TaskId::from_raw(tid);
                        s.reprioritize(tid, pri.min(max));
                        if let Some((l, i)) = find(&model, tid) {
                            model[l].remove(i);
                            model[level(pri)].push_back(tid);
                        }
                    }
                    SchedOp::Rotate(pri) => {
                        s.rotate(pri.min(max));
                        let q = &mut model[level(pri)];
                        if let Some(front) = q.pop_front() {
                            q.push_back(front);
                        }
                    }
                }
                let head = model.iter().find_map(|q| q.front().copied());
                prop_assert_eq!(s.peek(), head, "{at}: peek {:?}, model {head:?}", s.peek());
                let len: usize = model.iter().map(VecDeque::len).sum();
                prop_assert_eq!(s.len(), len, "{at}: len {}, model {len}", s.len());
                let top = model.iter().position(|q| !q.is_empty());
                for running in 1..=max {
                    let want = top.is_some_and(|l| l + 1 < running as usize);
                    prop_assert_eq!(
                        s.should_preempt(running),
                        want,
                        "{at}: should_preempt({running}) model {want}"
                    );
                }
            }
            // Draining pops the model's linear-scan order.
            while let Some(want) = model.iter_mut().find_map(|q| q.pop_front()) {
                prop_assert_eq!(s.pop(), Some(want), "max {max}: drain, model {want:?}");
            }
            prop_assert!(s.is_empty() && s.pop().is_none(), "max {max}: not drained");
        }
    }

    /// Event-flag set/clear/poll-wait matches a bit-pattern model,
    /// including TWF_CLR / TWF_BITCLR release side effects.
    #[test]
    fn eventflag_matches_bit_model(
        init in any::<u32>(),
        ops in proptest::collection::vec(
            prop_oneof![
                any::<u32>().prop_map(|p| ("set", p)),
                any::<u32>().prop_map(|p| ("clr", p)),
                (1u32..16).prop_map(|p| ("wai_or", p)),
                (1u32..16).prop_map(|p| ("wai_and_clr", p)),
            ],
            1..40,
        ),
    ) {
        use rtk_spec_tron::core::FlagWaitMode;
        let violations = run_in_kernel(move |sys, out| {
            let flg = sys.tk_cre_flg("f", init, false, QueueOrder::Fifo).unwrap();
            let mut model = init;
            for (op, ptn) in ops {
                match op {
                    "set" => {
                        sys.tk_set_flg(flg, ptn).unwrap();
                        model |= ptn;
                    }
                    "clr" => {
                        sys.tk_clr_flg(flg, ptn).unwrap();
                        model &= ptn;
                    }
                    "wai_or" => {
                        let got = sys.tk_wai_flg(flg, ptn, FlagWaitMode::OR, Timeout::Poll);
                        let expect = model & ptn != 0;
                        match (expect, got) {
                            (true, Ok(rel)) => {
                                if rel != model {
                                    out.push(format!("or release {rel:#x} != model {model:#x}"));
                                }
                            }
                            (false, Err(ErCode::Tmout)) => {}
                            (e, g) => out.push(format!("wai_or({ptn:#x}): expect={e} got={g:?}")),
                        }
                    }
                    "wai_and_clr" => {
                        let got = sys.tk_wai_flg(
                            flg,
                            ptn,
                            FlagWaitMode::AND.with_clear(),
                            Timeout::Poll,
                        );
                        let expect = model & ptn == ptn;
                        match (expect, got) {
                            (true, Ok(_)) => model = 0,
                            (false, Err(ErCode::Tmout)) => {}
                            (e, g) => out.push(format!("wai_and({ptn:#x}): expect={e} got={g:?}")),
                        }
                    }
                    _ => unreachable!(),
                }
                let pattern = sys.tk_ref_flg(flg).unwrap().pattern;
                if pattern != model {
                    out.push(format!("pattern drift kernel={pattern:#x} model={model:#x}"));
                }
            }
        });
        prop_assert!(violations.is_empty(), "{violations:?}");
    }

    /// Variable-pool allocations never overlap, stay in bounds, and all
    /// bytes are recovered after every release (conservation).
    #[test]
    fn mpl_allocations_never_overlap(
        size_q in 4usize..32,
        ops in proptest::collection::vec(
            prop_oneof![
                (1usize..48).prop_map(|sz| (true, sz)),
                (0usize..8).prop_map(|i| (false, i)),
            ],
            1..60,
        ),
    ) {
        let pool_size = size_q * 16;
        let violations = run_in_kernel(move |sys, out| {
            let mpl = sys.tk_cre_mpl("v", pool_size, QueueOrder::Fifo).unwrap();
            let mut live: Vec<(usize, usize)> = Vec::new(); // (addr, size)
            for (is_alloc, arg) in ops {
                if is_alloc {
                    match sys.tk_get_mpl(mpl, arg, Timeout::Poll) {
                        Ok(addr) => {
                            if addr + arg > pool_size {
                                out.push(format!("alloc {arg} at {addr} out of bounds"));
                            }
                            let a0 = addr;
                            let a1 = addr + arg;
                            for (b0, bsz) in &live {
                                let b1 = b0 + bsz;
                                if a0 < b1 && *b0 < a1 {
                                    out.push(format!(
                                        "overlap: new [{a0},{a1}) with [{b0},{b1})"
                                    ));
                                }
                            }
                            live.push((addr, arg));
                        }
                        Err(ErCode::Tmout) | Err(ErCode::Par) => {}
                        Err(e) => out.push(format!("alloc error {e:?}")),
                    }
                } else if !live.is_empty() {
                    let (addr, _) = live.remove(arg % live.len());
                    if sys.tk_rel_mpl(mpl, addr).is_err() {
                        out.push(format!("release of live block {addr} failed"));
                    }
                }
            }
            for (addr, _) in live.drain(..) {
                let _ = sys.tk_rel_mpl(mpl, addr);
            }
            let free = sys.tk_ref_mpl(mpl).unwrap().free;
            if free != pool_size {
                out.push(format!("conservation: free={free} != pool={pool_size}"));
            }
        });
        prop_assert!(violations.is_empty(), "{violations:?}");
    }

    /// Message buffers preserve message boundaries and FIFO order under
    /// random interleaved polling sends/receives (model: a byte-bounded
    /// queue).
    #[test]
    fn mbf_is_fifo_and_bounded(
        bufsz in 8usize..64,
        ops in proptest::collection::vec(
            prop_oneof![
                (1usize..12).prop_map(Some),
                Just(None),
            ],
            1..60,
        ),
    ) {
        let violations = run_in_kernel(move |sys, out| {
            let mbf = sys.tk_cre_mbf("b", bufsz, 16, QueueOrder::Fifo).unwrap();
            let mut model: std::collections::VecDeque<Vec<u8>> = Default::default();
            let mut used = 0usize;
            let mut seq = 0u8;
            for op in ops {
                match op {
                    Some(len) => {
                        let msg: Vec<u8> = (0..len).map(|i| seq.wrapping_add(i as u8)).collect();
                        let fits = used + len <= bufsz;
                        match sys.tk_snd_mbf(mbf, &msg, Timeout::Poll) {
                            Ok(()) => {
                                if !fits {
                                    out.push(format!("send {len} accepted but model full"));
                                }
                                used += len;
                                model.push_back(msg);
                                seq = seq.wrapping_add(1);
                            }
                            Err(ErCode::Tmout) => {
                                if fits {
                                    out.push(format!("send {len} rejected but model has room"));
                                }
                            }
                            Err(e) => out.push(format!("send error {e:?}")),
                        }
                    }
                    None => match sys.tk_rcv_mbf(mbf, Timeout::Poll) {
                        Ok(got) => match model.pop_front() {
                            Some(want) => {
                                if got != want {
                                    out.push(format!("fifo broken: got {got:?} want {want:?}"));
                                }
                                used -= got.len();
                            }
                            None => out.push("recv from empty model".into()),
                        },
                        Err(ErCode::Tmout) => {
                            if !model.is_empty() {
                                out.push("recv timed out but model non-empty".into());
                            }
                        }
                        Err(e) => out.push(format!("recv error {e:?}")),
                    },
                }
            }
        });
        prop_assert!(violations.is_empty(), "{violations:?}");
    }

    /// Whole-simulation determinism: a random multi-task workload run
    /// twice produces byte-identical DS listings and thread statistics.
    #[test]
    fn random_workloads_are_deterministic(
        tasks in proptest::collection::vec((1u8..30, 50u64..800), 2..6),
        horizon_ms in 20u64..80,
    ) {
        fn run(tasks: &[(u8, u64)], horizon_ms: u64) -> (String, String) {
            let tasks = tasks.to_vec();
            let mut rtos = Rtos::new(KernelConfig::paper(), move |sys, _| {
                for (i, (pri, dur)) in tasks.iter().enumerate() {
                    let dur = *dur;
                    let t = sys
                        .tk_cre_tsk(&format!("w{i}"), *pri, move |sys, _| {
                            for _ in 0..8 {
                                sys.exec(SimTime::from_us(dur));
                                if sys.tk_dly_tsk(SimTime::from_ms(2)).is_err() {
                                    return;
                                }
                            }
                        })
                        .unwrap();
                    sys.tk_sta_tsk(t, 0).unwrap();
                }
            });
            rtos.run_until(SimTime::from_ms(horizon_ms));
            let listing = rtos.ds().dump_listing();
            let stats = rtos
                .threads()
                .iter()
                .map(|t| format!("{}:{}:{}", t.name, t.stats.total_cet(), t.stats.cycles))
                .collect::<Vec<_>>()
                .join(",");
            (listing, stats)
        }
        let a = run(&tasks, horizon_ms);
        let b = run(&tasks, horizon_ms);
        prop_assert_eq!(a.0, b.0);
        prop_assert_eq!(a.1, b.1);
    }
}
