//! ETM/EEM calibration against reference measurements — the paper's
//! stated future work: "By cross profiling or calibration against ISS
//! or T-Engine emulation, for a given supported T-Engine platform based
//! architecture, we can raise the accuracy of co-simulation".
//!
//! A [`ReferenceProfile`] holds observed service-call latencies (from an
//! instruction-set simulator, a logic analyser on real hardware, or the
//! T-Engine emulator); [`calibrate`] produces a [`CostModel`] whose
//! annotations match the observations, scaling unobserved classes by the
//! mean correction factor.

use std::collections::HashMap;

use sysc::SimTime;

use crate::cost::{Cost, CostModel, ServiceClass};

/// One observed reference measurement.
#[derive(Debug, Clone, Copy)]
pub struct ReferenceSample {
    /// The service class that was measured.
    pub class: ServiceClass,
    /// Observed execution time of one call.
    pub observed: SimTime,
}

/// A set of reference measurements (repeated observations of the same
/// class are averaged).
#[derive(Debug, Clone, Default)]
pub struct ReferenceProfile {
    samples: Vec<ReferenceSample>,
}

impl ReferenceProfile {
    /// Creates an empty profile.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one observation.
    pub fn observe(&mut self, class: ServiceClass, observed: SimTime) -> &mut Self {
        self.samples.push(ReferenceSample { class, observed });
        self
    }

    /// Number of observations.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// `true` if no observations were recorded.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Mean observed time per class.
    pub fn means(&self) -> HashMap<ServiceClass, SimTime> {
        let mut acc: HashMap<ServiceClass, (u128, u64)> = HashMap::new();
        for s in &self.samples {
            let e = acc.entry(s.class).or_insert((0, 0));
            e.0 += s.observed.as_ps() as u128;
            e.1 += 1;
        }
        acc.into_iter()
            .map(|(c, (sum, n))| (c, SimTime::from_ps((sum / n as u128) as u64)))
            .collect()
    }
}

/// Calibrates `base` against `profile`:
///
/// * every observed class gets its mean observed time (energy scaled by
///   the same per-class factor);
/// * every *unobserved* class is scaled by the geometric-mean-free
///   average correction factor of the observed classes (so a uniformly
///   2×-slower target slows everything 2×);
/// * tick / interrupt entry+exit costs are scaled by the same average
///   factor.
///
/// With an empty profile, returns `base` unchanged.
pub fn calibrate(base: &CostModel, profile: &ReferenceProfile) -> CostModel {
    if profile.is_empty() {
        return base.clone();
    }
    let means = profile.means();
    // Average correction factor over observed classes (in parts per
    // million to stay in integer arithmetic).
    let mut factor_ppm_sum: u128 = 0;
    let mut factor_count: u128 = 0;
    for (class, observed) in &means {
        let model = base.service(*class).time;
        if !model.is_zero() {
            factor_ppm_sum += observed.as_ps() as u128 * 1_000_000 / model.as_ps() as u128;
            factor_count += 1;
        }
    }
    let avg_ppm = factor_ppm_sum
        .checked_div(factor_count)
        .unwrap_or(1_000_000);
    let scale = |t: SimTime| -> SimTime {
        SimTime::from_ps((t.as_ps() as u128 * avg_ppm / 1_000_000) as u64)
    };

    let mut out = base.clone();
    // Observed classes: exact means; per-class energy scaling.
    for (class, observed) in &means {
        let old = base.service(*class);
        let energy = if old.time.is_zero() {
            old.energy
        } else {
            let ppm = observed.as_ps() as u128 * 1_000_000 / old.time.as_ps() as u128;
            crate::cost::Energy::from_pj((old.energy.as_pj() as u128 * ppm / 1_000_000) as u64)
        };
        out = out.with_service(*class, Cost::new(*observed, energy));
    }
    // Unobserved classes + kernel-path costs: average factor.
    for class in ServiceClass::ALL {
        if !means.contains_key(&class) {
            let old = base.service(class);
            out = out.with_service(class, Cost::new(scale(old.time), old.energy));
        }
    }
    out.timer_tick = Cost::new(scale(base.timer_tick.time), base.timer_tick.energy);
    out.int_entry = Cost::new(scale(base.int_entry.time), base.int_entry.energy);
    out.int_exit = Cost::new(scale(base.int_exit.time), base.int_exit.energy);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_profile_is_identity() {
        let base = CostModel::mcu_8051();
        let out = calibrate(&base, &ReferenceProfile::new());
        assert_eq!(
            out.service(ServiceClass::Semaphore).time,
            base.service(ServiceClass::Semaphore).time
        );
        assert_eq!(out.timer_tick.time, base.timer_tick.time);
    }

    #[test]
    fn observed_class_gets_exact_mean() {
        let base = CostModel::mcu_8051();
        let mut p = ReferenceProfile::new();
        p.observe(ServiceClass::Semaphore, SimTime::from_us(50));
        p.observe(ServiceClass::Semaphore, SimTime::from_us(100));
        let out = calibrate(&base, &p);
        assert_eq!(
            out.service(ServiceClass::Semaphore).time,
            SimTime::from_us(75)
        );
    }

    #[test]
    fn unobserved_classes_scale_by_average_factor() {
        let base = CostModel::mcu_8051();
        // Semaphore observed exactly 2x the model: everything else
        // should double.
        let model_sem = base.service(ServiceClass::Semaphore).time;
        let mut p = ReferenceProfile::new();
        p.observe(ServiceClass::Semaphore, model_sem * 2);
        let out = calibrate(&base, &p);
        assert_eq!(
            out.service(ServiceClass::Mailbox).time,
            base.service(ServiceClass::Mailbox).time * 2
        );
        assert_eq!(out.timer_tick.time, base.timer_tick.time * 2);
        assert_eq!(out.int_entry.time, base.int_entry.time * 2);
    }

    #[test]
    fn energy_scales_with_observed_time() {
        let base = CostModel::mcu_8051().with_service(
            ServiceClass::Mutex,
            Cost::new(SimTime::from_us(10), crate::cost::Energy::from_nj(100)),
        );
        let mut p = ReferenceProfile::new();
        p.observe(ServiceClass::Mutex, SimTime::from_us(20));
        let out = calibrate(&base, &p);
        assert_eq!(out.service(ServiceClass::Mutex).time, SimTime::from_us(20));
        assert_eq!(
            out.service(ServiceClass::Mutex).energy,
            crate::cost::Energy::from_nj(200)
        );
    }

    #[test]
    fn profile_bookkeeping() {
        let mut p = ReferenceProfile::new();
        assert!(p.is_empty());
        p.observe(ServiceClass::Time, SimTime::from_us(5))
            .observe(ServiceClass::Time, SimTime::from_us(7));
        assert_eq!(p.len(), 2);
        assert_eq!(p.means()[&ServiceClass::Time], SimTime::from_us(6));
    }
}
