//! Execution-time and energy models (ETM / EEM).
//!
//! The paper annotates every firing sequence of a T-THREAD with an
//! execution time model `ETM(S)` and an energy model `EEM(S)`; the
//! authors estimated their annotations for an 8051-class platform. This
//! module provides the [`Energy`]/[`Power`] quantities and a
//! [`CostModel`] with documented defaults calibrated to a 1-MIPS,
//! ~30 mW 8051-class MCU, fully overridable via the builder methods.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Mul, Sub};

use sysc::SimTime;

/// An amount of energy, stored in picojoules.
///
/// 1 pJ granularity lets a 10 Wh battery (3.6 × 10¹⁶ pJ — the Fig. 7
/// scenario) fit comfortably in a `u64`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Energy(u64);

impl Energy {
    /// Zero energy.
    pub const ZERO: Energy = Energy(0);

    /// From picojoules.
    pub const fn from_pj(pj: u64) -> Self {
        Energy(pj)
    }

    /// From nanojoules.
    pub const fn from_nj(nj: u64) -> Self {
        Energy(nj * 1_000)
    }

    /// From microjoules.
    pub const fn from_uj(uj: u64) -> Self {
        Energy(uj * 1_000_000)
    }

    /// From millijoules.
    pub const fn from_mj(mj: u64) -> Self {
        Energy(mj * 1_000_000_000)
    }

    /// From joules.
    pub const fn from_j(j: u64) -> Self {
        Energy(j * 1_000_000_000_000)
    }

    /// From watt-hours (1 Wh = 3600 J); the paper's battery widget
    /// assumes a 10 Wh battery.
    pub const fn from_wh(wh: u64) -> Self {
        Energy(wh * 3_600 * 1_000_000_000_000)
    }

    /// Raw picojoules.
    pub const fn as_pj(self) -> u64 {
        self.0
    }

    /// As fractional joules (reporting only).
    pub fn as_j_f64(self) -> f64 {
        self.0 as f64 / 1e12
    }

    /// As fractional millijoules (reporting only).
    pub fn as_mj_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// `true` if zero.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Saturating subtraction.
    pub const fn saturating_sub(self, rhs: Energy) -> Energy {
        Energy(self.0.saturating_sub(rhs.0))
    }

    /// Checked subtraction.
    pub const fn checked_sub(self, rhs: Energy) -> Option<Energy> {
        match self.0.checked_sub(rhs.0) {
            Some(v) => Some(Energy(v)),
            None => None,
        }
    }
}

impl Add for Energy {
    type Output = Energy;
    fn add(self, rhs: Energy) -> Energy {
        Energy(self.0 + rhs.0)
    }
}

impl AddAssign for Energy {
    fn add_assign(&mut self, rhs: Energy) {
        self.0 += rhs.0;
    }
}

impl Sub for Energy {
    type Output = Energy;
    fn sub(self, rhs: Energy) -> Energy {
        Energy(self.0 - rhs.0)
    }
}

impl Mul<u64> for Energy {
    type Output = Energy;
    fn mul(self, rhs: u64) -> Energy {
        Energy(self.0 * rhs)
    }
}

impl Sum for Energy {
    fn sum<I: Iterator<Item = Energy>>(iter: I) -> Energy {
        iter.fold(Energy::ZERO, |a, b| a + b)
    }
}

impl fmt::Display for Energy {
    /// Renders with the coarsest unit that divides exactly (`3 uJ`,
    /// `1500 pJ`, ...).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let pj = self.0;
        if pj == 0 {
            return write!(f, "0 J");
        }
        const UNITS: [(u64, &str); 5] = [
            (1_000_000_000_000, "J"),
            (1_000_000_000, "mJ"),
            (1_000_000, "uJ"),
            (1_000, "nJ"),
            (1, "pJ"),
        ];
        for (scale, unit) in UNITS {
            if pj.is_multiple_of(scale) {
                return write!(f, "{} {}", pj / scale, unit);
            }
        }
        unreachable!("scale 1 always divides")
    }
}

/// Electrical power, stored in microwatts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Power(u64);

impl Power {
    /// Zero power.
    pub const ZERO: Power = Power(0);

    /// From microwatts.
    pub const fn from_uw(uw: u64) -> Self {
        Power(uw)
    }

    /// From milliwatts.
    pub const fn from_mw(mw: u64) -> Self {
        Power(mw * 1_000)
    }

    /// Raw microwatts.
    pub const fn as_uw(self) -> u64 {
        self.0
    }

    /// As fractional watts (reporting only).
    pub fn as_w_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Energy consumed by dissipating this power for `d`:
    /// `E[pJ] = P[µW] × t[ps] / 10⁶`, saturating at the largest
    /// [`Energy`]. The product is computed in 64-bit when it fits and
    /// in 128-bit otherwise (long simulations at high power), so the
    /// common slice pays no 128-bit division.
    pub fn energy_over(self, d: SimTime) -> Energy {
        let ps = d.as_ps();
        match self.0.checked_mul(ps) {
            Some(product) => Energy(product / 1_000_000),
            None => {
                let pj = (u128::from(self.0) * u128::from(ps)) / 1_000_000;
                Energy(u64::try_from(pj).unwrap_or(u64::MAX))
            }
        }
    }
}

impl fmt::Display for Power {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let uw = self.0;
        if uw == 0 {
            return write!(f, "0 W");
        }
        const UNITS: [(u64, &str); 3] = [(1_000_000, "W"), (1_000, "mW"), (1, "uW")];
        for (scale, unit) in UNITS {
            if uw.is_multiple_of(scale) {
                return write!(f, "{} {}", uw / scale, unit);
            }
        }
        unreachable!("scale 1 always divides")
    }
}

/// A `(time, energy)` execution budget, the unit of ETM/EEM annotation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Cost {
    /// Execution time consumed.
    pub time: SimTime,
    /// Energy consumed (in addition to / instead of power-derived energy).
    pub energy: Energy,
}

impl Cost {
    /// Zero cost.
    pub const ZERO: Cost = Cost {
        time: SimTime::ZERO,
        energy: Energy::ZERO,
    };

    /// A cost with both components.
    pub const fn new(time: SimTime, energy: Energy) -> Self {
        Cost { time, energy }
    }

    /// A pure-time cost (energy derived from the context power rating).
    pub const fn time(time: SimTime) -> Self {
        Cost {
            time,
            energy: Energy::ZERO,
        }
    }

    /// `true` if both components are zero.
    pub const fn is_zero(&self) -> bool {
        self.time.is_zero() && self.energy.is_zero()
    }
}

impl Add for Cost {
    type Output = Cost;
    fn add(self, rhs: Cost) -> Cost {
        Cost {
            time: self.time + rhs.time,
            energy: self.energy + rhs.energy,
        }
    }
}

/// Which kernel service class a cost annotation belongs to (coarse ETM
/// table rows; per µ-ITRON service-call families).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum ServiceClass {
    /// Task management (`tk_cre_tsk`, `tk_sta_tsk`, ...).
    Task,
    /// Task synchronisation (`tk_slp_tsk`, `tk_wup_tsk`, ...).
    TaskSync,
    /// Semaphore operations.
    Semaphore,
    /// Event-flag operations.
    EventFlag,
    /// Mailbox operations.
    Mailbox,
    /// Message-buffer operations.
    MessageBuffer,
    /// Mutex operations.
    Mutex,
    /// Memory-pool operations.
    MemoryPool,
    /// Time management (`tk_set_tim`, cyclic/alarm control, ...).
    Time,
    /// Interrupt management.
    Interrupt,
    /// System management (`tk_ref_sys`, dispatch control, ...).
    System,
}

impl ServiceClass {
    /// Every class in declaration order: `ALL[c as usize] == c`, the
    /// index of the model's cost array.
    pub(crate) const ALL: [ServiceClass; 11] = [
        ServiceClass::Task,
        ServiceClass::TaskSync,
        ServiceClass::Semaphore,
        ServiceClass::EventFlag,
        ServiceClass::Mailbox,
        ServiceClass::MessageBuffer,
        ServiceClass::Mutex,
        ServiceClass::MemoryPool,
        ServiceClass::Time,
        ServiceClass::Interrupt,
        ServiceClass::System,
    ];
}

/// The execution-time / energy model: per-service-class costs, the
/// timer-tick and interrupt entry/exit costs, and the core's
/// active/idle power. A context switch costs nothing: the kernel charges
/// no time for a dispatch.
///
/// Defaults are calibrated to a 1-MIPS 8051-class MCU (12 MHz oscillator,
/// 1 µs machine cycle) running a compact RTOS: a service call costs a few
/// dozen machine cycles, the tick handler ~40 cycles. These are
/// estimates, exactly as the paper's annotations were; calibration
/// against an ISS would refine them (the paper's stated future work).
#[derive(Debug, Clone)]
pub struct CostModel {
    /// Cost of one service call, indexed by `ServiceClass as usize`.
    service_costs: [Cost; ServiceClass::ALL.len()],
    /// Cost of the per-tick timer handler work.
    pub timer_tick: Cost,
    /// Cost of interrupt entry (vectoring + prologue).
    pub int_entry: Cost,
    /// Cost of interrupt return (epilogue + RETI).
    pub int_exit: Cost,
    /// Power drawn while a T-THREAD executes.
    pub active_power: Power,
    /// Power drawn while the CPU idles (no ready task).
    pub idle_power: Power,
}

impl CostModel {
    /// The 8051-class default model described above.
    pub fn mcu_8051() -> Self {
        let us = SimTime::from_us;
        // One machine cycle = 1 µs at 12 MHz; entries are in cycles.
        let cycles = |class| match class {
            ServiceClass::Task => 80,
            ServiceClass::TaskSync => 30,
            ServiceClass::Semaphore => 25,
            ServiceClass::EventFlag => 28,
            ServiceClass::Mailbox => 35,
            ServiceClass::MessageBuffer => 45,
            ServiceClass::Mutex => 30,
            ServiceClass::MemoryPool => 50,
            ServiceClass::Time => 20,
            ServiceClass::Interrupt => 15,
            ServiceClass::System => 10,
        };
        CostModel {
            service_costs: ServiceClass::ALL.map(|class| Cost::time(us(cycles(class)))),
            timer_tick: Cost::time(us(40)),
            int_entry: Cost::time(us(12)),
            int_exit: Cost::time(us(8)),
            active_power: Power::from_mw(30),
            idle_power: Power::from_mw(5),
        }
    }

    /// A zero-cost model: every service is instantaneous and powerless.
    /// Useful for pure-semantics unit tests.
    pub fn zero() -> Self {
        CostModel {
            service_costs: [Cost::ZERO; ServiceClass::ALL.len()],
            timer_tick: Cost::ZERO,
            int_entry: Cost::ZERO,
            int_exit: Cost::ZERO,
            active_power: Power::ZERO,
            idle_power: Power::ZERO,
        }
    }

    /// Cost of one service call in `class` (zero if unset).
    pub fn service(&self, class: ServiceClass) -> Cost {
        self.service_costs[class as usize]
    }

    /// Overrides the cost of a service class (builder style).
    pub fn with_service(mut self, class: ServiceClass, cost: Cost) -> Self {
        self.service_costs[class as usize] = cost;
        self
    }

    /// Overrides the active power (builder style).
    pub fn with_active_power(mut self, p: Power) -> Self {
        self.active_power = p;
        self
    }
}

impl Default for CostModel {
    /// Defaults to [`CostModel::mcu_8051`].
    fn default() -> Self {
        CostModel::mcu_8051()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn energy_units() {
        assert_eq!(Energy::from_nj(1).as_pj(), 1_000);
        assert_eq!(Energy::from_uj(1).as_pj(), 1_000_000);
        assert_eq!(Energy::from_mj(1).as_pj(), 1_000_000_000);
        assert_eq!(Energy::from_j(1).as_pj(), 1_000_000_000_000);
        assert_eq!(Energy::from_wh(1).as_pj(), 3_600_000_000_000_000);
        // A 10 Wh battery fits in u64 picojoules.
        assert_eq!(Energy::from_wh(10).as_pj(), 36_000_000_000_000_000);
    }

    #[test]
    fn power_times_time_is_energy() {
        // 30 mW for 1 ms = 30 µJ.
        let e = Power::from_mw(30).energy_over(SimTime::from_ms(1));
        assert_eq!(e, Energy::from_uj(30));
        // 1 µW for 1 s = 1 µJ.
        let e = Power::from_uw(1).energy_over(SimTime::from_secs(1));
        assert_eq!(e, Energy::from_uj(1));
        // Zero power consumes nothing.
        assert_eq!(
            Power::ZERO.energy_over(SimTime::from_secs(10)),
            Energy::ZERO
        );
    }

    #[test]
    fn energy_display() {
        assert_eq!(Energy::ZERO.to_string(), "0 J");
        assert_eq!(Energy::from_uj(3).to_string(), "3 uJ");
        assert_eq!(Energy::from_pj(1_500).to_string(), "1500 pJ");
        assert_eq!(Power::from_mw(30).to_string(), "30 mW");
        assert_eq!(Power::ZERO.to_string(), "0 W");
    }

    #[test]
    fn energy_arithmetic() {
        let a = Energy::from_nj(5);
        let b = Energy::from_nj(3);
        assert_eq!(a + b, Energy::from_nj(8));
        assert_eq!(a - b, Energy::from_nj(2));
        assert_eq!(a * 2, Energy::from_nj(10));
        assert_eq!(Energy::ZERO.saturating_sub(a), Energy::ZERO);
        assert_eq!(b.checked_sub(a), None);
        let total: Energy = [a, b].into_iter().sum();
        assert_eq!(total, Energy::from_nj(8));
    }

    #[test]
    fn default_model_has_costs() {
        let m = CostModel::default();
        assert!(!m.service(ServiceClass::Semaphore).is_zero());
        assert!(!m.timer_tick.is_zero());
        assert_eq!(m.active_power, Power::from_mw(30));
    }

    #[test]
    fn zero_model_is_free() {
        let m = CostModel::zero();
        assert!(m.service(ServiceClass::Task).is_zero());
        assert!(m.timer_tick.is_zero());
        assert_eq!(m.active_power, Power::ZERO);
    }

    #[test]
    fn class_list_indexes_the_cost_array() {
        for (i, class) in ServiceClass::ALL.into_iter().enumerate() {
            assert_eq!(class as usize, i);
        }
    }

    #[test]
    fn builder_overrides() {
        let m = CostModel::zero()
            .with_service(ServiceClass::Mailbox, Cost::time(SimTime::from_us(99)))
            .with_active_power(Power::from_mw(50));
        assert_eq!(m.service(ServiceClass::Mailbox).time, SimTime::from_us(99));
        assert_eq!(m.active_power, Power::from_mw(50));
    }
}
