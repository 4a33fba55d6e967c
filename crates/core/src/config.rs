//! Kernel configuration.

use sysc::SimTime;

use crate::cost::CostModel;

/// Task priority: `1` is highest, [`KernelConfig::max_priority`] lowest
/// (T-Kernel convention; the standard range is 1..=140).
pub type Priority = u8;

/// Static configuration of an RTK-Spec TRON kernel instance.
#[derive(Debug, Clone)]
pub struct KernelConfig {
    /// System tick period (the paper's BFM real-time clock default is
    /// 1 ms).
    pub tick: SimTime,
    /// Lowest (numerically largest) usable task priority. T-Kernel
    /// specifies 140 levels.
    pub max_priority: Priority,
    /// Priority of the initialization task started by the Boot module.
    pub init_task_priority: Priority,
    /// Maximum queued wakeup requests per task (`tk_wup_tsk` beyond this
    /// returns `E_QOVR`).
    pub max_wakeup_count: u32,
    /// Maximum nested suspend requests per task.
    pub max_suspend_count: u32,
    /// The execution-time / energy model.
    pub cost: CostModel,
    /// Simulated boot (kernel initialization) duration consumed by the
    /// Boot module before the init task runs.
    pub boot_cost: SimTime,
}

impl KernelConfig {
    /// Paper-faithful configuration: 1 ms tick, 140 priorities, the
    /// 8051-class cost model.
    pub fn paper() -> Self {
        KernelConfig {
            tick: SimTime::from_ms(1),
            max_priority: 140,
            init_task_priority: 1,
            max_wakeup_count: 127,
            max_suspend_count: 127,
            cost: CostModel::mcu_8051(),
            boot_cost: SimTime::from_us(500),
        }
    }

    /// Zero-cost configuration for semantics-focused tests: 1 ms tick but
    /// free service calls, ticks, interrupt entry/exit and boot.
    pub fn zero_cost() -> Self {
        KernelConfig {
            cost: CostModel::zero(),
            boot_cost: SimTime::ZERO,
            ..KernelConfig::paper()
        }
    }

    /// Overrides the tick period (builder style).
    pub fn with_tick(mut self, tick: SimTime) -> Self {
        assert!(!tick.is_zero(), "tick period must be non-zero");
        self.tick = tick;
        self
    }

    /// Overrides the cost model (builder style).
    pub fn with_cost(mut self, cost: CostModel) -> Self {
        self.cost = cost;
        self
    }
}

impl Default for KernelConfig {
    /// Defaults to [`KernelConfig::paper`].
    fn default() -> Self {
        KernelConfig::paper()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_defaults() {
        let c = KernelConfig::paper();
        assert_eq!(c.tick, SimTime::from_ms(1));
        assert_eq!(c.max_priority, 140);
        assert!(!c.cost.timer_tick.is_zero());
    }

    #[test]
    fn zero_cost_is_free_but_keeps_tick() {
        let c = KernelConfig::zero_cost();
        assert_eq!(c.tick, SimTime::from_ms(1));
        assert!(c.cost.timer_tick.is_zero());
        assert!(c.boot_cost.is_zero());
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_tick_rejected() {
        let _ = KernelConfig::paper().with_tick(SimTime::ZERO);
    }
}
