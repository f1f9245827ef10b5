//! Kernel configuration knobs.

/// How rolled-back output events are cancelled.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Cancellation {
    /// Send anti-messages immediately on rollback (Jefferson's original
    /// scheme; WARPED's default).
    #[default]
    Aggressive,
    /// Hold anti-messages back: if re-execution regenerates an identical
    /// event, both are dropped ("lazy cancellation"); an anti-message goes
    /// out only once the LP's local clock passes the held event's send
    /// time without regenerating it.
    Lazy,
}

/// Configuration shared by the optimistic executives.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KernelConfig {
    /// Cancellation strategy.
    pub cancellation: Cancellation,
    /// Save LP state every `checkpoint_interval` event batches (1 = every
    /// batch; larger values trade rollback cost — coast-forward
    /// re-execution — for state-queue memory).
    pub checkpoint_interval: u32,
    /// Trigger a GVT round every `gvt_period` executed batches per
    /// cluster/node — or earlier, once a cluster has filed
    /// [`CHECKPOINT_HEAP_BUDGET`] bytes of checkpoint heap.
    pub gvt_period: u64,
    /// Bounded-window optimism control: when set, an LP may only execute
    /// events with `recv_time <= GVT + window` (using the last computed
    /// GVT). `None` is pure, unthrottled Time Warp — the paper's setting.
    /// Throttling trades idle time for fewer rollbacks; the window is
    /// measured in virtual-time units. Honoured by the virtual-platform
    /// and threaded executives.
    pub window: Option<u64>,
}

/// Bytes of checkpoint heap ([`crate::Application::heap_bytes`]) one
/// cluster may file between two commits before it makes a GVT round due,
/// whatever `gvt_period` says. A thin LP files next to none — a gate
/// checkpoint is a flat copy unless the gate is a primary input or wider
/// than 32 pins — so gate-per-LP runs keep the batch cadence alone; a fat
/// LP (a compiled block) files kilobytes per batch, and without this its
/// whole uncommitted history stays pinned until the batch count comes
/// round. 1 MiB per cluster: every thin-LP run measured stays far below
/// it (under 6 KB between commits), while fat-LP runs that filed tens of
/// megabytes now commit every megabyte (DESIGN.md §2.4).
pub const CHECKPOINT_HEAP_BUDGET: usize = 1 << 20;

impl Default for KernelConfig {
    fn default() -> Self {
        KernelConfig {
            cancellation: Cancellation::Aggressive,
            checkpoint_interval: 1,
            gvt_period: 512,
            window: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        let c = KernelConfig::default();
        assert_eq!(c.cancellation, Cancellation::Aggressive);
        assert_eq!(c.checkpoint_interval, 1);
        assert!(c.gvt_period > 0);
    }
}
