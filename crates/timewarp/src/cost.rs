//! CPU and network cost model for the virtual platform.
//!
//! The paper ran on dual-Pentium-II workstations connected by Fast
//! Ethernet, simulating VHDL processes through a C++ kernel — a regime
//! where one event execution costs tens of microseconds and one network
//! message costs hundreds. The defaults below reproduce those *ratios*
//! (message ≈ 6× event execution, rollback ≈ 2× with a per-undone-event
//! surcharge); absolute values only scale the time axis.

/// Cost model in nanoseconds of modeled CPU/wire time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CostModel {
    /// Executing one application event inside the Time Warp kernel
    /// (gate evaluation + queue bookkeeping).
    pub event_exec_ns: u64,
    /// Fixed per-batch scheduling overhead.
    pub batch_overhead_ns: u64,
    /// Saving one state checkpoint.
    pub state_save_ns: u64,
    /// Fixed cost of a rollback (queue surgery, state restore).
    pub rollback_ns: u64,
    /// Additional cost per rolled-back event (unprocessing + coast-forward).
    pub undo_per_event_ns: u64,
    /// Sender CPU cost of pushing one message onto the network.
    pub msg_send_ns: u64,
    /// Receiver CPU cost of pulling one message off the network.
    pub msg_recv_ns: u64,
    /// Wire latency between any two nodes.
    pub net_latency_ns: u64,
    /// Ingress serialization: each arriving message occupies the receiving
    /// node's link for this long, so bursts queue up (Fast-Ethernet frame
    /// time + interrupt handling). Models congestion: message-heavy
    /// partitionings see delivery delayed under load, still in send order
    /// at each node.
    pub msg_wire_ns: u64,
    /// Inserting an event into a local (same-node) LP's queue.
    pub local_enqueue_ns: u64,
    /// Per-node cost of one GVT round (token handling + collection).
    pub gvt_round_ns: u64,
    /// Per-event cost of the *sequential* kernel (no Time Warp overhead:
    /// no state saving, no output queue).
    pub seq_event_ns: u64,
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel::pentium_ii_fast_ethernet()
    }
}

impl CostModel {
    /// The paper's platform class: ~300 MHz CPUs, C++ VHDL kernel,
    /// 100 Mb/s switched Ethernet with TCP.
    pub fn pentium_ii_fast_ethernet() -> CostModel {
        CostModel {
            event_exec_ns: 120_000,
            batch_overhead_ns: 10_000,
            state_save_ns: 10_000,
            rollback_ns: 80_000,
            undo_per_event_ns: 20_000,
            msg_send_ns: 45_000,
            msg_recv_ns: 45_000,
            net_latency_ns: 90_000,
            msg_wire_ns: 30_000,
            local_enqueue_ns: 4_000,
            gvt_round_ns: 200_000,
            seq_event_ns: 85_000,
        }
    }

    /// A modern-cluster profile (fast CPUs, fast interconnect): events
    /// ~50× cheaper, messages ~40× cheaper. Useful for sensitivity
    /// studies — the partitioning crossovers move when the
    /// communication-to-computation ratio changes.
    pub fn modern_cluster() -> CostModel {
        CostModel {
            event_exec_ns: 700,
            batch_overhead_ns: 150,
            state_save_ns: 120,
            rollback_ns: 1_500,
            undo_per_event_ns: 250,
            msg_send_ns: 1_200,
            msg_recv_ns: 1_200,
            net_latency_ns: 2_500,
            msg_wire_ns: 300,
            local_enqueue_ns: 80,
            gvt_round_ns: 5_000,
            seq_event_ns: 500,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_paper_platform() {
        assert_eq!(CostModel::default(), CostModel::pentium_ii_fast_ethernet());
    }

    /// Total cost of one remote message, in nanoseconds.
    fn comm_ns(c: &CostModel) -> u64 {
        c.msg_send_ns + c.net_latency_ns + c.msg_wire_ns + c.msg_recv_ns
    }

    #[test]
    fn paper_platform_is_communication_dominated() {
        let c = CostModel::pentium_ii_fast_ethernet();
        // 1.2 < comm / exec < 4
        assert!(5 * comm_ns(&c) > 6 * c.event_exec_ns && comm_ns(&c) < 4 * c.event_exec_ns);
    }

    #[test]
    fn modern_cluster_is_cheaper_but_similar_ratio() {
        let pii = CostModel::pentium_ii_fast_ethernet();
        let new = CostModel::modern_cluster();
        assert!(new.event_exec_ns < pii.event_exec_ns / 10);
        assert!(comm_ns(&new) > 2 * new.event_exec_ns);
    }
}
