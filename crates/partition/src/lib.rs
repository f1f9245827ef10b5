//! Circuit partitioning for parallel logic simulation.
//!
//! The six strategies of the IPPS 2000 study (Subramanian, Rao & Wilsey):
//! [`RandomPartitioner`], [`TopologicalPartitioner`], [`DfsPartitioner`],
//! [`ClusterPartitioner`] (breadth-first), [`ConePartitioner`]
//! (fanout-cone) and the paper's contribution, the three-phase
//! [`MultilevelPartitioner`] — and partition quality [`metrics`].
//!
//! # Example
//!
//! ```
//! use pls_netlist::IscasSynth;
//! use pls_partition::{CircuitGraph, MultilevelPartitioner, Partitioner, metrics};
//!
//! let netlist = IscasSynth::small(200, 1).build();
//! let graph = CircuitGraph::from_netlist(&netlist);
//! let part = MultilevelPartitioner.partition(&graph, 4, 0);
//! assert!(part.is_valid_for(&graph));
//! let q = metrics::quality(&graph, &part);
//! assert!(q.imbalance < 1.15);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]
#![deny(missing_debug_implementations)]

pub mod baselines;
pub mod dot;
pub mod graph;
pub mod metrics;
pub mod multilevel;
pub mod partitioning;
pub mod replicate;
pub mod util;

pub use baselines::{
    ClusterPartitioner, ConePartitioner, DfsPartitioner, RandomPartitioner, TopologicalPartitioner,
};
pub use dot::to_dot;
pub use graph::{CircuitGraph, VertexId};
pub use multilevel::{MultilevelPartitioner, MultilevelReport};
pub use partitioning::Partitioning;
pub use replicate::{plan_replication, Replica, ReplicaPlan, ReplicationConfig};

/// A circuit partitioning strategy: split a weighted circuit graph into
/// `k` parts. Implementations must be deterministic given `(g, k, seed)`.
pub trait Partitioner {
    /// Display name used in reports (matches the paper's legends).
    fn name(&self) -> &'static str;

    /// Compute a k-way partitioning. `seed` drives any internal
    /// randomness; deterministic algorithms ignore it.
    fn partition(&self, g: &CircuitGraph, k: usize, seed: u64) -> Partitioning;
}

/// All registered strategies: the six of the study in the paper's
/// presentation order (Table 2 column order: Random, DFS, Cluster,
/// Topological, Multilevel, Cone).
pub fn all_partitioners() -> Vec<Box<dyn Partitioner + Send + Sync>> {
    vec![
        Box::new(RandomPartitioner),
        Box::new(DfsPartitioner),
        Box::new(ClusterPartitioner),
        Box::new(TopologicalPartitioner),
        Box::new(MultilevelPartitioner),
        Box::new(ConePartitioner),
    ]
}

/// Look a strategy up by its display name (case-insensitive).
pub fn partitioner_by_name(name: &str) -> Option<Box<dyn Partitioner + Send + Sync>> {
    all_partitioners().into_iter().find(|p| p.name().eq_ignore_ascii_case(name))
}

/// Display names of all registered strategies, in registry order — for
/// "unknown strategy" error messages.
pub fn partitioner_names() -> Vec<&'static str> {
    all_partitioners().iter().map(|p| p.name()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_has_six_strategies() {
        let all = all_partitioners();
        assert_eq!(all.len(), 6);
        let names: Vec<&str> = all.iter().map(|p| p.name()).collect();
        assert_eq!(
            names,
            vec!["Random", "DFS", "Cluster", "Topological", "Multilevel", "ConePartition"]
        );
    }

    #[test]
    fn names_cover_registry() {
        for n in partitioner_names() {
            assert!(partitioner_by_name(n).is_some(), "{n}");
        }
    }

    #[test]
    fn lookup_by_name() {
        assert!(partitioner_by_name("multilevel").is_some());
        assert!(partitioner_by_name("Random").is_some());
        assert!(partitioner_by_name("replicated").is_none());
        assert!(partitioner_by_name("metis").is_none());
    }
}
