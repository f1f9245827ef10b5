//! Shared helpers for the partitioning algorithms: graph traversal orders
//! and weight-balanced assignment primitives.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use crate::graph::{CircuitGraph, VertexId};
use crate::partitioning::Partitioning;

/// Depth-first order over the fanout relation, rooted at the input
/// vertices (declaration order), falling back to unvisited vertices in id
/// order. Works on any [`CircuitGraph`], including coarsened ones.
pub fn dfs_order(g: &CircuitGraph) -> Vec<VertexId> {
    let n = g.len();
    let mut visited = vec![false; n];
    let mut order = Vec::with_capacity(n);
    let mut stack = Vec::new();

    let roots = g.input_vertices().into_iter().chain(g.vertices());
    for root in roots {
        if visited[root as usize] {
            continue;
        }
        visited[root as usize] = true;
        stack.push(root);
        while let Some(v) = stack.pop() {
            order.push(v);
            for &(w, _) in g.fanout(v).iter().rev() {
                if !visited[w as usize] {
                    visited[w as usize] = true;
                    stack.push(w);
                }
            }
        }
    }
    order
}

/// Breadth-first order over the fanout relation, all input vertices seeding
/// the initial frontier; unvisited vertices become fresh roots.
pub fn bfs_order(g: &CircuitGraph) -> Vec<VertexId> {
    let n = g.len();
    let mut visited = vec![false; n];
    let mut order = Vec::with_capacity(n);
    let mut queue = std::collections::VecDeque::new();

    for v in g.input_vertices() {
        visited[v as usize] = true;
        queue.push_back(v);
    }
    loop {
        while let Some(v) = queue.pop_front() {
            order.push(v);
            for &(w, _) in g.fanout(v) {
                if !visited[w as usize] {
                    visited[w as usize] = true;
                    queue.push_back(w);
                }
            }
        }
        match g.vertices().find(|&v| !visited[v as usize]) {
            Some(v) => {
                visited[v as usize] = true;
                queue.push_back(v);
            }
            None => break,
        }
    }
    order
}

/// Split an ordered vertex list into `k` contiguous, weight-balanced
/// blocks: block boundaries fall where the running weight passes the next
/// multiple of `total/k`.
pub fn contiguous_blocks(g: &CircuitGraph, order: &[VertexId], k: usize) -> Partitioning {
    let total = g.total_weight();
    let mut assignment = vec![0u32; g.len()];
    let mut acc = 0u64;
    for &v in order {
        // Block index by the weight midpoint of this vertex, clamped.
        let mid = acc + g.vweight(v) / 2;
        let p = ((mid as u128 * k as u128) / total.max(1) as u128) as u32;
        assignment[v as usize] = p.min(k as u32 - 1);
        acc += g.vweight(v);
    }
    Partitioning::new(k, assignment)
}

/// Index of the least-loaded partition (ties → lowest index).
pub fn lightest(loads: &[u64]) -> u32 {
    let mut best = 0;
    for (i, &l) in loads.iter().enumerate() {
        if l < loads[best] {
            best = i;
        }
    }
    best as u32
}

/// A seeded shuffled copy of all vertex ids.
pub fn shuffled_vertices(g: &CircuitGraph, seed: u64) -> Vec<VertexId> {
    let mut ids: Vec<VertexId> = g.vertices().collect();
    let mut rng = StdRng::seed_from_u64(seed);
    ids.shuffle(&mut rng);
    ids
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chain(n: usize) -> CircuitGraph {
        let fanout = (0..n)
            .map(|i| if i + 1 < n { vec![((i + 1) as VertexId, 1)] } else { vec![] })
            .collect();
        let mut is_input = vec![false; n];
        is_input[0] = true;
        CircuitGraph::from_parts("chain".into(), vec![1; n], fanout, is_input)
    }

    #[test]
    fn dfs_on_chain_is_sequential() {
        let g = chain(5);
        assert_eq!(dfs_order(&g), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn bfs_on_chain_is_sequential() {
        let g = chain(5);
        assert_eq!(bfs_order(&g), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn contiguous_blocks_balance_unit_weights() {
        let g = chain(8);
        let order: Vec<VertexId> = (0..8).collect();
        let p = contiguous_blocks(&g, &order, 4);
        assert_eq!(p.sizes(), vec![2, 2, 2, 2]);
        // Blocks are contiguous in the order.
        assert_eq!(p.assignment, vec![0, 0, 1, 1, 2, 2, 3, 3]);
    }

    #[test]
    fn contiguous_blocks_handle_uneven_weights() {
        let g = CircuitGraph::from_parts(
            "w".into(),
            vec![4, 1, 1, 1, 1],
            vec![vec![], vec![], vec![], vec![], vec![]],
            vec![true, false, false, false, false],
        );
        let order: Vec<VertexId> = (0..5).collect();
        let p = contiguous_blocks(&g, &order, 2);
        // Heavy vertex alone ≈ half the weight.
        assert_eq!(p.part(0), 0);
        assert_eq!(p.part(4), 1);
        let loads = p.loads(&g);
        assert!(loads.iter().all(|&l| (3..=5).contains(&l)), "{loads:?}");
    }

    #[test]
    fn lightest_breaks_ties_low() {
        assert_eq!(lightest(&[3, 1, 1]), 1);
        assert_eq!(lightest(&[0, 0]), 0);
    }

    #[test]
    fn shuffle_is_seeded() {
        let g = chain(20);
        assert_eq!(shuffled_vertices(&g, 9), shuffled_vertices(&g, 9));
        assert_ne!(shuffled_vertices(&g, 9), shuffled_vertices(&g, 10));
    }
}
