//! Graphviz DOT export of a circuit graph with partition colouring —
//! the quickest way to *see* what a partitioner did to a circuit.

use crate::graph::CircuitGraph;
use crate::partitioning::Partitioning;

/// Palette of visually distinct fill colours (cycled for k > 12).
const PALETTE: [&str; 12] = [
    "#8dd3c7", "#ffffb3", "#bebada", "#fb8072", "#80b1d3", "#fdb462", "#b3de69", "#fccde5",
    "#d9d9d9", "#bc80bd", "#ccebc5", "#ffed6f",
];

/// Render the graph as DOT. When a partitioning is given, vertices are
/// filled by partition and cut edges drawn dashed red. Intended for small
/// circuits (hundreds of vertices) — graphviz will not enjoy s15850.
pub fn to_dot(
    g: &CircuitGraph,
    partitioning: Option<&Partitioning>,
    names: Option<&[String]>,
) -> String {
    let mut out = String::from("digraph circuit {\n  rankdir=LR;\n  node [style=filled];\n");
    for v in g.vertices() {
        let label =
            names.and_then(|n| n.get(v as usize)).cloned().unwrap_or_else(|| format!("v{v}"));
        let shape = if g.is_input(v) { "invtriangle" } else { "box" };
        let color =
            partitioning.map(|p| PALETTE[p.part(v) as usize % PALETTE.len()]).unwrap_or("#ffffff");
        out.push_str(&format!(
            "  n{v} [label=\"{label}\", shape={shape}, fillcolor=\"{color}\"];\n"
        ));
    }
    for v in g.vertices() {
        for &(w, ew) in g.fanout(v) {
            let cut = partitioning.map(|p| p.part(v) != p.part(w)).unwrap_or(false);
            let attrs = if cut {
                " [color=red, style=dashed]".to_string()
            } else if ew > 1 {
                format!(" [label=\"{ew}\"]")
            } else {
                String::new()
            };
            out.push_str(&format!("  n{v} -> n{w}{attrs};\n"));
        }
    }
    out.push_str("}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baselines::RandomPartitioner;
    use crate::Partitioner;
    use pls_netlist::IscasSynth;

    fn small_graph() -> CircuitGraph {
        CircuitGraph::from_netlist(&IscasSynth::small(30, 2).build())
    }

    #[test]
    fn dot_contains_all_vertices_and_edges() {
        let g = small_graph();
        let dot = to_dot(&g, None, None);
        assert!(dot.starts_with("digraph"));
        for v in g.vertices() {
            assert!(dot.contains(&format!("n{v} [")));
        }
        let edge_lines = dot.lines().filter(|l| l.contains("->")).count();
        assert_eq!(edge_lines, g.num_edges());
    }

    #[test]
    fn partitioned_dot_marks_cut_edges() {
        let g = small_graph();
        let p = RandomPartitioner.partition(&g, 3, 0);
        let dot = to_dot(&g, Some(&p), None);
        let cut = crate::metrics::edge_cut(&g, &p);
        let dashed = dot.lines().filter(|l| l.contains("style=dashed")).count() as u64;
        // Each cut edge carries its full weight in metrics; dashed lines
        // count distinct edges, so dashed <= cut always and > 0 for a
        // random 3-way split of a connected graph.
        assert!(dashed > 0);
        assert!(dashed <= cut);
        assert!(dot.contains("fillcolor=\"#8dd3c7\""));
    }

    #[test]
    fn names_appear_when_given() {
        let netlist = pls_netlist::data::c17();
        let g = CircuitGraph::from_netlist(&netlist);
        let names: Vec<String> = netlist.gates().map(|gate| gate.name.to_string()).collect();
        let dot = to_dot(&g, None, Some(&names));
        assert!(dot.contains("label=\"22\""));
    }
}
