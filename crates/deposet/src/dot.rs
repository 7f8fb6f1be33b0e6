//! Graphviz (DOT) rendering of deposets as space-time diagrams.
//!
//! The output mirrors the paper's figures: one horizontal rank per process,
//! `im` edges along the rank, message arrows across ranks, and (optionally)
//! control edges `C→` drawn dashed. Handy when debugging the debugger.

use crate::model::Deposet;
use pctl_causality::StateId;
use std::fmt::Write as _;

/// Options for DOT rendering.
#[derive(Clone, Debug, Default)]
pub struct DotOptions {
    /// Extra (dashed) edges to draw, e.g. a control relation.
    pub extra_edges: Vec<(StateId, StateId)>,
    /// Mark these states (peripheries=2), e.g. violating global states.
    pub highlights: Vec<StateId>,
    /// Include the variable assignment in each node label.
    pub show_vars: bool,
}

fn node_name(s: StateId) -> String {
    format!("p{}s{}", s.process.0, s.index)
}

/// Render `dep` to DOT.
pub fn to_dot(dep: &Deposet, opts: &DotOptions) -> String {
    let mut out = String::new();
    out.push_str("digraph deposet {\n  rankdir=LR;\n  node [shape=box, fontsize=10];\n");
    for p in dep.processes() {
        let _ = writeln!(
            out,
            "  subgraph cluster_p{} {{\n    label=\"P{}\";",
            p.0, p.0
        );
        for (k, st) in dep.states_of(p).iter().enumerate() {
            let id = StateId::new(p, k as u32);
            let mut label = match &st.label {
                Some(l) => l.to_string(),
                None => format!("{}:{}", p.0, k),
            };
            if opts.show_vars {
                let vars: Vec<String> = st.vars.iter().map(|(n, v)| format!("{n}={v}")).collect();
                if !vars.is_empty() {
                    let _ = write!(label, "\\n{}", vars.join(","));
                }
            }
            let peripheries = if opts.highlights.contains(&id) { 2 } else { 1 };
            let _ = writeln!(
                out,
                "    {} [label=\"{}\", peripheries={}];",
                node_name(id),
                label,
                peripheries
            );
        }
        // im edges
        for k in 0..dep.len_of(p).saturating_sub(1) {
            let _ = writeln!(
                out,
                "    {} -> {};",
                node_name(StateId::new(p, k as u32)),
                node_name(StateId::new(p, k as u32 + 1))
            );
        }
        out.push_str("  }\n");
    }
    for m in dep.messages() {
        let _ = writeln!(
            out,
            "  {} -> {} [color=blue, label=\"{}\"];",
            node_name(m.from),
            node_name(m.to),
            m.tag
        );
    }
    for (a, b) in &opts.extra_edges {
        let _ = writeln!(
            out,
            "  {} -> {} [style=dashed, color=red, label=\"C\"];",
            node_name(*a),
            node_name(*b)
        );
    }
    out.push_str("}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::DeposetBuilder;
    use pctl_causality::ProcessId;

    #[test]
    fn dot_contains_nodes_edges_and_messages() {
        let mut b = DeposetBuilder::new(2);
        b.label(0, "a");
        let t = b.send(0, "req");
        b.recv(1, t, &[]);
        let d = b.finish().unwrap();
        let dot = to_dot(&d, &DotOptions::default());
        assert!(dot.contains("digraph deposet"));
        assert!(dot.contains("p0s0 -> p0s1;"), "im edge present");
        assert!(dot.contains("p0s0 -> p1s1 [color=blue, label=\"req\"];"));
        assert!(dot.contains("label=\"a\""), "state label used");
    }

    #[test]
    fn dot_renders_control_edges_and_highlights() {
        let mut b = DeposetBuilder::new(2);
        b.internal(0, &[("x", 3)]);
        b.internal(1, &[]);
        let d = b.finish().unwrap();
        let opts = DotOptions {
            extra_edges: vec![(StateId::new(ProcessId(1), 0), StateId::new(ProcessId(0), 1))],
            highlights: vec![StateId::new(ProcessId(0), 1)],
            show_vars: true,
        };
        let dot = to_dot(&d, &opts);
        assert!(dot.contains("p1s0 -> p0s1 [style=dashed"));
        assert!(dot.contains("peripheries=2"));
        assert!(dot.contains("x=3"));
    }
}
