//! Oracles shared by the core property tests: the controlled computation's
//! orders as explicit graphs, and its consistent cuts by definition.

// Each test binary uses its own subset.
#![allow(dead_code)]

use pctl_causality::Dag;
use pctl_core::ControlRelation;
use pctl_deposet::{lattice, Deposet, GlobalState};

/// The local chains `im` as an explicit graph over the flat rows
/// `offsets[p] + k`.
pub fn chains(dep: &Deposet) -> Dag {
    let mut g = Dag::new(dep.total_states());
    for p in dep.processes() {
        let base = dep.offsets()[p.index()];
        for k in 0..dep.len_of(p) - 1 {
            g.add_edge(base + k, base + k + 1);
        }
    }
    g
}

/// The extended relation `im ∪ ; ∪ C→` as an explicit graph.
pub fn extended_dag(dep: &Deposet, rel: &ControlRelation) -> Dag {
    let mut g = chains(dep);
    for m in dep.messages() {
        g.add_edge(dep.row_of(m.from), dep.row_of(m.to));
    }
    for &(x, y) in rel.pairs() {
        g.add_edge(dep.row_of(x), dep.row_of(y));
    }
    g
}

/// The same relation as an order on *events*: the node of state `s` is the
/// event entering it, and `x ; y` or `x C→ y` orders the event leaving `x`
/// (the one entering its successor) before the event entering `y`. A final
/// state has no leaving event, so its control pairs add no edge. A relation
/// can be acyclic on states and still cyclic here: state `x` may reach its
/// own successor through other processes. Such a relation is unrealizable,
/// and the cuts past the event cycle are consistent yet unreachable.
pub fn event_dag(dep: &Deposet, rel: &ControlRelation) -> Dag {
    let mut g = chains(dep);
    let arrows = dep.messages().iter().map(|m| (m.from, m.to));
    for (x, y) in arrows.chain(rel.pairs().iter().copied()) {
        let exit = x.successor();
        if dep.contains(exit) && exit != y {
            g.add_edge(dep.row_of(exit), dep.row_of(y));
        }
    }
    g
}

/// The consistent cuts of `dep` under `rel`, by definition and without
/// the controlled store: the base lattice walk, keeping the cuts whose
/// states the explicit closure of chains, messages and control pairs
/// leaves pairwise unordered. `None` when that closure is cyclic.
pub fn controlled_cuts(dep: &Deposet, rel: &ControlRelation) -> Option<Vec<GlobalState>> {
    let reach = extended_dag(dep, rel).transitive_closure().ok()?;
    let unordered = |g: &GlobalState| {
        g.states().all(|s| {
            g.states()
                .all(|t| s == t || !reach.reaches(dep.row_of(s), dep.row_of(t)))
        })
    };
    let mut cuts: Vec<GlobalState> = lattice::consistent_global_states(dep, 1_000_000)
        .unwrap()
        .into_iter()
        .filter(unordered)
        .collect();
    cuts.sort();
    Some(cuts)
}

/// The component-wise minimum of `cuts`, `None` when there are none.
pub fn meet<'a>(cuts: impl IntoIterator<Item = &'a GlobalState>) -> Option<GlobalState> {
    cuts.into_iter()
        .map(|g| g.indices().to_vec())
        .reduce(|m, g| m.iter().zip(&g).map(|(a, b)| *a.min(b)).collect())
        .map(GlobalState::from_indices)
}
