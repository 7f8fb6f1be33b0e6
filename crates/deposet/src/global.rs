//! Global states of a deposet, their consistency, and the lattice order.
//!
//! A global state picks exactly one local state per process. It is
//! *consistent* iff its members are pairwise concurrent — equivalently, iff
//! it is a down-set cut of `(S, →)`. The set of consistent global states
//! ordered component-wise (`G ≤ H ⇔ ∀i: G[i] ≼ H[i]`) forms a lattice
//! (Mattern \[8]); the paper's global sequences are paths through this
//! lattice that advance a (possibly empty-stuttered) subset of processes per
//! step.

use crate::causal::CausalStore;
use crate::model::Deposet;
use pctl_causality::{ProcessId, StateId};
use serde::{Deserialize, Serialize};
use std::fmt;

/// A global state: for each process, the index of its local state.
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
#[serde(transparent)]
pub struct GlobalState {
    cut: Vec<u32>,
}

impl GlobalState {
    /// The initial global state `⊥ = (⊥₁, …, ⊥ₙ)`.
    pub fn initial(n: usize) -> Self {
        GlobalState { cut: vec![0; n] }
    }

    /// The final global state `⊤ = (⊤₁, …, ⊤ₙ)` of `dep`.
    pub fn final_of(dep: &Deposet) -> Self {
        GlobalState {
            cut: dep.processes().map(|p| dep.top(p).index).collect(),
        }
    }

    /// Build from explicit per-process state indices.
    pub fn from_indices(cut: Vec<u32>) -> Self {
        GlobalState { cut }
    }

    /// Number of processes.
    #[inline]
    pub fn arity(&self) -> usize {
        self.cut.len()
    }

    /// The state index of process `p` (the paper's `G[i]`).
    #[inline]
    pub fn index_of(&self, p: ProcessId) -> u32 {
        self.cut[p.index()]
    }

    /// The state id of process `p` within this global state.
    #[inline]
    pub fn state_of(&self, p: ProcessId) -> StateId {
        StateId {
            process: p,
            index: self.cut[p.index()],
        }
    }

    /// All member state ids.
    pub fn states(&self) -> impl Iterator<Item = StateId> + '_ {
        self.cut
            .iter()
            .enumerate()
            .map(|(p, &k)| StateId::new(p, k))
    }

    /// Raw indices.
    pub fn indices(&self) -> &[u32] {
        &self.cut
    }

    /// Lattice order `self ≤ other` (component-wise).
    pub fn leq(&self, other: &GlobalState) -> bool {
        self.cut.len() == other.cut.len() && self.cut.iter().zip(&other.cut).all(|(a, b)| a <= b)
    }

    /// Lattice meet (component-wise minimum).
    pub fn meet(&self, other: &GlobalState) -> GlobalState {
        GlobalState {
            cut: self
                .cut
                .iter()
                .zip(&other.cut)
                .map(|(a, b)| *a.min(b))
                .collect(),
        }
    }

    /// Lattice join (component-wise maximum).
    pub fn join(&self, other: &GlobalState) -> GlobalState {
        GlobalState {
            cut: self
                .cut
                .iter()
                .zip(&other.cut)
                .map(|(a, b)| *a.max(b))
                .collect(),
        }
    }

    /// A copy with process `p` advanced by one local state.
    pub fn advanced(&self, p: ProcessId) -> GlobalState {
        let mut cut = self.cut.clone();
        cut[p.index()] += 1;
        GlobalState { cut }
    }

    /// A copy with every process in `procs` advanced by one local state
    /// (one step of a global sequence).
    pub fn advanced_all(&self, procs: impl IntoIterator<Item = ProcessId>) -> GlobalState {
        let mut cut = self.cut.clone();
        for p in procs {
            cut[p.index()] += 1;
        }
        GlobalState { cut }
    }

    /// Whether `self` is within bounds of `dep` (each index names a state).
    pub fn in_bounds<C: CausalStore + ?Sized>(&self, dep: &C) -> bool {
        self.cut.len() == dep.process_count()
            && self
                .cut
                .iter()
                .enumerate()
                .all(|(p, &k)| (k as usize) < dep.len_of(ProcessId(p as u32)))
    }

    /// Consistency: all members pairwise concurrent. O(n²) with clocks:
    /// `G` is consistent iff `∀ i ≠ j: V(G[j])[i] ≤ idx(G[i]) ` — i.e. no
    /// member knows of a state on another process beyond the cut.
    pub fn is_consistent<C: CausalStore + ?Sized>(&self, dep: &C) -> bool {
        debug_assert!(self.in_bounds(dep));
        self.states().all(|s| {
            self.states()
                .all(|t| t.process == s.process || dep.clock_entry(s, t.process) <= t.index)
        })
    }

    /// Single-process successor cuts that remain consistent, given `self`
    /// consistent: advancing `i` keeps consistency iff everything the new
    /// state depends on is already inside the cut.
    pub fn consistent_successors<'a, C: CausalStore + ?Sized>(
        &'a self,
        dep: &'a C,
    ) -> impl Iterator<Item = (ProcessId, GlobalState)> + 'a {
        self.states().filter_map(move |s| {
            let next = s.successor();
            if next.idx() >= dep.len_of(s.process) {
                return None;
            }
            // Clock entries count states (index + 1), so `V(next)[q] ≤
            // cut[q]` says: every state of q that the new state causally
            // depends on lies strictly inside the cut (index < cut[q] + 1 ⇒
            // no member of the cut precedes the new state).
            let ok = self
                .states()
                .all(|t| t.process == s.process || dep.clock_entry(next, t.process) <= t.index);
            ok.then(|| (s.process, self.advanced(s.process)))
        })
    }
}

impl fmt::Debug for GlobalState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "G{:?}", self.cut)
    }
}

impl fmt::Display for GlobalState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "⟨")?;
        for (i, k) in self.cut.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{k}")?;
        }
        write!(f, "⟩")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::DeposetBuilder;

    /// P0 sends to P1: states (0,0),(0,1) / (1,0),(1,1).
    fn msg_dep() -> Deposet {
        let mut b = DeposetBuilder::new(2);
        let t = b.send(0, "m");
        b.recv(1, t, &[]);
        b.finish().unwrap()
    }

    #[test]
    fn initial_and_final_are_consistent() {
        let d = msg_dep();
        assert!(GlobalState::initial(2).is_consistent(&d));
        assert!(GlobalState::final_of(&d).is_consistent(&d));
    }

    #[test]
    fn cut_across_message_is_inconsistent() {
        let d = msg_dep();
        // P1 past the receive while P0 before the send: (0, 1).
        let g = GlobalState::from_indices(vec![0, 1]);
        assert!(!g.is_consistent(&d));
        // P0 past the send while P1 before the receive: fine (in flight).
        let h = GlobalState::from_indices(vec![1, 0]);
        assert!(h.is_consistent(&d));
    }

    #[test]
    fn lattice_order_meet_join() {
        let a = GlobalState::from_indices(vec![2, 0]);
        let b = GlobalState::from_indices(vec![1, 1]);
        assert!(!a.leq(&b) && !b.leq(&a));
        assert_eq!(a.meet(&b), GlobalState::from_indices(vec![1, 0]));
        assert_eq!(a.join(&b), GlobalState::from_indices(vec![2, 1]));
        assert!(a.meet(&b).leq(&a));
        assert!(a.leq(&a.join(&b)));
    }

    #[test]
    fn consistent_successors_respect_messages() {
        let d = msg_dep();
        let init = GlobalState::initial(2);
        let succs: Vec<_> = init.consistent_successors(&d).collect();
        // From ⟨0,0⟩ only P0 may advance (P1's next state needs P0's send).
        assert_eq!(succs.len(), 1);
        assert_eq!(succs[0].0, ProcessId(0));
        let g = &succs[0].1;
        assert_eq!(g, &GlobalState::from_indices(vec![1, 0]));
        // Now both… only P1 can advance (P0 is at top).
        let succs2: Vec<_> = g.consistent_successors(&d).collect();
        assert_eq!(succs2.len(), 1);
        assert_eq!(succs2[0].1, GlobalState::from_indices(vec![1, 1]));
    }

    #[test]
    fn advanced_all_moves_a_subset() {
        let g = GlobalState::initial(3);
        let h = g.advanced_all([ProcessId(0), ProcessId(2)]);
        assert_eq!(h.indices(), &[1, 0, 1]);
    }

    #[test]
    fn state_of_and_states() {
        let g = GlobalState::from_indices(vec![3, 5]);
        assert_eq!(g.state_of(ProcessId(1)), StateId::new(1usize, 5));
        let all: Vec<_> = g.states().collect();
        assert_eq!(all, vec![StateId::new(0usize, 3), StateId::new(1usize, 5)]);
    }

    #[test]
    fn display_format() {
        assert_eq!(
            format!("{}", GlobalState::from_indices(vec![1, 2])),
            "⟨1,2⟩"
        );
    }
}
