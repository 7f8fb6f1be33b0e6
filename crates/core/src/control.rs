//! Control relations and controlled deposets (paper Section 3).
//!
//! A control relation `C→` ("forced before") is a set of state pairs
//! `(x, y)`: the control system sends a message right after `x` on `x`'s
//! process and blocks `y`'s process right before `y` until that message
//! arrives, so `x` causally precedes `y` in every controlled run.
//!
//! Adding `C→` to a deposet is only meaningful when the *extended causality*
//! `(im ∪ ; ∪ C→)⁺` remains an irreflexive partial order; a relation that
//! creates a cycle *interferes* with `→` and is rejected with the cycle as a
//! diagnostic. A pair into an initial state `⊥ᵢ` is rejected too: no event
//! enters `⊥ᵢ`, so nothing can block before it, and `⊥` stays the least
//! consistent cut of every controlled computation. A valid combination
//! yields a [`ControlledDeposet`], which supports the same
//! consistency/lattice queries as the base deposet but under extended
//! causality — the controlled computation's global sequences are exactly
//! the base computation's global sequences that respect `C→`.

use pctl_causality::arena::fill_clocks;
use pctl_causality::{ClockArena, ClockRef, Dag, ProcessId, StateId};
use pctl_deposet::{CausalStore, Deposet};
use serde::{Deserialize, Serialize};
use std::collections::HashSet;
use std::fmt;

/// An ordered multiset-free list of forced-before pairs `x C→ y`.
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ControlRelation {
    pairs: Vec<(StateId, StateId)>,
}

impl ControlRelation {
    /// The empty relation (no control needed).
    pub fn empty() -> Self {
        ControlRelation::default()
    }

    /// Build from explicit pairs, dropping exact duplicates.
    pub fn from_pairs(pairs: impl IntoIterator<Item = (StateId, StateId)>) -> Self {
        let mut seen = HashSet::new();
        let mut out = Vec::new();
        for p in pairs {
            if seen.insert(p) {
                out.push(p);
            }
        }
        ControlRelation { pairs: out }
    }

    /// Append `x C→ y` (deduplicated).
    pub fn push(&mut self, x: StateId, y: StateId) {
        if !self.pairs.contains(&(x, y)) {
            self.pairs.push((x, y));
        }
    }

    /// The pairs, in insertion order (the algorithm's output queue order).
    pub fn pairs(&self) -> &[(StateId, StateId)] {
        &self.pairs
    }

    /// Number of forced-before tuples — the control-message count, the
    /// paper's `|C|` (one control message per tuple, Section 5 Evaluation).
    pub fn len(&self) -> usize {
        self.pairs.len()
    }

    /// Whether no control is applied.
    pub fn is_empty(&self) -> bool {
        self.pairs.is_empty()
    }

    /// Union of two relations (used when composing per-clause controls).
    pub fn merged(&self, other: &ControlRelation) -> ControlRelation {
        ControlRelation::from_pairs(self.pairs.iter().chain(other.pairs.iter()).copied())
    }
}

impl fmt::Display for ControlRelation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, (x, y)) in self.pairs.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{x} C→ {y}")?;
        }
        write!(f, "}}")
    }
}

/// Why a control relation cannot be applied to a deposet.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ControlError {
    /// A pair references a state outside the computation.
    UnknownState(StateId),
    /// A pair `x C→ y` targets an initial state `y = ⊥ᵢ`: no event enters
    /// `y`, so nothing can block before it and no run enforces the pair.
    InitialTarget(StateId, StateId),
    /// The relation interferes with `→`: extended causality has a cycle
    /// through the listed states.
    Interference {
        /// States on the offending cycle.
        cycle: Vec<StateId>,
    },
}

impl fmt::Display for ControlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ControlError::UnknownState(s) => write!(f, "control pair references unknown state {s}"),
            ControlError::InitialTarget(x, y) => write!(
                f,
                "control pair {x} C→ {y} targets an initial state: nothing can block before it"
            ),
            ControlError::Interference { cycle } => {
                write!(
                    f,
                    "control relation interferes with causality; cycle through "
                )?;
                for (i, s) in cycle.iter().enumerate() {
                    if i > 0 {
                        write!(f, " → ")?;
                    }
                    write!(f, "{s}")?;
                }
                Ok(())
            }
        }
    }
}

impl std::error::Error for ControlError {}

/// A deposet extended with a non-interfering control relation.
///
/// Owns recomputed *extended* vector clocks in one [`ClockArena`] with the
/// base deposet's row layout (the control pairs are extra merge edges of
/// the same fill). As a [`CausalStore`] every query — `precedes`,
/// [`GlobalState::is_consistent`](pctl_deposet::GlobalState::is_consistent),
/// the [`lattice`](pctl_deposet::lattice) walk — is under `C→ ∪ →`.
#[derive(Debug)]
pub struct ControlledDeposet<'a> {
    base: &'a Deposet,
    control: ControlRelation,
    ext_clocks: ClockArena,
}

/// A cycle of the extended relation `→ ∪ C→` over `dep`'s states, in order
/// (each state precedes the next, and the last precedes the first).
///
/// # Panics
/// Panics if the extended relation is acyclic.
fn interference_cycle(dep: &Deposet, control: &ControlRelation) -> Vec<StateId> {
    let offsets = dep.offsets();
    let node = |s: StateId| offsets[s.process.index()] + s.idx();
    let mut g = Dag::new(offsets[dep.process_count()]);
    for p in dep.processes() {
        for k in 0..dep.len_of(p).saturating_sub(1) {
            g.add_edge(offsets[p.index()] + k, offsets[p.index()] + k + 1);
        }
    }
    for m in dep.messages() {
        g.add_edge(node(m.from), node(m.to));
    }
    for &(x, y) in control.pairs() {
        g.add_edge(node(x), node(y));
    }
    let err = g
        .topo_sort()
        .expect_err("the extended clock fill found a cycle");
    err.cycle
        .iter()
        .map(|&v| {
            let v = v as usize;
            let p = offsets.partition_point(|&o| o <= v) - 1;
            StateId::new(p, (v - offsets[p]) as u32)
        })
        .collect()
}

impl<'a> ControlledDeposet<'a> {
    /// Validate `control` against `dep` and compute extended clocks.
    ///
    /// Every pair must name states of `dep` and must not close a cycle of
    /// the extended relation; an acyclic relation must also not target an
    /// initial state (the rule the replay enforces too).
    pub fn new(dep: &'a Deposet, control: ControlRelation) -> Result<Self, ControlError> {
        for &(x, y) in control.pairs() {
            if !dep.contains(x) {
                return Err(ControlError::UnknownState(x));
            }
            if !dep.contains(y) {
                return Err(ControlError::UnknownState(y));
            }
        }
        let offsets = dep.offsets();
        let n = dep.process_count();
        let total = offsets[n];
        let node = |s: StateId| offsets[s.process.index()] + s.idx();
        // Extended Fidge–Mattern clocks: the same fill as the base store,
        // with the control pairs as extra merge edges.
        let mut edges: Vec<(u32, u32)> = dep
            .messages()
            .iter()
            .map(|m| (node(m.to) as u32, node(m.from) as u32))
            .collect();
        edges.extend(
            control
                .pairs()
                .iter()
                .map(|&(x, y)| (node(y) as u32, node(x) as u32)),
        );
        let Some(ext_clocks) = fill_clocks(offsets, &edges) else {
            // The fill detects a cycle but cannot name it; only then is the
            // explicit graph built, to extract the offending states.
            return Err(ControlError::Interference {
                cycle: interference_cycle(dep, &control),
            });
        };
        if let Some(&(x, y)) = control.pairs().iter().find(|(_, y)| y.index == 0) {
            return Err(ControlError::InitialTarget(x, y));
        }
        assert_eq!(ext_clocks.allocated_words(), n * total);
        Ok(ControlledDeposet {
            base: dep,
            control,
            ext_clocks,
        })
    }

    /// The underlying computation.
    pub fn base(&self) -> &Deposet {
        self.base
    }

    /// The applied control relation.
    pub fn control(&self) -> &ControlRelation {
        &self.control
    }

    /// Extended clock of a state (a borrowed row of the extended arena).
    pub fn clock(&self, s: StateId) -> ClockRef<'_> {
        self.ext_clocks.row(self.base.row_of(s))
    }
}

/// The controlled computation as a store under extended causality
/// `C→ ∪ →`: consistency, the lattice walk and the detectors of
/// `pctl_deposet` run over it directly.
impl CausalStore for ControlledDeposet<'_> {
    #[inline]
    fn process_count(&self) -> usize {
        self.base.process_count()
    }

    #[inline]
    fn len_of(&self, p: ProcessId) -> usize {
        self.base.len_of(p)
    }

    #[inline]
    fn precedes(&self, s: StateId, t: StateId) -> bool {
        s != t
            && self.ext_clocks.word(self.base.row_of(s), s.process)
                <= self.ext_clocks.word(self.base.row_of(t), s.process)
    }

    /// One word read of the extended arena.
    #[inline]
    fn clock_entry(&self, s: StateId, q: ProcessId) -> u32 {
        self.ext_clocks.word(self.base.row_of(s), q)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pctl_deposet::lattice::{consistent_global_states, count_consistent_global_states};
    use pctl_deposet::{DeposetBuilder, GlobalState};

    /// Two independent processes, two states each.
    fn grid2() -> Deposet {
        let mut b = DeposetBuilder::new(2);
        b.internal(0, &[]);
        b.internal(1, &[]);
        b.finish().unwrap()
    }

    #[test]
    fn empty_control_changes_nothing() {
        let d = grid2();
        let c = ControlledDeposet::new(&d, ControlRelation::empty()).unwrap();
        let all = consistent_global_states(&c, 100).unwrap();
        assert_eq!(all.len(), 4);
        for s in d.state_ids() {
            assert_eq!(c.clock(s), d.clock(s), "clocks unchanged without control");
        }
    }

    #[test]
    fn control_edge_removes_cuts() {
        let d = grid2();
        // Force P1's step before P0's step: (1,0) C→ (0,1). The control
        // message is sent by the event *leaving* (1,0), so P0 may not reach
        // (0,1) while P1 still sits at (1,0): cut ⟨1,0⟩ dies.
        let mut rel = ControlRelation::empty();
        rel.push(StateId::new(1usize, 0), StateId::new(0usize, 1));
        let c = ControlledDeposet::new(&d, rel).unwrap();
        let all = consistent_global_states(&c, 100).unwrap();
        assert_eq!(all.len(), 3);
        assert!(!GlobalState::from_indices(vec![1, 0]).is_consistent(&c));

        // Force P1 past its step before P0 steps: (1,1) C→ (0,1).
        let mut rel2 = ControlRelation::empty();
        rel2.push(StateId::new(1usize, 1), StateId::new(0usize, 1));
        let c2 = ControlledDeposet::new(&d, rel2).unwrap();
        let all2 = consistent_global_states(&c2, 100).unwrap();
        // ⟨1,0⟩ (P0 stepped, P1 not) is now inconsistent, and so is ⟨1,1⟩:
        // it contains both endpoints of the forced-before pair.
        assert_eq!(all2.len(), 2);
        assert!(!GlobalState::from_indices(vec![1, 0]).is_consistent(&c2));
        assert!(!GlobalState::from_indices(vec![1, 1]).is_consistent(&c2));
        assert!(GlobalState::from_indices(vec![0, 0]).is_consistent(&c2));
        assert!(c2.precedes(StateId::new(1usize, 1), StateId::new(0usize, 1)));
        assert!(c2.concurrent(StateId::new(1usize, 0), StateId::new(0usize, 0)));
    }

    #[test]
    fn control_into_an_initial_state_is_rejected() {
        let d = grid2();
        // No event enters ⊥₀, so P0 cannot be blocked before it: both a
        // pair that only removes ⊥ and one that removes every cut are
        // rejected rather than enumerated.
        for x in [StateId::new(1usize, 0), StateId::new(1usize, 1)] {
            let y = StateId::new(0usize, 0);
            assert_eq!(
                ControlledDeposet::new(&d, ControlRelation::from_pairs([(x, y)])).unwrap_err(),
                ControlError::InitialTarget(x, y)
            );
        }
    }

    /// `ControlledDeposet::new` rejects `rel` with a cycle in which every
    /// consecutive pair, the last back to the first included, is a local
    /// step, a message or a control pair.
    fn assert_genuine_cycle(d: &Deposet, rel: ControlRelation) {
        let cycle = match ControlledDeposet::new(d, rel.clone()) {
            Err(ControlError::Interference { cycle }) => cycle,
            other => panic!("expected interference, got {other:?}"),
        };
        assert!(!cycle.is_empty());
        for (k, &x) in cycle.iter().enumerate() {
            let y = cycle[(k + 1) % cycle.len()];
            let local = x.process == y.process && x.index + 1 == y.index;
            let message = d.messages().iter().any(|m| (m.from, m.to) == (x, y));
            let control = rel.pairs().contains(&(x, y));
            assert!(
                local || message || control,
                "{x} → {y} in cycle {cycle:?} is no edge of the extended relation"
            );
        }
    }

    #[test]
    fn interfering_relation_is_rejected_with_cycle() {
        let d = grid2();
        let mut rel = ControlRelation::empty();
        rel.push(StateId::new(1usize, 1), StateId::new(0usize, 1));
        rel.push(StateId::new(0usize, 1), StateId::new(1usize, 1));
        assert_genuine_cycle(&d, rel);

        // A longer cycle: three control pairs chained by local steps, one
        // per process.
        let mut b = DeposetBuilder::new(3);
        for p in 0..3 {
            b.internal(p, &[]);
            b.internal(p, &[]);
        }
        let d3 = b.finish().unwrap();
        let mut rel = ControlRelation::empty();
        rel.push(StateId::new(0usize, 2), StateId::new(1usize, 1));
        rel.push(StateId::new(1usize, 2), StateId::new(2usize, 0));
        rel.push(StateId::new(2usize, 1), StateId::new(0usize, 0));
        assert_genuine_cycle(&d3, rel);
    }

    #[test]
    fn control_interfering_with_messages_is_rejected() {
        // P0 sends to P1; forcing the receive's successor before the send's
        // origin closes a cycle through the message.
        let mut b = DeposetBuilder::new(2);
        let t = b.send(0, "m");
        b.recv(1, t, &[]);
        let d = b.finish().unwrap();
        let mut rel = ControlRelation::empty();
        rel.push(StateId::new(1usize, 1), StateId::new(0usize, 0));
        assert_genuine_cycle(&d, rel);
    }

    #[test]
    fn unknown_state_is_rejected() {
        let d = grid2();
        let mut rel = ControlRelation::empty();
        rel.push(StateId::new(5usize, 0), StateId::new(0usize, 1));
        assert_eq!(
            ControlledDeposet::new(&d, rel).unwrap_err(),
            ControlError::UnknownState(StateId::new(5usize, 0))
        );
    }

    #[test]
    fn controlled_sequences_subset_of_base() {
        // Every controlled-consistent cut is base-consistent.
        let mut b = DeposetBuilder::new(3);
        let t = b.send(0, "m");
        b.internal(1, &[]);
        b.recv(2, t, &[]);
        b.internal(0, &[]);
        let d = b.finish().unwrap();
        let mut rel = ControlRelation::empty();
        rel.push(StateId::new(1usize, 1), StateId::new(0usize, 2));
        let c = ControlledDeposet::new(&d, rel).unwrap();
        let controlled = consistent_global_states(&c, 1000).unwrap();
        for g in &controlled {
            assert!(
                g.is_consistent(&d),
                "controlled cut {g:?} must be base-consistent"
            );
        }
        let base_count = count_consistent_global_states(&d, 1000).unwrap();
        assert!(
            controlled.len() < base_count,
            "control strictly restricts this lattice"
        );
    }

    #[test]
    fn relation_utilities() {
        let a = StateId::new(0usize, 0);
        let b = StateId::new(1usize, 1);
        let mut r = ControlRelation::empty();
        assert!(r.is_empty());
        r.push(a, b);
        r.push(a, b); // dup ignored
        assert_eq!(r.len(), 1);
        let merged = r.merged(&ControlRelation::from_pairs([(b, a), (a, b)]));
        assert_eq!(merged.len(), 2);
        assert_eq!(format!("{r}"), "{P0[0] C→ P1[1]}");
    }
}
