//! Enumeration and model checking over the lattice of consistent global
//! states `(G_c, ≤)`.
//!
//! Any consistent global state (= ideal of the `→` poset) is reachable from
//! `⊥` by repeatedly advancing a single process while staying
//! consistent, so a BFS over [`GlobalState::consistent_successors`]
//! enumerates the whole lattice. One private walk does that BFS for every
//! entry point, generic over [`CausalStore`]: it reads only `clock_entry`,
//! so it runs unchanged over a batch [`Deposet`](crate::model::Deposet)
//! and over a controlled computation whose store includes the control
//! edges. (A control relation that orders *events* in a cycle leaves
//! consistent cuts past that cycle which no run reaches; the walk does not
//! visit them.) The lattice can be exponentially large; every entry point
//! takes an explicit `limit` and fails softly when it is exceeded, which
//! is how the NP-hardness of the general problem manifests operationally.

use crate::causal::CausalStore;
use crate::global::GlobalState;
use std::collections::HashSet;
use std::fmt;
use std::ops::ControlFlow;

/// Error: the lattice exploration exceeded the caller's state budget.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LatticeBudgetExceeded {
    /// The budget that was exceeded.
    pub limit: usize,
}

impl fmt::Display for LatticeBudgetExceeded {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "lattice exploration exceeded budget of {} global states",
            self.limit
        )
    }
}

impl std::error::Error for LatticeBudgetExceeded {}

/// The one lattice walk: hands every consistent global state of `dep` to
/// `visit`, in BFS order from `⊥` (a linear extension of `≤`),
/// until `visit` breaks or more than `limit` states were visited.
fn walk<C, T>(
    dep: &C,
    limit: usize,
    mut visit: impl FnMut(GlobalState) -> ControlFlow<T>,
) -> Result<Option<T>, LatticeBudgetExceeded>
where
    C: CausalStore + ?Sized,
{
    // Every successor of a cut at level `k` (the sum of its indices) is at
    // level `k + 1`, so the walk goes level by level and deduplicates
    // within the next level only: the same BFS order as one FIFO queue
    // over all cuts, with one level in memory instead of every cut seen.
    let init = GlobalState::initial(dep.process_count());
    debug_assert!(init.is_consistent(dep));
    let mut level = vec![init];
    let mut visited = 0usize;
    while !level.is_empty() {
        let mut next = Vec::new();
        let mut seen: HashSet<GlobalState> = HashSet::new();
        for g in level {
            visited += 1;
            if visited > limit {
                return Err(LatticeBudgetExceeded { limit });
            }
            for (_, h) in g.consistent_successors(dep) {
                if seen.insert(h.clone()) {
                    next.push(h);
                }
            }
            if let ControlFlow::Break(t) = visit(g) {
                return Ok(Some(t));
            }
        }
        level = next;
    }
    Ok(None)
}

/// Enumerate every consistent global state of `dep`, up to `limit` states.
///
/// Returned in BFS order from `⊥` (a linear extension of `≤`).
pub fn consistent_global_states<C: CausalStore + ?Sized>(
    dep: &C,
    limit: usize,
) -> Result<Vec<GlobalState>, LatticeBudgetExceeded> {
    find_all_consistent(dep, limit, |_, _| true)
}

/// Count the consistent global states (subject to the same budget).
pub fn count_consistent_global_states<C: CausalStore + ?Sized>(
    dep: &C,
    limit: usize,
) -> Result<usize, LatticeBudgetExceeded> {
    let mut count = 0usize;
    walk::<_, ()>(dep, limit, |_| {
        count += 1;
        ControlFlow::Continue(())
    })?;
    Ok(count)
}

/// Model-check a predicate over every consistent global state: returns all
/// consistent global states where `pred` holds (used by detection and by
/// exhaustive verification of control strategies on small instances).
pub fn find_all_consistent<C, F>(
    dep: &C,
    limit: usize,
    mut pred: F,
) -> Result<Vec<GlobalState>, LatticeBudgetExceeded>
where
    C: CausalStore + ?Sized,
    F: FnMut(&C, &GlobalState) -> bool,
{
    let mut out = Vec::new();
    walk::<_, ()>(dep, limit, |g| {
        if pred(dep, &g) {
            out.push(g);
        }
        ControlFlow::Continue(())
    })?;
    Ok(out)
}

/// Does some consistent global state satisfy `pred`? (*Possibly φ* in the
/// predicate-detection literature.) Short-circuits the BFS and returns the
/// first witness in BFS order.
pub fn possibly<C, F>(
    dep: &C,
    limit: usize,
    mut pred: F,
) -> Result<Option<GlobalState>, LatticeBudgetExceeded>
where
    C: CausalStore + ?Sized,
    F: FnMut(&C, &GlobalState) -> bool,
{
    walk(dep, limit, |g| {
        if pred(dep, &g) {
            ControlFlow::Break(g)
        } else {
            ControlFlow::Continue(())
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::DeposetBuilder;
    use pctl_causality::ProcessId;

    #[test]
    fn independent_processes_form_a_grid() {
        // Two processes with 2 internal events each, no messages: the
        // lattice is the full 3×3 grid of index pairs.
        let mut b = DeposetBuilder::new(2);
        b.internal(0, &[]);
        b.internal(0, &[]);
        b.internal(1, &[]);
        b.internal(1, &[]);
        let d = b.finish().unwrap();
        let all = consistent_global_states(&d, 100).unwrap();
        assert_eq!(all.len(), 9);
    }

    #[test]
    fn message_cuts_the_grid() {
        // P0 send → P1 recv. Grid is 2×2 = 4 cuts, minus the inconsistent
        // ⟨0,1⟩ = 3.
        let mut b = DeposetBuilder::new(2);
        let t = b.send(0, "m");
        b.recv(1, t, &[]);
        let d = b.finish().unwrap();
        assert_eq!(count_consistent_global_states(&d, 100).unwrap(), 3);
    }

    #[test]
    fn bfs_order_is_a_linear_extension() {
        let mut b = DeposetBuilder::new(2);
        b.internal(0, &[]);
        b.internal(1, &[]);
        let d = b.finish().unwrap();
        let all = consistent_global_states(&d, 100).unwrap();
        // ⊥ first, ⊤ last, and no state appears before one of its lower
        // covers' predecessors.
        assert_eq!(all.first().unwrap(), &GlobalState::initial(2));
        assert_eq!(all.last().unwrap(), &GlobalState::final_of(&d));
        for (i, g) in all.iter().enumerate() {
            for h in &all[i + 1..] {
                assert!(!h.leq(g) || h == g, "{h:?} ≤ {g:?} but listed later");
            }
        }
    }

    #[test]
    fn budget_is_enforced() {
        let mut b = DeposetBuilder::new(2);
        for _ in 0..5 {
            b.internal(0, &[]);
            b.internal(1, &[]);
        }
        let d = b.finish().unwrap();
        // 36 consistent cuts; budget of 10 must fail.
        assert_eq!(
            consistent_global_states(&d, 10).unwrap_err(),
            LatticeBudgetExceeded { limit: 10 }
        );
        assert_eq!(count_consistent_global_states(&d, 100).unwrap(), 36);
    }

    #[test]
    fn possibly_finds_a_witness() {
        let mut b = DeposetBuilder::new(2);
        b.internal(0, &[("x", 1)]);
        b.internal(1, &[("x", 1)]);
        let d = b.finish().unwrap();
        // Both processes have x=1 simultaneously only at ⟨1,1⟩.
        let hit = possibly(&d, 100, |dep, g| {
            g.states().all(|s| dep.state(s).vars.get_bool("x"))
        })
        .unwrap();
        assert_eq!(hit, Some(GlobalState::from_indices(vec![1, 1])));
        // Nothing has x=2.
        let miss = possibly(&d, 100, |dep, g| {
            g.states().any(|s| dep.state(s).vars.get("x") == Some(2))
        })
        .unwrap();
        assert_eq!(miss, None);
    }

    #[test]
    fn find_all_consistent_filters() {
        let mut b = DeposetBuilder::new(1);
        b.internal(0, &[("x", 1)]);
        b.internal(0, &[("x", 0)]);
        let d = b.finish().unwrap();
        let hits = find_all_consistent(&d, 100, |dep, g| {
            dep.state(g.state_of(ProcessId(0))).vars.get_bool("x")
        })
        .unwrap();
        assert_eq!(hits, vec![GlobalState::from_indices(vec![1])]);
    }
}
