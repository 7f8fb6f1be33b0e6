#![allow(clippy::needless_range_loop)]

//! Property-based tests for the causality substrate.

use pctl_causality::arena::{csr_from_edges, fill_clocks};
use pctl_causality::{Causality, ClockArena, Dag, ProcessId, VectorClock};
use proptest::prelude::*;

/// A random DAG given as edges (u, v) with u < v, guaranteeing acyclicity.
fn arb_dag(max_nodes: usize) -> impl Strategy<Value = (usize, Vec<(usize, usize)>)> {
    (2..max_nodes).prop_flat_map(|n| {
        let edges = proptest::collection::vec((0..n, 0..n), 0..n * 3).prop_map(move |raw| {
            raw.into_iter()
                .filter(|(a, b)| a != b)
                .map(|(a, b)| (a.min(b), a.max(b)))
                .collect::<Vec<_>>()
        });
        (Just(n), edges)
    })
}

/// Naive O(V³) reachability for ground truth.
fn naive_reach(n: usize, edges: &[(usize, usize)]) -> Vec<Vec<bool>> {
    let mut r = vec![vec![false; n]; n];
    for &(u, v) in edges {
        r[u][v] = true;
    }
    for k in 0..n {
        for i in 0..n {
            if r[i][k] {
                for j in 0..n {
                    r[i][j] |= r[k][j];
                }
            }
        }
    }
    r
}

/// Random process chains (zero-state ones included) and `(dst, src)`
/// merge edges over their rows: backward, same-process, self and
/// multi-source rows all occur. With `forward`, each edge is oriented from
/// the lower to the higher index within its chain, which keeps most
/// instances acyclic.
fn arb_chains() -> impl Strategy<Value = (Vec<usize>, Vec<(u32, u32)>)> {
    (
        proptest::collection::vec(0usize..6, 1..6),
        proptest::collection::vec((0usize..1000, 0usize..1000), 0..12),
        0u8..2,
    )
        .prop_map(|(lens, raw, forward)| {
            let mut offsets = vec![0];
            for len in &lens {
                offsets.push(offsets.last().unwrap() + len);
            }
            let rows = *offsets.last().unwrap();
            let local = |r: usize| r - offsets[offsets.partition_point(|&o| o <= r) - 1];
            let edges = if rows == 0 {
                Vec::new()
            } else {
                raw.into_iter()
                    .map(|(a, b)| {
                        let (dst, src) = (a % rows, b % rows);
                        if forward == 1 && local(src) > local(dst) {
                            (src as u32, dst as u32)
                        } else {
                            (dst as u32, src as u32)
                        }
                    })
                    .collect()
            };
            (offsets, edges)
        })
}

/// The clock fill as it was: a Kahn sort of the explicit graph (chains plus
/// edges), then the Fidge–Mattern row DP in that order. The sorted graph
/// draws each edge from the source's successor, as `fill_clocks` waits for
/// it; the DP merges the same rows.
fn kahn_fill(offsets: &[usize], edges: &[(u32, u32)]) -> Option<ClockArena> {
    let n = offsets.len() - 1;
    let rows = offsets[n];
    let mut g = Dag::new(rows);
    for p in 0..n {
        for r in offsets[p] + 1..offsets[p + 1] {
            g.add_edge(r - 1, r);
        }
    }
    for &(dst, src) in edges {
        let (dst, src) = (dst as usize, src as usize);
        let end = offsets[offsets.partition_point(|&o| o <= src)];
        let exit = src + 1;
        let wait = if exit < end && exit != dst { exit } else { src };
        g.add_edge(wait, dst);
    }
    let order = g.topo_sort().ok()?;
    let (off, src) = csr_from_edges(rows, edges);
    let mut arena = ClockArena::zeroed(n, rows);
    for r in order.into_iter().map(|r| r as usize) {
        let p = offsets.partition_point(|&o| o <= r) - 1;
        let sources = &src[off[r] as usize..off[r + 1] as usize];
        arena.fm_row(r, r == offsets[p], sources, &[], ProcessId(p as u32));
    }
    Some(arena)
}

proptest! {
    /// The chain-walking fill succeeds exactly when a Kahn sort of the
    /// explicit graph does, and then assigns every row the clock the DP
    /// over the Kahn order assigns.
    #[test]
    fn chain_walking_fill_matches_kahn_order_dp((offsets, edges) in arb_chains()) {
        prop_assert_eq!(fill_clocks(&offsets, &edges), kahn_fill(&offsets, &edges),
            "offsets {:?}, edges {:?}", &offsets, &edges);
    }

    #[test]
    fn closure_matches_naive_reachability((n, edges) in arb_dag(40)) {
        let mut g = Dag::new(n);
        for &(u, v) in &edges {
            g.add_edge(u, v);
        }
        let closure = g.transitive_closure().expect("u<v edges are acyclic");
        let truth = naive_reach(n, &edges);
        for u in 0..n {
            for v in 0..n {
                prop_assert_eq!(closure.reaches(u, v), truth[u][v], "u={} v={}", u, v);
            }
        }
    }

    #[test]
    fn topo_sort_respects_all_edges((n, edges) in arb_dag(40)) {
        let mut g = Dag::new(n);
        for &(u, v) in &edges {
            g.add_edge(u, v);
        }
        let order = g.topo_sort().expect("acyclic");
        prop_assert_eq!(order.len(), n);
        let mut pos = vec![0usize; n];
        for (i, &v) in order.iter().enumerate() {
            pos[v as usize] = i;
        }
        for &(u, v) in &edges {
            prop_assert!(pos[u] < pos[v]);
        }
    }

    #[test]
    fn random_cycle_always_reported(n in 3usize..30, cycle_len in 2usize..8) {
        // Build a graph that is a chain plus one explicit cycle.
        let cycle_len = cycle_len.min(n);
        let mut g = Dag::new(n);
        for i in 0..n - 1 {
            g.add_edge(i, i + 1);
        }
        // Close a back edge to form a cycle over the first `cycle_len` nodes.
        g.add_edge(cycle_len - 1, 0);
        let err = g.topo_sort().expect_err("graph has a cycle");
        // The witness must be a genuine directed cycle in the graph.
        prop_assert!(!err.cycle.is_empty());
        for w in err.cycle.windows(2) {
            prop_assert!(g.successors(w[0] as usize).contains(&w[1]));
        }
        let first = *err.cycle.first().unwrap();
        let last = *err.cycle.last().unwrap();
        prop_assert!(g.successors(last as usize).contains(&first));
    }

    #[test]
    fn vclock_merge_is_lub(a in proptest::collection::vec(0u32..50, 1..8)) {
        let n = a.len();
        let b: Vec<u32> = a.iter().map(|x| x.wrapping_mul(7) % 50).collect();
        let va = VectorClock::from_entries(a.clone());
        let vb = VectorClock::from_entries(b.clone());
        let mut m = va.clone();
        m.merge(&vb);
        // merge is an upper bound
        prop_assert!(va.dominated_by(&m));
        prop_assert!(vb.dominated_by(&m));
        // and the least one
        for i in 0..n {
            prop_assert_eq!(m.entries()[i], a[i].max(b[i]));
        }
    }

    #[test]
    fn vclock_causality_antisymmetric(a in proptest::collection::vec(0u32..10, 1..6)) {
        let b: Vec<u32> = a.iter().rev().cloned().collect();
        let va = VectorClock::from_entries(a);
        let vb = VectorClock::from_entries(b);
        let fwd = va.causality(&vb);
        let bwd = vb.causality(&va);
        prop_assert_eq!(fwd, bwd.reverse());
    }

    #[test]
    fn tick_strictly_advances(mut entries in proptest::collection::vec(0u32..100, 1..6), which in 0usize..6) {
        let which = which % entries.len();
        let before = VectorClock::from_entries(entries.clone());
        entries[which] += 1;
        let mut after = before.clone();
        after.tick(ProcessId(which as u32));
        prop_assert_eq!(after.entries(), entries.as_slice());
        prop_assert_eq!(before.causality(&after), Causality::Before);
    }
}
