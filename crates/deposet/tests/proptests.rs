//! Property-based tests for the deposet layer, using random computations as
//! the universe and brute-force definitions as ground truth.

use pctl_causality::{Dag, ProcessId, StateId};
use pctl_deposet::generator::{random_deposet, RandomConfig};
use pctl_deposet::lattice::consistent_global_states;
use pctl_deposet::sequences::rand_compat::RngLike;
use pctl_deposet::sequences::random_global_sequence;
use pctl_deposet::slice::SlicedDeposet;
use pctl_deposet::{trace, Deposet, GlobalState, LocalPredicate, RegularPredicate, Variables};
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};

fn arb_config() -> impl Strategy<Value = (RandomConfig, u64)> {
    (1usize..5, 0usize..25, 0u64..1_000_000).prop_map(|(n, events, seed)| {
        (
            RandomConfig {
                processes: n,
                events,
                send_prob: 0.4,
                flip_prob: 0.4,
            },
            seed,
        )
    })
}

/// Ground truth `→` by explicit transitive closure over `im ∪ ;`.
fn ground_truth_reach(dep: &Deposet) -> (Vec<usize>, pctl_causality::graph::Reachability) {
    let offsets = dep.offsets();
    let total = *offsets.last().unwrap();
    let mut g = Dag::new(total);
    for p in dep.processes() {
        for k in 0..dep.len_of(p).saturating_sub(1) {
            g.add_edge(offsets[p.index()] + k, offsets[p.index()] + k + 1);
        }
    }
    for m in dep.messages() {
        g.add_edge(
            offsets[m.from.process.index()] + m.from.idx(),
            offsets[m.to.process.index()] + m.to.idx(),
        );
    }
    (
        offsets.to_vec(),
        g.transitive_closure().expect("valid deposet is acyclic"),
    )
}

struct Lcg(u64);
impl RngLike for Lcg {
    fn below(&mut self, bound: usize) -> usize {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((self.0 >> 33) as usize) % bound
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Vector-clock `precedes` agrees exactly with the transitive closure
    /// of `im ∪ ;` on every state pair.
    #[test]
    fn vclock_precedes_matches_transitive_closure((cfg, seed) in arb_config()) {
        let dep = random_deposet(&cfg, seed);
        let (offsets, reach) = ground_truth_reach(&dep);
        let node = |s: StateId| offsets[s.process.index()] + s.idx();
        let ids: Vec<StateId> = dep.state_ids().collect();
        for &s in &ids {
            for &t in &ids {
                let truth = s != t && reach.reaches(node(s), node(t));
                prop_assert_eq!(
                    dep.precedes(s, t),
                    truth,
                    "precedes({:?},{:?}) disagrees with closure", s, t
                );
            }
        }
    }

    /// `is_consistent` agrees with the definition: all members pairwise
    /// concurrent.
    #[test]
    fn consistency_matches_pairwise_concurrency((cfg, seed) in arb_config()) {
        let dep = random_deposet(&cfg, seed);
        // Enumerate ALL global states (bounded: products of small chains).
        let sizes: Vec<usize> = dep.processes().map(|p| dep.len_of(p)).collect();
        let total: usize = sizes.iter().product();
        prop_assume!(total <= 4096);
        let n = sizes.len();
        for mut code in 0..total {
            let mut idx = vec![0u32; n];
            for (i, &sz) in sizes.iter().enumerate() {
                idx[i] = (code % sz) as u32;
                code /= sz;
            }
            let g = GlobalState::from_indices(idx);
            let definition = {
                let members: Vec<StateId> = g.states().collect();
                members.iter().enumerate().all(|(a, &s)| {
                    members.iter().skip(a + 1).all(|&t| dep.concurrent(s, t))
                })
            };
            prop_assert_eq!(g.is_consistent(&dep), definition, "cut {:?}", g);
        }
    }

    /// Every cut enumerated by the lattice BFS is consistent, the BFS finds
    /// the same set as brute force, and ⊥/⊤ are present.
    #[test]
    fn lattice_enumeration_is_sound_and_complete((cfg, seed) in arb_config()) {
        let dep = random_deposet(&cfg, seed);
        let sizes: Vec<usize> = dep.processes().map(|p| dep.len_of(p)).collect();
        let total: usize = sizes.iter().product();
        prop_assume!(total <= 4096);
        let bfs = consistent_global_states(&dep, total + 1).unwrap();
        let mut brute = Vec::new();
        let n = sizes.len();
        for mut code in 0..total {
            let mut idx = vec![0u32; n];
            for (i, &sz) in sizes.iter().enumerate() {
                idx[i] = (code % sz) as u32;
                code /= sz;
            }
            let g = GlobalState::from_indices(idx);
            if g.is_consistent(&dep) {
                brute.push(g);
            }
        }
        let mut bfs_sorted = bfs.clone();
        bfs_sorted.sort();
        brute.sort();
        prop_assert_eq!(bfs_sorted, brute);
        prop_assert!(bfs.contains(&GlobalState::initial(n)));
        prop_assert!(bfs.contains(&GlobalState::final_of(&dep)));
    }

    /// Random maximal global sequences always validate.
    #[test]
    fn random_sequences_validate((cfg, seed) in arb_config()) {
        let dep = random_deposet(&cfg, seed);
        let mut rng = Lcg(seed ^ 0xdead_beef);
        for _ in 0..5 {
            let seq = random_global_sequence(&dep, &mut rng);
            prop_assert_eq!(seq.validate(&dep), Ok(()));
        }
    }

    /// Trace JSON round-trip is the identity on structure and clocks.
    #[test]
    fn trace_roundtrip_identity((cfg, seed) in arb_config()) {
        let dep = random_deposet(&cfg, seed);
        let back = trace::from_json(&trace::to_json(&dep)).unwrap();
        prop_assert_eq!(back.process_count(), dep.process_count());
        for p in dep.processes() {
            prop_assert_eq!(back.states_of(p), dep.states_of(p));
            prop_assert_eq!(back.events_of(p), dep.events_of(p));
        }
        prop_assert_eq!(back.messages(), dep.messages());
        for s in dep.state_ids() {
            prop_assert_eq!(back.clock(s), dep.clock(s));
        }
    }

    /// `FalseIntervals::extract` and `IntervalIndex::build` both agree with a
    /// hand-rolled per-process construction from the store primitives
    /// (`truth_of_process` + `intervals_from_truth`), truth columns
    /// included: the index's in-place column build and the extractor cannot
    /// drift from the primitives or from each other.
    #[test]
    fn extract_and_index_match_store_primitives((cfg, seed) in arb_config()) {
        let dep = random_deposet(&cfg, seed);
        let pred = pctl_deposet::DisjunctivePredicate::at_least_one(dep.process_count(), "ok");
        let sequential: Vec<(Vec<bool>, Vec<pctl_deposet::Interval>)> = dep
            .processes()
            .map(|p| {
                let truth = pctl_deposet::store::truth_of_process(&dep, p, pred.local(p));
                let iv = pctl_deposet::store::intervals_from_truth(p, &truth);
                (truth, iv)
            })
            .collect();
        let extracted = pctl_deposet::FalseIntervals::extract(&dep, &pred);
        let index = pctl_deposet::IntervalIndex::build(&dep, &pred);
        for p in dep.processes() {
            let (truth, iv) = &sequential[p.index()];
            prop_assert_eq!(extracted.of(p), &iv[..]);
            prop_assert_eq!(index.intervals().of(p), &iv[..]);
            prop_assert_eq!(index.truths_of(p), &truth[..]);
        }
    }

    /// The worklist `find_overlap` computes the same answer — including the
    /// exact witness — as the quadratic restart-from-scratch formulation it
    /// replaced (discards are permanently justified, so the fixpoint is
    /// order-independent).
    #[test]
    fn find_overlap_matches_quadratic_reference((cfg, seed) in arb_config()) {
        use pctl_deposet::store;
        let dep = random_deposet(&cfg, seed);
        let pred = pctl_deposet::DisjunctivePredicate::at_least_one(dep.process_count(), "ok");
        let intervals = pctl_deposet::FalseIntervals::extract(&dep, &pred);
        let quadratic = || -> Option<Vec<pctl_deposet::Interval>> {
            let n = dep.process_count();
            let mut pos = vec![0usize; n];
            'restart: loop {
                let mut fronts = Vec::with_capacity(n);
                for (p, &at) in pos.iter().enumerate() {
                    fronts.push(*intervals.of(ProcessId(p as u32)).get(at)?);
                }
                for i in 0..n {
                    for j in 0..n {
                        if i != j && store::crossable(&dep, &fronts[i], &fronts[j]) {
                            pos[j] += 1;
                            continue 'restart;
                        }
                    }
                }
                return Some(fronts);
            }
        };
        prop_assert_eq!(store::find_overlap(&dep, &intervals), quadratic());
    }

    /// The meet and join of two consistent cuts are consistent (the lattice
    /// property, Mattern [8]).
    #[test]
    fn consistent_cuts_form_a_lattice((cfg, seed) in arb_config()) {
        let dep = random_deposet(&cfg, seed);
        let all = match consistent_global_states(&dep, 2000) {
            Ok(v) => v,
            Err(_) => return Ok(()), // too big; skip
        };
        prop_assume!(all.len() <= 60);
        for a in &all {
            for b in &all {
                prop_assert!(a.meet(b).is_consistent(&dep), "meet of {:?} {:?}", a, b);
                prop_assert!(a.join(b).is_consistent(&dep), "join of {:?} {:?}", a, b);
            }
        }
    }
}

#[test]
fn processes_iterator_is_dense() {
    let dep = random_deposet(&RandomConfig::default(), 5);
    let ps: Vec<ProcessId> = dep.processes().collect();
    assert_eq!(ps, vec![ProcessId(0), ProcessId(1), ProcessId(2)]);
}

/// Derive a pseudo-random regular violation from the seed: a conjunction of
/// `ok`-constraints over a subset of processes, with `ChannelsEmpty` mixed
/// in half the time.
fn arb_regular(n: usize, seed: u64) -> RegularPredicate {
    let mut conjuncts = Vec::new();
    for i in 0..n {
        match (seed >> (2 * i)) & 3 {
            0 => conjuncts.push(RegularPredicate::local(i, LocalPredicate::var("ok"))),
            1 => conjuncts.push(RegularPredicate::local(i, LocalPredicate::not_var("ok"))),
            _ => {}
        }
    }
    if seed & (1 << 16) != 0 {
        conjuncts.push(RegularPredicate::ChannelsEmpty);
    }
    RegularPredicate::And(conjuncts)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The slice contains exactly the consistent cuts satisfying the
    /// regular violation (brute-force lattice enumeration as oracle), and
    /// its min/max cuts, membership test, and frontier-possible bitmap all
    /// agree with that set.
    #[test]
    fn slice_is_exactly_the_satisfying_sublattice((cfg, seed) in arb_config()) {
        let dep = random_deposet(&cfg, seed);
        let violation = arb_regular(dep.process_count(), seed ^ 0x9e3779b97f4a7c15);
        let all = match consistent_global_states(&dep, 20_000) {
            Ok(v) => v,
            Err(_) => return Ok(()), // too big; skip
        };
        let expected: BTreeSet<&[u32]> = all
            .iter()
            .filter(|g| violation.eval(&dep, g))
            .map(|g| g.indices())
            .collect();

        let slice = SlicedDeposet::build(&dep, &violation).unwrap();
        let cuts = slice.cuts(20_000).unwrap();
        let got: BTreeSet<&[u32]> = cuts.iter().map(|g| g.indices()).collect();
        prop_assert_eq!(&got, &expected, "slice cuts ≠ oracle for {}", violation);

        // Extremality of min/max.
        prop_assert_eq!(slice.is_empty(), expected.is_empty());
        if let Some(min) = slice.min_cut() {
            for c in &expected {
                prop_assert!(min.indices().iter().zip(*c).all(|(a, b)| a <= b));
            }
            prop_assert!(expected.contains(min.indices()));
        }
        if let Some(max) = slice.max_cut() {
            for c in &expected {
                prop_assert!(max.indices().iter().zip(*c).all(|(a, b)| a >= b));
            }
            prop_assert!(expected.contains(max.indices()));
        }

        // Membership test and frontier-possible bitmap agree with the set.
        for g in &all {
            prop_assert_eq!(slice.satisfies(g), expected.contains(g.indices()));
        }
        for i in 0..dep.process_count() {
            let p = ProcessId(i as u32);
            for k in 0..dep.len_of(p) as u32 {
                let truth = expected.iter().any(|c| c[i] == k);
                prop_assert_eq!(
                    slice.frontier_possible(StateId::new(p, k)),
                    truth,
                    "frontier_possible(({},{}))", i, k
                );
            }
        }

        // Classes: equal exactly when J is equal, numbered in first-seen
        // row order.
        let (surviving, gone): (Vec<StateId>, Vec<StateId>) = dep
            .processes()
            .flat_map(|p| (0..dep.len_of(p) as u32).map(move |k| StateId::new(p, k)))
            .partition(|&s| slice.frontier_possible(s));
        for &s in &gone {
            prop_assert_eq!(slice.class_of(s), None, "class of {:?}", s);
        }
        let mut next = 0;
        for (a, &s) in surviving.iter().enumerate() {
            let c = slice.class_of(s).expect("a surviving state has a class");
            prop_assert!(c <= next, "class {} of {:?} skips {}", c, s, next);
            next = next.max(c + 1);
            for &t in &surviving[..a] {
                prop_assert_eq!(
                    slice.class_of(s) == slice.class_of(t),
                    slice.j_cut(s) == slice.j_cut(t),
                    "classes of {:?} and {:?}", s, t
                );
            }
        }
        prop_assert_eq!(slice.class_count(), next as usize);
    }
}

/// The variable names the `Variables` model test draws from.
const NAMES: [&str; 4] = ["a", "cs", "ok", "x"];

fn arb_assignments() -> impl Strategy<Value = Vec<(usize, i64)>> {
    proptest::collection::vec((0..NAMES.len(), -3i64..4), 0..9)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// `Variables` has one canonical form, whichever way it is built:
    /// from pairs, by `set`, or by JSON decode, in any order and with
    /// duplicate names (the last value wins), it agrees with a sorted-map
    /// model on `==`, `get`, `iter`, `len`, `Debug` and the encoded bytes.
    #[test]
    fn variables_agree_with_a_sorted_map_model(pairs in arb_assignments()) {
        let mut model = BTreeMap::new();
        let mut by_set = Variables::new();
        for &(i, v) in &pairs {
            let prev = model.insert(NAMES[i].to_string(), v);
            prop_assert_eq!(by_set.set(NAMES[i], v), prev);
        }
        let by_pairs = Variables::from_pairs(pairs.iter().map(|&(i, v)| (NAMES[i], v)));
        let text = format!(
            "{{{}}}",
            pairs
                .iter()
                .map(|&(i, v)| format!("\"{}\":{v}", NAMES[i]))
                .collect::<Vec<_>>()
                .join(",")
        );
        let decoded: Variables = serde_json::from_str(&text).unwrap();
        let canonical = Variables::from_pairs(model.iter().map(|(k, v)| (k.as_str(), *v)));

        let entries: Vec<(&str, i64)> = model.iter().map(|(k, v)| (k.as_str(), *v)).collect();
        let debug = format!("Variables {{ entries: {entries:?} }}");
        let bytes = serde_json::to_string(&model).unwrap();
        for (how, vars) in [("set", &by_set), ("from_pairs", &by_pairs), ("decode", &decoded)] {
            prop_assert_eq!(vars, &canonical, "{} of {:?}", how, pairs);
            prop_assert_eq!(vars.clone(), canonical.clone(), "{} clone", how);
            prop_assert_eq!(vars.len(), model.len(), "{} len", how);
            prop_assert_eq!(vars.is_empty(), model.is_empty(), "{} is_empty", how);
            prop_assert_eq!(vars.iter().collect::<Vec<_>>(), entries.clone(), "{} iter", how);
            for name in NAMES.iter().chain(["unset"].iter()) {
                prop_assert_eq!(vars.get(name), model.get(*name).copied(), "{} get {}", how, name);
            }
            prop_assert_eq!(format!("{vars:?}"), debug.clone(), "{} Debug", how);
            prop_assert_eq!(serde_json::to_string(vars).unwrap(), bytes.clone(), "{} bytes", how);
        }
    }
}

/// One inline variable keeps a local state at 48 bytes (the `Vec`-backed
/// assignment plus an unboxed label took the same).
#[test]
fn local_state_is_48_bytes() {
    assert_eq!(std::mem::size_of::<pctl_deposet::LocalState>(), 48);
}

/// A random regular violation drawn from `pick`: each process gets zero
/// to two conjuncts from `ok`, `¬ok`, `true` and (rarely) `false`, and
/// `ChannelsEmpty` is added half the time.
fn random_conjunct_set(n: usize, pick: u64) -> RegularPredicate {
    let mut rng = Lcg(pick);
    let mut terms = Vec::new();
    for i in 0..n {
        for _ in 0..rng.below(3) {
            let l = match rng.below(11) {
                0..=3 => LocalPredicate::var("ok"),
                4..=7 => LocalPredicate::not_var("ok"),
                8 | 9 => LocalPredicate::True,
                _ => LocalPredicate::False,
            };
            terms.push(RegularPredicate::local(i, l));
        }
    }
    if rng.below(2) == 1 {
        terms.push(RegularPredicate::ChannelsEmpty);
    }
    RegularPredicate::And(terms)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The least-cut closure, the slice's min cut and the lattice agree:
    /// the oracle is the meet of every consistent cut that satisfies the
    /// violation by direct evaluation, and that meet must satisfy it too.
    #[test]
    fn least_satisfying_cut_is_the_lattice_meet(
        ((cfg, seed), pick) in (arb_config(), 0u64..1_000_000_000)
    ) {
        let dep = random_deposet(&cfg, seed);
        let violation = random_conjunct_set(dep.process_count(), pick);
        let all = match consistent_global_states(&dep, 20_000) {
            Ok(v) => v,
            Err(_) => return Ok(()), // too big; skip
        };
        let satisfying: Vec<&GlobalState> =
            all.iter().filter(|g| violation.eval(&dep, g)).collect();
        let meet = satisfying.first().map(|first| {
            let mut m = first.indices().to_vec();
            for g in &satisfying {
                for (a, b) in m.iter_mut().zip(g.indices()) {
                    *a = (*a).min(*b);
                }
            }
            GlobalState::from_indices(m)
        });
        if let Some(m) = &meet {
            prop_assert!(satisfying.contains(&m), "meet {} must satisfy {}", m, violation);
        }
        let least = pctl_deposet::least_satisfying_cut_of(&dep, &violation).unwrap();
        prop_assert_eq!(&least, &meet, "closure ≠ lattice for {}", violation);
        let slice = SlicedDeposet::build(&dep, &violation).unwrap();
        prop_assert_eq!(slice.min_cut(), meet.as_ref(), "slice ≠ lattice for {}", violation);
    }
}
