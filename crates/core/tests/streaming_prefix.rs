//! Prefix-equivalence of the incremental session store: after **every
//! single append**, the growing store is bit-identical to a fresh batch
//! build of the same prefix.
//!
//! The batch reference is [`SessionStore::snapshot`] → `Deposet::from_parts`,
//! which re-runs the full offline pipeline from raw states/events/messages —
//! topological sort and batch Fidge–Mattern clock DP — independently of the
//! incremental per-append clock maintenance, plus `IntervalIndex::build`,
//! which re-evaluates the predicate on every state and re-scans the truth
//! columns. Compared at every prefix: clock rows, `precedes()` over all
//! state pairs, truth columns, false intervals, and the engine verdicts
//! (detect / control / infeasibility witness). The final prefix is also
//! compared against the *original* generator-built deposet, pinning the
//! linearizer itself.

use pctl_core::offline::OfflineOptions;
use pctl_core::verify::VerifyError;
use pctl_core::{ControlRelation, ControlledDeposet, PredicateEngine, StreamEngine};
use pctl_deposet::generator::{random_deposet, RandomConfig};
use pctl_deposet::lattice::consistent_global_states;
use pctl_deposet::{
    linearize, AppendOp, CausalStore, Deposet, DisjunctivePredicate, GlobalState, IntervalIndex,
    LocalPredicate, PredicateClass, ProcessId, RegularPredicate, SessionStore, SlicedDeposet,
    StateId,
};
use proptest::prelude::*;

mod common;
use common::{controlled_cuts, meet};

fn arb_config() -> impl Strategy<Value = (RandomConfig, u64)> {
    (1usize..4, 0usize..20, 0u64..1_000_000).prop_map(|(n, events, seed)| {
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

fn all_state_ids<C: CausalStore + ?Sized>(c: &C) -> Vec<StateId> {
    (0..c.process_count())
        .flat_map(|p| (0..c.len_of(ProcessId(p as u32)) as u32).map(move |k| StateId::new(p, k)))
        .collect()
}

/// Clocks, precedes, truths, intervals, and engine verdicts of the growing
/// store versus a fresh batch build over the same states/events.
fn assert_prefix_equivalent(stream: &mut StreamEngine, batch: &Deposet, ctx: &str) {
    let store = stream.store();
    let pred = DisjunctivePredicate::new(store.locals().to_vec());
    assert_eq!(store.process_count(), batch.process_count(), "{ctx}");
    let ids = all_state_ids(store);
    assert_eq!(ids, all_state_ids(batch), "{ctx}");
    for &s in &ids {
        assert_eq!(
            store.clock(s).entries(),
            batch.clock(s).entries(),
            "{ctx}: clock of {s:?} diverged from batch Fidge–Mattern"
        );
    }
    for &s in &ids {
        for &t in &ids {
            assert_eq!(
                store.precedes(s, t),
                batch.precedes(s, t),
                "{ctx}: precedes({s:?}, {t:?})"
            );
        }
    }
    let index = IntervalIndex::build(batch, &pred);
    for p in 0..store.process_count() {
        let p = ProcessId(p as u32);
        assert_eq!(
            store.truths_of(p),
            index.truths_of(p),
            "{ctx}: truth column of {p:?}"
        );
    }
    assert_eq!(store.intervals(), index.intervals(), "{ctx}: intervals");

    let eng = PredicateEngine::new(batch, pred);
    let opts = OfflineOptions::default();
    assert_eq!(
        stream.detect_violation(),
        eng.detect_violation(),
        "{ctx}: detect"
    );
    assert_eq!(stream.control(opts), eng.control(opts), "{ctx}: control");
    assert_eq!(
        stream.infeasibility_witness(),
        eng.infeasibility_witness(),
        "{ctx}: infeasibility witness"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Append one event at a time; after each, the store matches a fresh
    /// batch rebuild of the prefix bit for bit.
    #[test]
    fn incremental_append_equals_batch_rebuild_at_every_prefix((cfg, seed) in arb_config()) {
        let dep = random_deposet(&cfg, seed);
        let pred = DisjunctivePredicate::at_least_one(dep.process_count(), "ok");
        let (init, ops) = linearize(&dep);
        let mut stream = StreamEngine::new_with_init(pred.locals().to_vec(), &init);
        let snap0 = stream.snapshot();
        assert_prefix_equivalent(&mut stream, &snap0, "prefix 0");
        for (k, op) in ops.iter().enumerate() {
            stream.apply(op).unwrap();
            let snap = stream.snapshot();
            assert_prefix_equivalent(&mut stream, &snap, &format!("prefix {}", k + 1));
        }
        // The fully-replayed store equals the original generator output:
        // every message is delivered, so the snapshot demotes nothing.
        prop_assert_eq!(stream.store().in_flight(), 0);
        assert_prefix_equivalent(&mut stream, &dep, "full replay vs original");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Query memoization: repeating a query between appends answers from
    /// the cache (hit counter advances, verdicts unchanged). An append
    /// drops every memoized answer except a found violation: control and
    /// the witness are recomputed, detect is recomputed while it answered
    /// `None` and kept once it found a cut. Every answer, kept or fresh,
    /// equals a fresh batch rebuild of the prefix — the memoized path can
    /// never go stale.
    #[test]
    fn query_cache_hits_between_appends_and_keeps_only_a_found_violation((cfg, seed) in arb_config()) {
        let dep = random_deposet(&cfg, seed);
        let pred = DisjunctivePredicate::at_least_one(dep.process_count(), "ok");
        let (init, ops) = linearize(&dep);
        let mut stream = StreamEngine::new_with_init(pred.locals().to_vec(), &init);
        let opts = OfflineOptions::default();
        let mut found = None;
        for (k, op) in ops.iter().enumerate() {
            stream.apply(op).unwrap();
            let hits_before_detect = stream.cache_hits();
            let d1 = stream.detect_violation();
            // Only a found violation survives the append.
            prop_assert_eq!(
                stream.cache_hits(),
                hits_before_detect + u64::from(found.is_some()),
                "prefix {}", k + 1
            );
            if found.is_some() {
                prop_assert_eq!(&d1, &found, "prefix {}: kept violation", k + 1);
            }
            found = d1.clone();
            let c1 = stream.control(opts);
            let w1 = stream.infeasibility_witness();
            let hits_before = stream.cache_hits();
            // Same prefix, same queries: all three must be cache hits with
            // identical answers.
            prop_assert_eq!(stream.detect_violation(), d1.clone(), "prefix {}", k + 1);
            prop_assert_eq!(stream.control(opts), c1.clone(), "prefix {}", k + 1);
            prop_assert_eq!(stream.infeasibility_witness(), w1.clone(), "prefix {}", k + 1);
            prop_assert_eq!(stream.cache_hits(), hits_before + 3, "prefix {}", k + 1);
            // And the (possibly cached) answers equal a fresh batch build.
            let snap = stream.snapshot();
            let pred = DisjunctivePredicate::new(stream.store().locals().to_vec());
            let eng = PredicateEngine::new(&snap, pred);
            prop_assert_eq!(d1, eng.detect_violation(), "prefix {}", k + 1);
            prop_assert_eq!(c1, eng.control(opts), "prefix {}", k + 1);
            prop_assert_eq!(w1, eng.infeasibility_witness(), "prefix {}", k + 1);
        }
    }

    /// Regular-class streaming: after every append, detect/control answer
    /// identically to a fresh batch engine with slicing on, built over the
    /// same prefix. Channel-free violations are checked at every prefix;
    /// the batch snapshot demotes in-flight sends, so this stays an exact
    /// equivalence.
    #[test]
    fn regular_class_stream_matches_batch_slicing_at_every_prefix((cfg, seed) in arb_config()) {
        let dep = random_deposet(&cfg, seed);
        let n = dep.process_count();
        // Subset conjunction: every process with an even id must have `ok`.
        let violation = RegularPredicate::And(
            (0..n)
                .filter(|i| i % 2 == 0)
                .map(|i| RegularPredicate::local(i, LocalPredicate::var("ok")))
                .collect(),
        );
        let class = PredicateClass::regular(n as u32, violation);
        let (init, ops) = linearize(&dep);
        let mut stream = StreamEngine::for_class(class.clone(), Some(&init)).unwrap();
        let opts = OfflineOptions::default();
        for (k, op) in ops.iter().enumerate() {
            stream.apply(op).unwrap();
            let snap = stream.snapshot();
            let eng = PredicateEngine::for_class(&snap, &class).unwrap();
            prop_assert_eq!(
                stream.detect_violation(),
                eng.detect_violation(),
                "prefix {}: regular detect", k + 1
            );
            prop_assert_eq!(
                stream.control(opts),
                eng.control(opts),
                "prefix {}: regular control", k + 1
            );
            prop_assert_eq!(
                stream.infeasibility_witness(),
                eng.infeasibility_witness(),
                "prefix {}: regular witness", k + 1
            );
            if let Ok(rel) = stream.control(opts) {
                prop_assert!(stream.verify(&rel).is_ok(), "prefix {}", k + 1);
            }
        }
    }
}

/// Detect on a fresh engine that replays `ops` — nothing is kept from an
/// earlier prefix.
fn replayed_detect(
    class: &PredicateClass,
    init: &[Vec<(String, i64)>],
    ops: &[AppendOp],
) -> Option<GlobalState> {
    let mut fresh = StreamEngine::for_class(class.clone(), Some(init)).unwrap();
    for op in ops {
        fresh.apply(op).unwrap();
    }
    fresh.detect_violation()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// A found violation is kept across appends, and at every prefix the
    /// kept answer equals a fresh `StreamEngine` replayed over that
    /// prefix: for a regular class with `ChannelsEmpty` and for the
    /// disjunctive class. The fresh stream is the oracle, not a batch
    /// snapshot — a snapshot demotes in-flight sends to internal events,
    /// which changes what `ChannelsEmpty` sees.
    #[test]
    fn kept_violation_equals_fresh_replay_at_every_prefix((cfg, seed) in arb_config()) {
        let dep = random_deposet(&cfg, seed);
        let n = dep.process_count();
        // `¬ok` on every even process, with every channel empty.
        let mut terms: Vec<RegularPredicate> = (0..n)
            .filter(|i| i % 2 == 0)
            .map(|i| RegularPredicate::local(i, LocalPredicate::not_var("ok")))
            .collect();
        terms.push(RegularPredicate::ChannelsEmpty);
        let classes = [
            PredicateClass::regular(n as u32, RegularPredicate::And(terms)),
            PredicateClass::disjunctive(DisjunctivePredicate::at_least_one(n, "ok")),
        ];
        let (init, ops) = linearize(&dep);
        for class in &classes {
            let mut stream = StreamEngine::for_class(class.clone(), Some(&init)).unwrap();
            let mut found = stream.detect_violation();
            prop_assert_eq!(&found, &replayed_detect(class, &init, &[]), "{}: prefix 0", class);
            for (k, op) in ops.iter().enumerate() {
                stream.apply(op).unwrap();
                let hits = stream.cache_hits();
                let kept = found.is_some();
                let got = stream.detect_violation();
                prop_assert_eq!(stream.cache_hits(), hits + u64::from(kept), "{}: prefix {}", class, k + 1);
                if kept {
                    prop_assert_eq!(&got, &found, "{}: prefix {}: kept", class, k + 1);
                }
                prop_assert_eq!(
                    &got,
                    &replayed_detect(class, &init, &ops[..=k]),
                    "{}: prefix {}", class, k + 1
                );
                found = got;
            }
        }
    }
}

/// Does `g` satisfy `violation` on the session store, by definition: every
/// conjunct holds at its process's frontier state, and, with
/// `ChannelsEmpty`, every message sent inside `g` is received inside it
/// (a message still in flight never is).
fn satisfies_on_store(store: &SessionStore, violation: &RegularPredicate, g: &GlobalState) -> bool {
    let by_proc = violation.conjuncts_by_process(store.process_count());
    let cut = g.indices();
    let locals = by_proc.iter().enumerate().all(|(i, cs)| {
        let s = store.state(StateId::new(i, cut[i]));
        cs.iter().all(|c| c.eval(s))
    });
    locals
        && (!violation.uses_channels()
            || store.message_endpoints().all(|(from, to)| {
                cut[from.process.index()] <= from.index
                    || to.is_some_and(|to| cut[to.process.index()] >= to.index)
            }))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Regular stream detection at every prefix, with sends in flight,
    /// against two oracles over the same session store: the min cut of a
    /// slice built from conjuncts evaluated on the stored states (not the
    /// truth columns the stream reads), and the meet of every consistent
    /// cut that satisfies the violation by definition.
    #[test]
    fn regular_stream_detect_equals_slice_min_cut_at_every_prefix((cfg, seed) in arb_config()) {
        let dep = random_deposet(&cfg, seed);
        let n = dep.process_count();
        let lit = |i: usize, holds: bool| {
            let l = if holds { LocalPredicate::var("ok") } else { LocalPredicate::not_var("ok") };
            RegularPredicate::local(i, l)
        };
        let violations = [
            RegularPredicate::And(
                (0..n).filter(|i| i % 2 == 0).map(|i| lit(i, false))
                    .chain([RegularPredicate::ChannelsEmpty]).collect(),
            ),
            RegularPredicate::And((0..n).filter(|i| i % 2 == 1).map(|i| lit(i, true)).collect()),
            RegularPredicate::ChannelsEmpty,
        ];
        let (init, ops) = linearize(&dep);
        for violation in &violations {
            let class = PredicateClass::regular(n as u32, violation.clone());
            let mut stream = StreamEngine::for_class(class, Some(&init)).unwrap();
            for k in 0..=ops.len() {
                if k > 0 {
                    stream.apply(&ops[k - 1]).unwrap();
                }
                let got = stream.detect_violation();
                let store = stream.store();
                let by_proc = violation.conjuncts_by_process(n);
                let (mut delivered, mut in_flight) = (Vec::new(), Vec::new());
                if violation.uses_channels() {
                    for (from, to) in store.message_endpoints() {
                        match to {
                            Some(to) => delivered.push((from, to)),
                            None => in_flight.push(from),
                        }
                    }
                }
                let slice = SlicedDeposet::build_from_parts(
                    store,
                    |s| by_proc[s.process.index()].iter().all(|c| c.eval(store.state(s))),
                    &delivered,
                    &in_flight,
                );
                prop_assert_eq!(got.as_ref(), slice.min_cut(), "{}: prefix {}", violation, k);
                let all = consistent_global_states(store, 50_000).unwrap();
                prop_assert_eq!(
                    got,
                    meet(all.iter().filter(|g| satisfies_on_store(store, violation, g))),
                    "{}: prefix {}: lattice meet", violation, k
                );
            }
        }
    }

    /// Stream verify at every prefix, with sends in flight, gives the
    /// lattice's verdict: for the session's own control output and a
    /// random relation, under the regular violations above, it fails with
    /// the least controlled cut that satisfies the violation by definition
    /// (channels read off the session's message table), passes when there
    /// is none, and refuses exactly the relations the batch store refuses.
    /// The oracle cuts come from the snapshot's lattice walk and the
    /// explicit closure of chains, delivered messages and control pairs.
    #[test]
    fn stream_verify_matches_the_lattice_with_sends_in_flight(
        (cfg, seed) in arb_config(),
        raw in proptest::collection::vec((0u64..1 << 32, 0u64..1 << 32), 0..4),
    ) {
        let dep = random_deposet(&cfg, seed);
        let n = dep.process_count();
        let violations = [
            RegularPredicate::And(
                (0..n).filter(|i| i % 2 == 0).map(|i| RegularPredicate::local(i, LocalPredicate::not_var("ok")))
                    .chain([RegularPredicate::ChannelsEmpty]).collect(),
            ),
            RegularPredicate::ChannelsEmpty,
        ];
        let (init, ops) = linearize(&dep);
        for violation in &violations {
            let class = PredicateClass::regular(n as u32, violation.clone());
            let mut stream = StreamEngine::for_class(class, Some(&init)).unwrap();
            for k in 0..=ops.len() {
                if k > 0 {
                    stream.apply(&ops[k - 1]).unwrap();
                }
                let snap = stream.snapshot();
                let ids: Vec<StateId> = snap.state_ids().collect();
                let pick = |r: u64| ids[(r % ids.len() as u64) as usize];
                let mut rels = vec![ControlRelation::from_pairs(raw.iter().map(|&(x, y)| (pick(x), pick(y))))];
                rels.extend(stream.control(OfflineOptions::default()));
                for rel in &rels {
                    let got = stream.verify(rel);
                    let accepted = ControlledDeposet::new(&snap, rel.clone()).is_ok();
                    let cuts = controlled_cuts(&snap, rel).unwrap_or_default();
                    let least = meet(cuts.iter().filter(|g| satisfies_on_store(stream.store(), violation, g)));
                    match got {
                        Err(VerifyError::Control(e)) => prop_assert!(!accepted, "{}: prefix {}: {}", violation, k, e),
                        Ok(()) => prop_assert!(accepted && least.is_none(), "{}: prefix {}: passed {}", violation, k, rel),
                        Err(VerifyError::Violation { state }) => {
                            prop_assert!(accepted);
                            prop_assert_eq!(Some(state), least, "{}: prefix {}: under {}", violation, k, rel);
                        }
                    }
                }
            }
        }
    }
}
