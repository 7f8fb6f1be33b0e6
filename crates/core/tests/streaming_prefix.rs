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
use pctl_core::{PredicateEngine, StreamEngine};
use pctl_deposet::generator::{random_deposet, RandomConfig};
use pctl_deposet::{
    linearize, AppendOp, CausalStore, Deposet, DisjunctivePredicate, GlobalState, IntervalIndex,
    LocalPredicate, PredicateClass, ProcessId, RegularPredicate, StateId,
};
use proptest::prelude::*;

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
    let pred = stream.predicate();
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
            let eng = PredicateEngine::new(&snap, stream.predicate());
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
                prop_assert!(stream.verify(&rel, 500_000).is_ok(), "prefix {}", k + 1);
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
