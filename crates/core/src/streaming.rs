//! The streaming engine: the query surface of
//! [`PredicateEngine`](crate::engine::PredicateEngine) over a *growing*
//! per-session store.
//!
//! A batch [`PredicateEngine`](crate::engine::PredicateEngine) is built once
//! over an immutable [`Deposet`] and an eagerly-derived `IntervalIndex`. A
//! [`StreamEngine`] instead owns a [`SessionStore`] that accepts appends one
//! event at a time (amortized O(n) each — see `pctl_deposet::session`) and
//! answers the same four questions at any prefix:
//!
//! * [`detect_violation`](StreamEngine::detect_violation) — weak detection
//!   of `possibly(∧ᵢ ¬lᵢ)` with candidate queues read off the incremental
//!   truth columns;
//! * [`control`](StreamEngine::control) — the paper's Figure 2 algorithm
//!   over the incrementally-grown false intervals;
//! * [`infeasibility_witness`](StreamEngine::infeasibility_witness) — the
//!   Lemma 2 overlap search;
//! * [`verify`](StreamEngine::verify) — relation soundness: the same
//!   detection over the controlled store of a batch
//!   [`snapshot`](StreamEngine::snapshot), with the session's own truth
//!   columns and message table, so sends in flight are modelled exactly.
//!
//! All query paths call the *same monomorphised generic code* as the batch
//! engine ([`CausalStore`]-typed control, detection and overlap search),
//! so answers are bit-identical to a fresh
//! `PredicateEngine` built over the same prefix — the invariant
//! `tests/streaming_prefix.rs` pins down per append. This is what lets the
//! daemon serve detect/control queries mid-stream without ever rebuilding
//! the computation.

use crate::control::ControlRelation;
use crate::offline::{control_intervals, Infeasible, OfflineOptions, OfflineStats};
use crate::verify::{detect_under, VerifyError};
use pctl_deposet::store;
use pctl_deposet::{
    least_satisfying_cut, AppendOp, CausalStore, ClassError, Deposet, DisjunctivePredicate,
    GlobalState, Interval, LocalPredicate, PredicateClass, RegularPredicate, SessionError,
    SessionStore, SlicedDeposet, StateId,
};

/// Memoized query results for one store version (`appended_ops`). Every
/// slot is filled lazily on first use. When the store grows, a found
/// violation (`detect == Some(Some(cut))`) is kept — see
/// [`StreamEngine::refresh`] for why it stays the answer — and every other
/// slot is dropped; queries between appends are answered without
/// recomputing anything.
#[derive(Default)]
struct QueryCache {
    version: u64,
    detect: Option<Option<GlobalState>>,
    control: Option<(
        OfflineOptions,
        Result<ControlRelation, Infeasible>,
        OfflineStats,
    )>,
    witness: Option<Option<Vec<Interval>>>,
    slice: Option<SlicedDeposet>,
}

/// A growing computation + predicate class, answering the batch engine's
/// queries at every prefix, with per-prefix query memoization.
///
/// Owns its [`SessionStore`] — in the daemon, one `StreamEngine` *is* one
/// session. Query methods take `&mut self` purely for the cache; the
/// store itself is only mutated by [`apply`](Self::apply).
pub struct StreamEngine {
    store: SessionStore,
    /// `None` = plain disjunctive session from raw locals (the historical
    /// constructor path); `Some` = explicit class, possibly regular.
    class: Option<PredicateClass>,
    cache: QueryCache,
    cache_hits: u64,
}

impl StreamEngine {
    /// Start an empty session over the disjunction of `locals` (one local
    /// predicate per process), with every process in its initial state and
    /// no variables assigned.
    pub fn new(locals: Vec<LocalPredicate>) -> Self {
        Self::wrap(SessionStore::new(locals), None)
    }

    /// Like [`new`](Self::new), but seed each process's initial state with
    /// explicit variable assignments.
    ///
    /// # Panics
    /// Panics if `init.len()` differs from the predicate arity.
    pub fn new_with_init(locals: Vec<LocalPredicate>, init: &[Vec<(String, i64)>]) -> Self {
        Self::wrap(SessionStore::new_with_init(locals, init), None)
    }

    /// Start an empty session for any [`PredicateClass`]. The session
    /// store's truth columns are seeded with
    /// [`PredicateClass::session_locals`], so regular classes get their
    /// conjunct truth maintained incrementally (the least-cut closure and
    /// the slicer read it in place as `!truth`) and disjunctive classes
    /// behave exactly like
    /// [`new_with_init`](Self::new_with_init).
    pub fn for_class(
        class: PredicateClass,
        init: Option<&[Vec<(String, i64)>]>,
    ) -> Result<Self, ClassError> {
        class.validate(class.arity())?;
        let locals = class.session_locals();
        let store = match init {
            Some(init) => SessionStore::new_with_init(locals, init),
            None => SessionStore::new(locals),
        };
        Ok(Self::wrap(store, Some(class)))
    }

    /// Wrap an already-populated store.
    pub fn from_store(store: SessionStore) -> Self {
        Self::wrap(store, None)
    }

    fn wrap(store: SessionStore, class: Option<PredicateClass>) -> Self {
        StreamEngine {
            store,
            class,
            cache: QueryCache::default(),
            cache_hits: 0,
        }
    }

    /// Append one event. On error the store is unchanged.
    pub fn apply(&mut self, op: &AppendOp) -> Result<(), SessionError> {
        let _prof = pctl_prof::span("stream_apply");
        self.store.apply(op)
    }

    /// The underlying growing store.
    pub fn store(&self) -> &SessionStore {
        &self.store
    }

    /// The predicate class this session answers queries for.
    pub fn predicate_class(&self) -> PredicateClass {
        self.class.clone().unwrap_or_else(|| {
            PredicateClass::disjunctive(DisjunctivePredicate::new(self.store.locals().to_vec()))
        })
    }

    /// Queries answered from the memo cache since the session opened.
    pub fn cache_hits(&self) -> u64 {
        self.cache_hits
    }

    /// Move the cache to the current store version, keeping a found
    /// violation and dropping everything else.
    ///
    /// A found violation is the *least* consistent cut satisfying the
    /// violation, and it stays the least one as the computation grows:
    /// the satisfying cuts (`∧ᵢ ¬lᵢ`, or a regular class) are closed under
    /// meet, and appends never change what is already there — a state's
    /// truth and causal past are fixed when it is appended, and for
    /// `ChannelsEmpty` a send inside a cut whose receive is not inside it
    /// stays that way, since a later receive lands past the cut. So every
    /// cut of the old prefix satisfies the violation after the append iff
    /// it did before, and a cut of the longer prefix below the old least
    /// cut is a cut of the old prefix. A `None` answer is recomputed.
    fn refresh(&mut self) {
        let v = self.store.appended_ops();
        if self.cache.version != v {
            let detect = match self.cache.detect.take() {
                Some(Some(cut)) => Some(Some(cut)),
                _ => None,
            };
            self.cache = QueryCache {
                version: v,
                detect,
                ..QueryCache::default()
            };
        }
    }

    /// The regular violation, if this is a regular-class session.
    fn regular_violation(&self) -> Option<RegularPredicate> {
        match &self.class {
            Some(PredicateClass::Regular { violation, .. }) => Some(violation.clone()),
            _ => None,
        }
    }

    /// The channel constraints of `violation` over the live message
    /// table, so in-flight sends are modelled exactly: delivered endpoints
    /// and the send-side states of messages still in flight, both empty
    /// when the violation does not constrain channels.
    fn channel_parts(
        &self,
        violation: &RegularPredicate,
    ) -> (Vec<(StateId, StateId)>, Vec<StateId>) {
        let (mut delivered, mut in_flight) = (Vec::new(), Vec::new());
        if violation.uses_channels() {
            for (from, to) in self.store.message_endpoints() {
                match to {
                    Some(to) => delivered.push((from, to)),
                    None => in_flight.push(from),
                }
            }
        }
        (delivered, in_flight)
    }

    /// Fill `cache.slice` for the current prefix if absent. Conjunct truth
    /// is read in place off the incremental truth columns (`conj = !truth`,
    /// see [`PredicateClass::session_locals`]).
    fn ensure_slice(&mut self, violation: &RegularPredicate) {
        if self.cache.slice.is_some() {
            return;
        }
        let _prof = pctl_prof::span("stream_slice_build");
        let (delivered, in_flight) = self.channel_parts(violation);
        let store = &self.store;
        self.cache.slice = Some(SlicedDeposet::build_from_parts(
            store,
            |s| !store.truth(s),
            &delivered,
            &in_flight,
        ));
    }

    /// Run the off-line control algorithm over the incrementally-grown
    /// intervals of the current prefix (memoized per prefix + options).
    pub fn control(&mut self, opts: OfflineOptions) -> Result<ControlRelation, Infeasible> {
        self.control_with_stats(opts).0
    }

    /// [`control`](Self::control), also returning operation counts.
    pub fn control_with_stats(
        &mut self,
        opts: OfflineOptions,
    ) -> (Result<ControlRelation, Infeasible>, OfflineStats) {
        self.refresh();
        if let Some((o, r, st)) = &self.cache.control {
            if *o == opts {
                self.cache_hits += 1;
                return (r.clone(), *st);
            }
        }
        let _prof = pctl_prof::span("stream_control");
        let out = match self.regular_violation() {
            Some(v) => {
                self.ensure_slice(&v);
                let slice = self.cache.slice.as_ref().expect("just filled");
                control_intervals(&self.store, slice.frontier_intervals(), opts)
            }
            None => control_intervals(&self.store, self.store.intervals(), opts),
        };
        self.cache.control = Some((opts, out.0.clone(), out.1));
        out
    }

    /// Strong detection at the current prefix: a pairwise-overlapping set
    /// of intervals (Lemma 2), `Some` iff no interval controller exists.
    /// Memoized per prefix.
    pub fn infeasibility_witness(&mut self) -> Option<Vec<Interval>> {
        self.refresh();
        if let Some(w) = &self.cache.witness {
            self.cache_hits += 1;
            return w.clone();
        }
        let _prof = pctl_prof::span("stream_infeasibility");
        let out = match self.regular_violation() {
            Some(v) => {
                self.ensure_slice(&v);
                let slice = self.cache.slice.as_ref().expect("just filled");
                store::find_overlap(&self.store, slice.frontier_intervals())
            }
            None => store::find_overlap(&self.store, self.store.intervals()),
        };
        self.cache.witness = Some(out.clone());
        out
    }

    /// Weak detection at the current prefix: the earliest consistent cut
    /// where every local predicate is false (disjunctive), or the least
    /// satisfying cut (regular, by one upward closure; no slice is built).
    /// Candidate truth is read off the incremental columns — no predicate
    /// re-evaluation. Memoized per prefix, and a found violation is kept
    /// across appends.
    pub fn detect_violation(&mut self) -> Option<GlobalState> {
        self.refresh();
        if let Some(d) = &self.cache.detect {
            self.cache_hits += 1;
            return d.clone();
        }
        let _prof = pctl_prof::span("stream_detect_violation");
        let out = self.violation_in(&self.store);
        self.cache.detect = Some(out.clone());
        out
    }

    /// The class's detector over `store`, which orders the session's
    /// states (the session store itself, or a controlled store over its
    /// snapshot), with truth read off the session's columns and channels
    /// off its message table.
    fn violation_in<C: CausalStore>(&self, store: &C) -> Option<GlobalState> {
        match self.regular_violation() {
            Some(v) => {
                let (delivered, in_flight) = self.channel_parts(&v);
                let conj = |s| !self.store.truth(s);
                least_satisfying_cut(store, conj, &delivered, &in_flight)
            }
            None => store::possibly_all_false(store, |p| self.store.truths_of(p)),
        }
    }

    /// Verify `rel` against the current prefix: detection over the
    /// controlled store of a batch [`snapshot`](Self::snapshot). The
    /// snapshot keeps every [`StateId`] and demotes in-flight sends to
    /// internal events, which leaves the clocks unchanged; the detectors
    /// read the session's truth columns and, for a regular class, its
    /// delivered and in-flight messages, so a channel predicate sees the
    /// sends in flight as they are.
    pub fn verify(&self, rel: &ControlRelation) -> Result<(), VerifyError> {
        let _prof = pctl_prof::span("stream_verify");
        detect_under(&self.snapshot(), rel, |c| self.violation_in(c))
    }

    /// An immutable batch view of the current prefix (undelivered sends
    /// rewritten to internal events, delivered messages densely renumbered).
    ///
    /// # Panics
    /// Panics if the store's invariants were violated — impossible through
    /// the public [`apply`](Self::apply) path; in the daemon a panic here
    /// poisons only the owning session.
    pub fn snapshot(&self) -> Deposet {
        let _prof = pctl_prof::span("stream_snapshot");
        self.store
            .snapshot()
            .expect("session store invariants guarantee a valid snapshot")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::PredicateEngine;
    use crate::verify::verify_regular;
    use pctl_deposet::generator::{random_deposet, RandomConfig};
    use pctl_deposet::linearize;

    fn replayed(dep: &Deposet, locals: Vec<LocalPredicate>) -> StreamEngine {
        let (init, ops) = linearize(dep);
        let mut eng = StreamEngine::new_with_init(locals, &init);
        for op in &ops {
            eng.apply(op).unwrap();
        }
        eng
    }

    #[test]
    fn final_prefix_matches_batch_engine_on_random_traces() {
        for seed in 0..25 {
            let dep = random_deposet(
                &RandomConfig {
                    processes: 3,
                    events: 24,
                    ..RandomConfig::default()
                },
                seed,
            );
            let pred = DisjunctivePredicate::at_least_one(3, "ok");
            let mut stream = replayed(&dep, pred.locals().to_vec());
            let batch = PredicateEngine::new(&dep, pred);
            let opts = OfflineOptions::default();
            assert_eq!(
                stream.detect_violation(),
                batch.detect_violation(),
                "seed {seed}"
            );
            assert_eq!(stream.control(opts), batch.control(opts), "seed {seed}");
            assert_eq!(
                stream.infeasibility_witness(),
                batch.infeasibility_witness(),
                "seed {seed}"
            );
            assert_eq!(stream.store().intervals(), batch.intervals(), "seed {seed}");
            if let Ok(rel) = stream.control(opts) {
                assert!(stream.verify(&rel).is_ok(), "seed {seed}");
            }
        }
    }

    #[test]
    fn verify_agrees_with_batch_on_the_snapshot() {
        for seed in 0..8 {
            let dep = random_deposet(
                &RandomConfig {
                    processes: 3,
                    events: 16,
                    ..RandomConfig::default()
                },
                seed,
            );
            let pred = DisjunctivePredicate::at_least_one(3, "ok");
            let mut stream = replayed(&dep, pred.locals().to_vec());
            if let Ok(rel) = stream.control(OfflineOptions::default()) {
                let batch = PredicateEngine::new(&dep, pred);
                assert_eq!(
                    stream.verify(&rel).is_ok(),
                    batch.verify(&rel).is_ok(),
                    "seed {seed}"
                );
            }
        }
    }

    /// A session of `ok₀ ∧ ok₁ ∧ ChannelsEmpty`, fed `ops`.
    fn channel_session(ops: &[AppendOp]) -> StreamEngine {
        let class = PredicateClass::regular(
            2,
            RegularPredicate::And(vec![
                RegularPredicate::conj_var(&[0, 1], "ok"),
                RegularPredicate::ChannelsEmpty,
            ]),
        );
        let mut eng = StreamEngine::for_class(class, None).unwrap();
        for op in ops {
            eng.apply(op).unwrap();
        }
        eng
    }

    fn set_ok() -> Vec<(String, i64)> {
        vec![("ok".to_string(), 1)]
    }

    fn send_from_p0(updates: Vec<(String, i64)>) -> AppendOp {
        AppendOp::Send {
            process: 0,
            msg: 7,
            tag: "m".into(),
            updates,
        }
    }

    /// P0 sets `ok` and then sends a message that is still in flight: the
    /// cut before the send violates `ok₀ ∧ ok₁ ∧ ChannelsEmpty`, and verify
    /// reports it for a relation that does not prevent it, and accepts the
    /// relation control synthesizes.
    #[test]
    fn verify_reports_a_violation_with_a_send_in_flight() {
        let mut eng = channel_session(&[
            AppendOp::Internal {
                process: 0,
                updates: set_ok(),
            },
            send_from_p0(vec![]),
            AppendOp::Internal {
                process: 1,
                updates: set_ok(),
            },
        ]);
        assert_eq!(eng.store().in_flight(), 1);
        let cut = GlobalState::from_indices(vec![1, 1]);
        assert_eq!(eng.detect_violation(), Some(cut.clone()));
        assert!(matches!(
            eng.verify(&ControlRelation::empty()),
            Err(VerifyError::Violation { state }) if state == cut
        ));
        let rel = eng.control(OfflineOptions::default()).unwrap();
        assert!(!rel.is_empty());
        assert!(eng.verify(&rel).is_ok());
    }

    /// P0 sets `ok` by a send that is still in flight: no cut of the
    /// session satisfies `ok₀ ∧ ok₁ ∧ ChannelsEmpty`, so the empty relation
    /// is sound and verifies. The snapshot alone turns the send into an
    /// internal event and has a violating cut the session does not have.
    #[test]
    fn verify_accepts_a_sound_relation_with_a_send_in_flight() {
        let mut eng = channel_session(&[
            send_from_p0(set_ok()),
            AppendOp::Internal {
                process: 1,
                updates: set_ok(),
            },
        ]);
        assert_eq!(eng.detect_violation(), None);
        let rel = eng.control(OfflineOptions::default()).unwrap();
        assert!(rel.is_empty());
        assert!(eng.verify(&rel).is_ok());
        let PredicateClass::Regular { violation, .. } = eng.predicate_class() else {
            unreachable!()
        };
        assert!(matches!(
            verify_regular(&eng.snapshot(), &violation, &rel),
            Err(VerifyError::Violation { .. })
        ));
        // Once the message lands, the cut past the receive violates.
        eng.apply(&AppendOp::Recv {
            process: 1,
            msg: 7,
            updates: vec![],
        })
        .unwrap();
        assert_eq!(eng.store().in_flight(), 0);
        assert_eq!(
            eng.detect_violation(),
            Some(GlobalState::from_indices(vec![1, 2]))
        );
        assert!(matches!(
            eng.verify(&ControlRelation::empty()),
            Err(VerifyError::Violation { state }) if state.indices() == [1, 2]
        ));
    }

    #[test]
    fn empty_session_is_trivially_controllable() {
        let mut eng = StreamEngine::new(vec![LocalPredicate::var("ok"), LocalPredicate::var("ok")]);
        // Both initial states have `ok` unset (false): a 2-process overlap.
        assert!(eng.detect_violation().is_some());
        assert!(eng.infeasibility_witness().is_some());
        assert!(eng.control(OfflineOptions::default()).is_err());
        let mut eng2 = StreamEngine::new_with_init(
            vec![LocalPredicate::var("ok"), LocalPredicate::var("ok")],
            &[vec![("ok".to_string(), 1)], vec![("ok".to_string(), 0)]],
        );
        assert_eq!(eng2.detect_violation(), None);
        let rel = eng2.control(OfflineOptions::default()).unwrap();
        assert!(eng2.verify(&rel).is_ok());
    }
}
