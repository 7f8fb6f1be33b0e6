//! The streaming engine: [`PredicateEngine`]'s query surface over a
//! *growing* per-session store.
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
//! * [`verify`](StreamEngine::verify) — exhaustive relation soundness, via
//!   an honest batch [`snapshot`](StreamEngine::snapshot) (verification is
//!   lattice-exhaustive anyway, so a rebuild is not the bottleneck).
//!
//! All query paths call the *same monomorphised generic code* as the batch
//! engine ([`CausalStore`]-typed control, detection and overlap search), so
//! answers are bit-identical to a fresh `PredicateEngine` built over the
//! same prefix — the invariant `tests/streaming_prefix.rs` pins down per
//! append. This is what lets the daemon serve detect/control queries
//! mid-stream without ever rebuilding the computation.

use crate::control::ControlRelation;
use crate::offline::{control_intervals, Infeasible, OfflineOptions, OfflineStats};
use crate::verify::{verify_disjunctive, verify_regular, VerifyError};
use pctl_deposet::store;
use pctl_deposet::{
    AppendOp, CausalStore, ClassError, Deposet, DisjunctivePredicate, GlobalState, Interval,
    LocalPredicate, PredicateClass, ProcessId, RegularPredicate, SessionError, SessionStore,
    SlicedDeposet,
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
    /// conjunct truth maintained incrementally (the slicer reads it as
    /// `!truth`) and disjunctive classes behave exactly like
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

    /// The predicate under control/detection, rebuilt from the registered
    /// locals. For a regular-class session these are the *session locals*
    /// (`¬conjᵢ`), not user-facing disjuncts — prefer
    /// [`predicate_class`](Self::predicate_class).
    pub fn predicate(&self) -> DisjunctivePredicate {
        DisjunctivePredicate::new(self.store.locals().to_vec())
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

    /// Fill `cache.slice` for the current prefix if absent. Conjunct truth
    /// is read straight off the incremental truth columns (`conj = !truth`,
    /// see [`PredicateClass::session_locals`]); channel constraints read
    /// the live message table, so in-flight sends are modelled exactly.
    fn ensure_slice(&mut self, violation: &RegularPredicate) {
        if self.cache.slice.is_some() {
            return;
        }
        let _prof = pctl_prof::span("stream_slice_build");
        let n = self.store.process_count();
        let conj: Vec<Vec<bool>> = (0..n)
            .map(|p| {
                self.store
                    .truths_of(ProcessId(p as u32))
                    .iter()
                    .map(|&t| !t)
                    .collect()
            })
            .collect();
        let (mut delivered, mut in_flight) = (Vec::new(), Vec::new());
        if violation.uses_channels() {
            for (from, to) in self.store.message_endpoints() {
                match to {
                    Some(to) => delivered.push((from, to)),
                    None => in_flight.push(from),
                }
            }
        }
        self.cache.slice = Some(SlicedDeposet::build_from_parts(
            &self.store,
            &conj,
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
    /// where every local predicate is false (disjunctive), or the slice's
    /// least satisfying cut (regular). Candidate truth is read off the
    /// incremental columns — no predicate re-evaluation. Memoized per
    /// prefix, and a found violation is kept across appends.
    pub fn detect_violation(&mut self) -> Option<GlobalState> {
        self.refresh();
        if let Some(d) = &self.cache.detect {
            self.cache_hits += 1;
            return d.clone();
        }
        let _prof = pctl_prof::span("stream_detect_violation");
        let out = match self.regular_violation() {
            Some(v) => {
                self.ensure_slice(&v);
                self.cache
                    .slice
                    .as_ref()
                    .expect("just filled")
                    .min_cut()
                    .cloned()
            }
            None => {
                let n = self.store.process_count();
                let queues: Vec<Vec<u32>> = (0..n)
                    .map(|p| {
                        self.store
                            .truths_of(ProcessId(p as u32))
                            .iter()
                            .enumerate()
                            .filter(|&(_, &t)| !t)
                            .map(|(k, _)| k as u32)
                            .collect()
                    })
                    .collect();
                pctl_detect::possibly_from_queues(&self.store, &queues)
            }
        };
        self.cache.detect = Some(out.clone());
        out
    }

    /// Exhaustively verify `rel` against the current prefix (bounded by
    /// `limit` visited cuts). Runs over a batch snapshot: in-flight sends
    /// are demoted to internal events, which leaves clocks — and therefore
    /// the verified ordering — unchanged. (A regular-class session with
    /// channel terms is verified against that same snapshot view, i.e.
    /// with the still-in-flight sends not counted as channel contents.)
    pub fn verify(&self, rel: &ControlRelation, limit: usize) -> Result<(), VerifyError> {
        let _prof = pctl_prof::span("stream_verify");
        let dep = self.snapshot();
        match self.regular_violation() {
            Some(v) => verify_regular(&dep, &v, rel, limit),
            None => verify_disjunctive(&dep, &self.predicate(), rel, limit),
        }
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
                assert!(stream.verify(&rel, 500_000).is_ok(), "seed {seed}");
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
                    stream.verify(&rel, 500_000).is_ok(),
                    batch.verify(&rel, 500_000).is_ok(),
                    "seed {seed}"
                );
            }
        }
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
        assert!(eng2.verify(&rel, 1000).is_ok());
    }
}
