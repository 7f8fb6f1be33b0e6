//! False-intervals of local predicates.
//!
//! The paper's Section 5 divides each process's state sequence into maximal
//! runs that are *true* or *false* with respect to its local predicate
//! `lᵢ`; the control algorithm operates exclusively on the *false intervals*
//! (`I.lo` / `I.hi` are the first and last states of a maximal false run).
//! Extraction happens once per (deposet, predicate) pair so that predicate
//! evaluation cost is paid once. The scanning itself lives in the
//! computation [`crate::store`] (`truth_of_process` + `intervals_from_truth`);
//! extraction composes the two per process, in one sequential loop.

use crate::model::Deposet;
use crate::predicate::{DisjunctivePredicate, LocalPredicate};
use pctl_causality::{ProcessId, StateId};
use serde::{Deserialize, Serialize};

/// A maximal run of consecutive states on one process where the local
/// predicate is false. `lo ≤ hi`, both inclusive.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Interval {
    /// Owning process.
    pub process: ProcessId,
    /// Index of the first false state.
    pub lo: u32,
    /// Index of the last false state.
    pub hi: u32,
}

impl Interval {
    /// `I.lo` as a state id.
    pub fn lo_state(&self) -> StateId {
        StateId {
            process: self.process,
            index: self.lo,
        }
    }

    /// `I.hi` as a state id.
    pub fn hi_state(&self) -> StateId {
        StateId {
            process: self.process,
            index: self.hi,
        }
    }

    /// Number of states in the interval. Widened before the `+ 1` so a
    /// full-range interval (`lo = 0`, `hi = u32::MAX`) reports its true
    /// length instead of wrapping to 0.
    pub fn len(&self) -> usize {
        (self.hi - self.lo) as usize + 1
    }

    /// Intervals are never empty by construction.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Whether state index `k` lies inside the interval.
    pub fn contains_index(&self, k: u32) -> bool {
        self.lo <= k && k <= self.hi
    }
}

/// Per-process sorted false-interval lists for a disjunctive predicate.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct FalseIntervals {
    per_proc: Vec<Vec<Interval>>,
}

impl FalseIntervals {
    /// Extract the false intervals of each `lᵢ` from `dep`.
    ///
    /// # Panics
    /// Panics if the predicate arity differs from the process count.
    pub fn extract(dep: &Deposet, pred: &DisjunctivePredicate) -> Self {
        assert_eq!(
            pred.arity(),
            dep.process_count(),
            "disjunctive predicate arity must equal process count"
        );
        let per_proc = dep
            .processes()
            .map(|p| extract_one(dep, p, pred.local(p)))
            .collect();
        FalseIntervals { per_proc }
    }

    /// Extract from explicit per-process local predicates.
    pub fn extract_each(dep: &Deposet, locals: &[LocalPredicate]) -> Self {
        assert_eq!(locals.len(), dep.process_count());
        let per_proc = dep
            .processes()
            .zip(locals)
            .map(|(p, local)| extract_one(dep, p, local))
            .collect();
        FalseIntervals { per_proc }
    }

    /// Build from precomputed interval lists (must be sorted and disjoint
    /// per process — callers from tests/generators).
    pub fn from_raw(per_proc: Vec<Vec<Interval>>) -> Self {
        for (p, iv) in per_proc.iter().enumerate() {
            for w in iv.windows(2) {
                // checked: an interval ending at u32::MAX leaves no room
                // for a successor, and `hi + 1` must not wrap into passing.
                assert!(
                    w[0].hi.checked_add(1).is_some_and(|b| b < w[1].lo),
                    "intervals on P{p} must be disjoint, non-adjacent and sorted"
                );
            }
            for i in iv {
                assert!(i.lo <= i.hi && i.process == ProcessId(p as u32));
            }
        }
        FalseIntervals { per_proc }
    }

    /// Number of processes.
    pub fn process_count(&self) -> usize {
        self.per_proc.len()
    }

    /// The false intervals of process `p`, in increasing order.
    pub fn of(&self, p: ProcessId) -> &[Interval] {
        &self.per_proc[p.index()]
    }

    /// Maximum number of false intervals on any process (the paper's `p`).
    pub fn max_per_process(&self) -> usize {
        self.per_proc.iter().map(Vec::len).max().unwrap_or(0)
    }

    /// Total number of false intervals.
    pub fn total(&self) -> usize {
        self.per_proc.iter().map(Vec::len).sum()
    }

    /// The first false interval of `p` whose `lo` is at or after state
    /// index `from` — the algorithm's `N(i)` lookup is built on this.
    pub fn next_at_or_after(&self, p: ProcessId, from: u32) -> Option<&Interval> {
        let iv = &self.per_proc[p.index()];
        let pos = iv.partition_point(|i| i.lo < from);
        iv.get(pos)
    }

    /// An empty interval set over `n` processes (all-true columns so far) —
    /// the starting point for incremental growth.
    pub(crate) fn empty(n: usize) -> Self {
        FalseIntervals {
            per_proc: vec![Vec::new(); n],
        }
    }

    /// Record the truth value of the newly appended state `k` of process
    /// `p`, growing the interval list in place: a false state either extends
    /// the trailing false run (when it ends at `k - 1`) or opens a new one.
    ///
    /// Appending index `k` to a column of length `k` keeps this exactly
    /// equivalent to re-running [`crate::store::intervals_from_truth`] on
    /// the grown column — the invariant the incremental session store's
    /// prefix-equivalence proptest pins down.
    pub(crate) fn extend_for_append(&mut self, p: ProcessId, k: u32, truth: bool) {
        if truth {
            return;
        }
        let iv = &mut self.per_proc[p.index()];
        match iv.last_mut() {
            Some(last) if last.hi + 1 == k => last.hi = k,
            _ => iv.push(Interval {
                process: p,
                lo: k,
                hi: k,
            }),
        }
    }

    /// The false interval of `p` containing state index `k`, if any.
    pub fn containing(&self, p: ProcessId, k: u32) -> Option<&Interval> {
        let iv = &self.per_proc[p.index()];
        let pos = iv.partition_point(|i| i.hi < k);
        iv.get(pos).filter(|i| i.contains_index(k))
    }
}

fn extract_one(dep: &Deposet, p: ProcessId, local: &LocalPredicate) -> Vec<Interval> {
    let truth = crate::store::truth_of_process(dep, p, local);
    crate::store::intervals_from_truth(p, &truth)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::DeposetBuilder;
    use crate::predicate::DisjunctivePredicate;

    /// One process whose `ok` variable follows the given pattern.
    fn pattern_dep(pattern: &[i64]) -> Deposet {
        let mut b = DeposetBuilder::new(1);
        b.init_vars(0, &[("ok", pattern[0])]);
        for &v in &pattern[1..] {
            b.internal(0, &[("ok", v)]);
        }
        b.finish().unwrap()
    }

    fn intervals_for(pattern: &[i64]) -> Vec<(u32, u32)> {
        let d = pattern_dep(pattern);
        let f = FalseIntervals::extract(&d, &DisjunctivePredicate::at_least_one(1, "ok"));
        f.of(ProcessId(0)).iter().map(|i| (i.lo, i.hi)).collect()
    }

    #[test]
    fn extraction_finds_maximal_runs() {
        assert_eq!(intervals_for(&[1, 0, 0, 1, 0, 1]), vec![(1, 2), (4, 4)]);
        assert_eq!(
            intervals_for(&[0, 0, 0]),
            vec![(0, 2)],
            "all-false is one run"
        );
        assert_eq!(intervals_for(&[1, 1, 1]), vec![], "all-true has no runs");
        assert_eq!(intervals_for(&[0, 1, 0]), vec![(0, 0), (2, 2)]);
    }

    #[test]
    fn interval_accessors() {
        let i = Interval {
            process: ProcessId(2),
            lo: 3,
            hi: 5,
        };
        assert_eq!(i.lo_state(), StateId::new(2usize, 3));
        assert_eq!(i.hi_state(), StateId::new(2usize, 5));
        assert_eq!(i.len(), 3);
        assert!(i.contains_index(4));
        assert!(!i.contains_index(6));
        assert!(!i.is_empty());
    }

    #[test]
    fn next_at_or_after_and_containing() {
        let d = pattern_dep(&[1, 0, 0, 1, 0, 1]);
        let f = FalseIntervals::extract(&d, &DisjunctivePredicate::at_least_one(1, "ok"));
        let p = ProcessId(0);
        assert_eq!(f.next_at_or_after(p, 0).map(|i| i.lo), Some(1));
        assert_eq!(f.next_at_or_after(p, 1).map(|i| i.lo), Some(1));
        assert_eq!(f.next_at_or_after(p, 2).map(|i| i.lo), Some(4));
        assert_eq!(f.next_at_or_after(p, 5), None);
        assert_eq!(f.containing(p, 2).map(|i| i.lo), Some(1));
        assert_eq!(f.containing(p, 3), None);
        assert_eq!(f.containing(p, 4).map(|i| (i.lo, i.hi)), Some((4, 4)));
    }

    #[test]
    fn stats() {
        let mut b = DeposetBuilder::new(2);
        b.init_vars(0, &[("ok", 1)]);
        b.init_vars(1, &[("ok", 0)]);
        b.internal(0, &[("ok", 0)]);
        b.internal(0, &[("ok", 1)]);
        b.internal(1, &[("ok", 1)]);
        let d = b.finish().unwrap();
        let f = FalseIntervals::extract(&d, &DisjunctivePredicate::at_least_one(2, "ok"));
        assert_eq!(f.total(), 2);
        assert_eq!(f.max_per_process(), 1);
        assert_eq!(f.process_count(), 2);
    }

    #[test]
    fn len_does_not_wrap_on_full_range_intervals() {
        // lo = 0, hi = u32::MAX used to compute (hi - lo + 1) in u32 and
        // wrap to 0 states; the widened arithmetic reports 2^32.
        let i = Interval {
            process: ProcessId(0),
            lo: 0,
            hi: u32::MAX,
        };
        assert_eq!(i.len(), u32::MAX as usize + 1);
        assert!(!i.is_empty());
    }

    #[test]
    #[should_panic(expected = "disjoint")]
    fn from_raw_rejects_successor_after_hi_u32_max() {
        // `hi + 1` used to wrap to 0 here and incorrectly pass the
        // disjointness check.
        FalseIntervals::from_raw(vec![vec![
            Interval {
                process: ProcessId(0),
                lo: 0,
                hi: u32::MAX,
            },
            Interval {
                process: ProcessId(0),
                lo: 5,
                hi: 6,
            },
        ]]);
    }

    #[test]
    #[should_panic(expected = "disjoint")]
    fn from_raw_rejects_adjacent_intervals() {
        FalseIntervals::from_raw(vec![vec![
            Interval {
                process: ProcessId(0),
                lo: 0,
                hi: 1,
            },
            Interval {
                process: ProcessId(0),
                lo: 2,
                hi: 3,
            },
        ]]);
    }
}
