//! The exhaustive oracle shared by the integration tests.

use predicate_control::deposet::lattice;
use predicate_control::prelude::*;

/// The first consistent cut of `dep` under `rel`, in breadth-first order,
/// at which `pred` fails, found by walking the whole controlled lattice.
/// `verify_disjunctive` decides the same question polynomially; this is
/// the exhaustive check it is held to.
///
/// # Panics
/// Panics if `rel` does not apply to `dep` or the lattice exceeds
/// 3,000,000 cuts.
pub fn lattice_violation(
    dep: &Deposet,
    pred: &DisjunctivePredicate,
    rel: &ControlRelation,
) -> Option<GlobalState> {
    let controlled = ControlledDeposet::new(dep, rel.clone()).expect("relation applies");
    lattice::possibly(&controlled, 3_000_000, |_, g| !pred.eval(dep, g))
        .expect("lattice within budget")
}
