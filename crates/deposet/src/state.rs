//! Local states and their variable payloads.
//!
//! In the paper's model (Section 3) "a state corresponds to an assignment of
//! values to all variables in the process". We represent that assignment as
//! a name-sorted association list from variable names to 64-bit integers;
//! booleans are encoded as 0/1. Local predicates are evaluated against this
//! payload.
//!
//! # Representation
//!
//! A [`LocalState`] is 48 bytes: a 32-byte [`Variables`] and a 16-byte
//! optional boxed label (labels are rare; only figure-style traces set
//! them).
//!
//! * **One variable inline.** Most traced processes carry a single
//!   variable (`cs`, `ok`, …), so `Variables` holds exactly one entry
//!   inline, and two or more in one shared, name-sorted slice. The form is
//!   canonical — no entries, one inline entry, or a slice of at least two
//!   — so derived equality compares assignments, and `Debug` and the JSON
//!   bytes are those of the plain sorted list.
//! * **Shared names.** Names are `Arc<str>`: the builder derives each
//!   state by cloning its predecessor's assignment and applying updates,
//!   so along a process's whole state chain every variable name is one
//!   shared allocation and cloning an assignment copies refcounted
//!   pointers instead of re-allocating strings. Decoding a trace shares
//!   names the same way: the JSON reader interns them, one allocation per
//!   distinct name in the document.
//! * **Shared slices.** An assignment of two or more variables is an
//!   `Arc<[_]>`, so a state that changes no variable (a send, a receive)
//!   shares its predecessor's slice, and the builder hands a chain that
//!   toggles a flag back to the slice it held before.
//!
//! Together these make recording a state allocation-free in steady state:
//! a simulated step allocates nothing, also on a process that carries a
//! second variable (the simulator's `down` flag after a crash), and
//! decoding a one-variable state allocates nothing either.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::sync::Arc;

/// One `(name, value)` entry of an assignment.
type Entry = (Arc<str>, i64);

/// Variable assignment carried by a local state.
///
/// Serializes as a JSON map (`{"name": value, …}`), same wire format as a
/// sorted map of names to integers.
#[derive(Clone, Default, PartialEq, Eq)]
pub struct Variables {
    repr: Repr,
}

/// The canonical form of an assignment (module docs): no entries is
/// `Empty`, exactly one is `One`, and two or more are `Many`, sorted by
/// name, with names and the slice itself shared across clones.
#[derive(Clone, Default, PartialEq, Eq)]
enum Repr {
    #[default]
    Empty,
    One(Entry),
    Many(Arc<[Entry]>),
}

impl Variables {
    /// Empty assignment.
    pub fn new() -> Self {
        Variables::default()
    }

    /// Build from an iterator of `(name, value)` pairs; on duplicate names
    /// the last value wins (map semantics).
    pub fn from_pairs<'a>(pairs: impl IntoIterator<Item = (&'a str, i64)>) -> Self {
        let mut v = Variables::new();
        for (k, val) in pairs {
            v.set(k, val);
        }
        v
    }

    /// The entries, sorted by name.
    #[inline]
    fn entries(&self) -> &[Entry] {
        match &self.repr {
            Repr::Empty => &[],
            Repr::One(e) => std::slice::from_ref(e),
            Repr::Many(v) => v,
        }
    }

    /// The entries for writing; a slice shared with another assignment is
    /// copied first.
    #[inline]
    fn entries_mut(&mut self) -> &mut [Entry] {
        match &mut self.repr {
            Repr::Empty => &mut [],
            Repr::One(e) => std::slice::from_mut(e),
            Repr::Many(v) => Arc::make_mut(v),
        }
    }

    #[inline]
    fn find(&self, name: &str) -> Result<usize, usize> {
        self.entries().binary_search_by(|(k, _)| (**k).cmp(name))
    }

    /// Insert a fresh name at sorted position `at`, keeping the form
    /// canonical: an empty assignment takes it inline, and otherwise the
    /// entries move to a new slice.
    fn insert(&mut self, at: usize, name: Arc<str>, value: i64) {
        let entry = (name, value);
        self.repr = match std::mem::take(&mut self.repr) {
            Repr::Empty => Repr::One(entry),
            Repr::One(first) => Repr::Many(if at == 0 {
                [entry, first].into()
            } else {
                [first, entry].into()
            }),
            Repr::Many(v) => Repr::Many(
                v[..at]
                    .iter()
                    .cloned()
                    .chain(std::iter::once(entry))
                    .chain(v[at..].iter().cloned())
                    .collect(),
            ),
        };
    }

    /// Value of `name`, or `None` if unset.
    pub fn get(&self, name: &str) -> Option<i64> {
        // Predicate evaluation reads every state: settle the one-variable
        // form with a single compare.
        match &self.repr {
            Repr::Empty => None,
            Repr::One((k, v)) => (**k == *name).then_some(*v),
            Repr::Many(entries) => (entries.binary_search_by(|(k, _)| (**k).cmp(name)))
                .ok()
                .map(|i| entries[i].1),
        }
    }

    /// Value of `name` interpreted as a boolean; unset variables are `false`.
    pub fn get_bool(&self, name: &str) -> bool {
        self.get(name).is_some_and(|v| v != 0)
    }

    /// Set `name` to `value`, returning the previous value.
    ///
    /// Updating an existing variable keeps the interned name. Only the
    /// first assignment of a fresh name allocates, and an update to an
    /// assignment of two or more variables whose slice a clone shares,
    /// which copies the slice first.
    pub fn set(&mut self, name: &str, value: i64) -> Option<i64> {
        self.set_with(name, value, |name| Arc::from(name))
    }

    /// [`set`](Self::set), taking a fresh name's shared copy from `name_of`.
    fn set_with(
        &mut self,
        name: &str,
        value: i64,
        name_of: impl FnOnce(&str) -> Arc<str>,
    ) -> Option<i64> {
        match self.find(name) {
            Ok(i) if self.entries()[i].1 == value => Some(value),
            Ok(i) => Some(std::mem::replace(&mut self.entries_mut()[i].1, value)),
            Err(i) => {
                self.insert(i, name_of(name), value);
                None
            }
        }
    }

    /// The next state's assignment on a chain: `self` with `updates`
    /// applied, fresh names shared through `names`.
    ///
    /// `previous` is the assignment the chain held before its last change;
    /// it is updated here. When the step changes an assignment of two or
    /// more variables back to `previous` (a flag set and cleared again),
    /// the result shares `previous`'s slice, so such a chain records its
    /// states without allocating.
    pub(crate) fn stepped(
        &self,
        updates: &[(&str, i64)],
        previous: &mut Variables,
        names: &mut serde::Interner,
    ) -> Variables {
        if updates.is_empty() {
            return self.clone();
        }
        let shared = matches!(self.repr, Repr::Many(_));
        if shared && previous.is_update_of(self, updates) {
            return std::mem::replace(previous, self.clone());
        }
        let mut next = self.clone();
        for (k, v) in updates {
            next.set_with(k, *v, |k| names.intern(k));
        }
        if shared && next != *self {
            *previous = self.clone();
        }
        next
    }

    /// Whether `self` is `base` with `updates` applied, where every update
    /// names a variable `base` already has.
    fn is_update_of(&self, base: &Variables, updates: &[(&str, i64)]) -> bool {
        let (mine, theirs) = (self.entries(), base.entries());
        mine.len() == theirs.len()
            && updates.iter().all(|(k, _)| base.find(k).is_ok())
            && mine.iter().zip(theirs).all(|((k, v), (bk, bv))| {
                let want = updates
                    .iter()
                    .rev()
                    .find(|(u, _)| *u == &**bk)
                    .map_or(*bv, |&(_, u)| u);
                k == bk && *v == want
            })
    }

    /// Set a boolean variable.
    pub fn set_bool(&mut self, name: &str, value: bool) -> Option<i64> {
        self.set(name, i64::from(value))
    }

    /// Iterate over `(name, value)` pairs in sorted name order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, i64)> {
        self.entries().iter().map(|(k, v)| (&**k, *v))
    }

    /// Number of variables set.
    pub fn len(&self) -> usize {
        self.entries().len()
    }

    /// Whether no variables are set.
    pub fn is_empty(&self) -> bool {
        self.entries().is_empty()
    }
}

/// Prints the sorted entry list whatever the representation, as the
/// derived `Debug` of a `Vec`-backed assignment did.
impl fmt::Debug for Variables {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Variables")
            .field("entries", &self.entries())
            .finish()
    }
}

impl Serialize for Variables {
    fn serialize(&self, w: &mut serde::Writer<'_>) {
        w.begin_object();
        for (k, v) in self.entries() {
            w.key(k);
            w.i64(*v);
        }
        w.end_object();
    }
}

impl Deserialize for Variables {
    /// Names are interned by the reader, so every state of a decoded
    /// trace shares one allocation per distinct name. On duplicate names
    /// the last value wins, as in [`Variables::set`].
    fn deserialize(r: &mut serde::Reader<'_>) -> Result<Self, serde::DeError> {
        let mut vars = Variables::new();
        r.object("Variables", |r, name| {
            let value = i64::deserialize(r).map_err(|e| e.context(&name))?;
            // Encoded names come sorted: the common case appends.
            let at = match vars.entries().last() {
                Some((last, _)) if **last < *name => Err(vars.len()),
                _ => vars.find(&name),
            };
            match at {
                Ok(i) => vars.entries_mut()[i].1 = value,
                Err(i) => vars.insert(i, r.intern(&name), value),
            }
            Ok(())
        })?;
        Ok(vars)
    }
}

impl<'a> FromIterator<(&'a str, i64)> for Variables {
    fn from_iter<T: IntoIterator<Item = (&'a str, i64)>>(iter: T) -> Self {
        Variables::from_pairs(iter)
    }
}

/// A local state: one point in the sequential execution of a process.
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct LocalState {
    /// Variable assignment in effect at this state.
    pub vars: Variables,
    /// Optional human-readable label (used by the paper's Figure 4 example
    /// to name states `a` … `f`). Boxed, as labels are rare: see the
    /// module docs.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub label: Option<Box<str>>,
}

impl LocalState {
    /// A state with the given assignment and no label.
    pub fn new(vars: Variables) -> Self {
        LocalState { vars, label: None }
    }

    /// Attach a label.
    pub fn with_label(mut self, label: impl Into<Box<str>>) -> Self {
        self.label = Some(label.into());
        self
    }
}

impl fmt::Display for LocalState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if let Some(l) = &self.label {
            write!(f, "{l}")?;
        }
        write!(f, "{{")?;
        for (i, (k, v)) in self.vars.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{k}={v}")?;
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unset_bool_is_false() {
        let v = Variables::new();
        assert!(!v.get_bool("avail"));
        assert_eq!(v.get("avail"), None);
    }

    #[test]
    fn set_and_read_back() {
        let mut v = Variables::new();
        assert_eq!(v.set("x", 3), None);
        assert_eq!(v.set("x", 4), Some(3));
        assert_eq!(v.get("x"), Some(4));
        v.set_bool("flag", true);
        assert!(v.get_bool("flag"));
        v.set_bool("flag", false);
        assert!(!v.get_bool("flag"));
    }

    #[test]
    fn from_pairs_sorted_iteration() {
        let v = Variables::from_pairs([("b", 2), ("a", 1)]);
        let pairs: Vec<_> = v.iter().collect();
        assert_eq!(pairs, vec![("a", 1), ("b", 2)]);
        assert_eq!(v.len(), 2);
        assert!(!v.is_empty());
    }

    #[test]
    fn display_renders_label_and_vars() {
        let s = LocalState::new(Variables::from_pairs([("cs", 1)])).with_label("e");
        assert_eq!(format!("{s}"), "e{cs=1}");
    }

    #[test]
    fn variables_serialize_as_a_plain_map() {
        let v = Variables::from_pairs([("b", 2), ("a", 1)]);
        assert_eq!(serde_json::to_string(&v).unwrap(), r#"{"a":1,"b":2}"#);
        let back: Variables = serde_json::from_str(r#"{"b":2,"a":1}"#).unwrap();
        assert_eq!(v, back);
    }

    #[test]
    fn from_pairs_last_value_wins() {
        let v = Variables::from_pairs([("x", 1), ("x", 2)]);
        assert_eq!(v.get("x"), Some(2));
        assert_eq!(v.len(), 1);
    }

    #[test]
    fn decoding_sorts_and_keeps_the_last_duplicate() {
        let v: Variables = serde_json::from_str(r#"{"z":1,"a":2,"z":3}"#).unwrap();
        assert_eq!(v.iter().collect::<Vec<_>>(), vec![("a", 2), ("z", 3)]);
        let err = serde_json::from_str::<Variables>(r#"{"a":"x"}"#).unwrap_err();
        assert!(err.to_string().starts_with("a: "), "{err}");
        assert!(serde_json::from_str::<Variables>("[1]").is_err());
    }

    #[test]
    fn decoded_trace_shares_names_along_each_chain() {
        let cfg = crate::generator::CsConfig::default();
        let dep = crate::generator::cs_workload(&cfg, 3);
        let back = crate::trace::from_json(&crate::trace::to_json(&dep)).unwrap();
        let mut shared = 0;
        for p in back.processes() {
            for pair in back.states_of(p).windows(2) {
                let (prev, next) = (pair[0].vars.entries(), pair[1].vars.entries());
                for (b, _) in next {
                    if let Some((a, _)) = prev.iter().find(|(a, _)| a == b) {
                        assert!(Arc::ptr_eq(a, b), "`{b}` is a fresh copy on {p:?}");
                        shared += 1;
                    }
                }
            }
        }
        assert!(shared > 0);
    }

    #[test]
    fn state_serde_roundtrip() {
        let s = LocalState::new(Variables::from_pairs([("x", -7)])).with_label("a");
        let json = serde_json::to_string(&s).unwrap();
        let back: LocalState = serde_json::from_str(&json).unwrap();
        assert_eq!(s, back);
    }
}
