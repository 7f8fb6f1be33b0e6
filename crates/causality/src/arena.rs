//! Columnar vector-clock storage: one flat `u32` arena for a whole
//! computation.
//!
//! The naive representation of a computation's Fidge–Mattern clocks is
//! `Vec<Vec<VectorClock>>` — one heap allocation per *state*. The DP that
//! assigns clocks then clones a full clock per state (and one more per
//! receive), so constructing a computation with `S` states over `n`
//! processes costs `O(S)` allocator round-trips and `O(n·S)` copied words
//! scattered across the heap.
//!
//! A [`ClockArena`] stores all `S` clocks in **one** flat `Vec<u32>` of
//! exactly `n·S` words: row `r` (one per state, in a caller-chosen flat
//! order) occupies `words[r·n .. (r+1)·n]`. The DP becomes
//! `copy_within` + an indexed component-wise max — no per-state allocation
//! at all — and reads hand out [`ClockRef`] slices that borrow the arena.
//!
//! [`fill_clocks`] is the one clock fill used for both base causality
//! (message edges) and extended causality (message + control edges). It
//! keeps the merge edges in CSR form ([`csr_from_edges`]) and walks the
//! process chains in order, filling a row once its merge sources are
//! filled — no separate topological sort; a cycle shows as a process that
//! waits on itself. It is linear in rows plus edges.

use crate::ids::ProcessId;
use crate::order::Causality;
use crate::vclock::VectorClock;
use std::fmt;

/// A borrowed vector-clock value: one row of a [`ClockArena`].
///
/// Supports the same read API as [`VectorClock`] (`get`, `entries`,
/// comparison) without owning storage. Two refs compare equal iff their
/// component vectors are equal, regardless of which arena they borrow from.
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct ClockRef<'a> {
    entries: &'a [u32],
}

impl<'a> ClockRef<'a> {
    /// Wrap a raw component slice.
    #[inline]
    pub fn new(entries: &'a [u32]) -> Self {
        ClockRef { entries }
    }

    /// Number of processes this clock covers.
    #[inline]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the clock covers zero processes (degenerate).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The component for process `p`.
    #[inline]
    pub fn get(&self, p: ProcessId) -> u32 {
        self.entries[p.index()]
    }

    /// Raw components.
    #[inline]
    pub fn entries(&self) -> &'a [u32] {
        self.entries
    }

    /// Copy into an owned [`VectorClock`].
    pub fn to_owned_clock(&self) -> VectorClock {
        VectorClock::from_entries(self.entries.to_vec())
    }

    /// `self ≤ other` component-wise.
    pub fn dominated_by(&self, other: &ClockRef<'_>) -> bool {
        self.entries.len() == other.entries.len()
            && self.entries.iter().zip(other.entries).all(|(a, b)| a <= b)
    }

    /// Full causal comparison of two clock values.
    pub fn causality(&self, other: &ClockRef<'_>) -> Causality {
        let le = self.dominated_by(other);
        let ge = other.dominated_by(self);
        match (le, ge) {
            (true, true) => Causality::Equal,
            (true, false) => Causality::Before,
            (false, true) => Causality::After,
            (false, false) => Causality::Concurrent,
        }
    }
}

impl fmt::Debug for ClockRef<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "⟨")?;
        for (i, e) in self.entries.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{e}")?;
        }
        write!(f, "⟩")
    }
}

impl PartialEq<VectorClock> for ClockRef<'_> {
    fn eq(&self, other: &VectorClock) -> bool {
        self.entries == other.entries()
    }
}

/// Flat struct-of-arrays storage for the vector clocks of a computation.
///
/// One allocation of exactly `rows · width` words; see module docs.
#[derive(Clone, PartialEq, Eq)]
pub struct ClockArena {
    width: usize,
    words: Vec<u32>,
}

impl ClockArena {
    /// A zeroed arena of `rows` clocks over `width` processes.
    pub fn zeroed(width: usize, rows: usize) -> Self {
        ClockArena {
            width,
            words: vec![0; width * rows],
        }
    }

    /// Number of processes per clock (`n`).
    #[inline]
    pub fn width(&self) -> usize {
        self.width
    }

    /// Number of clock rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.words.len().checked_div(self.width).unwrap_or(0)
    }

    /// Total `u32` words held — the arena's entire storage footprint.
    ///
    /// Always exactly `width() · rows()`; callers assert this after
    /// construction to pin the O(n·S)-words storage bound.
    #[inline]
    pub fn allocated_words(&self) -> usize {
        self.words.len()
    }

    /// The clock in row `r`.
    #[inline]
    pub fn row(&self, r: usize) -> ClockRef<'_> {
        ClockRef::new(&self.words[r * self.width..(r + 1) * self.width])
    }

    /// Single component read: clock `r`, process `p`.
    #[inline]
    pub fn word(&self, r: usize, p: ProcessId) -> u32 {
        self.words[r * self.width + p.index()]
    }

    /// Overwrite row `dst` with row `src` (`memmove` within the arena).
    #[inline]
    pub fn copy_row(&mut self, dst: usize, src: usize) {
        if dst != src {
            let w = self.width;
            self.words.copy_within(src * w..(src + 1) * w, dst * w);
        }
    }

    /// Component-wise maximum of row `dst` with row `src`, in place.
    pub fn merge_row(&mut self, dst: usize, src: usize) {
        if dst == src {
            return;
        }
        let w = self.width;
        let (d0, s0) = (dst * w, src * w);
        for i in 0..w {
            let v = self.words[s0 + i];
            if v > self.words[d0 + i] {
                self.words[d0 + i] = v;
            }
        }
    }

    /// Component-wise maximum of row `dst` with an *external* clock row —
    /// one copied out of another arena. The incremental per-session store
    /// keeps one arena per process, so a receive merges its sender's row
    /// through this without touching the sender's storage.
    ///
    /// # Panics
    /// Panics if `src.len() != width()`.
    pub fn merge_from(&mut self, dst: usize, src: &[u32]) {
        assert_eq!(src.len(), self.width, "external row width mismatch");
        let d0 = dst * self.width;
        for (i, &v) in src.iter().enumerate() {
            if v > self.words[d0 + i] {
                self.words[d0 + i] = v;
            }
        }
    }

    /// Increment component `p` of row `r` (a local step of `p`).
    #[inline]
    pub fn tick(&mut self, r: usize, p: ProcessId) {
        self.words[r * self.width + p.index()] += 1;
    }

    /// One Fidge–Mattern DP step — the single row-kernel shared by the
    /// batch fill ([`fill_clocks`]) and the incremental per-session
    /// append. Row `r` becomes:
    ///
    /// 1. its local predecessor `r - 1` (skipped when `chain_start`; the
    ///    arena row must then already be zeroed);
    /// 2. merged with every row named in `intra_src` (sources *within this
    ///    arena*, already final);
    /// 3. merged with every `width()`-word row of `external` (rows gathered
    ///    out of *other* arenas, concatenated);
    /// 4. ticked in component `p`.
    ///
    /// Keeping this in one place is what makes "stream ≡ batch
    /// bit-identical" an invariant by construction rather than by parallel
    /// maintenance of two loop bodies.
    ///
    /// # Panics
    /// Panics if `external.len()` is not a multiple of `width()`.
    pub fn fm_row(
        &mut self,
        r: usize,
        chain_start: bool,
        intra_src: &[u32],
        external: &[u32],
        p: ProcessId,
    ) {
        if !chain_start {
            self.copy_row(r, r - 1);
        }
        for &s in intra_src {
            self.merge_row(r, s as usize);
        }
        if !external.is_empty() {
            assert_eq!(
                external.len() % self.width,
                0,
                "external rows must be whole width()-word rows"
            );
            for row in external.chunks_exact(self.width) {
                self.merge_from(r, row);
            }
        }
        self.tick(r, p);
    }

    /// Append one zeroed row, returning its index. Amortized O(width):
    /// `Vec` growth doubles, so a stream of appends costs O(1) reallocations
    /// per row on average — the storage primitive behind the incremental
    /// per-session stores.
    ///
    /// # Panics
    /// Panics if the arena already holds [`MAX_ROWS`] rows (the `u32` row
    /// addressing would overflow).
    pub fn push_zero_row(&mut self) -> usize {
        let r = self.rows();
        assert!(r < MAX_ROWS, "arena row count would exceed u32 addressing");
        self.words.resize(self.words.len() + self.width, 0);
        r
    }
}

/// Largest row count the flat `u32` edge/row addressing supports.
///
/// [`csr_from_edges`] (and so [`fill_clocks`]) stores row indices and edge
/// counts as `u32`; anything above this bound would silently truncate, so
/// it asserts it *before* allocating anything (cheap to unit-test without
/// materialising multi-gigabyte chains). Deposet construction converts the
/// same bound into a recoverable `TooManyStates` error.
pub const MAX_ROWS: usize = u32::MAX as usize;

impl fmt::Debug for ClockArena {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list()
            .entries((0..self.rows()).map(|r| self.row(r)))
            .finish()
    }
}

/// Build a CSR adjacency (offsets + flat source list) from `(dst, src)`
/// edge pairs over `rows` nodes. For node `r`, its sources are
/// `src[off[r] as usize .. off[r + 1] as usize]`, in input order.
pub fn csr_from_edges(rows: usize, edges: &[(u32, u32)]) -> (Vec<u32>, Vec<u32>) {
    assert!(
        rows <= MAX_ROWS,
        "row count {rows} exceeds u32 addressing (max {MAX_ROWS})"
    );
    assert!(
        edges.len() <= MAX_ROWS,
        "edge count {} exceeds u32 addressing (max {MAX_ROWS})",
        edges.len()
    );
    // Counted two places up, the prefix sums leave `off[d + 1]` at the
    // start of row `d`, which then serves as its fill cursor and ends at
    // the start of row `d + 1`.
    let mut off = vec![0u32; rows + 2];
    for &(dst, _) in edges {
        off[dst as usize + 2] += 1;
    }
    for r in 2..rows + 2 {
        off[r] += off[r - 1];
    }
    let mut src = vec![0u32; edges.len()];
    for &(dst, s) in edges {
        let cursor = &mut off[dst as usize + 1];
        src[*cursor as usize] = s;
        *cursor += 1;
    }
    off.truncate(rows + 1);
    (off, src)
}

/// The Fidge–Mattern clocks of a whole computation in one flat arena.
///
/// `offsets` are the per-process row starts (`n + 1` entries, state
/// `(p, k)` at row `offsets[p] + k`, so the local predecessor of a
/// non-initial row is `row - 1`); `edges` are the `(dst, src)` merge
/// pairs — messages, plus control pairs for extended causality.
///
/// A row waits for the *successor* of each merge source rather than the
/// source itself, unless the source is the last row of its chain or its
/// successor is the row being filled. Read a row as the event entering it
/// and an edge `src → dst` as "the event leaving `src` happens before the
/// one entering `dst`": the fill walks an order of those events, which is
/// also an order of the rows, so the clocks are the ones a fill in row
/// order assigns. Returns `None` when the events are ordered in a cycle;
/// every cycle of rows is one, and so is a row reaching its own successor
/// through other chains.
///
/// The fill walks the chains instead of sorting the graph. A cursor
/// `next[p]` marks each process's first unfilled row; a row is filled
/// ([`ClockArena::fm_row`]: copy the predecessor, merge the sources, tick)
/// once all its merge sources are, and a source `s` still unfilled on
/// process `q` first pushes `(q, s)` — "fill `q` up to `s`" — on a stack.
/// A process is on the stack at most once, since needing a row at or past
/// the cursor of a process that is already waiting is exactly a cycle
/// (`cursor ⇝ s → … → cursor`). The fill order is a topological order, so
/// every clock equals the one any other topological DP assigns; the work
/// is one pass over the rows and edges, with `O(n)` extra space beyond the
/// merge CSR ([`csr_from_edges`]).
pub fn fill_clocks(offsets: &[usize], edges: &[(u32, u32)]) -> Option<ClockArena> {
    let _prof = pctl_prof::span("fill_fidge_mattern");
    let rows = *offsets.last().expect("offsets has n+1 entries");
    let n = offsets.len() - 1;
    let (moff, msrc) = csr_from_edges(rows, edges);
    let mut arena = ClockArena::zeroed(n, rows);
    let mut next = offsets[..n].to_vec();
    let mut waiting = vec![false; n];
    // (process, last row to fill, cursor into `msrc` of its next row)
    let mut stack: Vec<(usize, usize, usize)> = Vec::with_capacity(n);
    for p in 0..n {
        if next[p] == offsets[p + 1] {
            continue;
        }
        stack.push((p, offsets[p + 1] - 1, moff[next[p]] as usize));
        waiting[p] = true;
        while let Some((q, last, k)) = stack.last_mut() {
            let (q, r) = (*q, next[*q]);
            if r > *last {
                waiting[q] = false;
                stack.pop();
                continue;
            }
            let end = moff[r + 1] as usize;
            let mut unfilled = None;
            while *k < end {
                let s = msrc[*k] as usize;
                let sq = offsets.partition_point(|&o| o <= s) - 1;
                let exit = s + 1;
                let wait = if exit < offsets[sq + 1] && exit != r {
                    exit
                } else {
                    s
                };
                if wait >= next[sq] {
                    unfilled = Some((sq, wait));
                    break;
                }
                *k += 1;
            }
            if let Some((sq, s)) = unfilled {
                if waiting[sq] {
                    return None;
                }
                waiting[sq] = true;
                stack.push((sq, s, moff[next[sq]] as usize));
                continue;
            }
            let srcs = &msrc[moff[r] as usize..end];
            arena.fm_row(r, r == offsets[q], srcs, &[], ProcessId(q as u32));
            next[q] += 1;
        }
    }
    Some(arena)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arena_is_one_flat_allocation() {
        let a = ClockArena::zeroed(3, 5);
        assert_eq!(a.width(), 3);
        assert_eq!(a.rows(), 5);
        assert_eq!(a.allocated_words(), 15);
        assert_eq!(a.row(4).entries(), &[0, 0, 0]);
    }

    #[test]
    fn copy_merge_tick() {
        let mut a = ClockArena::zeroed(3, 3);
        a.tick(0, ProcessId(0));
        a.tick(0, ProcessId(0));
        a.tick(1, ProcessId(1));
        // row2 := max(row0, row1) + tick(P2)
        a.copy_row(2, 0);
        a.merge_row(2, 1);
        a.tick(2, ProcessId(2));
        assert_eq!(a.row(2).entries(), &[2, 1, 1]);
        assert_eq!(a.word(2, ProcessId(0)), 2);
    }

    #[test]
    fn clock_ref_compares_like_vector_clock() {
        let mut a = ClockArena::zeroed(2, 2);
        a.tick(0, ProcessId(0));
        a.tick(1, ProcessId(0));
        a.merge_row(1, 0); // no-op: row1 already ≥ row0
        assert_eq!(a.row(0), a.row(1));
        assert_eq!(a.row(0), VectorClock::from_entries(vec![1, 0]));
        assert_eq!(a.row(0).causality(&a.row(1)), Causality::Equal);
        let owned = a.row(0).to_owned_clock();
        assert_eq!(owned.entries(), &[1, 0]);
        assert_eq!(format!("{:?}", a.row(0)), "⟨1,0⟩");
    }

    #[test]
    fn csr_groups_sources_by_destination() {
        let (off, src) = csr_from_edges(4, &[(2, 0), (1, 3), (2, 1)]);
        assert_eq!(off, vec![0, 0, 1, 3, 3]);
        assert_eq!(&src[off[2] as usize..off[3] as usize], &[0, 1]);
        assert_eq!(&src[off[1] as usize..off[2] as usize], &[3]);
        assert_eq!(off[0], off[1], "node 0 has no sources");
    }

    #[test]
    fn fill_clocks_respects_chains_and_messages() {
        // P0: rows 0,1; P1: rows 2,3; message row 0 → row 3.
        let arena = fill_clocks(&[0, 2, 4], &[(3, 0)]).expect("acyclic");
        let before = |a: usize, b: usize| arena.row(a).causality(&arena.row(b));
        assert_eq!(before(0, 1), Causality::Before, "chain edge 0→1");
        assert_eq!(before(2, 3), Causality::Before, "chain edge 2→3");
        assert_eq!(before(0, 3), Causality::Before, "message edge 0→3");
        assert_eq!(before(1, 3), Causality::Concurrent);
    }

    #[test]
    fn fill_clocks_detects_cycles() {
        // Messages 1 → 2 and 3 → 0 close a cycle with the two chains.
        assert_eq!(fill_clocks(&[0, 2, 4], &[(2, 1), (0, 3)]), None);
        // A row merging itself, or a later row of its own chain.
        assert_eq!(fill_clocks(&[0, 2], &[(1, 1)]), None);
        assert_eq!(fill_clocks(&[0, 2], &[(0, 1)]), None);
        // An earlier row of its own chain is redundant, not a cycle.
        assert!(fill_clocks(&[0, 2], &[(1, 0)]).is_some());
        // Each chain's second row merges the previous chain's first row:
        // acyclic on rows, but waiting for each source's successor, the
        // chains' steps wait on each other in a ring.
        let ring = [(3, 0), (5, 2), (1, 4)];
        assert_eq!(fill_clocks(&[0, 2, 4, 6], &ring), None);
        // A source that ends its chain is waited for as it is.
        assert!(fill_clocks(&[0, 2, 4], &[(3, 1)]).is_some());
        // Degenerate: no rows at all.
        assert_eq!(fill_clocks(&[0], &[]).unwrap().rows(), 0);
    }

    #[test]
    fn fill_clocks_tolerates_zero_state_chains() {
        // P1 owns no rows: offsets [0, 2, 2, 3]. Row 2 (P2) merges row 1.
        let arena = fill_clocks(&[0, 2, 2, 3], &[(2, 1)]).expect("acyclic");
        assert_eq!(arena.rows(), 3);
        assert_eq!(arena.row(0).entries(), &[1, 0, 0]);
        assert_eq!(arena.row(1).entries(), &[2, 0, 0], "chain edge 0→1");
        assert_eq!(arena.row(2).entries(), &[2, 0, 1], "cross edge 1→2");
    }

    #[test]
    fn fill_clocks_matches_the_dp_and_rejects_cycles() {
        // P0: rows 0,1; P1: rows 2,3; message row 0 → row 3.
        let arena = fill_clocks(&[0, 2, 4], &[(3, 0)]).expect("acyclic");
        assert_eq!(arena.row(0).entries(), &[1, 0]);
        assert_eq!(arena.row(1).entries(), &[2, 0]);
        assert_eq!(arena.row(2).entries(), &[0, 1]);
        assert_eq!(arena.row(3).entries(), &[1, 2]);
        assert_eq!(arena.allocated_words(), 2 * 4);
        assert_eq!(fill_clocks(&[0, 2, 4], &[(0, 3), (2, 1)]), None);
        assert_eq!(fill_clocks(&[0], &[]).unwrap().allocated_words(), 0);
    }

    #[test]
    fn fill_clocks_waits_on_a_chain_of_processes() {
        // Row 1 (P0) needs row 3 (P1), which needs row 5 (P2): the fill
        // of P0 stacks P1 and then P2 before it can go on.
        let arena = fill_clocks(&[0, 2, 4, 6], &[(1, 3), (3, 5)]).expect("acyclic");
        assert_eq!(arena.row(5).entries(), &[0, 0, 2]);
        assert_eq!(arena.row(3).entries(), &[0, 2, 2]);
        assert_eq!(arena.row(1).entries(), &[2, 2, 2]);
        // Closing the loop back into P0's waiting row is a cycle.
        assert_eq!(fill_clocks(&[0, 2, 4, 6], &[(1, 3), (3, 5), (5, 1)]), None);
    }

    #[test]
    fn merge_from_takes_component_max_of_external_row() {
        let mut a = ClockArena::zeroed(3, 2);
        a.tick(1, ProcessId(0));
        a.merge_from(1, &[0, 5, 2]);
        assert_eq!(a.row(1).entries(), &[1, 5, 2]);
        a.merge_from(1, &[3, 1, 2]);
        assert_eq!(a.row(1).entries(), &[3, 5, 2]);
        assert_eq!(a.row(0).entries(), &[0, 0, 0], "other rows untouched");
    }

    #[test]
    #[should_panic(expected = "width mismatch")]
    fn merge_from_rejects_wrong_width() {
        let mut a = ClockArena::zeroed(3, 1);
        a.merge_from(0, &[1, 2]);
    }

    // The u32-addressing guards fire before any allocation, so these tests
    // never materialise the multi-gigabyte structures they guard against.
    #[test]
    #[should_panic(expected = "exceeds u32 addressing")]
    fn csr_rejects_untruncatable_row_counts() {
        let _ = csr_from_edges(MAX_ROWS + 1, &[]);
    }

    #[test]
    #[should_panic(expected = "exceeds u32 addressing")]
    fn fill_rejects_untruncatable_row_counts() {
        let _ = fill_clocks(&[0, MAX_ROWS + 1], &[]);
    }
}
