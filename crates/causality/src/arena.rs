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
//! (message edges) and extended causality (message + control edges): a
//! topological sort ([`topo_order_chained`], which also detects cycles),
//! the merge edges in CSR form ([`csr_from_edges`]) and the row DP
//! ([`fill_fidge_mattern`]).

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
    /// batch fill ([`fill_fidge_mattern`]) and the incremental per-session
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
/// [`csr_from_edges`] and [`topo_order_chained`] store row indices and edge
/// counts as `u32`; anything above this bound would silently truncate, so
/// both assert it *before* allocating anything (cheap to unit-test without
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
    let mut off = vec![0u32; rows + 1];
    for &(dst, _) in edges {
        off[dst as usize + 1] += 1;
    }
    for r in 0..rows {
        off[r + 1] += off[r];
    }
    let mut src = vec![0u32; edges.len()];
    let mut cursor: Vec<u32> = off[..rows].to_vec();
    for &(dst, s) in edges {
        src[cursor[dst as usize] as usize] = s;
        cursor[dst as usize] += 1;
    }
    (off, src)
}

/// Topological order of a computation's implicit state graph: the local
/// chains `proc_starts[p] .. proc_starts[p+1]` (edge `r → r+1` inside each
/// chain) plus explicit cross edges given as `(dst, src)` pairs — the same
/// pair format [`csr_from_edges`] consumes.
///
/// Returns `None` when the combined relation has a cycle (the computation
/// would not have an irreflexive `→`). Unlike a general adjacency-list
/// graph, this needs no per-node allocation: the chain edges stay implicit
/// and the cross edges live in one flat CSR, so the whole sort costs a
/// handful of `O(rows + edges)` arrays — it is the hot path of every
/// deposet construction.
pub fn topo_order_chained(proc_starts: &[usize], edges: &[(u32, u32)]) -> Option<Vec<u32>> {
    let _prof = pctl_prof::span("topo_order_chained");
    let rows = *proc_starts.last().expect("proc_starts has n+1 entries");
    assert!(
        rows <= MAX_ROWS,
        "row count {rows} exceeds u32 addressing (max {MAX_ROWS})"
    );
    assert!(
        edges.len() <= MAX_ROWS,
        "edge count {} exceeds u32 addressing (max {MAX_ROWS})",
        edges.len()
    );
    // Outgoing CSR keyed by *source* (csr_from_edges keys by destination).
    let mut out_off = vec![0u32; rows + 1];
    for &(_, src) in edges {
        out_off[src as usize + 1] += 1;
    }
    for r in 0..rows {
        out_off[r + 1] += out_off[r];
    }
    let mut out_dst = vec![0u32; edges.len()];
    let mut cursor: Vec<u32> = out_off[..rows].to_vec();
    for &(dst, src) in edges {
        out_dst[cursor[src as usize] as usize] = dst;
        cursor[src as usize] += 1;
    }
    // In-degrees: one implicit edge onto every non-initial chain row, plus
    // the cross edges. `chain_last` marks rows with no implicit successor.
    let mut indeg = vec![0u32; rows];
    let mut chain_last = vec![false; rows];
    for p in 0..proc_starts.len() - 1 {
        let (lo, hi) = (proc_starts[p], proc_starts[p + 1]);
        // Skip empty chains: `lo + 1 .. hi` would be a reversed range.
        if hi > lo {
            for d in &mut indeg[lo + 1..hi] {
                *d = 1;
            }
            chain_last[hi - 1] = true;
        }
    }
    for &(dst, _) in edges {
        indeg[dst as usize] += 1;
    }
    let mut stack: Vec<u32> = (0..rows as u32)
        .filter(|&r| indeg[r as usize] == 0)
        .collect();
    let mut order = Vec::with_capacity(rows);
    while let Some(u) = stack.pop() {
        order.push(u);
        let r = u as usize;
        if !chain_last[r] {
            indeg[r + 1] -= 1;
            if indeg[r + 1] == 0 {
                stack.push(u + 1);
            }
        }
        for &d in &out_dst[out_off[r] as usize..out_off[r + 1] as usize] {
            indeg[d as usize] -= 1;
            if indeg[d as usize] == 0 {
                stack.push(d);
            }
        }
    }
    (order.len() == rows).then_some(order)
}

/// Assign Fidge–Mattern clocks into a fresh zeroed `arena` by DP over a
/// topological `order` of the computation's state graph.
///
/// Rows are grouped per process: rows `proc_starts[p] .. proc_starts[p+1]`
/// are the states of process `p` in local (`≺`) order, so the local
/// predecessor of a non-initial row is simply `row - 1`. Cross-process
/// merge edges (message receipt, control edges) come in CSR form from
/// [`csr_from_edges`]. For every row, in topological order:
///
/// 1. start from the local predecessor's clock (`copy_row`), or from zero
///    for the initial state of the process (the arena starts zeroed);
/// 2. merge every CSR source row (component-wise max);
/// 3. tick the row's own process component.
///
/// No allocation happens inside the loop; the whole DP touches exactly the
/// `width · rows` words of the arena.
///
/// # Panics
/// Panics if the arena shape does not match `proc_starts`, or if it is not
/// zeroed where initial states expect it (debug builds assert shape only).
pub fn fill_fidge_mattern(
    arena: &mut ClockArena,
    proc_starts: &[usize],
    order: &[u32],
    merge_off: &[u32],
    merge_src: &[u32],
) {
    let _prof = pctl_prof::span("fill_fidge_mattern");
    let rows = *proc_starts.last().expect("proc_starts has n+1 entries");
    assert_eq!(arena.rows(), rows, "arena row count mismatch");
    assert_eq!(arena.width(), proc_starts.len() - 1, "arena width mismatch");
    assert_eq!(merge_off.len(), rows + 1, "CSR offsets length mismatch");
    // proc_of[r] = owning process of row r, precomputed once so the DP loop
    // does no binary searches.
    let mut proc_of = vec![0u32; rows];
    for p in 0..proc_starts.len() - 1 {
        for owner in &mut proc_of[proc_starts[p]..proc_starts[p + 1]] {
            *owner = p as u32;
        }
    }
    for &node in order {
        let r = node as usize;
        let p = proc_of[r] as usize;
        arena.fm_row(
            r,
            r == proc_starts[p],
            &merge_src[merge_off[r] as usize..merge_off[r + 1] as usize],
            &[],
            ProcessId(p as u32),
        );
    }
}

/// The Fidge–Mattern clocks of a whole computation in one flat arena.
///
/// `offsets` are the per-process row starts (`n + 1` entries, state
/// `(p, k)` at row `offsets[p] + k`); `edges` are the `(dst, src)` merge
/// pairs — messages, plus control pairs for extended causality. Returns
/// `None` when the chains plus `edges` contain a cycle.
pub fn fill_clocks(offsets: &[usize], edges: &[(u32, u32)]) -> Option<ClockArena> {
    let order = topo_order_chained(offsets, edges)?;
    let rows = *offsets.last().expect("offsets has n+1 entries");
    let (moff, msrc) = csr_from_edges(rows, edges);
    let mut arena = ClockArena::zeroed(offsets.len() - 1, rows);
    fill_fidge_mattern(&mut arena, offsets, &order, &moff, &msrc);
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
    fn topo_order_chained_respects_chains_and_messages() {
        // P0: rows 0,1; P1: rows 2,3; message row 0 → row 3.
        let order = topo_order_chained(&[0, 2, 4], &[(3, 0)]).expect("acyclic");
        assert_eq!(order.len(), 4);
        let pos = |r: u32| order.iter().position(|&x| x == r).unwrap();
        assert!(pos(0) < pos(1), "chain edge 0→1");
        assert!(pos(2) < pos(3), "chain edge 2→3");
        assert!(pos(0) < pos(3), "message edge 0→3");
    }

    #[test]
    fn topo_order_chained_detects_cycles() {
        // Messages 1 → 2 and 3 → 0 close a cycle with the two chains.
        assert_eq!(topo_order_chained(&[0, 2, 4], &[(2, 1), (0, 3)]), None);
        // Degenerate: no rows at all.
        assert_eq!(topo_order_chained(&[0], &[]), Some(vec![]));
    }

    #[test]
    fn topo_order_chained_tolerates_zero_state_chains() {
        // P1 owns no rows: proc_starts [0, 2, 2, 3]. Used to slice the
        // reversed range `3..2` and panic instead of sorting.
        let order = topo_order_chained(&[0, 2, 2, 3], &[(2, 1)]).expect("acyclic");
        assert_eq!(order.len(), 3);
        let pos = |r: u32| order.iter().position(|&x| x == r).unwrap();
        assert!(pos(0) < pos(1), "chain edge 0→1");
        assert!(pos(1) < pos(2), "cross edge 1→2");
    }

    #[test]
    fn fill_clocks_matches_the_dp_and_rejects_cycles() {
        // P0: rows 0,1; P1: rows 2,3; message row 0 → row 3.
        let arena = fill_clocks(&[0, 2, 4], &[(3, 0)]).expect("acyclic");
        assert_eq!(arena.row(1).entries(), &[2, 0]);
        assert_eq!(arena.row(3).entries(), &[1, 2]);
        assert_eq!(arena.allocated_words(), 2 * 4);
        assert_eq!(fill_clocks(&[0, 2, 4], &[(0, 3), (2, 1)]), None);
        assert_eq!(fill_clocks(&[0], &[]).unwrap().allocated_words(), 0);
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
    fn topo_rejects_untruncatable_row_counts() {
        let _ = topo_order_chained(&[0, MAX_ROWS + 1], &[]);
    }

    #[test]
    fn fidge_mattern_two_procs_one_message() {
        // P0: rows 0,1; P1: rows 2,3; message from row 0 into row 3.
        let proc_starts = [0usize, 2, 4];
        let mut arena = ClockArena::zeroed(2, 4);
        let (off, src) = csr_from_edges(4, &[(3, 0)]);
        fill_fidge_mattern(&mut arena, &proc_starts, &[0, 2, 1, 3], &off, &src);
        assert_eq!(arena.row(0).entries(), &[1, 0]);
        assert_eq!(arena.row(1).entries(), &[2, 0]);
        assert_eq!(arena.row(2).entries(), &[0, 1]);
        assert_eq!(arena.row(3).entries(), &[1, 2]);
        assert_eq!(arena.allocated_words(), 2 * 4);
    }
}
