//! Hierarchical timing wheel: the actor core's scheduler.
//!
//! The simulator exploits the paper's model structure — the end of a
//! timestep is a *controlled deadlock* (nothing at time `t` can enable
//! anything else at time `t` except by scheduling it explicitly) — so the
//! scheduler's unit of work is a whole timestep: [`TimingWheel::pop_batch`]
//! returns **every** entry at the earliest occupied time, sorted by
//! sequence number, and advances the wheel past it.
//!
//! Layout: `LEVELS` (5) levels of `SLOTS` (64) slots each; level `l` buckets
//! times by bits `[6l, 6(l+1))` relative to the wheel's `base` (the current
//! time). An entry lives at the level of its highest bit differing from
//! `base`; entries beyond the wheel horizon (`base ^ time ≥ 2^30`) wait in
//! a min-heap and are drained into the wheel as `base` advances. Per-level
//! occupancy bitmaps make "find the earliest slot" a couple of
//! `trailing_zeros` calls, so an empty stretch of simulated time is skipped
//! in O(levels), not O(ticks).
//!
//! ## Invariants (the determinism argument leans on these)
//!
//! 1. Every stored entry has `time ≥ base`, and `base` only advances.
//! 2. An entry at level `l` shares all bits above `6(l+1)` with `base`.
//!    This holds at insert time by construction and is preserved as `base`
//!    advances, because `base` never passes the earliest entry (the prefix
//!    of any value in `[insert_base, time]` is sandwiched).
//! 3. Therefore at every level all occupied slots are `≥` the slot `base`
//!    hashes to, lower levels hold strictly earlier times than higher
//!    levels (after base-slot cascading), and a bottom-up scan finds the
//!    global minimum.
//!
//! Cascading can land same-time entries in a slot *after* later-sequence
//! entries that were inserted directly, so `pop_batch` sorts each batch by
//! `seq` before returning it — the batch order, not arrival order, is the
//! dispatch order.

use std::collections::BinaryHeap;

/// log2 of the slot count per level.
const SLOT_BITS: u32 = 6;
/// Slots per level.
const SLOTS: usize = 1 << SLOT_BITS;
/// Number of wheel levels; times further than `2^(6·LEVELS)` ticks from
/// `base` overflow into the heap.
const LEVELS: usize = 5;
/// Bits of time the wheel proper can address relative to `base`.
const HORIZON_BITS: u32 = SLOT_BITS * LEVELS as u32;

/// One scheduled entry: a `(time, seq)` key plus a small `Copy` item (the
/// simulator stores arena handles, never payloads, so the wheel is cheap to
/// cascade).
#[derive(Clone, Copy, Debug)]
pub struct WheelEntry<T> {
    /// Absolute due time in ticks.
    pub time: u64,
    /// Global scheduling sequence number; ties on `time` dispatch in `seq`
    /// order.
    pub seq: u64,
    /// Carried item.
    pub item: T,
}

/// Overflow-heap node: ordered by `(time, seq)` only (reversed, so the
/// std max-heap behaves as a min-heap), never by the item — `T` needs no
/// `Ord`.
struct OverflowEntry<T> {
    time: u64,
    seq: u64,
    item: T,
}

impl<T> PartialEq for OverflowEntry<T> {
    fn eq(&self, other: &Self) -> bool {
        (self.time, self.seq) == (other.time, other.seq)
    }
}
impl<T> Eq for OverflowEntry<T> {}
impl<T> PartialOrd for OverflowEntry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<T> Ord for OverflowEntry<T> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (other.time, other.seq).cmp(&(self.time, self.seq))
    }
}

/// A hierarchical timing wheel over `Copy` items with an overflow heap for
/// beyond-horizon entries. See the module docs for the invariants.
pub struct TimingWheel<T> {
    base: u64,
    /// `slots[level][slot]` — entry buckets. Bucket vecs are recycled via
    /// `mem::take`, so steady-state operation does not allocate.
    slots: Vec<Vec<Vec<WheelEntry<T>>>>,
    /// Per-level occupancy bitmap (bit `s` set ⇔ `slots[level][s]`
    /// non-empty).
    occupied: [u64; LEVELS],
    /// Beyond-horizon entries, min-ordered by `(time, seq)`.
    overflow: BinaryHeap<OverflowEntry<T>>,
    /// Entries currently in the wheel proper (excluding overflow).
    in_wheel: usize,
    /// Peak of `len()` — the "pending events" component of live state.
    high_water: usize,
    /// Number of entries moved during cascades (stat only).
    cascades: u64,
}

impl<T: Copy> TimingWheel<T> {
    /// An empty wheel based at time `start`.
    pub fn new(start: u64) -> Self {
        TimingWheel {
            base: start,
            slots: (0..LEVELS)
                .map(|_| (0..SLOTS).map(|_| Vec::new()).collect())
                .collect(),
            occupied: [0; LEVELS],
            overflow: BinaryHeap::new(),
            in_wheel: 0,
            high_water: 0,
            cascades: 0,
        }
    }

    /// Current base time (the earliest time a new entry may carry).
    pub fn base(&self) -> u64 {
        self.base
    }

    /// Total pending entries (wheel + overflow).
    pub fn len(&self) -> usize {
        self.in_wheel + self.overflow.len()
    }

    /// True when nothing is pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Peak pending-entry count over the wheel's lifetime.
    pub fn high_water(&self) -> usize {
        self.high_water
    }

    /// Entries moved by cascading so far.
    pub fn cascades(&self) -> u64 {
        self.cascades
    }

    /// Level an entry due at `time` belongs to relative to `base`, or
    /// `None` for beyond-horizon times (overflow heap).
    fn level_for(base: u64, time: u64) -> Option<usize> {
        let x = base ^ time;
        if x == 0 {
            return Some(0);
        }
        let level = ((63 - x.leading_zeros()) / SLOT_BITS) as usize;
        (level < LEVELS).then_some(level)
    }

    /// Slot index of `time` at `level`.
    fn slot_of(level: usize, time: u64) -> usize {
        ((time >> (SLOT_BITS * level as u32)) & (SLOTS as u64 - 1)) as usize
    }

    /// Schedule `item` at `(time, seq)`. `time` must be `≥ base` (the
    /// simulator never schedules into the past).
    pub fn push(&mut self, time: u64, seq: u64, item: T) {
        assert!(
            time >= self.base,
            "timing wheel: scheduling into the past (time {time} < base {})",
            self.base
        );
        self.insert(WheelEntry { time, seq, item });
        self.high_water = self.high_water.max(self.len());
    }

    fn insert(&mut self, e: WheelEntry<T>) {
        match Self::level_for(self.base, e.time) {
            Some(level) => {
                let slot = Self::slot_of(level, e.time);
                self.slots[level][slot].push(e);
                self.occupied[level] |= 1 << slot;
                self.in_wheel += 1;
            }
            None => self.overflow.push(OverflowEntry {
                time: e.time,
                seq: e.seq,
                item: e.item,
            }),
        }
    }

    /// Move overflow entries now within the horizon into the wheel.
    fn drain_overflow(&mut self) {
        while let Some(head) = self.overflow.peek() {
            if (self.base ^ head.time) >> HORIZON_BITS != 0 {
                break;
            }
            let OverflowEntry { time, seq, item } = self.overflow.pop().unwrap();
            self.insert(WheelEntry { time, seq, item });
        }
    }

    /// Empty `slots[level][slot]` and re-insert its entries relative to the
    /// current `base` (they land at a strictly lower level).
    fn cascade(&mut self, level: usize, slot: usize) {
        let entries = std::mem::take(&mut self.slots[level][slot]);
        self.occupied[level] &= !(1 << slot);
        self.in_wheel -= entries.len();
        self.cascades += entries.len() as u64;
        for e in entries {
            debug_assert!(
                Self::level_for(self.base, e.time).is_some_and(|l| l < level),
                "cascade must move entries strictly down"
            );
            self.insert(e);
        }
    }

    /// Pop the complete batch of entries at the earliest occupied time into
    /// `out` (cleared first), sorted by `seq`. Advances `base` to that time
    /// and returns it; returns `None` when the wheel is empty.
    pub fn pop_batch(&mut self, out: &mut Vec<WheelEntry<T>>) -> Option<u64> {
        out.clear();
        loop {
            if self.in_wheel == 0 {
                // Jump straight to the earliest far-future entry (a long
                // quiet stretch costs O(1), not O(ticks)).
                self.base = self.overflow.peek()?.time;
            }
            self.drain_overflow();
            if self.in_wheel == 0 {
                continue;
            }
            // Cascade base-aligned slots top-down so every entry inside the
            // current level-0 window actually sits at level 0.
            for level in (1..LEVELS).rev() {
                let bslot = Self::slot_of(level, self.base);
                if self.occupied[level] & (1 << bslot) != 0 {
                    self.cascade(level, bslot);
                }
            }
            // Earliest time, if any, is now in the level-0 window.
            let bslot0 = Self::slot_of(0, self.base);
            let masked = self.occupied[0] & (!0u64 << bslot0);
            if masked != 0 {
                let s = masked.trailing_zeros() as usize;
                let t = (self.base >> SLOT_BITS << SLOT_BITS) | s as u64;
                debug_assert!(t >= self.base);
                let mut batch = std::mem::take(&mut self.slots[0][s]);
                self.occupied[0] &= !(1 << s);
                self.in_wheel -= batch.len();
                self.base = t;
                out.append(&mut batch);
                self.slots[0][s] = batch; // hand the emptied vec back
                out.sort_unstable_by_key(|e| e.seq);
                debug_assert!(out.iter().all(|e| e.time == t));
                return Some(t);
            }
            // Level-0 window is empty: rebase onto the earliest occupied
            // slot of the lowest occupied level and cascade it open.
            let mut advanced = false;
            for level in 1..LEVELS {
                let bslot = Self::slot_of(level, self.base);
                let masked = self.occupied[level] & (!0u64 << bslot);
                if masked != 0 {
                    let s = masked.trailing_zeros() as u64;
                    let span = SLOT_BITS * (level as u32 + 1);
                    self.base = (self.base >> span << span) | (s << (SLOT_BITS * level as u32));
                    self.cascade(level, s as usize);
                    advanced = true;
                    break;
                }
            }
            assert!(
                advanced,
                "timing wheel invariant violated: {} entries unreachable from base {}",
                self.in_wheel, self.base
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn drain(w: &mut TimingWheel<u32>) -> Vec<(u64, u64, u32)> {
        let mut out = Vec::new();
        let mut batch = Vec::new();
        while let Some(t) = w.pop_batch(&mut batch) {
            for e in &batch {
                assert_eq!(e.time, t);
                out.push((e.time, e.seq, e.item));
            }
        }
        out
    }

    #[test]
    fn pops_in_time_then_seq_order() {
        let mut w = TimingWheel::new(0);
        // Deliberately shuffled inserts across levels, with ties.
        let entries = [
            (500_000u64, 7u64),
            (10, 2),
            (10, 1),
            (64, 3),
            (63, 4),
            (4096, 5),
            (10, 6),
            (0, 0),
        ];
        for (i, &(t, s)) in entries.iter().enumerate() {
            w.push(t, s, i as u32);
        }
        let got: Vec<(u64, u64)> = drain(&mut w).iter().map(|&(t, s, _)| (t, s)).collect();
        let mut want: Vec<(u64, u64)> = entries.to_vec();
        want.sort_unstable();
        assert_eq!(got, want);
    }

    #[test]
    fn batch_holds_every_entry_at_one_time() {
        let mut w = TimingWheel::new(0);
        for seq in 0..10u64 {
            w.push(42, seq, seq as u32);
        }
        w.push(41, 100, 99);
        let mut batch = Vec::new();
        assert_eq!(w.pop_batch(&mut batch), Some(41));
        assert_eq!(batch.len(), 1);
        assert_eq!(w.pop_batch(&mut batch), Some(42));
        assert_eq!(batch.len(), 10);
        let seqs: Vec<u64> = batch.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, (0..10).collect::<Vec<_>>());
        assert!(w.pop_batch(&mut batch).is_none());
        assert!(w.is_empty());
    }

    #[test]
    fn overflow_entries_round_trip() {
        let mut w = TimingWheel::new(0);
        let far = 1u64 << 40; // far past the 2^30 horizon
        w.push(far + 5, 1, 10);
        w.push(far, 0, 20);
        w.push(3, 2, 30);
        let got = drain(&mut w);
        assert_eq!(got, vec![(3, 2, 30), (far, 0, 20), (far + 5, 1, 10)]);
    }

    #[test]
    fn same_time_entries_split_across_wheel_and_overflow_merge() {
        let mut w = TimingWheel::new(0);
        let t = (1u64 << 30) + 7; // beyond horizon from base 0
        w.push(t, 5, 1); // goes to overflow
        w.push(1, 0, 0);
        let mut batch = Vec::new();
        assert_eq!(w.pop_batch(&mut batch), Some(1));
        // Now base=1; t still beyond horizon? 1 ^ t has bit 30 set → yes.
        w.push(t, 6, 2); // after rebase this may land in the wheel or overflow
        let got = drain(&mut w);
        assert_eq!(got, vec![(t, 5, 1), (t, 6, 2)], "one batch, seq order");
    }

    #[test]
    fn random_workload_matches_heap_model() {
        let mut rng = StdRng::seed_from_u64(0xC0FFEE);
        for _ in 0..50 {
            let mut w = TimingWheel::new(0);
            let mut model: Vec<(u64, u64, u32)> = Vec::new();
            let mut seq = 0u64;
            let mut now = 0u64;
            let mut batch = Vec::new();
            let mut got: Vec<(u64, u64, u32)> = Vec::new();
            for _round in 0..40 {
                // Push a burst at times ≥ now, spanning all levels + overflow.
                for _ in 0..rng.gen_range(0..8) {
                    let dt: u64 = match rng.gen_range(0..5) {
                        0 => rng.gen_range(0..64),
                        1 => rng.gen_range(0..4096),
                        2 => rng.gen_range(0..(1u64 << 18)),
                        3 => rng.gen_range(0..(1u64 << 30)),
                        _ => rng.gen_range(0..(1u64 << 40)),
                    };
                    let t = now + dt;
                    w.push(t, seq, seq as u32);
                    model.push((t, seq, seq as u32));
                    seq += 1;
                }
                // Pop one batch.
                if let Some(t) = w.pop_batch(&mut batch) {
                    assert!(t >= now);
                    now = t;
                    for e in &batch {
                        got.push((e.time, e.seq, e.item));
                    }
                }
            }
            got.extend(drain(&mut w));
            model.sort_unstable();
            assert_eq!(got, model);
            assert_eq!(w.len(), 0);
        }
    }

    #[test]
    fn quiet_stretch_rebases_in_one_jump() {
        let mut w = TimingWheel::new(0);
        w.push(0, 0, 0);
        let far = 77_000_000_000u64;
        w.push(far, 1, 1);
        let mut batch = Vec::new();
        assert_eq!(w.pop_batch(&mut batch), Some(0));
        assert_eq!(w.pop_batch(&mut batch), Some(far));
        assert_eq!(w.base(), far);
    }

    #[test]
    #[should_panic(expected = "scheduling into the past")]
    fn pushing_before_base_panics() {
        let mut w = TimingWheel::new(100);
        w.push(99, 0, 0u32);
    }

    #[test]
    fn tracks_high_water_and_cascades() {
        let mut w = TimingWheel::new(0);
        for i in 0..100u64 {
            w.push(4096 + i, i, i as u32);
        }
        assert_eq!(w.high_water(), 100);
        let mut batch = Vec::new();
        while w.pop_batch(&mut batch).is_some() {}
        assert!(w.cascades() > 0, "level ≥1 inserts must cascade down");
        assert_eq!(w.high_water(), 100);
    }
}
