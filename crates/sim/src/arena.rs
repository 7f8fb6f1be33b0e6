//! Slab arena for in-flight message payloads.
//!
//! The actor core never boxes a message per send: payloads (and their
//! trace token / telemetry baggage) live in a generation-checked slab, and
//! the scheduler only moves a `Copy` [`MsgHandle`] through the timing wheel
//! and the per-process inboxes. Slots are recycled through a free list, so
//! the arena's footprint is proportional to the peak number of in-flight
//! messages — not to the total number sent. [`PayloadArena::high_water`]
//! exposes that peak; the scale test (`tests/scale.rs`) gates on it, and
//! perfbench reports it as `sim.arena_high_water`.
//!
//! Generations catch use-after-take at the source: a handle minted for one
//! occupancy of a slot cannot read a later occupancy (the slot's generation
//! is bumped on every free). Inside the simulator every handle is consumed
//! exactly once, so a generation mismatch is an engine bug, not a user
//! error — it panics rather than returning an `Option`.

/// Hard cap on arena slots so handles index with a checked `u32` (mirrors
/// the `MAX_ROWS` cast guards in `pctl_causality::arena`).
pub const MAX_SLOTS: usize = u32::MAX as usize - 1;

/// A generation-checked reference to an arena slot. `Copy`, 8 bytes —
/// cheap enough to cascade through the timing wheel.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MsgHandle {
    idx: u32,
    gen: u32,
}

struct Slot<T> {
    gen: u32,
    val: Option<T>,
}

/// Slab allocator with a free list and generation-checked handles.
pub struct PayloadArena<T> {
    slots: Vec<Slot<T>>,
    free: Vec<u32>,
    live: usize,
    high_water: usize,
}

impl<T> Default for PayloadArena<T> {
    fn default() -> Self {
        PayloadArena {
            slots: Vec::new(),
            free: Vec::new(),
            live: 0,
            high_water: 0,
        }
    }
}

impl<T> PayloadArena<T> {
    /// An empty arena.
    pub fn new() -> Self {
        PayloadArena::default()
    }

    /// Store `val`, returning its handle. Reuses a freed slot when one is
    /// available; otherwise grows the slab (checked against [`MAX_SLOTS`]).
    pub fn alloc(&mut self, val: T) -> MsgHandle {
        let h = match self.free.pop() {
            Some(idx) => {
                let slot = &mut self.slots[idx as usize];
                debug_assert!(slot.val.is_none(), "free list holds occupied slot");
                slot.val = Some(val);
                MsgHandle { idx, gen: slot.gen }
            }
            None => {
                assert!(
                    self.slots.len() < MAX_SLOTS,
                    "payload arena exceeds {MAX_SLOTS} slots"
                );
                let idx = self.slots.len() as u32;
                self.slots.push(Slot {
                    gen: 0,
                    val: Some(val),
                });
                MsgHandle { idx, gen: 0 }
            }
        };
        self.live += 1;
        self.high_water = self.high_water.max(self.live);
        h
    }

    /// Remove and return the payload behind `h`, freeing its slot.
    ///
    /// Panics on a stale handle (slot generation advanced) — inside the
    /// simulator that means a handle was consumed twice, which would break
    /// the one-delivery-per-send trace invariant.
    pub fn take(&mut self, h: MsgHandle) -> T {
        let slot = &mut self.slots[h.idx as usize];
        assert_eq!(
            slot.gen, h.gen,
            "stale payload handle: slot {} is at generation {}, handle at {}",
            h.idx, slot.gen, h.gen
        );
        let val = slot
            .val
            .take()
            .expect("payload handle consumed twice within one generation");
        slot.gen = slot.gen.wrapping_add(1);
        self.free.push(h.idx);
        self.live -= 1;
        val
    }

    /// Payloads currently stored.
    pub fn live(&self) -> usize {
        self.live
    }

    /// Peak simultaneous payloads over the arena's lifetime.
    pub fn high_water(&self) -> usize {
        self.high_water
    }

    /// Slots ever allocated (the slab's actual footprint).
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_take_roundtrip_and_slot_reuse() {
        let mut a = PayloadArena::new();
        let h1 = a.alloc("one");
        let h2 = a.alloc("two");
        assert_eq!(a.live(), 2);
        assert_eq!(a.take(h1), "one");
        assert_eq!(a.live(), 1);
        // The freed slot is reused under a new generation.
        let h3 = a.alloc("three");
        assert_eq!(a.capacity(), 2, "slot reused, slab did not grow");
        assert_eq!(a.take(h2), "two");
        assert_eq!(a.take(h3), "three");
        assert_eq!(a.live(), 0);
        assert_eq!(a.high_water(), 2);
    }

    #[test]
    #[should_panic(expected = "stale payload handle")]
    fn stale_handle_panics() {
        let mut a = PayloadArena::new();
        let h = a.alloc(1u32);
        a.take(h);
        let _h2 = a.alloc(2u32); // same slot, bumped generation
        a.take(h); // stale
    }

    #[test]
    fn high_water_tracks_peak_not_total() {
        let mut a = PayloadArena::new();
        for i in 0..1000u32 {
            let h = a.alloc(i);
            a.take(h);
        }
        assert_eq!(a.high_water(), 1, "sequential traffic peaks at one slot");
        assert_eq!(a.capacity(), 1);
    }
}
