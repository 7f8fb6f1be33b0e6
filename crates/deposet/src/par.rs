//! Deterministic scoped-thread fan-out.
//!
//! Only *coarse*, embarrassingly parallel layers fan out — per-seed
//! verification sweeps and per-scenario bench fan-out.
//! The per-process loops inside one computation's builds (interval index,
//! false-interval extraction, the fault audit's column scan) stay
//! sequential: at the sizes they run at, a thread spawn costs more than
//! the loop. [`ordered_map`] guarantees the merged output is in input
//! order regardless of thread scheduling: results are produced per
//! contiguous chunk and stitched back by chunk index, so a parallel run is
//! bit-identical to the sequential one (the determinism argument in
//! DESIGN.md §8).

use std::num::NonZeroUsize;
use std::thread;

/// Number of workers [`ordered_map`] would use for `len` items.
///
/// Capped by `std::thread::available_parallelism` (1 when unknown) and by
/// the item count; 0-item and 1-core cases degrade to sequential.
pub fn worker_count(len: usize) -> usize {
    let cores = thread::available_parallelism()
        .map(NonZeroUsize::get)
        .unwrap_or(1);
    cores.min(len).max(1)
}

/// Map `f` over `items` with scoped worker threads, returning results in
/// input order (`out[i] == f(i, &items[i])`).
///
/// Deterministic by construction: the items are split into contiguous
/// chunks, each worker owns whole chunks, and the per-chunk result vectors
/// are concatenated in chunk order. With one core (or one item) this runs
/// sequentially on the calling thread — same results, same order.
pub fn ordered_map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let workers = worker_count(items.len());
    if workers <= 1 {
        return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
    }
    // Contiguous chunking: chunk c covers [c*size, min((c+1)*size, len)).
    let size = items.len().div_ceil(workers);
    let chunks: Vec<(usize, &[T])> = items
        .chunks(size)
        .enumerate()
        .map(|(c, chunk)| (c * size, chunk))
        .collect();
    let mut per_chunk: Vec<Vec<R>> = thread::scope(|s| {
        let handles: Vec<_> = chunks
            .iter()
            .map(|&(base, chunk)| {
                let f = &f;
                s.spawn(move || {
                    chunk
                        .iter()
                        .enumerate()
                        .map(|(k, t)| f(base + k, t))
                        .collect::<Vec<R>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("ordered_map worker panicked"))
            .collect()
    });
    let mut out = Vec::with_capacity(items.len());
    for chunk in per_chunk.drain(..) {
        out.extend(chunk);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn maps_in_input_order() {
        let items: Vec<u64> = (0..97).collect();
        let out = ordered_map(&items, |i, &x| (i as u64, x * 2));
        assert_eq!(out.len(), 97);
        for (i, (idx, doubled)) in out.iter().enumerate() {
            assert_eq!(*idx, i as u64);
            assert_eq!(*doubled, items[i] * 2);
        }
    }

    #[test]
    fn empty_and_singleton() {
        let none: Vec<u32> = ordered_map(&[] as &[u32], |_, &x| x);
        assert!(none.is_empty());
        assert_eq!(ordered_map(&[7u32], |i, &x| x + i as u32), vec![7]);
    }

    #[test]
    fn matches_sequential_reference() {
        let items: Vec<usize> = (0..50).collect();
        let seq: Vec<usize> = items.iter().enumerate().map(|(i, &x)| i * 31 + x).collect();
        let par = ordered_map(&items, |i, &x| i * 31 + x);
        assert_eq!(par, seq);
    }

    #[test]
    fn worker_count_bounds() {
        assert_eq!(worker_count(0), 1);
        assert!(worker_count(1) >= 1);
        assert!(worker_count(1000) >= 1);
    }
}
