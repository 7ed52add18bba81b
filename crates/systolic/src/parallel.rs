//! Deterministic parallel execution over independent work items.
//!
//! Topology simulation is embarrassingly parallel: every layer plans and
//! times against its own state, so layers run as tasks of the
//! process-wide work-stealing scheduler ([`scalesim_sched::Scheduler`])
//! with results written back by index. Ordering and values are
//! therefore identical to serial execution regardless of the worker
//! count, the stealing pattern or what else (sweep shards, serve
//! requests) shares the pool.
//!
//! The pool is created once per process, sized by the `SCALESIM_THREADS`
//! environment variable (read at first use) or the machine's available
//! parallelism. Submissions inherit the calling thread's ambient
//! [`scalesim_sched::Priority`], so serve-request layers outrank batch
//! sweep points without any plumbing here.

use scalesim_sched::{OnceSlot, Scheduler};

pub use scalesim_sched::THREADS_ENV;

/// The worker-pool size: `SCALESIM_THREADS` when set to a positive
/// integer, otherwise the machine's available parallelism. The global
/// pool latches this at first parallel use; this function re-reads the
/// environment (it also drives the serial fast path, so pinning
/// `SCALESIM_THREADS=1` before any work keeps everything on the calling
/// thread).
pub fn num_threads() -> usize {
    scalesim_sched::default_workers()
}

/// Write-once result slots, filled by index from scheduler workers and
/// drained in order afterwards. [`OnceSlot`] makes the hand-off
/// lock-free (a slot is written exactly once, by whichever worker
/// claimed its index) and panic-safe: a slot left empty by a poisoned
/// batch is detected, never blocked on.
fn make_slots<R>(len: usize) -> Vec<OnceSlot<R>> {
    (0..len).map(|_| OnceSlot::empty()).collect()
}

/// Applies `f` to every item on the shared scheduler, returning results
/// in item order. `f` receives `(index, &item)`.
///
/// Items are claimed dynamically (an atomic cursor), so heterogeneous
/// layer costs balance across workers; each result lands in its item's
/// slot, so the output is bit-identical to `items.iter().map(...)`.
/// Falls back to a plain serial loop for a single worker or a single
/// item.
///
/// # Panics
///
/// A panic inside `f` surfaces here (remaining items are skipped) —
/// never as a hang.
pub fn parallel_map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    if num_threads().min(items.len()) <= 1 {
        return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
    }
    let slots = make_slots(items.len());
    let task = |i: usize| {
        slots[i].set(f(i, &items[i]));
    };
    Scheduler::global().scope(items.len(), scalesim_sched::current_priority(), None, &task);
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("worker pool left an item unprocessed")
        })
        .collect()
}

/// Streams `f` over `items` in fixed-size blocks with **bounded result
/// memory**: each block runs on the scheduler (the same pool and
/// `SCALESIM_THREADS` override as [`parallel_map`]), then `consume(index,
/// result)` is called for every item of the block in item order before
/// the next block starts. The sequence of `(index, result)` pairs the
/// consumer sees is bit-identical to `parallel_map` followed by ordered
/// iteration — but at most `block` results are ever resident, however
/// long `items` is.
///
/// `cancelled` is polled by the scheduler before every claimed item (and
/// between blocks), so an expired deadline stops the batch claiming work
/// immediately; a caller without a deadline passes a hook that is always
/// false. Items skipped after cancellation never reach `consume`; items
/// that did execute reach it in item order — so as long as `cancelled`
/// never returns true, the hook changes no byte of downstream output.
///
/// Returns the peak number of simultaneously buffered results (at most
/// `min(block, items.len())`), so callers can assert the bound.
pub fn parallel_map_streamed<T, R, F, C>(
    items: &[T],
    block: usize,
    cancelled: &(dyn Fn() -> bool + Sync),
    f: F,
    mut consume: C,
) -> usize
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
    C: FnMut(usize, R),
{
    let block = block.max(1);
    let serial = num_threads().min(items.len()) <= 1;
    let mut peak = 0usize;
    let mut start = 0usize;
    while start < items.len() {
        if cancelled() {
            break;
        }
        let end = (start + block).min(items.len());
        if serial {
            let mut buffered = 0usize;
            for (i, item) in items.iter().enumerate().take(end).skip(start) {
                if cancelled() {
                    break;
                }
                consume(i, f(i, item));
                buffered = 1; // one result lives between f and consume
            }
            peak = peak.max(buffered);
        } else {
            let slots = make_slots(end - start);
            let task = |offset: usize| {
                let i = start + offset;
                slots[offset].set(f(i, &items[i]));
            };
            Scheduler::global().scope(
                end - start,
                scalesim_sched::current_priority(),
                Some(cancelled),
                &task,
            );
            let mut filled = 0usize;
            for (offset, slot) in slots.into_iter().enumerate() {
                if let Some(r) = slot.into_inner() {
                    filled += 1;
                    consume(start + offset, r);
                }
            }
            peak = peak.max(filled);
        }
        start = end;
    }
    peak
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn preserves_order_and_values() {
        let items: Vec<u64> = (0..257).collect();
        let serial: Vec<u64> = items.iter().map(|&x| x * x + 1).collect();
        let parallel = parallel_map(&items, |_, &x| x * x + 1);
        assert_eq!(parallel, serial);
    }

    #[test]
    fn index_matches_item_position() {
        let items = vec!["a", "b", "c", "d"];
        let out = parallel_map(&items, |i, s| format!("{i}:{s}"));
        assert_eq!(out, ["0:a", "1:b", "2:c", "3:d"]);
    }

    #[test]
    fn empty_and_singleton() {
        let empty: Vec<u32> = Vec::new();
        assert!(parallel_map(&empty, |_, &x| x).is_empty());
        assert_eq!(parallel_map(&[7u32], |_, &x| x + 1), vec![8]);
    }

    #[test]
    fn thread_count_is_positive() {
        assert!(num_threads() >= 1);
    }

    #[test]
    fn streamed_matches_map_and_bounds_buffering() {
        let items: Vec<u64> = (0..257).collect();
        let expect: Vec<(usize, u64)> = items.iter().map(|&x| (x as usize, x * 3)).collect();
        for block in [1, 7, 64, 300] {
            let mut seen = Vec::new();
            let peak = parallel_map_streamed(
                &items,
                block,
                &|| false,
                |_, &x| x * 3,
                |i, r| seen.push((i, r)),
            );
            assert_eq!(seen, expect, "block={block}");
            assert!(peak <= block.min(items.len()), "block={block}, peak={peak}");
            assert!(peak >= 1);
        }
    }

    #[test]
    fn peak_buffering_does_not_grow_with_item_count() {
        let peak_of = |len: u64| {
            let items: Vec<u64> = (0..len).collect();
            parallel_map_streamed(&items, 64, &|| false, |_, &x| x, |_, _| {})
        };
        let (short, long) = (peak_of(500), peak_of(5_000));
        assert!(long <= 64, "peak {long} exceeds the block bound");
        assert_eq!(short, long, "O(1) in the item count");
    }

    #[test]
    fn streamed_empty_is_a_no_op() {
        let none: Vec<u8> = Vec::new();
        let peak = parallel_map_streamed(&none, 8, &|| false, |_, &x| x, |_, _| panic!("no items"));
        assert_eq!(peak, 0);
    }

    #[test]
    fn a_panicking_item_surfaces_as_a_panic_not_a_hang() {
        let items: Vec<u32> = (0..128).collect();
        let result = std::panic::catch_unwind(|| {
            parallel_map(&items, |_, &x| {
                if x == 77 {
                    panic!("item 77 poisoned");
                }
                x
            })
        });
        assert!(result.is_err(), "the panic must propagate to the caller");
    }

    #[test]
    fn cancellation_skips_the_tail_and_consumes_in_order() {
        let items: Vec<u64> = (0..500).collect();
        let executed = AtomicUsize::new(0);
        let tripped = || executed.load(Ordering::Relaxed) >= 10;
        let mut seen: Vec<usize> = Vec::new();
        parallel_map_streamed(
            &items,
            64,
            &tripped,
            |_, &x| {
                executed.fetch_add(1, Ordering::Relaxed);
                x
            },
            |i, _| seen.push(i),
        );
        assert!(seen.len() < items.len(), "the tail must be skipped");
        let mut sorted = seen.clone();
        sorted.sort_unstable();
        assert_eq!(seen, sorted, "consumed in item order");
    }

    #[test]
    fn an_expired_hook_consumes_nothing() {
        let items: Vec<u64> = (0..64).collect();
        let always = || true;
        let peak = parallel_map_streamed(
            &items,
            16,
            &always,
            |_, &x| x,
            |_, _| panic!("nothing may execute"),
        );
        assert_eq!(peak, 0);
    }
}
