//! The worker pool: the two-class injector, parking and the public
//! [`Scheduler`] API.

use crate::scope::ScopeCore;
use scalesim_obs as obs;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::thread::JoinHandle;

/// Task class of a submission. The injector serves `Interactive` work
/// strictly before `Batch` work, so a serve request's layer tasks never
/// queue behind a design-space sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Priority {
    /// Latency-sensitive work: serve requests and one-shot CLI runs.
    #[default]
    Interactive,
    /// Throughput work that tolerates queueing: sweep grids.
    Batch,
}

/// Wakes parked workers without lost-wakeup races: a worker reads the
/// sequence number *before* scanning for work, and only parks if the
/// number is unchanged — a ring between scan and park bumps it, so the
/// park returns immediately.
struct Bell {
    seq: Mutex<u64>,
    wake: Condvar,
}

impl Bell {
    fn current(&self) -> u64 {
        *self.seq.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn ring(&self) {
        let mut seq = self.seq.lock().unwrap_or_else(|e| e.into_inner());
        *seq += 1;
        drop(seq);
        self.wake.notify_all();
    }

    fn wait_past(&self, seen: u64) {
        let mut seq = self.seq.lock().unwrap_or_else(|e| e.into_inner());
        while *seq == seen {
            seq = self.wake.wait(seq).unwrap_or_else(|e| e.into_inner());
        }
    }
}

/// The one queue: tickets onto scoped batches, FIFO within a class,
/// interactive before batch. A worker that pops a ticket claims items
/// from the scope's shared cursor until none remain.
#[derive(Default)]
struct Injector {
    interactive: VecDeque<Arc<ScopeCore>>,
    batch: VecDeque<Arc<ScopeCore>>,
}

impl Injector {
    fn push(&mut self, priority: Priority, core: &Arc<ScopeCore>, tickets: usize) {
        let queue = match priority {
            Priority::Interactive => &mut self.interactive,
            Priority::Batch => &mut self.batch,
        };
        queue.extend(std::iter::repeat_with(|| Arc::clone(core)).take(tickets));
    }

    fn pop(&mut self) -> Option<(Priority, Arc<ScopeCore>)> {
        if let Some(core) = self.interactive.pop_front() {
            return Some((Priority::Interactive, core));
        }
        self.batch.pop_front().map(|core| (Priority::Batch, core))
    }
}

struct Shared {
    injector: Mutex<Injector>,
    bell: Bell,
    shutdown: AtomicBool,
    /// Times a parked worker woke to look for work again.
    park_wakeups: AtomicU64,
}

/// A relaxed snapshot of a pool's scheduling counters, as surfaced by
/// the serve `stats` response and the Prometheus exposition. All
/// counters are monotonic over the pool's lifetime.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SchedStats {
    /// Worker threads in the pool.
    pub workers: usize,
    /// Times a parked worker was woken by the bell.
    pub park_wakeups: u64,
}

/// A persistent worker pool. Use [`Scheduler::global`] for the
/// process-wide pool every simulation layer shares; private pools
/// (`Scheduler::new`) exist for tests.
pub struct Scheduler {
    shared: Arc<Shared>,
    threads: Vec<JoinHandle<()>>,
}

impl std::fmt::Debug for Scheduler {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Scheduler")
            .field("workers", &self.workers())
            .finish_non_exhaustive()
    }
}

impl Scheduler {
    /// Builds a private pool with `workers` threads (clamped to at
    /// least 1). Most callers want [`global`](Self::global) instead.
    pub(crate) fn new(workers: usize) -> Self {
        let shared = Arc::new(Shared {
            injector: Mutex::new(Injector::default()),
            bell: Bell {
                seq: Mutex::new(0),
                wake: Condvar::new(),
            },
            shutdown: AtomicBool::new(false),
            park_wakeups: AtomicU64::new(0),
        });
        let threads = (0..workers.max(1))
            .map(|index| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("scalesim-worker-{index}"))
                    .spawn(move || worker_loop(&shared, index))
                    .expect("spawn scheduler worker")
            })
            .collect();
        Self { shared, threads }
    }

    /// The process-wide pool, created on first use with
    /// [`crate::default_workers`] threads (`SCALESIM_THREADS` read
    /// once, at that moment).
    pub fn global() -> &'static Scheduler {
        static GLOBAL: OnceLock<Scheduler> = OnceLock::new();
        GLOBAL.get_or_init(|| Scheduler::new(crate::default_workers()))
    }

    /// The pool's worker-thread count.
    pub(crate) fn workers(&self) -> usize {
        self.threads.len()
    }

    /// A relaxed snapshot of the pool's scheduling counters.
    pub fn stats(&self) -> SchedStats {
        SchedStats {
            workers: self.workers(),
            park_wakeups: self.shared.park_wakeups.load(Ordering::Relaxed),
        }
    }

    /// Runs `task(i)` for every `i in 0..len`, returning when all have
    /// completed. Items are claimed from a shared cursor by the
    /// calling thread *and* any idle worker, so costs balance; results
    /// must be written by index (the caller's closure owns the slots),
    /// which keeps output identical to serial execution for any worker
    /// count.
    ///
    /// `cancelled` (when given) is polled before each claimed item;
    /// once it returns true the scope stops claiming and the remaining
    /// items are skipped — the caller is expected to detect the
    /// cancellation itself (e.g. via its deadline token).
    ///
    /// The calling thread participates, so this completes even when
    /// every worker is busy — nested scopes cannot deadlock.
    ///
    /// # Panics
    ///
    /// If a task panics, remaining items are skipped and the first
    /// panic resumes on the calling thread after the scope completes.
    pub fn scope(
        &self,
        len: usize,
        priority: Priority,
        cancelled: Option<&(dyn Fn() -> bool + Sync)>,
        task: &(dyn Fn(usize) + Sync),
    ) {
        match len {
            0 => return,
            1 => {
                // Inline fast path: no queueing, and a panic unwinds
                // straight through the caller.
                if !cancelled.is_some_and(|c| c()) {
                    task(0);
                }
                return;
            }
            _ => {}
        }
        // SAFETY: this frame keeps `task` and `cancelled` borrowed
        // across `wait_done` below, which blocks until every item has
        // completed — the erasure invariant of `ScopeCore::new`.
        let core = Arc::new(unsafe { ScopeCore::new(task, cancelled, len) });
        // The caller claims items too, so at most `len - 1` helpers
        // can ever find work.
        let helpers = self.workers().min(len - 1);
        self.shared
            .injector
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push(priority, &core, helpers);
        self.shared.bell.ring();
        core.work();
        let panic = core.wait_done();
        drop(core);
        if let Some(payload) = panic {
            std::panic::resume_unwind(payload);
        }
    }
}

impl Drop for Scheduler {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::Release);
        self.shared.bell.ring();
        for thread in self.threads.drain(..) {
            let _ = thread.join();
        }
    }
}

fn worker_loop(shared: &Shared, me: usize) {
    obs::label_thread(&format!("worker-{me}"));
    loop {
        // Read the bell *before* scanning: a ring after this read but
        // before the park bumps the sequence, so the park is a no-op.
        let seen = shared.bell.current();
        if shared.shutdown.load(Ordering::Acquire) {
            return;
        }
        let ticket = shared
            .injector
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .pop();
        if let Some((priority, core)) = ticket {
            crate::with_priority(priority, || {
                let _span = obs::span(obs::Category::Sched, "run-scope");
                core.work();
            });
            continue;
        }
        {
            let _park = obs::span(obs::Category::Sched, "park");
            shared.bell.wait_past(seen);
        }
        shared.park_wakeups.fetch_add(1, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn scope_runs_every_index_exactly_once() {
        let pool = Scheduler::new(4);
        for len in [0usize, 1, 2, 3, 17, 256] {
            let hits: Vec<AtomicUsize> = (0..len).map(|_| AtomicUsize::new(0)).collect();
            pool.scope(len, Priority::Interactive, None, &|i| {
                hits[i].fetch_add(1, Ordering::Relaxed);
            });
            assert!(
                hits.iter().all(|h| h.load(Ordering::Relaxed) == 1),
                "len={len}"
            );
        }
    }

    #[test]
    fn nested_scopes_complete_even_on_a_single_worker_pool() {
        let pool = Scheduler::new(1);
        let total = AtomicUsize::new(0);
        pool.scope(4, Priority::Batch, None, &|_| {
            pool.scope(8, Priority::Interactive, None, &|_| {
                pool.scope(2, Priority::Interactive, None, &|_| {
                    total.fetch_add(1, Ordering::Relaxed);
                });
            });
        });
        assert_eq!(total.load(Ordering::Relaxed), 4 * 8 * 2);
    }

    #[test]
    fn a_panicking_task_surfaces_as_a_panic_not_a_hang() {
        let pool = Scheduler::new(2);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.scope(64, Priority::Interactive, None, &|i| {
                if i == 11 {
                    panic!("task 11 poisoned");
                }
            });
        }));
        let payload = result.expect_err("scope must propagate the panic");
        let message = payload
            .downcast_ref::<&str>()
            .copied()
            .map(str::to_owned)
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_default();
        assert!(message.contains("task 11 poisoned"), "{message}");
        // The pool survives and runs the next scope normally.
        let ran = AtomicUsize::new(0);
        pool.scope(8, Priority::Interactive, None, &|_| {
            ran.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(ran.load(Ordering::Relaxed), 8);
    }

    #[test]
    fn cancellation_stops_claiming_and_still_completes() {
        let pool = Scheduler::new(2);
        let executed = AtomicUsize::new(0);
        let cancelled = || executed.load(Ordering::Relaxed) >= 5;
        pool.scope(1000, Priority::Interactive, Some(&cancelled), &|_| {
            executed.fetch_add(1, Ordering::Relaxed);
        });
        let ran = executed.load(Ordering::Relaxed);
        assert!(ran >= 5, "runs until the hook trips");
        assert!(ran < 1000, "skips the tail once cancelled (ran {ran})");
    }

    #[test]
    fn interactive_scopes_run_before_batch_ones() {
        // One worker, pinned inside a scope while a batch ticket and
        // then an interactive ticket queue behind it. Each queued scope
        // holds its submitter on item 0, so item 1 is left for the
        // worker: the order the worker records them is its pop order.
        let pool = Scheduler::new(1);
        let pinned = AtomicUsize::new(0);
        let unpin = AtomicBool::new(false);
        let holding = AtomicUsize::new(0);
        let release = AtomicBool::new(false);
        let order = Mutex::new(Vec::new());
        let wait_for = |flag: &AtomicBool| {
            while !flag.load(Ordering::Acquire) {
                std::thread::yield_now();
            }
        };
        let wait_until = |count: &AtomicUsize, n: usize| {
            while count.load(Ordering::Acquire) < n {
                std::thread::yield_now();
            }
        };
        let (holding_ref, release_ref, order_ref) = (&holding, &release, &order);
        let queued = |name: &'static str| {
            move |i: usize| {
                if i == 0 {
                    holding_ref.fetch_add(1, Ordering::Release);
                    wait_for(release_ref);
                } else {
                    order_ref.lock().unwrap().push(name);
                }
            }
        };
        std::thread::scope(|s| {
            s.spawn(|| {
                pool.scope(2, Priority::Interactive, None, &|_| {
                    pinned.fetch_add(1, Ordering::Release);
                    wait_for(&unpin);
                });
            });
            wait_until(&pinned, 2);
            s.spawn(|| pool.scope(2, Priority::Batch, None, &queued("batch")));
            wait_until(&holding, 1);
            s.spawn(|| pool.scope(2, Priority::Interactive, None, &queued("interactive")));
            wait_until(&holding, 2);
            unpin.store(true, Ordering::Release);
            while order.lock().unwrap().len() < 2 {
                std::thread::yield_now();
            }
            release.store(true, Ordering::Release);
        });
        assert_eq!(*order.lock().unwrap(), ["interactive", "batch"]);
    }

    #[test]
    fn with_priority_nests_and_restores() {
        assert_eq!(crate::current_priority(), Priority::Interactive);
        crate::with_priority(Priority::Batch, || {
            assert_eq!(crate::current_priority(), Priority::Batch);
            crate::with_priority(Priority::Interactive, || {
                assert_eq!(crate::current_priority(), Priority::Interactive);
            });
            assert_eq!(crate::current_priority(), Priority::Batch);
        });
        assert_eq!(crate::current_priority(), Priority::Interactive);
    }

    #[test]
    fn stats_count_spawns_and_wakeups() {
        let pool = Scheduler::new(2);
        assert_eq!(pool.stats().workers, 2);
        // Wakeups only count once a worker actually parked — which a
        // first scope may beat (workers are still in their first scan).
        // Let the pool go idle so the workers park, then share a scope
        // again: that bell must register a wakeup. Retry to absorb
        // scheduling jitter.
        let ran = AtomicUsize::new(0);
        let mut woke = false;
        for _ in 0..100 {
            std::thread::sleep(std::time::Duration::from_millis(5));
            pool.scope(2, Priority::Interactive, None, &|_| {
                ran.fetch_add(1, Ordering::Relaxed);
            });
            woke = pool.stats().park_wakeups >= 1;
            if woke {
                break;
            }
        }
        assert!(woke, "workers parked and woke at least once");
        assert!(ran.load(Ordering::Relaxed) >= 2);
    }

    #[test]
    fn many_threads_can_submit_scopes_to_one_pool_concurrently() {
        let pool = Scheduler::new(2);
        let grand_total = AtomicUsize::new(0);
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    for _ in 0..16 {
                        pool.scope(32, Priority::Interactive, None, &|_| {
                            grand_total.fetch_add(1, Ordering::Relaxed);
                        });
                    }
                });
            }
        });
        assert_eq!(grand_total.load(Ordering::Relaxed), 8 * 16 * 32);
    }
}
