//! The worker pool: per-worker deques, the priority injector, parking
//! and the public [`Scheduler`] API.

use crate::scope::ScopeCore;
use scalesim_obs as obs;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::thread::JoinHandle;

/// Task class of a submission. The global injector serves
/// `Interactive` work strictly before `Batch` work, so a serve
/// request's layer tasks never queue behind a design-space sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Priority {
    /// Latency-sensitive work: serve requests and one-shot CLI runs.
    #[default]
    Interactive,
    /// Throughput work that tolerates queueing: sweep grids.
    Batch,
}

/// One unit of queued work.
enum Runnable {
    /// A fire-and-forget `'static` task (e.g. a serve-queue runner).
    Detached {
        priority: Priority,
        run: Box<dyn FnOnce() + Send>,
    },
    /// A handle onto a scoped batch; the popping worker claims items
    /// from the scope's shared cursor until none remain.
    Scope {
        priority: Priority,
        core: Arc<ScopeCore>,
    },
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

/// The two-class global injector: work submitted from outside the
/// pool, FIFO within a class, interactive before batch.
#[derive(Default)]
struct Injector {
    interactive: VecDeque<Runnable>,
    batch: VecDeque<Runnable>,
}

struct Shared {
    /// Distinguishes this pool's workers from another pool's.
    id: u64,
    injector: Mutex<Injector>,
    /// One deque per worker: the owner pushes/pops at the front
    /// (newest first), thieves steal from the back (oldest first).
    locals: Vec<Mutex<VecDeque<Runnable>>>,
    bell: Bell,
    shutdown: AtomicBool,
    /// Successful steals from a sibling deque (find_work step 3).
    steals: AtomicU64,
    /// Detached tasks ever submitted.
    spawns: AtomicU64,
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
    /// Successful steals of queued work from a sibling worker.
    pub steals: u64,
    /// Detached (fire-and-forget) tasks submitted.
    pub spawns: u64,
    /// Times a parked worker was woken by the bell.
    pub park_wakeups: u64,
}

/// A persistent work-stealing worker pool. Use [`Scheduler::global`]
/// for the process-wide pool every simulation layer shares; private
/// pools (`Scheduler::new`) exist for tests and benchmarks.
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
        static NEXT_ID: AtomicU64 = AtomicU64::new(0);
        let workers = workers.max(1);
        let shared = Arc::new(Shared {
            id: NEXT_ID.fetch_add(1, Ordering::Relaxed),
            injector: Mutex::new(Injector::default()),
            locals: (0..workers).map(|_| Mutex::new(VecDeque::new())).collect(),
            bell: Bell {
                seq: Mutex::new(0),
                wake: Condvar::new(),
            },
            shutdown: AtomicBool::new(false),
            steals: AtomicU64::new(0),
            spawns: AtomicU64::new(0),
            park_wakeups: AtomicU64::new(0),
        });
        let threads = (0..workers)
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
        self.shared.locals.len()
    }

    /// A relaxed snapshot of the pool's scheduling counters.
    pub fn stats(&self) -> SchedStats {
        SchedStats {
            workers: self.workers(),
            steals: self.shared.steals.load(Ordering::Relaxed),
            spawns: self.shared.spawns.load(Ordering::Relaxed),
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
        self.share(priority, &core, helpers);
        core.work();
        let panic = core.wait_done();
        drop(core);
        if let Some(payload) = panic {
            std::panic::resume_unwind(payload);
        }
    }

    /// Queues copies of a scope for `helpers` workers: onto the local
    /// deque when submitted by one of this pool's own workers (nested
    /// parallelism stays hot and LIFO), onto the injector otherwise.
    fn share(&self, priority: Priority, core: &Arc<ScopeCore>, helpers: usize) {
        if helpers == 0 {
            return;
        }
        match crate::worker_slot() {
            Some((pool, index)) if pool == self.shared.id => {
                let mut deque = self.shared.locals[index]
                    .lock()
                    .unwrap_or_else(|e| e.into_inner());
                for _ in 0..helpers {
                    deque.push_front(Runnable::Scope {
                        priority,
                        core: Arc::clone(core),
                    });
                }
            }
            _ => {
                let mut injector = self
                    .shared
                    .injector
                    .lock()
                    .unwrap_or_else(|e| e.into_inner());
                let queue = match priority {
                    Priority::Interactive => &mut injector.interactive,
                    Priority::Batch => &mut injector.batch,
                };
                for _ in 0..helpers {
                    queue.push_back(Runnable::Scope {
                        priority,
                        core: Arc::clone(core),
                    });
                }
            }
        }
        self.shared.bell.ring();
    }

    /// Submits a fire-and-forget task. The task runs on some worker
    /// with `priority` as its ambient class; a panic inside it is
    /// caught (and logged) so it cannot kill the worker. Tasks still
    /// queued when the pool is dropped are discarded.
    pub fn spawn_detached(&self, priority: Priority, run: Box<dyn FnOnce() + Send>) {
        self.shared.spawns.fetch_add(1, Ordering::Relaxed);
        let mut injector = self
            .shared
            .injector
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        let queue = match priority {
            Priority::Interactive => &mut injector.interactive,
            Priority::Batch => &mut injector.batch,
        };
        queue.push_back(Runnable::Detached { priority, run });
        drop(injector);
        self.shared.bell.ring();
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
    crate::set_worker_slot(Some((shared.id, me)));
    let label = format!("worker-{me}");
    obs::label_thread(&label);
    loop {
        // Read the bell *before* scanning: a ring after this read but
        // before the park bumps the sequence, so the park is a no-op.
        let seen = shared.bell.current();
        if shared.shutdown.load(Ordering::Acquire) {
            return;
        }
        if let Some(runnable) = find_work(shared, me) {
            run_one(runnable);
            continue;
        }
        {
            let _park = obs::span(obs::Category::Sched, "park");
            shared.bell.wait_past(seen);
        }
        shared.park_wakeups.fetch_add(1, Ordering::Relaxed);
    }
}

fn find_work(shared: &Shared, me: usize) -> Option<Runnable> {
    // 1. Own deque, newest first: nested work stays on its submitter.
    if let Some(r) = shared.locals[me]
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .pop_front()
    {
        return Some(r);
    }
    // 2. The injector, interactive before batch.
    {
        let mut injector = shared.injector.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(r) = injector
            .interactive
            .pop_front()
            .or_else(|| injector.batch.pop_front())
        {
            return Some(r);
        }
    }
    // 3. Steal the *oldest* work from a sibling.
    for other in (me + 1..shared.locals.len()).chain(0..me) {
        if let Some(r) = shared.locals[other]
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .pop_back()
        {
            shared.steals.fetch_add(1, Ordering::Relaxed);
            obs::instant(
                obs::Category::Sched,
                "steal",
                &[("from", other as u64), ("to", me as u64)],
            );
            return Some(r);
        }
    }
    None
}

fn run_one(runnable: Runnable) {
    match runnable {
        Runnable::Detached { priority, run } => crate::with_priority(priority, || {
            let _span = obs::span(obs::Category::Sched, "run-detached");
            // A detached task has no submitter to resume a panic on;
            // contain it so the worker survives (the serve layer has
            // its own per-request catch, so this is a backstop).
            if std::panic::catch_unwind(std::panic::AssertUnwindSafe(run)).is_err() {
                eprintln!("scalesim-sched: detached task panicked (contained)");
            }
        }),
        Runnable::Scope { priority, core } => crate::with_priority(priority, || {
            let _span = obs::span(obs::Category::Sched, "run-scope");
            core.work();
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::sync::mpsc;

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
    fn interactive_detached_tasks_run_before_batch_ones() {
        // One worker, parked on a blocker while both classes queue:
        // the drain order is then deterministic.
        let pool = Scheduler::new(1);
        let (block_tx, block_rx) = mpsc::channel::<()>();
        let (order_tx, order_rx) = mpsc::channel::<&'static str>();
        pool.spawn_detached(
            Priority::Interactive,
            Box::new(move || {
                block_rx.recv().unwrap();
            }),
        );
        let tx = order_tx.clone();
        pool.spawn_detached(Priority::Batch, Box::new(move || tx.send("batch").unwrap()));
        let tx = order_tx;
        pool.spawn_detached(
            Priority::Interactive,
            Box::new(move || tx.send("interactive").unwrap()),
        );
        block_tx.send(()).unwrap();
        assert_eq!(order_rx.recv().unwrap(), "interactive");
        assert_eq!(order_rx.recv().unwrap(), "batch");
    }

    #[test]
    fn a_panicking_detached_task_does_not_kill_the_worker() {
        let pool = Scheduler::new(1);
        let (tx, rx) = mpsc::channel::<u32>();
        pool.spawn_detached(Priority::Interactive, Box::new(|| panic!("contained")));
        pool.spawn_detached(Priority::Interactive, Box::new(move || tx.send(7).unwrap()));
        assert_eq!(rx.recv().unwrap(), 7, "worker survived the panic");
    }

    #[test]
    fn worker_index_is_set_on_workers_and_absent_elsewhere() {
        assert_eq!(crate::worker_slot(), None);
        let pool = Scheduler::new(3);
        let (tx, rx) = mpsc::channel();
        pool.spawn_detached(
            Priority::Interactive,
            Box::new(move || tx.send(crate::worker_slot()).unwrap()),
        );
        let (_, index) = rx.recv().unwrap().expect("workers know their index");
        assert!(index < 3);
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
        let before = pool.stats();
        assert_eq!(before.workers, 2);
        assert_eq!(before.spawns, 0);
        let (tx, rx) = mpsc::channel::<()>();
        for _ in 0..3 {
            let tx = tx.clone();
            pool.spawn_detached(
                Priority::Interactive,
                Box::new(move || tx.send(()).unwrap()),
            );
        }
        for _ in 0..3 {
            rx.recv().unwrap();
        }
        let after = pool.stats();
        assert_eq!(after.spawns, 3);
        // Wakeups only count once a worker actually parked — which the
        // initial spawns may beat (workers are still in their first
        // scan). Let the pool go idle so the workers park, then spawn
        // again: that bell must register a wakeup. Retry to absorb
        // scheduling jitter.
        let mut woke = after.park_wakeups >= 1;
        for _ in 0..100 {
            if woke {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(5));
            let (tx, rx) = mpsc::channel::<()>();
            pool.spawn_detached(
                Priority::Interactive,
                Box::new(move || tx.send(()).unwrap()),
            );
            rx.recv().unwrap();
            woke = pool.stats().park_wakeups >= 1;
        }
        assert!(woke, "workers parked and woke at least once");
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
