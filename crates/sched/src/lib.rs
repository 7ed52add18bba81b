//! # scalesim-sched
//!
//! One persistent scheduler for every parallel layer of the simulator:
//! per-layer sims, sweep points and scale-out shards all execute as
//! scoped batches on a single process-wide worker pool instead of
//! three disjoint ad-hoc pools.
//!
//! ## Design
//!
//! * **Workers are created once per process** ([`Scheduler::global`],
//!   sized by `SCALESIM_THREADS` or the machine parallelism) and live
//!   for its whole lifetime, so a `parallel_map` call costs a queue
//!   push instead of OS thread spawn/join.
//! * **One two-class injector.** A scope queues tickets onto itself in
//!   one injector; idle workers pop a ticket and claim the scope's
//!   items. The injector serves [`Priority::Interactive`] tickets
//!   (serve requests, CLI runs) strictly before [`Priority::Batch`]
//!   ones (sweep grids), FIFO within a class. The ambient priority
//!   propagates to nested submissions ([`with_priority`],
//!   [`current_priority`]), so an interactive request's layer tasks
//!   outrank a batch sweep's even three levels of nesting down.
//! * **Scoped batches with caller-help.** [`Scheduler::scope`] runs a
//!   borrowed closure over `0..len` indices: items are claimed from a
//!   shared atomic cursor (so heterogeneous layer costs balance), and
//!   the *submitting* thread claims alongside the workers. Because the
//!   submitter always drains whatever is unclaimed, a scope completes
//!   even on a fully busy (or single-worker) pool — nested scopes
//!   cannot deadlock and never oversubscribe the machine.
//! * **Cancellation.** A scope may carry a cancellation hook (the
//!   serve layer passes its deadline `CancelToken`); it is checked
//!   before every claimed item, so an expired request stops claiming
//!   work immediately instead of simulating layers nobody will read.
//! * **Determinism.** The scheduler never reorders *results*: scopes
//!   write by index, so callers observe output identical to serial
//!   execution for any worker count, claim pattern or priority mix.
//!
//! Panics inside a scope task are caught, the scope's remaining items
//! are skipped, and the panic resumes on the submitting thread once
//! the scope completes — a poisoned batch surfaces as a panic, never
//! as a hang.

#![warn(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]

mod pool;
mod scope;

pub use pool::{Priority, SchedStats, Scheduler};

use std::cell::Cell;

/// Environment variable overriding the process-wide worker count.
///
/// Read **once**, when the global pool is first used; later changes to
/// the variable only affect the serial-fast-path decision of callers
/// that re-read it (see `scalesim_systolic::parallel_map`).
pub const THREADS_ENV: &str = "SCALESIM_THREADS";

/// The worker count the global pool is built with: `SCALESIM_THREADS`
/// when set to a positive integer, otherwise the machine's available
/// parallelism.
pub fn default_workers() -> usize {
    if let Ok(v) = std::env::var(THREADS_ENV) {
        if let Ok(n) = v.trim().parse::<usize>() {
            if n >= 1 {
                return n;
            }
        }
    }
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

thread_local! {
    /// Ambient task class for submissions from this thread; workers
    /// set it to the class of whatever they are executing, so nested
    /// submissions inherit it.
    static CURRENT_PRIORITY: Cell<Priority> = const { Cell::new(Priority::Interactive) };
}

/// The ambient [`Priority`] new submissions from this thread carry.
pub fn current_priority() -> Priority {
    CURRENT_PRIORITY.get()
}

/// Runs `f` with the ambient submission priority set to `priority`,
/// restoring the previous value afterwards (also on unwind).
pub fn with_priority<R>(priority: Priority, f: impl FnOnce() -> R) -> R {
    struct Restore(Priority);
    impl Drop for Restore {
        fn drop(&mut self) {
            CURRENT_PRIORITY.set(self.0);
        }
    }
    let _restore = Restore(CURRENT_PRIORITY.replace(priority));
    f()
}
