//! # scalesim-obs
//!
//! Zero-dependency tracing + metrics subsystem shared by every layer of
//! the simulator. Three pieces:
//!
//! * **Spans** ([`span`], [`instant`], [`complete_since`]): begin/end
//!   events recorded into lock-free per-thread ring buffers (bounded,
//!   overwrite-oldest, sized by `SCALESIM_TRACE_BUF`). Each event carries a
//!   static [`Category`], a static name and up to two small typed args.
//!   When tracing is disabled the whole record path is a single relaxed
//!   atomic load and a branch, so instrumentation can stay on hot paths
//!   permanently.
//! * **Export** ([`write_chrome_trace`]): the recorded rings serialize
//!   to Chrome trace-event JSON (loadable in Perfetto or
//!   `chrome://tracing`), one track per recording thread, streamed to
//!   the writer so peak memory stays bounded by the ring capacity.
//! * **Metrics** ([`Histogram`], [`render_counter`], [`render_gauge`],
//!   [`render_histogram`]): a lock-free latency histogram and the
//!   Prometheus text-exposition renderers; callers keep their counters
//!   as plain atomics and render what they read.
//!
//! ## Determinism
//!
//! Tracing observes wall-clock time but never feeds back into any
//! simulation result: enabling it must not change a single report byte
//! (guarded by integration tests in `crates/core`).
//!
//! ## Ring reuse
//!
//! Threads that exit return their ring to a free list so long-lived
//! processes (e.g. a TCP serve loop spawning one thread per session)
//! keep bounded trace memory. A reused ring keeps its previous events
//! until they are overwritten; its track label is the *latest* label,
//! so an old event can appear under a newer thread's track name — an
//! accepted trade-off for boundedness (see `docs/OBSERVABILITY.md`).

#![warn(missing_docs)]

mod chrome;
mod metrics;
mod ring;
mod span;

pub use chrome::{chrome_trace_string, json_escape_into, write_chrome_trace};
pub use metrics::{render_counter, render_gauge, render_histogram, Histogram};
pub use ring::{label_thread, snapshot_all, Event, EventKind, TrackSnapshot};
pub use span::{complete_since, instant, span, span_for, SpanGuard, Totals};

use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// Environment variable sizing each per-thread span ring, in events.
/// Read once, at the first recorded event (default 16384, minimum 16).
pub(crate) const TRACE_BUF_ENV: &str = "SCALESIM_TRACE_BUF";

/// Static category of a span: which subsystem emitted it. Categories
/// are closed (a `u8` on the wire) so per-category totals are a fixed
/// array of counters instead of a map.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum Category {
    /// Scheduler internals: scope runs and parks.
    Sched = 0,
    /// Per-layer pipeline stages (sparsify/compute/dram/…).
    Pipeline = 1,
    /// Plan-cache hits, misses and evictions.
    Cache = 2,
    /// Cycle-accurate DRAM re-timing.
    Dram = 3,
    /// Scale-out collective overlap windows.
    Collective = 4,
    /// Serve request lifecycle (decode → queue → execute → respond).
    Serve = 5,
    /// Design-space sweep points.
    Sweep = 6,
}

impl Category {
    /// Every category, in wire order.
    pub(crate) const ALL: [Category; 7] = [
        Category::Sched,
        Category::Pipeline,
        Category::Cache,
        Category::Dram,
        Category::Collective,
        Category::Serve,
        Category::Sweep,
    ];

    /// The stable lowercase name used in traces, stats and docs.
    pub(crate) fn name(self) -> &'static str {
        match self {
            Category::Sched => "sched",
            Category::Pipeline => "pipeline",
            Category::Cache => "cache",
            Category::Dram => "dram",
            Category::Collective => "collective",
            Category::Serve => "serve",
            Category::Sweep => "sweep",
        }
    }

    pub(crate) fn from_u8(byte: u8) -> Category {
        Category::ALL[(byte as usize).min(Category::ALL.len() - 1)]
    }
}

static ENABLED: AtomicBool = AtomicBool::new(false);

/// Whether span recording is on. This is the *entire* disabled-path
/// cost: one relaxed load and a branch.
#[inline]
pub fn tracing_enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turns span recording on or off (process-wide). Turning it on pins
/// the trace epoch; already-recorded events are kept.
pub fn set_tracing(enabled: bool) {
    epoch();
    ENABLED.store(enabled, Ordering::Relaxed);
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Nanoseconds since the trace epoch (first obs use in the process).
pub(crate) fn now_ns() -> u64 {
    epoch().elapsed().as_nanos() as u64
}

// ---------------------------------------------------------------------
// Name interning: events store a u32 id instead of a fat &'static str
// pointer so ring slots stay plain atomics (no unsafe anywhere). The
// global table is append-only under a mutex; a thread-local cache keyed
// by the string's address keeps the hot path lock-free after the first
// use of a name on a thread. Id 0 is reserved for "" (an absent arg).
// ---------------------------------------------------------------------

static NAMES: Mutex<Vec<&'static str>> = Mutex::new(Vec::new());

thread_local! {
    static NAME_CACHE: RefCell<Vec<(usize, usize, u32)>> = const { RefCell::new(Vec::new()) };
}

pub(crate) fn intern(name: &'static str) -> u32 {
    let key = (name.as_ptr() as usize, name.len());
    NAME_CACHE.with(|cache| {
        let mut cache = cache.borrow_mut();
        if let Some(&(_, _, id)) = cache.iter().find(|&&(p, l, _)| (p, l) == key) {
            return id;
        }
        let id = intern_slow(name);
        cache.push((key.0, key.1, id));
        id
    })
}

fn intern_slow(name: &'static str) -> u32 {
    let mut names = NAMES.lock().unwrap_or_else(|e| e.into_inner());
    if names.is_empty() {
        names.push("");
    }
    if let Some(id) = names.iter().position(|&n| n == name) {
        return id as u32;
    }
    names.push(name);
    (names.len() - 1) as u32
}

pub(crate) fn name_by_id(id: u32) -> &'static str {
    let names = NAMES.lock().unwrap_or_else(|e| e.into_inner());
    names.get(id as usize).copied().unwrap_or("")
}

// ---------------------------------------------------------------------
// Per-category event totals: bumped on every recorded event, surfaced
// through the serve `stats` response and the Prometheus exposition.
// ---------------------------------------------------------------------

static CAT_COUNTS: [AtomicU64; 7] = [
    AtomicU64::new(0),
    AtomicU64::new(0),
    AtomicU64::new(0),
    AtomicU64::new(0),
    AtomicU64::new(0),
    AtomicU64::new(0),
    AtomicU64::new(0),
];

pub(crate) fn count_category(cat: Category) {
    CAT_COUNTS[cat as usize].fetch_add(1, Ordering::Relaxed);
}

/// Events recorded so far per [`Category`], indexed by `Category::ALL`
/// order. Monotonic over the process lifetime (overwritten ring events
/// stay counted).
pub fn category_totals() -> [u64; 7] {
    let mut totals = [0u64; 7];
    for (slot, count) in totals.iter_mut().zip(CAT_COUNTS.iter()) {
        *slot = count.load(Ordering::Relaxed);
    }
    totals
}

/// Total events recorded so far across all categories.
pub fn recorded_events() -> u64 {
    category_totals().iter().sum()
}

/// Serializes tests that toggle the process-wide tracing flag (they
/// would race each other under the parallel test runner otherwise).
#[cfg(test)]
pub(crate) fn test_guard() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn category_names_are_stable_and_distinct() {
        let names: Vec<_> = Category::ALL.iter().map(|c| c.name()).collect();
        assert_eq!(
            names,
            [
                "sched",
                "pipeline",
                "cache",
                "dram",
                "collective",
                "serve",
                "sweep"
            ]
        );
        for (i, cat) in Category::ALL.iter().enumerate() {
            assert_eq!(Category::from_u8(i as u8), *cat);
        }
    }

    #[test]
    fn interning_is_stable_and_id_zero_is_empty() {
        let a = intern("obs-lib-test-name");
        let b = intern("obs-lib-test-name");
        assert_eq!(a, b);
        assert_ne!(a, 0);
        assert_eq!(name_by_id(a), "obs-lib-test-name");
        assert_eq!(name_by_id(0), "");
        // Unknown ids degrade to "" instead of panicking.
        assert_eq!(name_by_id(u32::MAX), "");
    }

    #[test]
    fn disabled_tracing_is_default_and_toggles() {
        // Other tests may have enabled tracing; just exercise the
        // toggle without asserting the initial state.
        let _guard = test_guard();
        let was = tracing_enabled();
        set_tracing(true);
        assert!(tracing_enabled());
        set_tracing(was);
        assert_eq!(tracing_enabled(), was);
    }
}
