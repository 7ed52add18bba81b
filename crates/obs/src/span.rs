//! The span-recording API: RAII guards for timed spans, one-shot
//! instants, and the [`Totals`] aggregation the stage profiler reads.

use crate::ring::{self, EventKind, RawEvent};
use crate::{now_ns, tracing_enabled, Category};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Per-name call/time totals fed by [`span_for`] guards. This is the
/// aggregation `--profile-stages` reads: the *same* timing that emits
/// the trace event also feeds the totals row, so there is exactly one
/// timing path (no parallel profiler counters).
#[derive(Debug)]
pub struct Totals {
    rows: Box<[TotalRow]>,
}

#[derive(Debug)]
struct TotalRow {
    name: &'static str,
    calls: AtomicU64,
    nanos: AtomicU64,
}

impl Totals {
    /// A totals table with one row per name, in the given order.
    pub fn new(names: &[&'static str]) -> Self {
        Totals {
            rows: names
                .iter()
                .map(|&name| TotalRow {
                    name,
                    calls: AtomicU64::new(0),
                    nanos: AtomicU64::new(0),
                })
                .collect(),
        }
    }

    fn add(&self, index: usize, nanos: u64) {
        if let Some(row) = self.rows.get(index) {
            row.calls.fetch_add(1, Ordering::Relaxed);
            row.nanos.fetch_add(nanos, Ordering::Relaxed);
        }
    }

    /// `(name, calls, nanos)` per row, in construction order.
    pub fn snapshot(&self) -> Vec<(&'static str, u64, u64)> {
        self.rows
            .iter()
            .map(|row| {
                (
                    row.name,
                    row.calls.load(Ordering::Relaxed),
                    row.nanos.load(Ordering::Relaxed),
                )
            })
            .collect()
    }
}

/// RAII guard for a timed span: records a complete trace event (and an
/// optional [`Totals`] row) when dropped. Create via [`span`] or
/// [`span_for`]; attach up to two args with [`SpanGuard::arg`].
#[must_use = "a span measures the scope it is bound to; bind it with `let _span = ...`"]
pub struct SpanGuard<'a> {
    /// `None` = inactive (tracing off, no totals attached): drop is a
    /// no-op and no clock was read.
    start_ns: Option<u64>,
    cat: Category,
    name: &'static str,
    keys: [u32; 2],
    args: [u64; 2],
    totals: Option<(&'a Totals, usize)>,
}

/// Starts a span of `cat`/`name`. When tracing is disabled this costs
/// one relaxed load — no clock read, no allocation.
#[inline]
pub fn span(cat: Category, name: &'static str) -> SpanGuard<'static> {
    SpanGuard {
        start_ns: tracing_enabled().then(now_ns),
        cat,
        name,
        keys: [0; 2],
        args: [0; 2],
        totals: None,
    }
}

/// Starts a span that *also* feeds `totals` row `index`. The clock is
/// read even when tracing is off, so profiling works without a trace
/// sink attached; the ring event is still skipped when tracing is off.
#[inline]
pub fn span_for<'a>(
    cat: Category,
    name: &'static str,
    totals: &'a Totals,
    index: usize,
) -> SpanGuard<'a> {
    SpanGuard {
        start_ns: Some(now_ns()),
        cat,
        name,
        keys: [0; 2],
        args: [0; 2],
        totals: Some((totals, index)),
    }
}

impl<'a> SpanGuard<'a> {
    /// Attaches `key = value` to the span (at most two; extra args are
    /// dropped). A no-op on inactive spans.
    #[inline]
    pub fn arg(mut self, key: &'static str, value: u64) -> Self {
        if self.start_ns.is_some() {
            let id = crate::intern(key);
            for i in 0..2 {
                if self.keys[i] == 0 {
                    self.keys[i] = id;
                    self.args[i] = value;
                    break;
                }
            }
        }
        self
    }
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        let Some(start_ns) = self.start_ns else {
            return;
        };
        let dur_ns = now_ns().saturating_sub(start_ns);
        if let Some((totals, index)) = self.totals {
            totals.add(index, dur_ns);
        }
        if tracing_enabled() {
            ring::record(&RawEvent {
                ts_ns: start_ns,
                dur_ns,
                kind: EventKind::Complete,
                cat: self.cat,
                name_id: crate::intern(self.name),
                key0: self.keys[0],
                key1: self.keys[1],
                arg0: self.args[0],
                arg1: self.args[1],
            });
        }
    }
}

/// Records a point-in-time marker with up to two args (extras are
/// dropped). One relaxed load when tracing is off.
#[inline]
pub fn instant(cat: Category, name: &'static str, args: &[(&'static str, u64)]) {
    if !tracing_enabled() {
        return;
    }
    let mut keys = [0u32; 2];
    let mut vals = [0u64; 2];
    for (slot, (key, value)) in args.iter().take(2).enumerate() {
        keys[slot] = crate::intern(key);
        vals[slot] = *value;
    }
    ring::record(&RawEvent {
        ts_ns: now_ns(),
        dur_ns: 0,
        kind: EventKind::Instant,
        cat,
        name_id: crate::intern(name),
        key0: keys[0],
        key1: keys[1],
        arg0: vals[0],
        arg1: vals[1],
    });
}

/// Records a complete span that *started* at `started` and ends now —
/// for intervals whose start predates the recording call site (e.g.
/// queue time measured from an enqueue timestamp). One relaxed load
/// when tracing is off.
#[inline]
pub fn complete_since(
    cat: Category,
    name: &'static str,
    started: Instant,
    args: &[(&'static str, u64)],
) {
    if !tracing_enabled() {
        return;
    }
    let dur_ns = started.elapsed().as_nanos() as u64;
    let end_ns = now_ns();
    let mut keys = [0u32; 2];
    let mut vals = [0u64; 2];
    for (slot, (key, value)) in args.iter().take(2).enumerate() {
        keys[slot] = crate::intern(key);
        vals[slot] = *value;
    }
    ring::record(&RawEvent {
        ts_ns: end_ns.saturating_sub(dur_ns),
        dur_ns,
        kind: EventKind::Complete,
        cat,
        name_id: crate::intern(name),
        key0: keys[0],
        key1: keys[1],
        arg0: vals[0],
        arg1: vals[1],
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals_accumulate_without_tracing() {
        let _guard = crate::test_guard();
        let was = tracing_enabled();
        crate::set_tracing(false);
        let totals = Totals::new(&["alpha", "beta"]);
        for _ in 0..3 {
            let _span = span_for(Category::Pipeline, "alpha", &totals, 0);
        }
        {
            let _span = span_for(Category::Pipeline, "beta", &totals, 1);
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        let rows = totals.snapshot();
        assert_eq!(rows[0].0, "alpha");
        assert_eq!(rows[0].1, 3);
        assert_eq!(rows[1].1, 1);
        assert!(rows[1].2 >= 1_000_000, "beta slept ≥1ms: {}", rows[1].2);
        crate::set_tracing(was);
    }

    #[test]
    fn disabled_span_is_inert() {
        let _guard = crate::test_guard();
        let was = tracing_enabled();
        crate::set_tracing(false);
        let guard = span(Category::Sched, "span-test-inert");
        assert!(guard.start_ns.is_none());
        drop(guard.arg("k", 1));
        crate::set_tracing(was);
    }

    #[test]
    fn enabled_span_records_a_complete_event_with_args() {
        let _guard = crate::test_guard();
        crate::set_tracing(true);
        {
            let _span = span(Category::Dram, "span-test-recorded")
                .arg("chan", 4)
                .arg("bytes", 128)
                .arg("dropped", 9);
        }
        crate::set_tracing(false);
        let tracks = crate::snapshot_all();
        let ev = tracks
            .iter()
            .flat_map(|t| &t.events)
            .find(|e| e.name == "span-test-recorded")
            .expect("span recorded");
        assert_eq!(ev.kind, EventKind::Complete);
        assert_eq!(ev.cat, Category::Dram);
        // The third arg was dropped (two slots on the wire).
        assert_eq!(ev.args, vec![("chan", 4), ("bytes", 128)]);
    }

    #[test]
    fn out_of_range_totals_index_is_ignored() {
        let totals = Totals::new(&["only"]);
        {
            let _span = span_for(Category::Sweep, "only", &totals, 7);
        }
        assert_eq!(totals.snapshot()[0].1, 0);
    }

    #[test]
    fn complete_since_backdates_the_start() {
        let _guard = crate::test_guard();
        crate::set_tracing(true);
        let started = Instant::now();
        std::thread::sleep(std::time::Duration::from_millis(2));
        complete_since(
            Category::Serve,
            "span-test-backdated",
            started,
            &[("id", 3)],
        );
        crate::set_tracing(false);
        let tracks = crate::snapshot_all();
        let ev = tracks
            .iter()
            .flat_map(|t| &t.events)
            .find(|e| e.name == "span-test-backdated")
            .expect("event recorded");
        assert!(ev.dur_ns >= 2_000_000, "{}", ev.dur_ns);
        assert_eq!(ev.args, vec![("id", 3)]);
    }
}
