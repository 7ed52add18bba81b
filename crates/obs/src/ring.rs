//! Lock-free per-thread event rings.
//!
//! Each recording thread owns one ring: a fixed array of slots it
//! alone writes (overwrite-oldest), which exporter threads snapshot
//! concurrently. Every slot field is a plain atomic guarded by a
//! per-slot sequence word (a seqlock): the writer flips the sequence
//! odd, stores the fields, then flips it even; a reader accepts a slot
//! only when it observes the same even sequence before and after
//! reading the fields. Torn *fields* are impossible (each field is one
//! atomic); a torn *event* is rejected by the sequence check. No locks
//! are taken on the record path and no unsafe code is needed.

use crate::Category;
use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

const DEFAULT_SLOTS: usize = 16384;
const MIN_SLOTS: usize = 16;

fn ring_slots() -> usize {
    static SLOTS: OnceLock<usize> = OnceLock::new();
    *SLOTS.get_or_init(|| {
        std::env::var(crate::TRACE_BUF_ENV)
            .ok()
            .and_then(|v| v.trim().parse::<usize>().ok())
            .map_or(DEFAULT_SLOTS, |n| n.max(MIN_SLOTS))
    })
}

/// How an event renders in the Chrome trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// A span with a start and a duration (`"ph":"X"`).
    Complete,
    /// A point-in-time marker (`"ph":"i"`).
    Instant,
}

/// One decoded trace event, as returned by [`snapshot_all`].
#[derive(Debug, Clone)]
pub struct Event {
    /// Start time, nanoseconds since the trace epoch.
    pub(crate) ts_ns: u64,
    /// Duration in nanoseconds (0 for instants).
    pub(crate) dur_ns: u64,
    /// Complete span or instant marker.
    pub(crate) kind: EventKind,
    /// Emitting subsystem.
    pub(crate) cat: Category,
    /// Static event name (e.g. a pipeline stage name).
    pub(crate) name: &'static str,
    /// Up to two `key = value` args attached at the call site.
    pub(crate) args: Vec<(&'static str, u64)>,
}

/// One thread's decoded ring: its track label and its stable events in
/// timestamp order.
#[derive(Debug, Clone)]
pub struct TrackSnapshot {
    /// Track label ("worker-3", "session-1", "main", "thread-N", …).
    pub(crate) label: String,
    /// Events still resident in the ring, oldest first.
    pub(crate) events: Vec<Event>,
}

/// The encoded form a call site hands to [`record`].
pub(crate) struct RawEvent {
    pub(crate) ts_ns: u64,
    pub(crate) dur_ns: u64,
    pub(crate) kind: EventKind,
    pub(crate) cat: Category,
    pub(crate) name_id: u32,
    pub(crate) key0: u32,
    pub(crate) key1: u32,
    pub(crate) arg0: u64,
    pub(crate) arg1: u64,
}

#[derive(Default)]
struct Slot {
    /// Seqlock word: odd while the owner writes, else `2 * (writes+1)`.
    seq: AtomicU64,
    ts_ns: AtomicU64,
    dur_ns: AtomicU64,
    /// `kind << 40 | cat << 32 | name_id`.
    meta: AtomicU64,
    /// `key0 << 32 | key1` (intern ids; 0 = absent).
    keys: AtomicU64,
    arg0: AtomicU64,
    arg1: AtomicU64,
}

pub(crate) struct Ring {
    label: Mutex<String>,
    slots: Box<[Slot]>,
    /// Total events ever pushed (head % len = next slot).
    head: AtomicU64,
}

impl Ring {
    pub(crate) fn with_slots(label: String, slots: usize) -> Self {
        Ring {
            label: Mutex::new(label),
            slots: (0..slots.max(1)).map(|_| Slot::default()).collect(),
            head: AtomicU64::new(0),
        }
    }

    fn set_label(&self, label: &str) {
        let mut guard = self.label.lock().unwrap_or_else(|e| e.into_inner());
        guard.clear();
        guard.push_str(label);
    }

    /// Records one event. Must only be called by the owning thread
    /// (single-writer invariant); readers may snapshot concurrently.
    pub(crate) fn push(&self, ev: &RawEvent) {
        let head = self.head.load(Ordering::Relaxed);
        let slot = &self.slots[(head % self.slots.len() as u64) as usize];
        slot.seq.store(2 * head + 1, Ordering::Release);
        slot.ts_ns.store(ev.ts_ns, Ordering::Release);
        slot.dur_ns.store(ev.dur_ns, Ordering::Release);
        let kind = match ev.kind {
            EventKind::Complete => 0u64,
            EventKind::Instant => 1u64,
        };
        slot.meta.store(
            kind << 40 | (ev.cat as u64) << 32 | ev.name_id as u64,
            Ordering::Release,
        );
        slot.keys
            .store((ev.key0 as u64) << 32 | ev.key1 as u64, Ordering::Release);
        slot.arg0.store(ev.arg0, Ordering::Release);
        slot.arg1.store(ev.arg1, Ordering::Release);
        slot.seq.store(2 * (head + 1), Ordering::Release);
        self.head.store(head + 1, Ordering::Release);
    }

    /// Decodes every stable slot, oldest first. Slots the owner is
    /// concurrently overwriting are skipped, never torn.
    pub(crate) fn snapshot(&self) -> TrackSnapshot {
        let label = self.label.lock().unwrap_or_else(|e| e.into_inner()).clone();
        let mut events = Vec::new();
        for slot in self.slots.iter() {
            let before = slot.seq.load(Ordering::Acquire);
            if before == 0 || before % 2 == 1 {
                continue;
            }
            let ts_ns = slot.ts_ns.load(Ordering::Acquire);
            let dur_ns = slot.dur_ns.load(Ordering::Acquire);
            let meta = slot.meta.load(Ordering::Acquire);
            let keys = slot.keys.load(Ordering::Acquire);
            let arg0 = slot.arg0.load(Ordering::Acquire);
            let arg1 = slot.arg1.load(Ordering::Acquire);
            if slot.seq.load(Ordering::Acquire) != before {
                continue;
            }
            let kind = if meta >> 40 & 0xff == 1 {
                EventKind::Instant
            } else {
                EventKind::Complete
            };
            let mut args = Vec::new();
            for (key_id, value) in [((keys >> 32) as u32, arg0), (keys as u32, arg1)] {
                if key_id != 0 {
                    args.push((crate::name_by_id(key_id), value));
                }
            }
            events.push(Event {
                ts_ns,
                dur_ns,
                kind,
                cat: Category::from_u8((meta >> 32) as u8),
                name: crate::name_by_id(meta as u32),
                args,
            });
        }
        events.sort_by_key(|e| e.ts_ns);
        TrackSnapshot { label, events }
    }
}

// ---------------------------------------------------------------------
// Thread registry: every ring ever created, plus a free list of rings
// whose owner thread exited (reused by the next new thread, keeping
// trace memory bounded for thread-per-session servers).
// ---------------------------------------------------------------------

static RINGS: Mutex<Vec<Arc<Ring>>> = Mutex::new(Vec::new());
static FREE: Mutex<Vec<usize>> = Mutex::new(Vec::new());

struct RingHandle {
    ring: Arc<Ring>,
    index: usize,
}

impl Drop for RingHandle {
    fn drop(&mut self) {
        FREE.lock()
            .unwrap_or_else(|e| e.into_inner())
            .push(self.index);
    }
}

thread_local! {
    static HANDLE: RefCell<Option<RingHandle>> = const { RefCell::new(None) };
    static PENDING_LABEL: RefCell<Option<String>> = const { RefCell::new(None) };
}

/// Names this thread's trace track (e.g. `"worker-3"`, `"session-7"`).
/// Cheap when no ring exists yet: the label is stored and applied when
/// (if) the thread first records an event.
pub fn label_thread(label: &str) {
    HANDLE.with(|handle| match handle.borrow().as_ref() {
        Some(h) => h.ring.set_label(label),
        None => PENDING_LABEL.with(|p| *p.borrow_mut() = Some(label.to_string())),
    });
}

/// Records one event into the calling thread's ring, creating (or
/// reusing) the ring on first use.
pub(crate) fn record(ev: &RawEvent) {
    crate::count_category(ev.cat);
    HANDLE.with(|handle| {
        let mut handle = handle.borrow_mut();
        let h = handle.get_or_insert_with(acquire_ring);
        h.ring.push(ev);
    });
}

fn acquire_ring() -> RingHandle {
    let label = PENDING_LABEL
        .with(|p| p.borrow_mut().take())
        .unwrap_or_default();
    let reused = FREE.lock().unwrap_or_else(|e| e.into_inner()).pop();
    let mut rings = RINGS.lock().unwrap_or_else(|e| e.into_inner());
    match reused {
        Some(index) => {
            let ring = Arc::clone(&rings[index]);
            drop(rings);
            if !label.is_empty() {
                ring.set_label(&label);
            }
            RingHandle { ring, index }
        }
        None => {
            let index = rings.len();
            let label = if label.is_empty() {
                format!("thread-{index}")
            } else {
                label
            };
            let ring = Arc::new(Ring::with_slots(label, ring_slots()));
            rings.push(Arc::clone(&ring));
            RingHandle { ring, index }
        }
    }
}

/// Snapshots every ring that holds at least one event, in creation
/// order. Non-destructive: rings keep recording while (and after) the
/// snapshot is taken.
pub fn snapshot_all() -> Vec<TrackSnapshot> {
    let rings: Vec<Arc<Ring>> = RINGS
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .iter()
        .map(Arc::clone)
        .collect();
    rings
        .iter()
        .map(|r| r.snapshot())
        .filter(|t| !t.events.is_empty())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn raw(name_id: u32, arg0: u64) -> RawEvent {
        RawEvent {
            ts_ns: arg0,
            dur_ns: 1,
            kind: EventKind::Complete,
            cat: Category::Pipeline,
            name_id,
            key0: 0,
            key1: 0,
            arg0,
            arg1: 0,
        }
    }

    #[test]
    fn ring_overwrites_oldest_and_keeps_exactly_capacity() {
        let ring = Ring::with_slots("t".into(), 64);
        let name = crate::intern("ring-test-overwrite");
        for i in 0..10 * 64u64 {
            ring.push(&raw(name, i));
        }
        let snap = ring.snapshot();
        assert_eq!(snap.events.len(), 64);
        // Exactly the newest 64 events survive, in order (raw() stores
        // the sequence number as the timestamp).
        let args: Vec<u64> = snap.events.iter().map(|e| e.ts_ns).collect();
        let expect: Vec<u64> = (9 * 64..10 * 64).collect();
        assert_eq!(args, expect);
    }

    #[test]
    fn concurrent_writers_each_keep_their_newest_events() {
        // One ring per writer (the single-writer invariant); snapshots
        // run concurrently and must only ever observe valid events.
        let writers = 4;
        let cap = 32usize;
        let per_writer = 50 * cap as u64;
        let name = crate::intern("ring-test-concurrent");
        let rings: Vec<Arc<Ring>> = (0..writers)
            .map(|w| Arc::new(Ring::with_slots(format!("w{w}"), cap)))
            .collect();
        std::thread::scope(|s| {
            for ring in &rings {
                s.spawn(move || {
                    for i in 0..per_writer {
                        ring.push(&raw(name, i));
                    }
                });
            }
            // A concurrent reader hammers snapshots while writers run.
            let reader_rings = rings.clone();
            s.spawn(move || {
                for _ in 0..200 {
                    for ring in &reader_rings {
                        let snap = ring.snapshot();
                        assert!(snap.events.len() <= cap);
                        for ev in &snap.events {
                            assert_eq!(ev.name, "ring-test-concurrent");
                            assert!(ev.ts_ns < per_writer, "torn event: {ev:?}");
                        }
                    }
                }
            });
        });
        for ring in &rings {
            let snap = ring.snapshot();
            assert_eq!(snap.events.len(), cap, "ring is full after the run");
            let args: Vec<u64> = snap.events.iter().map(|e| e.ts_ns).collect();
            let expect: Vec<u64> = (per_writer - cap as u64..per_writer).collect();
            assert_eq!(args, expect, "exactly the newest events survive");
        }
    }

    #[test]
    fn labels_apply_before_and_after_ring_creation() {
        let ring = Ring::with_slots("before".into(), 16);
        assert_eq!(ring.snapshot().label, "before");
        ring.set_label("after");
        assert_eq!(ring.snapshot().label, "after");
    }

    #[test]
    fn args_decode_with_interned_keys() {
        let ring = Ring::with_slots("args".into(), 16);
        let name = crate::intern("ring-test-args");
        let key = crate::intern("id");
        ring.push(&RawEvent {
            ts_ns: 5,
            dur_ns: 7,
            kind: EventKind::Instant,
            cat: Category::Serve,
            name_id: name,
            key0: key,
            key1: 0,
            arg0: 42,
            arg1: 0,
        });
        let snap = ring.snapshot();
        assert_eq!(snap.events.len(), 1);
        let ev = &snap.events[0];
        assert_eq!(ev.kind, EventKind::Instant);
        assert_eq!(ev.cat, Category::Serve);
        assert_eq!(ev.name, "ring-test-args");
        assert_eq!(ev.args, vec![("id", 42)]);
    }
}
