//! The item log: RAII stage spans, events, and the one record they
//! append to.
//!
//! A [`Span`] measures the wall-clock time of one pipeline stage with a
//! monotonic clock. Starting a span is also where an armed item
//! [`crate::deadline`] is checked. This is the only instrumentation call
//! sites need:
//!
//! ```
//! let result = tcpa_obs::time("stage.calibrate", || 2 + 2);
//! assert_eq!(result, 4);
//! ```
//!
//! While a corpus item is open on this thread ([`begin_item`]), each span
//! drop and each [`event`] appends one [`Entry`] to the item's
//! [`ItemLog`]; nothing else is touched per span. That log is the item's
//! only record, and [`end_item`] reads it once for each of its three
//! uses: the stage durations merge into the global registry under one
//! lock, the audit trail is rendered from it when the item asked for one
//! ([`crate::audit`]), and the log itself moves to the trace sink when
//! tracing is enabled ([`crate::trace`]). A span outside any item records
//! straight into the global registry. An item runs start to finish on
//! one thread, so the log needs no synchronization.

use crate::audit::AuditTrail;
use crate::{deadline, registry, trace};
use std::cell::RefCell;
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

/// An in-flight stage timer; records on drop.
#[derive(Debug)]
pub struct Span {
    /// `None` once the span is recorded.
    name: Option<&'static str>,
    start: Instant,
    detail: String,
    /// The span's `(id, parent)` in the item open when it started; `None`
    /// outside any item.
    node: Option<(u64, Option<u64>)>,
}

impl Span {
    /// Starts timing `name` now, first unwinding out of the item if this
    /// thread's deadline has passed.
    pub fn start(name: &'static str) -> Span {
        Span::start_at(name, Instant::now())
    }

    fn start_at(name: &'static str, start: Instant) -> Span {
        deadline::check(start);
        let node = with_item(|item| {
            let id = item.next_id();
            let parent = item.stack.last().copied();
            item.stack.push(id);
            (id, parent)
        });
        Span {
            name: Some(name),
            start,
            detail: String::new(),
            node,
        }
    }

    /// Attaches a human-readable note carried into the audit event and
    /// the trace `args.detail` (ignored by the metrics histogram).
    pub fn note(&mut self, detail: impl Into<String>) {
        self.detail = detail.into();
    }

    /// Ends this span and starts the next stage, `name`, with the same
    /// note at the same instant: consecutive stages share one clock read
    /// and leave no gap between them.
    pub fn then(mut self, name: &'static str) -> Span {
        let now = Instant::now();
        let detail = self.detail.clone();
        self.finish(Some(now));
        let mut next = Span::start_at(name, now);
        next.detail = detail;
        next
    }

    /// Records the span as ending at `end`, or when its bookkeeping is
    /// done when `end` is `None`, and marks it finished.
    fn finish(&mut self, end: Option<Instant>) {
        let Some(name) = self.name.take() else {
            return;
        };
        let logged = self.node.and_then(|(id, parent)| {
            with_item(|item| {
                // Pop this span; an inner span left open is popped with it.
                if let Some(pos) = item.stack.iter().rposition(|&open| open == id) {
                    item.stack.truncate(pos);
                }
                let entries = &mut item.log.entries;
                entries.push(Entry {
                    kind: EventKind::Stage,
                    name,
                    id,
                    parent,
                    ts_ns: since_epoch(self.start),
                    dur_ns: 0,
                    detail: std::mem::take(&mut self.detail),
                });
                // Measured last, so the span covers its own bookkeeping.
                if let Some(entry) = entries.last_mut() {
                    let end = end.unwrap_or_else(Instant::now);
                    entry.dur_ns = nanos(end.duration_since(self.start));
                }
            })
        });
        if logged.is_none() {
            let end = end.unwrap_or_else(Instant::now);
            registry::global().record(name, end.duration_since(self.start));
        }
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        self.finish(None);
    }
}

/// What an [`Entry`] records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// A pipeline stage completed (duration attached): a span.
    Stage,
    /// A transient failure was retried.
    Retry,
    /// A failure (I/O, malformed bytes, timeout, panic).
    Error,
    /// A conclusion: calibration findings, best fits, outcome.
    Verdict,
    /// Anything else worth the record (salvage ledgers, notes).
    Info,
}

impl EventKind {
    /// Stable lowercase name used in the audit schema.
    pub fn as_str(self) -> &'static str {
        match self {
            EventKind::Stage => "stage",
            EventKind::Retry => "retry",
            EventKind::Error => "error",
            EventKind::Verdict => "verdict",
            EventKind::Info => "info",
        }
    }
}

/// One entry of an item's log: a closed span (kind [`EventKind::Stage`])
/// or an event of any other kind. The trace renders a span as a complete
/// event and everything else as an instant.
#[derive(Debug, Clone)]
pub struct Entry {
    /// What the entry records.
    pub kind: EventKind,
    /// Span or event name (`stage.fingerprint`, `retry`, …).
    pub name: &'static str,
    /// 1-based sequence number within the item, taken when the span
    /// opened or the event happened.
    pub id: u64,
    /// The span open around this entry, if any.
    pub parent: Option<u64>,
    /// Nanoseconds from the clock's epoch (see [`crate::trace::enable`])
    /// to the span's start or the event.
    pub ts_ns: u64,
    /// Span duration in nanoseconds (0 for events).
    pub dur_ns: u64,
    /// Human-readable detail (connection key, retry reason, …; may be
    /// empty).
    pub detail: String,
}

/// Everything recorded while one corpus item was open: the item's one
/// record.
#[derive(Debug, Clone)]
pub struct ItemLog {
    /// The item's label (file path or synthetic name).
    pub label: Arc<str>,
    /// The item's 0-based input-order index.
    pub index: u64,
    /// Lane (thread role) the item ran on (`main`, `worker-3`).
    pub lane: Arc<str>,
    /// The item's spans and events: in the order they were recorded (a
    /// span when it closed) while the item is open, sorted by id once it
    /// is in the trace sink.
    pub entries: Vec<Entry>,
}

/// The item open on a thread: its log and the bookkeeping that builds it.
struct OpenItem {
    log: ItemLog,
    started: Instant,
    audit: bool,
    /// The last id handed out.
    seq: u64,
    /// Ids of the spans open now; the top is the parent of the next entry.
    stack: Vec<u64>,
}

impl OpenItem {
    fn next_id(&mut self) -> u64 {
        self.seq += 1;
        self.seq
    }
}

struct Recorder {
    lane: Arc<str>,
    item: Option<OpenItem>,
}

thread_local! {
    static RECORDER: RefCell<Recorder> = RefCell::new(Recorder {
        lane: Arc::from("main"),
        item: None,
    });
}

/// The origin of every entry's `ts_ns`: fixed by [`crate::trace::enable`]
/// or by the first item opened, whichever comes first.
static EPOCH: OnceLock<Instant> = OnceLock::new();

/// Fixes the clock's epoch at `at` unless it is already fixed.
pub(crate) fn start_clock(at: Instant) {
    EPOCH.get_or_init(|| at);
}

/// `at` as nanoseconds since the clock's epoch. Entries are logged only
/// while an item is open, and [`begin_item`] fixes the epoch first.
fn since_epoch(at: Instant) -> u64 {
    EPOCH
        .get()
        .map_or(0, |epoch| nanos(at.saturating_duration_since(*epoch)))
}

/// Runs `f` on this thread's open item; `None` when no item is open.
fn with_item<R>(f: impl FnOnce(&mut OpenItem) -> R) -> Option<R> {
    RECORDER.with(|cell| cell.borrow_mut().item.as_mut().map(f))
}

pub(crate) fn nanos(d: Duration) -> u64 {
    d.as_nanos().min(u64::MAX as u128) as u64
}

/// Names the lane (thread role) of the items this thread opens from now on.
pub(crate) fn set_lane(lane: Arc<str>) {
    RECORDER.with(|cell| cell.borrow_mut().lane = lane);
}

/// Opens an item on this thread for the corpus item `(label, index)`,
/// replacing (and discarding) any unfinished one. With `audit`,
/// [`end_item`] returns the item's audit trail.
pub fn begin_item(label: &str, index: u64, audit: bool) {
    let started = Instant::now();
    start_clock(started);
    RECORDER.with(|cell| {
        let mut recorder = cell.borrow_mut();
        recorder.item = Some(OpenItem {
            log: ItemLog {
                label: Arc::from(label),
                index,
                lane: Arc::clone(&recorder.lane),
                entries: Vec::new(),
            },
            started,
            audit,
            seq: 0,
            stack: Vec::new(),
        });
    });
}

/// Appends an event to this thread's open item, parented under the
/// innermost open span; a no-op when no item is open. In the audit trail
/// it is an event of `kind`, in the trace an instant named `name`.
pub fn event(kind: EventKind, name: &'static str, detail: impl Into<String>) {
    with_item(|item| {
        let id = item.next_id();
        let parent = item.stack.last().copied();
        item.log.entries.push(Entry {
            kind,
            name,
            id,
            parent,
            ts_ns: since_epoch(Instant::now()),
            dur_ns: 0,
            detail: detail.into(),
        });
    });
}

/// Closes this thread's item and reads its log: its stage durations
/// merge into the global registry; when the item was begun with `audit`,
/// its audit trail is rendered, sealed with `outcome` and the item's
/// wall-clock time, and returned; and the log goes to the trace sink
/// when tracing is enabled. Returns `None` when no item was open or no
/// trail was asked for.
pub fn end_item(outcome: &str) -> Option<AuditTrail> {
    let item = RECORDER.with(|cell| cell.borrow_mut().item.take())?;
    let log = item.log;
    registry::global().record_all(
        log.entries
            .iter()
            .filter(|e| e.kind == EventKind::Stage)
            .map(|e| (e.name, e.dur_ns)),
    );
    let trail = item
        .audit
        .then(|| AuditTrail::render(&log, outcome, nanos(item.started.elapsed())));
    trace::ship(log);
    trail
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hist::LogHistogram;
    use crate::json::Value;

    fn stage(name: &str) -> LogHistogram {
        registry::global()
            .snapshot()
            .stages
            .get(name)
            .cloned()
            .unwrap_or_default()
    }

    /// The open item's entries as `(name, ts_ns, dur_ns, detail)`.
    fn open_entries() -> Vec<(&'static str, u64, u64, String)> {
        with_item(|item| {
            item.log
                .entries
                .iter()
                .map(|e| (e.name, e.ts_ns, e.dur_ns, e.detail.clone()))
                .collect()
        })
        .expect("item open")
    }

    #[test]
    fn span_outside_an_item_records_at_once() {
        let before = stage("stage.test_span");
        {
            let mut s = Span::start("stage.test_span");
            s.note("noted");
            std::thread::sleep(Duration::from_millis(1));
        }
        let h = stage("stage.test_span").since(&before);
        assert_eq!(h.count(), 1);
        assert!(h.sum() >= 1_000_000, "slept ≥1ms");
    }

    #[test]
    fn item_spans_reach_the_registry_at_item_end() {
        let _guard = crate::test_lock();
        let before = stage("stage.test_item");
        begin_item("item.pcap", 0, true);
        for i in 0..5 {
            crate::time("stage.test_item", || {
                std::thread::sleep(Duration::from_micros(100 * i))
            });
        }
        assert_eq!(stage("stage.test_item").since(&before).count(), 0);
        let trail = end_item("analyzed").expect("trail");
        let doc = Value::parse(trail.to_json()).expect("parse trail");
        let mut direct = LogHistogram::default();
        for e in doc.get("events").and_then(Value::as_arr).expect("events") {
            let dur_ns = e.get("dur_ns").and_then(Value::as_u64);
            direct.record(dur_ns.expect("stage duration"));
        }
        let merged = stage("stage.test_item").since(&before);
        assert_eq!(merged.count(), 5);
        assert_eq!(merged.sum(), direct.sum());
        assert_eq!(merged.max(), direct.max());
        let _ = trace::drain();
    }

    #[test]
    fn then_starts_the_next_stage_where_the_last_one_ends() {
        let _guard = crate::test_lock();
        begin_item("chain.pcap", 2, true);
        let mut first = crate::span("stage.test_first");
        first.note("192.0.2.1:1 -> 192.0.2.2:2");
        let second = first.then("stage.test_second");
        std::thread::sleep(Duration::from_micros(100));
        drop(second);
        let spans = open_entries();
        let [(a, a_ts, a_dur, a_note), (b, b_ts, b_dur, b_note)] = &spans[..] else {
            panic!("two spans expected: {spans:?}");
        };
        assert_eq!((*a, *b), ("stage.test_first", "stage.test_second"));
        assert_eq!(a_ts + a_dur, *b_ts);
        assert!(*b_dur >= 100_000, "slept 100 µs");
        assert_eq!(a_note, b_note, "the note carries over");
        let _ = end_item("analyzed");
        let _ = trace::drain();
    }

    #[test]
    fn unwind_out_of_an_item_closes_its_open_spans() {
        let _guard = crate::test_lock();
        begin_item("panics.pcap", 1, true);
        let unwound = std::panic::catch_unwind(|| {
            let _outer = crate::span("stage.test_outer");
            let _inner = crate::span("stage.test_inner");
            panic!("boom");
        });
        assert!(unwound.is_err());
        crate::time("stage.test_after", || ());
        let names: Vec<&str> = open_entries().into_iter().map(|e| e.0).collect();
        assert_eq!(
            names,
            ["stage.test_inner", "stage.test_outer", "stage.test_after"]
        );
        assert!(end_item("failed.panic").is_some(), "trail asked for");
        let _ = trace::drain();
    }

    #[test]
    fn events_outside_an_item_are_dropped() {
        let _guard = crate::test_lock();
        assert!(end_item("x").is_none());
        event(EventKind::Info, "nobody", "listening");
        begin_item("quiet.pcap", 3, false);
        assert!(end_item("analyzed").is_none(), "no audit asked for");
        let _ = trace::drain();
    }

    /// The trace sink keeps every entry of a traced run until the
    /// document is written, so an entry must stay as small as the
    /// trace's own record of it was (11 words).
    #[cfg(target_pointer_width = "64")]
    #[test]
    fn an_entry_is_eleven_words() {
        assert_eq!(std::mem::size_of::<Entry>(), 88);
    }
}
