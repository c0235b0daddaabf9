//! Bench-side instrumentation: detection sinks and SP-query wrappers that
//! time the per-access layer boundaries from outside the crates, and the
//! span recorder of the traced run.
//!
//! Nothing here reaches inside a crate.  [`TimedSink`] wraps any
//! [`DetectionSink`] and times each `check_thread` call (the shadow-check
//! layer, `racedet`), handing the inner sink a [`CurrentSpQuery`] wrapper
//! that times each `precedes_current` call (the SP-maintenance layer,
//! `spmaint::stream` serially, `sphybrid` in parallel).  Per-access
//! boundaries are far too frequent for one span each, so they accumulate
//! into per-worker counts and busy time instead.

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

use racedet::{Access, DetectionSink};
use spmaint::api::CurrentSpQuery;
use spmetrics::MetricsRegistry;
use sptree::tree::ThreadId;

/// Number of per-worker accumulator slots (worker threads hash into them).
pub const SLOTS: usize = 16;

static NEXT_SLOT: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static SLOT: usize = NEXT_SLOT.fetch_add(1, Ordering::Relaxed) % SLOTS;
}

/// Nanoseconds in an empty `Instant::now()`-to-`Instant::now()` interval:
/// the timer cost folded into every timed interval, subtracted from
/// per-access figures.
pub fn timer_cost_ns() -> f64 {
    const N: u32 = 200_000;
    let mut total = 0u128;
    for _ in 0..N {
        let t0 = Instant::now();
        let t1 = Instant::now();
        total += (t1 - t0).as_nanos();
    }
    total as f64 / f64::from(N)
}

/// One worker's accumulated per-access boundary figures.
#[derive(Default)]
#[repr(align(128))]
struct Slot {
    checks: AtomicU64,
    accesses: AtomicU64,
    check_ns: AtomicU64,
    queries: AtomicU64,
    query_ns: AtomicU64,
}

/// Totals of a [`TimedSink`], summed over workers.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct BoundaryTotals {
    /// `check_thread` calls.
    pub checks: u64,
    /// Accesses checked.
    pub accesses: u64,
    /// Busy time inside `check_thread`, queries included.
    pub check_ns: u64,
    /// `precedes_current` / `parallel_with_current` calls.
    pub queries: u64,
    /// Busy time inside those queries.
    pub query_ns: u64,
}

impl BoundaryTotals {
    /// Field-wise sum.
    pub fn plus(self, o: BoundaryTotals) -> BoundaryTotals {
        BoundaryTotals {
            checks: self.checks + o.checks,
            accesses: self.accesses + o.accesses,
            check_ns: self.check_ns + o.check_ns,
            queries: self.queries + o.queries,
            query_ns: self.query_ns + o.query_ns,
        }
    }

    /// Shadow-check self time: check busy time minus the query intervals
    /// inside it and the timer cost of those query intervals.
    pub fn check_self_ns(&self, timer_ns: f64) -> f64 {
        self.check_ns as f64 - self.query_ns as f64 - self.queries as f64 * timer_ns
    }

    /// Mean query time with the timer cost removed.
    pub fn query_mean_ns(&self, timer_ns: f64) -> f64 {
        if self.queries == 0 {
            return 0.0;
        }
        (self.query_ns as f64 - self.queries as f64 * timer_ns) / self.queries as f64
    }
}

/// A [`DetectionSink`] that forwards to `inner` and times every per-thread
/// check and every SP query issued inside it, per worker.
pub struct TimedSink<S> {
    inner: S,
    slots: Box<[Slot]>,
}

impl<S: DetectionSink> TimedSink<S> {
    /// Wrap `inner`.
    pub fn new(inner: S) -> Self {
        TimedSink {
            inner,
            slots: (0..SLOTS).map(|_| Slot::default()).collect(),
        }
    }

    /// The wrapped sink.
    pub fn into_inner(self) -> S {
        self.inner
    }

    /// Totals over all workers.
    pub fn totals(&self) -> BoundaryTotals {
        self.per_worker()
            .into_iter()
            .fold(BoundaryTotals::default(), BoundaryTotals::plus)
    }

    /// Figures of each worker slot that saw any check.
    pub fn per_worker(&self) -> Vec<BoundaryTotals> {
        self.slots
            .iter()
            .map(|s| BoundaryTotals {
                checks: s.checks.load(Ordering::Relaxed),
                accesses: s.accesses.load(Ordering::Relaxed),
                check_ns: s.check_ns.load(Ordering::Relaxed),
                queries: s.queries.load(Ordering::Relaxed),
                query_ns: s.query_ns.load(Ordering::Relaxed),
            })
            .filter(|s| s.checks > 0)
            .collect()
    }
}

/// Times each query against the wrapped view; lives for one
/// `check_thread` call on one worker, so plain cells suffice.
struct TimedQuery<'a> {
    inner: &'a dyn CurrentSpQuery,
    queries: Cell<u64>,
    busy_ns: Cell<u64>,
}

impl TimedQuery<'_> {
    fn timed(&self, f: impl FnOnce() -> bool) -> bool {
        let t0 = Instant::now();
        let answer = f();
        let ns = t0.elapsed().as_nanos() as u64;
        self.queries.set(self.queries.get() + 1);
        self.busy_ns.set(self.busy_ns.get() + ns);
        answer
    }
}

impl CurrentSpQuery for TimedQuery<'_> {
    fn precedes_current(&self, earlier: ThreadId) -> bool {
        self.timed(|| self.inner.precedes_current(earlier))
    }

    fn parallel_with_current(&self, earlier: ThreadId) -> bool {
        self.timed(|| self.inner.parallel_with_current(earlier))
    }
}

impl<S: DetectionSink> DetectionSink for TimedSink<S> {
    fn read(&self, loc: u32) -> u64 {
        self.inner.read(loc)
    }

    fn write(&self, loc: u32, value: u64) {
        self.inner.write(loc, value);
    }

    fn check_thread(&self, queries: &dyn CurrentSpQuery, thread: ThreadId, accesses: &[Access]) {
        let timed = TimedQuery {
            inner: queries,
            queries: Cell::new(0),
            busy_ns: Cell::new(0),
        };
        let t0 = Instant::now();
        self.inner.check_thread(&timed, thread, accesses);
        let ns = t0.elapsed().as_nanos() as u64;
        let slot = &self.slots[SLOT.with(|s| *s)];
        slot.checks.fetch_add(1, Ordering::Relaxed);
        slot.accesses
            .fetch_add(accesses.len() as u64, Ordering::Relaxed);
        slot.check_ns.fetch_add(ns, Ordering::Relaxed);
        slot.queries
            .fetch_add(timed.queries.get(), Ordering::Relaxed);
        slot.query_ns
            .fetch_add(timed.busy_ns.get(), Ordering::Relaxed);
    }
}

/// A "no-op" detection sink: real value memory (programs read back what
/// they wrote and assert on it) but no shadow check at all.  Running a
/// session over it prices scheduling, unfolding, access buffering and SP
/// maintenance without the detector.
pub struct ValuesOnlySink {
    values: Vec<AtomicU64>,
}

impl ValuesOnlySink {
    /// Value memory of `locations` zeroed words.
    pub fn new(locations: u32) -> Self {
        ValuesOnlySink {
            values: (0..locations).map(|_| AtomicU64::new(0)).collect(),
        }
    }
}

impl DetectionSink for ValuesOnlySink {
    fn read(&self, loc: u32) -> u64 {
        self.values[loc as usize].load(Ordering::Relaxed)
    }

    fn write(&self, loc: u32, value: u64) {
        self.values[loc as usize].store(value, Ordering::Relaxed);
    }

    fn check_thread(&self, _: &dyn CurrentSpQuery, _: ThreadId, _: &[Access]) {}
}

/// One bench-side span: a call into a layer.
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer call, e.g. `spprog.run_program`.
    pub name: &'static str,
    /// Start, nanoseconds on the registry clock.
    pub start_ns: u64,
    /// End, nanoseconds on the registry clock.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Iteration (live phase) or rung (service phase) the span belongs to.
    pub run: u64,
}

impl Span {
    /// A finished span of `dur` from `start_ns` (service sessions are
    /// reconstructed from their due time and the service's own figures).
    pub fn interval(
        name: &'static str,
        start_ns: u64,
        dur: std::time::Duration,
        parent: usize,
        run: u64,
    ) -> Span {
        Span {
            name,
            start_ns,
            end_ns: start_ns + dur.as_nanos() as u64,
            parent: Some(parent),
            run,
        }
    }
}

/// In-memory span recorder for the traced run, on the registry's clock so
/// spans and the registry's events share one timeline.
pub struct Tracer {
    registry: Arc<MetricsRegistry>,
    spans: Vec<Span>,
}

impl Tracer {
    /// Recorder on `registry`'s clock.
    pub fn new(registry: Arc<MetricsRegistry>) -> Self {
        Tracer {
            registry,
            spans: Vec::new(),
        }
    }

    /// Current time on the shared clock.
    pub fn now_ns(&self) -> u64 {
        self.registry.now_ns()
    }

    /// Open a span; returns its index for [`Tracer::close`] and children.
    pub fn open(&mut self, name: &'static str, parent: Option<usize>, run: u64) -> usize {
        let now = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent,
            run,
        });
        self.spans.len() - 1
    }

    /// Close span `id` now.
    pub fn close(&mut self, id: usize) {
        self.spans[id].end_ns = self.now_ns();
    }

    /// Record an already-finished span.
    pub fn push(&mut self, span: Span) -> usize {
        self.spans.push(span);
        self.spans.len() - 1
    }

    /// Recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Chrome-trace complete (`"ph":"X"`) events for every span, comma
    /// separated, ready to splice into a `traceEvents` array.
    pub fn chrome_events(&self) -> String {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":0,\"tid\":0,\"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{\"id\":{i},\"parent\":{parent},\"run\":{}}}}}",
                s.name,
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
                s.run,
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use racedet::LiveDetector;

    struct Serial;
    impl CurrentSpQuery for Serial {
        fn precedes_current(&self, _: ThreadId) -> bool {
            true
        }
    }

    #[test]
    fn timed_sink_counts_checks_accesses_and_queries() {
        let sink = TimedSink::new(LiveDetector::new(4, 1));
        sink.check_thread(&Serial, ThreadId(0), &[Access::write(0), Access::write(1)]);
        sink.check_thread(&Serial, ThreadId(1), &[Access::write(0)]);
        let t = sink.totals();
        assert_eq!((t.checks, t.accesses), (2, 3));
        assert!(t.queries >= 1, "the second write must ask about thread 0");
        assert!(t.check_ns >= t.query_ns);
        assert!(sink.into_inner().into_report().is_empty());
    }

    #[test]
    fn values_only_sink_keeps_values_and_checks_nothing() {
        let sink = ValuesOnlySink::new(2);
        sink.write(1, 9);
        assert_eq!(sink.read(1), 9);
        sink.check_thread(&Serial, ThreadId(0), &[Access::write(0)]);
    }

    #[test]
    fn spans_nest_and_export() {
        let mut tracer = Tracer::new(MetricsRegistry::new());
        let outer = tracer.open("iteration", None, 0);
        let inner = tracer.open("spprog.run_program", Some(outer), 0);
        tracer.close(inner);
        tracer.close(outer);
        let s = tracer.spans();
        assert!(s[0].start_ns <= s[1].start_ns && s[1].end_ns <= s[0].end_ns);
        let json = tracer.chrome_events();
        assert!(json.contains("\"parent\":0") && json.contains("\"parent\":null"));
    }
}
