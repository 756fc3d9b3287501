//! Guard-style timed spans with nesting and `u64` key/value fields.
//!
//! A [`Span`] measures the region between its creation and its drop.
//! Spans nest through a per-thread stack: a span opened while another
//! is alive records that span's id as its parent, which is what lets
//! the Chrome exporter reconstruct the flame graph of an
//! abut→route→stretch session.
//!
//! Every span also carries a **trace id** grouping it with the other
//! spans of the same logical operation, across threads and (via the
//! wire protocol) across processes. Children inherit the trace id of
//! their parent; a root span with no adopted [`TraceContext`] starts a
//! fresh trace identified by its own span id. Use [`span_with_context`]
//! to continue a trace handed off from another thread, and
//! [`complete_span`] to record a region whose start predates knowing
//! its context (e.g. frame decode, queue wait).

use crate::context::TraceContext;
use crate::recorder::{recorder, SpanRecord};
use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

/// Spans keep at most this many fields; extras are dropped silently.
pub const MAX_FIELDS: usize = 8;

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

fn next_span_id() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    NEXT.fetch_add(1, Ordering::Relaxed)
}

fn this_thread_id() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    thread_local! {
        static TID: u64 = NEXT.fetch_add(1, Ordering::Relaxed);
    }
    TID.with(|t| *t)
}

thread_local! {
    /// The stack of currently-open `(span id, trace id)` pairs.
    static OPEN: RefCell<Vec<(u64, u64)>> = const { RefCell::new(Vec::new()) };
}

/// The innermost open `(span id, trace id)` on this thread, if any.
pub(crate) fn current_open() -> Option<(u64, u64)> {
    OPEN.with(|o| o.borrow().last().copied())
}

struct ActiveSpan {
    name: &'static str,
    id: u64,
    parent: u64,
    trace: u64,
    thread: u64,
    start_ns: u64,
    started: Instant,
    fields: Vec<(&'static str, u64)>,
}

/// A guard measuring one timed region. Created by [`span`] or the
/// [`span!`](crate::span!) macro; records on drop. When tracing is
/// disabled the guard is inert and costs nothing beyond the
/// construction-time enabled check.
pub struct Span(Option<ActiveSpan>);

fn open_span(name: &'static str, explicit: Option<TraceContext>) -> Span {
    if !crate::enabled() {
        return Span(None);
    }
    let ep = epoch();
    let started = Instant::now();
    let id = next_span_id();
    let (parent, trace) = OPEN.with(|o| {
        let mut o = o.borrow_mut();
        let (parent, trace) = match explicit {
            // An explicit context wins even inside an open span: the
            // caller is continuing a trace handed off from elsewhere.
            Some(ctx) => (ctx.parent_span, ctx.trace_id),
            None => match o.last().copied() {
                Some((pid, ptrace)) => (pid, ptrace),
                None => {
                    let remote = crate::context::remote();
                    if remote.is_none() {
                        (0, 0)
                    } else {
                        (remote.parent_span, remote.trace_id)
                    }
                }
            },
        };
        // A fresh root starts a trace named after its own span id so
        // every record belongs to exactly one nonzero trace.
        let trace = if trace == 0 { id } else { trace };
        o.push((id, trace));
        (parent, trace)
    });
    Span(Some(ActiveSpan {
        name,
        id,
        parent,
        trace,
        thread: this_thread_id(),
        start_ns: started.duration_since(ep).as_nanos() as u64,
        started,
        fields: Vec::with_capacity(4),
    }))
}

/// Opens a span named `name`. Names should be short dotted paths
/// (`"cmd.route"`, `"rest.solve"`); the auto-histogram in the registry
/// is keyed by this exact string.
pub fn span(name: &'static str) -> Span {
    open_span(name, None)
}

/// Opens a span continuing `ctx` — the cross-thread (and cross-wire)
/// handoff primitive. The new span records `ctx.parent_span` as its
/// parent and `ctx.trace_id` as its trace even if other spans are open
/// on this thread; children opened while it is alive inherit the trace.
pub fn span_with_context(name: &'static str, ctx: TraceContext) -> Span {
    open_span(name, Some(ctx))
}

/// Records an already-elapsed region `[started, now)` as a finished
/// span under `ctx`, feeding the ring and the auto-histogram exactly
/// like a guard would. For regions whose start predates knowing their
/// context (frame decode discovers the context *inside* the bytes;
/// queue wait starts on the submitting thread and ends on the worker).
/// Returns the recorded span's id (0 when tracing is disabled).
pub fn complete_span(
    name: &'static str,
    ctx: TraceContext,
    started: Instant,
    fields: &[(&'static str, u64)],
) -> u64 {
    if !crate::enabled() {
        return 0;
    }
    let ep = epoch();
    let dur_ns = started.elapsed().as_nanos() as u64;
    // `duration_since` saturates to zero if `started` predates the
    // lazily-initialized epoch.
    let start_ns = started.duration_since(ep).as_nanos() as u64;
    let id = next_span_id();
    let trace = if ctx.trace_id == 0 { id } else { ctx.trace_id };
    crate::registry().histogram(name).record(dur_ns);
    recorder().record(SpanRecord {
        name,
        id,
        parent: ctx.parent_span,
        trace,
        thread: this_thread_id(),
        start_ns,
        dur_ns,
        fields: fields.to_vec(),
    });
    id
}

impl Span {
    /// Attaches a `u64` field to the span (no-op when disabled or when
    /// [`MAX_FIELDS`] is exceeded).
    pub fn field(&mut self, key: &'static str, value: u64) {
        if let Some(a) = self.0.as_mut() {
            if a.fields.len() < MAX_FIELDS {
                a.fields.push((key, value));
            }
        }
    }

    /// This span's id, or 0 when tracing is disabled.
    pub fn id(&self) -> u64 {
        self.0.as_ref().map(|a| a.id).unwrap_or(0)
    }

    /// The trace this span belongs to, or 0 when tracing is disabled.
    pub fn trace_id(&self) -> u64 {
        self.0.as_ref().map(|a| a.trace).unwrap_or(0)
    }

    /// The context a continuation of this span should carry: same
    /// trace, parented on this span. [`TraceContext::NONE`] when
    /// tracing is disabled.
    pub fn context(&self) -> TraceContext {
        match self.0.as_ref() {
            Some(a) => TraceContext {
                trace_id: a.trace,
                parent_span: a.id,
            },
            None => TraceContext::NONE,
        }
    }

    /// Whether this guard is live (tracing was enabled at creation).
    pub fn is_recording(&self) -> bool {
        self.0.is_some()
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some(a) = self.0.take() else { return };
        let dur_ns = a.started.elapsed().as_nanos() as u64;
        OPEN.with(|o| {
            let mut o = o.borrow_mut();
            // Guards normally drop LIFO; tolerate out-of-order drops.
            if o.last().map(|&(id, _)| id) == Some(a.id) {
                o.pop();
            } else if let Some(pos) = o.iter().rposition(|&(id, _)| id == a.id) {
                o.remove(pos);
            }
        });
        crate::registry().histogram(a.name).record(dur_ns);
        recorder().record(SpanRecord {
            name: a.name,
            id: a.id,
            parent: a.parent,
            trace: a.trace,
            thread: a.thread,
            start_ns: a.start_ns,
            dur_ns,
            fields: a.fields,
        });
    }
}

impl std::fmt::Debug for Span {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.0 {
            Some(a) => write!(f, "Span({} #{})", a.name, a.id),
            None => f.write_str("Span(disabled)"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Runs `f` with tracing enabled, serialized against every other
    /// test that flips the global flag.
    fn with_enabled<R>(f: impl FnOnce() -> R) -> R {
        let _g = crate::test_lock();
        crate::enable(true);
        let r = f();
        crate::enable(false);
        r
    }

    #[test]
    fn spans_nest_and_record() {
        with_enabled(|| {
            let outer_id;
            {
                let outer = span("test.outer");
                outer_id = outer.id();
                let _inner = crate::span!("test.inner", depth = 2u64);
            }
            let spans = recorder().snapshot();
            let inner = spans
                .iter()
                .rev()
                .find(|r| r.name == "test.inner")
                .expect("inner recorded");
            assert_eq!(inner.parent, outer_id);
            assert_eq!(inner.fields, vec![("depth", 2u64)]);
            let outer = spans
                .iter()
                .rev()
                .find(|r| r.name == "test.outer")
                .expect("outer recorded");
            assert_eq!(outer.parent, 0);
            assert!(outer.dur_ns >= inner.dur_ns);
            // A root starts a trace named after itself; children share it.
            assert_eq!(outer.trace, outer_id);
            assert_eq!(inner.trace, outer_id);
        });
    }

    #[test]
    fn field_limit_enforced() {
        with_enabled(|| {
            let mut s = span("test.fields");
            for i in 0..(MAX_FIELDS as u64 + 4) {
                s.field("k", i);
            }
            drop(s);
            let spans = recorder().snapshot();
            let rec = spans
                .iter()
                .rev()
                .find(|r| r.name == "test.fields")
                .unwrap();
            assert_eq!(rec.fields.len(), MAX_FIELDS);
        });
    }

    #[test]
    fn auto_histogram_fed() {
        with_enabled(|| {
            drop(span("test.autohist"));
            assert!(crate::registry().histogram("test.autohist").count() >= 1);
        });
    }

    #[test]
    fn explicit_context_continues_trace() {
        with_enabled(|| {
            let ctx = TraceContext::new(4242, 17);
            let handed = span_with_context("test.handoff", ctx);
            assert_eq!(handed.trace_id(), 4242);
            let child = span("test.handoff.child");
            assert_eq!(child.trace_id(), 4242);
            let child_ctx = child.context();
            assert_eq!(child_ctx.trace_id, 4242);
            assert_eq!(child_ctx.parent_span, child.id());
            drop(child);
            drop(handed);
            let spans = recorder().snapshot();
            let rec = spans
                .iter()
                .rev()
                .find(|r| r.name == "test.handoff")
                .unwrap();
            assert_eq!(rec.parent, 17);
            assert_eq!(rec.trace, 4242);
        });
    }

    #[test]
    fn adopted_context_applies_to_roots_only() {
        with_enabled(|| {
            let ctx = TraceContext::new(909, 5);
            let _g = crate::adopt(ctx);
            let root = span("test.adopt.root");
            assert_eq!(root.trace_id(), 909);
            let spans_before = root.id();
            drop(root);
            let spans = recorder().snapshot();
            let rec = spans.iter().rev().find(|r| r.id == spans_before).unwrap();
            assert_eq!(rec.parent, 5);
            assert_eq!(rec.trace, 909);
        });
    }

    #[test]
    fn complete_span_records_under_context() {
        with_enabled(|| {
            let t0 = Instant::now();
            let ctx = TraceContext::new(31337, 99);
            let id = complete_span("test.complete", ctx, t0, &[("bytes", 64)]);
            assert_ne!(id, 0);
            let spans = recorder().snapshot();
            let rec = spans.iter().rev().find(|r| r.id == id).unwrap();
            assert_eq!(rec.name, "test.complete");
            assert_eq!(rec.trace, 31337);
            assert_eq!(rec.parent, 99);
            assert_eq!(rec.fields, vec![("bytes", 64u64)]);
            assert!(crate::registry().histogram("test.complete").count() >= 1);
        });
    }

    #[test]
    fn disabled_handoff_is_inert() {
        let _g = crate::test_lock();
        crate::enable(false);
        let s = span_with_context("test.handoff.off", TraceContext::new(1, 2));
        assert!(!s.is_recording());
        assert_eq!(s.context(), TraceContext::NONE);
        assert_eq!(
            complete_span("test.off", TraceContext::NONE, Instant::now(), &[]),
            0
        );
    }
}
