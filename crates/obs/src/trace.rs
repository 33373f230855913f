//! Request-scoped distributed tracing: span trees, trace contexts, and
//! the slow-query store.
//!
//! A span is opened with [`crate::span!`] (or [`Registry::span`]) and
//! records if and only if a [`TraceContext`] is installed on the opening
//! thread. The recorded event carries the span name, the wall-clock
//! duration, a wall-clock epoch offset (so spans correlate with external
//! logs), arbitrary named `f64` fields attached by the caller (ledger
//! deltas, predicted/observed costs, row counts), and the
//! trace/span/parent ids that link it into its request's span tree.
//!
//! ## Contexts
//!
//! A server installs a context per request ([`Registry::sample_request`]
//! decides, deterministically from a seed, whether the request is
//! sampled; clients may also supply their own 64-bit trace id, and
//! `explain analyze` forces one with [`Registry::force_trace`]). While a
//! context is installed, every span opened on that thread joins the
//! request's tree: the open span becomes the parent of spans opened
//! under it, and crossing a thread boundary is explicit — capture
//! [`Registry::current_context`] into the job closure and re-install it
//! on the worker ([`Registry::install_context`]).
//!
//! When the **root** span of a trace (the one opened with `parent_span
//! == 0`) completes, the whole tree is finalized into a bounded
//! recent-traces ring; trees whose total duration meets the slow
//! threshold are additionally retained in the slow-query log
//! ([`Registry::slow_traces`]), full span tree included.
//!
//! A span on a thread without a context is inert: one `const`
//! thread-local read, no shared atomic, no clock read, no allocation.

use std::borrow::Cow;
use std::cell::Cell;
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::Ordering;
use std::time::{Instant, SystemTime, UNIX_EPOCH};

use crate::registry::Registry;

/// Most concurrently active (unfinalized) traces retained.
pub const MAX_ACTIVE_TRACES: usize = 128;
/// Most spans retained per trace; later non-root spans are counted as
/// dropped instead (the root always lands, so the trace still closes).
pub const MAX_SPANS_PER_TRACE: usize = 256;
/// Finished-trace ring capacity (the "rest sampled" retention).
pub const FINISHED_TRACES: usize = 64;
/// Slow-query log capacity (threshold-triggered full-tree retention).
pub const SLOW_TRACES: usize = 32;
/// Default slow-query threshold in microseconds.
pub const DEFAULT_SLOW_THRESHOLD_US: f64 = 1000.0;

/// Trace ids are masked to 63 bits so they round-trip through an `i64`
/// procedure argument (`call db.trace(ID)`) without sign surprises.
pub const TRACE_ID_MASK: u64 = (1 << 63) - 1;

/// The request-scoped trace context carried across layers (and, on the
/// v2 wire, across processes): which trace the current work belongs to
/// and which span is the parent of the next span opened. Installing one
/// is what makes spans record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceContext {
    /// 64-bit (63 used) trace id; 0 never occurs in a real context.
    pub trace_id: u64,
    /// Span id the next opened span will attach to (0 = it is the root).
    pub parent_span: u64,
}

impl TraceContext {
    /// A root context for `trace_id` (client-supplied ids land here).
    pub fn root(trace_id: u64) -> TraceContext {
        TraceContext {
            trace_id: (trace_id & TRACE_ID_MASK).max(1),
            parent_span: 0,
        }
    }
}

/// One recorded span.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanEvent {
    /// Span name (e.g. `"access"`, `"recompute"`): always borrowed from
    /// the `span!` site, so recording a span never allocates it.
    pub name: Cow<'static, str>,
    /// Named `f64` fields attached by the instrumented code.
    pub fields: Vec<(&'static str, f64)>,
    /// Wall-clock duration in microseconds.
    pub dur_us: f64,
    /// Trace this span belongs to.
    pub trace_id: u64,
    /// This span's id within the registry (unique, allocation order).
    pub span_id: u64,
    /// Parent span id (0 = root of its trace).
    pub parent_id: u64,
    /// Microseconds since the Unix epoch at span open, for correlating
    /// dumped spans with external logs (the monotone clock only gives
    /// relative durations).
    pub wall_us: u64,
}

impl SpanEvent {
    /// Value of a named field, if attached.
    pub fn field(&self, name: &str) -> Option<f64> {
        self.fields
            .iter()
            .find(|(k, _)| *k == name)
            .map(|(_, v)| *v)
    }

    /// One-line rendering: name, duration, then the attached fields as
    /// ` k=v` pairs (ints without a fraction, everything else with two
    /// decimals).
    pub fn render(&self) -> String {
        let mut out = format!("{} {:.0}us", self.name, self.dur_us);
        for (k, v) in &self.fields {
            if (v.fract()).abs() < 1e-9 && v.abs() < 1e15 {
                out.push_str(&format!(" {k}={}", *v as i64));
            } else {
                out.push_str(&format!(" {k}={v:.2}"));
            }
        }
        out
    }
}

/// A finalized span tree: every span recorded under one trace id, plus
/// the root's totals.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceTree {
    /// The trace id (63-bit, `i64`-safe).
    pub trace_id: u64,
    /// Root span name.
    pub root_name: Cow<'static, str>,
    /// Root span duration in microseconds (the request's total).
    pub total_us: f64,
    /// Epoch microseconds at the root span's open.
    pub wall_us: u64,
    /// Every retained span, in completion order (children before
    /// parents; link them by `parent_id`).
    pub spans: Vec<SpanEvent>,
    /// Spans discarded once the per-trace cap was hit.
    pub dropped: u32,
}

impl TraceTree {
    /// The root span (parent id 0). Present in every finalized tree.
    pub fn root(&self) -> Option<&SpanEvent> {
        self.spans.iter().find(|s| s.parent_id == 0)
    }

    /// Tree depth: the longest root-to-leaf chain (1 = root only).
    pub fn depth(&self) -> usize {
        let mut best = 0;
        for s in &self.spans {
            let mut d = 1;
            let mut cur = s;
            while cur.parent_id != 0 {
                match self.spans.iter().find(|p| p.span_id == cur.parent_id) {
                    Some(p) => {
                        d += 1;
                        cur = p;
                    }
                    None => break, // dropped ancestor
                }
                if d > self.spans.len() {
                    break; // defensive: corrupt links cannot loop forever
                }
            }
            best = best.max(d);
        }
        best
    }

    /// Render the tree, root first, children indented under their
    /// parents in open (span-id) order, with per-span timings and
    /// fields.
    pub fn render(&self) -> String {
        let mut out = format!(
            "trace {} total {:.0}us spans {}{}\n",
            self.trace_id,
            self.total_us,
            self.spans.len(),
            if self.dropped > 0 {
                format!(" (+{} dropped)", self.dropped)
            } else {
                String::new()
            }
        );
        // children[parent_id] -> spans in open order.
        let mut children: HashMap<u64, Vec<&SpanEvent>> = HashMap::new();
        for s in &self.spans {
            children.entry(s.parent_id).or_default().push(s);
        }
        for v in children.values_mut() {
            v.sort_by_key(|s| s.span_id);
        }
        fn walk(
            out: &mut String,
            children: &HashMap<u64, Vec<&SpanEvent>>,
            id: u64,
            depth: usize,
            left: &mut usize,
        ) {
            let Some(kids) = children.get(&id) else {
                return;
            };
            for s in kids {
                if *left == 0 {
                    return;
                }
                *left -= 1;
                out.push_str(&format!(
                    "{:indent$}{}\n",
                    "",
                    s.render(),
                    indent = depth * 2
                ));
                walk(out, children, s.span_id, depth + 1, left);
            }
        }
        let mut left = self.spans.len(); // cycle-proof budget
        walk(&mut out, &children, 0, 1, &mut left);
        // Orphans (ancestor dropped at the cap): rendered flat so the
        // data is never silently hidden.
        let mut seen: Vec<u64> = vec![0];
        for s in &self.spans {
            seen.push(s.span_id);
        }
        for s in &self.spans {
            if !seen.contains(&s.parent_id) {
                out.push_str(&format!("  (orphan) {}\n", s.render()));
            }
        }
        out.trim_end().to_string()
    }
}

/// One active (unfinalized) trace in the store.
#[derive(Debug, Default)]
struct ActiveTrace {
    spans: Vec<SpanEvent>,
    dropped: u32,
}

/// The bounded trace store: active traces accumulate spans until their
/// root completes, then finalize into the recent ring and (over the
/// threshold) the slow-query log.
#[derive(Debug, Default)]
pub(crate) struct TraceStore {
    active: HashMap<u64, ActiveTrace>,
    finished: VecDeque<TraceTree>,
    slow: VecDeque<TraceTree>,
}

impl TraceStore {
    /// Record one span; finalizes the trace when the root arrives.
    fn record(&mut self, event: SpanEvent, slow_threshold_us: f64) {
        let tid = event.trace_id;
        if !self.active.contains_key(&tid) && self.active.len() >= MAX_ACTIVE_TRACES {
            // Too many concurrent traces: shed the whole newcomer rather
            // than hold partial state forever.
            return;
        }
        let root =
            (event.parent_id == 0).then(|| (event.name.clone(), event.dur_us, event.wall_us));
        let t = self.active.entry(tid).or_default();
        if t.spans.len() >= MAX_SPANS_PER_TRACE && root.is_none() {
            t.dropped += 1;
        } else {
            t.spans.push(event);
        }
        if let Some((root_name, total_us, wall_us)) = root {
            let t = self.active.remove(&tid).unwrap_or_default();
            let tree = TraceTree {
                trace_id: tid,
                root_name,
                total_us,
                wall_us,
                spans: t.spans,
                dropped: t.dropped,
            };
            if tree.total_us >= slow_threshold_us {
                if self.slow.len() >= SLOW_TRACES {
                    self.slow.pop_front();
                }
                self.slow.push_back(tree.clone());
            }
            if self.finished.len() >= FINISHED_TRACES {
                self.finished.pop_front();
            }
            self.finished.push_back(tree);
        }
    }
}

thread_local! {
    static CURRENT: Cell<Option<TraceContext>> = const { Cell::new(None) };
}

/// Restores the thread's previous trace context on drop (returned by
/// [`Registry::install_context`]).
pub struct ContextGuard {
    prev: Option<TraceContext>,
}

impl Drop for ContextGuard {
    fn drop(&mut self) {
        CURRENT.with(|c| c.set(self.prev));
    }
}

/// An open span; on drop, records a [`SpanEvent`] into its registry's
/// trace store if it opened under a trace context.
pub struct SpanGuard<'r> {
    active: Option<ActiveSpan<'r>>,
}

struct ActiveSpan<'r> {
    registry: &'r Registry,
    name: &'static str,
    fields: Vec<(&'static str, f64)>,
    start: Instant,
    wall_us: u64,
    trace_id: u64,
    span_id: u64,
    parent_id: u64,
}

impl SpanGuard<'_> {
    /// Attach (or append) a named field. No-op on an inert span.
    pub fn field(&mut self, name: &'static str, value: f64) {
        if let Some(a) = self.active.as_mut() {
            a.fields.push((name, value));
        }
    }

    /// Whether this span is live (a trace context was installed when it
    /// opened).
    pub fn is_recording(&self) -> bool {
        self.active.is_some()
    }
}

/// Microseconds since the Unix epoch right now.
fn epoch_micros() -> u64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_micros() as u64)
        .unwrap_or(0)
}

/// SplitMix64 finalizer: the deterministic id/sampling mixer. Stepping
/// a state by `0x9E37_79B9_7F4A_7C15` per call and mixing the old state
/// yields the standard splitmix64 stream.
pub fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        let Some(a) = self.active.take() else { return };
        let dur_us = a.start.elapsed().as_secs_f64() * 1e6;
        // Re-point the thread's context at this span's parent, so a
        // sibling opened next attaches correctly.
        CURRENT.with(|c| {
            if let Some(mut ctx) = c.get() {
                if ctx.trace_id == a.trace_id {
                    ctx.parent_span = a.parent_id;
                    c.set(Some(ctx));
                }
            }
        });
        let event = SpanEvent {
            name: Cow::Borrowed(a.name),
            fields: a.fields,
            dur_us,
            trace_id: a.trace_id,
            span_id: a.span_id,
            parent_id: a.parent_id,
            wall_us: a.wall_us,
        };
        let threshold = a.registry.slow_threshold_us();
        let mut store = a.registry.traces.lock().unwrap_or_else(|e| e.into_inner());
        store.record(event, threshold);
    }
}

impl Registry {
    /// Set the request sampling rate: 0 disables request tracing, 1
    /// traces every request, `n` traces one request in `n`
    /// (deterministically, from the seeded request ordinal).
    pub fn set_trace_sample(&self, n: u64) {
        self.trace_sample.store(n, Ordering::Relaxed);
    }

    /// The current sampling rate (0 = request tracing off).
    pub fn trace_sample(&self) -> u64 {
        self.trace_sample.load(Ordering::Relaxed)
    }

    /// Seed the deterministic sampler / trace-id generator.
    pub fn set_trace_seed(&self, seed: u64) {
        self.trace_seed.store(seed, Ordering::Relaxed);
    }

    /// Slow-query threshold in microseconds: a finalized trace whose
    /// root took at least this long is retained, full tree included.
    pub fn slow_threshold_us(&self) -> f64 {
        f64::from_bits(self.slow_threshold_us.load(Ordering::Relaxed))
    }

    /// Change the slow-query threshold (microseconds; 0 retains every
    /// sampled trace).
    pub fn set_slow_threshold_us(&self, us: f64) {
        self.slow_threshold_us
            .store(us.max(0.0).to_bits(), Ordering::Relaxed);
    }

    /// Per-request sampling decision: `None` when the request is not
    /// traced, `Some(root context)` when it is. Deterministic in the
    /// seed and the request ordinal.
    pub fn sample_request(&self) -> Option<TraceContext> {
        let n = self.trace_sample.load(Ordering::Relaxed);
        if n == 0 {
            return None;
        }
        let k = self.trace_counter.fetch_add(1, Ordering::Relaxed);
        let seed = self.trace_seed.load(Ordering::Relaxed);
        let h = splitmix64(seed ^ k);
        if n > 1 && !h.is_multiple_of(n) {
            return None;
        }
        Some(TraceContext::root(splitmix64(h ^ 0xA5A5_5A5A_DEAD_BEEF)))
    }

    /// A fresh root context, bypassing the sampler (`explain analyze`
    /// uses this).
    pub fn force_trace(&self) -> TraceContext {
        let k = self.trace_counter.fetch_add(1, Ordering::Relaxed);
        let seed = self.trace_seed.load(Ordering::Relaxed);
        TraceContext::root(splitmix64(seed ^ k ^ 0x5EED_F0F0_0D15_EA5E))
    }

    /// The calling thread's context as a child-capture: what a job
    /// closure should carry to another thread so spans opened there
    /// link under the span currently open here.
    pub fn current_context(&self) -> Option<TraceContext> {
        CURRENT.with(Cell::get)
    }

    /// Install `ctx` as the calling thread's trace context; the guard
    /// restores the previous context (usually none) on drop.
    pub fn install_context(&self, ctx: TraceContext) -> ContextGuard {
        let prev = CURRENT.with(|c| c.replace(Some(ctx)));
        ContextGuard { prev }
    }

    /// Open a span (prefer the [`crate::span!`] macro). Inert unless a
    /// trace context is installed on this thread; under one, the span
    /// joins the request's tree and becomes the parent of spans opened
    /// beneath it on this thread.
    pub fn span(&self, name: &'static str) -> SpanGuard<'_> {
        let Some(ctx) = CURRENT.with(Cell::get) else {
            return SpanGuard { active: None };
        };
        let span_id = self.span_ids.fetch_add(1, Ordering::Relaxed) + 1;
        CURRENT.with(|c| {
            c.set(Some(TraceContext {
                parent_span: span_id,
                ..ctx
            }))
        });
        SpanGuard {
            active: Some(ActiveSpan {
                registry: self,
                name,
                fields: Vec::new(),
                start: Instant::now(),
                wall_us: epoch_micros(),
                trace_id: ctx.trace_id,
                span_id,
                parent_id: ctx.parent_span,
            }),
        }
    }

    /// The retained slow-query trees, oldest first.
    pub fn slow_traces(&self) -> Vec<TraceTree> {
        let store = self.traces.lock().unwrap_or_else(|e| e.into_inner());
        store.slow.iter().cloned().collect()
    }

    /// The most recent finalized traces (slow or not), oldest first.
    pub fn finished_traces(&self) -> Vec<TraceTree> {
        let store = self.traces.lock().unwrap_or_else(|e| e.into_inner());
        store.finished.iter().cloned().collect()
    }

    /// Look one finalized trace up by id (slow log first, then the
    /// recent ring).
    pub fn find_trace(&self, trace_id: u64) -> Option<TraceTree> {
        let store = self.traces.lock().unwrap_or_else(|e| e.into_inner());
        store
            .slow
            .iter()
            .rev()
            .find(|t| t.trace_id == trace_id)
            .or_else(|| store.finished.iter().rev().find(|t| t.trace_id == trace_id))
            .cloned()
    }

    /// Drop every finalized and in-flight trace.
    pub fn clear_traces(&self) {
        let mut store = self.traces.lock().unwrap_or_else(|e| e.into_inner());
        store.active.clear();
        store.finished.clear();
        store.slow.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_record_only_when_tracing() {
        let r = Registry::new();
        r.set_trace_sample(1);
        {
            let s = crate::span!(r, "quiet", proc = 1);
            assert!(!s.is_recording(), "no context installed");
        }
        assert!(
            r.finished_traces().is_empty(),
            "a context-free span records nothing"
        );
        let ctx = r.force_trace();
        {
            let _g = r.install_context(ctx);
            let mut s = crate::span!(r, "access", proc = 3);
            s.field("observed_ms", 42.5);
        }
        let spans = r.find_trace(ctx.trace_id).expect("recorded").spans;
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].name, "access");
        assert_eq!(spans[0].field("proc"), Some(3.0));
        assert_eq!(spans[0].field("observed_ms"), Some(42.5));
        assert_eq!(spans[0].trace_id, ctx.trace_id);
        assert!(spans[0].wall_us > 0, "wall clock recorded");
    }

    #[test]
    fn render_is_compact() {
        let e = SpanEvent {
            name: "access".into(),
            fields: vec![("proc", 2.0), ("observed_ms", 90.5)],
            dur_us: 123.4,
            trace_id: 1,
            span_id: 0,
            parent_id: 0,
            wall_us: 0,
        };
        let s = e.render();
        assert_eq!(s, "access 123us proc=2 observed_ms=90.50");
    }

    #[test]
    fn installed_context_links_spans_into_one_tree() {
        let r = Registry::new();
        let ctx = r.force_trace();
        let tid = ctx.trace_id;
        {
            let _g = r.install_context(ctx);
            let _root = crate::span!(r, "wire.request");
            {
                let _child = crate::span!(r, "session.access");
                {
                    let _leaf = crate::span!(r, "pager.read");
                }
                let _leaf2 = crate::span!(r, "pager.read");
            }
            let _sibling = crate::span!(r, "wal.append");
        }
        let tree = r.find_trace(tid).expect("root drop finalizes the tree");
        assert_eq!(tree.spans.len(), 5);
        assert_eq!(tree.root().unwrap().name, "wire.request");
        let root_id = tree.root().unwrap().span_id;
        let by_name = |n: &str| tree.spans.iter().find(|s| s.name == n).unwrap().clone();
        let sess = by_name("session.access");
        assert_eq!(sess.parent_id, root_id);
        assert_eq!(
            by_name("wal.append").parent_id,
            root_id,
            "sibling re-attaches"
        );
        for s in tree.spans.iter().filter(|s| s.name == "pager.read") {
            assert_eq!(s.parent_id, sess.span_id);
        }
        assert_eq!(tree.depth(), 3);
        assert!(tree.render().contains("wire.request"), "{}", tree.render());
    }

    #[test]
    fn context_crosses_threads_by_explicit_capture() {
        let r = std::sync::Arc::new(Registry::new());
        let ctx = r.force_trace();
        let tid = ctx.trace_id;
        {
            let _g = r.install_context(ctx);
            let _root = crate::span!(r, "wire.request");
            let captured = r.current_context().expect("context installed");
            assert_eq!(captured.trace_id, tid);
            assert_ne!(captured.parent_span, 0, "root span is the parent now");
            let r2 = r.clone();
            std::thread::spawn(move || {
                let _g = r2.install_context(captured);
                let _w = crate::span!(r2, "shard.worker", shard = 1);
            })
            .join()
            .unwrap();
        }
        let tree = r.find_trace(tid).unwrap();
        let worker = tree
            .spans
            .iter()
            .find(|s| s.name == "shard.worker")
            .unwrap();
        let root = tree.root().unwrap();
        assert_eq!(worker.trace_id, tid);
        assert_eq!(worker.parent_id, root.span_id);
    }

    #[test]
    fn sampling_is_deterministic_and_ratioed() {
        let r = Registry::new();
        r.set_trace_seed(42);
        r.set_trace_sample(4);
        let picks: Vec<bool> = (0..64).map(|_| r.sample_request().is_some()).collect();
        let r2 = Registry::new();
        r2.set_trace_seed(42);
        r2.set_trace_sample(4);
        let picks2: Vec<bool> = (0..64).map(|_| r2.sample_request().is_some()).collect();
        assert_eq!(picks, picks2, "same seed, same decisions");
        let hits = picks.iter().filter(|p| **p).count();
        assert!(
            hits > 0 && hits < 64,
            "1-in-4 sampling is neither none nor all"
        );
        r.set_trace_sample(0);
        assert!(r.sample_request().is_none());
    }

    #[test]
    fn slow_threshold_gates_the_slow_log() {
        let r = Registry::new();
        r.set_slow_threshold_us(1e9); // nothing is that slow
        {
            let _g = r.install_context(r.force_trace());
            let _root = crate::span!(r, "fast");
        }
        assert_eq!(r.slow_traces().len(), 0);
        assert_eq!(r.finished_traces().len(), 1, "still in the recent ring");
        r.set_slow_threshold_us(0.0); // everything is slow
        let ctx = r.force_trace();
        {
            let _g = r.install_context(ctx);
            let _root = crate::span!(r, "slow");
        }
        let slow = r.slow_traces();
        assert_eq!(slow.len(), 1);
        assert_eq!(slow[0].trace_id, ctx.trace_id);
        assert_eq!(slow[0].root_name, "slow");
        r.clear_traces();
        assert!(r.slow_traces().is_empty() && r.finished_traces().is_empty());
    }

    #[test]
    fn trace_ids_fit_in_i64_and_caps_hold() {
        let r = Registry::new();
        for _ in 0..200 {
            let ctx = r.force_trace();
            assert!(ctx.trace_id <= TRACE_ID_MASK && ctx.trace_id > 0);
            let _g = r.install_context(ctx);
            let _root = crate::span!(r, "op");
        }
        assert!(r.finished_traces().len() <= FINISHED_TRACES);
        assert!(r.slow_traces().len() <= SLOW_TRACES);
    }

    #[test]
    fn span_cap_drops_excess_but_keeps_the_root() {
        let r = Registry::new();
        r.set_slow_threshold_us(0.0);
        let ctx = r.force_trace();
        {
            let _g = r.install_context(ctx);
            let _root = crate::span!(r, "root");
            for _ in 0..(MAX_SPANS_PER_TRACE + 50) {
                let _leaf = crate::span!(r, "leaf");
            }
        }
        let tree = r.find_trace(ctx.trace_id).unwrap();
        assert!(tree.root().is_some(), "root always retained");
        assert_eq!(tree.spans.len(), MAX_SPANS_PER_TRACE + 1);
        assert_eq!(tree.dropped as usize, 50);
    }
}
