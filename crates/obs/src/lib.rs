//! # procdb-obs
//!
//! Unified observability for the `procdb` reproduction of Hanson
//! (SIGMOD 1988): a lock-cheap metrics registry and request-scoped span
//! tracing, shared by the engine, the storage substrate, and the server.
//!
//! ## Metrics
//!
//! [`Registry`] hands out [`Counter`], [`FloatCounter`], [`Gauge`], and
//! [`Histogram`] handles keyed by `(name, labels)`. Registration takes a
//! mutex once; the handles themselves are `Arc`-wrapped atomics, so the
//! hot path is a single relaxed `fetch_add` — instrumentation stays
//! cheap enough to leave on permanently. [`Registry::render_prometheus`]
//! emits the whole registry in the Prometheus text exposition format.
//!
//! Histograms use fixed log-scale (powers-of-two) buckets, so a latency
//! distribution costs 32 atomics, not a sample vector.
//!
//! ## Spans and request traces
//!
//! [`span!`] opens a [`SpanGuard`] that records the span's wall-clock
//! duration and any number of named `f64` fields (ledger deltas,
//! predicted costs) — if and only if a [`TraceContext`] is installed on
//! its thread. A server installs one per sampled request
//! ([`Registry::sample_request`], [`Registry::install_context`]);
//! `explain analyze` and client-supplied trace ids install one
//! unconditionally. Every span opened under a context — across layers
//! and, via explicit capture, across worker threads — links into one
//! span tree ([`TraceTree`]) in the registry's single trace store.
//! Trees whose total latency crosses the slow-query threshold are
//! retained in full ([`Registry::slow_traces`]); the rest cycle through
//! a bounded recent ring ([`Registry::finished_traces`],
//! [`Registry::find_trace`]). Without a context a span is one `const`
//! thread-local read — the hot path never pays for dormant tracing.
//!
//! ## Deadlines
//!
//! [`install_deadline`] propagates a request's absolute deadline down
//! the stack through a thread-local (captured explicitly across worker
//! pools, like trace contexts), so the shard layer can turn an
//! exhausted budget into a typed `DEADLINE` error instead of queueing
//! behind a slow shard.
//!
//! The crate is dependency-free (std only) so every other `procdb` crate
//! can instrument itself against [`global()`] without dependency cycles.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod deadline;
pub mod registry;
pub mod trace;

pub use deadline::{
    current_deadline, deadline_expired, deadline_remaining, install_deadline, yield_then_block,
    DeadlineGuard,
};
pub use registry::{Counter, FloatCounter, Gauge, Histogram, MetricValue, Registry, Sample};
pub use trace::{splitmix64, ContextGuard, SpanEvent, SpanGuard, TraceContext, TraceTree};

use std::sync::OnceLock;

/// The process-global registry: every crate's built-in instrumentation
/// records here, and the server's `metrics` command renders it.
pub fn global() -> &'static Registry {
    static GLOBAL: OnceLock<Registry> = OnceLock::new();
    GLOBAL.get_or_init(Registry::new)
}

/// Open a span on a registry: `span!(reg, "access", proc = i)`.
///
/// Every `key = value` pair after the name becomes an `f64` field on the
/// recorded event (values are cast with `as f64`). The span ends when
/// the returned [`SpanGuard`] drops; add late fields (observed costs,
/// row counts) with [`SpanGuard::field`] before then.
#[macro_export]
macro_rules! span {
    ($reg:expr, $name:expr $(, $key:ident = $val:expr)* $(,)?) => {{
        #[allow(unused_mut)]
        let mut __span = $reg.span($name);
        $(__span.field(stringify!($key), $val as f64);)*
        __span
    }};
}
