//! The metrics registry: labeled counters, gauges, and log-scale
//! histograms behind `Arc`-atomic handles, with Prometheus text
//! exposition.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// A monotonically increasing integer counter.
#[derive(Debug, Clone, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Add one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Add `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A monotonically increasing `f64` counter (for accumulated model
/// milliseconds and other fractional totals). The value is stored as
/// `f64` bits in an `AtomicU64` and added with a CAS loop — still
/// lock-free, slightly dearer than [`Counter`].
#[derive(Debug, Clone, Default)]
pub struct FloatCounter(Arc<AtomicU64>);

impl FloatCounter {
    /// Add `v` (negative, zero, and NaN values are ignored: counters
    /// only go up).
    pub fn add(&self, v: f64) {
        if v.is_nan() || v <= 0.0 {
            return;
        }
        let mut cur = self.0.load(Ordering::Relaxed);
        loop {
            let next = (f64::from_bits(cur) + v).to_bits();
            match self
                .0
                .compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed)
            {
                Ok(_) => return,
                Err(seen) => cur = seen,
            }
        }
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }
}

/// A settable `f64` gauge.
#[derive(Debug, Clone, Default)]
pub struct Gauge(Arc<AtomicU64>);

impl Gauge {
    /// Set the gauge.
    pub fn set(&self, v: f64) {
        self.0.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }
}

/// Number of finite histogram buckets (the last bucket is `+Inf`).
pub const HISTOGRAM_BUCKETS: usize = 28;

/// Upper bound of finite bucket `i`: `2^i` (in the metric's own unit).
fn bucket_bound(i: usize) -> f64 {
    (1u64 << i) as f64
}

#[derive(Debug)]
struct HistogramInner {
    /// `buckets[i]` counts observations `<= 2^i`; one extra for `+Inf`.
    buckets: [AtomicU64; HISTOGRAM_BUCKETS + 1],
    count: AtomicU64,
    sum: FloatCounter,
}

/// A fixed-bucket log-scale histogram: powers-of-two boundaries from 1
/// to 2^27 in the metric's natural unit (microseconds for latencies,
/// dimensionless for ratios), plus `+Inf`.
#[derive(Debug, Clone)]
pub struct Histogram(Arc<HistogramInner>);

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram(Arc::new(HistogramInner {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: FloatCounter::default(),
        }))
    }
}

impl Histogram {
    /// Record one observation.
    pub fn observe(&self, v: f64) {
        if !v.is_finite() {
            return;
        }
        let idx = if v <= 1.0 {
            0
        } else {
            (v.log2().ceil() as usize).min(HISTOGRAM_BUCKETS)
        };
        self.0.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.0.count.fetch_add(1, Ordering::Relaxed);
        self.0.sum.add(v.max(0.0));
    }

    /// Total observations.
    pub fn count(&self) -> u64 {
        self.0.count.load(Ordering::Relaxed)
    }

    /// Sum of all observations.
    pub fn sum(&self) -> f64 {
        self.0.sum.get()
    }

    /// Mean observation (`NaN`-free: 0 when empty).
    pub fn mean(&self) -> f64 {
        let n = self.count();
        if n == 0 {
            0.0
        } else {
            self.sum() / n as f64
        }
    }

    /// Per-bucket (non-cumulative) counts, finite buckets then `+Inf`.
    pub fn bucket_counts(&self) -> Vec<u64> {
        self.0
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect()
    }
}

#[derive(Debug, Clone)]
enum Metric {
    Counter(Counter),
    FloatCounter(FloatCounter),
    Gauge(Gauge),
    Histogram(Histogram),
}

impl Metric {
    fn kind(&self) -> &'static str {
        match self {
            Metric::Counter(_) | Metric::FloatCounter(_) => "counter",
            Metric::Gauge(_) => "gauge",
            Metric::Histogram(_) => "histogram",
        }
    }
}

/// `(name, sorted labels)` — the registry key.
type Key = (String, Vec<(String, String)>);

/// A flattened metric reading (for tests and JSON export).
#[derive(Debug, Clone, PartialEq)]
pub struct Sample {
    /// Metric name.
    pub name: String,
    /// Label pairs, sorted by key.
    pub labels: Vec<(String, String)>,
    /// The reading.
    pub value: MetricValue,
}

/// The value of one metric in a [`Sample`].
#[derive(Debug, Clone, PartialEq)]
pub enum MetricValue {
    /// Integer counter value.
    Counter(u64),
    /// Float counter or gauge value.
    Float(f64),
    /// Histogram `(count, sum)`.
    Histogram(u64, f64),
}

/// The metrics registry plus the request-trace store (see
/// [`crate::trace`]): one span store, one sampling switch. Handle
/// creation locks a mutex; recording through a handle is lock-free.
#[derive(Debug)]
pub struct Registry {
    metrics: Mutex<BTreeMap<Key, Metric>>,
    /// Request sampling rate: 0 off, 1 every request, n one-in-n.
    pub(crate) trace_sample: AtomicU64,
    /// Seed for the deterministic sampler and trace-id generator.
    pub(crate) trace_seed: AtomicU64,
    /// Request ordinal fed to the sampler.
    pub(crate) trace_counter: AtomicU64,
    /// Span-id allocator (ids are unique per registry, never 0).
    pub(crate) span_ids: AtomicU64,
    /// Slow-query threshold, microseconds as `f64` bits.
    pub(crate) slow_threshold_us: AtomicU64,
    pub(crate) traces: Mutex<crate::trace::TraceStore>,
}

impl Default for Registry {
    fn default() -> Registry {
        Registry {
            metrics: Mutex::default(),
            trace_sample: AtomicU64::new(0),
            trace_seed: AtomicU64::new(0),
            trace_counter: AtomicU64::new(0),
            span_ids: AtomicU64::new(0),
            slow_threshold_us: AtomicU64::new(crate::trace::DEFAULT_SLOW_THRESHOLD_US.to_bits()),
            traces: Mutex::default(),
        }
    }
}

fn key(name: &str, labels: &[(&str, &str)]) -> Key {
    let mut l: Vec<(String, String)> = labels
        .iter()
        .map(|(k, v)| (k.to_string(), v.to_string()))
        .collect();
    l.sort();
    (name.to_string(), l)
}

impl Registry {
    /// An empty registry with request sampling off.
    pub fn new() -> Registry {
        Registry::default()
    }

    fn get_or_insert<T: Clone>(
        &self,
        name: &str,
        labels: &[(&str, &str)],
        make: impl FnOnce() -> Metric,
        pick: impl FnOnce(&Metric) -> Option<T>,
    ) -> T {
        let mut metrics = self.metrics.lock().unwrap_or_else(|e| e.into_inner());
        let m = metrics.entry(key(name, labels)).or_insert_with(make);
        pick(m).unwrap_or_else(|| {
            panic!("metric {name} already registered as a {}", m.kind());
        })
    }

    /// Get or register a counter.
    pub fn counter(&self, name: &str, labels: &[(&str, &str)]) -> Counter {
        self.get_or_insert(
            name,
            labels,
            || Metric::Counter(Counter::default()),
            |m| match m {
                Metric::Counter(c) => Some(c.clone()),
                _ => None,
            },
        )
    }

    /// Get or register a float counter.
    pub fn float_counter(&self, name: &str, labels: &[(&str, &str)]) -> FloatCounter {
        self.get_or_insert(
            name,
            labels,
            || Metric::FloatCounter(FloatCounter::default()),
            |m| match m {
                Metric::FloatCounter(c) => Some(c.clone()),
                _ => None,
            },
        )
    }

    /// Get or register a gauge.
    pub fn gauge(&self, name: &str, labels: &[(&str, &str)]) -> Gauge {
        self.get_or_insert(
            name,
            labels,
            || Metric::Gauge(Gauge::default()),
            |m| match m {
                Metric::Gauge(g) => Some(g.clone()),
                _ => None,
            },
        )
    }

    /// Get or register a histogram.
    pub fn histogram(&self, name: &str, labels: &[(&str, &str)]) -> Histogram {
        self.get_or_insert(
            name,
            labels,
            || Metric::Histogram(Histogram::default()),
            |m| match m {
                Metric::Histogram(h) => Some(h.clone()),
                _ => None,
            },
        )
    }

    /// Flatten every metric into a [`Sample`] list (sorted by name, then
    /// labels — the registry's natural order).
    pub fn samples(&self) -> Vec<Sample> {
        let metrics = self.metrics.lock().unwrap_or_else(|e| e.into_inner());
        metrics
            .iter()
            .map(|((name, labels), m)| Sample {
                name: name.clone(),
                labels: labels.clone(),
                value: match m {
                    Metric::Counter(c) => MetricValue::Counter(c.get()),
                    Metric::FloatCounter(c) => MetricValue::Float(c.get()),
                    Metric::Gauge(g) => MetricValue::Float(g.get()),
                    Metric::Histogram(h) => MetricValue::Histogram(h.count(), h.sum()),
                },
            })
            .collect()
    }

    /// Render the whole registry in the Prometheus text exposition
    /// format (`# TYPE` headers, `_bucket`/`_sum`/`_count` histogram
    /// series with cumulative `le` buckets).
    pub fn render_prometheus(&self) -> String {
        let metrics = self.metrics.lock().unwrap_or_else(|e| e.into_inner());
        let mut out = String::new();
        let mut last_name = "";
        for ((name, labels), m) in metrics.iter() {
            if name != last_name {
                out.push_str(&format!("# TYPE {name} {}\n", m.kind()));
            }
            match m {
                Metric::Counter(c) => {
                    out.push_str(&format!(
                        "{name}{} {}\n",
                        render_labels(labels, None),
                        c.get()
                    ));
                }
                Metric::FloatCounter(c) => {
                    out.push_str(&format!(
                        "{name}{} {}\n",
                        render_labels(labels, None),
                        c.get()
                    ));
                }
                Metric::Gauge(g) => {
                    out.push_str(&format!(
                        "{name}{} {}\n",
                        render_labels(labels, None),
                        g.get()
                    ));
                }
                Metric::Histogram(h) => {
                    let counts = h.bucket_counts();
                    let mut cum = 0u64;
                    for (i, c) in counts.iter().enumerate() {
                        cum += c;
                        let le = if i < HISTOGRAM_BUCKETS {
                            format!("{}", bucket_bound(i))
                        } else {
                            "+Inf".to_string()
                        };
                        out.push_str(&format!(
                            "{name}_bucket{} {cum}\n",
                            render_labels(labels, Some(&le))
                        ));
                    }
                    out.push_str(&format!(
                        "{name}_sum{} {}\n",
                        render_labels(labels, None),
                        h.sum()
                    ));
                    out.push_str(&format!(
                        "{name}_count{} {}\n",
                        render_labels(labels, None),
                        h.count()
                    ));
                }
            }
            last_name = name;
        }
        out
    }
}

fn render_labels(labels: &[(String, String)], le: Option<&str>) -> String {
    if labels.is_empty() && le.is_none() {
        return String::new();
    }
    let mut parts: Vec<String> = labels
        .iter()
        .map(|(k, v)| format!("{k}=\"{}\"", escape_label(v)))
        .collect();
    if let Some(le) = le {
        parts.push(format!("le=\"{le}\""));
    }
    format!("{{{}}}", parts.join(","))
}

fn escape_label(v: &str) -> String {
    v.replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_identity_by_name_and_labels() {
        let r = Registry::new();
        let a = r.counter("requests_total", &[("op", "read")]);
        let b = r.counter("requests_total", &[("op", "read")]);
        let c = r.counter("requests_total", &[("op", "write")]);
        a.inc();
        b.add(2);
        c.inc();
        assert_eq!(a.get(), 3, "same key shares one cell");
        assert_eq!(c.get(), 1);
    }

    #[test]
    fn float_counter_accumulates_and_ignores_nonpositive() {
        let f = FloatCounter::default();
        f.add(1.5);
        f.add(2.5);
        f.add(-10.0);
        f.add(f64::NAN);
        assert_eq!(f.get(), 4.0);
    }

    #[test]
    fn gauge_sets() {
        let r = Registry::new();
        let g = r.gauge("hit_ratio", &[]);
        g.set(0.75);
        assert_eq!(g.get(), 0.75);
        g.set(0.5);
        assert_eq!(g.get(), 0.5);
    }

    #[test]
    fn histogram_buckets_are_log_scale() {
        let h = Histogram::default();
        h.observe(0.5); // bucket 0 (le 1)
        h.observe(1.0); // bucket 0
        h.observe(3.0); // le 4 → bucket 2
        h.observe(1e12); // overflow → +Inf
        let counts = h.bucket_counts();
        assert_eq!(counts[0], 2);
        assert_eq!(counts[2], 1);
        assert_eq!(counts[HISTOGRAM_BUCKETS], 1);
        assert_eq!(h.count(), 4);
        assert!((h.sum() - (0.5 + 1.0 + 3.0 + 1e12)).abs() < 1.0);
        h.observe(f64::NAN); // dropped, not a poison value
        assert_eq!(h.count(), 4);
    }

    #[test]
    fn histogram_mean_empty_is_zero_not_nan() {
        let h = Histogram::default();
        assert_eq!(h.mean(), 0.0);
        h.observe(4.0);
        h.observe(6.0);
        assert_eq!(h.mean(), 5.0);
    }

    #[test]
    fn prometheus_rendering_shape() {
        let r = Registry::new();
        r.counter("procdb_ops_total", &[("strategy", "avm")]).add(7);
        r.gauge("procdb_hit_ratio", &[]).set(0.5);
        let h = r.histogram("procdb_latency_us", &[("op", "access")]);
        h.observe(3.0);
        h.observe(100.0);
        let text = r.render_prometheus();
        assert!(text.contains("# TYPE procdb_ops_total counter"), "{text}");
        assert!(
            text.contains("procdb_ops_total{strategy=\"avm\"} 7"),
            "{text}"
        );
        assert!(text.contains("# TYPE procdb_hit_ratio gauge"), "{text}");
        assert!(text.contains("procdb_hit_ratio 0.5"), "{text}");
        assert!(
            text.contains("# TYPE procdb_latency_us histogram"),
            "{text}"
        );
        assert!(
            text.contains("procdb_latency_us_bucket{op=\"access\",le=\"4\"} 1"),
            "{text}"
        );
        assert!(
            text.contains("procdb_latency_us_bucket{op=\"access\",le=\"+Inf\"} 2"),
            "{text}"
        );
        assert!(
            text.contains("procdb_latency_us_count{op=\"access\"} 2"),
            "{text}"
        );
        // Cumulative buckets are monotone: the 128-bucket already holds both.
        assert!(
            text.contains("procdb_latency_us_bucket{op=\"access\",le=\"128\"} 2"),
            "{text}"
        );
    }

    #[test]
    fn samples_flatten_sorted() {
        let r = Registry::new();
        r.counter("b_total", &[]).inc();
        r.counter("a_total", &[("x", "2")]).add(2);
        let s = r.samples();
        assert_eq!(s[0].name, "a_total");
        assert_eq!(s[0].value, MetricValue::Counter(2));
        assert_eq!(s[1].name, "b_total");
    }

    #[test]
    fn label_escaping() {
        let r = Registry::new();
        r.counter("esc_total", &[("v", "a\"b\\c")]).inc();
        let text = r.render_prometheus();
        assert!(text.contains("esc_total{v=\"a\\\"b\\\\c\"} 1"), "{text}");
    }
}
