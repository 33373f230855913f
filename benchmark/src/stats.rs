//! Order statistics over latency samples and repetition values.

/// Nearest-rank percentile of an ascending slice: the smallest sample with
/// at least a fraction `q` of the samples at or below it. `None` on an
/// empty slice.
pub fn percentile(sorted: &[f64], q: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// The tail percentile the sample supports: p99 when at least ten samples
/// lie beyond it, otherwise the highest rank that still leaves ten beyond,
/// and never below the median.
pub fn tail(sorted: &[f64]) -> Option<f64> {
    let n = sorted.len();
    let p99_rank = (0.99 * n as f64).ceil() as usize;
    let supported = n.saturating_sub(10).max(n.div_ceil(2));
    sorted.get(p99_rank.min(supported).checked_sub(1)?).copied()
}

/// Median (mean of the middle two for an even count). `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => None,
        n if n % 2 == 1 => Some(v[n / 2]),
        n => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// (exclusive method) gives them. `None` below two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 2 {
        return None;
    }
    let cut = |i: usize| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    Some((cut(1), cut(3)))
}

/// Interquartile range as a share of the median: the run-to-run spread the
/// bounds in `BENCHMARK.json` are compared with.
pub fn spread(values: &[f64]) -> Option<f64> {
    let (q1, q3) = quartiles(values)?;
    let m = median(values)?;
    (m != 0.0).then(|| (q3 - q1) / m.abs())
}

/// Median, minimum, maximum and count of one metric's repetition values.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    /// Median of the repetitions: the reported value.
    pub median: f64,
    /// Smallest repetition.
    pub min: f64,
    /// Largest repetition.
    pub max: f64,
    /// Samples behind the metric, summed over the repetitions.
    pub samples: usize,
    /// The repetitions, in the order they ran.
    pub reps: Vec<f64>,
}

impl Summary {
    /// Summarize `values` (one per repetition); `None` when empty.
    pub fn of(values: &[f64], samples: usize) -> Option<Summary> {
        Some(Summary {
            median: median(values)?,
            min: values.iter().copied().fold(f64::INFINITY, f64::min),
            max: values.iter().copied().fold(f64::NEG_INFINITY, f64::max),
            samples,
            reps: values.to_vec(),
        })
    }
}
