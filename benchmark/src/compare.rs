//! `procbench compare A B`: judge result file B against result file A
//! with the benchmark's own bounds, one row per workload.
//!
//! A result file holds one record per line (`run --json PATH` appends
//! them), any number of runs per workload. A metric whose run-to-run
//! spread exceeds its bound is reported as *unresolved*, never as
//! unchanged. `--pairs` applies the alternating-pairs rule of the
//! `choosing-metrics` guide before it calls a difference a gain.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::json::Json;
use crate::stats::{median, quartiles, spread};
use crate::{BenchSpec, MetricSpec};

/// Fewest pairs `--pairs` accepts.
pub const MIN_PAIRS: usize = 10;

/// One metric of one run: its value and the spread of the run's
/// repetitions as a share of it (their interquartile range when the record
/// lists them, else their full range, else 0).
#[derive(Debug, Clone, Copy, PartialEq)]
struct Sample {
    value: f64,
    rep_spread: f64,
}

/// workload → metric → one sample per run, in file order.
type Runs = BTreeMap<String, BTreeMap<String, Vec<Sample>>>;

fn load(text: &str) -> Result<Runs, String> {
    let mut runs = Runs::new();
    for (i, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let record = Json::parse(line).map_err(|e| format!("line {}: {e}", i + 1))?;
        if record.get("trace").and_then(Json::as_f64) != Some(0.0) {
            continue;
        }
        let workload = record
            .get("workload")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("line {}: no workload", i + 1))?;
        let metrics = record
            .get("metrics")
            .and_then(Json::as_obj)
            .ok_or_else(|| format!("line {}: no metrics", i + 1))?;
        for (name, m) in metrics {
            let field = |key| m.get(key).and_then(Json::as_f64);
            let value =
                field("value").ok_or_else(|| format!("line {}: {name} has no value", i + 1))?;
            let reps: Option<Vec<f64>> = m
                .get("reps")
                .and_then(Json::as_arr)
                .map(|r| r.iter().filter_map(Json::as_f64).collect());
            let rep_spread = match (reps.and_then(|r| spread(&r)), field("min"), field("max")) {
                (Some(iqr), _, _) => iqr,
                (None, Some(lo), Some(hi)) if value != 0.0 => (hi - lo) / value.abs(),
                _ => 0.0,
            };
            runs.entry(workload.to_string())
                .or_default()
                .entry(name.clone())
                .or_default()
                .push(Sample { value, rep_spread });
        }
    }
    Ok(runs)
}

/// Verdict on one (metric, workload) pairing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Within the bound either way.
    Unchanged,
    /// Worse than A by more than the bound.
    Regressed,
    /// Better than A by more than the bound (and, under `--pairs`, by the
    /// pairs rule).
    Improved,
    /// The spread between runs exceeds the bound: no verdict.
    Unresolved,
}

/// Spread of one side: between runs when there are several, otherwise
/// between the single run's repetitions.
fn side_spread(samples: &[Sample]) -> f64 {
    let values: Vec<f64> = samples.iter().map(|s| s.value).collect();
    spread(&values).unwrap_or_else(|| samples.iter().map(|s| s.rep_spread).fold(0.0, f64::max))
}

/// How much worse B's median is than A's, as a share of A's.
fn worsening(spec: &MetricSpec, a: f64, b: f64) -> f64 {
    if spec.lower_is_better {
        (b - a) / a.abs()
    } else {
        (a - b) / a.abs()
    }
}

fn judge(spec: &MetricSpec, a: &[Sample], b: &[Sample], pairs: bool) -> (f64, Verdict, String) {
    let values = |s: &[Sample]| s.iter().map(|x| x.value).collect::<Vec<f64>>();
    let (va, vb) = (values(a), values(b));
    let (ma, mb) = (
        median(&va).expect("caller checked non-empty"),
        median(&vb).expect("caller checked non-empty"),
    );
    let bound = spec.bound.unwrap_or(0.0);
    let change = (mb - ma) / ma.abs();
    let noise = side_spread(a).max(side_spread(b));
    if noise > bound {
        let note = format!("spread {:.1}% > bound {:.0}%", noise * 100.0, bound * 100.0);
        return (change, Verdict::Unresolved, note);
    }
    let worse = worsening(spec, ma, mb);
    if worse > bound {
        return (change, Verdict::Regressed, String::new());
    }
    if worse >= -bound {
        return (change, Verdict::Unchanged, String::new());
    }
    if !pairs {
        return (change, Verdict::Improved, String::new());
    }
    // The pairs rule: B wins nine tenths of the decided pairs, and the
    // medians differ by more than the distance between A's quartiles.
    let (mut wins, mut decided) = (0, 0);
    for (x, y) in va.iter().zip(&vb) {
        if x != y {
            decided += 1;
            wins += usize::from(worsening(spec, *x, *y) < 0.0);
        }
    }
    let iqr = quartiles(&va).map_or(0.0, |(q1, q3)| q3 - q1);
    let note = format!("B wins {wins}/{decided} pairs, A's IQR {iqr:.3}");
    if wins * 10 >= decided * 9 && (mb - ma).abs() > iqr {
        (change, Verdict::Improved, note)
    } else {
        (change, Verdict::Unchanged, format!("no gain shown: {note}"))
    }
}

/// Compare the runs in `b` with those in `a`. Returns the report and
/// whether any pairing regressed.
pub fn compare(spec: &BenchSpec, a: &str, b: &str, pairs: bool) -> Result<(String, bool), String> {
    let (a, b) = (load(a)?, load(b)?);
    let mut out = format!("{:<22}", "workload");
    for m in &spec.end_to_end {
        let _ = write!(out, " {:<24}", m.name);
    }
    out.push('\n');
    let mut notes = Vec::new();
    let mut regressed = false;
    for (workload, _) in &spec.workloads {
        let (Some(ra), Some(rb)) = (a.get(workload), b.get(workload)) else {
            continue;
        };
        let _ = write!(out, "{workload:<22}");
        for m in &spec.end_to_end {
            let (Some(sa), Some(sb)) = (ra.get(&m.name), rb.get(&m.name)) else {
                let _ = write!(out, " {:<24}", "missing");
                continue;
            };
            if pairs && (sa.len() != sb.len() || sa.len() < MIN_PAIRS) {
                return Err(format!(
                    "--pairs needs the same number of runs on both sides, at least {MIN_PAIRS}: \
                     {workload} has {} and {}",
                    sa.len(),
                    sb.len()
                ));
            }
            let (change, verdict, note) = judge(m, sa, sb, pairs);
            regressed |= verdict == Verdict::Regressed;
            let word = match verdict {
                Verdict::Unchanged => "unchanged",
                Verdict::Regressed => "REGRESSED",
                Verdict::Improved => "improved",
                Verdict::Unresolved => "unresolved",
            };
            let _ = write!(out, " {:<24}", format!("{:+.1}% {word}", change * 100.0));
            if !note.is_empty() {
                notes.push(format!("  {workload} {}: {note}", m.name));
            }
        }
        out.push('\n');
    }
    if !notes.is_empty() {
        out.push_str("notes:\n");
        out.push_str(&notes.join("\n"));
        out.push('\n');
    }
    Ok((out, regressed))
}
