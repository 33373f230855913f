//! Run records: the result line the driver reads, the richer record that
//! result files and `history.jsonl` keep, and the table a person reads.

use std::collections::BTreeMap;
use std::io::Write;

use crate::json::Json;
use crate::run::Settings;
use crate::stats::Summary;
use crate::MetricSpec;

/// Append-only history: one line per (commit, workload, seed).
pub fn history_path() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("history.jsonl")
}

/// The checked-out commit, read from `.git` beside the benchmark (the
/// driver's checkout has none: `unknown`).
pub fn commit() -> String {
    let git = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../.git");
    let read = |p: std::path::PathBuf| std::fs::read_to_string(p).ok();
    let Some(head) = read(git.join("HEAD")) else {
        return "unknown".to_string();
    };
    let Some(reference) = head.trim().strip_prefix("ref: ") else {
        return head.trim().to_string();
    };
    read(git.join(reference))
        .map(|hash| hash.trim().to_string())
        .or_else(|| {
            read(git.join("packed-refs"))?.lines().find_map(|l| {
                l.strip_suffix(reference)
                    .map(|hash| hash.trim().to_string())
            })
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// `rustc --version` of the toolchain on the path, or `unknown`.
pub fn rustc_version() -> String {
    std::process::Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Cores the process may use.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// One metric value of a run, as records keep it.
#[derive(Debug, Clone, PartialEq)]
pub struct Measured {
    /// The reported value (median of the repetitions).
    pub value: f64,
    /// Smallest and largest repetition and the sample count, when the
    /// metric has repetitions.
    pub detail: Option<Summary>,
}

impl From<Summary> for Measured {
    fn from(s: Summary) -> Measured {
        Measured {
            value: s.median,
            detail: Some(s),
        }
    }
}

/// Everything one run produced.
pub struct Record {
    /// Workload name.
    pub workload: String,
    /// Traced run (per-layer metrics) or not (end-to-end metrics).
    pub traced: bool,
    /// Run settings.
    pub settings: Settings,
    /// Did every answer and the gate check out?
    pub correct: bool,
    /// Operations attempted.
    pub attempted: usize,
    /// Operations failed.
    pub failed: usize,
    /// Metric values by name.
    pub metrics: BTreeMap<String, Measured>,
}

impl Record {
    /// The driver's result line: exactly `correct`, `attempted`, `failed`
    /// and `metrics`, the metrics in `specs` order with their units.
    pub fn result_line(&self, specs: &[MetricSpec]) -> Result<String, String> {
        let metrics = specs
            .iter()
            .map(|spec| {
                let m = self
                    .metrics
                    .get(&spec.name)
                    .filter(|m| m.value.is_finite())
                    .ok_or_else(|| format!("metric {} was not measured", spec.name))?;
                Ok((
                    spec.name.clone(),
                    Json::obj([
                        ("value", Json::Num(m.value)),
                        ("unit", Json::Str(spec.unit.clone())),
                    ]),
                ))
            })
            .collect::<Result<Vec<_>, String>>()?;
        Ok(Json::obj([
            ("correct", Json::Bool(self.correct)),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("metrics", Json::Obj(metrics)),
        ])
        .render())
    }

    /// The full record: the result plus commit, seed, settings, machine
    /// and each metric's min/max/sample count.
    pub fn full(&self, specs: &[MetricSpec]) -> Json {
        let metrics = specs
            .iter()
            .filter_map(|spec| {
                let m = self.metrics.get(&spec.name)?;
                let mut fields = vec![
                    ("value".to_string(), Json::Num(m.value)),
                    ("unit".to_string(), Json::Str(spec.unit.clone())),
                ];
                if let Some(d) = &m.detail {
                    fields.push(("min".to_string(), Json::Num(d.min)));
                    fields.push(("max".to_string(), Json::Num(d.max)));
                    fields.push(("samples".to_string(), Json::Num(d.samples as f64)));
                    let reps = d.reps.iter().map(|v| Json::Num(*v)).collect();
                    fields.push(("reps".to_string(), Json::Arr(reps)));
                }
                Some((spec.name.clone(), Json::Obj(fields)))
            })
            .collect();
        Json::obj([
            ("commit", Json::Str(commit())),
            ("workload", Json::Str(self.workload.clone())),
            ("seed", Json::Num(self.settings.seed as f64)),
            ("trace", Json::Num(f64::from(u8::from(self.traced)))),
            ("seconds", Json::Num(self.settings.seconds)),
            ("reps", Json::Num(self.settings.reps as f64)),
            ("clients", Json::Num(self.settings.clients as f64)),
            ("nproc", Json::Num(nproc() as f64)),
            ("rustc", Json::Str(rustc_version())),
            ("correct", Json::Bool(self.correct)),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("metrics", Json::Obj(metrics)),
        ])
    }

    /// The table a person reads: one metric per line, by name, with unit.
    pub fn table(&self, specs: &[MetricSpec]) -> String {
        let mut out = format!(
            "{} seed {} ({}): {} attempted, {} failed, {}\n",
            self.workload,
            self.settings.seed,
            if self.traced { "traced" } else { "untraced" },
            self.attempted,
            self.failed,
            if self.correct { "correct" } else { "INCORRECT" },
        );
        for spec in specs {
            let Some(m) = self.metrics.get(&spec.name) else {
                continue;
            };
            out.push_str(&format!(
                "  {:<32} {:>14.3} {}",
                spec.name, m.value, spec.unit
            ));
            if let Some(d) = m.detail.as_ref().filter(|d| d.samples > 1) {
                out.push_str(&format!(
                    "  (min {:.3}, max {:.3}, {} samples)",
                    d.min, d.max, d.samples
                ));
            }
            out.push('\n');
        }
        out
    }
}

/// Append `line` to the file at `path`, creating it if needed. Nothing
/// ever rewrites these files.
pub fn append_line(path: &std::path::Path, line: &str) -> Result<(), String> {
    let mut file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
        .map_err(|e| format!("open {}: {e}", path.display()))?;
    writeln!(file, "{line}").map_err(|e| format!("write {}: {e}", path.display()))
}
