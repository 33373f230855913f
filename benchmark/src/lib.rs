//! # procbench
//!
//! The benchmark of `procdb`: four named workloads driven over real TCP
//! against an in-process `procdb_server::Server`, with every answer
//! checked. It touches no code outside `benchmark/`: each layer is
//! measured from outside, by timing calls into the crates' public
//! functions and by reading the counters they already export.
//!
//! `BENCHMARK.json` at the root of the repository names the workloads and
//! metrics; it is compiled in, so the binary and the contract cannot
//! drift apart.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod compare;
pub mod json;
pub mod layers;
pub mod report;
pub mod rig;
pub mod rng;
pub mod run;
pub mod stats;
pub mod workload;

use json::Json;

/// One metric `BENCHMARK.json` names.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricSpec {
    /// Metric name.
    pub name: String,
    /// Unit.
    pub unit: String,
    /// Is a lower value better?
    pub lower_is_better: bool,
    /// Share of the parent's median by which the metric may worsen
    /// (end-to-end metrics only).
    pub bound: Option<f64>,
}

/// The benchmark's contract, parsed from `BENCHMARK.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchSpec {
    /// Measured seconds of a default run.
    pub run_seconds: f64,
    /// `(name, why)` of every workload.
    pub workloads: Vec<(String, String)>,
    /// Client-observed metrics, with bounds.
    pub end_to_end: Vec<MetricSpec>,
    /// Single-layer metrics, without bounds.
    pub per_layer: Vec<MetricSpec>,
}

impl BenchSpec {
    /// The contract this binary was built against.
    pub fn load() -> Result<BenchSpec, String> {
        BenchSpec::parse(include_str!("../../BENCHMARK.json"))
    }

    /// Parse a `BENCHMARK.json` document.
    pub fn parse(text: &str) -> Result<BenchSpec, String> {
        let doc = Json::parse(text)?;
        let list = |key: &str| {
            doc.get(key)
                .and_then(Json::as_arr)
                .ok_or_else(|| format!("BENCHMARK.json: no {key} list"))
        };
        let text_of = |item: &Json, key: &str| {
            item.get(key)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("BENCHMARK.json: entry without {key}"))
        };
        let metrics = |key: &str| -> Result<Vec<MetricSpec>, String> {
            list(key)?
                .iter()
                .map(|m| {
                    Ok(MetricSpec {
                        name: text_of(m, "name")?,
                        unit: text_of(m, "unit")?,
                        lower_is_better: text_of(m, "better")? == "lower",
                        bound: m.get("bound").and_then(Json::as_f64),
                    })
                })
                .collect()
        };
        Ok(BenchSpec {
            run_seconds: doc
                .get("run_seconds")
                .and_then(Json::as_f64)
                .ok_or("BENCHMARK.json: no run_seconds")?,
            workloads: list("workloads")?
                .iter()
                .map(|w| Ok((text_of(w, "name")?, text_of(w, "why")?)))
                .collect::<Result<_, String>>()?,
            end_to_end: metrics("end_to_end")?,
            per_layer: metrics("per_layer")?,
        })
    }
}
