//! The benchmark meets its own contract: `BENCHMARK.json` and the workload
//! table agree, every run reports every named metric with its unit and
//! passes the correctness gate, and `compare` applies the bounds.

use std::collections::BTreeMap;
use std::process::Command;

use procbench::compare::compare;
use procbench::json::Json;
use procbench::report::{Measured, Record};
use procbench::run::Settings;
use procbench::workload::WORKLOADS;
use procbench::{BenchSpec, MetricSpec};

fn spec() -> BenchSpec {
    BenchSpec::load().expect("BENCHMARK.json parses")
}

#[test]
fn benchmark_json_names_the_workload_table() {
    let spec = spec();
    let named: Vec<&str> = spec.workloads.iter().map(|(n, _)| n.as_str()).collect();
    let table: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    assert_eq!(named, table);
    for (name, why) in &spec.workloads {
        assert!(
            !why.is_empty() && why.len() <= 200 && !why.contains('\n'),
            "{name}"
        );
    }
    assert!((1.0..=60.0).contains(&spec.run_seconds) && spec.run_seconds.fract() == 0.0);
    let setup = spec
        .end_to_end
        .iter()
        .find(|m| m.name == "setup_s")
        .unwrap();
    assert!(setup.unit == "s" && setup.lower_is_better);
    let widest = spec
        .end_to_end
        .iter()
        .filter_map(|m| m.bound)
        .fold(0.0, f64::max);
    assert_eq!(setup.bound, Some(widest), "setup_s has the largest bound");
    for m in &spec.end_to_end {
        assert!(m.bound.is_some_and(|b| b > 0.0 && b <= 0.25), "{}", m.name);
    }
    assert!(!spec.per_layer.is_empty());
    assert!(spec.per_layer.iter().all(|m| m.bound.is_none()));
}

fn record(metrics: &[(&str, f64)]) -> Record {
    Record {
        workload: "hot_reads_cached".to_string(),
        traced: false,
        settings: Settings {
            seed: 1,
            seconds: 1.0,
            reps: 1,
            clients: 1,
        },
        correct: true,
        attempted: 10,
        failed: 0,
        metrics: metrics
            .iter()
            .map(|(n, v)| {
                let measured = Measured {
                    value: *v,
                    detail: None,
                };
                (n.to_string(), measured)
            })
            .collect::<BTreeMap<_, _>>(),
    }
}

#[test]
fn result_line_has_exactly_the_contract_keys() {
    let specs = [MetricSpec {
        name: "latency_ms".to_string(),
        unit: "ms".to_string(),
        lower_is_better: true,
        bound: Some(0.1),
    }];
    let line = record(&[("latency_ms", 1.2034), ("extra", 9.0)])
        .result_line(&specs)
        .unwrap();
    assert_eq!(
        line,
        r#"{"correct": true, "attempted": 10, "failed": 0, "metrics": {"latency_ms": {"value": 1.2034, "unit": "ms"}}}"#
    );
    assert!(
        record(&[]).result_line(&specs).is_err(),
        "a missing metric is an error"
    );
    assert!(record(&[("latency_ms", f64::NAN)])
        .result_line(&specs)
        .is_err());
}

/// Run the built binary; return its exit code and the parsed last line.
fn procbench(args: &[&str]) -> (i32, Json) {
    let out = Command::new(env!("CARGO_BIN_EXE_procbench"))
        .args(args)
        .output()
        .expect("procbench runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().unwrap_or_default();
    let stderr = String::from_utf8_lossy(&out.stderr);
    let result = Json::parse(last).unwrap_or_else(|e| panic!("{e}: {last:?}\n{stderr}"));
    (out.status.code().unwrap_or(-1), result)
}

fn assert_result(result: &Json, specs: &[MetricSpec], context: &str) {
    let keys: Vec<&str> = result
        .as_obj()
        .unwrap()
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(
        keys,
        ["correct", "attempted", "failed", "metrics"],
        "{context}"
    );
    assert_eq!(result.get("correct"), Some(&Json::Bool(true)), "{context}");
    assert_eq!(
        result.get("failed").and_then(Json::as_f64),
        Some(0.0),
        "{context}"
    );
    assert!(
        result.get("attempted").and_then(Json::as_f64).unwrap() >= 1.0,
        "{context}"
    );
    let metrics = result.get("metrics").and_then(Json::as_obj).unwrap();
    let names: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
    let wanted: Vec<&str> = specs.iter().map(|m| m.name.as_str()).collect();
    assert_eq!(names, wanted, "{context}");
    for (spec, (_, m)) in specs.iter().zip(metrics) {
        assert_eq!(
            m.get("unit").and_then(Json::as_str),
            Some(spec.unit.as_str())
        );
        let value = m.get("value").and_then(Json::as_f64);
        assert!(
            value.is_some_and(f64::is_finite),
            "{context}: {}",
            spec.name
        );
    }
}

/// A one-second, one-repetition smoke of every workload passes the
/// correctness gate and reports every end-to-end metric, never zero.
#[test]
fn every_workload_passes_the_gate_untraced() {
    let spec = spec();
    for w in &WORKLOADS {
        let (code, result) = procbench(&[
            "run",
            "--workload",
            w.name,
            "--seed",
            "3",
            "--secs",
            "1",
            "--reps",
            "1",
            "--trace",
            "0",
        ]);
        assert_eq!(code, 0, "{}", w.name);
        assert_result(&result, &spec.end_to_end, w.name);
        for (name, m) in result.get("metrics").and_then(Json::as_obj).unwrap() {
            assert!(
                m.get("value").and_then(Json::as_f64).unwrap() > 0.0,
                "{}: {name}",
                w.name
            );
        }
    }
}

/// The traced run of every workload reports every per-layer metric, and
/// its in-process bodies equal the TCP bodies (a mismatch counts as
/// failed).
#[test]
fn every_workload_passes_the_gate_traced() {
    let spec = spec();
    for w in &WORKLOADS {
        let (code, result) = procbench(&[
            "run",
            "--workload",
            w.name,
            "--seed",
            "3",
            "--seconds",
            "1",
            "--trace",
            "1",
        ]);
        assert_eq!(code, 0, "{}", w.name);
        assert_result(&result, &spec.per_layer, w.name);
    }
}

#[test]
fn more_clients_than_cores_are_refused() {
    let out = Command::new(env!("CARGO_BIN_EXE_procbench"))
        .args(["run", "--workload", "hot_reads_cached", "--clients", "4096"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty(), "no result is printed");
    assert!(String::from_utf8_lossy(&out.stderr).contains("exceeds nproc"));
}

/// A contract with one bounded metric, so the verdicts below do not move
/// when `BENCHMARK.json` retunes a bound.
fn ten_percent_spec() -> BenchSpec {
    BenchSpec::parse(
        r#"{"run_seconds": 1,
            "workloads": [{"name": "hot_reads_cached", "why": "x"}, {"name": "recompute_scan", "why": "y"}],
            "end_to_end": [{"name": "ops_per_s", "unit": "1/s", "better": "higher", "bound": 0.1}],
            "per_layer": []}"#,
    )
    .unwrap()
}

/// One result-file line for `ops_per_s` (higher is better, bound 10 %).
fn run_line(workload: &str, ops_per_s: f64, min: f64, max: f64) -> String {
    format!(
        r#"{{"workload": "{workload}", "trace": 0, "metrics": {{"ops_per_s": {{"value": {ops_per_s}, "unit": "1/s", "min": {min}, "max": {max}, "samples": 5}}}}}}"#
    )
}

#[test]
fn compare_applies_the_bounds_and_reports_noise_as_unresolved() {
    let spec = ten_percent_spec();
    let a = run_line("hot_reads_cached", 1000.0, 990.0, 1010.0);
    let verdict = |b: &str| {
        let (report, regressed) = compare(&spec, &a, b, false).unwrap();
        let row = report.lines().nth(1).unwrap().to_string();
        (row, regressed)
    };
    let (row, regressed) = verdict(&run_line("hot_reads_cached", 950.0, 940.0, 960.0));
    assert!(row.contains("-5.0% unchanged") && !regressed, "{row}");
    let (row, regressed) = verdict(&run_line("hot_reads_cached", 850.0, 840.0, 860.0));
    assert!(row.contains("-15.0% REGRESSED") && regressed, "{row}");
    let (row, regressed) = verdict(&run_line("hot_reads_cached", 1200.0, 1190.0, 1210.0));
    assert!(row.contains("+20.0% improved") && !regressed, "{row}");
    // Repetitions 30 % apart: wider than the bound, so no verdict.
    let (row, regressed) = verdict(&run_line("hot_reads_cached", 850.0, 700.0, 955.0));
    assert!(row.contains("unresolved") && !regressed, "{row}");
}

#[test]
fn compare_pairs_needs_ten_pairs_and_nine_wins_in_ten() {
    let spec = ten_percent_spec();
    let runs = |values: &[f64]| -> String {
        values
            .iter()
            .map(|v| run_line("recompute_scan", *v, *v, *v))
            .collect::<Vec<_>>()
            .join("\n")
    };
    let a: Vec<f64> = (0..10).map(|i| 1000.0 + f64::from(i)).collect();
    assert!(compare(&spec, &runs(&a[..3]), &runs(&a[..3]), true).is_err());
    let better: Vec<f64> = a.iter().map(|v| v * 1.2).collect();
    let (report, _) = compare(&spec, &runs(&a), &runs(&better), true).unwrap();
    assert!(report.contains("+20.0% improved"), "{report}");
    assert!(report.contains("B wins 10/10 pairs"), "{report}");
    // Same medians, but B wins only 8 of 10 pairs: no gain shown.
    let mut mixed = better.clone();
    mixed[0] = 900.0;
    mixed[1] = 900.0;
    let (report, _) = compare(&spec, &runs(&a), &runs(&mixed), true).unwrap();
    assert!(
        report.contains("unchanged") && report.contains("no gain shown"),
        "{report}"
    );
}
