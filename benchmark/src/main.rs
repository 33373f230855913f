//! `procbench`: run the workloads, trace them, compare result files.

use std::collections::BTreeMap;
use std::process::ExitCode;

use procbench::report::{append_line, history_path, nproc, Measured, Record};
use procbench::run::Settings;
use procbench::workload::{by_name, Workload, CLIENTS, WORKLOADS};
use procbench::{compare, layers, run, BenchSpec};

const USAGE: &str = "\
usage: procbench run [--workload NAME] [--seed N] [--seconds S] [--reps R]
                     [--clients C] [--trace 0|1] [--record] [--json PATH]
       procbench trace [run's options]        -- run --trace 1
       procbench compare A.json B.json [--pairs]

run prints every metric by name with its unit, then one JSON result line.
Without --reps the measured seconds are split into two-second repetitions;
every end-to-end value is the median of the repetitions.
--trace 0 (default) measures the end-to-end metrics over TCP with tracing
off; --trace 1 performs the traced run and reports the per-layer metrics.
--record appends the run to benchmark/history.jsonl; --json PATH appends
the full record to PATH (the input of compare).";

struct RunArgs {
    workloads: Vec<&'static Workload>,
    settings: Settings,
    traced: bool,
    record: bool,
    json: Option<String>,
}

fn parse_run_args(args: &[String], spec: &BenchSpec, traced: bool) -> Result<RunArgs, String> {
    let mut out = RunArgs {
        workloads: WORKLOADS.iter().collect(),
        settings: Settings {
            seed: 1,
            seconds: spec.run_seconds,
            reps: 0,
            clients: CLIENTS,
        },
        traced,
        record: false,
        json: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value"))
                .map(String::as_str)
        };
        fn num<T: std::str::FromStr>(flag: &str, v: &str) -> Result<T, String> {
            v.parse().map_err(|_| format!("{flag}: bad value {v:?}"))
        }
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                let w = by_name(name).ok_or_else(|| format!("unknown workload {name:?}"))?;
                out.workloads = vec![w];
            }
            "--seed" => out.settings.seed = num(flag, value()?)?,
            "--seconds" | "--secs" => out.settings.seconds = num(flag, value()?)?,
            "--reps" => out.settings.reps = num(flag, value()?)?,
            "--clients" => out.settings.clients = num(flag, value()?)?,
            "--trace" => out.traced = num::<u8>(flag, value()?)? != 0,
            "--record" => out.record = true,
            "--json" => out.json = Some(value()?.to_string()),
            other => return Err(format!("unknown option {other:?}")),
        }
    }
    let s = &mut out.settings;
    if s.reps == 0 {
        // Two-second repetitions: the sandbox's speed drifts in bursts of a
        // second or so, and the median of many short repetitions shrugs
        // off more of them than the median of a few long ones, while two
        // seconds still hold enough updates of the read-heavy workloads
        // for a percentile.
        s.reps = ((s.seconds / 2.0).round() as usize).max(1);
    }
    if s.seconds.is_nan() || s.seconds <= 0.0 || s.clients == 0 {
        return Err("--seconds and --clients must be positive".to_string());
    }
    if s.clients > nproc() {
        return Err(format!(
            "--clients {} exceeds nproc = {}: the generator would measure its own queueing",
            s.clients,
            nproc()
        ));
    }
    Ok(out)
}

fn run_one(w: &Workload, args: &RunArgs, spec: &BenchSpec) -> Result<bool, String> {
    let (metrics, attempted, failed, problems): (BTreeMap<String, Measured>, _, _, _) =
        if args.traced {
            let out = layers::run(w, args.settings.seed, args.settings.seconds)?;
            println!("spans written to {}", out.trace_file.display());
            let metrics = out.metrics.into_iter().map(|(name, value)| {
                let measured = Measured {
                    value,
                    detail: None,
                };
                (name, measured)
            });
            (metrics.collect(), out.attempted, out.failed, out.problems)
        } else {
            let out = run::run(w, &args.settings)?;
            let metrics = out.metrics.into_iter().map(|(n, s)| (n, s.into()));
            (metrics.collect(), out.attempted, out.failed, out.problems)
        };
    for problem in &problems {
        eprintln!("procbench: {}: {problem}", w.name);
    }
    let record = Record {
        workload: w.name.to_string(),
        traced: args.traced,
        settings: args.settings,
        correct: failed == 0,
        attempted,
        failed,
        metrics,
    };
    let specs = if args.traced {
        &spec.per_layer
    } else {
        &spec.end_to_end
    };
    let result = record.result_line(specs)?;
    print!("{}", record.table(specs));
    if args.record || args.json.is_some() {
        let full = record.full(specs).render();
        if args.record && !args.traced {
            append_line(&history_path(), &full)?;
        }
        if let Some(path) = &args.json {
            append_line(std::path::Path::new(path), &full)?;
        }
    }
    println!("{result}");
    Ok(record.correct)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = (|| -> Result<bool, String> {
        let spec = BenchSpec::load()?;
        match args.first().map(String::as_str) {
            Some(cmd @ ("run" | "trace")) => {
                let run_args = parse_run_args(&args[1..], &spec, cmd == "trace")?;
                if let [w] = run_args.workloads.as_slice() {
                    return run_one(w, &run_args, &spec);
                }
                // Every workload in a process of its own, the way the driver
                // runs them: `peak_rss_mb` is a high-water mark of the whole
                // process and would carry over from one workload to the next.
                let exe = std::env::current_exe().map_err(|e| e.to_string())?;
                let mut all_correct = true;
                for w in &run_args.workloads {
                    let status = std::process::Command::new(&exe)
                        .args(&args)
                        .args(["--workload", w.name])
                        .status()
                        .map_err(|e| format!("run {}: {e}", w.name))?;
                    match status.code() {
                        Some(0) => {}
                        Some(1) => all_correct = false,
                        _ => return Err(format!("{}: run failed ({status})", w.name)),
                    }
                }
                Ok(all_correct)
            }
            Some("compare") => {
                let pairs = args[1..].iter().any(|a| a == "--pairs");
                let files: Vec<&String> = args[1..].iter().filter(|a| *a != "--pairs").collect();
                let [a, b] = files.as_slice() else {
                    return Err(USAGE.to_string());
                };
                let read = |p: &String| std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"));
                let (report, regressed) = compare::compare(&spec, &read(a)?, &read(b)?, pairs)?;
                print!("{report}");
                Ok(!regressed)
            }
            _ => Err(USAGE.to_string()),
        }
    })();
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(message) => {
            eprintln!("procbench: {message}");
            ExitCode::from(2)
        }
    }
}
