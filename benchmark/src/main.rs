//! `ffsbench`: paper-scale, per-layer, repeatable benchmark for the FFS
//! aging simulator.
//!
//! ```text
//! ffsbench run [--workload NAME|all] [--seed S] [--seconds N] [--trace 0|1] [--out DIR]
//! ffsbench compare A B
//! ffsbench benchmark-json | catalog
//! ```
//!
//! `run` measures each workload in a fresh child process (a re-exec of
//! this binary), so `peak_rss_mb` is per workload and whatever the
//! harness prints on its own standard output is discarded. It prints
//! one `workload metric value unit` line per metric, writes
//! `<out>/<workload>.json`, ends its standard output with the one-line
//! JSON object the driver reads, and exits non-zero if a correctness
//! check failed. With `--trace 1` it runs the layer suite instead (see
//! `layers.rs`). See README.md for everything else.

mod catalog;
mod common;
mod compare;
mod json;
mod layers;
mod refs;
mod replayloop;
mod runner;
mod stats;
mod trace;
mod workloads;

use std::path::Path;
use std::process::{Command, ExitCode, Stdio};

use catalog::{DEFAULT_SEED, END_TO_END, EXACT, PER_LAYER, RUN_SECONDS, WORKLOADS};
use json::Value;
use runner::RunArgs;

const USAGE: &str = "usage: ffsbench run [--workload NAME|all] [--seed S] [--seconds N] \
                     [--trace 0|1] [--out DIR]\n       ffsbench compare A B\n       \
                     ffsbench benchmark-json | catalog";

struct Cli {
    args: RunArgs,
    trace: bool,
}

fn parse_run(argv: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        args: RunArgs {
            workload: "all".into(),
            seed: DEFAULT_SEED,
            seconds: RUN_SECONDS,
            out: "bench-results".into(),
        },
        trace: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => cli.args.workload = value()?.clone(),
            "--seed" => cli.args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                cli.args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => {
                cli.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--out" => cli.args.out = value()?.clone(),
            other => return Err(format!("unknown argument {other:?}\n{USAGE}")),
        }
    }
    if cli.args.workload != "all" && !WORKLOADS.iter().any(|w| w.name == cli.args.workload) {
        let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        return Err(format!(
            "unknown workload {:?}; one of: all, {}",
            cli.args.workload,
            names.join(", ")
        ));
    }
    Ok(cli)
}

/// The child's half of `run`: measure one workload (or the layer suite)
/// and leave the result file behind.
fn worker(argv: &[String]) -> Result<(), String> {
    let cli = parse_run(argv)?;
    if cli.trace {
        layers::run_traced(&cli.args)
    } else {
        runner::run_untraced(&cli.args)
    }
}

/// Runs one workload in a child process and prints its result file.
fn run_one(cli: &Cli, workload: &str) -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let status = Command::new(exe)
        .arg("worker")
        .args(["--workload", workload])
        .args(["--seed", &cli.args.seed.to_string()])
        .args(["--seconds", &cli.args.seconds.to_string()])
        .args(["--trace", if cli.trace { "1" } else { "0" }])
        .args(["--out", &cli.args.out])
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("spawn worker: {e}"))?;
    if !status.success() {
        return Err(format!("{workload}: worker ended with {status}"));
    }
    let file = if cli.trace {
        format!("{workload}.layers.json")
    } else {
        format!("{workload}.json")
    };
    let path = Path::new(&cli.args.out).join(file);
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let doc = Value::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    print_result(workload, &doc, cli.trace)
}

/// Prints the human lines and, last, the driver's JSON line.
fn print_result(workload: &str, doc: &Value, trace: bool) -> Result<(), String> {
    let metrics = doc.get("metrics").ok_or("result file has no metrics")?;
    let names: Vec<&str> = if trace {
        PER_LAYER.iter().map(|m| m.name).collect()
    } else {
        END_TO_END.iter().map(|m| m.name).collect()
    };
    let mut line = Vec::new();
    for name in names {
        let m = metrics
            .get(name)
            .ok_or_else(|| format!("{workload}: result file lacks {name}"))?;
        let value = m
            .get("median")
            .and_then(Value::as_f64)
            .ok_or_else(|| format!("{workload}: {name} has no value"))?;
        let unit = m.get("unit").and_then(Value::as_str).unwrap_or("");
        println!("{workload} {name} {value} {unit}");
        line.push((
            name.to_string(),
            Value::Obj(vec![
                ("value".into(), Value::Num(value)),
                ("unit".into(), Value::Str(unit.into())),
            ]),
        ));
    }
    if let Some(exact) = doc.get("exact").and_then(Value::as_obj) {
        for (name, v) in exact {
            let unit = EXACT.iter().find(|e| e.0 == name).map_or("", |e| e.1);
            println!("{workload} {name} {v} {unit}");
        }
    }
    if let Some(fp) = doc.get("sim_fingerprint").and_then(Value::as_str) {
        println!("{workload} sim_fingerprint {fp}");
    }
    let field = |k: &str| {
        doc.get(k)
            .cloned()
            .ok_or_else(|| format!("result file lacks {k}"))
    };
    println!(
        "{}",
        Value::Obj(vec![
            ("correct".into(), field("correct")?),
            ("attempted".into(), field("attempted")?),
            ("failed".into(), field("failed")?),
            ("metrics".into(), Value::Obj(line)),
        ])
    );
    Ok(())
}

fn run(argv: &[String]) -> Result<(), String> {
    let cli = parse_run(argv)?;
    // The layer suite measures every layer whatever the workload, so
    // "all" traced is one suite run, not six.
    if cli.args.workload != "all" || cli.trace {
        return run_one(&cli, &cli.args.workload);
    }
    let mut failures = Vec::new();
    for w in WORKLOADS {
        if let Err(e) = run_one(&cli, w.name) {
            eprintln!("ffsbench: {e}");
            failures.push(w.name);
        }
    }
    if failures.is_empty() {
        Ok(())
    } else {
        Err(format!("failed workloads: {}", failures.join(", ")))
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let result = match argv.first().map(String::as_str) {
        Some("run") => run(&argv[1..]),
        Some("worker") => worker(&argv[1..]),
        Some("compare") => match &argv[1..] {
            [a, b] => compare::compare(Path::new(a), Path::new(b)),
            _ => Err(USAGE.to_string()),
        },
        Some("benchmark-json") => {
            print!("{}", catalog::benchmark_json());
            Ok(())
        }
        Some("catalog") => {
            print!("{}", catalog::markdown());
            Ok(())
        }
        _ => Err(USAGE.to_string()),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("ffsbench: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn the_drivers_arguments_parse() {
        let cli = parse_run(&argv(
            "--workload fleet-jobs --seed 7 --seconds 3 --trace 1",
        ))
        .unwrap();
        assert_eq!(cli.args.workload, "fleet-jobs");
        assert_eq!((cli.args.seed, cli.args.seconds, cli.trace), (7, 3, true));
        assert_eq!(cli.args.out, "bench-results");
    }

    #[test]
    fn defaults_are_all_workloads_at_the_experiments_seed() {
        let cli = parse_run(&[]).unwrap();
        assert_eq!(cli.args.workload, "all");
        assert_eq!(cli.args.seed, DEFAULT_SEED);
        assert_eq!(cli.args.seconds, RUN_SECONDS);
        assert!(!cli.trace);
    }

    #[test]
    fn bad_arguments_are_refused() {
        for bad in [
            "--workload nope",
            "--trace yes",
            "--trace",
            "--seed x",
            "--seconds -1",
            "--reps 5",
        ] {
            assert!(parse_run(&argv(bad)).is_err(), "{bad}");
        }
    }

    #[test]
    fn the_drivers_line_carries_exactly_the_catalogued_metrics() {
        let metric = |v: f64| {
            Value::Obj(vec![
                ("unit".into(), Value::Str("x".into())),
                ("median".into(), Value::Num(v)),
            ])
        };
        let doc = |names: Vec<&str>| {
            Value::Obj(vec![
                ("correct".into(), Value::Bool(true)),
                ("attempted".into(), Value::Num(10.0)),
                ("failed".into(), Value::Num(0.0)),
                (
                    "metrics".into(),
                    Value::Obj(names.iter().map(|n| (n.to_string(), metric(1.5))).collect()),
                ),
            ])
        };
        let all: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
        assert!(print_result("w", &doc(all.clone()), false).is_ok());
        // A result file missing a catalogued metric is an error, not a
        // shorter line.
        assert!(print_result("w", &doc(all[1..].to_vec()), false).is_err());
        assert!(print_result("w", &doc(all), true).is_err());
    }
}
