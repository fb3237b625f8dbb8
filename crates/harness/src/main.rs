//! Experiment harness: regenerates every table and figure of the paper.
//!
//! Usage:
//!
//! ```text
//! harness <experiment>|all|report [--days N] [--seed S] [--out DIR]
//!         [--jobs N] [--cache-dir DIR] [--no-cache] [--metrics PATH]
//!         [-q|--quiet] [--profile] [--chaos-kill NAME]
//!         [--shards N] [--fleet-seed S]
//! ```
//!
//! where `<experiment>` is one of `table1`, `fig1`, `fig2`, `fig3`,
//! `fig4`, `fig5`, `fig6`, `table2`, `freespace`, `profiles`,
//! `sweep`, `pareto`, or `smallfile`; any other command is a usage
//! error. `<out>` defaults to `harness-results/` (`fleet-results/` for
//! `fleet`); the committed goldens in `results/` change only under an
//! explicit `--out results`. Experiments run as jobs on the `exp`
//! engine's worker pool; aged file systems are cached under
//! `<out>/cache` (override with `--cache-dir`, disable with
//! `--no-cache`). Each exhibit prints its
//! tab-separated block to stdout and writes it to
//! `<out>/<experiment>.tsv`; every run also writes
//! structured per-job records to `<out>/runs.jsonl`, which
//! `harness report` summarizes. A rerun over the same cache is the
//! resume: it reloads every aging that finished and recomputes the rest.
//!
//! `--metrics PATH` turns on the observability layer for the run and
//! writes the captured counters, histograms (seek distances, realloc
//! window sizes, free-extent lengths, ...), and span profile to `PATH`
//! as `metrics.json`. The exhibits' bytes are identical with or without
//! it. `-q`/`--quiet` silences the per-experiment progress lines on
//! stderr without changing any output file.
//!
//! `report` summarizes `<out>/runs.jsonl` (wall time, cache outcome and
//! replayed operations per job); `report --profile` additionally
//! renders the span profile from `<out>/metrics.json` (or the
//! `--metrics` path). It writes no file. Throughput is measured by
//! `ffsbench` (`benchmark/README.md`), not here.
//!
//! `smallfile` ages the small-file profile family (news spool, maildir,
//! build tree — sizes skewed below one block) on a small fragment-heavy
//! volume across a 60–95 % utilization sweep, under both allocation
//! policies × both fragment placement strategies (first fit vs the
//! `cg_frsum`-guided best fit), and reports fragment-packing efficiency
//! (partial blocks, mean fill, free fragments stranded per live file,
//! block splits) plus the final layout score.
//!
//! `all` runs every exhibit (`sweep`, `pareto`, and `smallfile` excluded), reporting
//! per-experiment status on stderr plus a one-line degradation summary,
//! and exiting non-zero iff any experiment did not produce its exhibit.
//!
//! `sweep` is the ablations exhibit: one generated workload (at most
//! 120 days) aged under the realloc policy at six `maxcontig` values —
//! final layout score per row, no golden.
//!
//! `pareto` ages the workload under every defragmentation policy
//! (greedy worst-file-first, rebuild-on-threshold, background scrub) ×
//! daily move budget {0, 50, 200, 1000} plus the two allocation-policy
//! baselines, then emits the layout-vs-moves frontier — final layout
//! score, total moves, cumulative simulated move cost, hot-file read
//! throughput and its delta vs FFS — followed by the per-day layout
//! series. The frontier table is additionally written to
//! `<out>/pareto_frontier.tsv`.
//!
//! `fleet` ages a population instead of one volume: `--shards N`
//! independently seeded volumes (heterogeneous sizes, policies, and
//! workload profiles drawn from `--fleet-seed S`) age concurrently for
//! `--days N` (default 30), streaming per-day samples into
//! constant-memory percentile accumulators. It writes
//! `fleet_layout.tsv` and `fleet_freefrag.tsv` (p50/p90/p99 by day per
//! policy) plus `runs.jsonl` with one record per shard and a synthetic
//! `fleet` record for the whole run. Roughly a quarter of the shards
//! draw a daily defragmentation pass from the policy menu on top of
//! their allocation policy. Finished shards checkpoint their
//! sample series in the artifact store, so rerunning a killed fleet
//! re-ages only the missing shards. Worker count never changes an
//! output byte.
//!
//! `--chaos-kill NAME` makes the named job panic — supervisor exercise
//! for CI, not for normal use.

use std::io::Write as _;
use std::process::ExitCode;

use harness::ctx::Options;
use harness::driver;

fn usage() -> ! {
    eprintln!(
        "usage: harness <table1|fig1|fig2|fig3|fig4|fig5|fig6|table2|freespace|profiles|sweep|pareto|smallfile|all|fleet|report> \
         [--days N] [--seed S] [--out DIR] [--jobs N] [--cache-dir DIR] [--no-cache] \
         [--metrics PATH] [-q|--quiet] [--profile] [--chaos-kill NAME] \
         [--shards N] [--fleet-seed S]"
    );
    std::process::exit(2);
}

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let Some(cmd) = args.next() else { usage() };
    let mut opts = Options::default();
    if cmd == "fleet" {
        // Fleet shards draw their own scaled-down workloads; the
        // single-volume default of 300 days would be enormous × shards.
        opts.days = 30;
        // A directory of its own, as every command has: `results/`
        // holds the committed goldens.
        opts.out_dir = "fleet-results".into();
    }
    let mut profile = false;
    while let Some(a) = args.next() {
        match a.as_str() {
            "--days" => {
                opts.days = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage());
            }
            "--seed" => {
                opts.seed = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage());
            }
            "--out" => {
                opts.out_dir = args.next().unwrap_or_else(|| usage());
            }
            "--jobs" => {
                opts.jobs = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage());
            }
            "--cache-dir" => {
                opts.cache_dir = Some(args.next().unwrap_or_else(|| usage()));
            }
            "--no-cache" => {
                opts.no_cache = true;
            }
            "--metrics" => {
                opts.metrics = Some(args.next().unwrap_or_else(|| usage()));
            }
            "-q" | "--quiet" => {
                opts.quiet = true;
            }
            "--profile" => {
                profile = true;
            }
            "--chaos-kill" => {
                opts.chaos_kill = Some(args.next().unwrap_or_else(|| usage()));
            }
            "--shards" => {
                opts.shards = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage());
            }
            "--fleet-seed" => {
                opts.fleet_seed = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage());
            }
            _ => usage(),
        }
    }
    match run(&cmd, &opts, profile) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("harness: {e}");
            ExitCode::FAILURE
        }
    }
}

fn report(opts: &Options, profile: bool) -> Result<(), String> {
    let path = std::path::Path::new(&opts.out_dir).join("runs.jsonl");
    let text = std::fs::read_to_string(&path)
        .map_err(|e| format!("read {}: {e} (run an experiment first)", path.display()))?;
    print!("{}", exp::summarize(&text)?);
    if profile {
        let mpath = match &opts.metrics {
            Some(p) => std::path::PathBuf::from(p),
            None => std::path::Path::new(&opts.out_dir).join("metrics.json"),
        };
        let mtext = std::fs::read_to_string(&mpath).map_err(|e| {
            format!(
                "read {}: {e} (run an experiment with --metrics first)",
                mpath.display()
            )
        })?;
        let snap = obs::snapshot::Snapshot::from_json(&mtext)
            .map_err(|e| format!("{}: {e}", mpath.display()))?;
        print!("{}", snap.render());
    }
    Ok(())
}

/// Runs the fleet command: prints both fleet exhibits to stdout and
/// reports degradation like `all` does for exhibits.
fn run_fleet(opts: &Options) -> Result<bool, String> {
    let summary = fleet::run_fleet(opts)?;
    print!("{}", summary.layout_tsv);
    println!();
    print!("{}", summary.freefrag_tsv);
    println!();
    for (job, why) in &summary.failures {
        eprintln!("harness: {job} {why}");
    }
    if !opts.quiet || !summary.all_ok() {
        eprintln!("harness: {}", summary.degradation_line());
    }
    Ok(summary.all_ok())
}

fn run(cmd: &str, opts: &Options, profile: bool) -> Result<bool, String> {
    if cmd == "report" {
        report(opts, profile)?;
        return Ok(true);
    }
    if cmd == "fleet" {
        return run_fleet(opts);
    }
    let requested: Vec<&'static str> = if cmd == "all" {
        driver::EXHIBITS.to_vec()
    } else {
        match driver::EXHIBITS
            .iter()
            .chain(driver::NAMED_ONLY)
            .find(|n| **n == cmd)
        {
            Some(n) => vec![n],
            None => {
                eprintln!("harness: unknown command '{cmd}'");
                usage()
            }
        }
    };
    let summary = driver::run(opts, &requested)?;
    let mut stdout = std::io::stdout().lock();
    for r in &summary.results {
        match &r.outcome {
            Ok(tsv) => {
                let _ = stdout.write_all(tsv.as_bytes());
                let _ = stdout.write_all(b"\n");
                if !opts.quiet {
                    eprintln!("harness: {:<10} ok", r.name);
                }
            }
            Err(e) => eprintln!("harness: {:<10} {}: {e}", r.name, r.status.to_uppercase()),
        }
    }
    if !opts.quiet || !summary.all_ok() {
        eprintln!("harness: {}", summary.degradation_line());
    }
    Ok(summary.all_ok())
}
