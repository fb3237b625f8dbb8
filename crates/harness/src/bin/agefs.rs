//! `agefs` — the standalone aging tool (the artifact Section 8 of the
//! paper distributed alongside the benchmarks).
//!
//! Ages a simulated file system with the ten-month workload (or any
//! profile and length), prints the per-day summary, and optionally dumps
//! the nightly snapshots in the text format `aging::Snapshot` parses.
//!
//! Robustness options: a crash point simulates a power cut mid-replay
//! followed by the repairing fsck, and checkpoints let a long run stop
//! and resume.
//!
//! ```text
//! agefs [--days N] [--seed S] [--policy orig|realloc]
//!       [--profile home|news|database|personal]
//!       [--snapshots DIR] [--verify-every N]
//!       [--crash-after-ops N] [--crash-seed S]
//!       [--checkpoint FILE] [--checkpoint-every N] [--resume FILE]
//!       [--metrics PATH] [-q|--quiet]
//! ```
//!
//! `--checkpoint FILE` writes one checkpoint to `FILE`: the last one an
//! interval of `--checkpoint-every N` days (default 1) reaches, i.e.
//! after day `(days / N) * N - 1`. Only that one is taken. The interval
//! without a file to write to is a usage error.
//!
//! `--metrics PATH` enables the observability layer for the run and
//! writes the captured counters, histograms, and span profile to `PATH`
//! as `metrics.json`; the per-day table is byte-identical either way.
//! `-q`/`--quiet` silences the informational `#` chatter on stderr
//! (errors still print) without changing stdout.

use std::process::ExitCode;

use aging::{profiles, Checkpoint, Days, Replay, ReplayOptions, WorkloadStats};
use ffs::{check, AllocPolicy};
use ffs_types::FsParams;

struct Args {
    days: u32,
    seed: u64,
    policy: AllocPolicy,
    profile: String,
    snapshots: Option<String>,
    verify_every: u32,
    crash_after_ops: u64,
    crash_seed: Option<u64>,
    checkpoint: Option<String>,
    checkpoint_every: u32,
    resume: Option<String>,
    metrics: Option<String>,
    quiet: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: agefs [--days N] [--seed S] [--policy orig|realloc] \
         [--profile home|news|database|personal] [--snapshots DIR] \
         [--verify-every N] [--crash-after-ops N] [--crash-seed S] \
         [--checkpoint FILE] [--checkpoint-every N] [--resume FILE] \
         [--metrics PATH] [-q|--quiet]"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = Args {
        days: 300,
        seed: 1996,
        policy: AllocPolicy::Realloc,
        profile: "home".to_string(),
        snapshots: None,
        verify_every: 0,
        crash_after_ops: 0,
        crash_seed: None,
        checkpoint: None,
        checkpoint_every: 0,
        resume: None,
        metrics: None,
        quiet: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        let mut next = |name: &str| {
            it.next().unwrap_or_else(|| {
                eprintln!("missing value for {name}");
                usage()
            })
        };
        macro_rules! parsed {
            ($name:literal) => {
                next($name).parse().unwrap_or_else(|_| usage())
            };
        }
        match a.as_str() {
            "--days" => args.days = parsed!("--days"),
            "--seed" => args.seed = parsed!("--seed"),
            "--policy" => {
                args.policy = match next("--policy").as_str() {
                    "orig" | "ffs" => AllocPolicy::Orig,
                    "realloc" => AllocPolicy::Realloc,
                    _ => usage(),
                }
            }
            "--profile" => args.profile = next("--profile"),
            "--snapshots" => args.snapshots = Some(next("--snapshots")),
            "--verify-every" => args.verify_every = parsed!("--verify-every"),
            "--crash-after-ops" => args.crash_after_ops = parsed!("--crash-after-ops"),
            "--crash-seed" => args.crash_seed = Some(parsed!("--crash-seed")),
            "--checkpoint" => args.checkpoint = Some(next("--checkpoint")),
            "--checkpoint-every" => args.checkpoint_every = parsed!("--checkpoint-every"),
            "--resume" => args.resume = Some(next("--resume")),
            "--metrics" => args.metrics = Some(next("--metrics")),
            "-q" | "--quiet" => args.quiet = true,
            _ => usage(),
        }
    }
    if args.checkpoint_every > 0 && args.checkpoint.is_none() {
        eprintln!("--checkpoint-every needs --checkpoint FILE to write to");
        usage()
    }
    args
}

fn main() -> ExitCode {
    let args = parse_args();
    let capture = obs::Capture::start(args.metrics.as_deref());
    let params = FsParams::paper_502mb();
    let profile = profiles::all(args.seed)
        .into_iter()
        .find(|p| p.name == args.profile)
        .unwrap_or_else(|| {
            eprintln!("unknown profile '{}'", args.profile);
            usage()
        });
    let mut config = profile.config;
    config.days = args.days;
    if args.days < config.ramp_days {
        config.ramp_days = (args.days / 3).max(1);
    }
    let mut options = ReplayOptions {
        verify_every_days: args.verify_every,
        snapshot_every_days: if args.snapshots.is_some() { 1 } else { 0 },
        checkpoint_every_days: if args.checkpoint.is_some() {
            // Only the last checkpoint is written, so only it is taken:
            // an interval of `days / every * every` is due once, on the
            // last day an interval of `every` reaches (0, never, when
            // `every` exceeds the run).
            let every = args.checkpoint_every.max(1);
            args.days / every * every
        } else {
            0
        },
        crash_after_ops: args.crash_after_ops,
        ..ReplayOptions::default()
    };
    if let Some(seed) = args.crash_seed {
        options.crash_damage_seed = seed;
    }
    let started = match &args.resume {
        None => Replay::new(&params, args.policy, options),
        Some(path) => {
            let text = match std::fs::read_to_string(path) {
                Ok(t) => t,
                Err(e) => {
                    eprintln!("agefs: reading {path}: {e}");
                    return ExitCode::FAILURE;
                }
            };
            match Checkpoint::from_text(&text) {
                Ok(ck) => {
                    if !args.quiet {
                        eprintln!("# resuming after day {} from {path}", ck.day);
                    }
                    Replay::resume_from(&params, args.policy, options, &ck)
                }
                Err(e) => {
                    eprintln!("agefs: bad checkpoint {path}: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
    };
    // The workload is generated, summarized and replayed one day at a
    // time; a resumed run skips the days its checkpoint covers.
    let mut stats = WorkloadStats::default();
    let run = started.and_then(|mut replay| {
        for day in Days::new(&config, params.ncg, params.data_capacity_bytes()) {
            stats.day(&day);
            replay.day(&day)?;
        }
        Ok(replay.finish())
    });
    let result = match run {
        Ok(r) => r,
        Err(e) => {
            eprintln!("agefs: replay failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    if !args.quiet {
        eprintln!(
            "# workload: {} ops, {:.1} GB written, {} live files at end",
            stats.total_ops,
            stats.bytes_written as f64 / (1u64 << 30) as f64,
            stats.live_at_end
        );
    }
    println!("day\tlayout\tutil\tfiles\tgb_written");
    for d in &result.daily {
        println!(
            "{}\t{:.4}\t{:.3}\t{}\t{:.2}",
            d.day,
            d.layout_score,
            d.utilization,
            d.nfiles,
            d.bytes_written as f64 / (1u64 << 30) as f64
        );
    }
    if let Some(dir) = &args.snapshots {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("agefs: creating {dir}: {e}");
            return ExitCode::FAILURE;
        }
        for snap in &result.snapshots {
            let path = format!("{dir}/day{:04}.snap", snap.day);
            if let Err(e) = std::fs::write(&path, snap.to_text()) {
                eprintln!("agefs: writing {path}: {e}");
                return ExitCode::FAILURE;
            }
        }
        if !args.quiet {
            eprintln!("# wrote {} snapshots to {dir}/", result.snapshots.len());
        }
    }
    if let Some(path) = &args.checkpoint {
        match result.checkpoints.last() {
            Some(ck) => {
                if let Err(e) = std::fs::write(path, ck.to_text()) {
                    eprintln!("agefs: writing {path}: {e}");
                    return ExitCode::FAILURE;
                }
                if !args.quiet {
                    eprintln!("# checkpoint after day {} written to {path}", ck.day);
                }
            }
            None => {
                if !args.quiet {
                    eprintln!("# no checkpoint reached (run shorter than interval)");
                }
            }
        }
    }
    // Informational only: the repair either converged or the fsck
    // below fails the run.
    if let (Some(c), false) = (&result.crash, args.quiet) {
        eprintln!(
            "# crash: power cut at op {} (day {}), {} metadata perturbations; \
             fsck found {} violations ({} structural), freed {} orphaned frags, \
             removed {} files, resumed",
            c.at_op,
            c.day,
            c.damage_hits,
            c.repair.violations_found,
            c.repair.structural,
            c.repair.orphaned_frags_freed,
            c.repair.files_removed.len()
        );
    }
    let violations = check(&result.fs);
    if violations.is_empty() {
        if !args.quiet {
            eprintln!("# fsck: clean");
        }
    } else {
        eprintln!("# fsck: {} violations remain", violations.len());
        for v in &violations {
            eprintln!("#   {v}");
        }
        return ExitCode::FAILURE;
    }
    if !args.quiet {
        eprintln!(
            "# final: layout {:.4} under {} ({} skipped creates)",
            result.fs.aggregate_layout().score(),
            args.policy.label(),
            result.skipped_creates
        );
    }
    if let Err(e) = capture.finish() {
        eprintln!("agefs: {e}");
        return ExitCode::FAILURE;
    }
    if let (Some(path), false) = (&args.metrics, args.quiet) {
        eprintln!("# metrics written to {path}");
    }
    ExitCode::SUCCESS
}
