//! The two binaries' command lines, driven as a user drives them:
//! which flags exist, what a malformed one costs, and where a bare
//! command writes. DESIGN.md's consumer table names these tests as the
//! flags' consumers, and [`usage_flags_match_the_design_table`] holds
//! the table to the usage text so neither can rot.

use std::collections::BTreeSet;
use std::fs;
use std::path::PathBuf;
use std::process::{Command, Output};

const HARNESS: &str = env!("CARGO_BIN_EXE_harness");
const AGEFS: &str = env!("CARGO_BIN_EXE_agefs");

fn tmpdir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("harness-cli-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&d);
    fs::create_dir_all(&d).expect("temp dir");
    d
}

fn run(bin: &str, cwd: &std::path::Path, args: &[&str]) -> Output {
    Command::new(bin)
        .current_dir(cwd)
        .args(args)
        .output()
        .expect("binary runs")
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

/// Every `--flag` a usage text mentions.
fn flags_in(text: &str) -> BTreeSet<String> {
    text.split(|c: char| !(c.is_ascii_alphanumeric() || c == '-'))
        .filter(|w| w.starts_with("--") && w.len() > 2)
        .map(str::to_string)
        .collect()
}

#[test]
fn removed_and_malformed_flags_are_usage_errors() {
    let cwd = tmpdir("usage");
    let cases: [(&str, &[&str]); 9] = [
        (HARNESS, &["all", "--max-retries", "1"]),
        (HARNESS, &["all", "--chaos-seed", "1"]),
        (HARNESS, &["all", "--job-deadline-ops", "1"]),
        (HARNESS, &["all", "--resume-run", "x"]),
        (HARNESS, &["report", "--resume-run", "x"]),
        // The snapshot-validation exhibit became Figure 1.
        (HARNESS, &["snapval"]),
        (AGEFS, &["--fault-latent", "1"]),
        // An interval with no file to write the checkpoints to used to
        // take them all and drop them on exit.
        (AGEFS, &["--days", "2", "--checkpoint-every", "1"]),
        (AGEFS, &["--days", "many"]),
    ];
    for (bin, args) in cases {
        let out = run(bin, &cwd, args);
        assert_eq!(out.status.code(), Some(2), "{bin} {args:?}");
        assert!(stderr(&out).contains("usage: "), "{bin} {args:?}");
        assert!(out.stdout.is_empty(), "{bin} {args:?}");
    }
    let unknown = stderr(&run(HARNESS, &cwd, &["snapval"]));
    assert!(unknown.contains("unknown command 'snapval'"), "{unknown}");
    assert_eq!(fs::read_dir(&cwd).unwrap().count(), 0, "nothing written");
    let _ = fs::remove_dir_all(&cwd);
}

#[test]
fn usage_flags_match_the_design_table() {
    let cwd = tmpdir("table");
    let design = fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../../DESIGN.md"))
        .expect("DESIGN.md at the workspace root");
    // `harness` wants a command; a bare `agefs` would age the paper's
    // 300 days, so it gets a flag it does not know.
    for (bin, name, args) in [
        (HARNESS, "harness", &[][..]),
        (AGEFS, "agefs", &["--help"][..]),
    ] {
        let out = run(bin, &cwd, args);
        assert_eq!(out.status.code(), Some(2));
        let usage = flags_in(&stderr(&out));
        assert!(usage.len() > 10, "{name} usage lists its flags: {usage:?}");
        // Flag rows read "| `<binary> --flag ...` | ... | consumer |".
        let prefix = format!("| `{name} --");
        let mut table = BTreeSet::new();
        for row in design.lines().filter(|l| l.starts_with(&prefix)) {
            let cells: Vec<&str> = row.split('|').map(str::trim).collect();
            table.extend(flags_in(cells[1]));
            let consumer = cells[cells.len() - 2];
            assert!(consumer.len() > 10, "row without a consumer: {row}");
        }
        assert_eq!(
            usage, table,
            "{name}: usage text vs DESIGN.md consumer table"
        );
    }
    let _ = fs::remove_dir_all(&cwd);
}

#[test]
fn bare_fleet_writes_into_fleet_results_and_quiet_is_silent() {
    let cwd = tmpdir("fleet");
    let out = run(
        HARNESS,
        &cwd,
        &["fleet", "--shards", "2", "--days", "2", "-q"],
    );
    assert!(out.status.success(), "{}", stderr(&out));
    assert!(out.stderr.is_empty(), "-q: {}", stderr(&out));
    assert!(stdout(&out).starts_with("day\t"), "both exhibits print");
    for f in ["runs.jsonl", "fleet_layout.tsv", "fleet_freefrag.tsv"] {
        assert!(cwd.join("fleet-results").join(f).is_file(), "{f}");
    }
    // `results/` holds the `all` run's journal and the committed goldens.
    assert!(!cwd.join("results").exists());
    let _ = fs::remove_dir_all(&cwd);
}

#[test]
fn bare_exhibit_writes_into_harness_results_not_the_goldens() {
    let cwd = tmpdir("bare");
    let out = run(HARNESS, &cwd, &["table1", "-q"]);
    assert!(out.status.success(), "{}", stderr(&out));
    for f in ["runs.jsonl", "table1.tsv"] {
        assert!(cwd.join("harness-results").join(f).is_file(), "{f}");
    }
    // `results/` holds the committed goldens: only `--out results`
    // writes there.
    assert!(!cwd.join("results").exists());
    let report = run(HARNESS, &cwd, &["report"]);
    assert!(
        report.status.success(),
        "report reads the same default: {}",
        stderr(&report)
    );
    let _ = fs::remove_dir_all(&cwd);
}

#[test]
fn an_exhibit_prints_its_tsv_on_stdout_even_quiet() {
    let cwd = tmpdir("stdout");
    for quiet in [false, true] {
        let args: &[&str] = if quiet {
            &["fig2", "--days", "3", "-q"]
        } else {
            &["fig2", "--days", "3"]
        };
        let out = run(HARNESS, &cwd, args);
        assert!(out.status.success(), "{}", stderr(&out));
        // stdout is the TSV the run wrote, plus one newline.
        let tsv = fs::read_to_string(cwd.join("harness-results/fig2.tsv")).expect("fig2.tsv");
        assert!(tsv.contains("\nday\tffs\tffs_realloc\n"), "{tsv}");
        assert_eq!(stdout(&out), format!("{tsv}\n"), "quiet={quiet}");
    }
    let _ = fs::remove_dir_all(&cwd);
}

#[test]
fn agefs_crash_checkpoint_resume_lands_on_the_uninterrupted_run() {
    let cwd = tmpdir("agefs");
    let base = [
        "--days",
        "4",
        "--seed",
        "7",
        "--policy",
        "orig",
        "--profile",
        "news",
    ];
    let with = |extra: &[&str]| run(AGEFS, &cwd, &[&base[..], extra].concat());

    let plain = with(&["-q"]);
    assert!(plain.status.success(), "{}", stderr(&plain));
    assert!(plain.stderr.is_empty(), "-q: {}", stderr(&plain));
    let table = stdout(&plain);
    assert_eq!(
        table.lines().count(),
        5,
        "header + one row per day:\n{table}"
    );

    // A power cut mid-run, repaired by fsck, with every nightly extra on:
    // the per-day table must not move.
    let drilled = with(&[
        "--crash-after-ops",
        "300",
        "--crash-seed",
        "3",
        "--verify-every",
        "1",
        "--snapshots",
        "snaps",
        "--checkpoint",
        "ck.txt",
        "--checkpoint-every",
        "3",
        "--metrics",
        "m.json",
    ]);
    let err = stderr(&drilled);
    assert!(drilled.status.success(), "{err}");
    assert_eq!(stdout(&drilled), table);
    for line in [
        "# crash: power cut at op 300",
        "# fsck: clean",
        "# checkpoint after day 2",
    ] {
        assert!(err.contains(line), "{line}:\n{err}");
    }
    let mut entries = 0;
    for snap in fs::read_dir(cwd.join("snaps")).unwrap() {
        let text = fs::read_to_string(snap.unwrap().path()).unwrap();
        entries += text.lines().count() as u64 - 1;
    }
    assert_eq!(fs::read_dir(cwd.join("snaps")).unwrap().count(), 4);
    let metrics = fs::read_to_string(cwd.join("m.json")).unwrap();
    assert!(
        metrics.contains("\"path\":\"age_day/verify\""),
        "fsck span recorded"
    );
    // Every entry of every night is either shared with the night before
    // or new.
    let metrics = obs::snapshot::Snapshot::from_json(&metrics).unwrap();
    let counter = |name: &str| {
        let found = metrics.counters.iter().find(|(n, _)| n == name);
        found.unwrap_or_else(|| panic!("{name} missing")).1
    };
    let shared = counter("aging.snapshot.entries_shared");
    assert!(shared > 0, "an unchanged file shares last night's entry");
    assert_eq!(shared + counter("aging.snapshot.entries_new"), entries);

    // Resuming from the day-2 checkpoint replays only the last day and
    // prints its row exactly as the uninterrupted run did.
    let resumed = with(&["--resume", "ck.txt", "-q"]);
    assert!(resumed.status.success(), "{}", stderr(&resumed));
    let rows = |t: &str| t.lines().map(str::to_string).collect::<Vec<_>>();
    assert_eq!(
        rows(&stdout(&resumed)),
        [&rows(&table)[..1], &rows(&table)[4..]].concat()
    );
    let _ = fs::remove_dir_all(&cwd);
}

#[test]
fn agefs_default_checkpoint_is_the_last_daily_one() {
    let cwd = tmpdir("agefs-ck");
    let (days, seed) = (10, 7);
    let args = "--days 10 --seed 7 --policy orig --profile news -q --checkpoint ck.txt";
    let out = run(AGEFS, &cwd, &args.split(' ').collect::<Vec<_>>());
    assert!(out.status.success(), "{}", stderr(&out));
    let written = fs::read_to_string(cwd.join("ck.txt")).unwrap();
    assert!(written.starts_with("# checkpoint day 9\n"));
    // The same run taking a checkpoint every day, as `agefs` used to.
    let params = ffs_types::FsParams::paper_502mb();
    let news = aging::profiles::all(seed)
        .into_iter()
        .find(|p| p.name == "news");
    let mut config = news.unwrap().config;
    config.days = days;
    if days < config.ramp_days {
        config.ramp_days = (days / 3).max(1);
    }
    let w = aging::generate(&config, params.ncg, params.data_capacity_bytes());
    let options = aging::ReplayOptions {
        checkpoint_every_days: 1,
        ..aging::ReplayOptions::default()
    };
    let daily = aging::replay(&w, &params, ffs::AllocPolicy::Orig, options).unwrap();
    assert_eq!(daily.checkpoints.len(), days as usize);
    assert!(written == daily.checkpoints.last().unwrap().to_text());
    let _ = fs::remove_dir_all(&cwd);
}
