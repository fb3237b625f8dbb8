//! The engine's core guarantees, end to end through the driver:
//! worker count cannot change a byte of any exhibit, a warm artifact
//! cache reproduces the cold run exactly while skipping the agings, and
//! a panicking job takes down only itself and its dependents.

use std::collections::BTreeMap;
use std::fs;
use std::path::Path;

use harness::ctx::Options;
use harness::driver::{self, EXHIBITS};

fn opts(out: &Path, jobs: usize) -> Options {
    Options {
        days: 2,
        seed: 42,
        out_dir: out.to_str().unwrap().to_string(),
        jobs,
        ..Options::default()
    }
}

fn run_all(out: &Path, jobs: usize) -> BTreeMap<String, Vec<u8>> {
    run_exhibits(&opts(out, jobs))
}

fn run_exhibits(o: &Options) -> BTreeMap<String, Vec<u8>> {
    let out = Path::new(&o.out_dir);
    let summary = driver::run(o, EXHIBITS).expect("driver runs");
    assert!(summary.all_ok(), "an experiment failed");
    EXHIBITS
        .iter()
        .map(|name| {
            let bytes = fs::read(out.join(format!("{name}.tsv"))).expect("tsv written");
            assert!(!bytes.is_empty(), "{name}.tsv is empty");
            (name.to_string(), bytes)
        })
        .collect()
}

fn cache_lines(out: &Path) -> Vec<(String, String)> {
    let text = fs::read_to_string(out.join("runs.jsonl")).expect("runs.jsonl written");
    text.lines()
        .filter_map(|line| {
            let job = exp::RunRecord::field_str(line, "job")?;
            let cache = exp::RunRecord::field_str(line, "cache")?;
            Some((job, cache))
        })
        .collect()
}

#[test]
fn worker_count_does_not_change_any_exhibit() {
    let base = std::env::temp_dir().join(format!("harness-det-{}", std::process::id()));
    let (serial, parallel) = (base.join("serial"), base.join("parallel"));
    // Thirty days at the paper's seed: long enough that the replaying
    // jobs' weights differ and the heaviest-first pick reorders them.
    let days30 = |out: &Path, jobs| Options {
        days: 30,
        seed: 1996,
        ..opts(out, jobs)
    };
    let a = run_exhibits(&days30(&serial, 1));
    let b = run_exhibits(&days30(&parallel, 4));
    for name in EXHIBITS {
        assert_eq!(
            a[*name], b[*name],
            "{name}.tsv differs between --jobs 1 and --jobs 4"
        );
    }
    // Each usage profile is a node of its own; the `profiles` exhibit
    // only renders their rows, so it replays nothing itself.
    for dir in [&serial, &parallel] {
        let journal = fs::read_to_string(dir.join("runs.jsonl")).unwrap();
        let ops_of = |job: &str| {
            let line = journal
                .lines()
                .find(|l| exp::RunRecord::field_str(l, "job").as_deref() == Some(job))
                .unwrap_or_else(|| panic!("{job} missing from the journal:\n{journal}"));
            exp::RunRecord::field_num(line, "ops")
        };
        for job in [
            "profile:news",
            "profile:database",
            "profile:personal",
            "profile:home",
        ] {
            assert!(
                ops_of(job).is_some_and(|n| n > 0.0),
                "{job} records its ops"
            );
        }
        assert_eq!(ops_of("profiles"), None);
    }
    let _ = fs::remove_dir_all(&base);
}

#[test]
fn warm_cache_skips_agings_and_reproduces_exhibits() {
    let out = std::env::temp_dir().join(format!("harness-warm-{}", std::process::id()));
    let _ = fs::remove_dir_all(&out);

    let cold = run_all(&out, 2);
    let cold_cache = cache_lines(&out);
    assert_eq!(cold_cache.len(), 2, "two aging jobs record cache status");
    assert!(
        cold_cache.iter().all(|(_, c)| c == "miss"),
        "cold run must miss: {cold_cache:?}"
    );

    let warm = run_all(&out, 2);
    let warm_cache = cache_lines(&out);
    for job in ["age:ffs", "age:realloc"] {
        let status = warm_cache
            .iter()
            .find(|(j, _)| j == job)
            .map(|(_, c)| c.as_str());
        assert_eq!(status, Some("hit"), "{job} should hit the warm cache");
    }
    assert_eq!(cold, warm, "warm-cache exhibits must be byte-identical");
    let _ = fs::remove_dir_all(&out);
}

#[test]
fn exhibits_match_committed_goldens_at_days_30() {
    // The committed fixtures under tests/golden/days30 were produced by
    // `harness all --days 30` (seed 1996) before the word-level
    // free-space search landed; the rewrite must keep every exhibit
    // byte-identical. Regenerating them is only legitimate for a change
    // that intends to alter simulation behavior.
    let out = std::env::temp_dir().join(format!("harness-golden-{}", std::process::id()));
    let _ = fs::remove_dir_all(&out);
    let mut o = opts(&out, 0);
    o.days = 30;
    o.seed = 1996;
    let summary = driver::run(&o, EXHIBITS).expect("driver runs");
    assert!(summary.all_ok(), "an experiment failed");
    let golden_dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/days30");
    for name in EXHIBITS {
        let got = fs::read(out.join(format!("{name}.tsv"))).expect("tsv written");
        let want = fs::read(golden_dir.join(format!("{name}.tsv"))).expect("golden fixture");
        assert_eq!(
            got, want,
            "{name}.tsv diverged from the committed days-30 golden"
        );
    }
    let _ = fs::remove_dir_all(&out);
}

/// The rows of a committed exhibit, each split into its columns.
fn tsv_rows(dir: &Path, name: &str) -> Vec<Vec<String>> {
    let text = fs::read_to_string(dir.join(format!("{name}.tsv"))).expect("committed exhibit");
    text.lines()
        .skip(2) // title, column header
        .map(|row| row.split('\t').map(str::to_string).collect())
        .collect()
}

#[test]
fn fig1_real_is_fig2_ffs() {
    // Figure 1's "real" file system replays the generated history under
    // FFS, the same replay `age:ffs` feeds Figure 2: the two columns
    // must agree row for row. `paper_scale.rs` checks the same at 300
    // days.
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/days30");
    let (fig1, fig2) = (tsv_rows(&dir, "fig1"), tsv_rows(&dir, "fig2"));
    assert!(!fig1.is_empty(), "fig1.tsv has rows");
    assert_eq!(fig1.len(), fig2.len(), "row count");
    for (a, b) in fig1.iter().zip(&fig2) {
        // fig1: day, real, simulated; fig2: day, ffs, ffs_realloc.
        assert_eq!(a[..2], b[..2], "fig1 real vs fig2 ffs");
    }
}

#[test]
fn smallfile_matches_committed_golden_and_ignores_worker_count() {
    // The committed fixture under tests/golden/smallfile30 was produced
    // by `harness smallfile --days 30` (seed 1996) when the exhibit
    // landed; fragment-allocator changes must either keep it
    // byte-identical or regenerate it deliberately. Worker count must
    // never be the reason it moves.
    let base = std::env::temp_dir().join(format!("harness-smallfile-{}", std::process::id()));
    let _ = fs::remove_dir_all(&base);
    let run = |jobs: usize| -> Vec<u8> {
        let out = base.join(format!("j{jobs}"));
        let mut o = opts(&out, jobs);
        o.days = 30;
        o.seed = 1996;
        let summary = driver::run(&o, &["smallfile"]).expect("driver runs");
        assert!(summary.all_ok(), "smallfile failed");
        fs::read(out.join("smallfile.tsv")).expect("tsv written")
    };
    let got = run(1);
    let golden =
        Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/smallfile30/smallfile.tsv");
    assert_eq!(
        got,
        fs::read(&golden).expect("golden fixture"),
        "smallfile.tsv diverged from the committed days-30 golden"
    );
    assert_eq!(
        got,
        run(4),
        "smallfile.tsv differs between --jobs 1 and --jobs 4"
    );
    let _ = fs::remove_dir_all(&base);
}

#[test]
fn pareto_matches_committed_golden_and_ignores_worker_count() {
    // The committed fixture under tests/golden/pareto10 was produced by
    // `harness pareto --days 10 --seed 1996 --no-cache`. Every planner
    // moves blocks within ten days, so the twelve defragmenting rows pin
    // what each policy plans, not just that a zero budget changes nothing.
    let base = std::env::temp_dir().join(format!("harness-pareto-{}", std::process::id()));
    let _ = fs::remove_dir_all(&base);
    let run = |jobs: usize| -> Vec<u8> {
        let out = base.join(format!("j{jobs}"));
        let o = Options {
            days: 10,
            seed: 1996,
            no_cache: true,
            ..opts(&out, jobs)
        };
        let summary = driver::run(&o, &["pareto"]).expect("driver runs");
        assert!(summary.all_ok(), "pareto failed");
        fs::read(out.join("pareto.tsv")).expect("tsv written")
    };
    let got = run(1);
    let golden = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/pareto10/pareto.tsv");
    assert_eq!(
        got,
        fs::read(&golden).expect("golden fixture"),
        "pareto.tsv diverged from the committed days-10 golden"
    );
    assert_eq!(
        got,
        run(4),
        "pareto.tsv differs between --jobs 1 and --jobs 4"
    );
    let _ = fs::remove_dir_all(&base);
}

#[test]
fn sweep_ignores_worker_count() {
    // `sweep` has no golden: one block, a row per cluster size, each a
    // layout score, and the same bytes at any worker count.
    let base = std::env::temp_dir().join(format!("harness-sweep-{}", std::process::id()));
    let _ = fs::remove_dir_all(&base);
    let run = |jobs: usize| -> String {
        let out = base.join(format!("j{jobs}"));
        let mut o = opts(&out, jobs);
        o.days = 5;
        let summary = driver::run(&o, &["sweep"]).expect("driver runs");
        assert!(summary.all_ok(), "sweep failed");
        fs::read_to_string(out.join("sweep.tsv")).expect("tsv written")
    };
    let got = run(1);
    let rows: Vec<(&str, &str)> = got
        .lines()
        .skip(2) // title, column header
        .map(|row| row.split_once('\t').expect("two columns"))
        .collect();
    let labels: Vec<&str> = rows.iter().map(|(m, _)| *m).collect();
    assert_eq!(labels, ["1", "2", "4", "7", "14", "28"], "{got}");
    for (maxcontig, score) in rows {
        let v: f64 = score.parse().expect("layout score");
        assert!((0.0..=1.0).contains(&v), "maxcontig {maxcontig}: {score}");
    }
    assert_eq!(
        got,
        run(4),
        "sweep.tsv differs between --jobs 1 and --jobs 4"
    );
    let _ = fs::remove_dir_all(&base);
}

#[test]
fn no_cache_disables_the_store() {
    let out = std::env::temp_dir().join(format!("harness-nocache-{}", std::process::id()));
    let _ = fs::remove_dir_all(&out);
    let mut o = opts(&out, 2);
    o.no_cache = true;
    let summary = driver::run(&o, &["fig2"]).expect("driver runs");
    assert!(summary.all_ok());
    assert!(!out.join("cache").exists(), "--no-cache must not write");
    let cache = cache_lines(&out);
    assert!(
        cache.iter().all(|(_, c)| c == "disabled"),
        "agings report cache disabled: {cache:?}"
    );
    let _ = fs::remove_dir_all(&out);
}

#[test]
fn chaos_kill_profiles_takes_down_the_render_node_only() {
    let out = std::env::temp_dir().join(format!("harness-chaos-profiles-{}", std::process::id()));
    let _ = fs::remove_dir_all(&out);
    let killed = Options {
        chaos_kill: Some("profiles".into()),
        no_cache: true,
        ..opts(&out, 2)
    };
    let run = driver::run(&killed, &["profiles", "table1"]).expect("the run survives");
    let status: BTreeMap<&str, &str> = run
        .results
        .iter()
        .map(|r| (r.name, r.status.as_str()))
        .collect();
    assert_eq!(status["profiles"], "panicked");
    assert_eq!(status["table1"], "ok");
    let journal = fs::read_to_string(out.join("runs.jsonl")).expect("runs.jsonl written");
    for line in journal.lines() {
        let job = exp::RunRecord::field_str(line, "job").unwrap();
        let want = if job == "profiles" { "panicked" } else { "ok" };
        assert_eq!(
            exp::RunRecord::field_str(line, "status").as_deref(),
            Some(want),
            "{job}"
        );
    }
    assert_eq!(journal.lines().count(), 6, "four rows, one render, table1");
    assert!(!out.join("profiles.tsv").exists());
    let _ = fs::remove_dir_all(&out);
}

/// A journal line with its one nondeterministic field, `wall_s`, cut.
fn without_wall(line: &str) -> String {
    let (head, rest) = line
        .split_once(",\"wall_s\":")
        .expect("every record has wall_s");
    let end = rest
        .find([',', '}'])
        .expect("wall_s is followed by a field or the end");
    format!("{head}{}", &rest[end..])
}

#[test]
fn chaos_kill_reaches_an_aging_job_and_skips_its_dependents() {
    let base = std::env::temp_dir().join(format!("harness-chaos-age-{}", std::process::id()));
    let _ = fs::remove_dir_all(&base);
    let run = |jobs: usize| -> Vec<String> {
        let out = base.join(format!("j{jobs}"));
        let killed = Options {
            days: 10,
            seed: 1996,
            chaos_kill: Some("age:ffs".into()),
            no_cache: true,
            ..opts(&out, jobs)
        };
        let summary = driver::run(&killed, EXHIBITS).expect("the run survives");
        let status: BTreeMap<&str, &str> = summary
            .results
            .iter()
            .map(|r| (r.name, r.status.as_str()))
            .collect();
        for name in [
            "fig2",
            "fig3",
            "fig4",
            "fig5",
            "fig6",
            "table2",
            "freespace",
        ] {
            assert_eq!(status[name], "skipped", "{name} depends on age:ffs");
        }
        for name in ["table1", "fig1", "profiles"] {
            assert_eq!(status[name], "ok", "{name} does not");
        }
        let journal = fs::read_to_string(out.join("runs.jsonl")).expect("runs.jsonl written");
        let age = journal
            .lines()
            .find(|l| exp::RunRecord::field_str(l, "job").as_deref() == Some("age:ffs"))
            .expect("age:ffs journaled");
        assert_eq!(
            exp::RunRecord::field_str(age, "status").as_deref(),
            Some("panicked")
        );
        assert!(age.contains("chaos kill: age:ffs"), "{age}");
        journal.lines().map(without_wall).collect()
    };
    assert_eq!(
        run(1),
        run(4),
        "records differ between --jobs 1 and --jobs 4"
    );
    let _ = fs::remove_dir_all(&base);
}

#[test]
fn a_failed_run_leaves_obs_off() {
    // An output directory that cannot be created fails the run after the
    // engine finished with `--metrics` recording. No other test in this
    // binary turns obs on, so the switch is this run's to leave.
    let base = std::env::temp_dir().join(format!("harness-obs-off-{}", std::process::id()));
    let _ = fs::remove_dir_all(&base);
    fs::create_dir_all(&base).unwrap();
    let file = base.join("a-file");
    fs::write(&file, "not a directory").unwrap();
    let o = Options {
        metrics: Some(base.join("metrics.json").display().to_string()),
        no_cache: true,
        ..opts(&file.join("out"), 1)
    };
    assert!(driver::run(&o, &["table1"]).is_err());
    assert!(!obs::enabled(), "a failed run left obs recording");
    let _ = fs::remove_dir_all(&base);
}
