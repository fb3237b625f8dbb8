//! `--resume-run`: a rerun that replays a prior journal reloads
//! already-succeeded exhibits from their TSVs instead of recomputing
//! them, and the jobs underneath them — agings, and the `profile:*` row
//! jobs of `profiles` — drop out of the DAG entirely.

use std::collections::BTreeMap;
use std::fs;
use std::path::Path;

use harness::ctx::Options;
use harness::driver::{self, EXHIBITS};

fn opts(out: &Path) -> Options {
    Options {
        days: 2,
        seed: 42,
        out_dir: out.to_str().unwrap().to_string(),
        jobs: 2,
        // Resume must not be able to lean on the artifact cache to hide
        // a recompute: disable it so any non-resumed exhibit would age
        // from scratch (visibly slow) and record ops.
        no_cache: true,
        ..Options::default()
    }
}

fn tsvs(out: &Path) -> BTreeMap<String, Vec<u8>> {
    EXHIBITS
        .iter()
        .map(|name| {
            (
                name.to_string(),
                fs::read(out.join(format!("{name}.tsv"))).expect("tsv written"),
            )
        })
        .collect()
}

fn journal(out: &Path) -> String {
    fs::read_to_string(out.join("runs.jsonl")).expect("runs.jsonl written")
}

#[test]
fn resume_run_reloads_ok_exhibits_and_drops_agings() {
    let out = std::env::temp_dir().join(format!("harness-resume-{}", std::process::id()));
    let _ = fs::remove_dir_all(&out);

    let first = driver::run(&opts(&out), EXHIBITS).expect("first run");
    assert!(first.all_ok());
    let first_tsvs = tsvs(&out);
    let first_journal = journal(&out);
    assert_eq!(first_journal.matches("\"job\":\"profile:").count(), 4);

    // Preserve the journal: the resumed run overwrites runs.jsonl.
    let journal_path = out.join("prior-runs.jsonl");
    fs::write(&journal_path, &first_journal).unwrap();

    let resumed_opts = Options {
        resume_run: Some(journal_path.to_str().unwrap().to_string()),
        ..opts(&out)
    };
    let second = driver::run(&resumed_opts, EXHIBITS).expect("resumed run");
    assert!(second.all_ok());
    assert!(
        second.results.iter().all(|r| r.status == "ok"),
        "every resumed exhibit reports ok"
    );

    // Byte-identical exhibits.
    let second_tsvs = tsvs(&out);
    for name in EXHIBITS {
        assert_eq!(
            first_tsvs[*name], second_tsvs[*name],
            "{name}.tsv changed across resume"
        );
    }

    // The resumed journal shows: no aging jobs at all, every exhibit
    // marked resumed, and zero replayed operations.
    let second_journal = journal(&out);
    assert!(
        !second_journal.contains("age:") && !second_journal.contains("profile:"),
        "aging and profile-row jobs must drop out of a fully resumed DAG:\n{second_journal}"
    );
    for line in second_journal.lines() {
        let job = exp::RunRecord::field_str(line, "job").unwrap();
        assert_eq!(
            exp::RunRecord::field_str(line, "resumed").as_deref(),
            Some("true"),
            "{job} should be resumed"
        );
        assert_eq!(
            exp::RunRecord::field_str(line, "status").as_deref(),
            Some("ok")
        );
    }
    assert_eq!(second_journal.lines().count(), EXHIBITS.len());

    let _ = fs::remove_dir_all(&out);
}

#[test]
fn chaos_kill_profiles_takes_down_the_render_node_only() {
    let out = std::env::temp_dir().join(format!("harness-chaos-profiles-{}", std::process::id()));
    let _ = fs::remove_dir_all(&out);
    let killed = Options {
        chaos_kill: Some("profiles".into()),
        ..opts(&out)
    };
    let run = driver::run(&killed, &["profiles", "table1"]).expect("the run survives");
    let status: BTreeMap<&str, &str> = run
        .results
        .iter()
        .map(|r| (r.name, r.status.as_str()))
        .collect();
    assert_eq!(status["profiles"], "panicked");
    assert_eq!(status["table1"], "ok");
    let journal = journal(&out);
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

    // The rows were not journalled as `profiles`, so a resume from this
    // journal recomputes the exhibit — rows and all.
    let journal_path = out.join("prior-runs.jsonl");
    fs::write(&journal_path, &journal).unwrap();
    let resumed = Options {
        resume_run: Some(journal_path.to_str().unwrap().to_string()),
        ..opts(&out)
    };
    let second = driver::run(&resumed, &["profiles", "table1"]).expect("resumed run");
    assert!(second.all_ok());
    let second_journal = self::journal(&out);
    assert_eq!(second_journal.matches("\"job\":\"profile:").count(), 4);
    assert!(out.join("profiles.tsv").is_file());
    let _ = fs::remove_dir_all(&out);
}

#[test]
fn resume_recomputes_what_the_journal_does_not_cover() {
    let out = std::env::temp_dir().join(format!("harness-resume-part-{}", std::process::id()));
    let _ = fs::remove_dir_all(&out);

    // First run produces only table1 (dep-free exhibit).
    let first = driver::run(&opts(&out), &["table1"]).expect("first run");
    assert!(first.all_ok());
    let journal_path = out.join("prior-runs.jsonl");
    fs::write(&journal_path, journal(&out)).unwrap();

    // Resuming a larger request recomputes the uncovered exhibits (and
    // their agings) while reloading table1.
    let resumed_opts = Options {
        resume_run: Some(journal_path.to_str().unwrap().to_string()),
        ..opts(&out)
    };
    let second = driver::run(&resumed_opts, &["table1", "fig2"]).expect("resumed run");
    assert!(second.all_ok());
    let second_journal = journal(&out);
    assert!(
        second_journal.contains("\"job\":\"age:ffs\""),
        "fig2 still needs its agings:\n{second_journal}"
    );
    let table1_line = second_journal
        .lines()
        .find(|l| exp::RunRecord::field_str(l, "job").as_deref() == Some("table1"))
        .unwrap();
    assert_eq!(
        exp::RunRecord::field_str(table1_line, "resumed").as_deref(),
        Some("true")
    );
    let fig2_line = second_journal
        .lines()
        .find(|l| exp::RunRecord::field_str(l, "job").as_deref() == Some("fig2"))
        .unwrap();
    assert!(exp::RunRecord::field_str(fig2_line, "resumed").is_none());

    let _ = fs::remove_dir_all(&out);
}
