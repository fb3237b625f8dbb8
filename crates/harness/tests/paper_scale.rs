//! The paper's claims at the paper's scale: one `harness all` over the
//! 502 MB volume for 300 days. Its TSVs must be `results/` byte for byte,
//! and its distance from the paper must stay under the ceilings committed
//! in `golden/fidelity.tsv` (the fidelity ratchet). `paper_shapes.rs`
//! asserts the paper's orderings on those same bytes.

mod common;

use std::collections::BTreeMap;
use std::fs;
use std::path::Path;
use std::sync::OnceLock;

use common::{fidelity, files, results, split};
use harness::ctx::Options;
use harness::driver::{self, EXHIBITS};

/// The files of the one run every test here reads, by name: the default
/// 300 days at seed 1996, about 13 s in a debug build on two cores.
fn run() -> &'static BTreeMap<String, String> {
    static RUN: OnceLock<BTreeMap<String, String>> = OnceLock::new();
    RUN.get_or_init(|| {
        let out = std::env::temp_dir().join(format!("harness-paper-{}", std::process::id()));
        let o = Options {
            out_dir: out.to_str().unwrap().to_string(),
            jobs: 2,
            no_cache: true,
            quiet: true,
            ..Options::default()
        };
        assert!(driver::run(&o, EXHIBITS).expect("driver runs").all_ok());
        let files = files(&out);
        let _ = fs::remove_dir_all(&out);
        files
    })
}

/// The number at `exhibit/row/column` in the run.
fn value(at: &str) -> f64 {
    common::value(run(), at)
}

#[test]
fn tsvs_equal_the_committed_results() {
    let results = results();
    let ours: Vec<_> = run().keys().filter(|n| n.ends_with(".tsv")).collect();
    let want: Vec<_> = results.keys().filter(|n| n.ends_with(".tsv")).collect();
    assert_eq!(ours, want, "TSV set vs results/");
    for name in want {
        assert!(run()[name] == results[name], "{name} differs from results/");
    }
}

/// Where each ratchet key is read: by the rules of the frozen bench's
/// `exhibit_sim` for the keys it scores, then the hot set and Figure 1.
const RULES: &[(&str, &str)] = &[
    ("layout_day1_ffs", "fig2/0/1"),
    ("layout_day1_realloc", "fig2/0/2"),
    ("layout_day300_ffs", "fig2/299/1"),
    ("layout_day300_realloc", "fig2/299/2"),
    ("table2_layout_ffs", "table2/layout_score/1"),
    ("table2_layout_realloc", "table2/layout_score/2"),
    ("table2_layout_gain_pct", "table2/layout_score/3"),
    ("table2_read_ffs_mb_s", "table2/read_mb_s/1"),
    ("table2_read_realloc_mb_s", "table2/read_mb_s/2"),
    ("table2_read_gain_pct", "table2/read_mb_s/3"),
    ("table2_write_ffs_mb_s", "table2/write_mb_s/1"),
    ("table2_write_realloc_mb_s", "table2/write_mb_s/2"),
    ("table2_write_gain_pct", "table2/write_mb_s/3"),
    ("raw_read_mb_s", "fig4/raw_read/1"),
    ("raw_write_mb_s", "fig4/raw_write/1"),
    ("hot_files", "table2/hot_files/1"),
    ("hot_bytes_mb", "table2/hot_bytes_mb/1"),
    ("fig1_real_day300", "fig1/299/1"),
    ("fig1_simulated_day300", "fig1/299/2"),
];

/// Figure 4's realloc gains, `(realloc / ffs − 1) × 100` over the two
/// cells: the read at 96 KB, the write at 64 KB, and the write the paper
/// gives for "≥ 4 MB", read on the 4 MB row.
const GAINS: &[(&str, &str, &str)] = &[
    ("fig4_read_gain_96kb_pct", "fig4/96 KB/3", "fig4/96 KB/1"),
    ("fig4_write_gain_64kb_pct", "fig4/64 KB/4", "fig4/64 KB/2"),
    ("fig4_write_gain_4mb_pct", "fig4/4 MB/4", "fig4/4 MB/2"),
];

/// Recomputes every committed row from its paper value and the run,
/// rounded as committed so a reader can redo the arithmetic. Ceilings
/// are copied, never derived: moving one is a hand edit in the diff.
#[test]
fn fidelity_stays_under_its_ceilings() {
    let mut measured: BTreeMap<_, _> = RULES.iter().map(|&(k, at)| (k, value(at))).collect();
    let (lo, lr) = (value("fig2/299/1"), value("fig2/299/2"));
    measured.insert("nonopt_reduction_pct", (lr - lo) / (1.0 - lo) * 100.0);
    let journal = &run()["runs.jsonl"];
    let age = journal.lines().find(|l| l.contains(r#""job":"age:ffs""#));
    let ops = exp::RunRecord::field_num(age.expect("age:ffs journaled"), "ops");
    measured.insert("ops", ops.unwrap());
    for &(key, realloc, ffs) in GAINS {
        measured.insert(key, (value(realloc) / value(ffs) - 1.0) * 100.0);
    }
    // Figure 5: realloc's worst layout of the benchmark's files up to
    // 56 KB, all of which the paper lays out perfectly.
    let upto_56kb = ["16", "24", "32", "48", "56"].map(|kb| value(&format!("fig5/{kb} KB/2")));
    let worst = upto_56kb.into_iter().fold(f64::MAX, f64::min);
    measured.insert("fig5_realloc_upto_56kb", worst);
    let committed = fidelity();
    let rows = split(committed);
    let mut table = format!("{}\n", rows[0].join("\t"));
    let mut over = Vec::new();
    for row in &rows[1..] {
        let (key, paper, ceiling) = (row[0], row[1], row[4]);
        let m = (measured.get(key).expect(key) * 1e4).round() / 1e4;
        let p: f64 = paper.parse().unwrap();
        let err = format!("{:+.2}", (m - p) / p.abs() * 100.0);
        if err.parse::<f64>().unwrap().abs() > ceiling.parse().unwrap() {
            over.push(key);
        }
        table += &format!("{key}\t{paper}\t{m}\t{err}\t{ceiling}\n");
    }
    assert!(
        over.is_empty() && table == committed && rows.len() == measured.len() + 1,
        "{} rows for {} keys; above their ceilings: {over:?}\ncomputed table:\n{table}",
        rows.len() - 1,
        measured.len()
    );
    // A key the frozen bench scores has `paper_refs.tsv`'s paper value,
    // and every key it scores `paper-all` by is here. That file is read,
    // never written.
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let refs = fs::read_to_string(root.join("../../benchmark/paper_refs.tsv")).unwrap();
    for r in split(&refs).iter().filter(|r| r.len() == 5) {
        let ours = rows[1..].iter().find(|c| c[0] == r[0]).map(|c| c[1]);
        let same = |p: &str| p.parse::<f64>() == r[2].parse();
        let agrees = ours.map_or(!r[1].contains("paper-all"), same);
        assert!(agrees, "{}: paper value vs paper_refs.tsv's {}", r[0], r[2]);
    }
}

#[test]
fn fig1_real_is_fig2_ffs() {
    // Figure 1's "real" file system is Figure 2's FFS replay, row for row.
    for day in 0..300 {
        let ffs_column = |exhibit| value(&format!("{exhibit}/{day}/1"));
        let (real, ffs) = (ffs_column("fig1"), ffs_column("fig2"));
        assert!(real == ffs, "day {day}: fig1 real {real} vs fig2 ffs {ffs}");
    }
}
