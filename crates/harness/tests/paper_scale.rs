//! The paper's claims at the paper's scale: one `harness all` over the
//! 502 MB volume for 300 days at seed 1996. Its TSVs must be `results/`
//! byte for byte, and its distance from the paper must be
//! `golden/fidelity.tsv`'s measured and error cells byte for byte: the
//! seed-1996 determinism pin. The ceilings on that distance are the
//! eight-seed band's, `golden/fidelity_seeds.tsv`, which `seed_band.rs`
//! holds. `paper_shapes.rs` asserts the paper's orderings on the same
//! bytes.

mod common;

use std::collections::BTreeMap;
use std::fs;
use std::path::Path;
use std::sync::OnceLock;

use common::{fidelity, results, run_all, split};
use harness::ctx::Options;

/// The files of the one run every test here reads: the default seed,
/// 1996.
fn run() -> &'static BTreeMap<String, String> {
    static RUN: OnceLock<BTreeMap<String, String>> = OnceLock::new();
    RUN.get_or_init(|| run_all(Options::default().seed))
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

/// Recomputes every committed row from its paper value and the run,
/// rounded as committed so a reader can redo the arithmetic.
#[test]
fn fidelity_equals_the_run() {
    let measured = common::measured(run());
    let committed = fidelity();
    let rows = split(committed);
    let mut table = format!("{}\n", rows[0].join("\t"));
    for row in &rows[1..] {
        let (key, paper) = (row[0], row[1]);
        let m = *measured.get(key).expect(key);
        let err = common::err_pct(m, paper.parse().unwrap());
        table += &format!("{key}\t{paper}\t{m}\t{err:+.2}\n");
    }
    assert!(
        table == committed && rows.len() == measured.len() + 1,
        "{} rows for {} keys; computed table:\n{table}",
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
