//! The paper-scale run and reading its exhibits by cell, shared by the
//! paper-scale tests.

// Each test binary that declares this module uses only part of it.
#![allow(dead_code)]

use std::collections::BTreeMap;
use std::fs;
use std::path::Path;
use std::sync::OnceLock;

use harness::ctx::Options;
use harness::driver::{self, EXHIBITS};

/// The files of a cold 300-day `harness all` over the 502 MB volume at
/// `seed`, by name: about 13 s in a debug build on two cores, about 1 s
/// in release.
pub fn run_all(seed: u64) -> BTreeMap<String, String> {
    let name = format!("harness-all-{}-{seed}", std::process::id());
    let out = std::env::temp_dir().join(name);
    let o = Options {
        seed,
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
}

/// Every file in `dir`, by name; subdirectories (a run's `cache/`) are
/// skipped.
pub fn files(dir: &Path) -> BTreeMap<String, String> {
    let mut files = BTreeMap::new();
    for entry in fs::read_dir(dir).expect("directory readable") {
        let entry = entry.unwrap();
        if entry.file_type().unwrap().is_dir() {
            continue;
        }
        let name = entry.file_name().into_string().unwrap();
        files.insert(name.clone(), fs::read_to_string(dir.join(name)).unwrap());
    }
    files
}

/// The committed `results/`, read once.
pub fn results() -> &'static BTreeMap<String, String> {
    static RESULTS: OnceLock<BTreeMap<String, String>> = OnceLock::new();
    RESULTS.get_or_init(|| files(&Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results")))
}

/// `text`'s lines split on tabs, `# ` stripped from comment lines, so
/// Figure 4's `# raw_read` baseline reads as a row like any other.
pub fn split<'a>(text: &'a str) -> Vec<Vec<&'a str>> {
    let cells = |l: &'a str| l.trim_start_matches("# ").split('\t').collect();
    text.lines().map(cells).collect()
}

/// The committed golden `tests/golden/<name>`.
pub fn golden(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name);
    fs::read_to_string(path).unwrap()
}

/// The committed seed-1996 ratchet, `golden/fidelity.tsv`, read once.
pub fn fidelity() -> &'static str {
    static FIDELITY: OnceLock<String> = OnceLock::new();
    FIDELITY.get_or_init(|| golden("fidelity.tsv"))
}

/// The number at `exhibit/row/column` in `files` (the row named by its
/// first cell, a trailing `%` dropped), or `at` itself if it is one.
/// The row `mean` is the column's mean over the rows a number names
/// (Figure 2's days). The exhibit `fidelity` is the committed ratchet,
/// whatever `files` is.
pub fn value(files: &BTreeMap<String, String>, at: &str) -> f64 {
    let at = at.trim();
    let Some((name, rest)) = at.split_once('/') else {
        return at.parse().unwrap();
    };
    let (first, col) = rest.rsplit_once('/').unwrap();
    let text = match name {
        "fidelity" => fidelity(),
        _ => files.get(&format!("{name}.tsv")).expect(at),
    };
    let (rows, col) = (split(text), col.parse::<usize>().unwrap());
    let cell = |r: &Vec<&str>| r[col].trim_end_matches('%').parse::<f64>().expect(at);
    if first == "mean" {
        let days: Vec<_> = rows
            .iter()
            .filter(|r| r[0].parse::<u32>().is_ok())
            .collect();
        return days.iter().map(|r| cell(r)).sum::<f64>() / days.len() as f64;
    }
    cell(rows.iter().find(|r| r[0] == first).expect(at))
}

/// Where each ratchet key is read: by the rules of the frozen bench's
/// `exhibit_sim` for the keys it scores, then the hot set, the aged
/// volumes and Figure 1.
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
    ("live_files_end", "table2/live_files/1"),
    ("gb_written", "table2/gb_written/1"),
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

/// Every ratchet key's value in the `harness all` run whose files are
/// `files` (its TSVs and `runs.jsonl`), rounded to four decimals as
/// `fidelity.tsv` commits it.
pub fn measured(files: &BTreeMap<String, String>) -> BTreeMap<&'static str, f64> {
    let at = |cell: &str| value(files, cell);
    let mut m: BTreeMap<_, _> = RULES.iter().map(|&(k, cell)| (k, at(cell))).collect();
    let (lo, lr) = (at("fig2/299/1"), at("fig2/299/2"));
    m.insert("nonopt_reduction_pct", (lr - lo) / (1.0 - lo) * 100.0);
    let journal = &files["runs.jsonl"];
    let age = journal.lines().find(|l| l.contains(r#""job":"age:ffs""#));
    let ops = exp::RunRecord::field_num(age.expect("age:ffs journaled"), "ops");
    m.insert("ops", ops.unwrap());
    for &(key, realloc, ffs) in GAINS {
        m.insert(key, (at(realloc) / at(ffs) - 1.0) * 100.0);
    }
    // Figure 5: realloc's worst layout of the benchmark's files up to
    // 56 KB, all of which the paper lays out perfectly.
    let upto_56kb = ["16", "24", "32", "48", "56"].map(|kb| at(&format!("fig5/{kb} KB/2")));
    m.insert(
        "fig5_realloc_upto_56kb",
        upto_56kb.into_iter().fold(f64::MAX, f64::min),
    );
    m.values_mut().for_each(|v| *v = (*v * 1e4).round() / 1e4);
    m
}

/// `measured`'s distance from `paper`, in percent of the paper's value.
pub fn err_pct(measured: f64, paper: f64) -> f64 {
    (measured - paper) / paper.abs() * 100.0
}

/// The paper's seven orderings, by the `paper_shapes.rs` test that
/// asserts each on the committed `results/`. Each shape's left cell is
/// above (`>`) or not below (`>=`) its right one; cells are
/// `exhibit/row/column` or plain numbers.
pub const ORDERINGS: [(&str, &[&str]); 7] = [
    (
        "fig2_realloc_stays_less_fragmented",
        &["fig2/299/2 > fig2/299/1", "fig2/mean/2 > fig2/mean/1"],
    ),
    (
        "fig1_layout_declines_with_age",
        &[
            "fig1/0/1 > fig1/299/1",
            "fig1/0/2 > fig1/299/2",
            "fig2/0/1 > fig2/299/1",
            "fig2/0/2 > fig2/299/2",
        ],
    ),
    ("fig3_two_block_quirk", &["fig3/32 KB/3 > fig3/16 KB/3"]),
    (
        "fig3_indirect_block_penalty",
        &[
            "fig5/96 KB/1 > fig5/104 KB/1",
            "fig5/96 KB/2 > fig5/104 KB/2",
        ],
    ),
    (
        "fig5_realloc_beats_orig_below_cluster_size",
        &[
            "fig5/24 KB/2 >= fig5/24 KB/1",
            "fig5/32 KB/2 >= fig5/32 KB/1",
            "fig5/48 KB/2 >= fig5/48 KB/1",
            "fig5/56 KB/2 >= fig5/56 KB/1",
        ],
    ),
    (
        "table2_hot_files_favor_realloc",
        &[
            "table2/layout_score/2 > table2/layout_score/1",
            "table2/read_mb_s/2 > table2/read_mb_s/1",
            "table2/write_mb_s/2 > table2/write_mb_s/1",
        ],
    ),
    (
        "aged_free_space_retains_large_clusters",
        &[
            "freespace/ffs/3 >= 7",
            "freespace/ffs_realloc/3 >= 7",
            "freespace/ffs/2 > 0.05",
            "freespace/ffs_realloc/2 > 0.05",
        ],
    ),
];

/// The shapes of ordering `name` that do not hold in `files`, each as
/// `shape: left vs right`.
pub fn broken(files: &BTreeMap<String, String>, name: &str) -> Vec<String> {
    let (_, shapes) = ORDERINGS.iter().find(|o| o.0 == name).expect(name);
    let mut out = Vec::new();
    for shape in shapes.iter() {
        let (left, right) = shape.split_once('>').unwrap();
        let (l, r) = (
            value(files, left),
            value(files, right.trim_start_matches('=')),
        );
        if !(l > r || (right.starts_with('=') && l == r)) {
            out.push(format!("{shape}: {l} vs {r}"));
        }
    }
    out
}
