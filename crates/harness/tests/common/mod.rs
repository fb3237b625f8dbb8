//! Reading exhibits by cell, shared by the paper-scale tests.

use std::collections::BTreeMap;
use std::fs;
use std::path::Path;
use std::sync::OnceLock;

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

/// The committed fidelity ratchet, `golden/fidelity.tsv`, read once.
pub fn fidelity() -> &'static str {
    static FIDELITY: OnceLock<String> = OnceLock::new();
    FIDELITY.get_or_init(|| {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/fidelity.tsv");
        fs::read_to_string(path).unwrap()
    })
}

/// The number at `exhibit/row/column` in `files` (the row named by its
/// first cell, a trailing `%` dropped), or `at` itself if it is one.
/// The exhibit `fidelity` is the committed ratchet, whatever `files` is.
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
    let rows = split(text);
    let row = rows.iter().find(|r| r[0] == first).expect(at);
    let cell = row[col.parse::<usize>().unwrap()];
    cell.trim_end_matches('%').parse().expect(at)
}
