//! The paper's qualitative claims, one test each, asserted on the
//! committed 300-day `results/*.tsv`: the bytes `paper_scale.rs` holds
//! equal to a fresh `harness all` over the 502 MB volume. The known
//! inversions (deviation 5's late Figure 1 ordering, Figure 4's small-
//! and large-file reads) are not asserted; the fidelity ratchet carries
//! them.

mod common;

use std::collections::BTreeMap;
use std::fs;
use std::path::Path;

use ffs_types::FsParams;

/// Ordering `name` of `common::ORDERINGS` holds on the committed
/// `results/`.
fn assert_ordering(name: &str) {
    let broken = common::broken(common::results(), name);
    assert!(broken.is_empty(), "{name}: {}", broken.join("; "));
}

/// Figure 2: the realloc policy ages better, at the end of the run and
/// on the mean over all 300 days.
#[test]
fn fig2_realloc_stays_less_fragmented() {
    assert_ordering("fig2_realloc_stays_less_fragmented");
}

/// Figures 1 and 2: every curve declines as the file system ages.
#[test]
fn fig1_layout_declines_with_age() {
    assert_ordering("fig1_layout_declines_with_age");
}

/// Figure 3's two-block quirk: on the realloc file system, two-block
/// files (too small to trigger the realloc pass) lay out worse than
/// slightly larger ones.
#[test]
fn fig3_two_block_quirk() {
    assert_ordering("fig3_two_block_quirk");
}

/// Section 4: the thirteenth block of a file, the first one mapped by
/// the indirect block, is never optimal, on both policies. The
/// benchmark's layout dips from 12 blocks (96 KB) to 13 (104 KB).
/// `ffs::fs::tests::indirect_block_forces_group_switch` checks it file
/// by file.
#[test]
fn fig3_indirect_block_penalty() {
    assert_ordering("fig3_indirect_block_penalty");
}

/// Figure 5: on the aged file system, realloc lays the benchmark's files
/// out no worse than FFS below the 64 KB cluster size.
#[test]
fn fig5_realloc_beats_orig_below_cluster_size() {
    assert_ordering("fig5_realloc_beats_orig_below_cluster_size");
}

/// Table 2: the recently modified files favour realloc on layout, read
/// and write.
#[test]
fn table2_hot_files_favor_realloc() {
    assert_ordering("table2_hot_files_favor_realloc");
}

/// Section 6 (via Smith94): both aged file systems keep free runs of at
/// least `maxcontig` blocks, and clusterable space above 5 %.
#[test]
fn aged_free_space_retains_large_clusters() {
    assert_eq!(FsParams::paper_502mb().maxcontig, 7);
    assert_ordering("aged_free_space_retains_large_clusters");
}

/// The docs quote measured numbers and never copy them. In README and
/// EXPERIMENTS each one is followed by its cell's address in an HTML
/// comment, `0.7847 <!-- fig2/299/1 -->` (a derived number names its
/// `fidelity/<key>/2`), and must equal that cell to the digits it shows.
/// A four-decimal number, the precision of every layout column in
/// `results/`, must carry one. Every `name.rs::fn_name` in README,
/// DESIGN or EXPERIMENTS must name a `fn` of a file called `name.rs`.
/// A failure lists each stale quote as `file:line: found → cell (address)`.
#[test]
fn docs_quote_the_committed_cells() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let sources = rust_sources(&root);
    let mut stale = Vec::new();
    for doc in ["README.md", "EXPERIMENTS.md", "DESIGN.md"] {
        let text = fs::read_to_string(root.join(doc)).unwrap();
        for (n, line) in text.lines().enumerate() {
            let here = format!("{doc}:{}", n + 1);
            for (file, name) in fn_references(line) {
                let fns = [format!("fn {name}("), format!("fn {name}<")];
                let mut srcs = sources.get(file).into_iter().flatten();
                if !srcs.any(|src| fns.iter().any(|f| src.contains(f.as_str()))) {
                    stale.push(format!("{here}: {file}::{name} → no such fn"));
                }
            }
            if doc == "DESIGN.md" {
                continue;
            }
            for (found, address) in numbers(line) {
                let Some(at) = address else {
                    if four_decimals(found) {
                        stale.push(format!("{here}: {found} → ? (no address)"));
                    }
                    continue;
                };
                let cell = common::value(common::results(), at);
                let q: f64 = found.replace('−', "-").parse().unwrap();
                let digits = found.split_once('.').map_or(0, |(_, d)| d.len());
                if (q - cell).abs() > 0.5 * 10f64.powi(-(digits as i32)) + 1e-9 {
                    stale.push(format!("{here}: {found} → {cell} ({at})"));
                }
            }
        }
    }
    assert!(stale.is_empty(), "stale quotes:\n{}", stale.join("\n"));
}

/// Every number in `line`, signed when a `+`, `-` or `−` is glued to it,
/// with the address of the `<!-- … -->` that follows it (past an
/// optional `%`), if one does.
fn numbers(line: &str) -> Vec<(&str, Option<&str>)> {
    let mut out = Vec::new();
    let mut rest = line;
    while let Some(i) = rest.find(|c: char| c.is_ascii_digit()) {
        let sign = rest[..i].chars().next_back().filter(|c| "+-−".contains(*c));
        let start = i - sign.map_or(0, char::len_utf8);
        let len = rest[i..]
            .find(|c: char| !c.is_ascii_digit() && c != '.')
            .unwrap_or(rest.len() - i);
        let found = rest[start..i + len].trim_end_matches('.');
        rest = &rest[i + len..];
        let after = rest.trim_start().trim_start_matches('%').trim_start();
        let comment = after.strip_prefix("<!--").and_then(|c| c.split_once("-->"));
        if let Some((_, tail)) = comment {
            rest = tail;
        }
        out.push((found, comment.map(|(at, _)| at.trim())));
    }
    out
}

/// `0.7847`, not `0.78` or `1.2.3.4`.
fn four_decimals(n: &str) -> bool {
    n.split_once('.')
        .is_some_and(|(_, d)| d.len() == 4 && !d.contains('.'))
}

/// The `(file.rs, fn_name)` of every `file.rs::fn_name` in `line`.
fn fn_references(line: &str) -> Vec<(&str, &str)> {
    let word = |c: char| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_';
    let mut out = Vec::new();
    for (i, _) in line.match_indices(".rs::") {
        let stem = line[..i].trim_end_matches(word);
        let name = &line[i + 5..];
        let name = &name[..name.find(|c| !word(c)).unwrap_or(name.len())];
        if stem.len() < i && !name.is_empty() {
            out.push((&line[stem.len()..i + 3], name));
        }
    }
    out
}

/// The text of every `.rs` file under `root`, by file name; build
/// output is skipped.
fn rust_sources(root: &Path) -> BTreeMap<String, Vec<String>> {
    let mut sources: BTreeMap<String, Vec<String>> = BTreeMap::new();
    let mut dirs = vec![root.to_path_buf()];
    while let Some(dir) = dirs.pop() {
        for entry in fs::read_dir(dir).unwrap() {
            let path = entry.unwrap().path();
            let name = path.file_name().unwrap().to_str().unwrap().to_string();
            if path.is_dir() && name != "target" && !name.starts_with('.') {
                dirs.push(path);
            } else if name.ends_with(".rs") {
                let text = fs::read_to_string(&path).unwrap();
                sources.entry(name).or_default().push(text);
            }
        }
    }
    sources
}
