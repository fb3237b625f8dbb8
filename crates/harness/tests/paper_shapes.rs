//! The paper's qualitative claims, one test each, asserted on the
//! committed 300-day `results/*.tsv`: the bytes `paper_scale.rs` holds
//! equal to a fresh `harness all` over the 502 MB volume. The known
//! inversions (deviation 5's late Figure 1 ordering, Figure 4's small-
//! and large-file reads) are not asserted; the fidelity ratchet carries
//! them.

mod common;

use ffs_types::FsParams;

/// Each shape's left cell is above (`>`) or not below (`>=`) its right
/// one; cells are `exhibit/row/column` in `results/` or plain numbers.
fn assert_shapes(shapes: &[&str]) {
    for shape in shapes {
        let (left, right) = shape.split_once('>').unwrap();
        let at = |cell| common::value(common::results(), cell);
        let (l, r) = (at(left), at(right.trim_start_matches('=')));
        let holds = l > r || (right.starts_with('=') && l == r);
        assert!(holds, "{shape}: {l} vs {r}");
    }
}

/// Figure 2: the realloc policy ages better, at the end of the run and
/// on the mean over all 300 days.
#[test]
fn fig2_realloc_stays_less_fragmented() {
    assert_shapes(&["fig2/299/2 > fig2/299/1"]);
    let mean = |col| {
        let day = |d| common::value(common::results(), &format!("fig2/{d}/{col}"));
        (0..300).map(day).sum::<f64>() / 300.0
    };
    let (ffs, realloc) = (mean(1), mean(2));
    assert!(realloc > ffs, "fig2 mean: realloc {realloc} vs ffs {ffs}");
}

/// Figures 1 and 2: every curve declines as the file system ages.
#[test]
fn fig1_layout_declines_with_age() {
    assert_shapes(&[
        "fig1/0/1 > fig1/299/1",
        "fig1/0/2 > fig1/299/2",
        "fig2/0/1 > fig2/299/1",
        "fig2/0/2 > fig2/299/2",
    ]);
}

/// Figure 3's two-block quirk: on the realloc file system, two-block
/// files (too small to trigger the realloc pass) lay out worse than
/// slightly larger ones.
#[test]
fn fig3_two_block_quirk() {
    assert_shapes(&["fig3/32 KB/3 > fig3/16 KB/3"]);
}

/// Section 4: the thirteenth block of a file, the first one mapped by
/// the indirect block, is never optimal, on both policies. The
/// benchmark's layout dips from 12 blocks (96 KB) to 13 (104 KB).
/// `ffs::fs::tests::indirect_block_forces_group_switch` checks it file
/// by file.
#[test]
fn fig3_indirect_block_penalty() {
    assert_shapes(&[
        "fig5/96 KB/1 > fig5/104 KB/1",
        "fig5/96 KB/2 > fig5/104 KB/2",
    ]);
}

/// Figure 5: on the aged file system, realloc lays the benchmark's files
/// out no worse than FFS below the 64 KB cluster size.
#[test]
fn fig5_realloc_beats_orig_below_cluster_size() {
    assert_shapes(&[
        "fig5/24 KB/2 >= fig5/24 KB/1",
        "fig5/32 KB/2 >= fig5/32 KB/1",
        "fig5/48 KB/2 >= fig5/48 KB/1",
        "fig5/56 KB/2 >= fig5/56 KB/1",
    ]);
}

/// Table 2: the recently modified files favour realloc on layout, read
/// and write.
#[test]
fn table2_hot_files_favor_realloc() {
    assert_shapes(&[
        "table2/layout_score/2 > table2/layout_score/1",
        "table2/read_mb_s/2 > table2/read_mb_s/1",
        "table2/write_mb_s/2 > table2/write_mb_s/1",
    ]);
}

/// Section 6 (via Smith94): both aged file systems keep free runs of at
/// least `maxcontig` blocks, and clusterable space above 5 %.
#[test]
fn aged_free_space_retains_large_clusters() {
    assert_eq!(FsParams::paper_502mb().maxcontig, 7);
    assert_shapes(&[
        "freespace/ffs/3 >= 7",
        "freespace/ffs_realloc/3 >= 7",
        "freespace/ffs/2 > 0.05",
        "freespace/ffs_realloc/2 > 0.05",
    ]);
}
