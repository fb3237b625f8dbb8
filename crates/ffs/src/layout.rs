//! Layout-score analysis: the paper's fragmentation metric.
//!
//! Section 3.3 defines the *layout score* of a file as the fraction of its
//! blocks that are physically contiguous with the previous block of the
//! same file (the first block and one-block files are excluded), and the
//! *aggregate layout score* of a file system as the same fraction over all
//! allocated blocks. Figures 3, 5, and 6 additionally bin the score by
//! file size; [`size_bins_paper`] reproduces that axis (16 KB – 16 MB).

use ffs_types::{Ino, KB};

use crate::fs::{Filesystem, LayoutAgg};
use crate::geom::FPB;

/// One size bin of a layout-by-size analysis.
#[derive(Clone, Debug, PartialEq)]
pub struct SizeBinScore {
    /// Inclusive lower bound of the bin in bytes.
    pub lo: u64,
    /// Exclusive upper bound of the bin in bytes.
    pub hi: u64,
    /// Files that fell in the bin (scoreable or not).
    pub files: u64,
    /// Scoreable files in the bin.
    pub scored_files: u64,
    /// Aggregate layout counts over the bin's scoreable files.
    pub agg: LayoutAgg,
}

impl SizeBinScore {
    /// The bin's aggregate layout score, or `None` if nothing scoreable
    /// fell in it.
    pub fn score(&self) -> Option<f64> {
        (self.agg.scored > 0).then(|| self.agg.score())
    }

    /// Label for the bin, using its upper bound as in the paper's x axis.
    pub fn label(&self) -> String {
        ffs_types::units::fmt_bytes(self.hi)
    }
}

/// The paper's file-size axis: power-of-two bin edges from 16 KB to 16 MB.
/// Bin `i` covers `(edge[i-1], edge[i]]`; the first bin includes
/// everything at or below 16 KB that is scoreable.
pub fn size_bins_paper() -> Vec<u64> {
    let mut edges = Vec::new();
    let mut e = 16 * KB;
    while e <= 16 * 1024 * KB {
        edges.push(e);
        e *= 2;
    }
    edges
}

/// Recomputes the aggregate layout score from scratch by walking every
/// file. The incremental aggregate in [`Filesystem`] must always agree
/// with this (the consistency checker and property tests enforce it).
pub fn recompute_aggregate(fs: &Filesystem) -> LayoutAgg {
    let mut agg = LayoutAgg::default();
    for f in fs.files() {
        if let Some((opt, scored)) = f.layout_counts_at(FPB) {
            agg.opt += opt;
            agg.scored += scored;
        }
    }
    agg
}

/// Bins every scoreable file by size and aggregates layout per bin —
/// the computation behind Figures 3, 5, and 6. `filter` restricts the
/// file set (e.g. the "hot" files modified in the last month).
pub fn layout_by_size(
    fs: &Filesystem,
    edges: &[u64],
    mut filter: impl FnMut(Ino) -> bool,
) -> Vec<SizeBinScore> {
    let mut bins: Vec<SizeBinScore> = edges
        .iter()
        .enumerate()
        .map(|(i, &hi)| SizeBinScore {
            lo: if i == 0 { 0 } else { edges[i - 1] + 1 },
            hi,
            files: 0,
            scored_files: 0,
            agg: LayoutAgg::default(),
        })
        .collect();
    for f in fs.files() {
        if !filter(f.ino) {
            continue;
        }
        let Some(idx) = edges.iter().position(|&hi| f.size <= hi) else {
            continue;
        };
        let b = &mut bins[idx];
        b.files += 1;
        if let Some((opt, scored)) = f.layout_counts_at(FPB) {
            b.scored_files += 1;
            b.agg.opt += opt;
            b.agg.scored += scored;
        }
    }
    bins
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alloc::AllocPolicy;
    use ffs_types::{CgIdx, FsParams};

    fn aged_small_fs() -> Filesystem {
        let mut f = Filesystem::new(FsParams::small_test(), AllocPolicy::Orig);
        let d = f.mkdir_in(CgIdx(0)).unwrap();
        let inos: Vec<_> = (0..40)
            .map(|i| f.create(d, (8 + 8 * (i % 5)) * KB, i as u32).unwrap())
            .collect();
        for pair in inos.chunks(3) {
            f.remove(pair[0]).unwrap();
        }
        for i in 0..10 {
            f.create(d, 48 * KB, 100 + i).unwrap();
        }
        f
    }

    #[test]
    fn incremental_matches_recompute() {
        let f = aged_small_fs();
        assert_eq!(f.aggregate_layout(), recompute_aggregate(&f));
    }

    #[test]
    fn paper_bins_span_16kb_to_16mb() {
        let e = size_bins_paper();
        assert_eq!(e.first(), Some(&(16 * KB)));
        assert_eq!(e.last(), Some(&(16 * 1024 * KB)));
        assert_eq!(e.len(), 11);
    }

    #[test]
    fn by_size_partitions_files() {
        let f = aged_small_fs();
        let bins = layout_by_size(&f, &size_bins_paper(), |_| true);
        let total: u64 = bins.iter().map(|b| b.files).sum();
        assert_eq!(total as usize, f.nfiles());
    }

    #[test]
    fn by_size_respects_filter() {
        let f = aged_small_fs();
        let none = layout_by_size(&f, &size_bins_paper(), |_| false);
        assert!(none.iter().all(|b| b.files == 0));
        assert!(none.iter().all(|b| b.score().is_none()));
    }

    #[test]
    fn bin_labels_use_upper_bound() {
        let bins = layout_by_size(&aged_small_fs(), &size_bins_paper(), |_| true);
        assert_eq!(bins[0].label(), "16 KB");
        assert_eq!(bins.last().unwrap().label(), "16 MB");
    }

    #[test]
    fn scores_lie_in_unit_interval() {
        let f = aged_small_fs();
        for b in layout_by_size(&f, &size_bins_paper(), |_| true) {
            if let Some(s) = b.score() {
                assert!((0.0..=1.0).contains(&s), "score {s} out of range");
            }
        }
        let agg = f.aggregate_layout().score();
        assert!((0.0..=1.0).contains(&agg));
    }
}
