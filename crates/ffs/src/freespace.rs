//! Free-space extent analysis.
//!
//! The paper's motivation (via Smith94) is that aged UNIX file systems
//! still contain many large clusters of free space that the original
//! allocator fails to exploit. This module measures exactly that: the
//! distribution of maximal free-cluster lengths across the file system.

use ffs_types::CgIdx;

use crate::fs::Filesystem;
use crate::geom::FPB;

/// Distribution of maximal free-cluster lengths.
#[derive(Clone, Debug, PartialEq)]
pub struct FreeSpaceStats {
    /// `hist[k]` counts maximal runs of exactly `k + 1` free blocks;
    /// the final bucket aggregates everything at least as long.
    pub hist: Vec<u32>,
    /// Total fully free blocks.
    pub free_blocks: u64,
    /// Blocks inside runs at least `maxcontig` long — space a clustering
    /// allocator could still use for full-size clusters.
    pub clusterable_blocks: u64,
    /// Length of the longest free run.
    pub longest_run: u32,
}

impl FreeSpaceStats {
    /// Fraction of free blocks sitting in runs of at least `maxcontig`
    /// blocks (1.0 when there are no free blocks at all).
    pub fn clusterable_fraction(&self) -> f64 {
        if self.free_blocks == 0 {
            1.0
        } else {
            self.clusterable_blocks as f64 / self.free_blocks as f64
        }
    }
}

/// Fragment-packing statistics: how well sub-block allocations fill the
/// partially allocated blocks they share.
#[derive(Clone, Debug, PartialEq)]
pub struct FragSpaceStats {
    /// Partially allocated data blocks (neither fully free nor full).
    pub partial_blocks: u64,
    /// Free fragments stranded inside those partial blocks — space no
    /// whole-block allocation can use.
    pub free_frags_in_partial: u64,
    /// `fill_hist[k]` counts partial blocks with exactly `k + 1`
    /// allocated fragments (seven entries; a partial block holds
    /// between 1 and 7 allocated fragments).
    pub fill_hist: Vec<u64>,
    /// Per-size free-run histogram summed over all groups: entry `k`
    /// counts maximal free runs of exactly `k + 1` fragments in partial
    /// blocks (the fleet-wide `cg_frsum`).
    pub frsum_totals: Vec<u64>,
}

impl FragSpaceStats {
    /// Mean allocated fragments per partial block (0.0 when no block is
    /// partial).
    pub fn mean_fill(&self) -> f64 {
        let blocks: u64 = self.fill_hist.iter().sum();
        if blocks == 0 {
            return 0.0;
        }
        let frags: u64 = self
            .fill_hist
            .iter()
            .enumerate()
            .map(|(i, &n)| (i as u64 + 1) * n)
            .sum();
        frags as f64 / blocks as f64
    }
}

/// Computes fragment-packing statistics: one walk of every group's
/// block lanes for the partial-block census, plus a fold of each
/// group's fragment summary. Nothing keeps the census incrementally —
/// its one caller, the `smallfile` exhibit, asks a few dozen times a
/// run.
pub fn frag_space_stats(fs: &Filesystem) -> FragSpaceStats {
    let mut stats = FragSpaceStats {
        partial_blocks: 0,
        free_frags_in_partial: 0,
        fill_hist: vec![0u64; (FPB - 1) as usize],
        frsum_totals: vec![0u64; (FPB - 1) as usize],
    };
    for g in 0..fs.ncg() {
        let cg = fs.cg(CgIdx(g));
        for (i, &n) in cg.frag_summary().iter().enumerate() {
            stats.frsum_totals[i] += n as u64;
        }
        for b in cg.meta_blocks()..cg.nblocks() {
            let lane = cg.map_byte(b);
            if lane == 0 || lane == 0xFF {
                continue;
            }
            let used = lane.count_ones();
            stats.partial_blocks += 1;
            stats.free_frags_in_partial += u64::from(FPB - used);
            stats.fill_hist[(used - 1) as usize] += 1;
        }
    }
    stats
}

/// Computes the free-cluster distribution by walking each group's
/// maximal free runs off its free-block bitmap, a word at a time.
/// `hist_max` bounds the histogram length; runs longer than that land in
/// the last bucket (their blocks are still counted exactly), and
/// `hist_max == 0` asks for the totals alone. (Reference: a count off
/// `cg_blksfree`, in `tests/bsd/mod.rs`.)
pub fn free_space_stats(fs: &Filesystem, hist_max: usize) -> FreeSpaceStats {
    let maxcontig = fs.params().maxcontig;
    let mut stats = FreeSpaceStats {
        hist: vec![0u32; hist_max],
        free_blocks: 0,
        clusterable_blocks: 0,
        longest_run: 0,
    };
    for g in 0..fs.ncg() {
        for (_, run) in fs.cg(CgIdx(g)).free_runs() {
            obs::hist!("ffs.free_extent_blocks", obs::bounds::POW2, run);
            if hist_max > 0 {
                stats.hist[(run as usize - 1).min(hist_max - 1)] += 1;
            }
            stats.free_blocks += run as u64;
            if run >= maxcontig {
                stats.clusterable_blocks += run as u64;
            }
            stats.longest_run = stats.longest_run.max(run);
        }
    }
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alloc::AllocPolicy;
    use crate::geom::DIR_FRAGS;
    use ffs_types::{FsParams, KB, MB};

    #[test]
    fn empty_fs_is_fully_clusterable() {
        let fs = Filesystem::new(FsParams::small_test(), AllocPolicy::Orig);
        let s = free_space_stats(&fs, 64);
        assert_eq!(s.free_blocks, fs.free_blocks());
        assert_eq!(s.clusterable_fraction(), 1.0);
        assert!(s.longest_run > 100);
    }

    #[test]
    fn holes_reduce_clusterable_fraction() {
        let mut fs = Filesystem::new(FsParams::small_test(), AllocPolicy::Orig);
        let d = fs.mkdir().unwrap();
        let inos: Vec<_> = (0..400).map(|i| fs.create(d, 8 * KB, i).unwrap()).collect();
        for pair in inos.chunks(2) {
            fs.remove(pair[0]).unwrap();
        }
        let s = free_space_stats(&fs, 64);
        // Alternating single-block holes: many length-1 runs.
        assert!(
            s.hist[0] > 100,
            "expected single-block holes: {:?}",
            &s.hist[..4]
        );
        assert!(s.clusterable_fraction() < 1.0);
        assert_eq!(
            s.free_blocks,
            fs.free_blocks(),
            "every free block is in some run"
        );
    }

    #[test]
    fn frag_stats_count_partial_blocks() {
        // Every fill level: the directory's fragment and a file's tail of
        // the other `used - 1` leave one partial block, one free run of
        // `8 - used`.
        let params = FsParams::small_test();
        for used in 1..8u32 {
            let mut fs = Filesystem::new(params.clone(), AllocPolicy::Orig);
            let d = fs.mkdir().unwrap();
            fs.create(d, ((used - DIR_FRAGS) * params.fsize) as u64, 0)
                .unwrap();
            let s = frag_space_stats(&fs);
            let case = format!("{used} allocated: {s:?}");
            assert_eq!(s.partial_blocks, 1, "{case}");
            assert_eq!(s.free_frags_in_partial, (8 - used) as u64, "{case}");
            let mut hist = vec![0u64; 7];
            hist[(used - 1) as usize] = 1;
            assert_eq!(s.fill_hist, hist, "{case}");
            assert!((s.mean_fill() - used as f64).abs() < 1e-9, "{case}");
            let mut frsum = vec![0u64; 7];
            for g in 0..fs.ncg() {
                for (i, &n) in fs.cg(CgIdx(g)).frag_summary().iter().enumerate() {
                    frsum[i] += n as u64;
                }
            }
            assert_eq!(s.frsum_totals, frsum, "{case}");
            assert_eq!(s.frsum_totals[(8 - used - 1) as usize], 1, "{case}");
        }
    }

    #[test]
    fn zero_free_blocks_is_vacuously_clusterable() {
        // Fill every data block: one-block files until allocation fails.
        let mut fs = Filesystem::new(FsParams::small_test(), AllocPolicy::Orig);
        let d = fs.mkdir().unwrap();
        let mut day = 0;
        while fs.create(d, 8 * KB, day).is_ok() {
            day += 1;
        }
        assert_eq!(fs.free_blocks(), 0);
        let s = free_space_stats(&fs, 64);
        assert_eq!(s.free_blocks, 0);
        assert_eq!(s.longest_run, 0);
        assert_eq!(s.clusterable_blocks, 0);
        assert!(s.hist.iter().all(|&c| c == 0));
        // Vacuous case pinned: no free space means nothing is fragmented.
        assert_eq!(s.clusterable_fraction(), 1.0);
    }

    #[test]
    fn single_run_spanning_volume_lands_in_overflow_bucket() {
        // One cylinder group, untouched: the whole data area is a single
        // maximal run, longer than any histogram this test asks for.
        let params = FsParams {
            size_bytes: 4 * MB,
            ncg: 1,
            ..FsParams::small_test()
        };
        let fs = Filesystem::new(params, AllocPolicy::Orig);
        let data = fs.free_blocks();
        let s = free_space_stats(&fs, 16);
        assert_eq!(s.hist.iter().sum::<u32>(), 1, "exactly one run");
        assert_eq!(s.hist[15], 1, "pooled in the overflow bucket");
        assert_eq!(s.longest_run as u64, data);
        assert_eq!(s.free_blocks, data);
        assert_eq!(s.clusterable_fraction(), 1.0);
    }

    #[test]
    fn all_blocks_free_counts_one_run_per_group() {
        let fs = Filesystem::new(FsParams::small_test(), AllocPolicy::Orig);
        let s = free_space_stats(&fs, 4096);
        assert_eq!(s.hist.iter().sum::<u32>(), fs.ncg(), "one run per group");
        assert_eq!(s.free_blocks, fs.free_blocks());
        assert_eq!(s.clusterable_fraction(), 1.0);
        let frag = frag_space_stats(&fs);
        assert_eq!(frag.partial_blocks, 0);
        assert_eq!(frag.free_frags_in_partial, 0);
    }

    #[test]
    fn zero_length_histogram_keeps_the_totals() {
        let mut fs = Filesystem::new(FsParams::small_test(), AllocPolicy::Orig);
        let d = fs.mkdir().unwrap();
        let inos: Vec<_> = (0..40).map(|i| fs.create(d, 8 * KB, i).unwrap()).collect();
        for pair in inos.chunks(2) {
            fs.remove(pair[0]).unwrap();
        }
        let (none, some) = (free_space_stats(&fs, 0), free_space_stats(&fs, 64));
        assert!(none.hist.is_empty());
        assert_eq!(none.free_blocks, fs.free_blocks());
        assert_eq!(
            (none.free_blocks, none.clusterable_blocks, none.longest_run),
            (some.free_blocks, some.clusterable_blocks, some.longest_run)
        );
    }

    #[test]
    fn histogram_blocks_sum_to_free_blocks() {
        let mut fs = Filesystem::new(FsParams::small_test(), AllocPolicy::Realloc);
        let d = fs.mkdir().unwrap();
        for i in 0..50 {
            fs.create(d, (5 + i % 90) * KB, i as u32).unwrap();
        }
        let s = free_space_stats(&fs, 4096);
        let from_hist: u64 = s
            .hist
            .iter()
            .enumerate()
            .map(|(i, &n)| (i as u64 + 1) * n as u64)
            .sum();
        assert_eq!(from_hist, s.free_blocks);
    }
}
