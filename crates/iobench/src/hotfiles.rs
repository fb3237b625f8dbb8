//! The existing-file ("hot file") benchmark of Section 5.2.
//!
//! The sequential benchmark creates its own files; real files are created
//! amid interleaved creates and deletes. This benchmark therefore takes
//! the files most recently modified by the aging workload (the set most
//! likely to be touched again, per the file-lifetime studies the paper
//! cites), sorts them by directory so several files are read per cylinder
//! group before seeking away, reads them all, and then overwrites them in
//! place — preserving their layout, so write throughput excludes
//! allocation and create overhead. This regenerates Table 2 and Figure 6.

use disk::{Device, DeviceStats, IoKind};
use ffs::fs::LayoutAgg;
use ffs::Filesystem;
use ffs_types::units::mb_per_sec;
use ffs_types::{DiskParams, Ino};

use crate::map::{FsDiskMap, IoEngine};

/// Result of the hot-file benchmark (one column of Table 2).
#[derive(Clone, Debug)]
pub struct HotFilesResult {
    /// Files in the hot set.
    pub nfiles: usize,
    /// Bytes in the hot set.
    pub bytes: u64,
    /// Aggregate layout of the hot set.
    pub layout: LayoutAgg,
    /// Read throughput over the whole set, MB/s.
    pub read_mb_s: f64,
    /// In-place overwrite throughput over the whole set, MB/s.
    pub write_mb_s: f64,
    /// Simulated-device counters over both phases, for run records.
    pub device: DeviceStats,
}

impl HotFilesResult {
    /// Layout score of the hot set.
    pub fn layout_score(&self) -> f64 {
        self.layout.score()
    }
}

/// Sorts the hot set by directory (then inode), as the paper does to
/// limit cross-group seeking.
pub fn sort_by_directory(fs: &Filesystem, mut inos: Vec<Ino>) -> Vec<Ino> {
    inos.sort_by_key(|&ino| {
        let f = fs.file(ino).expect("hot file is live");
        (f.dir, ino)
    });
    inos
}

/// Runs the benchmark over `hot` (inodes of live files) on the aged file
/// system.
pub fn run_hot_files(fs: &Filesystem, hot: &[Ino], disk: &DiskParams) -> HotFilesResult {
    let params = fs.params().clone();
    let order = sort_by_directory(fs, hot.to_vec());
    let mut dev = Device::new(disk.clone());
    let map = FsDiskMap::new(&params, disk.sector_size, 0);
    let mut bytes = 0u64;
    let mut layout = LayoutAgg::default();
    for &ino in &order {
        let f = fs.file(ino).expect("hot file is live");
        bytes += f.size;
        if let Some((opt, scored)) = f.layout_counts(&params) {
            layout.opt += opt;
            layout.scored += scored;
        }
    }
    // Read phase.
    let t0 = dev.now();
    for &ino in &order {
        let meta = fs.file(ino).expect("hot file is live");
        let mut eng = IoEngine::new(&mut dev, &params, map);
        eng.transfer_file(IoKind::Read, meta, &params);
    }
    let read_us = dev.now() - t0;
    // Overwrite phase: same blocks, no allocation.
    let t1 = dev.now();
    for &ino in &order {
        let meta = fs.file(ino).expect("hot file is live");
        let mut eng = IoEngine::new(&mut dev, &params, map);
        eng.transfer_file(IoKind::Write, meta, &params);
    }
    let write_us = dev.now() - t1;
    HotFilesResult {
        nfiles: order.len(),
        bytes,
        layout,
        read_mb_s: mb_per_sec(bytes, read_us),
        write_mb_s: mb_per_sec(bytes, write_us),
        device: dev.stats().clone(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ffs::AllocPolicy;
    use ffs_types::{FsParams, KB};

    fn fs_with_files() -> (Filesystem, Vec<Ino>) {
        let mut fs = Filesystem::new(FsParams::small_test(), AllocPolicy::Realloc);
        let dirs = fs.mkdir_per_cg().unwrap();
        let mut inos = Vec::new();
        for i in 0..30u32 {
            let d = dirs[(i % 4) as usize];
            inos.push(fs.create(d, (16 + 8 * (i % 6)) as u64 * KB, i).unwrap());
        }
        (fs, inos)
    }

    #[test]
    fn results_are_positive_and_sized() {
        let (fs, inos) = fs_with_files();
        let r = run_hot_files(&fs, &inos, &DiskParams::seagate_32430n());
        assert_eq!(r.nfiles, 30);
        assert!(r.bytes > 30 * 16 * KB);
        assert!(r.read_mb_s > 0.0);
        assert!(r.write_mb_s > 0.0);
        assert!((0.0..=1.0).contains(&r.layout_score()));
        assert!(r.device.reads > 0 && r.device.writes > 0);
    }

    #[test]
    fn reads_outrun_overwrites() {
        // Same blocks both phases; the track buffer only helps reads.
        let (fs, inos) = fs_with_files();
        let r = run_hot_files(&fs, &inos, &DiskParams::seagate_32430n());
        assert!(
            r.read_mb_s > r.write_mb_s,
            "read {:.2} <= write {:.2}",
            r.read_mb_s,
            r.write_mb_s
        );
    }

    #[test]
    fn directory_sort_groups_files() {
        let (fs, inos) = fs_with_files();
        let sorted = sort_by_directory(&fs, inos);
        let dirs: Vec<_> = sorted.iter().map(|&i| fs.file(i).unwrap().dir).collect();
        let mut dedup = dirs.clone();
        dedup.dedup();
        // Once a directory is left, it is never revisited.
        let mut seen = std::collections::BTreeSet::new();
        for d in &dedup {
            assert!(seen.insert(*d), "directory {d:?} revisited");
        }
    }

    #[test]
    fn empty_hot_set_is_harmless() {
        let (fs, _) = fs_with_files();
        let r = run_hot_files(&fs, &[], &DiskParams::seagate_32430n());
        assert_eq!(r.nfiles, 0);
        assert_eq!(r.bytes, 0);
        assert_eq!(r.read_mb_s, 0.0);
    }

    #[test]
    fn benchmark_does_not_mutate_fs() {
        let (fs, inos) = fs_with_files();
        let before = fs.free_frags();
        run_hot_files(&fs, &inos, &DiskParams::seagate_32430n());
        assert_eq!(fs.free_frags(), before);
    }
}
