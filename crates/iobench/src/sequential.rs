//! The sequential I/O benchmark of Section 5.1.
//!
//! Thirty-two megabytes of data are decomposed into files of the size
//! under test, spread over subdirectories of at most twenty-five files
//! (so the data crosses several cylinder groups), created/written in one
//! pass, and then read back in creation order; both phases use 4 MB
//! application I/Os. Running it against an *aged* file system is the
//! point: the allocator must find space in fragmented free maps, and the
//! resulting layout drives throughput (Figures 4 and 5).

use disk::{Device, DeviceStats, IoKind};
use ffs::fs::LayoutAgg;
use ffs::Filesystem;
use ffs_types::units::mb_per_sec;
use ffs_types::{DiskParams, FsError, FsResult, Ino, KB, MB};

use crate::map::{FsDiskMap, IoEngine};

/// Parameters of the sequential benchmark.
#[derive(Clone, Debug)]
pub struct SeqBenchConfig {
    /// Total data volume (32 MB in the paper).
    pub total_bytes: u64,
    /// Maximum files per subdirectory (25 in the paper).
    pub files_per_dir: u32,
    /// Disk parameters for the timing run.
    pub disk: DiskParams,
}

impl Default for SeqBenchConfig {
    fn default() -> Self {
        SeqBenchConfig {
            total_bytes: 32 * MB,
            files_per_dir: 25,
            disk: DiskParams::seagate_32430n(),
        }
    }
}

/// One point of the Figure 4 / Figure 5 sweep.
#[derive(Clone, Debug)]
pub struct SeqPoint {
    /// File size measured, in bytes.
    pub file_size: u64,
    /// Files created.
    pub nfiles: u32,
    /// Create/write throughput in MB/s (includes the synchronous
    /// metadata updates, as in the paper).
    pub write_mb_s: f64,
    /// Read throughput in MB/s.
    pub read_mb_s: f64,
    /// Aggregate layout of the files the benchmark created (Figure 5).
    pub layout: LayoutAgg,
    /// Simulated-device counters over both phases, for run records.
    pub device: DeviceStats,
}

impl SeqPoint {
    /// Layout score of the benchmark's files (1.0 when unscoreable,
    /// matching the aggregate convention).
    pub fn layout_score(&self) -> f64 {
        self.layout.score()
    }
}

/// The file sizes of the Figure 4 sweep: 16 KB to 32 MB, with extra
/// resolution around the 56 KB cluster size, the 64 KB maximum transfer,
/// and the 104 KB first-indirect-block boundary.
pub fn paper_file_sizes() -> Vec<u64> {
    [
        16u64, 24, 32, 48, 56, 64, 80, 96, 104, 112, 128, 192, 256, 384, 512, 768, 1024, 1536,
        2048, 4096, 8192, 16384, 32768,
    ]
    .iter()
    .map(|kb| kb * KB)
    .collect()
}

/// Runs one point of the sequential benchmark against a copy of the
/// given (typically aged) file system's free space, so sweep points are
/// independent. The benchmark only writes and reads its own new files,
/// so the copy leaves out the aged file table
/// ([`Filesystem::copy_free_space`]); every placement is the one a full
/// clone would make.
///
/// A zero `file_size` or `config.files_per_dir` is
/// [`FsError::InvalidArg`]: both divide the data into files and
/// directories.
pub fn run_point(aged: &Filesystem, config: &SeqBenchConfig, file_size: u64) -> FsResult<SeqPoint> {
    if file_size == 0 {
        return Err(FsError::InvalidArg("file_size must be positive"));
    }
    if config.files_per_dir == 0 {
        return Err(FsError::InvalidArg("files_per_dir must be positive"));
    }
    let mut fs = aged.copy_free_space();
    let params = fs.params().clone();
    let nfiles = (config.total_bytes / file_size).max(1) as u32;
    let ndirs = nfiles.div_ceil(config.files_per_dir);
    let dirs: Vec<_> = (0..ndirs).map(|_| fs.mkdir()).collect::<FsResult<_>>()?;
    let mut dev = Device::new(config.disk.clone());
    let map = FsDiskMap::new(&params, config.disk.sector_size, 0);

    // Phase 1: create/write.
    let t0 = dev.now();
    let mut inos: Vec<Ino> = Vec::with_capacity(nfiles as usize);
    for i in 0..nfiles {
        let dir = dirs[(i / config.files_per_dir) as usize];
        let ino = fs.create(dir, file_size, 0)?;
        inos.push(ino);
        // Synchronous metadata updates: the new inode's table block and
        // the directory's entry block.
        let (cg, slot) = params.ino_to_cg(ino);
        let inode_block = params.inode_daddr(cg, slot);
        let dir_block = fs.dir(dir).expect("dir exists").block;
        let meta = fs.file(ino).expect("file exists");
        let mut eng = IoEngine::new(&mut dev, &params, map);
        eng.sync_block_write(inode_block, &params);
        eng.sync_block_write(dir_block, &params);
        // Data written back in clusters when the write completes.
        eng.transfer_file(IoKind::Write, meta, &params);
    }
    let write_us = dev.now() - t0;

    // Phase 2: read in creation order.
    let t1 = dev.now();
    for &ino in &inos {
        let meta = fs.file(ino).expect("file exists");
        let mut eng = IoEngine::new(&mut dev, &params, map);
        eng.transfer_file(IoKind::Read, meta, &params);
    }
    let read_us = dev.now() - t1;

    // Layout of the created files (Figure 5's metric).
    let mut layout = LayoutAgg::default();
    for &ino in &inos {
        if let Some((opt, scored)) = fs.file(ino).expect("file exists").layout_counts(&params) {
            layout.opt += opt;
            layout.scored += scored;
        }
    }
    let total = nfiles as u64 * file_size;
    Ok(SeqPoint {
        file_size,
        nfiles,
        write_mb_s: mb_per_sec(total, write_us),
        read_mb_s: mb_per_sec(total, read_us),
        layout,
        device: dev.stats().clone(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ffs::AllocPolicy;
    use ffs_types::FsParams;

    fn empty_fs(policy: AllocPolicy) -> Filesystem {
        Filesystem::new(FsParams::small_test(), policy)
    }

    fn small_config() -> SeqBenchConfig {
        SeqBenchConfig {
            total_bytes: 4 * MB,
            ..SeqBenchConfig::default()
        }
    }

    #[test]
    fn point_reports_positive_throughput() {
        let fs = empty_fs(AllocPolicy::Realloc);
        let p = run_point(&fs, &small_config(), 64 * KB).unwrap();
        assert_eq!(p.nfiles, 64);
        assert!(p.write_mb_s > 0.1);
        assert!(p.read_mb_s > 0.1);
        assert!(p.device.reads > 0 && p.device.writes > 0);
        assert!(p.device.sectors_read >= p.nfiles as u64);
    }

    #[test]
    fn zero_file_size_is_an_invalid_argument() {
        let fs = empty_fs(AllocPolicy::Realloc);
        assert!(matches!(
            run_point(&fs, &small_config(), 0),
            Err(FsError::InvalidArg(_))
        ));
    }

    #[test]
    fn zero_files_per_dir_is_an_invalid_argument() {
        let fs = empty_fs(AllocPolicy::Realloc);
        let config = SeqBenchConfig {
            files_per_dir: 0,
            ..small_config()
        };
        assert!(matches!(
            run_point(&fs, &config, 64 * KB),
            Err(FsError::InvalidArg(_))
        ));
    }

    #[test]
    fn empty_fs_small_files_lay_out_perfectly() {
        let fs = empty_fs(AllocPolicy::Realloc);
        let p = run_point(&fs, &small_config(), 56 * KB).unwrap();
        assert_eq!(p.layout_score(), 1.0);
    }

    #[test]
    fn reads_beat_writes_on_contiguous_data() {
        // The track buffer hides rotations on reads; writes lose them.
        let fs = empty_fs(AllocPolicy::Realloc);
        let p = run_point(&fs, &small_config(), 1024 * KB).unwrap();
        assert!(
            p.read_mb_s > p.write_mb_s,
            "read {:.2} <= write {:.2}",
            p.read_mb_s,
            p.write_mb_s
        );
    }

    #[test]
    fn small_file_writes_are_metadata_bound() {
        // 16 KB files: two sync metadata writes per 16 KB of data keep
        // throughput far below the media rate.
        let fs = empty_fs(AllocPolicy::Realloc);
        let p = run_point(&fs, &small_config(), 16 * KB).unwrap();
        assert!(
            p.write_mb_s < 1.5,
            "16 KB create throughput {:.2} MB/s too high",
            p.write_mb_s
        );
    }

    #[test]
    fn point_does_not_mutate_the_aged_fs() {
        let fs = empty_fs(AllocPolicy::Orig);
        let files_before = fs.nfiles();
        let free_before = fs.free_frags();
        run_point(&fs, &small_config(), 32 * KB).unwrap();
        assert_eq!(fs.nfiles(), files_before);
        assert_eq!(fs.free_frags(), free_before);
    }

    #[test]
    fn indirect_boundary_hurts_throughput() {
        // 104 KB files straddle the first indirect block (cylinder-group
        // switch); 96 KB files do not. The paper's sharp dip.
        let fs = empty_fs(AllocPolicy::Realloc);
        let p96 = run_point(&fs, &small_config(), 96 * KB).unwrap();
        let p104 = run_point(&fs, &small_config(), 104 * KB).unwrap();
        assert!(
            p104.read_mb_s < p96.read_mb_s,
            "104 KB ({:.2}) should read slower than 96 KB ({:.2})",
            p104.read_mb_s,
            p96.read_mb_s
        );
    }

    #[test]
    fn sizes_cover_the_paper_axis() {
        let s = paper_file_sizes();
        assert_eq!(*s.first().unwrap(), 16 * KB);
        assert_eq!(*s.last().unwrap(), 32 * MB);
        assert!(s.contains(&(96 * KB)));
        assert!(s.contains(&(104 * KB)));
        assert!(s.windows(2).all(|w| w[0] < w[1]));
    }
}
