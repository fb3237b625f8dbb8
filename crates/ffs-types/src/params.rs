//! File-system and disk parameter sets.
//!
//! [`FsParams::paper_502mb`] and [`DiskParams::seagate_32430n`] reproduce
//! Table 1 of the paper ("Benchmark Configuration"). All sizes are bytes
//! unless a field name says otherwise.

use crate::ids::{CgIdx, Daddr, Ino, Lbn};
use crate::units::{KB, MB};

/// Number of direct block pointers in an FFS inode (`NDADDR`).
pub const NDADDR: u32 = 12;

/// Static parameters of a simulated FFS, the analogue of the on-disk
/// superblock fields that govern allocation.
#[derive(Clone, Debug, PartialEq)]
pub struct FsParams {
    /// Total file-system size in bytes (data plus metadata).
    pub size_bytes: u64,
    /// Block size in bytes (`fs_bsize`, 8 KB in the paper).
    pub bsize: u32,
    /// Fragment size in bytes (`fs_fsize`, 1 KB in the paper).
    pub fsize: u32,
    /// Number of cylinder groups (`fs_ncg`).
    pub ncg: u32,
    /// Maximum cluster length in blocks (`fs_maxcontig`; 7 blocks = 56 KB
    /// in the paper, the disk system's maximum transfer size).
    pub maxcontig: u32,
    /// Free-space reserve as a percentage of data blocks (`fs_minfree`).
    /// The aging workload keeps utilization below 100 % on its own; the
    /// reserve is reported but not enforced, matching the paper's
    /// utilization accounting (footnote 2).
    pub minfree_pct: u32,
    /// Bytes of data space per inode (`newfs -i`); sizes the per-group
    /// inode tables.
    pub bytes_per_inode: u32,
    /// On-disk inode size in bytes (128 in 4.4BSD).
    pub inode_size: u32,
}

impl FsParams {
    /// The 502 MB file system of Table 1: 8 KB blocks, 1 KB fragments,
    /// 56 KB maximum cluster, 22 cylinder groups.
    ///
    /// Table 1's cylinder-group row is garbled in the scanned paper; 22
    /// groups of ~22.8 MB is consistent with the 502 MB size and the disk
    /// geometry (see DESIGN.md).
    pub fn paper_502mb() -> FsParams {
        FsParams {
            size_bytes: 502 * MB,
            bsize: 8 * KB as u32,
            fsize: KB as u32,
            ncg: 22,
            maxcontig: 7,
            minfree_pct: 10,
            bytes_per_inode: 4 * KB as u32,
            inode_size: 128,
        }
    }

    /// A small configuration for unit tests: 16 MB, 4 cylinder groups,
    /// same block geometry as the paper.
    pub fn small_test() -> FsParams {
        FsParams {
            size_bytes: 16 * MB,
            bsize: 8 * KB as u32,
            fsize: KB as u32,
            ncg: 4,
            maxcontig: 7,
            minfree_pct: 10,
            bytes_per_inode: 4 * KB as u32,
            inode_size: 128,
        }
    }

    /// Fragments per block (`fs_frag`), 8 for the paper's geometry.
    pub fn frags_per_block(&self) -> u32 {
        self.bsize / self.fsize
    }

    /// Total fragments in the file system.
    pub fn total_frags(&self) -> u32 {
        (self.size_bytes / self.fsize as u64) as u32
    }

    /// Total full blocks in the file system.
    pub fn total_blocks(&self) -> u32 {
        self.total_frags() / self.frags_per_block()
    }

    /// Blocks per cylinder group. The final group absorbs the remainder
    /// and may be up to `ncg - 1` blocks larger.
    pub fn blocks_per_cg(&self) -> u32 {
        self.total_blocks() / self.ncg
    }

    /// Number of blocks in the given cylinder group.
    pub fn cg_nblocks(&self, cg: CgIdx) -> u32 {
        let base = self.blocks_per_cg();
        if cg.0 == self.ncg - 1 {
            self.total_blocks() - base * (self.ncg - 1)
        } else {
            base
        }
    }

    /// Fragment address of the first fragment of the given cylinder group.
    pub fn cg_base(&self, cg: CgIdx) -> Daddr {
        Daddr(cg.0 * self.blocks_per_cg() * self.frags_per_block())
    }

    /// The cylinder group containing a fragment address (FFS `dtog`).
    pub fn dtog(&self, d: Daddr) -> CgIdx {
        let cg = d.0 / (self.blocks_per_cg() * self.frags_per_block());
        CgIdx(cg.min(self.ncg - 1))
    }

    /// Inodes per cylinder group, derived from [`FsParams::bytes_per_inode`].
    pub fn inodes_per_cg(&self) -> u32 {
        let total = (self.size_bytes / self.bytes_per_inode as u64) as u32;
        (total / self.ncg).max(64)
    }

    /// Metadata blocks reserved at the front of each cylinder group:
    /// a superblock copy, the cylinder-group descriptor, and the inode
    /// table.
    pub fn cg_meta_blocks(&self) -> u32 {
        let itable_bytes = self.inodes_per_cg() as u64 * self.inode_size as u64;
        let itable_blocks = itable_bytes.div_ceil(self.bsize as u64) as u32;
        2 + itable_blocks
    }

    /// Data blocks available for file contents in the given group.
    pub fn cg_data_blocks(&self, cg: CgIdx) -> u32 {
        self.cg_nblocks(cg).saturating_sub(self.cg_meta_blocks())
    }

    /// Total data blocks across all groups (capacity available to files).
    pub fn total_data_blocks(&self) -> u32 {
        (0..self.ncg).map(|g| self.cg_data_blocks(CgIdx(g))).sum()
    }

    /// Total data capacity in bytes.
    pub fn data_capacity_bytes(&self) -> u64 {
        self.total_data_blocks() as u64 * self.bsize as u64
    }

    /// Fragment address of the inode table slot holding `ino`, used by the
    /// timing model for synchronous inode updates.
    pub fn inode_daddr(&self, cg: CgIdx, slot: u32) -> Daddr {
        let base = self.cg_base(cg);
        let byte = 2 * self.bsize as u64 + slot as u64 * self.inode_size as u64;
        Daddr(base.0 + (byte / self.fsize as u64) as u32)
    }

    /// Number of block pointers in an indirect block (`NINDIR`): 2048 for
    /// 8 KB blocks with 4-byte pointers.
    pub fn nindir(&self) -> u32 {
        self.bsize / 4
    }

    /// Largest file size supported (twelve direct blocks plus one single-
    /// and one double-indirect tree), ~16 GB for the paper geometry —
    /// far beyond the 32 MB files the evaluation writes.
    pub fn max_file_size(&self) -> u64 {
        let n = self.nindir() as u64;
        (NDADDR as u64 + n + n * n) * self.bsize as u64
    }

    /// The logical block numbers at which FFS switches to a new cylinder
    /// group for a file of `nblocks` data blocks: block 12 (first indirect
    /// block) and every `nindir` blocks thereafter (footnote 1 of the
    /// paper).
    pub fn cg_switch_lbns(&self, nblocks: u32) -> Vec<Lbn> {
        self.switch_lbns(nblocks).collect()
    }

    /// [`FsParams::cg_switch_lbns`] as an iterator, for the write path,
    /// which walks the switch points once per file and keeps none.
    pub fn switch_lbns(&self, nblocks: u32) -> impl Iterator<Item = Lbn> {
        (NDADDR..nblocks).step_by(self.nindir() as usize).map(Lbn)
    }

    /// Splits an inode number into its cylinder group and table slot.
    /// Inode numbers are dense per group: `ino = cg * inodes_per_cg + slot`.
    pub fn ino_to_cg(&self, ino: Ino) -> (CgIdx, u32) {
        let per = self.inodes_per_cg();
        (CgIdx(ino.0 / per), ino.0 % per)
    }
}

/// Parameters of the simulated disk and I/O path, mirroring the hardware
/// half of Table 1 plus the timing constants the paper's analysis relies
/// on (maximum transfer size, track buffer, host overhead).
#[derive(Clone, Debug, PartialEq)]
pub struct DiskParams {
    /// Number of cylinders.
    pub cylinders: u32,
    /// Number of heads (tracks per cylinder).
    pub heads: u32,
    /// Sectors per track (the 32430N is zoned; Table 1 reports the
    /// average, 116, which we use uniformly).
    pub sectors_per_track: u32,
    /// Sector size in bytes.
    pub sector_size: u32,
    /// Spindle speed in revolutions per minute.
    pub rpm: u32,
    /// Average seek time in milliseconds (seek over one third of the
    /// cylinder span); anchors the seek curve.
    pub avg_seek_ms: f64,
    /// Single-cylinder seek time in milliseconds.
    pub min_seek_ms: f64,
    /// Full-span seek time in milliseconds.
    pub max_seek_ms: f64,
    /// Head-switch time in microseconds (same cylinder, next track).
    pub head_switch_us: f64,
    /// Track buffer (read-ahead cache) size in bytes.
    pub track_buffer_bytes: u32,
    /// Maximum transfer size the controller accepts per request; the text
    /// of Section 5.1 pins this at 64 KB.
    pub max_transfer_bytes: u32,
    /// Sustained bus rate in MB/s for transfers out of the track buffer
    /// (fast SCSI behind the BusLogic 946C).
    pub bus_mb_per_sec: f64,
    /// Host time between back-to-back requests (system call, interrupt,
    /// and driver overhead on the 120 MHz Pentium). This is what turns
    /// sequential writes into lost rotations.
    pub host_overhead_us: f64,
}

impl DiskParams {
    /// The Seagate ST32430N / BusLogic 946C configuration of Table 1.
    pub fn seagate_32430n() -> DiskParams {
        DiskParams {
            cylinders: 3992,
            heads: 9,
            sectors_per_track: 116,
            sector_size: 512,
            rpm: 5411,
            avg_seek_ms: 11.0,
            min_seek_ms: 2.0,
            max_seek_ms: 19.0,
            head_switch_us: 1000.0,
            track_buffer_bytes: 512 * KB as u32,
            max_transfer_bytes: 64 * KB as u32,
            bus_mb_per_sec: 10.0,
            host_overhead_us: 1800.0,
        }
    }

    /// One full revolution in microseconds (~11.09 ms at 5411 RPM).
    pub fn rev_time_us(&self) -> f64 {
        60.0e6 / self.rpm as f64
    }

    /// Time for one sector to pass under the head, in microseconds.
    pub fn sector_time_us(&self) -> f64 {
        self.rev_time_us() / self.sectors_per_track as f64
    }

    /// Sectors per cylinder.
    pub fn sectors_per_cyl(&self) -> u32 {
        self.heads * self.sectors_per_track
    }

    /// Total capacity in bytes (~2.1 GB for the 32430N).
    pub fn capacity_bytes(&self) -> u64 {
        self.cylinders as u64 * self.sectors_per_cyl() as u64 * self.sector_size as u64
    }

    /// Media transfer rate while reading a track, in MB/s (~5.1 for the
    /// paper's disk: 116 sectors x 512 B per 11.09 ms revolution).
    pub fn media_mb_per_sec(&self) -> f64 {
        let bytes_per_rev = self.sectors_per_track as f64 * self.sector_size as f64;
        (bytes_per_rev / MB as f64) / (self.rev_time_us() / 1e6)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::units::GB;

    #[test]
    fn paper_fs_matches_table1() {
        let p = FsParams::paper_502mb();
        assert_eq!(p.size_bytes, 502 * MB);
        assert_eq!(p.bsize, 8192);
        assert_eq!(p.fsize, 1024);
        assert_eq!(p.frags_per_block(), 8);
        assert_eq!(p.maxcontig, 7); // 56 KB max cluster.
        assert_eq!(p.total_blocks(), 64_256);
        assert_eq!(p.total_frags(), 514_048);
    }

    #[test]
    fn cg_partition_covers_all_blocks() {
        let p = FsParams::paper_502mb();
        let sum: u32 = (0..p.ncg).map(|g| p.cg_nblocks(CgIdx(g))).sum();
        assert_eq!(sum, p.total_blocks());
        // All groups but the last are equal-sized.
        for g in 0..p.ncg - 1 {
            assert_eq!(p.cg_nblocks(CgIdx(g)), p.blocks_per_cg());
        }
    }

    #[test]
    fn dtog_inverts_cg_base() {
        let p = FsParams::paper_502mb();
        for g in 0..p.ncg {
            let cg = CgIdx(g);
            assert_eq!(p.dtog(p.cg_base(cg)), cg);
            // Last fragment of the group still maps to the group.
            let last = Daddr(p.cg_base(cg).0 + p.cg_nblocks(cg) * p.frags_per_block() - 1);
            assert_eq!(p.dtog(last), cg);
        }
    }

    #[test]
    fn metadata_reserve_is_modest() {
        let p = FsParams::paper_502mb();
        // Inode tables plus descriptors should cost well under 10 % of
        // the disk.
        let meta = p.cg_meta_blocks() * p.ncg;
        assert!(meta < p.total_blocks() / 10);
        assert!(p.cg_data_blocks(CgIdx(0)) > 2000);
    }

    #[test]
    fn indirect_switch_points_match_footnote() {
        let p = FsParams::paper_502mb();
        // A 13-block (104 KB) file switches groups exactly once, at block
        // 12 -- the paper's "sharp dip at 104 KB".
        assert_eq!(p.cg_switch_lbns(13), vec![Lbn(12)]);
        // A 96 KB (12-block) file never switches.
        assert!(p.cg_switch_lbns(12).is_empty());
        // A 32 MB file (4096 blocks) switches at 12 and 12 + 2048.
        assert_eq!(p.cg_switch_lbns(4096), vec![Lbn(12), Lbn(2060)]);
    }

    #[test]
    fn max_file_size_covers_evaluation() {
        let p = FsParams::paper_502mb();
        assert!(p.max_file_size() > 32 * MB);
        assert_eq!(p.nindir(), 2048);
    }

    #[test]
    fn inode_numbering_round_trips() {
        let p = FsParams::paper_502mb();
        let per = p.inodes_per_cg();
        let ino = Ino(3 * per + 17);
        assert_eq!(p.ino_to_cg(ino), (CgIdx(3), 17));
    }

    #[test]
    fn inode_daddr_lands_inside_group_metadata() {
        let p = FsParams::paper_502mb();
        let d = p.inode_daddr(CgIdx(5), 0);
        assert_eq!(p.dtog(d), CgIdx(5));
        assert!(d.0 >= p.cg_base(CgIdx(5)).0);
        let meta_end = p.cg_base(CgIdx(5)).0 + p.cg_meta_blocks() * p.frags_per_block();
        assert!(d.0 < meta_end);
    }

    #[test]
    fn seagate_matches_table1() {
        let d = DiskParams::seagate_32430n();
        assert_eq!(d.cylinders, 3992);
        assert_eq!(d.heads, 9);
        assert_eq!(d.sectors_per_track, 116);
        assert_eq!(d.rpm, 5411);
        // ~2.1 GB capacity (decimal gigabytes, as disk vendors count).
        assert!(d.capacity_bytes() > 2_000_000_000);
        assert!(d.capacity_bytes() < 2_200_000_000);
        assert!(d.capacity_bytes() < 21 * GB / 10);
        // ~11.09 ms revolution.
        assert!((d.rev_time_us() - 11_088.5).abs() < 1.0);
        // Media rate ~5.1 MB/s, the ceiling of the paper's Figure 4.
        assert!((d.media_mb_per_sec() - 5.11).abs() < 0.2);
    }
}
