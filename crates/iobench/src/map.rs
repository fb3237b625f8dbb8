//! Mapping file-system addresses onto the disk, and the clustered I/O
//! engine shared by the benchmarks.
//!
//! The 502 MB file system occupies a partition at the front of the 2.1 GB
//! disk, as in the paper's configuration. FFS's clustered I/O issues one
//! transfer per physically contiguous extent, capped at `maxcontig`
//! blocks (56 KB); discontiguities cost a fresh mechanical access, which
//! is exactly how layout quality becomes throughput.

use disk::{Device, IoKind};
use ffs::FileMeta;
use ffs_types::{Daddr, FsParams};

/// Converts fragment addresses to logical block addresses on the disk.
#[derive(Clone, Copy, Debug)]
pub struct FsDiskMap {
    sectors_per_frag: u32,
    /// First sector of the partition holding the file system.
    pub partition_offset: u64,
}

impl FsDiskMap {
    /// Builds the map for a file system placed `partition_offset` sectors
    /// into the disk.
    pub fn new(params: &FsParams, sector_size: u32, partition_offset: u64) -> FsDiskMap {
        FsDiskMap {
            sectors_per_frag: params.fsize / sector_size,
            partition_offset,
        }
    }

    /// LBA of a fragment address.
    pub fn lba(&self, d: Daddr) -> u64 {
        self.partition_offset + d.0 as u64 * self.sectors_per_frag as u64
    }

    /// Bytes per fragment times `frags`, in sectors.
    pub fn sectors(&self, frags: u32) -> u32 {
        frags * self.sectors_per_frag
    }
}

/// Issues clustered file I/O against the simulated device.
#[derive(Debug)]
pub struct IoEngine<'d> {
    /// The device being driven.
    pub dev: &'d mut Device,
    /// Address mapping.
    pub map: FsDiskMap,
    /// Cluster cap in fragments (`maxcontig * frags_per_block`).
    cluster_frags: u32,
    /// Fragment size in bytes.
    fsize: u32,
}

impl<'d> IoEngine<'d> {
    /// Creates an engine for `params` over `dev`.
    pub fn new(dev: &'d mut Device, params: &FsParams, map: FsDiskMap) -> IoEngine<'d> {
        IoEngine {
            dev,
            map,
            cluster_frags: params.maxcontig * params.frags_per_block(),
            fsize: params.fsize,
        }
    }

    /// Transfers one physically contiguous extent, split into
    /// cluster-sized requests.
    pub fn transfer_extent(&mut self, kind: IoKind, addr: Daddr, frags: u32) {
        let mut off = 0u32;
        while off < frags {
            let n = (frags - off).min(self.cluster_frags);
            let lba = self.map.lba(Daddr(addr.0 + off));
            self.dev.transfer(kind, lba, n as u64 * self.fsize as u64);
            off += n;
        }
    }

    /// Reads or writes a whole file through its extent list, issuing the
    /// application I/O in `app_io_bytes` units as the paper's benchmark
    /// does (4 MB requests). The unit boundary only matters for timing in
    /// that each unit re-enters the kernel; the extra host overhead per
    /// transfer is already charged by the device.
    pub fn transfer_file(&mut self, kind: IoKind, meta: &FileMeta, params: &FsParams) {
        for (addr, frags) in meta.extents(params) {
            self.transfer_extent(kind, addr, frags);
        }
    }

    /// A synchronous single-block metadata update (an inode-table
    /// block): FFS performs these on the create path, which is what caps
    /// small-file create throughput in Figure 4.
    pub fn sync_block_write(&mut self, addr: Daddr, params: &FsParams) {
        let lba = self.map.lba(addr);
        self.dev.transfer(IoKind::Write, lba, params.bsize as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ffs::{AllocPolicy, Filesystem};
    use ffs_types::{DiskParams, KB};

    fn setup() -> (Filesystem, Device, FsDiskMap) {
        let params = FsParams::small_test();
        let dev = Device::new(DiskParams::seagate_32430n());
        let map = FsDiskMap::new(&params, 512, 0);
        (Filesystem::new(params, AllocPolicy::Realloc), dev, map)
    }

    #[test]
    fn lba_mapping_is_linear() {
        let (fs, _, map) = setup();
        let _ = fs;
        assert_eq!(map.lba(Daddr(0)), 0);
        assert_eq!(map.lba(Daddr(1)), 2); // 1 KB fragment = 2 sectors.
        assert_eq!(map.lba(Daddr(8)), 16);
        assert_eq!(map.sectors(8), 16);
    }

    #[test]
    fn partition_offset_shifts_lbas() {
        let params = FsParams::small_test();
        let map = FsDiskMap::new(&params, 512, 1000);
        assert_eq!(map.lba(Daddr(0)), 1000);
    }

    #[test]
    fn extent_transfers_split_at_cluster_size() {
        let (mut fs, mut dev, map) = setup();
        let d = fs.mkdir().unwrap();
        // A 112 KB file is 14 blocks; contiguous extents are capped at
        // 7 blocks, so at least two transfers are needed.
        let ino = fs.create(d, 112 * KB, 0).unwrap();
        let meta = fs.file(ino).unwrap().clone();
        let params = fs.params().clone();
        let mut eng = IoEngine::new(&mut dev, &params, map);
        eng.transfer_file(IoKind::Write, &meta, &params);
        assert!(eng.dev.stats().writes >= 2);
        assert_eq!(eng.dev.stats().sectors_written, 224);
    }

    #[test]
    fn contiguous_reads_are_faster_than_scattered() {
        let (mut fs, _, map) = setup();
        let d = fs.mkdir().unwrap();
        let ino = fs.create(d, 56 * KB, 0).unwrap();
        let meta = fs.file(ino).unwrap().clone();
        let params = fs.params().clone();
        // Contiguous (as created on the empty file system).
        let mut dev1 = Device::new(DiskParams::seagate_32430n());
        let mut eng = IoEngine::new(&mut dev1, &params, map);
        eng.transfer_file(IoKind::Read, &meta, &params);
        let t_contig = dev1.now();
        // The same bytes, but scattered into seven separate blocks.
        let mut scattered = meta.clone();
        scattered.blocks = (0..7).map(|i| Daddr(200 * 8 * (i + 1))).collect();
        let mut dev2 = Device::new(DiskParams::seagate_32430n());
        let mut eng = IoEngine::new(&mut dev2, &params, map);
        eng.transfer_file(IoKind::Read, &scattered, &params);
        let t_scatter = dev2.now();
        assert!(
            t_scatter > 2.0 * t_contig,
            "scattered {t_scatter:.0} us vs contiguous {t_contig:.0} us"
        );
    }

    #[test]
    fn sync_block_write_costs_mechanical_time() {
        let (fs, mut dev, map) = setup();
        let params = fs.params().clone();
        let mut eng = IoEngine::new(&mut dev, &params, map);
        let t0 = eng.dev.now();
        eng.sync_block_write(Daddr(4096), &params);
        let dt = eng.dev.now() - t0;
        // Seek + rotation + 8 KB transfer: several milliseconds.
        assert!(dt > 2_000.0, "sync write took only {dt} us");
    }
}
