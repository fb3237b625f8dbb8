//! The simulated file system: create, write, and delete files against the
//! cylinder-group maps under a chosen allocation policy.
//!
//! The write path models the structure the paper's results depend on:
//!
//! * logically sequential blocks are allocated with a chained preference
//!   (each block wants the address after its predecessor);
//! * every indirect-block boundary opens a region where `ffs_blkpref`
//!   puts it: at the front of the first group with at least the average
//!   free blocks, scanning from the inode's group plus `lbn / nindir`.
//!   The indirect block and the region's first data block both ask for
//!   it (footnote 1 — the 104 KB dip);
//! * under [`AllocPolicy::Realloc`], each completed cluster window is
//!   gathered and, when a free cluster of its size exists, moved there
//!   before it would reach the disk. The pass is only invoked once a file
//!   has filled its second block, reproducing the two-block-file quirk of
//!   Section 4;
//! * partial tails of direct-block files are allocated as fragment runs,
//!   preferring existing fragment blocks over breaking a free block.

use ffs_types::{CgIdx, Daddr, DirId, FsError, FsParams, FsResult, Ino};

use crate::alloc::{AllocEngine, AllocPolicy, AllocStats, EngineCfg};
use crate::cg::CylGroup;
use crate::geom::{Geometry, DIR_FRAGS, FPB};
use crate::inode::FileMeta;
use crate::table::{BlockList, Slab};

/// A directory: a cylinder-group anchor for the files created in it.
#[derive(Clone, Debug, PartialEq)]
pub struct DirMeta {
    /// Directory identifier.
    pub id: DirId,
    /// Cylinder group the directory (and therefore its files) lives in.
    pub cg: CgIdx,
    /// The directory's entries: its one fragment ([`DIR_FRAGS`]), which
    /// the timing model writes on every synchronous directory update.
    pub block: Daddr,
    /// Inode-table slot of the directory's inode within its group.
    pub ino_slot: u32,
    /// Live files currently in the directory.
    pub nfiles: u32,
}

/// Running aggregate of the file system's layout score (Section 3.3):
/// `opt / scored` over all files with at least two chunks.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LayoutAgg {
    /// Optimally placed chunks (contiguous with their predecessor).
    pub opt: u64,
    /// Scored chunks (chunks after the first, over scoreable files).
    pub scored: u64,
}

impl LayoutAgg {
    /// The aggregate layout score, or 1.0 for an empty file system.
    pub fn score(&self) -> f64 {
        if self.scored == 0 {
            1.0
        } else {
            self.opt as f64 / self.scored as f64
        }
    }
}

/// A simulated FFS instance.
#[derive(Clone, Debug)]
pub struct Filesystem {
    pub(crate) params: FsParams,
    /// What `params` implies about the volume's shape, computed once
    /// (the `fs_fpg`/`fs_fragshift` part of the superblock).
    pub(crate) geom: Geometry,
    pub(crate) policy: AllocPolicy,
    pub(crate) cgs: Vec<CylGroup>,
    pub(crate) files: Slab<Ino, FileMeta>,
    pub(crate) dirs: Slab<DirId, DirMeta>,
    pub(crate) next_dir: u32,
    pub(crate) agg: LayoutAgg,
    /// Fragments holding file data (blocks + tails).
    pub(crate) used_data_frags: u64,
    /// Fragments holding dynamic metadata (indirect blocks,
    /// directories).
    pub(crate) used_meta_frags: u64,
    /// Cumulative bytes of file data written since mkfs.
    pub(crate) bytes_written: u64,
    pub(crate) alloc_stats: AllocStats,
    /// Fragment placement strategy: `true` uses the `cg_frsum`-guided
    /// best-fit search (`ffs_alloccg`'s `allocsiz` path, splitting a
    /// free block only when no partial block has an adequate run);
    /// `false` (default) keeps the historical first-fit scan. See
    /// DESIGN.md.
    pub(crate) frag_bestfit: bool,
    /// Application write size used when creating files; clusters are
    /// gathered and realloc'd as each write's blocks complete (4 MB in
    /// the paper's benchmark).
    pub(crate) write_chunk_blocks: u32,
}

impl Filesystem {
    /// Creates an empty file system ("mkfs") with the given parameters and
    /// allocation policy.
    pub fn new(params: FsParams, policy: AllocPolicy) -> Filesystem {
        let cgs = (0..params.ncg)
            .map(|g| CylGroup::new(&params, CgIdx(g)))
            .collect();
        let write_chunk_blocks = ((4 << 20) / params.bsize).max(params.maxcontig);
        Filesystem {
            geom: Geometry::new(&params),
            params,
            policy,
            cgs,
            files: Slab::new(),
            dirs: Slab::new(),
            next_dir: 0,
            agg: LayoutAgg::default(),
            used_data_frags: 0,
            used_meta_frags: 0,
            bytes_written: 0,
            alloc_stats: AllocStats::default(),
            frag_bestfit: false,
            write_chunk_blocks,
        }
    }

    /// Selects the fragment placement strategy: `true` uses the
    /// `cg_frsum`-guided best-fit search, `false` (the default) keeps
    /// the historical first-fit scan. See DESIGN.md.
    pub fn set_frag_bestfit(&mut self, bestfit: bool) {
        self.frag_bestfit = bestfit;
    }

    /// The file-system parameters.
    pub fn params(&self) -> &FsParams {
        &self.params
    }

    /// The volume geometry the parameters imply, computed at mkfs.
    pub fn geometry(&self) -> Geometry {
        self.geom
    }

    /// The allocation policy in force.
    pub fn policy(&self) -> AllocPolicy {
        self.policy
    }

    /// Allocator behaviour counters.
    pub fn alloc_stats(&self) -> &AllocStats {
        &self.alloc_stats
    }

    /// Cumulative bytes of file data written since mkfs (the paper's
    /// 48.6 GB workload total is measured this way).
    pub fn bytes_written(&self) -> u64 {
        self.bytes_written
    }

    /// Creates a directory using the FFS directory-placement policy.
    pub fn mkdir(&mut self) -> FsResult<DirId> {
        let cg = self.dirpref();
        self.mkdir_in(cg)
    }

    /// Creates a directory with its inode preferring group `cg`
    /// (`ufs_mkdir`): `ffs_valloc` from the group's first slot, spilling
    /// when full, then [`DIR_FRAGS`] at `ffs_blkpref`'s lbn-0 preference
    /// by a tail's fragment path. The aging replay pins one per group.
    pub fn mkdir_in(&mut self, cg: CgIdx) -> FsResult<DirId> {
        if cg.0 >= self.params.ncg {
            return Err(FsError::InvalidArg("cylinder group out of range"));
        }
        let mut eng = self.engine();
        let ino = eng.alloc_inode_pref(cg, 0)?;
        let pref = eng.blkpref(ino, 0, None);
        let block = eng.alloc_frag_run(DIR_FRAGS, pref);
        let (cg, ino_slot) = self.geom.itog(ino);
        let g = &mut self.cgs[cg.0 as usize];
        let block = block.inspect_err(|_| g.free_inode(ino_slot))?;
        g.set_ndirs(g.ndirs() + 1);
        self.used_meta_frags += u64::from(DIR_FRAGS);
        let id = DirId(self.next_dir);
        self.next_dir += 1;
        self.dirs.insert(
            id,
            DirMeta {
                id,
                cg,
                block,
                ino_slot,
                nfiles: 0,
            },
        );
        Ok(id)
    }

    /// Creates one directory in every cylinder group, in group order —
    /// the first step of the paper's aging replay (Section 3.2).
    pub fn mkdir_per_cg(&mut self) -> FsResult<Vec<DirId>> {
        (0..self.params.ncg)
            .map(|g| self.mkdir_in(CgIdx(g)))
            .collect()
    }

    /// Looks up a directory.
    pub fn dir(&self, id: DirId) -> Option<&DirMeta> {
        self.dirs.get(&id)
    }

    /// Iterates all directories in id order.
    pub fn dirs(&self) -> impl Iterator<Item = &DirMeta> {
        self.dirs.values()
    }

    /// Looks up a live file.
    pub fn file(&self, ino: Ino) -> Option<&FileMeta> {
        self.files.get(&ino)
    }

    /// Iterates all live files in inode order.
    pub fn files(&self) -> impl Iterator<Item = &FileMeta> {
        self.files.values()
    }

    /// Number of live files.
    pub fn nfiles(&self) -> usize {
        self.files.len()
    }

    /// A copy of this file system's free space without its files: what
    /// `self.clone()` would give, except that the file table starts
    /// empty. The cylinder groups (maps, rotors, counters), the
    /// directories, the next directory id, the space and write counters,
    /// the layout aggregate, the allocator statistics and the placement
    /// settings are all copied.
    ///
    /// No allocation decision reads the file table, so the copy
    /// allocates exactly as `self` would: the same `mkdir` / `create`
    /// sequence returns the same ids and places the same blocks on
    /// either, and leaves equal groups, rotors, utilization and layout
    /// aggregate behind. What the copy cannot answer is anything about
    /// the files it left out: [`Filesystem::nfiles`],
    /// [`Filesystem::files`], [`Filesystem::file`] and
    /// [`Filesystem::digest`] describe only the files created on the
    /// copy (an inode of `self`'s reads as absent), and
    /// [`crate::check()`] finds the copy inconsistent, since the space
    /// and counters of the left-out files belong to no inode. This is
    /// the starting point of a benchmark that writes new files into an
    /// aged image and never touches the old ones (`iobench::run_point`).
    pub fn copy_free_space(&self) -> Filesystem {
        Filesystem {
            params: self.params.clone(),
            geom: self.geom,
            policy: self.policy,
            cgs: self.cgs.clone(),
            files: Slab::new(),
            dirs: self.dirs.clone(),
            next_dir: self.next_dir,
            agg: self.agg,
            used_data_frags: self.used_data_frags,
            used_meta_frags: self.used_meta_frags,
            bytes_written: self.bytes_written,
            alloc_stats: self.alloc_stats.clone(),
            frag_bestfit: self.frag_bestfit,
            write_chunk_blocks: self.write_chunk_blocks,
        }
    }

    /// Creates a file of `size` bytes in `dir`, allocating all of its
    /// blocks under the configured policy, and stamps it with `day`.
    ///
    /// Returns the new file's inode number. On allocation failure
    /// (`FsError::NoSpace`), everything the call allocated is released.
    /// A size above 4 GiB (`u32::MAX`) is [`FsError::InvalidArg`]: a
    /// workload op holds its size as a `u32`, so every file size is one.
    /// `size` takes that `u32` as readily as a `u64`.
    pub fn create(&mut self, dir: DirId, size: impl Into<u64>, day: u32) -> FsResult<Ino> {
        let size = size.into();
        if size > self.params.max_file_size() {
            return Err(FsError::FileTooLarge {
                size,
                max: self.params.max_file_size(),
            });
        }
        if size > u32::MAX.into() {
            return Err(FsError::InvalidArg("file size above 4 GiB"));
        }
        let d = self.dirs.get(&dir).ok_or(FsError::NoSuchDir(dir))?;
        let (dcg, dslot) = (d.cg, d.ino_slot);
        let mut eng = self.engine();
        let ino = eng.alloc_inode_pref(dcg, dslot)?;
        let mut meta = FileMeta {
            ino,
            dir,
            size,
            blocks: BlockList::new(),
            tail: None,
            mtime_day: day,
        };
        let res = eng.write_blocks(&mut meta, size);
        match res {
            Ok(()) => {
                self.used_meta_frags += meta.indirects().len() as u64 * u64::from(FPB);
                if let Some((opt, scored)) = meta.layout_counts_at(FPB) {
                    self.agg.opt += opt;
                    self.agg.scored += scored;
                }
                self.used_data_frags += meta.data_frags_at(FPB);
                self.bytes_written += meta.size;
                if let Some(d) = self.dirs.get_mut(&meta.dir) {
                    d.nfiles += 1;
                }
                self.files.insert(ino, meta);
                Ok(ino)
            }
            Err(e) => {
                self.release_meta_space(&meta);
                let (cg, slot) = self.geom.itog(ino);
                self.cgs[cg.0 as usize].free_inode(slot);
                Err(e)
            }
        }
    }

    /// Rewrites a file in place: same size, same blocks. Updates the
    /// modification day and the cumulative write volume — the overwrite
    /// path of the hot-file benchmark and the aging workload.
    pub fn rewrite(&mut self, ino: Ino, day: u32) -> FsResult<()> {
        let size = {
            let f = self.files.get_mut(&ino).ok_or(FsError::NoSuchFile(ino))?;
            f.mtime_day = day;
            f.size
        };
        self.bytes_written += size;
        Ok(())
    }

    /// Deletes a file, returning its final metadata.
    pub fn remove(&mut self, ino: Ino) -> FsResult<FileMeta> {
        let Some(meta) = self.files.remove(&ino) else {
            return Err(FsError::NoSuchFile(ino));
        };
        if let Some((opt, scored)) = meta.layout_counts_at(FPB) {
            self.agg.opt -= opt;
            self.agg.scored -= scored;
        }
        self.used_data_frags -= meta.data_frags_at(FPB);
        self.used_meta_frags -= meta.indirects().len() as u64 * u64::from(FPB);
        if let Some(d) = self.dirs.get_mut(&meta.dir) {
            d.nfiles -= 1;
        }
        self.release_meta_space(&meta);
        let (cg, slot) = self.geom.itog(ino);
        self.cgs[cg.0 as usize].free_inode(slot);
        Ok(meta)
    }

    /// The running aggregate layout score (Section 3.3), maintained
    /// incrementally as files are created and deleted.
    pub fn aggregate_layout(&self) -> LayoutAgg {
        self.agg
    }

    /// Fraction of allocatable (data) space in use, counting file data,
    /// indirect blocks, and directories. Matches the paper's
    /// convention of treating the minfree reserve as free space.
    pub fn utilization(&self) -> f64 {
        let total = self.geom.total_data_blocks as u64 * u64::from(FPB);
        (self.used_data_frags + self.used_meta_frags) as f64 / total as f64
    }

    /// Bytes of file data currently stored (excluding metadata).
    pub fn used_data_bytes(&self) -> u64 {
        self.used_data_frags * self.params.fsize as u64
    }

    /// Total free fragments across all groups.
    pub fn free_frags(&self) -> u64 {
        self.cgs.iter().map(|c| c.free_frags() as u64).sum()
    }

    /// Total fully free blocks across all groups.
    pub fn free_blocks(&self) -> u64 {
        self.cgs.iter().map(|c| c.free_blocks() as u64).sum()
    }

    /// Read-only view of a cylinder group (for analysis and tests).
    pub fn cg(&self, idx: CgIdx) -> &CylGroup {
        &self.cgs[idx.0 as usize]
    }

    /// Number of cylinder groups.
    pub fn ncg(&self) -> u32 {
        self.params.ncg
    }

    /// Reconstructs a file system from its inode table alone — the
    /// restore path of the aging checkpoint machinery. The caller
    /// supplies what a checkpoint records (directories, files, the
    /// cumulative write counter); every piece of derived state (fragment
    /// maps, inode bitmaps, free counters, layout aggregates) is rebuilt
    /// by the same machinery [`crate::repair::repair`] uses, and the
    /// result is verified with [`crate::check::check`].
    ///
    /// Returns [`FsError::Corrupt`] when the claims are malformed (an
    /// address outside the volume, a misaligned block, conflicting
    /// owners, an inode or directory recorded twice) — the signature of
    /// a corrupted or truncated checkpoint.
    pub fn restore(
        params: FsParams,
        policy: AllocPolicy,
        dirs: Vec<DirMeta>,
        files: Vec<FileMeta>,
        bytes_written: u64,
    ) -> FsResult<Filesystem> {
        let geom = Geometry::new(&params);
        let inode_limit = params.ncg * params.inodes_per_cg();
        for d in &dirs {
            // Directory ids are assigned sequentially from zero and never
            // reclaimed, so a legitimate checkpoint's ids are exactly
            // 0..dirs.len(). Rejecting anything larger also stops a
            // tampered checkpoint from sizing the slab's key index, as
            // the inode limit below does for files.
            if d.id.0 as usize >= dirs.len()
                || d.cg.0 >= params.ncg
                || d.ino_slot >= params.inodes_per_cg()
                || !geom.is_frag_run(d.block, DIR_FRAGS)
            {
                return Err(FsError::Corrupt(format!(
                    "directory {:?} has claims outside the volume",
                    d.id
                )));
            }
        }
        for f in &files {
            let blocks_ok = f
                .blocks
                .iter()
                .chain(f.indirects())
                .all(|&b| geom.is_block(b));
            let tail_ok = f.tail.is_none_or(|(d, n)| geom.is_frag_run(d, n));
            if !blocks_ok || !tail_ok || f.ino.0 >= inode_limit {
                return Err(FsError::Corrupt(format!(
                    "file {:?} has claims outside the volume",
                    f.ino
                )));
            }
        }
        let mut fs = Filesystem::new(params, policy);
        fs.bytes_written = bytes_written;
        fs.next_dir = dirs.iter().map(|d| d.id.0 + 1).max().unwrap_or(0);
        // A repeated id would overwrite the earlier record and take its
        // claims with it, leaving a smaller table that verifies clean.
        for d in dirs {
            let id = d.id;
            if fs.dirs.insert(id, d).is_some() {
                return Err(FsError::Corrupt(format!("directory {id:?} recorded twice")));
            }
        }
        for f in files {
            let ino = f.ino;
            if fs.files.insert(ino, f).is_some() {
                return Err(FsError::Corrupt(format!("file {ino:?} recorded twice")));
            }
        }
        crate::repair::rebuild_allocation_state(&mut fs);
        crate::check::verify(&fs)?;
        Ok(fs)
    }

    /// Per-group `(rotor, inode_rotor, frag_rotor)` search positions, in
    /// group order. Together with the inode table they make a checkpoint
    /// resume allocation-exact: the rotors are search *hints*, not
    /// derived state, so [`Filesystem::restore`] cannot rebuild them.
    pub fn rotors(&self) -> Vec<(u32, u32, u32)> {
        let rotors = |c: &CylGroup| (c.rotor(), c.irotor(), c.frotor());
        self.cgs.iter().map(rotors).collect()
    }

    /// Restores per-group rotor positions captured by
    /// [`Filesystem::rotors`]. Rejects a vector of the wrong length or a
    /// rotor outside its group as [`FsError::Corrupt`].
    pub fn set_rotors(&mut self, rotors: &[(u32, u32, u32)]) -> FsResult<()> {
        if rotors.len() != self.cgs.len() {
            return Err(FsError::Corrupt(format!(
                "rotor table has {} entries for {} groups",
                rotors.len(),
                self.cgs.len()
            )));
        }
        for (g, (&(rotor, irotor, frotor), cg)) in rotors.iter().zip(&self.cgs).enumerate() {
            if rotor.max(frotor) >= cg.nblocks() || irotor > cg.ninodes() {
                return Err(FsError::Corrupt(format!(
                    "rotor ({rotor}, {irotor}, {frotor}) outside group {g}"
                )));
            }
        }
        for (&r, cg) in rotors.iter().zip(&mut self.cgs) {
            cg.set_rotors(r);
        }
        Ok(())
    }

    /// A stable 64-bit digest (FNV-1a) of the parameters, the policy,
    /// the cumulative write counter, the next directory id, each
    /// directory's id, group, address, inode slot and file count, each
    /// file's inode, directory, size, mtime, blocks, tail and indirect
    /// blocks, and every group's rotors.
    ///
    /// It does not hash the block, fragment or inode maps, the summary
    /// counts, or how many fragments a directory claims, so equal
    /// digests do not mean equal free space: a checkpoint written when a
    /// directory claimed a whole block restores, with one fragment per
    /// directory, to the digest recorded for the whole-block volume
    /// (`checkpoint_fixture.rs`). Hashing the groups' bytes instead is
    /// ROADMAP item 20. The artifact cache uses the digest to validate
    /// that a deserialized aged image is the one that was saved; its
    /// keys also hash [`crate::PLACEMENT_REVISION`]. The digest is
    /// independent of *how* the state was reached (clone, checkpoint
    /// restore, replay) because it reads only canonical state in
    /// canonical (ascending slab key / group) order.
    pub fn digest(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut eat = |v: u64| {
            for b in v.to_le_bytes() {
                h ^= b as u64;
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        eat(self.params.size_bytes);
        eat(self.params.bsize as u64);
        eat(self.params.fsize as u64);
        eat(self.params.ncg as u64);
        eat(self.params.maxcontig as u64);
        eat(self.params.minfree_pct as u64);
        eat(self.params.bytes_per_inode as u64);
        eat(self.params.inode_size as u64);
        eat(match self.policy {
            AllocPolicy::Orig => 0,
            AllocPolicy::Realloc => 1,
        });
        eat(self.bytes_written);
        eat(self.next_dir as u64);
        eat(self.dirs.len() as u64);
        for d in self.dirs.values() {
            eat(d.id.0 as u64);
            eat(d.cg.0 as u64);
            eat(d.block.0 as u64);
            eat(d.ino_slot as u64);
            eat(d.nfiles as u64);
        }
        eat(self.files.len() as u64);
        for f in self.files.values() {
            eat(f.ino.0 as u64);
            eat(f.dir.0 as u64);
            eat(f.size);
            eat(f.mtime_day as u64);
            eat(f.blocks.len() as u64);
            for b in &f.blocks {
                eat(b.0 as u64);
            }
            match f.tail {
                Some((d, n)) => {
                    eat(1);
                    eat(d.0 as u64);
                    eat(n as u64);
                }
                None => eat(0),
            }
            eat(f.indirects().len() as u64);
            for b in f.indirects() {
                eat(b.0 as u64);
            }
        }
        for (rotor, irotor, frotor) in self.rotors() {
            eat(rotor as u64);
            eat(irotor as u64);
            // A fragment rotor on the block rotor adds nothing, so a state
            // written before the two rotors split digests as it did then.
            if frotor != rotor {
                eat(frotor as u64);
            }
        }
        h
    }

    // ------------------------------------------------------------------
    // Internals.
    // ------------------------------------------------------------------

    /// An [`AllocEngine`] over this file system's cylinder groups, with
    /// the policy knobs captured.
    pub(crate) fn engine(&mut self) -> AllocEngine<'_> {
        let cfg = EngineCfg {
            policy: self.policy,
            frag_bestfit: self.frag_bestfit,
            write_chunk_blocks: self.write_chunk_blocks,
        };
        let Filesystem {
            params,
            geom,
            cgs,
            alloc_stats,
            ..
        } = self;
        AllocEngine {
            params,
            geom: *geom,
            cgs,
            stats: alloc_stats,
            cfg,
        }
    }

    /// Returns a file's blocks, tail, and indirect blocks to the free
    /// maps (shared by delete and create-rollback), the blocks one
    /// contiguous run at a time.
    pub(crate) fn release_meta_space(&mut self, meta: &FileMeta) {
        let blocks = meta.blocks.iter().chain(meta.indirects());
        self.engine().free_blocks(blocks.copied());
        if let Some((d, n)) = meta.tail {
            let cg = &mut self.cgs[self.geom.dtog(d).0 as usize];
            let (b, off) = cg.daddr_to_block(d);
            cg.free_frag_run(b, off, n);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ffs_types::KB;

    fn fs(policy: AllocPolicy) -> (Filesystem, DirId) {
        let mut f = Filesystem::new(FsParams::small_test(), policy);
        let d = f.mkdir_in(CgIdx(0)).unwrap();
        (f, d)
    }

    #[test]
    fn digest_tracks_allocation_state() {
        let (mut a, d) = fs(AllocPolicy::Orig);
        let empty = a.digest();
        assert_eq!(empty, a.clone().digest(), "clone preserves the digest");
        let ino = a.create(d, 24 * KB, 3).unwrap();
        let with_file = a.digest();
        assert_ne!(empty, with_file, "allocation must change the digest");
        // An identically-built file system digests identically.
        let (mut b, db) = fs(AllocPolicy::Orig);
        b.create(db, 24 * KB, 3).unwrap();
        assert_eq!(with_file, b.digest());
        // Deleting does not return to the mkfs digest: bytes_written and
        // rotors remember the history that steers future allocation.
        a.remove(ino).unwrap();
        assert_ne!(a.digest(), empty);
        // Policy is part of the digest.
        let (o, _) = fs(AllocPolicy::Orig);
        let (r, _) = fs(AllocPolicy::Realloc);
        assert_ne!(o.digest(), r.digest());
    }

    #[test]
    fn restore_rejects_a_repeated_inode_or_directory() {
        let (mut f, d) = fs(AllocPolicy::Realloc);
        f.create(d, 24 * KB, 1).unwrap();
        f.create(d, 3 * KB, 2).unwrap();
        let restore = |dirs: Vec<DirMeta>, files: Vec<FileMeta>| {
            Filesystem::restore(f.params.clone(), f.policy, dirs, files, f.bytes_written)
        };
        let (dirs, files): (Vec<_>, Vec<_>) =
            (f.dirs().cloned().collect(), f.files().cloned().collect());
        let back = restore(dirs.clone(), files.clone()).expect("the intact table restores");
        assert_eq!(back.files, f.files);
        // Two records for one inode: the second used to overwrite the
        // first, and the smaller table verified clean.
        let mut twice = files.clone();
        twice[1].ino = twice[0].ino;
        let e = restore(dirs.clone(), twice).unwrap_err();
        assert!(
            matches!(&e, FsError::Corrupt(m) if m.contains(&format!("{:?}", files[0].ino))),
            "got {e:?}"
        );
        // A repeated directory id passes the `id < dirs.len()` guard.
        let e = restore(vec![dirs[0].clone(), dirs[0].clone()], files).unwrap_err();
        assert!(
            matches!(&e, FsError::Corrupt(m) if m.contains(&format!("{:?}", dirs[0].id))),
            "got {e:?}"
        );
    }

    #[test]
    fn empty_fs_has_full_free_space() {
        let f = Filesystem::new(FsParams::small_test(), AllocPolicy::Orig);
        assert_eq!(f.nfiles(), 0);
        assert_eq!(f.utilization(), 0.0);
        assert_eq!(f.aggregate_layout().score(), 1.0);
    }

    #[test]
    fn create_small_file_uses_fragments() {
        let (mut f, d) = fs(AllocPolicy::Orig);
        let ino = f.create(d, 3 * KB, 0).unwrap();
        let m = f.file(ino).unwrap();
        assert!(m.blocks.is_empty());
        assert_eq!(m.tail.map(|(_, n)| n), Some(3));
        assert_eq!(m.nchunks(), 1);
    }

    #[test]
    fn create_block_multiple_has_no_tail() {
        let (mut f, d) = fs(AllocPolicy::Orig);
        let ino = f.create(d, 32 * KB, 0).unwrap();
        let m = f.file(ino).unwrap();
        assert_eq!(m.blocks.len(), 4);
        assert!(m.tail.is_none());
    }

    #[test]
    fn near_full_tail_rounds_to_block() {
        // 15.5 KB: one block plus a 7.5 KB remainder, which needs 8 frags
        // and is therefore allocated as a full block.
        let (mut f, d) = fs(AllocPolicy::Orig);
        let ino = f.create(d, 15 * KB + 512, 0).unwrap();
        let m = f.file(ino).unwrap();
        assert_eq!(m.blocks.len(), 2);
        assert!(m.tail.is_none());
    }

    #[test]
    fn large_file_tail_is_full_block_not_frags() {
        // 100 KB: 12 full blocks + 4 KB remainder; beyond the direct
        // blocks the tail must be a full block.
        let (mut f, d) = fs(AllocPolicy::Orig);
        let ino = f.create(d, 100 * KB, 0).unwrap();
        let m = f.file(ino).unwrap();
        assert_eq!(m.blocks.len(), 13);
        assert!(m.tail.is_none());
        assert_eq!(m.indirects().len(), 1);
    }

    #[test]
    fn empty_fs_allocation_is_contiguous_for_both_policies() {
        for policy in [AllocPolicy::Orig, AllocPolicy::Realloc] {
            let (mut f, d) = fs(policy);
            let ino = f.create(d, 56 * KB, 0).unwrap();
            let m = f.file(ino).unwrap();
            assert_eq!(m.layout_score(f.params()), Some(1.0), "policy {policy:?}");
        }
    }

    #[test]
    fn indirect_block_forces_group_switch() {
        for policy in [AllocPolicy::Orig, AllocPolicy::Realloc] {
            let (mut f, d) = fs(policy);
            let ino = f.create(d, 104 * KB, 0).unwrap();
            let m = f.file(ino).unwrap();
            assert_eq!(m.blocks.len(), 13);
            assert_eq!(m.indirects().len(), 1);
            let p = f.params();
            // Block 12 lives in a different group than block 11...
            assert_ne!(p.dtog(m.blocks[11]), p.dtog(m.blocks[12]), "{policy:?}");
            // ...and the same group as its indirect block.
            assert_eq!(p.dtog(m.indirects()[0]), p.dtog(m.blocks[12]));
            // So the 13th block can never be optimal: score <= 11/12.
            let (opt, scored) = m.layout_counts(p).unwrap();
            assert_eq!(scored, 12);
            assert!(opt <= 11, "{policy:?}");
        }
    }

    #[test]
    fn remove_returns_all_space() {
        let (mut f, d) = fs(AllocPolicy::Orig);
        let free0 = f.free_frags();
        let ino = f.create(d, 100 * KB, 0).unwrap();
        assert!(f.free_frags() < free0);
        f.remove(ino).unwrap();
        assert_eq!(f.free_frags(), free0);
        assert_eq!(f.nfiles(), 0);
        assert_eq!(f.aggregate_layout(), LayoutAgg::default());
    }

    #[test]
    fn remove_unknown_file_errors() {
        let (mut f, _) = fs(AllocPolicy::Orig);
        assert_eq!(f.remove(Ino(999)), Err(FsError::NoSuchFile(Ino(999))));
    }

    #[test]
    fn create_in_unknown_dir_errors() {
        let mut f = Filesystem::new(FsParams::small_test(), AllocPolicy::Orig);
        assert_eq!(
            f.create(DirId(42), KB, 0),
            Err(FsError::NoSuchDir(DirId(42)))
        );
    }

    #[test]
    fn mkdir_per_cg_spreads_directories() {
        let mut f = Filesystem::new(FsParams::small_test(), AllocPolicy::Orig);
        let dirs = f.mkdir_per_cg().unwrap();
        assert_eq!(dirs.len(), 4);
        let groups: Vec<u32> = dirs.iter().map(|&d| f.dir(d).unwrap().cg.0).collect();
        assert_eq!(groups, vec![0, 1, 2, 3]);
    }

    #[test]
    fn mkdir_in_a_group_with_no_free_inode_spills() {
        let mut f = Filesystem::new(FsParams::small_test(), AllocPolicy::Orig);
        let per = f.params().inodes_per_cg();
        (0..per).for_each(|s| f.cgs[1].take_inode(s));
        let d = f.mkdir_in(CgIdx(1)).expect("a full group spills");
        // `ffs_hashalloc`'s first rehash from group 1 is group 2, which
        // counts the directory and holds its fragment.
        let dir = f.dir(d).unwrap().clone();
        assert_eq!((dir.cg, dir.ino_slot), (CgIdx(2), 0));
        assert_eq!(f.params().dtog(dir.block), CgIdx(2));
        let ndirs: Vec<u32> = (0..4).map(|g| f.cg(CgIdx(g)).ndirs()).collect();
        assert_eq!(ndirs, [0, 0, 1, 0]);
        assert_eq!(f.alloc_stats().cg_spills, 1);
        assert_eq!(crate::check(&f), []);
    }

    #[test]
    fn a_directory_takes_one_fragment_that_a_small_file_shares() {
        let mut f = Filesystem::new(FsParams::small_test(), AllocPolicy::Orig);
        let free = f.free_frags();
        let d = f.mkdir_in(CgIdx(0)).unwrap();
        let at = f.dir(d).unwrap().block;
        assert_eq!(free - f.free_frags(), u64::from(DIR_FRAGS));
        assert_eq!(f.used_meta_frags, 1);
        // First fit from the group's front packs the file's tail into
        // the rest of the directory's block.
        let ino = f.create(d, 3 * KB, 0).unwrap();
        assert_eq!(f.file(ino).unwrap().tail, Some((Daddr(at.0 + 1), 3)));
        assert_eq!(crate::check(&f), []);
    }

    #[test]
    fn dirpref_spreads_directories_across_groups() {
        let mut f = Filesystem::new(FsParams::small_test(), AllocPolicy::Orig);
        let mut seen = std::collections::BTreeSet::new();
        for _ in 0..4 {
            let d = f.mkdir().unwrap();
            seen.insert(f.dir(d).unwrap().cg.0);
        }
        assert_eq!(seen.len(), 4, "four dirs should land in four groups");
    }

    #[test]
    fn files_follow_their_directory_group() {
        let mut f = Filesystem::new(FsParams::small_test(), AllocPolicy::Orig);
        let dirs = f.mkdir_per_cg().unwrap();
        let ino = f.create(dirs[2], 16 * KB, 0).unwrap();
        let m = f.file(ino).unwrap();
        assert_eq!(f.params().dtog(m.blocks[0]), CgIdx(2));
        // The inode also comes from the directory's group.
        assert_eq!(f.params().ino_to_cg(ino).0, CgIdx(2));
    }

    #[test]
    fn aggregate_layout_tracks_creates_and_deletes() {
        let (mut f, d) = fs(AllocPolicy::Orig);
        let a = f.create(d, 32 * KB, 0).unwrap();
        let agg1 = f.aggregate_layout();
        assert_eq!(agg1.scored, 3);
        let b = f.create(d, 24 * KB, 0).unwrap();
        assert_eq!(f.aggregate_layout().scored, 5);
        f.remove(a).unwrap();
        assert_eq!(f.aggregate_layout().scored, 2);
        f.remove(b).unwrap();
        assert_eq!(f.aggregate_layout().scored, 0);
    }

    #[test]
    fn bytes_written_accumulates() {
        let (mut f, d) = fs(AllocPolicy::Orig);
        f.create(d, 10 * KB, 0).unwrap();
        let a = f.create(d, 6 * KB, 0).unwrap();
        f.remove(a).unwrap();
        // Deletes do not reduce the cumulative write counter.
        assert_eq!(f.bytes_written(), 16 * KB);
    }

    #[test]
    fn realloc_gathers_fragmented_window() {
        // Fragment the free space, then create a 56 KB file: the original
        // policy scatters it; realloc finds a hole big enough.
        let p = FsParams::small_test();
        for policy in [AllocPolicy::Orig, AllocPolicy::Realloc] {
            let mut f = Filesystem::new(p.clone(), policy);
            let d = f.mkdir_in(CgIdx(0)).unwrap();
            // Fill group 0 completely with 8 KB files...
            let mut inos: Vec<Ino> = Vec::new();
            while f.cg(CgIdx(0)).free_blocks() > 0 {
                inos.push(f.create(d, 8 * KB, 0).unwrap());
            }
            // ...then free scattered single-block holes early in the group
            // and one 10-block hole near its end.
            for i in (0..60).step_by(3) {
                f.remove(inos[i]).unwrap();
            }
            let n = inos.len();
            for &ino in &inos[n - 12..n - 2] {
                f.remove(ino).unwrap();
            }
            let ino = f.create(d, 56 * KB, 999).unwrap();
            let score = f.file(ino).unwrap().layout_score(f.params()).unwrap();
            match policy {
                // The original policy fills the single-block holes.
                AllocPolicy::Orig => {
                    assert!(score < 0.5, "orig policy unexpectedly contiguous: {score}")
                }
                // Realloc moves the cluster into the untouched region.
                AllocPolicy::Realloc => assert_eq!(score, 1.0),
            }
        }
    }

    #[test]
    fn realloc_not_invoked_below_two_blocks() {
        // A 12 KB file (one block + fragments) must not trigger the
        // realloc pass.
        let (mut f, d) = fs(AllocPolicy::Realloc);
        f.create(d, 12 * KB, 0).unwrap();
        assert_eq!(f.alloc_stats().realloc_windows, 0);
        // A 16 KB file fills its second block and does trigger it.
        f.create(d, 16 * KB, 0).unwrap();
        assert_eq!(f.alloc_stats().realloc_windows, 1);
    }

    #[test]
    fn no_space_rolls_back_cleanly() {
        let p = FsParams::small_test();
        let mut f = Filesystem::new(p, AllocPolicy::Orig);
        let d = f.mkdir_in(CgIdx(0)).unwrap();
        // Fill the file system with one huge file, then try another.
        let capacity = f.params().data_capacity_bytes();
        let big = f.create(d, capacity * 9 / 10, 0).unwrap();
        let free_before = f.free_frags();
        let files_before = f.nfiles();
        let util_before = f.utilization();
        // A fifth of the volume does not fit in the tenth that is left,
        // and runs out well past lbn 12 — after an indirect block.
        let err = f.create(d, capacity / 5, 0).unwrap_err();
        assert!(matches!(err, FsError::NoSpace { .. }));
        assert_eq!(f.free_frags(), free_before, "rollback must free space");
        assert_eq!(f.nfiles(), files_before);
        assert_eq!(f.utilization(), util_before, "rollback must uncount it");
        assert_eq!(crate::check(&f), []);
        f.remove(big).unwrap();
    }

    #[test]
    fn utilization_reflects_data_and_metadata() {
        let (mut f, d) = fs(AllocPolicy::Orig);
        let u0 = f.utilization();
        f.create(d, 200 * KB, 0).unwrap();
        assert!(f.utilization() > u0);
    }

    #[test]
    fn zero_size_file_is_legal() {
        let (mut f, d) = fs(AllocPolicy::Orig);
        let ino = f.create(d, 0u64, 0).unwrap();
        let m = f.file(ino).unwrap();
        assert_eq!(m.nchunks(), 0);
        assert_eq!(m.layout_score(f.params()), None);
        f.remove(ino).unwrap();
    }

    #[test]
    fn file_too_large_is_rejected() {
        let (mut f, d) = fs(AllocPolicy::Orig);
        let max = f.params().max_file_size();
        assert!(matches!(
            f.create(d, max + 1, 0),
            Err(FsError::FileTooLarge { .. })
        ));
        // Below the volume's limit but past what a workload op holds.
        assert!(max > u32::MAX.into());
        assert!(matches!(
            f.create(d, u64::from(u32::MAX) + 1, 0),
            Err(FsError::InvalidArg(_))
        ));
        assert_eq!(f.nfiles(), 0, "a rejected create allocates nothing");
    }
}
