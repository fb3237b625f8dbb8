//! Appending to and truncating existing files.
//!
//! The create path allocates a whole file at once; real file systems also
//! grow files in place. Growth exercises the fragment machinery the
//! paper's two-block quirk depends on: a growing tail is first *extended
//! in place* when the fragments after it are free (`ffs_fragextend`),
//! otherwise it moves to a larger run or is promoted to a full block
//! (`ffs_realloccg`), leaving the vacated fragments behind as the fine
//! free-space debris aged file systems accumulate.

use ffs_types::params::NDADDR;
use ffs_types::{Daddr, FsError, FsParams, FsResult, Ino};

use crate::alloc::{realloc_windows, AllocPolicy};
use crate::fs::Filesystem;

/// Number of indirect (metadata) blocks a file of `nfull` data blocks
/// needs: one per indirect region, plus one extra for the
/// double-indirect root.
pub(crate) fn indirects_needed(params: &FsParams, nfull: u32) -> usize {
    let root_at = NDADDR + params.nindir();
    (params.switch_lbns(nfull))
        .map(|lbn| if lbn.0 == root_at { 2 } else { 1 })
        .sum()
}

/// Whether data block `lbn` is the first of an indirect region — a
/// cylinder-group switch point ([`FsParams::switch_lbns`]) of any file
/// long enough to have it.
pub(crate) fn opens_indirect_region(params: &FsParams, lbn: u32) -> bool {
    lbn >= NDADDR && (lbn - NDADDR).is_multiple_of(params.nindir())
}

/// The final shape of a file of `size` bytes: full blocks and tail
/// fragments, under the FFS rule that only direct-block files keep a
/// fragment tail. `fpb` is the volume's fragments per block.
pub(crate) fn file_shape(params: &FsParams, fpb: u32, size: u64) -> (u32, u32) {
    let bsize = params.bsize as u64;
    let mut nfull = (size / bsize) as u32;
    let rem = size % bsize;
    let mut tail = 0u32;
    if rem > 0 {
        if nfull < NDADDR {
            tail = (rem as u32).div_ceil(params.fsize);
            if tail == fpb {
                tail = 0;
                nfull += 1;
            }
        } else {
            nfull += 1;
        }
    }
    (nfull, tail)
}

impl Filesystem {
    /// Appends `bytes` bytes to a live file, growing its allocation in
    /// place where possible and stamping the modification day.
    ///
    /// The tail is extended in place when the fragments following it are
    /// free; otherwise it is reallocated to a larger run or promoted to a
    /// full block. New full blocks chain from the file's current end and
    /// run through the realloc pass under [`AllocPolicy::Realloc`].
    pub fn append(&mut self, ino: Ino, bytes: u64, day: u32) -> FsResult<()> {
        if bytes == 0 {
            return self.rewrite(ino, day);
        }
        let (old_size, dir) = {
            let f = self.files.get(&ino).ok_or(FsError::NoSuchFile(ino))?;
            (f.size, f.dir)
        };
        let new_size = old_size + bytes;
        if new_size > self.params.max_file_size() {
            return Err(FsError::FileTooLarge {
                size: new_size,
                max: self.params.max_file_size(),
            });
        }
        let fpb = self.geom.fpb;
        let dcg = self.dirs.get(&dir).expect("file's dir exists").cg;
        // Take the file out of the aggregates while its shape changes.
        self.retire_from_aggregates(ino);
        let (nfull_new, tail_new) = file_shape(&self.params, fpb, new_size);
        let old_nfull = self.files[&ino].blocks.len() as u32;

        // Phase A: resolve the existing tail. It either grows in place,
        // moves to a bigger run, or is promoted to a full block.
        if let Some((taddr, tlen)) = self.files[&ino].tail {
            let keep_as_tail = nfull_new == old_nfull;
            if keep_as_tail && tail_new <= tlen {
                // The growth still fits in the fragments the tail already
                // rounds up to; nothing moves.
                let f = self.files.get_mut(&ino).expect("live file");
                f.size = new_size;
                f.mtime_day = day;
                self.bytes_written += bytes;
                self.restore_to_aggregates(ino);
                return Ok(());
            }
            let target = if keep_as_tail { tail_new } else { fpb };
            match self.extend_or_move_tail(ino, taddr, tlen, target, dcg) {
                Ok(addr) => {
                    let f = self.files.get_mut(&ino).expect("live file");
                    if target == fpb {
                        f.tail = None;
                        f.blocks.push(addr);
                    } else {
                        f.tail = Some((addr, target));
                    }
                }
                Err(e) => {
                    self.restore_to_aggregates(ino);
                    return Err(e);
                }
            }
        }

        // Phase B: allocate the remaining full blocks, switching groups
        // at indirect boundaries exactly as the create path does.
        if let Err(e) = self.grow_blocks(ino, dcg, nfull_new) {
            // Partial growth is kept (the file is consistent, just
            // shorter); report the failure after restoring aggregates.
            let f = self.files.get_mut(&ino).expect("live file");
            f.size = (f.blocks.len() as u64) * self.params.bsize as u64;
            self.restore_to_aggregates(ino);
            return Err(e);
        }

        // Phase C: the new tail, if the final shape has one.
        let have_tail = self.files[&ino].tail.map(|(_, n)| n).unwrap_or(0);
        if tail_new > have_tail {
            let prev = self.files[&ino].blocks.last().copied();
            let pref = prev.map(|d| Daddr(d.0 + fpb));
            let hint = prev.map(|d| self.geom.dtog(d)).unwrap_or(dcg);
            match self.alloc_frag_run(hint, tail_new, pref) {
                Ok(t) => {
                    self.files.get_mut(&ino).expect("live file").tail = Some((t, tail_new));
                }
                Err(e) => {
                    let f = self.files.get_mut(&ino).expect("live file");
                    f.size = (f.blocks.len() as u64) * self.params.bsize as u64;
                    self.restore_to_aggregates(ino);
                    return Err(e);
                }
            }
        }

        // Realloc pass over the windows the append dirtied.
        if self.policy == AllocPolicy::Realloc && new_size >= 2 * self.params.bsize as u64 {
            let _sp = obs::span!("realloc_pass");
            let dirty_from = old_nfull.saturating_sub(1);
            for w in realloc_windows(nfull_new, self.params.maxcontig, self.params.nindir()) {
                if w.0 >= dirty_from {
                    let pref = self.append_window_pref(ino, w.0);
                    self.realloc_window(ino, w, pref);
                }
            }
        }

        let f = self.files.get_mut(&ino).expect("live file");
        f.size = new_size;
        f.mtime_day = day;
        self.bytes_written += bytes;
        self.restore_to_aggregates(ino);
        Ok(())
    }

    /// Truncates a live file to `new_size` (which must not exceed the
    /// current size), returning freed blocks and fragments to the maps.
    pub fn truncate(&mut self, ino: Ino, new_size: u64, day: u32) -> FsResult<()> {
        let old_size = self.files.get(&ino).ok_or(FsError::NoSuchFile(ino))?.size;
        if new_size > old_size {
            return Err(FsError::InvalidArg(
                "truncate cannot grow a file; use append",
            ));
        }
        if new_size == old_size {
            let f = self.files.get_mut(&ino).expect("live file");
            f.mtime_day = day;
            return Ok(());
        }
        let fpb = self.geom.fpb;
        self.retire_from_aggregates(ino);
        let (nfull_new, tail_new) = file_shape(&self.params, fpb, new_size);

        // Tail handling. When the new size still ends inside the old
        // tail run (same full-block count), the tail shrinks in place;
        // otherwise the old tail is freed outright and a surviving tail
        // is rebuilt from a donor block below.
        let old_tail = self.files.get_mut(&ino).expect("live file").tail.take();
        let same_blocks = self.files[&ino].blocks.len() as u32 == nfull_new;
        if let Some((taddr, tlen)) = old_tail {
            if tail_new > 0 && same_blocks {
                debug_assert!(tail_new <= tlen);
                if tail_new < tlen {
                    self.free_frag_range(Daddr(taddr.0 + tail_new), tlen - tail_new);
                }
                self.files.get_mut(&ino).expect("live file").tail = Some((taddr, tail_new));
            } else {
                self.free_frag_range(taddr, tlen);
            }
        }
        // Free whole blocks beyond the new shape (keeping one extra as
        // the tail donor when the new shape has a tail).
        let keep_blocks = nfull_new + u32::from(tail_new > 0);
        while self.files[&ino].blocks.len() as u32 > keep_blocks {
            let addr = self
                .files
                .get_mut(&ino)
                .expect("live file")
                .blocks
                .pop()
                .expect("length checked");
            self.engine().free_blocks([addr]);
        }
        // Demote the donor block into the new tail.
        if tail_new > 0 && self.files[&ino].blocks.len() as u32 == keep_blocks {
            let addr = self
                .files
                .get_mut(&ino)
                .expect("live file")
                .blocks
                .pop()
                .expect("donor exists");
            // Free the unused back portion of the block.
            debug_assert!(addr.0.is_multiple_of(fpb));
            self.free_frag_range(Daddr(addr.0 + tail_new), fpb - tail_new);
            self.files.get_mut(&ino).expect("live file").tail = Some((addr, tail_new));
        }
        // Drop indirect blocks the shorter file no longer needs.
        let need = indirects_needed(&self.params, nfull_new);
        while self.files[&ino].indirects.len() > need {
            let addr = self
                .files
                .get_mut(&ino)
                .expect("live file")
                .indirects
                .pop()
                .expect("length checked");
            self.engine().free_blocks([addr]);
            self.used_meta_frags -= fpb as u64;
        }
        let f = self.files.get_mut(&ino).expect("live file");
        f.size = new_size;
        f.mtime_day = day;
        self.restore_to_aggregates(ino);
        Ok(())
    }

    // ------------------------------------------------------------------
    // Internals.
    // ------------------------------------------------------------------

    /// Grows a tail run at `taddr` from `tlen` to `target` fragments:
    /// in place when the following fragments are free (`ffs_fragextend`),
    /// otherwise by allocating a new run (or block) and releasing the old
    /// fragments. Returns the run's (possibly new) address.
    fn extend_or_move_tail(
        &mut self,
        _ino: Ino,
        taddr: Daddr,
        tlen: u32,
        target: u32,
        dcg: ffs_types::CgIdx,
    ) -> FsResult<Daddr> {
        debug_assert!(target > tlen);
        let fpb = self.geom.fpb;
        let g = self.geom.dtog(taddr);
        let (b, off) = self.cgs[g.0 as usize].daddr_to_block(taddr);
        // In-place extension: the fragments after the run are free and
        // the extended run still fits in the block.
        if off + target <= fpb && self.cgs[g.0 as usize].is_run_free(b, off + tlen, target - tlen) {
            self.cgs[g.0 as usize].alloc_frags(b, off + tlen, target - tlen);
            self.alloc_stats.frag_extends = self.alloc_stats.frag_extends.saturating_add(1);
            return Ok(taddr);
        }
        // Move: allocate the bigger run first, then release the old one
        // (the copy happens before the old data is freed, as in FFS).
        let new_addr = if target == fpb {
            self.alloc_block(g, Some(taddr))?
        } else {
            self.alloc_frag_run(dcg, target, Some(taddr))?
        };
        self.free_frag_range(taddr, tlen);
        self.alloc_stats.frag_moves = self.alloc_stats.frag_moves.saturating_add(1);
        Ok(new_addr)
    }

    /// Appends full blocks until the file has `nfull_new`, allocating
    /// indirect blocks at region boundaries.
    fn grow_blocks(&mut self, ino: Ino, dcg: ffs_types::CgIdx, nfull_new: u32) -> FsResult<()> {
        let geom = self.geom;
        let fpb = geom.fpb;
        loop {
            let (lbn, prev) = {
                let f = self.files.get(&ino).expect("live file");
                (f.blocks.len() as u32, f.blocks.last().copied())
            };
            if lbn >= nfull_new {
                return Ok(());
            }
            let mut prev = prev;
            let mut cur_cg = prev.map(|d| geom.dtog(d)).unwrap_or(dcg);
            if opens_indirect_region(&self.params, lbn)
                && indirects_needed(&self.params, lbn + 1) > self.files[&ino].indirects.len()
            {
                cur_cg = self.pick_new_data_cg(cur_cg);
                let n_meta = if lbn == NDADDR + self.params.nindir() {
                    2
                } else {
                    1
                };
                for _ in 0..n_meta {
                    let ind = self.alloc_block(cur_cg, None)?;
                    self.used_meta_frags += fpb as u64;
                    let f = self.files.get_mut(&ino).expect("live file");
                    f.indirects.push(ind);
                    prev = Some(ind);
                    cur_cg = geom.dtog(ind);
                }
            }
            let pref = prev.map(|d| Daddr(d.0 + fpb));
            let addr = self.alloc_block(cur_cg, pref)?;
            self.files
                .get_mut(&ino)
                .expect("live file")
                .blocks
                .push(addr);
        }
    }

    /// Cluster-search preference for an append-time realloc window.
    fn append_window_pref(&self, ino: Ino, wstart: u32) -> Option<Daddr> {
        if wstart == 0 {
            return None;
        }
        let f = self.files.get(&ino).expect("live file");
        (f.blocks.get(wstart as usize - 1)).map(|d| Daddr(d.0 + self.geom.fpb))
    }

    /// The file's `(optimal, scored, data fragments)` contribution to the
    /// running aggregates.
    fn aggregate_share(&self, ino: Ino) -> (u64, u64, u64) {
        let meta = self.files.get(&ino).expect("live file");
        let (opt, scored) = meta.layout_counts_at(self.geom.fpb).unwrap_or((0, 0));
        (opt, scored, meta.data_frags_at(self.geom.fpb))
    }

    /// Removes the file's layout and space contribution from the running
    /// aggregates (paired with [`Filesystem::restore_to_aggregates`]).
    fn retire_from_aggregates(&mut self, ino: Ino) {
        let (opt, scored, frags) = self.aggregate_share(ino);
        self.agg.opt -= opt;
        self.agg.scored -= scored;
        self.used_data_frags -= frags;
    }

    /// Re-adds the file's (possibly changed) contribution.
    fn restore_to_aggregates(&mut self, ino: Ino) {
        let (opt, scored, frags) = self.aggregate_share(ino);
        self.agg.opt += opt;
        self.agg.scored += scored;
        self.used_data_frags += frags;
    }

    /// Frees a fragment run given its address.
    pub(crate) fn free_frag_range(&mut self, addr: Daddr, len: u32) {
        let cg = &mut self.cgs[self.geom.dtog(addr).0 as usize];
        let (b, off) = cg.daddr_to_block(addr);
        cg.free_frag_run(b, off, len);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check::assert_consistent;
    use ffs_types::{CgIdx, KB};

    fn fs(policy: AllocPolicy) -> (Filesystem, ffs_types::DirId) {
        let mut f = Filesystem::new(ffs_types::FsParams::small_test(), policy);
        let d = f.mkdir_in(CgIdx(0)).unwrap();
        (f, d)
    }

    #[test]
    fn shape_matches_create_rules() {
        let p = ffs_types::FsParams::paper_502mb();
        let shape = |size| file_shape(&p, p.frags_per_block(), size);
        assert_eq!(shape(0), (0, 0));
        assert_eq!(shape(3 * KB), (0, 3));
        assert_eq!(shape(8 * KB), (1, 0));
        assert_eq!(shape(15 * KB + 512), (2, 0));
        assert_eq!(shape(100 * KB), (13, 0));
    }

    #[test]
    fn indirects_needed_matches_create() {
        let p = ffs_types::FsParams::paper_502mb();
        assert_eq!(indirects_needed(&p, 12), 0);
        assert_eq!(indirects_needed(&p, 13), 1);
        assert_eq!(indirects_needed(&p, 2060), 1);
        assert_eq!(indirects_needed(&p, 2061), 3);
    }

    #[test]
    fn append_extends_tail_in_place_on_empty_fs() {
        let (mut f, d) = fs(AllocPolicy::Orig);
        let ino = f.create(d, 3 * KB, 0).unwrap();
        let tail0 = f.file(ino).unwrap().tail.unwrap();
        f.append(ino, 2 * KB, 1).unwrap();
        let m = f.file(ino).unwrap();
        assert_eq!(m.size, 5 * KB);
        let tail1 = m.tail.unwrap();
        // Same address, longer run: ffs_fragextend succeeded.
        assert_eq!(tail1.0, tail0.0);
        assert_eq!(tail1.1, 5);
        assert!(f.alloc_stats().frag_extends >= 1);
        assert_consistent(&f);
    }

    #[test]
    fn append_promotes_tail_to_block() {
        let (mut f, d) = fs(AllocPolicy::Orig);
        let ino = f.create(d, 12 * KB, 0).unwrap();
        assert_eq!(f.file(ino).unwrap().blocks.len(), 1);
        f.append(ino, 12 * KB, 1).unwrap();
        let m = f.file(ino).unwrap();
        assert_eq!(m.size, 24 * KB);
        assert_eq!(m.blocks.len(), 3);
        assert!(m.tail.is_none());
        assert_consistent(&f);
    }

    #[test]
    fn blocked_tail_moves_and_frees_old_fragments() {
        let (mut f, d) = fs(AllocPolicy::Orig);
        let a = f.create(d, 3 * KB, 0).unwrap();
        // A second fragment allocation right after `a`'s tail blocks the
        // in-place extension.
        let b = f.create(d, 3 * KB, 0).unwrap();
        let tail_a = f.file(a).unwrap().tail.unwrap();
        let tail_b = f.file(b).unwrap().tail.unwrap();
        assert_eq!(tail_b.0 .0, tail_a.0 .0 + 3, "test setup: adjacent tails");
        let free0 = f.free_frags();
        f.append(a, 3 * KB, 1).unwrap();
        let m = f.file(a).unwrap();
        assert_eq!(m.size, 6 * KB);
        let tail2 = m.tail.unwrap();
        assert_ne!(tail2.0, tail_a.0, "tail must have moved");
        assert_eq!(tail2.1, 6);
        // Net fragment usage grew by exactly 3 (old 3 freed, new 6 used).
        assert_eq!(free0 - f.free_frags(), 3);
        assert!(f.alloc_stats().frag_moves >= 1);
        assert_consistent(&f);
    }

    #[test]
    fn append_across_indirect_boundary_allocates_indirect() {
        let (mut f, d) = fs(AllocPolicy::Realloc);
        let ino = f.create(d, 90 * KB, 0).unwrap();
        assert!(f.file(ino).unwrap().indirects.is_empty());
        f.append(ino, 30 * KB, 1).unwrap();
        let m = f.file(ino).unwrap();
        assert_eq!(m.size, 120 * KB);
        assert_eq!(m.blocks.len(), 15);
        assert_eq!(m.indirects.len(), 1);
        assert_consistent(&f);
    }

    #[test]
    fn many_small_appends_equal_one_create_logically() {
        let (mut f, d) = fs(AllocPolicy::Realloc);
        let grown = f.create(d, KB, 0).unwrap();
        for _ in 0..63 {
            f.append(grown, KB, 0).unwrap();
        }
        let m = f.file(grown).unwrap();
        assert_eq!(m.size, 64 * KB);
        assert_eq!(m.blocks.len(), 8);
        assert!(m.tail.is_none());
        assert_consistent(&f);
    }

    #[test]
    fn truncate_frees_space_and_rebuilds_tail() {
        let (mut f, d) = fs(AllocPolicy::Orig);
        let free0 = f.free_frags();
        let ino = f.create(d, 50 * KB, 0).unwrap();
        f.truncate(ino, 11 * KB, 1).unwrap();
        let m = f.file(ino).unwrap();
        assert_eq!(m.size, 11 * KB);
        assert_eq!(m.blocks.len(), 1);
        assert_eq!(m.tail.map(|(_, n)| n), Some(3));
        assert_eq!(free0 - f.free_frags(), 8 + 3);
        assert_consistent(&f);
        f.truncate(ino, 0, 2).unwrap();
        assert_eq!(f.free_frags(), free0);
        assert_consistent(&f);
    }

    #[test]
    fn truncate_drops_indirect_blocks() {
        let (mut f, d) = fs(AllocPolicy::Orig);
        let ino = f.create(d, 200 * KB, 0).unwrap();
        assert_eq!(f.file(ino).unwrap().indirects.len(), 1);
        f.truncate(ino, 64 * KB, 1).unwrap();
        assert!(f.file(ino).unwrap().indirects.is_empty());
        assert_consistent(&f);
    }

    #[test]
    fn truncate_rejects_growth_and_append_rejects_overflow() {
        let (mut f, d) = fs(AllocPolicy::Orig);
        let ino = f.create(d, 8 * KB, 0).unwrap();
        assert!(matches!(
            f.truncate(ino, 16 * KB, 1),
            Err(FsError::InvalidArg(_))
        ));
        let max = f.params().max_file_size();
        assert!(matches!(
            f.append(ino, max, 1),
            Err(FsError::FileTooLarge { .. })
        ));
        assert_consistent(&f);
    }

    #[test]
    fn append_updates_aggregates_consistently() {
        let (mut f, d) = fs(AllocPolicy::Realloc);
        let ino = f.create(d, 20 * KB, 0).unwrap();
        f.create(d, 8 * KB, 0).unwrap();
        f.append(ino, 60 * KB, 3).unwrap();
        // The incremental aggregate must equal a recomputation.
        assert_eq!(f.aggregate_layout(), crate::layout::recompute_aggregate(&f));
        assert_eq!(f.file(ino).unwrap().mtime_day, 3);
        assert_consistent(&f);
    }

    #[test]
    fn append_and_truncate_round_trip_space() {
        let (mut f, d) = fs(AllocPolicy::Realloc);
        let free0 = f.free_frags();
        let ino = f.create(d, 5 * KB, 0).unwrap();
        f.append(ino, 123 * KB, 1).unwrap();
        f.truncate(ino, 9 * KB, 2).unwrap();
        f.append(ino, 40 * KB, 3).unwrap();
        f.remove(ino).unwrap();
        assert_eq!(f.free_frags(), free0);
        assert_consistent(&f);
    }
}
