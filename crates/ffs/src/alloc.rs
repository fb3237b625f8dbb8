//! Block and fragment allocation: cylinder-group selection, the original
//! one-block-at-a-time policy, and the 4.4BSD realloc (cluster
//! reallocation) pass.
//!
//! The paper's framing (Section 2): allocation is two steps — pick a
//! cylinder group, then pick a block within it. The *original* policy
//! takes the preferred block if free and otherwise the next free block in
//! the map, without regard to the size of the free region it sits in. The
//! *realloc* policy additionally gathers each dirty cluster of logically
//! sequential blocks before it reaches the disk and tries to move it into
//! a free cluster of the appropriate size.
//!
//! "One block at a time" describes the *policy*: which block the
//! original allocator would pick next. The write path does not loop over
//! blocks. Whenever the block the policy picked is followed by free
//! blocks, its next picks are exactly those — each one a preference hit
//! on the block after the last — so `AllocEngine::alloc_blocks` takes
//! the whole extent with one map transition
//! ([`CylGroup::alloc_block_run`]), up to the next point where the
//! policy does something else (a cylinder-group switch, a realloc flush,
//! the end of the file). Deletes and the realloc move return blocks the
//! same way, one transition per address-contiguous run. The per-block
//! loop this replaced lives on behind [`crate::naive::create_per_block`];
//! `tests/extent_oracle.rs` holds the two equal.
//!
//! The allocation core lives on `AllocEngine`, which borrows the
//! cylinder groups, the parameters and the counters instead of the whole
//! [`Filesystem`], so a caller can hold a file's [`FileMeta`] mutably
//! next to it. There is one engine shape — every group of the volume —
//! because replay has one day loop: a paper-scale day is ~2 ms of work,
//! so parallelism lives at job and shard granularity (`--jobs`), not
//! inside a volume (DESIGN.md "Experiment engine").

use ffs_types::params::NDADDR;
use ffs_types::{CgIdx, Daddr, FsError, FsParams, FsResult, Ino};

use crate::cg::CylGroup;
use crate::fs::Filesystem;
use crate::geom::Geometry;
use crate::inode::FileMeta;

/// Which disk allocation policy a file system runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AllocPolicy {
    /// The traditional FFS allocator (4.3BSD): one block at a time,
    /// nearest free block on miss.
    Orig,
    /// The original allocator plus McKusick's reallocation pass
    /// (`ffs_reallocblks` in 4.4BSD-Lite).
    Realloc,
}

impl AllocPolicy {
    /// Short label used in reports ("FFS" / "FFS + Realloc", as in the
    /// paper's figures).
    pub fn label(self) -> &'static str {
        match self {
            AllocPolicy::Orig => "FFS",
            AllocPolicy::Realloc => "FFS + Realloc",
        }
    }

    /// Stable name used in run records, artifacts and cache keys
    /// (`orig` / `realloc`). Every cached artifact's content address
    /// hashes it, so it never changes.
    pub fn name(self) -> &'static str {
        match self {
            AllocPolicy::Orig => "orig",
            AllocPolicy::Realloc => "realloc",
        }
    }
}

/// Counters describing allocator behaviour, used by tests, ablations, and
/// the experiment reports.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct AllocStats {
    /// Full blocks allocated.
    pub block_allocs: u64,
    /// Preferred (contiguous) block taken directly.
    pub pref_hits: u64,
    /// Fragment runs allocated.
    pub frag_allocs: u64,
    /// Fragment allocations served by splitting a fully free block.
    pub frag_splits: u64,
    /// Allocations that spilled to another cylinder group.
    pub cg_spills: u64,
    /// Realloc windows examined.
    pub realloc_windows: u64,
    /// Realloc windows actually moved into a free cluster.
    pub realloc_moves: u64,
    /// Blocks moved by realloc.
    pub realloc_blocks_moved: u64,
    /// Realloc windows that needed a move but found no free cluster.
    pub realloc_failures: u64,
    /// Tail runs extended in place (`ffs_fragextend`). Always 0: no op
    /// grows a live file, so nothing produces it. Kept only because the
    /// frozen bench folds it into every `sim_fingerprint`.
    pub frag_extends: u64,
    /// Tail runs that had to move to a larger run or block. Always 0, and
    /// kept, for the same reason as `frag_extends`.
    pub frag_moves: u64,
    /// Realloc windows already contiguous (no move needed).
    pub realloc_already_contig: u64,
    /// Blocks moved by the online relocation primitive
    /// ([`Filesystem::relocate_block`]), i.e. by defragmenters.
    pub relocations: u64,
}

impl AllocStats {
    /// Adds every counter of `other` into `self`, saturating at
    /// `u64::MAX`, so the totals of several independent file systems
    /// can be reported as one (the allocator analogue of
    /// `DeviceStats::merge`).
    pub fn merge(&mut self, other: &AllocStats) {
        self.block_allocs = self.block_allocs.saturating_add(other.block_allocs);
        self.pref_hits = self.pref_hits.saturating_add(other.pref_hits);
        self.frag_allocs = self.frag_allocs.saturating_add(other.frag_allocs);
        self.frag_splits = self.frag_splits.saturating_add(other.frag_splits);
        self.cg_spills = self.cg_spills.saturating_add(other.cg_spills);
        self.realloc_windows = self.realloc_windows.saturating_add(other.realloc_windows);
        self.realloc_moves = self.realloc_moves.saturating_add(other.realloc_moves);
        self.realloc_blocks_moved = self
            .realloc_blocks_moved
            .saturating_add(other.realloc_blocks_moved);
        self.realloc_failures = self.realloc_failures.saturating_add(other.realloc_failures);
        self.frag_extends = self.frag_extends.saturating_add(other.frag_extends);
        self.frag_moves = self.frag_moves.saturating_add(other.frag_moves);
        self.realloc_already_contig = self
            .realloc_already_contig
            .saturating_add(other.realloc_already_contig);
        self.relocations = self.relocations.saturating_add(other.relocations);
    }

    /// Publishes the difference `self - prev` to the process-wide obs
    /// counters. The allocator keeps its own plain counters (`self`) on
    /// the hot path and callers batch them out at a coarse boundary —
    /// replay flushes once per simulated day — because a per-allocation
    /// atomic bump is measurable across the ~500k block allocations of a
    /// 30-day replay. Totals are identical either way; only the moment
    /// the registry sees them moves.
    pub fn publish_delta(&self, prev: &AllocStats) {
        obs::counter!(
            "ffs.block_allocs",
            self.block_allocs.saturating_sub(prev.block_allocs)
        );
        obs::counter!(
            "ffs.pref_hits",
            self.pref_hits.saturating_sub(prev.pref_hits)
        );
        obs::counter!(
            "ffs.frag_allocs",
            self.frag_allocs.saturating_sub(prev.frag_allocs)
        );
        obs::counter!(
            "ffs.cg_spills",
            self.cg_spills.saturating_sub(prev.cg_spills)
        );
        obs::counter!(
            "ffs.realloc_moves",
            self.realloc_moves.saturating_sub(prev.realloc_moves)
        );
        obs::counter!(
            "ffs.realloc_failures",
            self.realloc_failures.saturating_sub(prev.realloc_failures)
        );
        obs::counter!(
            "ffs.realloc_already_contig",
            self.realloc_already_contig
                .saturating_sub(prev.realloc_already_contig)
        );
        obs::counter!(
            "ffs.relocations",
            self.relocations.saturating_sub(prev.relocations)
        );
    }
}

/// The logical-block windows over which the realloc pass operates for a
/// file of `nfull` full blocks: runs of up to `maxcontig` blocks that
/// restart at each indirect-block boundary (windows never span the
/// cylinder-group switch of footnote 1). An iterator, so the write path
/// and the defragmenter walk a file's windows without collecting them.
pub fn realloc_windows(
    nfull: u32,
    maxcontig: u32,
    nindir: u32,
) -> impl Iterator<Item = (u32, u32)> {
    let mut s = 0u32;
    let mut region_end = NDADDR.min(nfull);
    std::iter::from_fn(move || {
        if s >= nfull {
            return None;
        }
        if s == region_end {
            region_end = (region_end + nindir).min(nfull);
        }
        let e = (s + maxcontig).min(region_end);
        let w = (s, e);
        s = e;
        Some(w)
    })
}

/// Number of indirect (metadata) blocks a file of `nfull` data blocks
/// needs: one per indirect region, plus one extra for the
/// double-indirect root.
fn indirects_needed(params: &FsParams, nfull: u32) -> usize {
    let root_at = NDADDR + params.nindir();
    (params.switch_lbns(nfull))
        .map(|lbn| if lbn.0 == root_at { 2 } else { 1 })
        .sum()
}

/// Whether data block `lbn` is the first of an indirect region — a
/// cylinder-group switch point ([`FsParams::switch_lbns`]) of any file
/// long enough to have it.
fn opens_indirect_region(params: &FsParams, lbn: u32) -> bool {
    lbn >= NDADDR && (lbn - NDADDR).is_multiple_of(params.nindir())
}

/// The final shape of a file of `size` bytes: full blocks and tail
/// fragments, under the FFS rule that only direct-block files keep a
/// fragment tail. `fpb` is the volume's fragments per block.
fn file_shape(params: &FsParams, fpb: u32, size: u64) -> (u32, u32) {
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

/// Policy knobs an [`AllocEngine`] carries, captured from the owning
/// [`Filesystem`].
#[derive(Clone, Copy)]
pub(crate) struct EngineCfg {
    pub policy: AllocPolicy,
    pub cluster_first_fit: bool,
    pub realloc_no_split: bool,
    pub frag_bestfit: bool,
    pub write_chunk_blocks: u32,
}

/// The allocation core: every block, fragment, and inode placement
/// decision, plus the realloc pass and the whole-file write path,
/// operating on the cylinder groups and a detached [`FileMeta`] rather
/// than the full [`Filesystem`].
pub(crate) struct AllocEngine<'a> {
    pub params: &'a FsParams,
    pub geom: Geometry,
    pub cgs: &'a mut [CylGroup],
    pub stats: &'a mut AllocStats,
    pub cfg: EngineCfg,
}

/// Cylinder-group choice when a file crosses an indirect-block boundary
/// (`ffs_blkpref` for the first block of an indirect range): the next
/// group, scanning forward from the current one, with an above-average
/// number of free blocks.
pub(crate) fn pick_new_data_cg_in(cgs: &[CylGroup], cur: CgIdx) -> CgIdx {
    let ncg = cgs.len() as u32;
    let avg: u64 = cgs.iter().map(|c| c.free_blocks() as u64).sum::<u64>() / ncg as u64;
    for step in 1..=ncg {
        let g = CgIdx((cur.0 + step) % ncg);
        if cgs[g.0 as usize].free_blocks() as u64 >= avg {
            return g;
        }
    }
    // Fall back to the fullest-free group.
    cgs.iter()
        .max_by_key(|c| c.free_blocks())
        .map(|c| c.idx())
        .unwrap_or(cur)
}

impl AllocEngine<'_> {
    /// Quadratic rehash over cylinder groups (`ffs_hashalloc`): try the
    /// preferred group, then groups at power-of-two offsets, then a linear
    /// sweep. `f` returns `Some` on success within a group.
    pub(crate) fn hashalloc<T>(
        &mut self,
        start: CgIdx,
        mut f: impl FnMut(&mut Self, CgIdx) -> Option<T>,
    ) -> Option<T> {
        let ncg = self.params.ncg;
        if let Some(t) = f(self, start) {
            return Some(t);
        }
        let mut i = 1u32;
        while i < ncg {
            let g = CgIdx((start.0 + i) % ncg);
            if let Some(t) = f(self, g) {
                self.stats.cg_spills = self.stats.cg_spills.saturating_add(1);
                return Some(t);
            }
            i *= 2;
        }
        // Offset 0 was the first probe and offset 1 the rehash's first, so
        // the sweep runs `i = 2 .. ncg` as `ffs_hashalloc`'s does.
        for i in 0..ncg.saturating_sub(2) {
            let g = CgIdx((start.0 + 2 + i) % ncg);
            if let Some(t) = f(self, g) {
                self.stats.cg_spills = self.stats.cg_spills.saturating_add(1);
                return Some(t);
            }
        }
        None
    }

    /// Allocates an inode near the directory's group, spilling to other
    /// groups when full (`ffs_valloc`).
    pub(crate) fn alloc_inode_pref(&mut self, dcg: CgIdx) -> FsResult<Ino> {
        let per = self.geom.inodes_per_cg;
        self.hashalloc(dcg, |eng, g| {
            eng.cgs[g.0 as usize]
                .alloc_inode()
                .map(|slot| Ino(g.0 * per + slot))
        })
        .ok_or(FsError::NoInodes)
    }

    /// Allocates one full block: [`AllocEngine::alloc_blocks`] with no
    /// room to extend.
    pub(crate) fn alloc_block(&mut self, cg_hint: CgIdx, pref: Option<Daddr>) -> FsResult<Daddr> {
        self.alloc_blocks(cg_hint, pref, 1).map(|(addr, _)| addr)
    }

    /// Allocates a full block and, with it, as many of the free blocks
    /// right after it as `max` allows, returning the first address and
    /// the extent's length in blocks. `pref` is the preferred address
    /// (the block following the file's previous block). The first block
    /// is the original policy's choice — the preferred block if free,
    /// else the next free block after it, else the next one from the
    /// rotor, falling back across groups when the preferred group is
    /// full — and every further block is the choice that policy would
    /// make next given the one before it (a preference hit, counted as
    /// one), so an extent of `n` leaves the maps, the rotor and the
    /// counters where `n` calls chained block to block would.
    pub(crate) fn alloc_blocks(
        &mut self,
        cg_hint: CgIdx,
        pref: Option<Daddr>,
        max: u32,
    ) -> FsResult<(Daddr, u32)> {
        debug_assert!(max >= 1);
        let pref_cg = pref.map(|d| self.geom.dtog(d));
        let got = self.hashalloc(pref_cg.unwrap_or(cg_hint), |eng, g| {
            let cg = &mut eng.cgs[g.0 as usize];
            let in_group = pref.filter(|_| pref_cg == Some(g));
            let (from, hit) = match in_group.map(|p| cg.daddr_to_block(p)) {
                // Preferred block, if it lies in this group and is aligned.
                Some((b, 0)) => (b, b < cg.nblocks() && cg.is_block_free(b)),
                // No usable preference: continue from the rotor.
                _ => (cg.rotor(), false),
            };
            // On a miss, the next free block after the position.
            let b = if hit { from } else { cg.find_free_block(from)? };
            let n = 1 + cg.free_len_after(b, max - 1);
            cg.alloc_block_run(b, n);
            let hits = u64::from(hit) + u64::from(n - 1);
            eng.stats.pref_hits = eng.stats.pref_hits.saturating_add(hits);
            Some((cg.block_daddr(b), n))
        });
        let (addr, n) = got.ok_or(FsError::NoSpace {
            wanted_bytes: self.params.bsize as u64,
        })?;
        self.stats.block_allocs = self.stats.block_allocs.saturating_add(n as u64);
        Ok((addr, n))
    }

    /// Returns full, aligned blocks to the maps, one transition per
    /// address-contiguous run ([`CylGroup::free_block_run`]). A run never
    /// leaves its group: every group opens with its metadata area, which
    /// no file owns.
    pub(crate) fn free_blocks(&mut self, addrs: impl IntoIterator<Item = Daddr>) {
        let geom = self.geom;
        let mut free_run = |first: Daddr, n: u32| {
            let cg = &mut self.cgs[geom.dtog(first).0 as usize];
            let (b, off) = cg.daddr_to_block(first);
            debug_assert_eq!(off, 0);
            cg.free_block_run(b, n);
        };
        let mut addrs = addrs.into_iter();
        let Some(mut first) = addrs.next() else {
            return;
        };
        let mut n = 1u32;
        for a in addrs {
            if a.0 == first.0 + n * geom.fpb {
                n += 1;
            } else {
                free_run(first, n);
                (first, n) = (a, 1);
            }
        }
        free_run(first, n);
    }

    /// Allocates a run of `len` fragments (`1 <= len < frags_per_block`).
    ///
    /// Mirrors `ffs_alloccg`/`ffs_mapsearch` for sub-block requests: the
    /// first adequate free run at or after the preferred address wins,
    /// whether it lies inside an existing fragment block or at the front
    /// of a fully free block (which the allocation then splits). A file
    /// whose tail lands right after its last full block is therefore
    /// contiguous whenever that block is free — but on a fragmented map
    /// the first fit is often a hole elsewhere, the source of the
    /// two-block-file dips in Figure 3.
    pub(crate) fn alloc_frag_run(
        &mut self,
        cg_hint: CgIdx,
        len: u32,
        pref: Option<Daddr>,
    ) -> FsResult<Daddr> {
        debug_assert!(len >= 1 && len < self.geom.fpb);
        let pref_cg = pref.map(|d| self.geom.dtog(d));
        let bestfit = self.cfg.frag_bestfit;
        let got = self.hashalloc(pref_cg.unwrap_or(cg_hint), |eng, g| {
            let in_group = pref.filter(|_| pref_cg == Some(g));
            let cg = &mut eng.cgs[g.0 as usize];
            let from = match in_group {
                Some(p) => cg.daddr_to_block(p).0,
                None => cg.rotor(),
            };
            if bestfit {
                // `ffs_alloccg` proper: the frag summary picks the
                // smallest adequate run among partial blocks; only when
                // none exists is a fully free block split.
                if let Some(run) = cg.find_frag_run_bestfit(from, len) {
                    cg.alloc_frags(run.block, run.frag, len);
                    return Some(Daddr(cg.block_daddr(run.block).0 + run.frag));
                }
                if let Some(b) = cg.find_free_block(from) {
                    cg.alloc_frags(b, 0, len);
                    let addr = cg.block_daddr(b);
                    eng.stats.frag_splits = eng.stats.frag_splits.saturating_add(1);
                    return Some(addr);
                }
                return None;
            }
            if let Some(run) = cg.find_frag_run(from, len) {
                let split = cg.is_block_free(run.block);
                cg.alloc_frags(run.block, run.frag, len);
                let addr = Daddr(cg.block_daddr(run.block).0 + run.frag);
                if split {
                    eng.stats.frag_splits = eng.stats.frag_splits.saturating_add(1);
                }
                return Some(addr);
            }
            None
        });
        let addr = got.ok_or(FsError::NoSpace {
            wanted_bytes: (len * self.params.fsize) as u64,
        })?;
        self.stats.frag_allocs = self.stats.frag_allocs.saturating_add(1);
        Ok(addr)
    }

    /// The realloc pass over one window of a file's blocks
    /// (`ffs_reallocblks`): if the window is not already contiguous and a
    /// free cluster of the window's length exists in the window's cylinder
    /// group, move the blocks there. `pref` is the address the cluster
    /// search starts from (the block after the previous window's current
    /// end). Returns `true` when the window moved.
    pub(crate) fn realloc_window(
        &mut self,
        meta: &mut FileMeta,
        window: (u32, u32),
        pref: Option<Daddr>,
    ) -> bool {
        let (s, e) = window;
        let len = e - s;
        if len < 2 {
            return false;
        }
        self.stats.realloc_windows = self.stats.realloc_windows.saturating_add(1);
        obs::hist!("ffs.realloc_window_blocks", obs::bounds::LINEAR_16, len);
        let geom = self.geom;
        let fpb = geom.fpb;
        let addrs = &meta.blocks.as_slice()[s as usize..e as usize];
        // Already contiguous: nothing to gather.
        if addrs.windows(2).all(|w| w[1].0 == w[0].0 + fpb) {
            self.stats.realloc_already_contig = self.stats.realloc_already_contig.saturating_add(1);
            return false;
        }
        // All blocks must sit in one group, as in the real code.
        let g = geom.dtog(addrs[0]);
        if addrs.iter().any(|&a| geom.dtog(a) != g) {
            return false;
        }
        let in_group_pref = pref.filter(|&p| geom.dtog(p) == g);
        let cluster_first_fit = self.cfg.cluster_first_fit;
        let cg = &self.cgs[g.0 as usize];
        // Extend the previous window's cluster when the space right
        // after it is free (the chained preference); otherwise take the
        // best-fitting free run in the group. Best fit consumes the
        // remainders left by earlier relocations instead of carving up
        // the group's large runs, so large free clusters survive aging —
        // the property the paper's realloc file systems exhibit.
        // (DESIGN.md documents this as a deliberate refinement over the
        // 4.4BSD first-fit scan; `cluster_first_fit` restores it.)
        const LOOKAHEAD: u32 = 512;
        let run = match in_group_pref {
            Some(p) => {
                let b = cg.daddr_to_block(p).0;
                if cg.is_cluster_free(b, len) {
                    Some(b)
                } else if cluster_first_fit {
                    cg.find_free_cluster(b, len)
                } else {
                    cg.find_free_cluster_near(b, len, LOOKAHEAD)
                }
            }
            None => {
                let from = cg.rotor();
                if cluster_first_fit {
                    cg.find_free_cluster(from, len)
                } else {
                    cg.find_free_cluster_near(from, len, LOOKAHEAD)
                }
            }
        };
        let Some(run) = run else {
            self.stats.realloc_failures = self.stats.realloc_failures.saturating_add(1);
            // No run of the full window length exists. Unless disabled,
            // gather the window into two smaller clusters instead: far
            // fewer discontiguities than leaving the one-at-a-time
            // allocation in place (see DESIGN.md; `realloc_no_split`
            // restores the all-or-nothing 4.4BSD behaviour).
            if !self.cfg.realloc_no_split && len >= 3 {
                let mid = s + len.div_ceil(2);
                let moved_lo = self.realloc_window(meta, (s, mid), pref);
                let lo_end = meta.blocks.as_slice()[mid as usize - 1];
                let hi_pref = Some(Daddr(lo_end.0 + fpb));
                let moved_hi = self.realloc_window(meta, (mid, e), hi_pref);
                return moved_lo || moved_hi;
            }
            return false;
        };
        // Move: free the old blocks piece by contiguous piece, claim the
        // run in one transition, rewrite the pointers.
        let window_slice = &mut meta.blocks.as_mut_slice()[s as usize..e as usize];
        self.free_blocks(window_slice.iter().copied());
        let cg = &mut self.cgs[g.0 as usize];
        cg.alloc_block_run(run, len);
        for (slot, b) in window_slice.iter_mut().zip(run..) {
            *slot = cg.block_daddr(b);
        }
        self.stats.realloc_moves = self.stats.realloc_moves.saturating_add(1);
        self.stats.realloc_blocks_moved =
            self.stats.realloc_blocks_moved.saturating_add(len as u64);
        true
    }

    /// Allocates all data blocks, indirect blocks, and the fragment tail
    /// for a freshly created file, running the realloc pass at each write
    /// chunk boundary when the policy calls for it. Blocks are taken an
    /// extent at a time ([`AllocEngine::alloc_blocks`]), each extent
    /// stopping where the policy does something other than take the next
    /// block. Operates on a detached [`FileMeta`]; the caller owns the
    /// bookkeeping (aggregate layout, usage counters, slab insertion) on
    /// either outcome. On failure, everything allocated so far is
    /// recorded in `meta` so the caller can release it.
    pub(crate) fn write_blocks(
        &mut self,
        meta: &mut FileMeta,
        dcg: CgIdx,
        size: u64,
    ) -> FsResult<()> {
        let geom = self.geom;
        let fpb = geom.fpb;
        let nindir = self.params.nindir();
        let (nfull, tail_frags) = file_shape(self.params, fpb, size);
        // The realloc pass only engages once a file fills its second
        // block (the paper's two-block-file quirk, Section 4).
        let realloc_on =
            self.cfg.policy == AllocPolicy::Realloc && size >= 2 * self.params.bsize as u64;
        let pass_blocks = if realloc_on { nfull } else { 0 };
        let mut windows = realloc_windows(pass_blocks, self.params.maxcontig, nindir).peekable();
        let mut switches = self.params.switch_lbns(nfull).map(|l| l.0).peekable();
        // Flush boundary: end of an application write or end of file.
        let chunk = self.cfg.write_chunk_blocks;
        let mut flush_at = chunk.min(nfull);
        let mut cur_cg = dcg;
        let mut prev: Option<Daddr> = None;
        let mut lbn = 0u32;
        while lbn < nfull {
            if switches.next_if_eq(&lbn).is_some() {
                cur_cg = pick_new_data_cg_in(self.cgs, cur_cg);
                // The double-indirect root is allocated together with the
                // first level-one indirect under it.
                let n_meta = if lbn == NDADDR + nindir { 2 } else { 1 };
                for _ in 0..n_meta {
                    let ind = self.alloc_block(cur_cg, None)?;
                    meta.indirects.push(ind);
                    prev = Some(ind);
                    cur_cg = geom.dtog(ind);
                }
            }
            let stop = switches.peek().map_or(flush_at, |&s| s.min(flush_at));
            let pref = prev.map(|d| Daddr(d.0 + fpb));
            let (addr, n) = self.alloc_blocks(cur_cg, pref, stop - lbn)?;
            let last = Daddr(addr.0 + (n - 1) * fpb);
            cur_cg = geom.dtog(addr);
            debug_assert_eq!(geom.dtog(last), cur_cg, "extent left its group");
            meta.blocks.push_run(addr, n, fpb);
            prev = Some(last);
            lbn += n;
            if lbn == flush_at {
                flush_at = flush_at.saturating_add(chunk).min(nfull);
                if realloc_on {
                    let _sp = obs::span!("realloc_pass");
                    while let Some(w) = windows.next_if(|w| w.1 <= lbn) {
                        let wpref = self.window_pref(meta, w.0);
                        self.realloc_window(meta, w, wpref);
                    }
                    // Chain the base-allocation preference from the
                    // (possibly moved) last block.
                    prev = meta.blocks.last().copied();
                }
            }
        }
        if tail_frags > 0 {
            let pref = prev.map(|d| Daddr(d.0 + fpb));
            let hint = prev.map(|d| geom.dtog(d)).unwrap_or(dcg);
            let t = self.alloc_frag_run(hint, tail_frags, pref)?;
            meta.tail = Some((t, tail_frags));
        }
        Ok(())
    }

    /// The cluster-search start for a realloc window of a file being
    /// written: the address after the previous block's *current*
    /// location, or — for the window that opens an indirect region —
    /// after the indirect block allocated at that switch point, the last
    /// of the `indirects_needed` up to there.
    fn window_pref(&self, meta: &FileMeta, wstart: u32) -> Option<Daddr> {
        let fpb = self.geom.fpb;
        if opens_indirect_region(self.params, wstart) {
            let ind = meta.indirects[indirects_needed(self.params, wstart + 1) - 1];
            return Some(Daddr(ind.0 + fpb));
        }
        let before = meta.blocks.get((wstart as usize).checked_sub(1)?)?;
        Some(Daddr(before.0 + fpb))
    }
}

impl Filesystem {
    /// Directory-placement policy (`ffs_dirpref`, 4.3BSD flavour): among
    /// the groups with at least the average number of free inodes, pick
    /// the one with the fewest directories.
    pub(crate) fn dirpref(&self) -> CgIdx {
        let ncg = self.cgs.len() as u32;
        let avg_ifree: u64 =
            self.cgs.iter().map(|c| c.free_inodes() as u64).sum::<u64>() / ncg as u64;
        let mut best: Option<(u32, CgIdx)> = None;
        for cg in &self.cgs {
            if (cg.free_inodes() as u64) < avg_ifree {
                continue;
            }
            match best {
                Some((nd, _)) if cg.ndirs() >= nd => {}
                _ => best = Some((cg.ndirs(), cg.idx())),
            }
        }
        best.map(|(_, idx)| idx).unwrap_or(CgIdx(0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fs::Filesystem;
    use ffs_types::{FsParams, KB};

    fn fs() -> Filesystem {
        Filesystem::new(FsParams::small_test(), AllocPolicy::Orig)
    }

    #[test]
    fn dirpref_prefers_group_with_fewest_dirs() {
        let mut f = fs();
        // Two dirs in group 0, one in group 1: the next dir must avoid
        // both and land in 2 (or 3), which are dir-free.
        f.mkdir_in(CgIdx(0)).unwrap();
        f.mkdir_in(CgIdx(0)).unwrap();
        f.mkdir_in(CgIdx(1)).unwrap();
        let pick = f.dirpref();
        assert!(pick == CgIdx(2) || pick == CgIdx(3), "picked {pick:?}");
    }

    #[test]
    fn new_data_cg_scans_forward_for_above_average_space() {
        let mut f = fs();
        // Drain group 1 so it falls below average.
        let d1 = f.mkdir_in(CgIdx(1)).unwrap();
        while f.cg(CgIdx(1)).free_blocks() > 10 {
            f.create(d1, 64 * KB, 0).unwrap();
        }
        // From group 0, the next above-average group is 2 (1 is full).
        assert_eq!(pick_new_data_cg_in(&f.cgs, CgIdx(0)), CgIdx(2));
        // From group 1 itself, scanning starts at 2 as well.
        assert_eq!(pick_new_data_cg_in(&f.cgs, CgIdx(1)), CgIdx(2));
    }

    #[test]
    fn shape_matches_create_rules() {
        let p = FsParams::paper_502mb();
        let shape = |size| file_shape(&p, p.frags_per_block(), size);
        assert_eq!(shape(0), (0, 0));
        assert_eq!(shape(3 * KB), (0, 3));
        assert_eq!(shape(8 * KB), (1, 0));
        assert_eq!(shape(15 * KB + 512), (2, 0));
        assert_eq!(shape(100 * KB), (13, 0));
    }

    #[test]
    fn indirects_needed_matches_create() {
        let p = FsParams::paper_502mb();
        assert_eq!(indirects_needed(&p, 12), 0);
        assert_eq!(indirects_needed(&p, 13), 1);
        assert_eq!(indirects_needed(&p, 2060), 1);
        assert_eq!(indirects_needed(&p, 2061), 3);
    }

    #[test]
    fn hashalloc_spills_to_other_groups() {
        let mut f = fs();
        let d0 = f.mkdir_in(CgIdx(0)).unwrap();
        // Fill group 0 completely.
        while f.cg(CgIdx(0)).free_blocks() > 0 {
            f.create(d0, 8 * KB, 0).unwrap();
        }
        let spills_before = f.alloc_stats().cg_spills;
        // A new file in the full group must come from another group.
        let ino = f.create(d0, 8 * KB, 0).unwrap();
        let addr = f.file(ino).unwrap().blocks[0];
        assert_ne!(f.params().dtog(addr), CgIdx(0));
        assert!(f.alloc_stats().cg_spills > spills_before);
    }

    /// The groups a failed allocation probes from `start`, in order.
    fn failed_probes(f: &mut Filesystem, start: CgIdx) -> Vec<u32> {
        let mut probed = Vec::new();
        let got = f.engine().hashalloc(start, |_, g| {
            probed.push(g.0);
            None::<()>
        });
        assert!(got.is_none());
        probed
    }

    #[test]
    fn failed_hashalloc_probes_no_group_a_third_time() {
        // Four groups: the preferred one, the rehash at offsets 1 and 2,
        // then the sweep over offsets 2 and 3 — `i = 2 .. ncg`. The sweep
        // used to run `ncg` long and end on offsets 0 and 1 again (seven
        // probes, not five).
        let mut f = fs();
        assert_eq!(failed_probes(&mut f, CgIdx(1)), [1, 2, 3, 3, 0]);
        // However many groups, every one of them is still asked — two
        // groups once each, where the sweep used to ask both again.
        for ncg in 1..=9 {
            let params = FsParams {
                ncg,
                ..FsParams::small_test()
            };
            let mut f = Filesystem::new(params, AllocPolicy::Orig);
            for start in 0..ncg {
                let mut probed = failed_probes(&mut f, CgIdx(start));
                let rehash = ncg.next_power_of_two().trailing_zeros();
                assert_eq!(probed.len() as u32, 1 + rehash + ncg.saturating_sub(2));
                probed.sort_unstable();
                probed.dedup();
                assert_eq!(
                    probed,
                    (0..ncg).collect::<Vec<_>>(),
                    "ncg {ncg} from {start}"
                );
            }
        }
    }

    #[test]
    fn alloc_block_honours_preference() {
        let mut f = fs();
        let d = f.mkdir_in(CgIdx(0)).unwrap();
        let a = f.create(d, 8 * KB, 0).unwrap();
        let first = f.file(a).unwrap().blocks[0];
        // The very next single-block file continues right after it (the
        // rotor), and a multi-block file is chained block to block.
        let b = f.create(d, 16 * KB, 0).unwrap();
        let blocks = &f.file(b).unwrap().blocks;
        assert_eq!(blocks[0].0, first.0 + 8);
        assert_eq!(blocks[1].0, blocks[0].0 + 8);
        assert!(f.alloc_stats().pref_hits >= 1);
    }

    #[test]
    fn realloc_window_is_noop_for_contiguous_windows() {
        let mut f = Filesystem::new(FsParams::small_test(), AllocPolicy::Realloc);
        let d = f.mkdir_in(CgIdx(0)).unwrap();
        // On an empty fs the base allocation is already contiguous, so
        // windows are examined but never moved.
        f.create(d, 56 * KB, 0).unwrap();
        let st = f.alloc_stats();
        assert_eq!(st.realloc_moves, 0);
        assert!(st.realloc_already_contig >= 1);
        assert_eq!(st.realloc_failures, 0);
    }

    #[test]
    fn policy_labels_match_figures() {
        assert_eq!(AllocPolicy::Orig.label(), "FFS");
        assert_eq!(AllocPolicy::Realloc.label(), "FFS + Realloc");
        assert_eq!(AllocPolicy::Orig.name(), "orig");
        assert_eq!(AllocPolicy::Realloc.name(), "realloc");
    }

    /// The paper geometry's windows (`maxcontig` 7, 2048 pointers per
    /// indirect block), collected.
    fn windows(nfull: u32) -> Vec<(u32, u32)> {
        realloc_windows(nfull, 7, 2048).collect()
    }

    #[test]
    fn windows_for_small_files() {
        // 5 blocks: one window.
        assert_eq!(windows(5), vec![(0, 5)]);
        // 7 blocks: exactly one full window.
        assert_eq!(windows(7), vec![(0, 7)]);
        // 8 blocks: a full window plus a singleton.
        assert_eq!(windows(8), vec![(0, 7), (7, 8)]);
        // Empty file: no windows.
        assert!(windows(0).is_empty());
    }

    #[test]
    fn windows_restart_at_indirect_boundary() {
        // 13 blocks (104 KB): [0,7) [7,12) then the indirect region [12,13).
        assert_eq!(windows(13), vec![(0, 7), (7, 12), (12, 13)]);
        // 20 blocks: indirect region windows restart at 12.
        assert_eq!(windows(20), vec![(0, 7), (7, 12), (12, 19), (19, 20)]);
    }

    #[test]
    fn windows_restart_at_double_indirect_boundary() {
        let w = windows(2100);
        // A window must end exactly at 2060 (= 12 + 2048) and a new one
        // start there.
        assert!(w.iter().any(|&(_, e)| e == 2060));
        assert!(w.iter().any(|&(s, _)| s == 2060));
        // No window spans the boundary.
        assert!(w.iter().all(|&(s, e)| !(s < 2060 && e > 2060)));
        // Windows tile [0, 2100) without gaps.
        let mut expect = 0;
        for &(s, e) in &w {
            assert_eq!(s, expect);
            assert!(e > s && e - s <= 7);
            expect = e;
        }
        assert_eq!(expect, 2100);
    }
}
