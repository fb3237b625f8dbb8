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
//! same way, one transition per address-contiguous run.
//! `tests/extent_oracle.rs` holds every create to a 4.4BSD reference
//! that allocates block by block in `ffs_balloc` order.
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
use crate::geom::FPB;
use crate::inode::FileMeta;

/// The revision of block, fragment and inode placement. A cached aged
/// image or fleet shard is a function of the placement code as much as of
/// its inputs, so both cache keys hash this number. Any change that moves
/// a placement bumps it, and re-pins the digest that
/// `exp::key`'s `placement_revision_pins_a_short_aging` holds next to it.
pub const PLACEMENT_REVISION: u32 = 5;

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
    /// Realloc windows that needed a move but found no free cluster of
    /// their length, and so were left in place: once per window.
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

/// Whether data block `lbn` is the first of an indirect region
/// ([`FsParams::switch_lbns`]) of any file long enough to have it.
fn opens_indirect_region(params: &FsParams, lbn: u32) -> bool {
    lbn >= NDADDR && (lbn - NDADDR).is_multiple_of(params.nindir())
}

/// The final shape of a file of `size` bytes: full blocks and tail
/// fragments, under the FFS rule that only direct-block files keep a
/// fragment tail.
fn file_shape(params: &FsParams, size: u64) -> (u32, u32) {
    let bsize = params.bsize as u64;
    let mut nfull = (size / bsize) as u32;
    let rem = size % bsize;
    let mut tail = 0u32;
    if rem > 0 {
        if nfull < NDADDR {
            tail = (rem as u32).div_ceil(params.fsize);
            if tail == FPB {
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

impl AllocEngine<'_> {
    /// Rehash over cylinder groups after `ffs_hashalloc`: try the
    /// preferred group, then the quadratic rehash (start + 1, 3, 7, …,
    /// each offset adding the next power of two), then a linear sweep.
    /// `f` returns `Some` on success within a group; a success after the
    /// first probe is a spill.
    pub(crate) fn hashalloc<T>(
        &mut self,
        start: CgIdx,
        mut f: impl FnMut(&mut Self, CgIdx) -> Option<T>,
    ) -> Option<T> {
        let ncg = self.params.ncg;
        let mut g = start.0;
        let rehash = std::iter::successors(Some(1u32), |i| i.checked_mul(2))
            .take_while(|&i| i < ncg)
            .map(|i| {
                g = (g + i) % ncg;
                g
            });
        // Offset 0 was the first probe and offset 1 the rehash's first, so
        // the sweep runs `i = 2 .. ncg` as `ffs_hashalloc`'s does.
        let sweep = (2..ncg).map(|i| (start.0 + i) % ncg);
        let probes = std::iter::once(start.0).chain(rehash).chain(sweep);
        for (n, g) in probes.enumerate() {
            if let Some(t) = f(self, CgIdx(g)) {
                let spills = &mut self.stats.cg_spills;
                *spills = spills.saturating_add(u64::from(n > 0));
                return Some(t);
            }
        }
        None
    }

    /// Allocates an inode for a file of the directory whose inode is
    /// slot `dslot` of group `dcg` (`ffs_valloc`): from the directory's
    /// group, spilling to others when full, each asked through
    /// `ffs_nodealloccg` — the directory's slot if free there, else the
    /// scan from the inode rotor ([`CylGroup::alloc_inode`]).
    pub(crate) fn alloc_inode_pref(&mut self, dcg: CgIdx, dslot: u32) -> FsResult<Ino> {
        let per = self.geom.inodes_per_cg;
        self.hashalloc(dcg, |eng, g| {
            let cg = &mut eng.cgs[g.0 as usize];
            let slot = match cg.free_inodes() > 0 && !cg.inode_used(dslot) {
                true => {
                    cg.take_inode(dslot);
                    dslot
                }
                false => cg.alloc_inode()?,
            };
            Some(Ino(g.0 * per + slot))
        })
        .ok_or(FsError::NoInodes)
    }

    /// Allocates a full block and, with it, as many of the free blocks
    /// right after it as `max` allows, returning the first address and
    /// the extent's length in blocks. `pref` is the preferred address
    /// ([`AllocEngine::blkpref`]). The first block is the original
    /// policy's choice ([`alloccgblk`], falling back across groups when
    /// the preferred group is full), and every further block is the
    /// choice that policy would make next given the one before it (a
    /// preference hit, counted as one), so an extent of `n` leaves the
    /// maps, the rotors and the counters where `n` calls chained block to
    /// block would.
    pub(crate) fn alloc_blocks(&mut self, pref: Daddr, max: u32) -> FsResult<(Daddr, u32)> {
        debug_assert!(max >= 1);
        let pref_cg = self.geom.dtog(pref);
        let got = self.hashalloc(pref_cg, |eng, g| {
            let cg = &mut eng.cgs[g.0 as usize];
            let (b, hit) = alloccgblk(cg, (g == pref_cg).then(|| cg.daddr_to_block(pref).0))?;
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
            if a.0 == first.0 + n * FPB {
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
    /// two-block-file dips in Figure 3. Every group asked searches from
    /// the preference's offset in its own group, as `ffs_mapsearch` reads
    /// `dtogd(bpref)`, and the search leaves the fragment rotor on the
    /// block it found.
    pub(crate) fn alloc_frag_run(&mut self, len: u32, pref: Daddr) -> FsResult<Daddr> {
        debug_assert!((1..FPB).contains(&len));
        let pref_cg = self.geom.dtog(pref);
        let from = self.cgs[pref_cg.0 as usize].daddr_to_block(pref).0;
        let bestfit = self.cfg.frag_bestfit;
        let got = self.hashalloc(pref_cg, |eng, g| {
            let cg = &mut eng.cgs[g.0 as usize];
            // `ffs_alloccg` proper takes the frag summary's smallest
            // adequate run among partial blocks, our default the first.
            let found = match bestfit {
                true => cg.find_frag_run_bestfit(from, len),
                false => cg.find_frag_run(from, len),
            };
            if let Some(run) = found {
                let split = cg.is_block_free(run.block);
                cg.searched(run.block, false);
                cg.alloc_frags(run.block, run.frag, len);
                let splits = &mut eng.stats.frag_splits;
                *splits = splits.saturating_add(u64::from(split));
                return Some(Daddr(cg.block_daddr(run.block).0 + run.frag));
            }
            if !bestfit {
                return None;
            }
            // No partial block fits: split the block `ffs_alloccgblk`
            // takes.
            let (b, _) = alloccgblk(cg, (g == pref_cg).then_some(from))?;
            cg.alloc_frags(b, 0, len);
            eng.stats.frag_splits = eng.stats.frag_splits.saturating_add(1);
            Some(cg.block_daddr(b))
        });
        let addr = got.ok_or(FsError::NoSpace {
            wanted_bytes: (len * self.params.fsize) as u64,
        })?;
        self.stats.frag_allocs = self.stats.frag_allocs.saturating_add(1);
        Ok(addr)
    }

    /// The realloc pass over one window of a file's blocks
    /// (`ffs_reallocblks`): if the window is not already contiguous, its
    /// first and last blocks share a group, and a free cluster of the
    /// window's length exists, move the blocks there. The cluster is
    /// looked for by [`AllocEngine::hashalloc`] from `pref`'s group, so
    /// the window may move to another group. `pref` is the address the
    /// search starts from ([`AllocEngine::blkpref`] of the window's first
    /// block). Returns `true` when the window moved.
    pub(crate) fn realloc_window(
        &mut self,
        meta: &mut FileMeta,
        window: (u32, u32),
        pref: Daddr,
    ) -> bool {
        let (s, e) = window;
        let len = e - s;
        if len < 2 {
            return false;
        }
        self.stats.realloc_windows = self.stats.realloc_windows.saturating_add(1);
        obs::hist!("ffs.realloc_window_blocks", obs::bounds::LINEAR_16, len);
        let geom = self.geom;
        let addrs = &meta.blocks.as_slice()[s as usize..e as usize];
        // Already contiguous: nothing to gather.
        if addrs.windows(2).all(|w| w[1].0 == w[0].0 + FPB) {
            self.stats.realloc_already_contig = self.stats.realloc_already_contig.saturating_add(1);
            return false;
        }
        // The window's ends must sit in one group, as in the real code.
        if geom.dtog(addrs[0]) != geom.dtog(addrs[len as usize - 1]) {
            return false;
        }
        let found = self.hashalloc(geom.dtog(pref), |eng, g| {
            eng.cluster_in(g, pref, len).map(|b| (g, b))
        });
        let Some((g, run)) = found else {
            // All or nothing, as in 4.4BSD: no run of the full window
            // length, so the window stays where it is.
            self.stats.realloc_failures = self.stats.realloc_failures.saturating_add(1);
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

    /// The cluster search for a realloc window of `len` blocks in group
    /// `g` (`ffs_clusteralloc`): the first free run of at least `len`
    /// blocks at or after the preference's block if it lies in `g`, from
    /// the front otherwise, stopping at the group's end.
    fn cluster_in(&self, g: CgIdx, pref: Daddr, len: u32) -> Option<u32> {
        let cg = &self.cgs[g.0 as usize];
        let from = match self.geom.dtog(pref) == g {
            true => cg.daddr_to_block(pref).0,
            false => 0,
        };
        cg.find_free_cluster(from, len)
    }

    /// Allocates all data blocks, indirect blocks, and the fragment tail
    /// for a freshly created file, running the realloc pass at each write
    /// chunk boundary when the policy calls for it. Blocks are taken an
    /// extent at a time ([`AllocEngine::alloc_blocks`]), each extent
    /// stopping where the policy does something other than take the next
    /// block; everything, windows and tail too, is placed from
    /// [`AllocEngine::blkpref`], and a window may move to another group.
    /// Operates on a detached [`FileMeta`]; the caller owns the
    /// bookkeeping (aggregate layout, usage counters, slab insertion) on
    /// either outcome. On failure, everything allocated so far is recorded
    /// in `meta` so the caller can release it.
    pub(crate) fn write_blocks(&mut self, meta: &mut FileMeta, size: u64) -> FsResult<()> {
        let geom = self.geom;
        let nindir = self.params.nindir();
        let (nfull, tail_frags) = file_shape(self.params, size);
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
        let mut lbn = 0u32;
        while lbn < nfull {
            if switches.next_if_eq(&lbn).is_some() {
                // The double-indirect root is allocated together with the
                // first level-one indirect under it, at the same
                // preference; the data block asks again after both.
                let ipref = self.blkpref(meta.ino, lbn, meta.blocks.last().copied());
                for _ in 0..1 + u32::from(lbn == NDADDR + nindir) {
                    let (ind, _) = self.alloc_blocks(ipref, 1)?;
                    meta.blocks.push_indirect(ind);
                }
            }
            let stop = switches.peek().map_or(flush_at, |&s| s.min(flush_at));
            let pref = self.blkpref(meta.ino, lbn, meta.blocks.last().copied());
            let (addr, n) = self.alloc_blocks(pref, stop - lbn)?;
            let last = Daddr(addr.0 + (n - 1) * FPB);
            debug_assert_eq!(geom.dtog(last), geom.dtog(addr), "extent left its group");
            meta.blocks.push_run(addr, n, FPB);
            lbn += n;
            if lbn == flush_at {
                flush_at = flush_at.saturating_add(chunk).min(nfull);
                if realloc_on {
                    let _sp = obs::span!("realloc_pass");
                    while let Some((s, e)) = windows.next_if(|w| w.1 <= lbn) {
                        let prev = s.checked_sub(1).map(|i| meta.blocks[i as usize]);
                        let wpref = self.blkpref(meta.ino, s, prev);
                        self.realloc_window(meta, (s, e), wpref);
                    }
                }
            }
        }
        if tail_frags > 0 {
            let pref = self.blkpref(meta.ino, nfull, meta.blocks.last().copied());
            let t = self.alloc_frag_run(tail_frags, pref)?;
            meta.tail = Some((t, tail_frags));
        }
        Ok(())
    }

    /// `ffs_blkpref`: where data block `lbn` of inode `ino` should go,
    /// given `prev`, the file's block before it. That is the block after
    /// `prev`, except where `lbn` opens an indirect region (footnote 1,
    /// the 104 KB dip): there it is block 1 of the first group with at
    /// least the average number of free blocks, scanning from
    /// `ino_to_cg(ino) + lbn / nindir` — that group counted — and
    /// wrapping past the last. A file's first block (no `prev`) prefers
    /// block 1 of its inode's group.
    pub(crate) fn blkpref(&self, ino: Ino, lbn: u32, prev: Option<Daddr>) -> Daddr {
        let ncg = self.cgs.len() as u32;
        let home = self.geom.itog(ino).0 .0;
        let g = match prev {
            Some(p) if !opens_indirect_region(self.params, lbn) => return Daddr(p.0 + FPB),
            Some(_) => {
                let nbfree = |g: u32| u64::from(self.cgs[g as usize].free_blocks());
                let avg = (0..ncg).map(nbfree).sum::<u64>() / u64::from(ncg);
                let start = (home + lbn / self.params.nindir()) % ncg;
                // A group at the maximum is always at or above average.
                (0..ncg)
                    .map(|i| (start + i) % ncg)
                    .find(|&g| nbfree(g) >= avg)
                    .unwrap_or(start)
            }
            None => home,
        };
        self.cgs[g as usize].block_daddr(1)
    }
}

/// `ffs_alloccgblk` in `cg`: block `pref` if given (the preference lies
/// in `cg`) and free, a preference hit; else the map search from it, or
/// from the block rotor when the preference lies elsewhere, which leaves
/// both rotors on the block found. The block and whether it was a hit.
fn alloccgblk(cg: &mut CylGroup, pref: Option<u32>) -> Option<(u32, bool)> {
    if let Some(b) = pref.filter(|&b| b < cg.nblocks() && cg.is_block_free(b)) {
        return Some((b, true));
    }
    let b = cg.find_free_block(pref.unwrap_or(cg.rotor()))?;
    cg.searched(b, true);
    Some((b, false))
}

impl Filesystem {
    /// Directory placement (`ffs_dirpref`, 4.4BSD-Lite): among the
    /// groups with at least the average number of free inodes, the first
    /// with the fewest directories.
    pub(crate) fn dirpref(&self) -> CgIdx {
        let ifree = |c: &CylGroup| u64::from(c.free_inodes());
        let avg = self.cgs.iter().map(ifree).sum::<u64>() / self.cgs.len() as u64;
        let roomy = self.cgs.iter().filter(|c| ifree(c) >= avg);
        roomy
            .min_by_key(|c| c.ndirs())
            .map_or(CgIdx(0), CylGroup::idx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fs::Filesystem;
    use ffs_types::{DirId, FsParams, KB};

    fn fs() -> Filesystem {
        Filesystem::new(FsParams::small_test(), AllocPolicy::Orig)
    }

    #[test]
    fn dirpref_prefers_group_with_fewest_dirs() {
        let mut f = fs();
        // Two dirs in group 0, one in group 1: the next dir must avoid
        // both and land in 2, the first of the dir-free groups.
        f.mkdir_in(CgIdx(0)).unwrap();
        f.mkdir_in(CgIdx(0)).unwrap();
        f.mkdir_in(CgIdx(1)).unwrap();
        assert_eq!(f.dirpref(), CgIdx(2));
        // Half of group 2's inodes go, which puts it below the average:
        // it still has the fewest directories, but is skipped.
        let half = f.params().inodes_per_cg() / 2;
        (0..half).for_each(|s| f.cgs[2].take_inode(s));
        assert_eq!(f.dirpref(), CgIdx(3));
        // With group 3 drained too, group 1's one directory wins.
        (0..half).for_each(|s| f.cgs[3].take_inode(s));
        assert_eq!(f.dirpref(), CgIdx(1));
    }

    #[test]
    fn indirect_region_pref_scans_from_the_inodes_group() {
        let mut f = fs();
        // Drain groups 1 and 3 so they fall below average.
        for g in [1, 3] {
            let d = f.mkdir_in(CgIdx(g)).unwrap();
            while f.cg(CgIdx(g)).free_blocks() > 10 {
                f.create(d, 64 * KB, 0).unwrap();
            }
        }
        let per = f.params().inodes_per_cg();
        let front = |f: &Filesystem, g: u32| f.cg(CgIdx(g)).block_daddr(1);
        let prev = Some(Daddr(0));
        let mut pref = |g: u32, lbn: u32| f.engine().blkpref(Ino(g * per + 5), lbn, prev);
        let got = [pref(0, 12), pref(0, 2060), pref(3, 12), pref(2, 2060)];
        // Group 0 is above average, so the first region stays in the
        // inode's own group (the scan counts it). At lbn 2060, `lbn /
        // nindir` is 1: the scan starts at drained group 1 and takes 2.
        // From drained group 3 it wraps past the last group to 0, at
        // either lbn (2 + 1 is 3 too).
        let want = [0, 2, 0, 0].map(|g| front(&f, g));
        assert_eq!(got, want);
    }

    #[test]
    fn shape_matches_create_rules() {
        let p = FsParams::paper_502mb();
        let shape = |size| file_shape(&p, size);
        assert_eq!(shape(0), (0, 0));
        assert_eq!(shape(3 * KB), (0, 3));
        assert_eq!(shape(8 * KB), (1, 0));
        assert_eq!(shape(15 * KB + 512), (2, 0));
        assert_eq!(shape(100 * KB), (13, 0));
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
        // Four groups: the preferred one, the rehash at offsets 1 and
        // 1 + 2 (`ffs_hashalloc` accumulates them), then the sweep over
        // offsets 2 and 3 — `i = 2 .. ncg`. The sweep used to run `ncg`
        // long and end on offsets 0 and 1 again (seven probes, not five).
        let mut f = fs();
        assert_eq!(failed_probes(&mut f, CgIdx(1)), [1, 2, 0, 3, 0]);
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
        // The next file's first block is the first free one from its
        // group's front, right after `a`'s, and a multi-block file is
        // chained block to block.
        let b = f.create(d, 16 * KB, 0).unwrap();
        let blocks = &f.file(b).unwrap().blocks;
        assert_eq!(blocks[0].0, first.0 + 8);
        assert_eq!(blocks[1].0, blocks[0].0 + 8);
        assert!(f.alloc_stats().pref_hits >= 1);
    }

    /// Group 1's `(rotor, frotor)`.
    fn rotors(f: &Filesystem) -> (u32, u32) {
        (f.cg(CgIdx(1)).rotor(), f.cg(CgIdx(1)).frotor())
    }

    #[test]
    fn frag_search_moves_the_frag_rotor_and_a_block_run_leaves_it() {
        let mut f = fs();
        let m = f.cg(CgIdx(1)).meta_blocks();
        let base = f.cg(CgIdx(1)).block_daddr(0).0;
        let at = |b: u32| Daddr(base + b * FPB);
        // A preference hit moves neither rotor; a miss's map search
        // leaves both on the block it found.
        f.engine().alloc_blocks(at(m + 10), 1).unwrap();
        assert_eq!(rotors(&f), (m, m));
        f.engine().alloc_blocks(at(m + 10), 1).unwrap();
        assert_eq!(rotors(&f), (m + 11, m + 11));
        // A fragment search from the group's front moves the fragment
        // rotor alone, to the block it split.
        f.engine().alloc_frag_run(3, at(1)).unwrap();
        assert_eq!(rotors(&f), (m + 11, m));
        // A block run taken at its preference leaves both.
        let (_, n) = f.engine().alloc_blocks(at(m + 40), 5).unwrap();
        assert_eq!(n, 5);
        assert_eq!(rotors(&f), (m + 11, m));
    }

    #[test]
    fn realloc_move_leaves_both_rotors() {
        let mut f = Filesystem::new(FsParams::small_test(), AllocPolicy::Realloc);
        let m = f.cg(CgIdx(1)).meta_blocks();
        let base = f.cg(CgIdx(1)).block_daddr(0).0;
        let at = |b: u32| Daddr(base + b * FPB);
        let mut meta = FileMeta {
            ino: Ino(f.params().inodes_per_cg() + 3),
            dir: DirId(0),
            size: 16 * KB,
            blocks: Default::default(),
            tail: None,
            mtime_day: 0,
        };
        for b in [m + 10, m + 20] {
            let (d, _) = f.engine().alloc_blocks(at(b), 1).unwrap();
            meta.blocks.push(d);
        }
        let before = rotors(&f);
        assert!(f.engine().realloc_window(&mut meta, (0, 2), at(m + 30)));
        assert_eq!(meta.blocks[0], at(m + 30));
        assert_eq!(rotors(&f), before);
    }

    #[test]
    fn realloc_window_takes_the_first_cluster_after_the_preference() {
        let mut f = Filesystem::new(FsParams::small_test(), AllocPolicy::Realloc);
        let m = f.cg(CgIdx(1)).meta_blocks();
        let base = f.cg(CgIdx(1)).block_daddr(0).0;
        let at = |b: u32| Daddr(base + b * FPB);
        let mut meta = FileMeta {
            ino: Ino(f.params().inodes_per_cg() + 3),
            dir: DirId(0),
            size: 16 * KB,
            blocks: Default::default(),
            tail: None,
            mtime_day: 0,
        };
        for b in [m + 10, m + 20] {
            let (d, _) = f.engine().alloc_blocks(at(b), 1).unwrap();
            meta.blocks.push(d);
        }
        // After the used preference block m+30: a 3-block run at m+31,
        // then an exact 2-block run at m+40, well inside 512 blocks.
        for k in [30].into_iter().chain(34..40).chain([42]) {
            f.engine().alloc_blocks(at(m + k), 1).unwrap();
        }
        // `ffs_clusteralloc` takes the first fit, not the exact one.
        assert!(f.engine().realloc_window(&mut meta, (0, 2), at(m + 30)));
        assert_eq!(meta.blocks.as_slice(), [at(m + 31), at(m + 32)]);
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
