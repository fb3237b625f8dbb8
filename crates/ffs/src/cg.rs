//! Cylinder groups: the allocation pools of FFS.
//!
//! Each group keeps a fragment-granularity allocation map packed into
//! `u64` words: bit `block * 8 + frag` set means that fragment is
//! allocated — the complement of 4.4BSD's `cg_blksfree` at `fs_frag = 8`
//! (the only geometry, `geom::FPB`), so a block's lane is one
//! byte of a word, and every lane test is one shift and mask.
//!
//! Search does not walk the raw map. Everything that is a pure function
//! of it lives in one [`Derived`] value of four tables, maintained
//! incrementally on every allocation and free:
//!
//! * `free_words` — one bit per block (set = fully free), packed into
//!   `u64` words, so the scans behind [`CylGroup::find_free_block`] and
//!   the cluster searches advance 64 blocks per trailing-zeros step
//!   instead of one byte at a time;
//! * `csum` — the cluster summary table (`fs_clustersum` in FFS):
//!   `csum[k-1]` counts the maximal free runs of length `k`, with every
//!   run of at least `maxcontig` blocks pooled in the last bucket. A
//!   cluster request longer than any existing run is rejected in O(1)
//!   without touching the bitmap at all;
//! * `frsum` — the fragment summary (`cg_frsum`): `frsum[k-1]` counts the
//!   maximal free fragment runs of exactly `k` fragments inside
//!   *partially allocated* blocks (fully free and fully allocated blocks
//!   contribute nothing). It drives the best-fit fragment search of
//!   [`CylGroup::find_frag_run_bestfit`], which picks the smallest
//!   adequate run size before touching the map at all — `ffs_alloccg`'s
//!   `allocsiz` loop — and, with the free-block count, refuses a
//!   first-fit request no block of the group can hold;
//! * `fit_words` — the partial-block fit index: seven bitmaps laid
//!   out like `free_words`, level `k` holding a bit for every partial
//!   block whose longest free run is at least `k` fragments. With
//!   `free_words` it turns both fragment searches
//!   ([`CylGroup::find_frag_run`], [`CylGroup::find_frag_run_bestfit`])
//!   into `trailing_zeros` walks 64 blocks to the step; only fragment
//!   transitions write it, the whole-block path never does.
//!
//! There is exactly one from-scratch builder for that value, the
//! byte-at-a-time `CylGroup::recount_derived`, and one named-table
//! view of it, `Derived::tables`. Group construction and fsck rebuild
//! are "recount and assign"; [`mod@crate::check`], fault injection and the
//! oracle tests iterate the table list ([`CylGroup::derived_drift`])
//! and never name an index.
//!
//! Whole blocks change state a run at a time.
//! [`CylGroup::alloc_block_run`] and [`CylGroup::free_block_run`] take or
//! return `n` consecutive blocks with one masked write per word of the
//! map, one per word of `free_words`, and one `csum` update for the
//! run — the neighbours are measured outside the run and capped lengths
//! compose over it exactly as they do over one block — and
//! [`CylGroup::alloc_block`]/[`CylGroup::free_block`] are the `n = 1` case
//! of that body, not a second path. [`crate::alloc`] writes and deletes
//! files in extents, so a run is the common case, not the lucky one.
//!
//! Every search and summary here is held to an independent 4.4BSD
//! reference that reads the group as `struct cg` bytes
//! (`tests/scan_oracle.rs`, `tests/frag_oracle.rs`,
//! `tests/stats_oracle.rs`).

use ffs_types::{CgIdx, Daddr, FsParams};

use crate::geom::FPB;

/// One table of a group's [`Derived`] state, as a borrowed slice.
#[derive(Debug)]
pub(crate) enum Table<'a> {
    /// A packed bitmap, 64 entries to the word.
    Words(&'a [u64]),
    /// A table of counts.
    Counts(&'a [u32]),
}

/// Everything in a cylinder group that is a pure function of its
/// fragment map. `CylGroup::recount_derived` is the only
/// from-scratch builder; the allocation path keeps it current
/// incrementally.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Derived {
    /// One bit per block, set when the block is fully free, packed 64
    /// blocks to the word (`cg_clustersfree`). Bits at and above
    /// `nblocks` are always clear so runs never extend past the group.
    pub(crate) free_words: Vec<u64>,
    /// Cluster summary (`cg_clustersum`): `csum[k-1]` counts maximal free
    /// runs of capped length `k`, lengths capped at `maxcontig`.
    pub(crate) csum: Vec<u32>,
    /// Fragment summary (`cg_frsum`): `frsum[k-1]` counts maximal free
    /// fragment runs of exactly `k` fragments inside partially allocated
    /// blocks. Has seven entries: a partial block's longest free run is
    /// seven fragments.
    pub(crate) frsum: Vec<u32>,
    /// The partial-block fit index: seven bitmaps of
    /// `free_words.len()` words each, flattened level after level. Bit
    /// `block` of level `k` (1-based) is set when the block is partially
    /// allocated and its longest free run is at least `k` fragments, so a
    /// block whose longest run is `r` has its bit in levels `1..=r`.
    /// Fully free and fully allocated blocks have no bit at any level.
    pub(crate) fit_words: Vec<u64>,
}

impl Derived {
    /// The tables by name, in a fixed order — the one list that check,
    /// fault injection and the oracle tests iterate.
    pub(crate) fn tables(&self) -> [(&'static str, Table<'_>); 4] {
        [
            ("free_words", Table::Words(&self.free_words)),
            ("csum", Table::Counts(&self.csum)),
            ("frsum", Table::Counts(&self.frsum)),
            ("fit_words", Table::Words(&self.fit_words)),
        ]
    }

    /// Tears one slot of table `i` of [`Derived::tables`] — flips a bitmap
    /// bit or bumps a count — at a position drawn from `draw(bound)`.
    pub(crate) fn perturb(&mut self, i: usize, mut draw: impl FnMut(u32) -> u32) {
        let mut flip_bit = |w: &mut [u64]| w[draw(w.len() as u32) as usize] ^= 1 << draw(64);
        let counts = match i {
            0 => return flip_bit(&mut self.free_words),
            1 => &mut self.csum[..],
            2 => &mut self.frsum[..],
            3 => return flip_bit(&mut self.fit_words),
            _ => unreachable!("no derived table {i}"),
        };
        let slot = &mut counts[draw(counts.len() as u32) as usize];
        *slot = slot.wrapping_add(1 + draw(4));
    }
}

/// One cylinder group's allocation state.
#[derive(Clone, Debug, PartialEq)]
pub struct CylGroup {
    idx: CgIdx,
    /// Fragment address of the group's first fragment.
    base: Daddr,
    /// Total blocks in the group (metadata included).
    nblocks: u32,
    /// Blocks at the front reserved for the superblock copy, group
    /// descriptor, and inode table; marked allocated at initialization.
    meta_blocks: u32,
    /// Fragment allocation map, one bit per fragment packed 64 to the
    /// word: bit `block * 8 + frag` set means that fragment is
    /// allocated, so each block's lane is one byte of a word
    /// (`cg_blksfree` with `ffs_isblock`-style masked access).
    frag_words: Vec<u64>,
    /// The indexes derived from `frag_words`.
    derived: Derived,
    /// Longest run length the cluster summary tells apart
    /// (`fs_contigsumsize`; 7 for the paper geometry).
    maxcontig: u32,
    free_frags: u32,
    free_blocks: u32,
    /// Block rotor (`cg_rotor`): where the last whole-block map search
    /// (`ffs_alloccgblk`) ended, and where one for another group's
    /// preference starts.
    rotor: u32,
    /// Fragment rotor (`cg_frotor`): where the last map search of any
    /// kind (`ffs_mapsearch`) ended.
    frotor: u32,
    /// Inode-slot allocation bitmap (one bit per slot, set = used).
    imap: Vec<u64>,
    ninodes: u32,
    free_inodes: u32,
    /// Inode rotor (`cg_irotor`): the slot the last inode-map scan took,
    /// lowered by every free below it.
    irotor: u32,
    /// Number of directories in the group (`cg_cs.cs_ndir`).
    ndirs: u32,
}

/// A fragment run inside one block, returned by fragment search.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FragRun {
    /// Block index within the group.
    pub block: u32,
    /// First fragment within the block.
    pub frag: u32,
    /// Run length in fragments.
    pub len: u32,
}

impl CylGroup {
    /// Creates the group with its metadata area marked allocated.
    pub fn new(params: &FsParams, idx: CgIdx) -> CylGroup {
        let nblocks = params.cg_nblocks(idx);
        let meta_blocks = params.cg_meta_blocks().min(nblocks);
        debug_assert_eq!(params.frags_per_block(), FPB, "unsupported geometry");
        let frag_words = fresh_frag_words(nblocks, meta_blocks);
        let ninodes = params.inodes_per_cg();
        let data_blocks = nblocks - meta_blocks;
        let mut cg = CylGroup {
            idx,
            base: params.cg_base(idx),
            nblocks,
            meta_blocks,
            frag_words,
            derived: Derived::default(),
            maxcontig: params.maxcontig.max(1),
            free_frags: data_blocks * FPB,
            free_blocks: data_blocks,
            rotor: meta_blocks,
            frotor: meta_blocks,
            imap: vec![0u64; ninodes.div_ceil(64) as usize],
            ninodes,
            free_inodes: ninodes,
            irotor: 0,
            ndirs: 0,
        };
        cg.rebuild_derived();
        cg
    }

    /// The group index.
    pub fn idx(&self) -> CgIdx {
        self.idx
    }

    /// Total blocks (metadata included).
    pub fn nblocks(&self) -> u32 {
        self.nblocks
    }

    /// Blocks reserved for metadata at the front of the group.
    pub fn meta_blocks(&self) -> u32 {
        self.meta_blocks
    }

    /// Fully free blocks.
    pub fn free_blocks(&self) -> u32 {
        self.free_blocks
    }

    /// Free fragments (including those inside fully free blocks).
    pub fn free_frags(&self) -> u32 {
        self.free_frags
    }

    /// Free inode slots.
    pub fn free_inodes(&self) -> u32 {
        self.free_inodes
    }

    /// Directories living in this group.
    pub fn ndirs(&self) -> u32 {
        self.ndirs
    }

    /// Bumps or drops the directory count.
    pub fn set_ndirs(&mut self, n: u32) {
        self.ndirs = n;
    }

    /// Converts a block index within the group to a fragment address.
    pub fn block_daddr(&self, block: u32) -> Daddr {
        debug_assert!(block < self.nblocks);
        Daddr(self.base.0 + block * FPB)
    }

    /// Converts a fragment address inside this group to (block, fragment).
    pub fn daddr_to_block(&self, d: Daddr) -> (u32, u32) {
        debug_assert!(d.0 >= self.base.0);
        let off = d.0 - self.base.0;
        (off / FPB, off % FPB)
    }

    /// Fragments per block: always 8.
    pub fn frags_per_block(&self) -> u32 {
        FPB
    }

    /// The lane value of a fully allocated block.
    pub fn full_lane(&self) -> u8 {
        0xFF
    }

    /// Whether the block is fully free (`ffs_isblock`: one masked word
    /// test).
    pub fn is_block_free(&self, block: u32) -> bool {
        self.map_byte(block) == 0
    }

    /// Whether the given fragment run is entirely free.
    pub fn is_run_free(&self, block: u32, frag: u32, len: u32) -> bool {
        debug_assert!(frag + len <= FPB);
        let bit = (block * FPB + frag) as usize;
        let mask = ((1u64 << len) - 1) << (bit % 64);
        self.frag_words[bit / 64] & mask == 0
    }

    /// Allocates a fully free block (`ffs_setblock`): the one-block case
    /// of [`CylGroup::alloc_block_run`].
    ///
    /// # Panics
    ///
    /// Panics in debug builds if the block is not fully free.
    pub fn alloc_block(&mut self, block: u32) {
        self.alloc_block_run(block, 1);
    }

    /// Frees a fully allocated block (`ffs_clrblock`): the one-block case
    /// of [`CylGroup::free_block_run`].
    pub fn free_block(&mut self, block: u32) {
        self.free_block_run(block, 1);
    }

    /// Allocates the `n >= 1` consecutive fully free blocks starting at
    /// `block`: one masked write per map word touched, one cluster-summary
    /// update for the whole run — the state `n` single-block calls in
    /// ascending order would leave. The rotors stay where they are: only
    /// a map search moves them (`ffs_mapsearch`, `ffs_alloccgblk`).
    ///
    /// # Panics
    ///
    /// Panics in debug builds if any block of the run is not fully free.
    pub fn alloc_block_run(&mut self, block: u32, n: u32) {
        debug_assert!(n >= 1 && block + n <= self.nblocks);
        debug_assert!(
            (block..block + n).all(|b| self.map_byte(b) == 0),
            "double alloc in {block}+{n}"
        );
        // A free-to-full transition touches no partial block, so the
        // fragment summary is unchanged by definition.
        fill_bits(&mut self.frag_words, block * FPB, n * FPB, true);
        self.mark_run_used(block, n);
        self.free_blocks -= n;
        self.free_frags -= n * FPB;
    }

    /// Frees the `n >= 1` consecutive fully allocated blocks starting at
    /// `block`, the mirror of [`CylGroup::alloc_block_run`].
    pub fn free_block_run(&mut self, block: u32, n: u32) {
        debug_assert!(n >= 1 && block + n <= self.nblocks);
        debug_assert!(
            (block..block + n).all(|b| self.map_byte(b) == self.full_lane()),
            "freeing non-full block in {block}+{n}"
        );
        debug_assert!(block >= self.meta_blocks);
        // Full-to-free: no partial block involved, frsum unchanged.
        fill_bits(&mut self.frag_words, block * FPB, n * FPB, false);
        self.mark_run_free(block, n);
        self.free_blocks += n;
        self.free_frags += n * FPB;
    }

    /// Allocates a fragment run within one block. The block may have other
    /// fragments allocated (a shared fragment block) or be fully free (this
    /// call then splits it).
    pub fn alloc_frags(&mut self, block: u32, frag: u32, len: u32) {
        debug_assert!(self.is_run_free(block, frag, len));
        let old = self.map_byte(block);
        let new = old | run_mask(frag, len);
        self.write_lane(block, new);
        let was = self.frsum_account(old, false);
        let now = self.frsum_account(new, true);
        self.fit_account(block, was, now);
        if old == 0 {
            self.mark_run_used(block, 1);
            self.free_blocks -= 1;
        }
        self.free_frags -= len;
    }

    /// Frees a fragment run within one block. If the block becomes fully
    /// free it returns to the block pool (the promotion path: the block
    /// re-enters `free_words` and the cluster summary exactly once, on
    /// the transition of its last allocated fragment).
    pub fn free_frag_run(&mut self, block: u32, frag: u32, len: u32) {
        let mask = run_mask(frag, len);
        let old = self.map_byte(block);
        debug_assert_eq!(old & mask, mask, "freeing unallocated fragments");
        debug_assert!(block >= self.meta_blocks);
        let new = old & !mask;
        self.write_lane(block, new);
        let was = self.frsum_account(old, false);
        let now = self.frsum_account(new, true);
        self.fit_account(block, was, now);
        self.free_frags += len;
        if new == 0 {
            self.mark_run_free(block, 1);
            self.free_blocks += 1;
        }
    }

    /// Overwrites one block's fragment lane in the packed map
    /// (`ffs_setblock`/`ffs_clrblock` for whole lanes, a masked
    /// read-modify-write for partial ones). Raw map write only: no
    /// counter, summary, or free-bitmap maintenance.
    fn write_lane(&mut self, block: u32, lane: u8) {
        let (wi, sh) = ((block / 8) as usize, block % 8 * 8);
        self.frag_words[wi] = (self.frag_words[wi] & !(0xFF << sh)) | (u64::from(lane) << sh);
    }

    /// Adds (`add`) or removes the maximal free runs of one block lane
    /// to/from the fragment summary. Fully free and fully allocated
    /// lanes contribute nothing (`cg_frsum` counts runs in partial
    /// blocks only), so callers account the old lane out and the new
    /// lane in around every fragment-level mutation and the empty/full
    /// endpoints fall out automatically. Returns the lane's longest such
    /// run — zero for the empty and full lanes — which is what
    /// [`CylGroup::fit_account`] files the block under.
    fn frsum_account(&mut self, lane: u8, add: bool) -> u32 {
        if lane == 0 || lane == 0xFF {
            return 0;
        }
        // Walk the maximal zero runs with bit intrinsics: a partial lane
        // has at most four runs and usually one, so this is a couple of
        // iterations where a per-bit loop is always nine.
        let mut z = u32::from(!lane);
        let mut longest = 0;
        while z != 0 {
            let start = z.trailing_zeros();
            let run = (z >> start).trailing_ones();
            let slot = &mut self.derived.frsum[(run - 1) as usize];
            *slot = if add { *slot + 1 } else { *slot - 1 };
            longest = longest.max(run);
            z &= !(((1u32 << run) - 1) << start);
        }
        longest
    }

    /// Refiles `block` in the fit index after a fragment transition took
    /// its longest free run (as [`CylGroup::frsum_account`] reports it,
    /// zero when the lane is not partial) from `was` to `now`: the block's
    /// bit belongs in levels `1..=longest`, so exactly the levels between
    /// the two flip — at most seven of them, none when the longest run
    /// did not change. Whole-block transitions go empty to full or back
    /// and are zero on both sides, which is why
    /// [`CylGroup::alloc_block_run`] and [`CylGroup::free_block_run`]
    /// never come here.
    fn fit_account(&mut self, block: u32, was: u32, now: u32) {
        let stride = self.derived.free_words.len();
        let (wi, bit) = ((block / 64) as usize, 1u64 << (block % 64));
        for level in was.min(now)..was.max(now) {
            self.derived.fit_words[level as usize * stride + wi] ^= bit;
        }
    }

    /// Level `k` of the fit index (`1 <= k < 8`): one bit per block, set
    /// where a partially allocated block has a free run of at least `k`
    /// fragments.
    fn fit_level(&self, k: u32) -> &[u64] {
        let stride = self.derived.free_words.len();
        &self.derived.fit_words[(k - 1) as usize * stride..][..stride]
    }

    // --- Derived state: free-block bitmap and cluster summary -----------
    //
    // `mark_run_free`/`mark_run_used` are the only writers of
    // `free_words` and `csum` on the allocation path; they are called
    // exactly when a run of `n` blocks transitions between "fully free"
    // and "has at least one allocated fragment" (`n` is 1 on the fragment
    // path). The summary update is the `ffs_clusteracct` argument, which
    // never needed the flipped piece to be one block long: with `L` and
    // `R` the free runs just outside the piece, the merged run is
    // `L + n + R` long and capped lengths compose, i.e.
    // `min(L + n + R, cap) == min(min(L, cap) + n + min(R, cap), cap)`,
    // so scanning at most `cap` neighbor bits on each side is enough to
    // keep every bucket exact, and one update per run leaves the table
    // `n` single-block updates would.

    /// Whether the free-bitmap bit for `block` is set.
    pub(crate) fn free_bit(&self, block: u32) -> bool {
        self.derived.free_words[(block / 64) as usize] & (1 << (block % 64)) != 0
    }

    /// Capped length of the free run immediately below `block`.
    ///
    /// Word-at-a-time: shift the word so the bit below `block` lands at
    /// the top, then `leading_zeros` of the complement counts the
    /// consecutive set bits downward in one instruction. The shift
    /// zero-fills from below, so the count self-limits at the word edge
    /// and the loop crosses into the next word only on a full-word run.
    /// (Reference: `ffs_clusteracct`'s backward scan, in
    /// `tests/bsd/mod.rs`.)
    pub fn free_len_before(&self, block: u32, cap: u32) -> u32 {
        let mut n = 0;
        let mut i = block;
        while i > 0 && n < cap {
            let bit = (i - 1) % 64;
            let w = self.derived.free_words[((i - 1) / 64) as usize];
            let run = (!(w << (63 - bit))).leading_zeros();
            n += run;
            i -= run;
            if run < bit + 1 {
                break;
            }
        }
        n.min(cap)
    }

    /// Capped length of the free run immediately above `block`.
    ///
    /// Word-at-a-time mirror of [`CylGroup::free_len_before`]:
    /// `trailing_zeros` of the complement of the shifted word counts the
    /// consecutive set bits upward. Bits at and beyond `nblocks` are
    /// never set, so the scan stops at the group edge on its own.
    /// (Reference: `ffs_clusteracct`'s forward scan, in
    /// `tests/bsd/mod.rs`.)
    pub fn free_len_after(&self, block: u32, cap: u32) -> u32 {
        let mut n = 0;
        let mut i = block + 1;
        while i < self.nblocks && n < cap {
            let bit = i % 64;
            let w = self.derived.free_words[(i / 64) as usize];
            let run = (!(w >> bit)).trailing_zeros().min(64 - bit);
            n += run;
            i += run;
            if run < 64 - bit {
                break;
            }
        }
        n.min(cap)
    }

    /// Records the transition of blocks `block .. block + n` from
    /// allocated to fully free: the runs to their left and right merge
    /// with them into one.
    fn mark_run_free(&mut self, block: u32, n: u32) {
        debug_assert!((block..block + n).all(|b| !self.free_bit(b)));
        let cap = self.maxcontig;
        let left = self.free_len_before(block, cap);
        let right = self.free_len_after(block + n - 1, cap);
        let csum = &mut self.derived.csum;
        if left > 0 {
            csum[(left - 1) as usize] -= 1;
        }
        if right > 0 {
            csum[(right - 1) as usize] -= 1;
        }
        csum[((left + n + right).min(cap) - 1) as usize] += 1;
        fill_bits(&mut self.derived.free_words, block, n, true);
    }

    /// Records the transition of blocks `block .. block + n` from fully
    /// free to allocated: the run containing them splits into the parts
    /// left and right of them.
    fn mark_run_used(&mut self, block: u32, n: u32) {
        debug_assert!(self.is_cluster_free(block, n));
        fill_bits(&mut self.derived.free_words, block, n, false);
        let cap = self.maxcontig;
        let left = self.free_len_before(block, cap);
        let right = self.free_len_after(block + n - 1, cap);
        let csum = &mut self.derived.csum;
        csum[((left + n + right).min(cap) - 1) as usize] -= 1;
        if left > 0 {
            csum[(left - 1) as usize] += 1;
        }
        if right > 0 {
            csum[(right - 1) as usize] += 1;
        }
    }

    /// The cluster summary table: entry `k` counts maximal free runs of
    /// length `k + 1`, with the last entry pooling every run at least
    /// `maxcontig` long (`fs_clustersum`).
    pub fn cluster_summary(&self) -> &[u32] {
        &self.derived.csum
    }

    /// O(1) pre-check from the summary table: whether a free run of at
    /// least `len` blocks can exist. Exact for `len <= maxcontig`; for
    /// longer requests it is a sound necessary condition (the pooled last
    /// bucket cannot distinguish lengths), so `true` may still scan to a
    /// miss but `false` never lies.
    fn summary_may_fit(&self, len: u32) -> bool {
        let cap = self.maxcontig;
        if len <= cap {
            self.derived.csum[(len.max(1) - 1) as usize..]
                .iter()
                .any(|&c| c > 0)
        } else {
            self.derived.csum[(cap - 1) as usize] > 0
        }
    }

    /// Whether `len` consecutive blocks starting at `block` are all fully
    /// free. `block + len` must not exceed the group size.
    pub fn is_cluster_free(&self, block: u32, len: u32) -> bool {
        if len == 0 {
            return true;
        }
        if block >= self.nblocks || self.nblocks - block < len {
            return false;
        }
        ones_run_len(&self.derived.free_words, block, block + len) >= len
    }

    /// Iterates the maximal free runs of the group as `(start, len)`
    /// pairs, in address order.
    pub fn free_runs(&self) -> FreeRuns<'_> {
        FreeRuns {
            words: &self.derived.free_words,
            pos: 0,
            hi: self.nblocks,
        }
    }

    /// Recounts the derived state from the fragment map: group
    /// construction, and fsck-style rebuild after the raw map has been
    /// rewritten.
    pub(crate) fn rebuild_derived(&mut self) {
        self.derived = self.recount_derived();
    }

    /// The group's [`Derived`] state recounted from the fragment map
    /// alone, one block lane at a time: `free_words`, `csum`, `frsum` and
    /// the fit index, each as its field documents. Construction and the
    /// fsck rebuild assign it; [`CylGroup::derived_drift`] diffs against
    /// it.
    fn recount_derived(&self) -> Derived {
        let cap = self.maxcontig as usize;
        let nwords = self.nblocks.div_ceil(64) as usize;
        let mut d = Derived {
            free_words: vec![0u64; nwords],
            csum: vec![0u32; cap],
            frsum: vec![0u32; (FPB - 1) as usize],
            fit_words: vec![0u64; (FPB - 1) as usize * nwords],
        };
        let mut run = 0usize;
        // One step past the end, read as allocated, closes a trailing run.
        for b in 0..=self.nblocks {
            let byte = if b < self.nblocks {
                self.map_byte(b)
            } else {
                0xFF
            };
            if byte == 0 {
                d.free_words[(b / 64) as usize] |= 1 << (b % 64);
                run += 1;
                continue;
            }
            if run > 0 {
                d.csum[(run - 1).min(cap - 1)] += 1;
                run = 0;
            }
            if byte == 0xFF {
                continue;
            }
            let mut frun = 0u32;
            let mut longest = 0u32;
            for i in 0..=FPB {
                if i < FPB && byte & (1 << i) == 0 {
                    frun += 1;
                } else if frun > 0 {
                    d.frsum[(frun - 1) as usize] += 1;
                    longest = longest.max(frun);
                    frun = 0;
                }
            }
            for level in 0..longest as usize {
                d.fit_words[level * nwords + (b / 64) as usize] |= 1 << (b % 64);
            }
        }
        d
    }

    /// Raw mutable access to the derived state, for fault injection; same
    /// caveats as [`CylGroup::set_map_byte`].
    pub(crate) fn derived_mut(&mut self) -> &mut Derived {
        &mut self.derived
    }

    /// The derived tables that disagree with a from-scratch recount of
    /// the fragment map, by name, each with its first differing slot
    /// (stored vs recounted). Empty on a sound group.
    pub fn derived_drift(&self) -> Vec<(&'static str, String)> {
        fn first_diff<T: PartialEq + std::fmt::LowerHex>(a: &[T], b: &[T]) -> String {
            match a.iter().zip(b).position(|(x, y)| x != y) {
                Some(i) => format!("slot {i}: {:#x} vs {:#x}", a[i], b[i]),
                None => format!("length {} vs {}", a.len(), b.len()),
            }
        }
        let recount = self.recount_derived();
        let mut drift = Vec::new();
        for ((name, a), (_, b)) in self.derived.tables().into_iter().zip(recount.tables()) {
            match (a, b) {
                (Table::Words(a), Table::Words(b)) if a != b => {
                    drift.push((name, first_diff(a, b)))
                }
                (Table::Counts(a), Table::Counts(b)) if a != b => {
                    drift.push((name, first_diff(a, b)))
                }
                _ => {}
            }
        }
        drift
    }

    /// The fragment summary table (`cg_frsum`): entry `k` counts the
    /// maximal free fragment runs of exactly `k + 1` fragments inside
    /// partially allocated blocks.
    pub fn frag_summary(&self) -> &[u32] {
        &self.derived.frsum
    }

    /// Finds the first fully free block at or after `from` (block index),
    /// wrapping around the group once. The search mirrors `ffs_mapsearch`:
    /// it does not care how large the surrounding free region is — the
    /// defect of the original allocator the paper highlights.
    pub fn find_free_block(&self, from: u32) -> Option<u32> {
        // An exhausted group would otherwise scan its whole bitmap to
        // find nothing — the common case for every group a spilled
        // allocation probes on a near-full volume.
        if self.nblocks == 0 || self.free_blocks == 0 {
            return None;
        }
        let start = if from >= self.nblocks {
            self.meta_blocks
        } else {
            from
        };
        if let Some(b) = next_set_bit(&self.derived.free_words, start, self.nblocks) {
            obs::hist!("ffs.cg_search_blocks", obs::bounds::POW2, b - start + 1);
            return Some(b);
        }
        if let Some(b) = next_set_bit(&self.derived.free_words, 0, start) {
            obs::hist!(
                "ffs.cg_search_blocks",
                obs::bounds::POW2,
                (self.nblocks - start) + b + 1
            );
            return Some(b);
        }
        debug_assert_eq!(
            self.free_blocks, 0,
            "free count says {} but none found",
            self.free_blocks
        );
        None
    }

    /// Finds a run of at least `len` consecutive fully free blocks at or
    /// after `from`, up to the group's end — 4.4BSD's `ffs_clusteralloc`
    /// scan, which the realloc pass and the defragmenter use. Returns the
    /// first block of the first fitting run (a run that crosses the start
    /// counts from it): the windowed search with an empty window and no
    /// wrap.
    pub fn find_free_cluster(&self, from: u32, len: u32) -> Option<u32> {
        self.cluster_search(from, len, 0, false)
    }

    /// Finds the *smallest* free run of at least `len` blocks anywhere in
    /// the group (best fit; an exact fit at once, ties broken toward lower
    /// addresses): the windowed search from block 0 with the whole group
    /// as the window. Consumes left-over remainders instead of carving up
    /// the group's large runs. No placement calls it (realloc uses
    /// [`CylGroup::find_free_cluster`]); ffsbench's layer probe times it.
    pub fn find_free_cluster_bestfit(&self, len: u32) -> Option<u32> {
        self.find_free_cluster_near(0, len, self.nblocks)
    }

    /// Windowed best fit: the best-fitting free run of at least `len`
    /// blocks that *starts* within `window` blocks after `from`; when no
    /// run in the window fits, the first fit beyond it, then the first
    /// fit from the group's front. A run crossing `from` counts from it.
    /// The group's one cluster scan: an empty window without the wrap
    /// makes it first fit, the whole group from block 0 best fit. No
    /// placement calls it (realloc uses `ffs_clusteralloc`'s first fit,
    /// [`CylGroup::find_free_cluster`]); ffsbench's layer probe times it.
    ///
    /// On an aged group most holes in the window are a block or two long
    /// and cannot hold the request, so the scan never measures them: per
    /// bitmap word, `long_run_starts` leaves a bit only where a maximal
    /// run of at least `len` blocks begins, and only those are visited.
    /// (Reference: a run-by-run scan of `cg_clustersfree`, in
    /// `tests/bsd/mod.rs`.)
    pub fn find_free_cluster_near(&self, from: u32, len: u32, window: u32) -> Option<u32> {
        self.cluster_search(from, len, window, true)
    }

    /// [`CylGroup::find_free_cluster_near`], wrapping to the group's
    /// front only if `wrap`.
    fn cluster_search(&self, from: u32, len: u32, window: u32, wrap: bool) -> Option<u32> {
        debug_assert!(len >= 1);
        if len == 0 || self.nblocks == 0 {
            return None;
        }
        if !self.summary_may_fit(len) {
            obs::counter!("ffs.cg_summary_reject", 1);
            return None;
        }
        let start = if from >= self.nblocks {
            self.meta_blocks
        } else {
            from
        };
        let lim = start.saturating_add(window).min(self.nblocks);
        let words = &self.derived.free_words[..];
        let mut best: Option<(u32, u32)> = None; // (len, start)
        let mut wi = (start / 64) as usize;
        // A run straddling `start` counts from `start`: the bits below it
        // are masked off and its first bit reads as a run start.
        let mut x = words[wi] & (u64::MAX << (start % 64));
        let mut below = 0u64;
        // Past the window a fitting run only ends the search in favour of
        // what the window offered, so with an offer in hand stop there.
        while !(best.is_some() && wi as u32 * 64 >= lim) {
            let above = words.get(wi + 1).copied().unwrap_or(0);
            let mut starts = long_run_starts(x, below, above, len);
            while starts != 0 {
                let s = wi as u32 * 64 + starts.trailing_zeros();
                starts &= starts - 1;
                let run = ones_run_len(words, s, self.nblocks);
                if run < len {
                    // The mask vouches for 65 blocks at most.
                    continue;
                }
                if s >= lim {
                    // Beyond the window: first fit wins unless the
                    // window already offered something.
                    return Some(best.map_or(s, |(_, b)| b));
                }
                if run == len {
                    return Some(s);
                }
                match best {
                    Some((blen, _)) if blen <= run => {}
                    _ => best = Some((run, s)),
                }
            }
            wi += 1;
            if wi == words.len() {
                break;
            }
            below = x >> 63;
            x = words[wi];
        }
        if let Some((_, s)) = best {
            return Some(s);
        }
        // Wrap: first fit in the prefix (runs crossing `start` included
        // via the overlap margin).
        wrap.then(|| self.scan_cluster(0, start + len.min(self.nblocks) - 1, len))?
    }

    /// First-fit run of at least `len` free blocks within `[lo, hi)`,
    /// clipped at both ends (a run extending past `hi` counts only up to
    /// it). Returns the run's first block.
    fn scan_cluster(&self, lo: u32, hi: u32, len: u32) -> Option<u32> {
        let hi = hi.min(self.nblocks);
        let mut pos = lo;
        while let Some(s) = next_set_bit(&self.derived.free_words, pos, hi) {
            let run = ones_run_len(&self.derived.free_words, s, hi);
            if run >= len {
                return Some(s);
            }
            pos = s + run + 1;
        }
        None
    }

    /// First block in `lo..hi` that can hold `len` fragments: the earlier
    /// of the first fully free block and the first partial block with a
    /// free run of at least `len`, each one bitmap walk, the second
    /// bounded by what the first found.
    fn next_fit(&self, len: u32, lo: u32, hi: u32) -> Option<u32> {
        let free = next_set_bit(&self.derived.free_words, lo, hi);
        next_set_bit(self.fit_level(len), lo, free.unwrap_or(hi)).or(free)
    }

    /// Finds a free fragment run of at least `len` fragments, first fit
    /// at or after block `from`, wrapping once — `ffs_mapsearch`: the
    /// scan takes the first adequate free run in address order, whether
    /// it lies in a partially allocated fragment block or at the start of
    /// a fully free block (which this allocation then splits). Locality
    /// beats frugality, exactly as in the BSD code.
    ///
    /// The fragment map itself is read for one lane only. Whether any
    /// block fits is answered from the counters first, as `ffs_alloccg`
    /// consults `cg_frsum` before it searches — a group with loose
    /// fragments but no run of `len` is refused in eight steps, which is what
    /// every group a spilled allocation probes on a full volume looks
    /// like — and which block fits first is `next_fit` over
    /// two bitmaps. (Reference: a per-block scan of `cg_blksfree`, in
    /// `tests/bsd/mod.rs`.)
    pub fn find_frag_run(&self, from: u32, len: u32) -> Option<FragRun> {
        debug_assert!((1..FPB).contains(&len));
        let longer = &self.derived.frsum[(len - 1) as usize..];
        if self.free_blocks == 0 && longer.iter().all(|&c| c == 0) {
            return None;
        }
        let start = if from >= self.nblocks {
            self.meta_blocks
        } else {
            from
        };
        let block = self
            .next_fit(len, start, self.nblocks)
            .or_else(|| self.next_fit(len, 0, start));
        debug_assert!(block.is_some(), "the summaries say {len} frags fit");
        let block = block?;
        let frag = first_zero_run(self.map_byte(block), len);
        Some(FragRun { block, frag, len })
    }

    /// Best-fit fragment search guided by the fragment summary — the
    /// `allocsiz` loop of `ffs_alloccg` followed by `ffs_mapsearch`: the
    /// smallest run size `k >= len` with a live `frsum` bucket is chosen
    /// in eight steps before the map is touched, then the first partially
    /// allocated block at or after `from` (wrapping once) holding a
    /// maximal free run of exactly `k` fragments supplies the first
    /// `len` of them. The candidates are the set bits of fit level `k`;
    /// a block filed there for a longer run only is passed over.
    /// Returns `None` when no partial block has an adequate run; the
    /// caller then splits a fully free block, exactly as the BSD
    /// allocator falls back to `ffs_alloccgblk`.
    pub fn find_frag_run_bestfit(&self, from: u32, len: u32) -> Option<FragRun> {
        debug_assert!((1..FPB).contains(&len));
        let k = (len..FPB).find(|&k| self.derived.frsum[(k - 1) as usize] > 0)?;
        let start = if from >= self.nblocks {
            self.meta_blocks
        } else {
            from
        };
        let level = self.fit_level(k);
        let scan = |lo: u32, hi: u32| {
            let mut pos = lo;
            while let Some(block) = next_set_bit(level, pos, hi) {
                if let Some(frag) = exact_zero_run(self.map_byte(block), k) {
                    return Some(FragRun { block, frag, len });
                }
                pos = block + 1;
            }
            None
        };
        let found = scan(start, self.nblocks).or_else(|| scan(0, start));
        debug_assert!(
            found.is_some(),
            "frsum says a {k}-frag run exists but none was found"
        );
        found
    }

    /// Allocates an inode slot with no preference: `ffs_nodealloccg`'s
    /// scan of the inode map from the byte that holds the inode rotor,
    /// wrapping once, which leaves the rotor on the slot taken. Returns
    /// the slot index.
    pub fn alloc_inode(&mut self) -> Option<u32> {
        if self.free_inodes == 0 {
            return None;
        }
        let n = self.ninodes;
        // Word at a time (the per-bit walk was measurable once the low
        // slots filled up).
        let start = (self.irotor - self.irotor % 8).min(n);
        let slot =
            next_zero_bit(&self.imap, start, n).or_else(|| next_zero_bit(&self.imap, 0, start))?;
        self.take_inode(slot);
        self.irotor = slot;
        Some(slot)
    }

    /// Marks the free inode slot `slot` used; the rotor stays.
    pub(crate) fn take_inode(&mut self, slot: u32) {
        let (w, b) = (slot / 64, slot % 64);
        debug_assert!(self.imap[w as usize] & (1 << b) == 0);
        self.imap[w as usize] |= 1 << b;
        self.free_inodes -= 1;
    }

    /// Frees an inode slot (`ffs_vfree`): a slot below the inode rotor
    /// lowers it there.
    pub fn free_inode(&mut self, slot: u32) {
        let (w, b) = (slot / 64, slot % 64);
        debug_assert!(self.imap[w as usize] & (1 << b) != 0);
        self.imap[w as usize] &= !(1 << b);
        self.free_inodes += 1;
        self.irotor = self.irotor.min(slot);
    }

    /// Whether an inode slot is allocated.
    pub fn inode_used(&self, slot: u32) -> bool {
        let (w, b) = (slot / 64, slot % 64);
        self.imap[w as usize] & (1 << b) != 0
    }

    /// One block's fragment lane extracted from the packed map: bit `i`
    /// set means fragment `i` of the block is allocated (for the
    /// consistency checker and the full recount).
    pub fn map_byte(&self, block: u32) -> u8 {
        (self.frag_words[(block / 8) as usize] >> (block % 8 * 8)) as u8
    }

    /// The packed fragment map itself: bit `block * 8 + frag`, set =
    /// allocated, bits past the last block clear. The layout
    /// fsck's claim map mirrors, so the two compare a word at a time.
    pub fn frag_words(&self) -> &[u64] {
        &self.frag_words
    }

    /// Replaces the fragment map wholesale and recounts everything that
    /// is a function of it (free counters, [`Derived`]) — the fsck
    /// rebuild, handed the words the inodes claim.
    pub(crate) fn install_frag_words(&mut self, words: Vec<u64>) {
        debug_assert_eq!(words.len(), self.frag_words.len());
        self.frag_words = words;
        (self.free_frags, self.free_blocks) = free_counts(&self.frag_words, self.nblocks);
        self.rebuild_derived();
    }

    /// Overwrites one block's fragment lane, for fault injection.
    /// Counters, summaries, and the free-block bitmap are NOT maintained;
    /// callers must restore consistency themselves (that is the point of
    /// the exercise).
    pub(crate) fn set_map_byte(&mut self, block: u32, lane: u8) {
        self.write_lane(block, lane);
    }

    /// Raw mutable access to the inode bitmap; same caveats as
    /// [`CylGroup::set_map_byte`].
    pub(crate) fn raw_imap_mut(&mut self) -> &mut [u64] {
        &mut self.imap
    }

    /// Number of inode slots in the group.
    pub fn ninodes(&self) -> u32 {
        self.ninodes
    }

    /// Overwrites the free-space counters, for fsck-style rebuild and
    /// fault injection.
    pub(crate) fn set_free_counts(&mut self, frags: u32, blocks: u32) {
        self.free_frags = frags;
        self.free_blocks = blocks;
    }

    /// Overwrites the free-inode counter, for fsck-style rebuild.
    pub(crate) fn set_free_inodes(&mut self, n: u32) {
        self.free_inodes = n;
    }

    /// The block rotor (`cg_rotor`).
    pub fn rotor(&self) -> u32 {
        self.rotor
    }

    /// The fragment rotor (`cg_frotor`).
    pub fn frotor(&self) -> u32 {
        self.frotor
    }

    /// The inode rotor (`cg_irotor`).
    pub fn irotor(&self) -> u32 {
        self.irotor
    }

    /// A map search found `block`: `ffs_mapsearch` leaves the fragment
    /// rotor there and, for a whole block (`whole`), `ffs_alloccgblk`
    /// leaves the block rotor there too.
    pub(crate) fn searched(&mut self, block: u32, whole: bool) {
        self.frotor = block;
        if whole {
            self.rotor = block;
        }
    }

    /// Overwrites the three rotors, `(rotor, irotor, frotor)`, for
    /// checkpoint restore.
    pub(crate) fn set_rotors(&mut self, (rotor, irotor, frotor): (u32, u32, u32)) {
        (self.rotor, self.irotor, self.frotor) = (rotor, irotor, frotor);
    }
}

/// Iterator over a group's maximal free runs; see [`CylGroup::free_runs`].
#[derive(Clone, Debug)]
pub struct FreeRuns<'a> {
    words: &'a [u64],
    pos: u32,
    hi: u32,
}

impl Iterator for FreeRuns<'_> {
    type Item = (u32, u32);

    fn next(&mut self) -> Option<(u32, u32)> {
        let s = next_set_bit(self.words, self.pos, self.hi)?;
        let run = ones_run_len(self.words, s, self.hi);
        // The bit at `s + run` is known clear (or past `hi`), so the next
        // run cannot start before `s + run + 1`.
        self.pos = s + run + 1;
        Some((s, run))
    }
}

/// Index of the first set bit in `words` within `[lo, hi)`, advancing a
/// whole word per iteration.
fn next_set_bit(words: &[u64], lo: u32, hi: u32) -> Option<u32> {
    if lo >= hi {
        return None;
    }
    let (mut wi, bit) = ((lo / 64) as usize, lo % 64);
    let last = ((hi - 1) / 64) as usize;
    let mut w = words[wi] & (u64::MAX << bit);
    loop {
        if w != 0 {
            let b = wi as u32 * 64 + w.trailing_zeros();
            return (b < hi).then_some(b);
        }
        wi += 1;
        if wi > last {
            return None;
        }
        w = words[wi];
    }
}

/// Index of the first *clear* bit in `words` within `[lo, hi)`, advancing
/// a whole word per iteration — [`next_set_bit`] over the complement.
fn next_zero_bit(words: &[u64], lo: u32, hi: u32) -> Option<u32> {
    if lo >= hi {
        return None;
    }
    let (mut wi, bit) = ((lo / 64) as usize, lo % 64);
    let last = ((hi - 1) / 64) as usize;
    let mut w = !words[wi] & (u64::MAX << bit);
    loop {
        if w != 0 {
            let b = wi as u32 * 64 + w.trailing_zeros();
            return (b < hi).then_some(b);
        }
        wi += 1;
        if wi > last {
            return None;
        }
        w = !words[wi];
    }
}

/// The bits of `x` at which a maximal run of at least `min(len, 65)` set
/// bits begins, the run read through into `above` (the next word of the
/// bitmap); `below` carries the previous word's top bit, so a run that
/// merely continues into `x` does not start in it.
///
/// `fits` starts as the 128 bits of `x` and `above` and is ANDed with
/// itself shifted down until bit `i` says "bits `i .. i + need` are all
/// set"; each step at most doubles the length already established, so it
/// takes `log2(need)` steps. 128 bits answer that for every bit of `x`
/// while `need <= 65`, which is why a longer request is only vouched for
/// that far.
fn long_run_starts(x: u64, below: u64, above: u64, len: u32) -> u64 {
    let need = len.min(65);
    let mut fits = u128::from(x) | u128::from(above) << 64;
    let mut have = 1;
    while have < need {
        let step = have.min(need - have);
        fits &= fits >> step;
        have += step;
    }
    x & !(x << 1 | below) & fits as u64
}

/// Length of the run of set bits starting at `start`, clipped to `hi`.
/// `start` must be below `hi` and its bit set for a non-zero answer.
fn ones_run_len(words: &[u64], start: u32, hi: u32) -> u32 {
    let mut b = start;
    while b < hi {
        let (wi, bit) = ((b / 64) as usize, b % 64);
        // Inverting before the shift makes the first *clear* bit findable
        // by trailing_zeros without the shifted-in zeros looking like used
        // blocks; an empty remainder (inv == 0) means the run spans the
        // rest of the word.
        let inv = !words[wi] >> bit;
        if inv == 0 {
            b += 64 - bit;
        } else {
            b += inv.trailing_zeros();
            break;
        }
    }
    b.min(hi) - start
}

/// Sets (`set`) or clears bits `lo .. lo + n` of a packed bitmap: one
/// masked write per word touched.
fn fill_bits(words: &mut [u64], lo: u32, n: u32, set: bool) {
    let (mut wi, mut bit, mut left) = ((lo / 64) as usize, lo % 64, n);
    while left > 0 {
        let take = left.min(64 - bit);
        let mask = (u64::MAX >> (64 - take)) << bit;
        if set {
            words[wi] |= mask;
        } else {
            words[wi] &= !mask;
        }
        left -= take;
        wi += 1;
        bit = 0;
    }
}

/// The fragment map of a group nothing has been allocated in: `nblocks`
/// byte lanes, the first `meta_blocks` of them (the static metadata
/// area) set.
pub(crate) fn fresh_frag_words(nblocks: u32, meta_blocks: u32) -> Vec<u64> {
    let mut words = vec![0u64; nblocks.div_ceil(8) as usize];
    fill_bits(&mut words, 0, meta_blocks * FPB, true);
    words
}

/// `(free_frags, free_blocks)` of a packed fragment map of `nblocks`
/// byte lanes: free fragments by popcount, free blocks by OR-folding
/// every lane onto its low bit and counting the lanes left zero. Bits
/// past the last lane must be clear.
pub(crate) fn free_counts(words: &[u64], nblocks: u32) -> (u32, u32) {
    const LOW_BITS: u64 = u64::MAX / 0xFF;
    let (mut used_frags, mut used_blocks) = (0u32, 0u32);
    for &w in words {
        used_frags += w.count_ones();
        let fold = w | w >> 4;
        let fold = fold | fold >> 2;
        used_blocks += ((fold | fold >> 1) & LOW_BITS).count_ones();
    }
    (nblocks * FPB - used_frags, nblocks - used_blocks)
}

/// Bit mask covering fragments `frag .. frag + len` of a block byte.
fn run_mask(frag: u32, len: u32) -> u8 {
    debug_assert!(frag + len <= 8);
    (((1u16 << len) - 1) << frag) as u8
}

/// First position of a run of at least `len` zero bits in `lane`; the
/// lane must have one.
fn first_zero_run(lane: u8, len: u32) -> u32 {
    let z = u32::from(!lane);
    let mut starts = z;
    for i in 1..len {
        starts &= z >> i;
    }
    debug_assert!(starts != 0, "no {len}-frag run in lane {lane:#b}");
    starts.trailing_zeros()
}

/// First position of a *maximal* run of exactly `len` zero bits in
/// `byte` — bounded by set bits or the lane edges, matching what the
/// fragment summary counts.
fn exact_zero_run(byte: u8, len: u32) -> Option<u32> {
    let mut run = 0u32;
    for i in 0..=FPB {
        if i < FPB && byte & (1 << i) == 0 {
            run += 1;
        } else {
            if run == len {
                return Some(i - len);
            }
            run = 0;
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn group() -> (FsParams, CylGroup) {
        let p = FsParams::small_test();
        let cg = CylGroup::new(&p, CgIdx(1));
        (p, cg)
    }

    #[test]
    fn new_group_reserves_metadata() {
        let (p, cg) = group();
        assert_eq!(cg.nblocks(), p.cg_nblocks(CgIdx(1)));
        assert_eq!(cg.free_blocks(), cg.nblocks() - cg.meta_blocks());
        assert!(!cg.is_block_free(0));
        assert!(cg.is_block_free(cg.meta_blocks()));
    }

    #[test]
    fn block_alloc_free_round_trip() {
        let (_, mut cg) = group();
        let b = cg.meta_blocks();
        let frags = cg.free_frags();
        cg.alloc_block(b);
        assert!(!cg.is_block_free(b));
        assert_eq!(cg.free_frags(), frags - 8);
        cg.free_block(b);
        assert!(cg.is_block_free(b));
        assert_eq!(cg.free_frags(), frags);
    }

    #[test]
    fn frag_alloc_splits_block() {
        let (_, mut cg) = group();
        let b = cg.meta_blocks();
        let blocks = cg.free_blocks();
        cg.alloc_frags(b, 0, 3);
        // The block is no longer fully free but has 5 free fragments.
        assert_eq!(cg.free_blocks(), blocks - 1);
        assert!(cg.is_run_free(b, 3, 5));
        assert!(!cg.is_run_free(b, 0, 1));
        cg.free_frag_run(b, 0, 3);
        assert_eq!(cg.free_blocks(), blocks);
    }

    #[test]
    fn freeing_last_frag_rejoins_block_pool() {
        let (_, mut cg) = group();
        let b = cg.meta_blocks();
        cg.alloc_frags(b, 2, 4);
        cg.alloc_frags(b, 0, 2);
        cg.free_frag_run(b, 2, 4);
        assert!(!cg.is_block_free(b));
        cg.free_frag_run(b, 0, 2);
        assert!(cg.is_block_free(b));
    }

    #[test]
    fn find_free_block_wraps() {
        let (_, mut cg) = group();
        let m = cg.meta_blocks();
        // Allocate everything except one block near the start.
        for b in m..cg.nblocks() {
            if b != m + 1 {
                cg.alloc_block(b);
            }
        }
        assert_eq!(cg.find_free_block(m + 10), Some(m + 1));
        assert_eq!(cg.find_free_block(0), Some(m + 1));
        cg.alloc_block(m + 1);
        assert_eq!(cg.find_free_block(0), None);
    }

    #[test]
    fn find_free_block_ignores_cluster_sizes() {
        // The original allocator's flaw: a single free block before a big
        // cluster is taken first.
        let (_, mut cg) = group();
        let m = cg.meta_blocks();
        // Allocate m..m+10 except the single block m+3; leave a large free
        // region from m+10 on.
        for b in m..m + 10 {
            if b != m + 3 {
                cg.alloc_block(b);
            }
        }
        assert_eq!(cg.find_free_block(m), Some(m + 3));
    }

    #[test]
    fn cluster_search_finds_first_fit() {
        let (_, mut cg) = group();
        let m = cg.meta_blocks();
        // Free map: [m] free, [m+1..m+4] used, [m+4..] free.
        for b in m + 1..m + 4 {
            cg.alloc_block(b);
        }
        assert_eq!(cg.find_free_cluster(m, 1), Some(m));
        assert_eq!(cg.find_free_cluster(m, 2), Some(m + 4));
        assert_eq!(cg.find_free_cluster(m, 7), Some(m + 4));
    }

    #[test]
    fn cluster_search_stops_at_the_group_end() {
        let (_, mut cg) = group();
        let m = cg.meta_blocks();
        // Only a 3-run at the start is free; everything later allocated.
        for b in m + 3..cg.nblocks() {
            cg.alloc_block(b);
        }
        // `ffs_clusteralloc` scans from the start to the group's end, so
        // the run is found from at or before it (a run across the start
        // counting from there), never from past it.
        assert_eq!(cg.find_free_cluster(0, 3), Some(m));
        assert_eq!(cg.find_free_cluster(m + 1, 2), Some(m + 1));
        assert_eq!(cg.find_free_cluster(m + 1, 3), None);
        assert_eq!(cg.find_free_cluster(m + 5, 3), None);
        // The windowed search still wraps to the front.
        assert_eq!(cg.find_free_cluster_near(m + 5, 3, 0), Some(m));
        assert_eq!(cg.find_free_cluster_near(m + 5, 4, 0), None);
    }

    #[test]
    fn frag_run_is_first_fit_from_pref() {
        let (_, mut cg) = group();
        let m = cg.meta_blocks();
        // Block m+2 is a fragment block with a 4-frag hole; m is free.
        cg.alloc_frags(m + 2, 0, 2);
        cg.alloc_frags(m + 2, 6, 2);
        // Searching from m finds the free block m first (splitting it),
        // as ffs_mapsearch does...
        let run = cg.find_frag_run(m, 3).expect("run exists");
        assert_eq!((run.block, run.frag), (m, 0));
        // ...and searching from m+1 with m+1 allocated finds the
        // fragment hole in m+2.
        cg.alloc_block(m + 1);
        let run = cg.find_frag_run(m + 1, 3).expect("run exists");
        assert_eq!((run.block, run.frag), (m + 2, 2));
    }

    #[test]
    fn frag_run_respects_length() {
        let (_, mut cg) = group();
        let m = cg.meta_blocks();
        let n = cg.nblocks();
        // Fill everything, then open a 2-frag hole at the end of block m.
        for b in m..n {
            cg.alloc_block(b);
        }
        cg.free_frag_run(m, 6, 2);
        assert!(cg.find_frag_run(0, 3).is_none());
        let run = cg.find_frag_run(0, 2).expect("2-frag hole");
        assert_eq!((run.block, run.frag), (m, 6));
    }

    #[test]
    fn inode_slots_allocate_and_reuse() {
        let (_, mut cg) = group();
        let a = cg.alloc_inode().unwrap();
        let b = cg.alloc_inode().unwrap();
        assert_ne!(a, b);
        assert!(cg.inode_used(a));
        cg.free_inode(a);
        assert!(!cg.inode_used(a));
        // The free lowered the rotor to `a`, so `a` is taken again.
        let c = cg.alloc_inode().unwrap();
        assert_eq!(c, a);
    }

    #[test]
    fn free_inode_lowers_the_inode_rotor() {
        let (_, mut cg) = group();
        let slots: Vec<u32> = (0..20).filter_map(|_| cg.alloc_inode()).collect();
        assert_eq!(slots, (0..20).collect::<Vec<_>>());
        // The scan leaves the rotor on the slot it took.
        assert_eq!(cg.irotor(), 19);
        cg.free_inode(5);
        assert_eq!(cg.irotor(), 5);
        // A free above the rotor leaves it.
        cg.free_inode(12);
        assert_eq!(cg.irotor(), 5);
        // The scan starts at the byte that holds the rotor.
        assert_eq!(cg.alloc_inode(), Some(5));
        assert_eq!(cg.alloc_inode(), Some(12));
        assert_eq!(cg.irotor(), 12);
    }

    #[test]
    fn inode_exhaustion_returns_none() {
        let (_, mut cg) = group();
        let mut n = 0;
        while cg.alloc_inode().is_some() {
            n += 1;
        }
        assert_eq!(n, cg.free_inodes + n); // All slots consumed.
        assert_eq!(cg.free_inodes(), 0);
        assert!(cg.alloc_inode().is_none());
    }

    #[test]
    fn run_mask_and_zero_run_helpers() {
        assert_eq!(run_mask(0, 8), 0xFF);
        assert_eq!(run_mask(2, 3), 0b0001_1100);
    }

    #[test]
    fn exact_zero_run_matches_maximal_runs_only() {
        // 0b0001_1100: maximal free runs are frags 0..2 (len 2) and
        // 5..8 (len 3).
        assert_eq!(exact_zero_run(0b0001_1100, 2), Some(0));
        assert_eq!(exact_zero_run(0b0001_1100, 3), Some(5));
        assert_eq!(exact_zero_run(0b0001_1100, 1), None);
        assert_eq!(exact_zero_run(0b0001_1100, 4), None);
        assert_eq!(exact_zero_run(0b0000_0001, 7), Some(1));
        assert_eq!(exact_zero_run(0xFF, 1), None);
    }

    #[test]
    fn frag_summary_is_maintained_incrementally() {
        let (_, mut cg) = group();
        let m = cg.meta_blocks();
        assert!(cg.frag_summary().iter().all(|&c| c == 0));
        cg.alloc_frags(m, 0, 3); // One maximal free run of 5 remains.
        assert_eq!(cg.frag_summary()[4], 1);
        cg.alloc_frags(m, 5, 2); // Runs now: frags 3..5 and frag 7.
        assert_eq!(cg.frag_summary()[0], 1);
        assert_eq!(cg.frag_summary()[1], 1);
        assert_eq!(cg.frag_summary()[4], 0);
        // Whole-block transitions never touch the summary.
        cg.alloc_block(m + 1);
        cg.free_block(m + 1);
        assert!(cg.derived_drift().is_empty());
        cg.free_frag_run(m, 0, 3);
        cg.free_frag_run(m, 5, 2);
        assert!(cg.is_block_free(m));
        assert!(cg.frag_summary().iter().all(|&c| c == 0));
    }

    /// The fit-index levels that hold `block`'s bit.
    fn fit_levels(cg: &CylGroup, block: u32) -> Vec<u32> {
        (1..FPB)
            .filter(|&k| cg.fit_level(k)[(block / 64) as usize] & (1 << (block % 64)) != 0)
            .collect()
    }

    #[test]
    fn fit_index_files_a_partial_block_under_its_longest_run() {
        let (_, mut cg) = group();
        let m = cg.meta_blocks();
        assert_eq!(fit_levels(&cg, m), []);
        cg.alloc_frags(m, 0, 3); // One free run of 5.
        assert_eq!(fit_levels(&cg, m), [1, 2, 3, 4, 5]);
        cg.alloc_frags(m, 5, 2); // Runs of 2 and 1.
        assert_eq!(fit_levels(&cg, m), [1, 2]);
        cg.alloc_frags(m, 7, 1); // The 2-run is still the longest.
        assert_eq!(fit_levels(&cg, m), [1, 2]);
        cg.alloc_frags(m, 3, 2); // Full: filed nowhere.
        assert_eq!(fit_levels(&cg, m), []);
        cg.free_frag_run(m, 1, 7); // One free run of 7.
        assert_eq!(fit_levels(&cg, m), [1, 2, 3, 4, 5, 6, 7]);
        cg.free_frag_run(m, 0, 1); // Fully free: `free_words` has it now.
        assert_eq!(fit_levels(&cg, m), []);
        assert!(cg.free_bit(m));
        assert!(cg.derived_drift().is_empty());
    }

    #[test]
    fn block_path_never_touches_the_fit_index() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let (_, mut cg) = group();
        let (m, n) = (cg.meta_blocks(), cg.nblocks());
        let mut rng = StdRng::seed_from_u64(24);
        for _ in 0..2000 {
            let b = rng.gen_range(m..n);
            let want = rng.gen_range(1u32..=9);
            if cg.is_block_free(b) {
                cg.alloc_block_run(b, 1 + cg.free_len_after(b, want - 1));
            } else {
                // No fragment is ever allocated here, so not free is full.
                let run = (b..n.min(b + want)).take_while(|&x| !cg.is_block_free(x));
                cg.free_block_run(b, run.count() as u32);
            }
            assert!(cg.derived.fit_words.iter().all(|&w| w == 0));
        }
        assert!(cg.free_blocks() < n - m, "the churn allocated nothing");
        assert!(cg.derived_drift().is_empty());
    }

    #[test]
    fn bestfit_prefers_smallest_adequate_run() {
        let (_, mut cg) = group();
        let m = cg.meta_blocks();
        // Block m keeps a 5-frag hole, block m+1 an exact 2-frag hole.
        cg.alloc_frags(m, 0, 3);
        cg.alloc_frags(m + 1, 0, 6);
        // First fit from m takes the big hole in m...
        let ff = cg.find_frag_run(m, 2).expect("first fit");
        assert_eq!((ff.block, ff.frag), (m, 3));
        // ...best fit takes the exact 2-run in m+1 instead.
        let bf = cg.find_frag_run_bestfit(m, 2).expect("best fit");
        assert_eq!((bf.block, bf.frag, bf.len), (m + 1, 6, 2));
        // With the exact run consumed, the 5-run is the smallest left.
        cg.alloc_frags(m + 1, 6, 2);
        let bf = cg.find_frag_run_bestfit(m, 2).expect("best fit");
        assert_eq!((bf.block, bf.frag), (m, 3));
        // No partial block has any run: None, caller splits a block.
        cg.alloc_frags(m, 3, 5);
        assert!(cg.find_frag_run_bestfit(m, 2).is_none());
    }

    #[test]
    fn promotion_coalesces_exactly_once() {
        let (_, mut cg) = group();
        let m = cg.meta_blocks();
        let blocks = cg.free_blocks();
        cg.alloc_frags(m, 0, 2);
        cg.alloc_frags(m, 2, 6);
        assert_eq!(cg.free_blocks(), blocks - 1);
        cg.free_frag_run(m, 0, 2);
        // Still partially allocated: no promotion yet.
        assert_eq!(cg.free_blocks(), blocks - 1);
        assert!(!cg.free_bit(m));
        cg.free_frag_run(m, 2, 6);
        // Last fragment freed: promoted exactly once.
        assert_eq!(cg.free_blocks(), blocks);
        assert!(cg.free_bit(m));
        assert!(cg.derived_drift().is_empty());
    }

    #[test]
    fn promotion_at_word_boundary_merges_cluster_runs() {
        let (_, mut cg) = group();
        assert!(cg.meta_blocks() <= 63 && cg.nblocks() > 65);
        // Blocks 63 and 64 straddle the free_words word boundary: 63 is
        // the top bit of word 0, 64 the bottom bit of word 1.
        for b in [63u32, 64] {
            cg.alloc_frags(b, 0, 4);
            cg.alloc_frags(b, 4, 4);
        }
        let blocks = cg.free_blocks();
        assert!(!cg.free_bit(63) && !cg.free_bit(64));
        cg.free_frag_run(63, 0, 4);
        cg.free_frag_run(63, 4, 4);
        assert!(cg.free_bit(63));
        assert_eq!(cg.free_blocks(), blocks + 1);
        cg.free_frag_run(64, 4, 4);
        cg.free_frag_run(64, 0, 4);
        assert!(cg.free_bit(64));
        assert_eq!(cg.free_blocks(), blocks + 2);
        // The cluster summary re-merged the run across the boundary.
        assert!(cg.is_cluster_free(63, 2));
        assert!(cg.derived_drift().is_empty());
    }

    #[test]
    fn daddr_conversion_round_trips() {
        let (p, cg) = group();
        let d = cg.block_daddr(10);
        assert_eq!(p.dtog(d), CgIdx(1));
        assert_eq!(cg.daddr_to_block(d), (10, 0));
        assert_eq!(cg.daddr_to_block(Daddr(d.0 + 3)), (10, 3));
    }
}
