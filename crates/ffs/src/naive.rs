//! Reference byte-at-a-time free-space scans.
//!
//! These are the original `CylGroup` search loops, kept verbatim (modulo
//! taking the group by reference) after the word-level rewrite in
//! [`crate::cg`]. They exist for one purpose: to be slow and obviously
//! correct. The differential oracle in `tests/scan_oracle.rs` drives both
//! implementations over randomized bitmaps and asserts identical results,
//! and [`recount_derived`] is the from-scratch ground truth every
//! incrementally maintained index is checked and rebuilt against.
//!
//! Guard clauses (`len == 0`, empty groups, saturating window arithmetic)
//! mirror the word-level versions exactly so the oracle covers the edge
//! cases too.
//!
//! The same goes for fsck: [`check_reference`] and [`claimed_reference`]
//! are the retired one-`BTreeMap`-node-per-fragment walks that
//! `crate::claims` replaced, held equal to [`crate::check()`] and
//! [`crate::repair()`] by `tests/check_oracle.rs`.
//!
//! And for the write path: [`create_per_block`] is file creation as it
//! was before [`crate::alloc`] took blocks by the extent — one
//! allocation, one map transition and three `FsParams::dtog` per data
//! block — held equal to [`Filesystem::create`] by
//! `tests/extent_oracle.rs`.

use std::collections::{BTreeMap, BTreeSet};
use std::marker::PhantomData;

use ffs_types::{CgIdx, Daddr, DirId, FsResult, Ino};

use crate::alloc::{pick_new_data_cg_in, realloc_windows, AllocEngine, AllocPolicy};
use crate::cg::{CylGroup, Derived};
use crate::check::Violation;
use crate::fs::Filesystem;
use crate::inode::FileMeta;
use crate::table::SlabKey;

/// Reference [`CylGroup::find_free_block`]: first free block at or after
/// `from`, wrapping once, byte scan.
pub fn find_free_block(cg: &CylGroup, from: u32) -> Option<u32> {
    if cg.nblocks() == 0 {
        return None;
    }
    let start = if from >= cg.nblocks() {
        cg.meta_blocks()
    } else {
        from
    };
    (start..cg.nblocks())
        .chain(0..start)
        .find(|&b| cg.map_byte(b) == 0)
}

/// Reference [`CylGroup::find_free_cluster`]: first-fit run of `len` free
/// blocks at or after `from`, wrapping once.
pub fn find_free_cluster(cg: &CylGroup, from: u32, len: u32) -> Option<u32> {
    if len == 0 || cg.nblocks() == 0 {
        return None;
    }
    let start = if from >= cg.nblocks() {
        cg.meta_blocks()
    } else {
        from
    };
    scan_cluster(cg, start, cg.nblocks(), len)
        .or_else(|| scan_cluster(cg, 0, start + len.min(cg.nblocks()) - 1, len))
}

/// Reference [`CylGroup::find_free_cluster_bestfit`]: smallest run of at
/// least `len` free blocks, ties toward lower addresses, exact fit wins
/// immediately.
pub fn find_free_cluster_bestfit(cg: &CylGroup, len: u32) -> Option<u32> {
    if len == 0 || cg.nblocks() == 0 {
        return None;
    }
    let mut best: Option<(u32, u32)> = None; // (len, start)
    let mut run = 0u32;
    for b in 0..=cg.nblocks() {
        let free = b < cg.nblocks() && cg.map_byte(b) == 0;
        if free {
            run += 1;
        } else {
            if run >= len {
                let start = b - run;
                match best {
                    Some((blen, _)) if blen <= run => {}
                    _ => best = Some((run, start)),
                }
                if run == len {
                    // Exact fit cannot be beaten.
                    return Some(start);
                }
            }
            run = 0;
        }
    }
    best.map(|(_, start)| start)
}

/// Reference [`CylGroup::find_free_cluster_near`]: best fit among runs
/// starting within `window` blocks of `from`, first fit beyond it,
/// wrapping once.
pub fn find_free_cluster_near(cg: &CylGroup, from: u32, len: u32, window: u32) -> Option<u32> {
    if len == 0 || cg.nblocks() == 0 {
        return None;
    }
    let start = if from >= cg.nblocks() {
        cg.meta_blocks()
    } else {
        from
    };
    let lim = start.saturating_add(window).min(cg.nblocks());
    let mut best: Option<(u32, u32)> = None; // (len, start)
    let mut run = 0u32;
    for b in start..=cg.nblocks() {
        let free = b < cg.nblocks() && cg.map_byte(b) == 0;
        if free {
            run += 1;
        } else {
            if run >= len {
                let rstart = b - run;
                if rstart < lim {
                    match best {
                        Some((blen, _)) if blen <= run => {}
                        _ => best = Some((run, rstart)),
                    }
                    if run == len {
                        return Some(rstart);
                    }
                } else {
                    // Beyond the window: first fit wins unless the window
                    // already offered something.
                    return Some(best.map_or(rstart, |(_, s)| s));
                }
            }
            run = 0;
        }
    }
    if let Some((_, s)) = best {
        return Some(s);
    }
    // Wrap: first fit in the prefix (runs crossing `start` included via
    // the overlap margin).
    scan_cluster(cg, 0, start + len.min(cg.nblocks()) - 1, len)
}

/// Reference inner scan: first-fit run of `len` free blocks in `[lo, hi)`,
/// clipped at both ends, byte-at-a-time.
pub fn scan_cluster(cg: &CylGroup, lo: u32, hi: u32, len: u32) -> Option<u32> {
    let hi = hi.min(cg.nblocks());
    let mut run = 0u32;
    for b in lo..hi {
        if cg.map_byte(b) == 0 {
            run += 1;
            if run >= len {
                return Some(b + 1 - len);
            }
        } else {
            run = 0;
        }
    }
    None
}

/// Reference [`CylGroup::free_len_before`]: capped length of the free
/// run immediately below `block`, one bit at a time.
pub fn free_len_before(cg: &CylGroup, block: u32, cap: u32) -> u32 {
    let mut n = 0;
    let mut i = block;
    while i > 0 && n < cap {
        i -= 1;
        if !cg.free_bit(i) {
            break;
        }
        n += 1;
    }
    n
}

/// Reference [`CylGroup::free_len_after`]: capped length of the free run
/// immediately above `block`, one bit at a time.
pub fn free_len_after(cg: &CylGroup, block: u32, cap: u32) -> u32 {
    let mut n = 0;
    let mut i = block + 1;
    while i < cg.nblocks() && n < cap {
        if !cg.free_bit(i) {
            break;
        }
        n += 1;
        i += 1;
    }
    n
}

/// Reference keyed file table: a `BTreeMap` keyed by slab index behind
/// the same externally-assigned-key API as [`crate::table::Slab`].
///
/// This is the layout the slab replaced, kept as the slow, obviously
/// correct model. The differential oracle in `tests/table_oracle.rs`
/// drives both through identical randomized op sequences and asserts
/// identical canonical state, and the `micro_replay` bench measures the
/// hot-path gap between the two.
#[derive(Clone, Debug, Default)]
pub struct RefTable<K: SlabKey, V> {
    map: BTreeMap<usize, V>,
    _key: PhantomData<fn() -> K>,
}

impl<K: SlabKey, V> RefTable<K, V> {
    /// Creates an empty table.
    pub fn new() -> Self {
        RefTable {
            map: BTreeMap::new(),
            _key: PhantomData,
        }
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True when no entries are live.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// True when `key` holds a live entry.
    pub fn contains_key(&self, key: &K) -> bool {
        self.map.contains_key(&key.slab_index())
    }

    /// The value stored under `key`, if live.
    pub fn get(&self, key: &K) -> Option<&V> {
        self.map.get(&key.slab_index())
    }

    /// Mutable access to the value stored under `key`, if live.
    pub fn get_mut(&mut self, key: &K) -> Option<&mut V> {
        self.map.get_mut(&key.slab_index())
    }

    /// Stores `value` under the externally assigned `key`, returning the
    /// previous value if the key was live.
    pub fn insert(&mut self, key: K, value: V) -> Option<V> {
        self.map.insert(key.slab_index(), value)
    }

    /// Removes and returns the value under `key`, if live.
    pub fn remove(&mut self, key: &K) -> Option<V> {
        self.map.remove(&key.slab_index())
    }

    /// Live keys in ascending order — the canonical iteration order
    /// shared with the slab.
    pub fn keys(&self) -> impl Iterator<Item = K> + '_ {
        self.map.keys().map(|&i| K::from_slab_index(i))
    }

    /// Live values in ascending key order.
    pub fn values(&self) -> impl Iterator<Item = &V> {
        self.map.values()
    }

    /// Mutable live values in ascending key order.
    pub fn values_mut(&mut self) -> impl Iterator<Item = &mut V> {
        self.map.values_mut()
    }
}

/// The one from-scratch builder of a group's [`Derived`] state, straight
/// off the fragment map one block lane at a time: the free-block bitmap
/// (bit set where the lane is zero), the cluster summary (bucket `k`
/// counts maximal free runs of capped length `k + 1`, runs of `maxcontig`
/// blocks or more pooled in the last bucket), the fragment summary
/// (bucket `k` counts maximal free fragment runs of exactly `k + 1`
/// fragments inside partially allocated blocks — `cg_frsum` semantics)
/// and the partial-block fit index
/// (a partial block whose longest free run is `r` fragments has its bit
/// in levels `1..=r`). The incrementally maintained value in `CylGroup`
/// must equal this after every operation.
pub fn recount_derived(cg: &CylGroup) -> Derived {
    let fpb = cg.frags_per_block();
    let full = cg.full_lane();
    let cap = cg.maxcontig() as usize;
    let nwords = cg.nblocks().div_ceil(64) as usize;
    let mut d = Derived {
        free_words: vec![0u64; nwords],
        csum: vec![0u32; cap],
        frsum: vec![0u32; (fpb - 1) as usize],
        fit_words: vec![0u64; (fpb - 1) as usize * nwords],
    };
    let mut run = 0usize;
    // One step past the end, read as allocated, closes a trailing run.
    for b in 0..=cg.nblocks() {
        let byte = if b < cg.nblocks() {
            cg.map_byte(b)
        } else {
            full
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
        if byte == full {
            continue;
        }
        let mut frun = 0u32;
        let mut longest = 0u32;
        for i in 0..=fpb {
            if i < fpb && byte & (1 << i) == 0 {
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

/// Reference [`crate::freespace::free_space_stats`]: counts every
/// group's maximal free runs off the fragment map one block lane at a
/// time — never through the derived free-block bitmap the production
/// walk reads, so a torn bitmap cannot hide from the differential oracle
/// in `tests/stats_oracle.rs`.
pub fn free_space_stats_rescan(
    fs: &crate::fs::Filesystem,
    hist_max: usize,
) -> crate::freespace::FreeSpaceStats {
    let maxcontig = fs.params().maxcontig;
    let mut stats = crate::freespace::FreeSpaceStats {
        hist: vec![0u32; hist_max],
        free_blocks: 0,
        clusterable_blocks: 0,
        longest_run: 0,
    };
    for g in 0..fs.ncg() {
        let cg = fs.cg(ffs_types::CgIdx(g));
        let mut run = 0u32;
        for b in 0..=cg.nblocks() {
            if b < cg.nblocks() && cg.map_byte(b) == 0 {
                run += 1;
                continue;
            }
            if run > 0 {
                if hist_max > 0 {
                    stats.hist[(run as usize - 1).min(hist_max - 1)] += 1;
                }
                stats.free_blocks += run as u64;
                if run >= maxcontig {
                    stats.clusterable_blocks += run as u64;
                }
                stats.longest_run = stats.longest_run.max(run);
                run = 0;
            }
        }
    }
    stats
}

/// Reference [`CylGroup::find_frag_run`]: first fragment run of at least
/// `len` free fragments at or after block `from`, wrapping once, checked
/// one fragment bit at a time via the lane accessor.
pub fn find_frag_run(cg: &CylGroup, from: u32, len: u32) -> Option<(u32, u32)> {
    let start = if from >= cg.nblocks() {
        cg.meta_blocks()
    } else {
        from
    };
    let fpb = cg.frags_per_block();
    let check = |b: u32| -> Option<(u32, u32)> {
        if b < cg.meta_blocks() {
            return None;
        }
        let byte = cg.map_byte(b);
        let mut run = 0u32;
        for i in 0..fpb {
            if byte & (1 << i) == 0 {
                run += 1;
                if run >= len {
                    return Some((b, i + 1 - len));
                }
            } else {
                run = 0;
            }
        }
        None
    };
    (start..cg.nblocks()).chain(0..start).find_map(check)
}

/// Reference [`CylGroup::find_frag_run_bestfit`]: recounts the fragment
/// summary from scratch, picks the smallest adequate run size, then
/// scans partially allocated blocks for the first maximal free run of
/// exactly that size.
pub fn find_frag_run_bestfit(cg: &CylGroup, from: u32, len: u32) -> Option<(u32, u32)> {
    let fpb = cg.frags_per_block();
    let full = ((1u16 << fpb) - 1) as u8;
    let frsum = recount_derived(cg).frsum;
    let k = (len..fpb).find(|&k| frsum[(k - 1) as usize] > 0)?;
    let start = if from >= cg.nblocks() {
        cg.meta_blocks()
    } else {
        from
    };
    let check = |b: u32| -> Option<(u32, u32)> {
        let byte = cg.map_byte(b);
        if byte == 0 || byte == full {
            return None;
        }
        // Maximal zero runs only: a run bounded by set bits or lane edges.
        let mut run = 0u32;
        for i in 0..=fpb {
            if i < fpb && byte & (1 << i) == 0 {
                run += 1;
            } else {
                if run == k {
                    return Some((b, i - k));
                }
                run = 0;
            }
        }
        None
    };
    (start..cg.nblocks()).chain(0..start).find_map(check)
}

/// Reference [`crate::check::check`]: the retired walk that records the
/// inodes' claims as a `BTreeMap` with one node per fragment and probes
/// it once per fragment of the volume. Everything past the claim
/// bookkeeping is the production body verbatim.
///
/// A B-tree files any address, so two findings of the claim map are out
/// of its reach: it never reports [`Violation::OutsideVolume`], and a
/// claim on a group's static metadata area is not a
/// [`Violation::DoubleAlloc`] to it. On every other image the two return
/// the same violations in the same order.
pub fn check_reference(fs: &Filesystem) -> Vec<Violation> {
    let mut errs = Vec::new();
    let params = fs.params();
    let fpb = params.frags_per_block();
    // Expected allocation map: fragment address -> usage count.
    let mut expected: BTreeMap<u32, u32> = BTreeMap::new();
    let mut mark = |errs: &mut Vec<Violation>, what: &'static str, d: Daddr, frags: u32| {
        for i in 0..frags {
            let e = expected.entry(d.0 + i).or_insert(0);
            *e += 1;
            if *e > 1 {
                errs.push(Violation::DoubleAlloc {
                    addr: Daddr(d.0 + i),
                    what,
                });
            }
        }
    };
    let mut data_frags = 0u64;
    let mut meta_frags = 0u64;
    for f in fs.files() {
        for &b in &f.blocks {
            mark(&mut errs, "data block", b, fpb);
            if b.0 % fpb != 0 {
                errs.push(Violation::MisalignedBlock {
                    block: b,
                    ino: f.ino,
                });
            }
        }
        for &b in &f.indirects {
            mark(&mut errs, "indirect block", b, fpb);
        }
        if let Some((d, n)) = f.tail {
            mark(&mut errs, "tail", d, n);
            if n == 0 || n >= fpb {
                errs.push(Violation::BadTailLength { ino: f.ino, len: n });
            }
        }
        data_frags += f.data_frags(params);
        meta_frags += f.indirects.len() as u64 * fpb as u64;
        // The inode slot must be allocated in its group.
        let (cg, slot) = params.ino_to_cg(f.ino);
        if !fs.cg(cg).inode_used(slot) {
            errs.push(Violation::FileInodeSlotFree(f.ino));
        }
        // Tail fragments must not cross a block boundary.
        if let Some((d, n)) = f.tail {
            if d.0 % fpb + n > fpb {
                errs.push(Violation::TailCrossesBlock { ino: f.ino });
            }
        }
    }
    for d in fs.dirs() {
        mark(&mut errs, "directory block", d.block, fpb);
        meta_frags += fpb as u64;
        if !fs.cg(d.cg).inode_used(d.ino_slot) {
            errs.push(Violation::DirInodeSlotFree(d.id));
        }
    }
    // Compare the maps group by group.
    for g in 0..fs.ncg() {
        let cg = fs.cg(CgIdx(g));
        let base = params.cg_base(CgIdx(g)).0;
        let mut free_frags = 0u32;
        let mut free_blocks = 0u32;
        for b in 0..cg.nblocks() {
            let mut byte = 0u8;
            for i in 0..fpb {
                let addr = base + b * fpb + i;
                if expected.contains_key(&addr) {
                    byte |= 1 << i;
                }
            }
            if b < cg.meta_blocks() {
                byte = cg.full_lane(); // Static metadata area.
            }
            if cg.map_byte(b) != byte {
                errs.push(Violation::MapMismatch {
                    cg: g,
                    block: b,
                    actual: cg.map_byte(b),
                    expected: byte,
                });
            }
            if byte == 0 {
                free_blocks += 1;
            }
            free_frags += fpb - byte.count_ones();
        }
        if cg.free_frags() != free_frags {
            errs.push(Violation::FreeFragsDrift {
                cg: g,
                counter: cg.free_frags(),
                map: free_frags,
            });
        }
        if cg.free_blocks() != free_blocks {
            errs.push(Violation::FreeBlocksDrift {
                cg: g,
                counter: cg.free_blocks(),
                map: free_blocks,
            });
        }
        for (index, detail) in cg.derived_drift() {
            errs.push(Violation::DerivedDrift {
                cg: g,
                index,
                detail,
            });
        }
    }
    // Aggregate counters.
    if fs.used_data_bytes() != data_frags * params.fsize as u64 {
        errs.push(Violation::UsedDataDrift {
            counter: fs.used_data_bytes(),
            recomputed: data_frags * params.fsize as u64,
        });
    }
    if fs.used_meta_frags != meta_frags {
        errs.push(Violation::UsedMetaDrift {
            counter: fs.used_meta_frags,
            recomputed: meta_frags,
        });
    }
    let inc = fs.aggregate_layout();
    let full = crate::layout::recompute_aggregate(fs);
    if inc != full {
        errs.push(Violation::LayoutAggDrift {
            incremental: inc,
            recomputed: full,
        });
    }
    if let Some(detail) = fs.files.index_violation() {
        errs.push(Violation::SlabIndexDrift {
            table: "files",
            detail,
        });
    }
    if let Some(detail) = fs.dirs.index_violation() {
        errs.push(Violation::SlabIndexDrift {
            table: "dirs",
            detail,
        });
    }
    errs
}

/// Reference for [`crate::repair::repair`]'s pass 1 and orphan count:
/// the retired walk that collects the surviving claims as a
/// `BTreeSet<u32>` of fragment addresses. Directories claim first, then
/// files in inode order, skipping those already in `condemned`; a file
/// with any fragment already claimed joins `condemned` and claims
/// nothing. Returns the claimed set and the number of allocated map bits
/// outside the metadata area that nothing in it claims.
pub fn claimed_reference(fs: &Filesystem, condemned: &mut BTreeSet<Ino>) -> (BTreeSet<u32>, u64) {
    let fpb = fs.params().frags_per_block();
    let mut claimed: BTreeSet<u32> = BTreeSet::new();
    for d in fs.dirs() {
        for i in 0..fpb {
            claimed.insert(d.block.0 + i);
        }
    }
    for f in fs.files() {
        if condemned.contains(&f.ino) {
            continue;
        }
        let mut frags: Vec<u32> = Vec::new();
        for &b in f.blocks.iter().chain(f.indirects.iter()) {
            frags.extend((0..fpb).map(|i| b.0 + i));
        }
        if let Some((d, n)) = f.tail {
            frags.extend((0..n).map(|i| d.0 + i));
        }
        if frags.iter().any(|a| claimed.contains(a)) {
            condemned.insert(f.ino);
        } else {
            claimed.extend(frags);
        }
    }
    let mut orphans = 0u64;
    for g in 0..fs.ncg() {
        let cg = fs.cg(CgIdx(g));
        let base = fs.params().cg_base(CgIdx(g)).0;
        for b in cg.meta_blocks()..cg.nblocks() {
            let byte = cg.map_byte(b);
            for i in 0..fpb {
                if byte & (1 << i) != 0 && !claimed.contains(&(base + b * fpb + i)) {
                    orphans += 1;
                }
            }
        }
    }
    (claimed, orphans)
}

/// Reference [`Filesystem::create`]: the same bookkeeping around the
/// retired per-block write path.
pub fn create_per_block(fs: &mut Filesystem, dir: DirId, size: u64, day: u32) -> FsResult<Ino> {
    fs.create_with(dir, size, day, write_blocks_per_block)
}

/// The write path before extents, verbatim (modulo taking the engine by
/// reference): every data block is one [`AllocEngine::alloc_block`] with
/// the address after its predecessor as the preference, the group of
/// every address comes from [`ffs_types::FsParams::dtog`], and the realloc
/// windows, switch points and region preferences are collected up front.
fn write_blocks_per_block(
    eng: &mut AllocEngine<'_>,
    meta: &mut FileMeta,
    dcg: CgIdx,
    size: u64,
) -> FsResult<()> {
    let bsize = eng.params.bsize as u64;
    let fpb = eng.params.frags_per_block();
    let ndaddr = ffs_types::params::NDADDR;
    let mut nfull = (size / bsize) as u32;
    let rem = size % bsize;
    let mut tail_frags = 0u32;
    if rem > 0 {
        if nfull < ndaddr {
            tail_frags = (rem as u32).div_ceil(eng.params.fsize);
            if tail_frags == fpb {
                tail_frags = 0;
                nfull += 1;
            }
        } else {
            nfull += 1;
        }
    }
    // The realloc pass only engages once a file fills its second
    // block (the paper's two-block-file quirk, Section 4).
    let realloc_on = eng.cfg.policy == AllocPolicy::Realloc && size >= 2 * bsize;
    let windows = if realloc_on {
        realloc_windows(nfull, eng.params.maxcontig, eng.params.nindir()).collect()
    } else {
        Vec::new()
    };
    let mut next_window = 0usize;
    let switch_lbns = eng.params.cg_switch_lbns(nfull);
    let mut switch_iter = switch_lbns.iter().peekable();
    // Region-start windows prefer the address after their indirect
    // block; remember it per region start.
    let mut region_pref: BTreeMap<u32, Daddr> = BTreeMap::new();
    let mut cur_cg = dcg;
    let mut prev: Option<Daddr> = None;
    for lbn in 0..nfull {
        if switch_iter.peek().map(|l| l.0) == Some(lbn) {
            switch_iter.next();
            cur_cg = pick_new_data_cg_in(eng.cgs, cur_cg);
            // The double-indirect root is allocated together with the
            // first level-one indirect under it.
            let n_meta = if lbn == ndaddr + eng.params.nindir() {
                2
            } else {
                1
            };
            for _ in 0..n_meta {
                let ind = eng.alloc_block(cur_cg, None)?;
                meta.indirects.push(ind);
                prev = Some(ind);
                cur_cg = eng.params.dtog(ind);
            }
            region_pref.insert(lbn, prev.expect("indirect just set"));
        }
        let pref = prev.map(|d| Daddr(d.0 + fpb));
        let addr = eng.alloc_block(cur_cg, pref)?;
        cur_cg = eng.params.dtog(addr);
        prev = Some(addr);
        meta.blocks.push(addr);
        // Flush boundary: end of an application write or end of file.
        let done = lbn + 1;
        let flush = done % eng.cfg.write_chunk_blocks == 0 || done == nfull;
        if realloc_on && flush {
            let _sp = obs::span!("realloc_pass");
            while next_window < windows.len() && windows[next_window].1 <= done {
                let w = windows[next_window];
                let wpref = window_pref(meta, w.0, &region_pref, fpb);
                eng.realloc_window(meta, w, wpref);
                next_window += 1;
            }
            // Chain the base-allocation preference from the (possibly
            // moved) last block.
            prev = meta.blocks.last().copied();
        }
    }
    if tail_frags > 0 {
        let pref = prev.map(|d| Daddr(d.0 + fpb));
        let hint = prev.map(|d| eng.params.dtog(d)).unwrap_or(dcg);
        let t = eng.alloc_frag_run(hint, tail_frags, pref)?;
        meta.tail = Some((t, tail_frags));
    }
    Ok(())
}

/// The cluster-search start for a realloc window: the address after the
/// previous block's *current* location, or after the region's indirect
/// block for region-start windows.
fn window_pref(
    meta: &FileMeta,
    wstart: u32,
    region_pref: &BTreeMap<u32, Daddr>,
    fpb: u32,
) -> Option<Daddr> {
    if let Some(&d) = region_pref.get(&wstart) {
        return Some(Daddr(d.0 + fpb));
    }
    if wstart == 0 {
        return None;
    }
    meta.blocks
        .as_slice()
        .get(wstart as usize - 1)
        .map(|d| Daddr(d.0 + fpb))
}
