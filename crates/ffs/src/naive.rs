//! Retired bodies kept as test oracles where no independent reference
//! can stand in for them.
//!
//! [`RefTable`] is the `BTreeMap` file table the slab replaced, held
//! equal to [`crate::table::Slab`] by `tests/table_oracle.rs`.
//! [`check_reference`] and [`claimed_reference`] are the retired
//! one-`BTreeMap`-node-per-fragment fsck walks that `crate::claims`
//! replaced, held equal to [`crate::check()`] and [`crate::repair()`] by
//! `tests/check_oracle.rs`.
//!
//! The allocator's searches, summaries and create path are held to an
//! independent 4.4BSD reference instead, one that reads each cylinder
//! group as `struct cg` bytes (`tests/bsd/mod.rs`, driven by
//! `tests/bsd_oracle.rs` and the `scan`, `frag`, `stats` and `extent`
//! oracles).

use std::collections::{BTreeMap, BTreeSet};
use std::marker::PhantomData;

use ffs_types::{CgIdx, Daddr, Ino};

use crate::check::Violation;
use crate::fs::Filesystem;
use crate::geom::DIR_FRAGS;
use crate::table::SlabKey;

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
        for &b in f.indirects() {
            mark(&mut errs, "indirect block", b, fpb);
        }
        if let Some((d, n)) = f.tail {
            mark(&mut errs, "tail", d, n);
            if n == 0 || n >= fpb {
                errs.push(Violation::BadTailLength { ino: f.ino, len: n });
            }
        }
        data_frags += f.data_frags(params);
        meta_frags += f.indirects().len() as u64 * fpb as u64;
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
        mark(&mut errs, "directory", d.block, DIR_FRAGS);
        meta_frags += u64::from(DIR_FRAGS);
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
        claimed.extend((0..DIR_FRAGS).map(|i| d.block.0 + i));
    }
    for f in fs.files() {
        if condemned.contains(&f.ino) {
            continue;
        }
        let mut frags: Vec<u32> = Vec::new();
        for &b in f.blocks.iter().chain(f.indirects()) {
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
