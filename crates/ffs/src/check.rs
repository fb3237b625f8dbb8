//! An fsck-style consistency checker for the simulator.
//!
//! Rebuilds the allocation maps from the live files and compares them —
//! plus every derived counter — against the file system's incremental
//! state. Used by integration tests and (periodically) by long aging runs
//! to guarantee the two policies are compared on a sound substrate.
//!
//! Each inconsistency is reported as a typed [`Violation`] so callers can
//! react structurally: [`crate::repair()`] dispatches on the variants, the
//! harness counts them by kind, and tests assert on exactly the defect
//! they planted rather than on message substrings.

use ffs_types::{CgIdx, Daddr, DirId, FsError, FsResult, Ino};

use crate::cg::free_counts;
use crate::claims::ClaimMap;
use crate::fs::{Filesystem, LayoutAgg};
use crate::layout::recompute_aggregate;

/// One consistency violation found by [`check`].
///
/// The variants split into two families, which is what
/// [`crate::repair::repair`] keys on: *structural* damage to a file's
/// claim on the disk (double allocation, misalignment, bad tails,
/// pointers outside the volume), which fsck resolves by removing the
/// offending file, and *derived-state* drift (maps, bitmaps, counters,
/// aggregates), which is rebuilt from the files without losing anything.
#[derive(Clone, Debug, PartialEq)]
pub enum Violation {
    /// A fragment is claimed by more than one owner.
    DoubleAlloc {
        /// The doubly claimed fragment.
        addr: Daddr,
        /// What kind of owner made the second claim.
        what: &'static str,
    },
    /// A full data or indirect block sits at a non-block-aligned address.
    MisalignedBlock {
        /// The misaligned address.
        block: Daddr,
        /// File owning the block.
        ino: Ino,
    },
    /// A tail run's length is outside `1..frags_per_block`.
    BadTailLength {
        /// File owning the tail.
        ino: Ino,
        /// The offending length in fragments.
        len: u32,
    },
    /// A tail run crosses a block boundary.
    TailCrossesBlock {
        /// File owning the tail.
        ino: Ino,
    },
    /// A file's block, indirect block or tail lies (partly) outside the
    /// volume.
    OutsideVolume {
        /// File owning the pointer.
        ino: Ino,
        /// First fragment address of the offending run.
        addr: Daddr,
    },
    /// A live file's inode slot is not marked allocated in its group.
    FileInodeSlotFree(
        /// The file whose slot is wrongly free.
        Ino,
    ),
    /// A live directory's inode slot is not marked allocated in its group.
    DirInodeSlotFree(
        /// The directory whose slot is wrongly free.
        DirId,
    ),
    /// A group's fragment map disagrees with the map rebuilt from the
    /// live files.
    MapMismatch {
        /// Cylinder group index.
        cg: u32,
        /// Block index within the group.
        block: u32,
        /// The map byte as stored.
        actual: u8,
        /// The map byte rebuilt from the files.
        expected: u8,
    },
    /// A group's free-fragment counter disagrees with its map.
    FreeFragsDrift {
        /// Cylinder group index.
        cg: u32,
        /// The counter as stored.
        counter: u32,
        /// The value recomputed from the map.
        map: u32,
    },
    /// A group's free-block counter disagrees with its map.
    FreeBlocksDrift {
        /// Cylinder group index.
        cg: u32,
        /// The counter as stored.
        counter: u32,
        /// The value recomputed from the map.
        map: u32,
    },
    /// One of a group's derived tables ([`crate::cg::Derived`]) disagrees
    /// with a recount from its fragment map. The map is ground truth, so
    /// this is rebuildable without loss.
    DerivedDrift {
        /// Cylinder group index.
        cg: u32,
        /// Name of the table that drifted.
        index: &'static str,
        /// The first slot where stored and recounted values differ.
        detail: String,
    },
    /// The file system's used-data byte counter disagrees with the files.
    UsedDataDrift {
        /// The counter as stored, in bytes.
        counter: u64,
        /// The value recomputed from the files, in bytes.
        recomputed: u64,
    },
    /// The file system's dynamic-metadata fragment counter (indirect and
    /// directory blocks; half of `utilization()`) disagrees with the
    /// files and directories.
    UsedMetaDrift {
        /// The counter as stored, in fragments.
        counter: u64,
        /// The value recomputed from the inode table, in fragments.
        recomputed: u64,
    },
    /// The incremental layout aggregate disagrees with a recomputation.
    LayoutAggDrift {
        /// The aggregate as maintained incrementally.
        incremental: LayoutAgg,
        /// The aggregate recomputed from the files.
        recomputed: LayoutAgg,
    },
    /// A slab table's derived index (the key → slot entries or the
    /// occupancy bitmap) disagrees with the keys recorded beside its
    /// packed values. Those are ground truth, so this is rebuildable
    /// without loss.
    SlabIndexDrift {
        /// Which table drifted: `"files"` or `"dirs"`.
        table: &'static str,
        /// The first inconsistency the index walk found.
        detail: String,
    },
}

impl Violation {
    /// True for damage to a file's claim on the disk, which repair can
    /// only resolve by removing the file; false for derived state that
    /// can be rebuilt losslessly.
    pub fn is_structural(&self) -> bool {
        matches!(
            self,
            Violation::DoubleAlloc { .. }
                | Violation::MisalignedBlock { .. }
                | Violation::BadTailLength { .. }
                | Violation::TailCrossesBlock { .. }
                | Violation::OutsideVolume { .. }
        )
    }

    /// The file a structural violation names — the one
    /// [`crate::repair::repair`] removes for it. `None` for derived-state
    /// drift and for [`Violation::DoubleAlloc`], whose losing claimant
    /// repair's own pass 1 determines.
    pub fn condemned_ino(&self) -> Option<Ino> {
        match *self {
            Violation::MisalignedBlock { ino, .. }
            | Violation::BadTailLength { ino, .. }
            | Violation::TailCrossesBlock { ino }
            | Violation::OutsideVolume { ino, .. } => Some(ino),
            _ => None,
        }
    }
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Violation::DoubleAlloc { addr, what } => {
                write!(f, "double allocation at {addr:?} ({what})")
            }
            Violation::MisalignedBlock { block, ino } => {
                write!(f, "misaligned block {block:?} in {ino:?}")
            }
            Violation::BadTailLength { ino, len } => {
                write!(f, "bad tail length {len} in {ino:?}")
            }
            Violation::TailCrossesBlock { ino } => {
                write!(f, "tail of {ino:?} crosses a block boundary")
            }
            Violation::OutsideVolume { ino, addr } => {
                write!(f, "{ino:?} points outside the volume at {addr:?}")
            }
            Violation::FileInodeSlotFree(ino) => {
                write!(f, "{ino:?} has unallocated inode slot")
            }
            Violation::DirInodeSlotFree(dir) => {
                write!(f, "{dir:?} has unallocated inode slot")
            }
            Violation::MapMismatch {
                cg,
                block,
                actual,
                expected,
            } => write!(
                f,
                "cg {cg} block {block}: map byte {actual:08b}, expected {expected:08b}"
            ),
            Violation::FreeFragsDrift { cg, counter, map } => {
                write!(f, "cg {cg}: free_frags counter {counter} vs map {map}")
            }
            Violation::FreeBlocksDrift { cg, counter, map } => {
                write!(f, "cg {cg}: free_blocks counter {counter} vs map {map}")
            }
            Violation::DerivedDrift { cg, index, detail } => {
                write!(f, "cg {cg}: {index} vs recount: {detail}")
            }
            Violation::UsedDataDrift {
                counter,
                recomputed,
            } => write!(
                f,
                "used_data accounting: {counter} bytes vs {recomputed} recomputed"
            ),
            Violation::UsedMetaDrift {
                counter,
                recomputed,
            } => write!(
                f,
                "used_meta accounting: {counter} fragments vs {recomputed} recomputed"
            ),
            Violation::LayoutAggDrift {
                incremental,
                recomputed,
            } => write!(
                f,
                "layout aggregate drift: incremental {incremental:?} vs recomputed {recomputed:?}"
            ),
            Violation::SlabIndexDrift { table, detail } => {
                write!(f, "{table} slab index drift: {detail}")
            }
        }
    }
}

/// Runs all consistency checks, returning every violation found (empty
/// means the file system is consistent).
///
/// Pass 1 is `fsck_ffs`'s: every owner's runs are test-and-set into a
/// `ClaimMap`, files in inode order and then directories, so a claim
/// landing on a set bit is the duplicate. The finished map has the
/// groups' own layout and is compared to them a word at a time.
pub fn check(fs: &Filesystem) -> Vec<Violation> {
    let mut errs = Vec::new();
    let params = fs.params();
    let fpb = fs.geom.fpb;
    let mut claims = ClaimMap::new(fs);
    let mut mark = |errs: &mut Vec<Violation>, what: &'static str, ino: Ino, d: Daddr, n: u32| {
        if !claims.claim(d, n, |addr| {
            errs.push(Violation::DoubleAlloc { addr, what })
        }) {
            errs.push(Violation::OutsideVolume { ino, addr: d });
        }
    };
    let mut data_frags = 0u64;
    let mut meta_frags = 0u64;
    for f in fs.files() {
        for &b in &f.blocks {
            mark(&mut errs, "data block", f.ino, b, fpb);
            if b.0 % fpb != 0 {
                errs.push(Violation::MisalignedBlock {
                    block: b,
                    ino: f.ino,
                });
            }
        }
        for &b in &f.indirects {
            mark(&mut errs, "indirect block", f.ino, b, fpb);
        }
        if let Some((d, n)) = f.tail {
            mark(&mut errs, "tail", f.ino, d, n);
            if n == 0 || n >= fpb {
                errs.push(Violation::BadTailLength { ino: f.ino, len: n });
            }
        }
        data_frags += f.data_frags_at(fpb);
        meta_frags += f.indirects.len() as u64 * fpb as u64;
        // The inode slot must be allocated in its group.
        let (cg, slot) = fs.geom.itog(f.ino);
        if !fs.cg(cg).inode_used(slot) {
            errs.push(Violation::FileInodeSlotFree(f.ino));
        }
        // Tail fragments must not cross a block boundary.
        if let Some((d, n)) = f.tail {
            if (d.0 % fpb).saturating_add(n) > fpb {
                errs.push(Violation::TailCrossesBlock { ino: f.ino });
            }
        }
    }
    for d in fs.dirs() {
        // Directories are never condemned, so a directory block outside
        // the volume has no owner to name; `Filesystem::restore` rejects
        // one up front and nothing moves a directory afterwards.
        claims.claim(d.block, fpb, |addr| {
            errs.push(Violation::DoubleAlloc {
                addr,
                what: "directory block",
            })
        });
        meta_frags += fpb as u64;
        if !fs.cg(d.cg).inode_used(d.ino_slot) {
            errs.push(Violation::DirInodeSlotFree(d.id));
        }
    }
    // Compare the maps group by group: whole words first, lanes only
    // inside a word that differs.
    let lanes = 64 / fpb;
    for g in 0..fs.ncg() {
        let cg = fs.cg(CgIdx(g));
        let claimed = claims.group(g as usize);
        let words = cg.frag_words().iter().zip(claimed);
        for (w, (&actual, &expected)) in words.enumerate() {
            if actual == expected {
                continue;
            }
            for lane in 0..lanes {
                let lane_of = |word: u64| (word >> (lane * fpb)) as u8 & cg.full_lane();
                if lane_of(actual) != lane_of(expected) {
                    errs.push(Violation::MapMismatch {
                        cg: g,
                        block: w as u32 * lanes + lane,
                        actual: lane_of(actual),
                        expected: lane_of(expected),
                    });
                }
            }
        }
        let (free_frags, free_blocks) = free_counts(claimed, cg.nblocks(), fpb);
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
        // Derived state against a recount from the group's own fragment
        // map.
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
    let full = recompute_aggregate(fs);
    if inc != full {
        errs.push(Violation::LayoutAggDrift {
            incremental: inc,
            recomputed: full,
        });
    }
    // The metadata tables' own derived indices (key → slot entries,
    // occupancy bitmaps) against the keys packed beside their values.
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

/// [`check`] as a result: `Err(FsError::Corrupt)` naming the first
/// violation. What library code calls where a test would call
/// [`assert_consistent`].
pub fn verify(fs: &Filesystem) -> FsResult<()> {
    match check(fs).first() {
        None => Ok(()),
        Some(v) => Err(FsError::Corrupt(format!("file system inconsistent: {v}"))),
    }
}

/// Panics with a readable report if the file system is inconsistent.
/// Convenience wrapper for tests.
pub fn assert_consistent(fs: &Filesystem) {
    let errs = check(fs);
    assert!(
        errs.is_empty(),
        "file system inconsistent:\n  {}",
        errs.iter()
            .map(|e| e.to_string())
            .collect::<Vec<_>>()
            .join("\n  ")
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alloc::AllocPolicy;
    use ffs_types::{FsParams, KB};

    #[test]
    fn fresh_fs_is_consistent() {
        let fs = Filesystem::new(FsParams::small_test(), AllocPolicy::Orig);
        assert_consistent(&fs);
    }

    #[test]
    fn consistent_after_mixed_workload() {
        for policy in [AllocPolicy::Orig, AllocPolicy::Realloc] {
            let mut fs = Filesystem::new(FsParams::small_test(), policy);
            let dirs = fs.mkdir_per_cg().unwrap();
            let mut live = Vec::new();
            for i in 0u64..200 {
                let d = dirs[(i % 4) as usize];
                let size = 1 + (i * 7919) % (90 * KB);
                live.push(fs.create(d, size, i as u32).unwrap());
                if i % 2 == 0 {
                    let victim = live.swap_remove((i as usize * 13) % live.len());
                    fs.remove(victim).unwrap();
                }
            }
            assert_consistent(&fs);
            for ino in live {
                fs.remove(ino).unwrap();
            }
            assert_consistent(&fs);
            assert_eq!(fs.nfiles(), 0);
        }
    }

    #[test]
    fn checker_reports_empty_for_full_fs() {
        let mut fs = Filesystem::new(FsParams::small_test(), AllocPolicy::Realloc);
        let d = fs.mkdir().unwrap();
        // Fill most of the disk.
        let cap = fs.params().data_capacity_bytes();
        let mut made = 0u64;
        while made < cap * 7 / 10 {
            match fs.create(d, 64 * KB, 0) {
                Ok(_) => made += 64 * KB,
                Err(_) => break,
            }
        }
        assert_consistent(&fs);
    }

    #[test]
    fn violations_are_typed_and_printable() {
        let mut fs = Filesystem::new(FsParams::small_test(), AllocPolicy::Orig);
        let d = fs.mkdir().unwrap();
        let ino = fs.create(d, 20 * KB, 0).unwrap();
        // Plant a double claim: a second file pointing at the first
        // file's blocks.
        let twin = fs.create(d, KB, 0).unwrap();
        let stolen = fs.files.get(&ino).unwrap().blocks.clone();
        fs.files.get_mut(&twin).unwrap().blocks = stolen;
        let errs = check(&fs);
        assert!(errs.iter().any(|v| matches!(
            v,
            Violation::DoubleAlloc {
                what: "data block",
                ..
            }
        )));
        assert!(errs.iter().all(|v| !v.to_string().is_empty()));
        // Structural classification: the double claim is structural,
        // the knock-on counter drift is not.
        assert!(errs.iter().any(|v| v.is_structural()));
    }

    #[test]
    fn meta_counter_drift_is_reported_as_drift() {
        let mut fs = Filesystem::new(FsParams::small_test(), AllocPolicy::Orig);
        let d = fs.mkdir().unwrap();
        // One indirect block and one directory block: 16 fragments.
        fs.create(d, 200 * KB, 0).unwrap();
        assert_consistent(&fs);
        let utilization = fs.utilization();
        fs.used_meta_frags += 8;
        assert!(fs.utilization() > utilization, "the counter feeds DayStats");
        let errs = check(&fs);
        assert_eq!(
            errs,
            [Violation::UsedMetaDrift {
                counter: 24,
                recomputed: 16
            }]
        );
        assert!(!errs[0].is_structural());
        assert!(verify(&fs).is_err());
        crate::repair::repair(&mut fs);
        assert_eq!(fs.used_meta_frags, 16);
        assert_consistent(&fs);
    }

    #[test]
    fn verify_names_the_first_violation() {
        let mut fs = Filesystem::new(FsParams::small_test(), AllocPolicy::Orig);
        let d = fs.mkdir().unwrap();
        fs.create(d, 32 * KB, 0).unwrap();
        assert_eq!(verify(&fs), Ok(()));
        fs.used_data_frags += 3;
        let first = check(&fs)[0].to_string();
        match verify(&fs) {
            Err(FsError::Corrupt(msg)) => assert!(msg.ends_with(&first), "{msg}"),
            other => panic!("expected Corrupt, got {other:?}"),
        }
    }

    #[test]
    fn counter_drift_is_reported_as_drift() {
        let mut fs = Filesystem::new(FsParams::small_test(), AllocPolicy::Orig);
        let d = fs.mkdir().unwrap();
        fs.create(d, 32 * KB, 0).unwrap();
        fs.used_data_frags += 3;
        let errs = check(&fs);
        assert_eq!(errs.len(), 1);
        assert!(matches!(errs[0], Violation::UsedDataDrift { .. }));
        assert!(!errs[0].is_structural());
    }
}
