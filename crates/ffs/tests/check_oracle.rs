//! Differential oracle for fsck.
//!
//! [`ffs::check`], [`ffs::repair`] and [`Filesystem::restore`] all learn
//! what the inodes claim from one packed claim map (a bit per fragment,
//! in the groups' own word layout); [`check_reference`] and
//! [`claimed_reference`] here are the walks that map retired — one
//! `BTreeMap` node per claimed fragment, probed once per fragment of the
//! volume. This suite churns random files through
//! the whole stack on group sizes whose bitmaps end in a partial word and whose bases are not multiples
//! of 64 (426/428 blocks), plus 512- and 2920-block groups, then plants
//! derived-state and structural damage and holds the two implementations
//! to the same violations in the same order, the same repair verdict, and
//! the same rebuilt maps.

use std::collections::{BTreeMap, BTreeSet};

use ffs::geom::DIR_FRAGS;
use ffs::{
    check, inject_metadata_damage, inject_structural_damage, recompute_aggregate, repair,
    AllocPolicy, Filesystem, Violation,
};
use ffs_types::{CgIdx, Daddr, FsParams, Ino, KB, MB};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Reference [`check`]: the retired walk that records the inodes' claims
/// as a `BTreeMap` with one node per fragment and probes it once per
/// fragment of the volume. Everything past the claim bookkeeping is the
/// production body verbatim, except two findings on state outside the
/// public API, the metadata counter and the file tables' slab indices:
/// those are [`check`]'s own, spliced in at their places.
///
/// A B-tree files any address, so two findings of the claim map are out
/// of its reach: it never reports [`Violation::OutsideVolume`], and a
/// claim on a group's static metadata area is not a
/// [`Violation::DoubleAlloc`] to it. On every other image the two return
/// the same violations in the same order.
fn check_reference(fs: &Filesystem) -> Vec<Violation> {
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
    let private = check(fs);
    let production =
        |keep: fn(&Violation) -> bool| private.iter().filter(move |v| keep(v)).cloned();
    errs.extend(production(|v| matches!(v, Violation::UsedMetaDrift { .. })));
    let inc = fs.aggregate_layout();
    let full = recompute_aggregate(fs);
    if inc != full {
        errs.push(Violation::LayoutAggDrift {
            incremental: inc,
            recomputed: full,
        });
    }
    errs.extend(production(|v| {
        matches!(v, Violation::SlabIndexDrift { .. })
    }));
    errs
}

/// Reference for [`repair`]'s pass 1 and orphan count:
/// the retired walk that collects the surviving claims as a
/// `BTreeSet<u32>` of fragment addresses. Directories claim first, then
/// files in inode order, skipping those already in `condemned`; a file
/// with any fragment already claimed joins `condemned` and claims
/// nothing. Returns the claimed set and the number of allocated map bits
/// outside the metadata area that nothing in it claims.
fn claimed_reference(fs: &Filesystem, condemned: &mut BTreeSet<Ino>) -> (BTreeSet<u32>, u64) {
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

/// 426/428-block groups (a 10 MB, 3-group layout).
fn mid_geometry() -> FsParams {
    FsParams {
        size_bytes: 10 * MB,
        ncg: 3,
        ..FsParams::small_test()
    }
}

/// A file system after `ops` random creates (pure-fragment, direct and
/// indirect sizes), removes, modifies and rewrites.
fn churned(params: FsParams, rng: &mut StdRng, ops: u32) -> Filesystem {
    let policy = if rng.gen() {
        AllocPolicy::Realloc
    } else {
        AllocPolicy::Orig
    };
    let mut fs = Filesystem::new(params, policy);
    let dirs = fs.mkdir_per_cg().unwrap();
    let mut live: Vec<Ino> = Vec::new();
    for day in 0..ops {
        let pick = rng.gen_range(0..live.len().max(1));
        match rng.gen_range(0u32..10) {
            0..=2 if !live.is_empty() => {
                fs.remove(live.swap_remove(pick)).unwrap();
            }
            3 if !live.is_empty() => {
                // Modify: removed, then created afresh at a new size in
                // the same directory.
                let ino = live.swap_remove(pick);
                let dir = fs.file(ino).unwrap().dir;
                fs.remove(ino).unwrap();
                if let Ok(ino) = fs.create(dir, rng.gen_range(1..=40 * KB), day) {
                    live.push(ino);
                }
            }
            4 if !live.is_empty() => {
                let _ = fs.rewrite(live[pick], day);
            }
            _ => {
                let size = match rng.gen_range(0u32..10) {
                    0..=3 => rng.gen_range(1..=8 * KB),
                    4..=7 => rng.gen_range(1u64..=96) * KB + rng.gen_range(0..KB),
                    _ => rng.gen_range(96u64..=160) * KB,
                };
                if let Ok(ino) = fs.create(dirs[rng.gen_range(0..dirs.len())], size, day) {
                    live.push(ino);
                }
            }
        }
    }
    fs
}

/// `fs`'s inode table through [`Filesystem::restore`].
fn restored(fs: &Filesystem) -> ffs_types::FsResult<Filesystem> {
    let mut back = Filesystem::restore(
        fs.params().clone(),
        fs.policy(),
        fs.dirs().cloned().collect(),
        fs.files().cloned().collect(),
        fs.bytes_written(),
    )?;
    back.set_rotors(&fs.rotors())?;
    Ok(back)
}

/// Every group's fragment map is exactly the reference's claimed set plus
/// the static metadata area.
fn assert_maps_are(fs: &Filesystem, claimed: &BTreeSet<u32>) {
    for g in 0..fs.ncg() {
        let cg = fs.cg(CgIdx(g));
        for b in 0..cg.nblocks() {
            let base = cg.block_daddr(b).0;
            let lane = (0..8)
                .filter(|i| claimed.contains(&(base + i)))
                .fold(0u8, |lane, i| lane | 1 << i);
            let expected = if b < cg.meta_blocks() {
                cg.full_lane()
            } else {
                lane
            };
            assert_eq!(cg.map_byte(b), expected, "cg {g} block {b}");
        }
    }
}

/// The claim-map fsck against the B-tree reference on one image: same
/// violations in the same order; the same files condemned, the same
/// orphan count, and maps rebuilt to the reference's claimed set; and
/// restore accepts the inode table exactly when the reference finds
/// nothing structural in it.
fn assert_fsck_matches_reference(fs: &Filesystem) {
    let expected = check_reference(fs);
    assert_eq!(check(fs), expected);

    let mut condemned: BTreeSet<Ino> = (expected.iter())
        .filter_map(Violation::condemned_ino)
        .collect();
    let (claimed, orphans) = claimed_reference(fs, &mut condemned);
    let mut repaired = fs.clone();
    let report = repair(&mut repaired);
    assert_eq!(report.violations_found, expected.len());
    assert_eq!(
        report.files_removed,
        condemned.iter().copied().collect::<Vec<_>>()
    );
    assert_eq!(report.orphaned_frags_freed, orphans);
    assert_eq!(check(&repaired), []);
    assert_maps_are(&repaired, &claimed);

    // Restore rebuilds from the inode table alone: the repaired one comes
    // back bit for bit, a structurally damaged one is refused.
    let back = restored(&repaired).expect("a repaired inode table restores");
    assert_eq!(back.digest(), repaired.digest());
    for g in 0..fs.ncg() {
        assert_eq!(back.cg(CgIdx(g)), repaired.cg(CgIdx(g)), "cg {g}");
    }
    assert_eq!(
        restored(fs).is_err(),
        expected.iter().any(Violation::is_structural)
    );
}

/// Churn, then the clean image, a torn-update image, a corrupted-inode
/// image, and one with both kinds of damage.
fn oracle_holds(params: FsParams, seed: u64, ops: u32) {
    let mut rng = StdRng::seed_from_u64(seed);
    let fs = churned(params, &mut rng, ops);
    assert_eq!(check(&fs), [], "churn left the image inconsistent");
    assert_fsck_matches_reference(&fs);

    let mut torn = fs.clone();
    inject_metadata_damage(&mut torn, rng.gen(), rng.gen_range(1..30));
    assert_fsck_matches_reference(&torn);

    let mut bad = fs.clone();
    inject_structural_damage(&mut bad, rng.gen(), rng.gen_range(1..6));
    assert_fsck_matches_reference(&bad);
    inject_metadata_damage(&mut bad, rng.gen(), rng.gen_range(1..30));
    assert_fsck_matches_reference(&bad);
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 16, ..ProptestConfig::default() })]

    #[test]
    fn claim_map_fsck_matches_the_btree_reference(seed in any::<u64>()) {
        for params in [mid_geometry(), FsParams::small_test()] {
            oracle_holds(params, seed, 120);
        }
    }
}

#[test]
fn oracle_holds_at_paper_scale() {
    // 2920-block groups, 502 MB: the volume the benchmark runs fsck on.
    oracle_holds(FsParams::paper_502mb(), 1996, 600);
}

#[test]
fn every_planted_fault_is_seen_and_resolved() {
    // Pins the injector the sweep above leans on: across a few seeds each
    // structural violation shows up, with both impossible tail lengths,
    // and every one costs at least the file it was planted in.
    let mut rng = StdRng::seed_from_u64(7);
    let fs = churned(mid_geometry(), &mut rng, 200);
    let mut seen = [false; 5];
    for seed in 0..24 {
        let mut bad = fs.clone();
        if inject_structural_damage(&mut bad, seed, 2) == 0 {
            continue;
        }
        let errs = check(&bad);
        for v in &errs {
            match v {
                Violation::DoubleAlloc { .. } => seen[0] = true,
                Violation::MisalignedBlock { .. } => seen[1] = true,
                Violation::BadTailLength { len: 0, .. } => seen[2] = true,
                Violation::BadTailLength { .. } => seen[3] = true,
                Violation::TailCrossesBlock { .. } => seen[4] = true,
                _ => {}
            }
        }
        assert!(errs.iter().any(Violation::is_structural), "seed {seed}");
        let report = repair(&mut bad);
        assert!(!report.files_removed.is_empty(), "seed {seed}");
        assert_eq!(check(&bad), []);
    }
    assert_eq!(seen, [true; 5], "a structural fault was never planted");
}
