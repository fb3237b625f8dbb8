//! A repairing fsck: rebuilds derived allocation state from the live
//! files and, when files themselves make conflicting claims, removes the
//! later claimant — the same resolution `fsck_ffs` applies to duplicate
//! blocks.
//!
//! The inode table (the [`crate::FileMeta`]/[`crate::fs::DirMeta`] maps)
//! is the source of truth, exactly as on a real FFS where fsck walks the
//! inodes and reconstructs the cylinder-group bitmaps and summary
//! counters from them. Everything derived — fragment maps, inode bitmaps,
//! free counters, the layout aggregate, per-directory file counts — is
//! rebuilt losslessly. Only structurally damaged files (double claims,
//! misaligned blocks, impossible tails, pointers outside the volume) cost
//! data, and the [`RepairReport`] names each one.
//!
//! This module also hosts [`inject_metadata_damage`]: seeded, bounded
//! corruption of exactly the derived state a torn update (power cut
//! mid-flush) leaves behind. Crash-recovery tests and the aging replay's
//! crash injection drive damage and repair against each other and then
//! prove convergence with [`check`]. [`inject_structural_damage`] is its
//! counterpart for the inode table, for the fsck oracle.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeSet;

use ffs_types::{CgIdx, Daddr, Ino};

use crate::cg::CylGroup;
use crate::check::check;
use crate::claims::ClaimMap;
use crate::fs::Filesystem;
use crate::geom::{DIR_FRAGS, FPB};
use crate::layout::recompute_aggregate;

/// What [`repair`] found and did.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct RepairReport {
    /// Violations the pre-repair check reported.
    pub violations_found: usize,
    /// How many of those were structural (file-claim damage).
    pub structural: usize,
    /// Files removed because their claims were damaged or conflicted
    /// with an earlier inode — fsck's duplicate-block resolution.
    pub files_removed: Vec<Ino>,
    /// Fragments that were marked allocated but claimed by no live file
    /// or directory; freed by the map rebuild.
    pub orphaned_frags_freed: u64,
    /// True when any derived state (maps, bitmaps, counters, aggregates)
    /// was rewritten.
    pub rebuilt: bool,
}

impl RepairReport {
    /// True when the file system needed no repair at all.
    pub fn was_clean(&self) -> bool {
        self.violations_found == 0
    }
}

/// Checks the file system and repairs every violation found, returning a
/// report of the damage. After this returns, [`check`] is empty — the
/// repair tests hold that as an invariant for arbitrary damage.
pub fn repair(fs: &mut Filesystem) -> RepairReport {
    let before = check(fs);
    if before.is_empty() {
        return RepairReport::default();
    }
    let mut report = RepairReport {
        violations_found: before.len(),
        structural: before.iter().filter(|v| v.is_structural()).count(),
        ..RepairReport::default()
    };
    // Sound the metadata tables first: pass 1 iterates them and may
    // remove condemned files, both of which need intact slab indices. The
    // rebuild is lossless, so doing it unconditionally is safe.
    fs.files.rebuild_index();
    fs.dirs.rebuild_index();
    // Files named in structural violations are beyond map rebuilds.
    let mut condemned: BTreeSet<Ino> = before.iter().filter_map(|v| v.condemned_ino()).collect();
    // Pass 1 (fsck phase 1): walk the inodes in order and collect each
    // file's claim on the disk. The first claimant of a fragment keeps
    // it; any later file claiming an already-claimed fragment is
    // condemned, like fsck clearing the inode with the duplicate block.
    let claims = ClaimMap::of_survivors(fs, &mut condemned);
    for &ino in &condemned {
        fs.files.remove(&ino);
        report.files_removed.push(ino);
    }
    // Orphan accounting: allocated map bits outside the metadata area
    // that no surviving owner claims.
    report.orphaned_frags_freed = claims.orphans(&fs.cgs);
    // Pass 2 (fsck phases 4-5): rebuild all derived state from the
    // surviving inodes.
    install_allocation_state(fs, claims);
    report.rebuilt = true;
    debug_assert!(check(fs).is_empty(), "repair did not converge");
    report
}

/// Rebuilds every piece of derived allocation state from the live files
/// and directories — checkpoint restore's half of the machinery it
/// shares with [`repair`]: a checkpoint stores only the inode table, and
/// this reconstructs the rest, guaranteeing a restored file system and a
/// repaired one are bit-identical when their inode tables agree.
///
/// Clashing claims are resolved as repair would (first claimant keeps),
/// but nothing is removed: the caller's [`check`] reports them.
pub(crate) fn rebuild_allocation_state(fs: &mut Filesystem) {
    // The metadata tables' own indices first: the key → slot index and
    // the occupancy bitmap are derived from the packed keys exactly as
    // the fragment maps are derived from the inodes, and everything
    // below iterates the tables through those indices.
    fs.files.rebuild_index();
    fs.dirs.rebuild_index();
    let claims = ClaimMap::of_survivors(fs, &mut BTreeSet::new());
    install_allocation_state(fs, claims);
}

/// Installs `claims` — what the surviving inodes claim — as the groups'
/// fragment maps, and rebuilds everything else derived: inode bitmaps,
/// free counters, directory counts, the layout aggregate, and the
/// used-space counters.
fn install_allocation_state(fs: &mut Filesystem, claims: ClaimMap) {
    let Filesystem {
        geom,
        cgs,
        files,
        dirs,
        ..
    } = fs;
    for (cg, words) in cgs.iter_mut().zip(claims.into_groups()) {
        cg.install_frag_words(words);
        cg.raw_imap_mut().fill(0);
        cg.set_ndirs(0);
    }
    let mark_slot = |cgs: &mut [CylGroup], g: CgIdx, slot: u32| {
        cgs[g.0 as usize].raw_imap_mut()[(slot / 64) as usize] |= 1 << (slot % 64);
    };
    let (mut used_data, mut used_meta) = (0u64, 0u64);
    for d in dirs.values_mut() {
        mark_slot(cgs, d.cg, d.ino_slot);
        let cg = &mut cgs[d.cg.0 as usize];
        cg.set_ndirs(cg.ndirs() + 1);
        used_meta += u64::from(DIR_FRAGS);
        d.nfiles = 0;
    }
    for f in files.values() {
        let (g, slot) = geom.itog(f.ino);
        mark_slot(cgs, g, slot);
        used_data += f.data_frags_at(FPB);
        used_meta += f.indirects().len() as u64 * u64::from(FPB);
        if let Some(d) = dirs.get_mut(&f.dir) {
            d.nfiles += 1;
        }
    }
    for cg in cgs.iter_mut() {
        let used_inodes: u32 = cg.raw_imap_mut().iter().map(|w| w.count_ones()).sum();
        cg.set_free_inodes(cg.ninodes() - used_inodes);
    }
    fs.used_data_frags = used_data;
    fs.used_meta_frags = used_meta;
    fs.agg = recompute_aggregate(fs);
}

/// Damage profile of a torn update: perturbs up to `hits` pieces of
/// *derived* allocation state — orphaned fragments and inode slots in
/// the bitmaps, drifted free counters, drifted aggregates, cleared
/// live-inode bits, torn slots of the groups' derived tables, and a
/// scrambled slab index — without touching the inode table itself.
/// Returns the number of perturbations applied.
///
/// The damage is seeded and therefore reproducible; [`repair`] restores
/// every category losslessly, which the recovery tests assert.
pub fn inject_metadata_damage(fs: &mut Filesystem, seed: u64, hits: u32) -> u32 {
    let mut rng = StdRng::seed_from_u64(seed);
    let ncg = fs.params.ncg;
    let mut applied = 0u32;
    for _ in 0..hits {
        let kind = rng.gen_range(0u32..9);
        let g = rng.gen_range(0..ncg) as usize;
        match kind {
            6 => {
                // Perturb one slot of one derived table (torn
                // cg_clustersum / cg_frsum / free-bitmap update): which
                // table is a draw over the group's own list.
                let derived = fs.cgs[g].derived_mut();
                let t = rng.gen_range(0..derived.tables().len());
                derived.perturb(t, |bound| rng.gen_range(0..bound));
                applied += 1;
            }
            7 => {
                // Scramble the file table's slab index (torn index
                // update): every vacant key's entry pointed at a random
                // slot, or a cleared occupancy bit when no key is
                // vacant. The packed values and their keys — the ground
                // truth — are never touched.
                if fs.files.scramble_index(|bound| rng.gen_range(0..bound)) {
                    applied += 1;
                }
            }
            8 => {
                // Flip a fragment-map bit (torn cg_blksfree update). The
                // frag map is derived state — the rebuild rewrites it
                // wholly from the inode table, so repair stays lossless.
                let cg = &mut fs.cgs[g];
                let (mb, nb) = (cg.meta_blocks(), cg.nblocks());
                if nb > mb {
                    let b = rng.gen_range(mb..nb);
                    let bit = 1u8 << rng.gen_range(0..FPB);
                    cg.set_map_byte(b, cg.map_byte(b) ^ bit);
                    applied += 1;
                }
            }
            0 => {
                // Orphan a fragment: mark a free fragment allocated.
                let cg = &mut fs.cgs[g];
                let (mb, nb) = (cg.meta_blocks(), cg.nblocks());
                if nb > mb {
                    let b = rng.gen_range(mb..nb);
                    let bit = 1u8 << rng.gen_range(0..FPB);
                    if cg.map_byte(b) & bit == 0 {
                        cg.set_map_byte(b, cg.map_byte(b) | bit);
                        applied += 1;
                    }
                }
            }
            1 => {
                // Drift the free-fragment counter.
                let cg = &mut fs.cgs[g];
                let (ff, fb) = (cg.free_frags(), cg.free_blocks());
                cg.set_free_counts(ff.saturating_add(rng.gen_range(1..4)), fb);
                applied += 1;
            }
            2 => {
                // Drift the free-block counter.
                let cg = &mut fs.cgs[g];
                let (ff, fb) = (cg.free_frags(), cg.free_blocks());
                cg.set_free_counts(ff, fb.saturating_sub(rng.gen_range(1..3)));
                applied += 1;
            }
            3 => {
                // Orphan an inode slot: mark a free slot used.
                let cg = &mut fs.cgs[g];
                let slot = rng.gen_range(0..cg.ninodes());
                let (w, b) = ((slot / 64) as usize, slot % 64);
                let imap = cg.raw_imap_mut();
                if imap[w] & (1 << b) == 0 {
                    imap[w] |= 1 << b;
                    applied += 1;
                }
            }
            4 => {
                // Drift the used-data counter.
                fs.used_data_frags = fs.used_data_frags.saturating_add(rng.gen_range(1..5));
                applied += 1;
            }
            _ => {
                // Clear a live file's inode bit (lost inode-bitmap
                // update), or drift the layout aggregate when no file
                // exists to damage.
                let victim = {
                    let n = fs.files.len();
                    if n == 0 {
                        None
                    } else {
                        fs.files.keys().nth(rng.gen_range(0..n))
                    }
                };
                if let Some(ino) = victim {
                    let (g, slot) = fs.geom.itog(ino);
                    let (w, b) = ((slot / 64) as usize, slot % 64);
                    fs.cgs[g.0 as usize].raw_imap_mut()[w] &= !(1 << b);
                } else {
                    fs.agg.opt = fs.agg.opt.wrapping_add(1);
                }
                applied += 1;
            }
        }
    }
    applied
}

/// Damage profile of a corrupted inode: plants up to `hits` *structural*
/// faults in the inode table itself — a later file claiming an earlier
/// file's block, a block pointer knocked off its alignment, a tail run
/// of impossible length, a tail straddling a block boundary — the damage
/// [`repair`] can only resolve by removing a file. Returns the number
/// planted.
///
/// Every planted run stays inside one group's data area, where the claim
/// map and the B-tree reference walk (`check_reference` in
/// `tests/check_oracle.rs`) see the same thing; pointers into a metadata area or off the volume
/// have unit tests of their own.
pub fn inject_structural_damage(fs: &mut Filesystem, seed: u64, hits: u32) -> u32 {
    let mut rng = StdRng::seed_from_u64(seed);
    let inos: Vec<Ino> = fs.files.keys().collect();
    if inos.len() < 2 {
        return 0;
    }
    // True when any run of under two blocks starting anywhere in `d`'s
    // block (so ending at most two blocks on) stays in the data area of
    // `d`'s group.
    let roomy = |fs: &Filesystem, d: Daddr| {
        let cg = &fs.cgs[fs.geom.dtog(d).0 as usize];
        let (block, _) = cg.daddr_to_block(d);
        block >= cg.meta_blocks() && block + 2 < cg.nblocks()
    };
    let mut applied = 0u32;
    for _ in 0..hits {
        let i = rng.gen_range(1..inos.len());
        let donor_block = fs.files[&inos[rng.gen_range(0..i)]].blocks.first().copied();
        let kind = rng.gen_range(0u32..4);
        let victim = &fs.files[&inos[i]];
        let j = rng.gen_range(0..victim.blocks.len().max(1));
        let block_j = victim.blocks.as_slice().get(j).copied();
        let block_j = block_j.filter(|&b| roomy(fs, b));
        let tail = victim.tail.filter(|&(d, _)| roomy(fs, d));
        let victim = fs.files.get_mut(&inos[i]).expect("listed above");
        match (kind, donor_block, block_j, tail) {
            // Duplicate claim: an earlier file's first block, again.
            (0, Some(b), _, _) => victim.blocks.push(b),
            // Misaligned block pointer.
            (1, _, Some(b), _) => {
                victim.blocks.as_mut_slice()[j] = Daddr(b.0 + rng.gen_range(1..FPB));
            }
            // Tail of length zero, or of a block and more.
            (2, _, _, Some((d, _))) => {
                let len = if rng.gen() {
                    0
                } else {
                    FPB + rng.gen_range(0..FPB)
                };
                victim.tail = Some((d, len));
            }
            // Tail across a block boundary (of a legal length wherever
            // the geometry has one that can cross).
            (3, _, _, Some((d, n))) => {
                victim.tail = Some((Daddr(d.0 - d.0 % FPB + FPB - 1), n.max(2)));
            }
            _ => continue,
        }
        applied += 1;
    }
    applied
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alloc::AllocPolicy;
    use crate::check::{assert_consistent, Violation};
    use ffs_types::{FsParams, KB};
    use proptest::prelude::*;

    fn aged_fs() -> Filesystem {
        let mut fs = Filesystem::new(FsParams::small_test(), AllocPolicy::Realloc);
        let dirs = fs.mkdir_per_cg().unwrap();
        let mut live = Vec::new();
        for i in 0u64..120 {
            let d = dirs[(i % 4) as usize];
            live.push(fs.create(d, 1 + (i * 6151) % (60 * KB), i as u32).unwrap());
            if i % 3 == 0 {
                let v = live.swap_remove((i as usize * 7) % live.len());
                fs.remove(v).unwrap();
            }
        }
        fs
    }

    #[test]
    fn clean_fs_needs_no_repair() {
        let mut fs = aged_fs();
        let report = repair(&mut fs);
        assert!(report.was_clean());
        assert!(report.files_removed.is_empty());
        assert!(!report.rebuilt);
    }

    #[test]
    fn metadata_damage_is_repaired_losslessly() {
        let mut fs = aged_fs();
        let pristine = fs.clone();
        let applied = inject_metadata_damage(&mut fs, 99, 25);
        assert!(applied > 0);
        assert!(!check(&fs).is_empty(), "damage went undetected");
        let report = repair(&mut fs);
        assert!(!report.was_clean());
        assert!(report.files_removed.is_empty(), "derived damage cost files");
        assert_consistent(&fs);
        // Lossless: every file and directory survives with its layout.
        assert_eq!(fs.files, pristine.files);
        assert_eq!(fs.dirs, pristine.dirs);
        assert_eq!(fs.aggregate_layout(), pristine.aggregate_layout());
        assert_eq!(fs.free_frags(), pristine.free_frags());
    }

    #[test]
    fn orphaned_fragments_are_counted_and_freed() {
        let mut fs = aged_fs();
        let free0 = fs.free_frags();
        // Orphan group 0's first three free fragments: marked in use,
        // owned by no file.
        let cg = &mut fs.cgs[0];
        let frags = (cg.meta_blocks()..cg.nblocks()).flat_map(|b| (0..FPB).map(move |f| (b, f)));
        let free: Vec<_> = frags
            .filter(|&(b, f)| cg.map_byte(b) & 1 << f == 0)
            .take(3)
            .collect();
        assert_eq!(free.len(), 3);
        for (b, f) in free {
            cg.set_map_byte(b, cg.map_byte(b) | 1 << f);
        }
        let report = repair(&mut fs);
        assert_eq!(report.orphaned_frags_freed, 3);
        assert_eq!(fs.free_frags(), free0);
        assert_consistent(&fs);
    }

    #[test]
    fn duplicate_claim_condemns_the_later_file() {
        let mut fs = aged_fs();
        let inos: Vec<Ino> = fs.files.keys().collect();
        let (keep, lose) = (inos[0], *inos.last().unwrap());
        assert!(keep < lose);
        // The later file also claims the earlier file's first block.
        let stolen = fs.files[&keep].blocks[0];
        fs.files.get_mut(&lose).unwrap().blocks.push(stolen);
        let report = repair(&mut fs);
        assert_eq!(report.files_removed, vec![lose]);
        assert!(report.structural > 0);
        assert!(fs.file(keep).is_some());
        assert!(fs.file(lose).is_none());
        assert_consistent(&fs);
    }

    #[test]
    fn out_of_volume_pointer_condemns_the_file_without_panicking() {
        let past_end = Daddr(62_499_808);
        for tail_variant in [false, true] {
            let mut fs = aged_fs();
            let inos: Vec<Ino> = fs.files.keys().collect();
            let victim = if tail_variant {
                let f = fs.files.values().find(|f| f.tail.is_some()).unwrap();
                let (ino, len) = (f.ino, f.tail.unwrap().1);
                fs.files.get_mut(&ino).unwrap().tail = Some((past_end, len));
                ino
            } else {
                let ino = inos[inos.len() / 2];
                fs.files.get_mut(&ino).unwrap().blocks.as_mut_slice()[0] = past_end;
                ino
            };
            let errs = check(&fs);
            let named = Violation::OutsideVolume {
                ino: victim,
                addr: past_end,
            };
            assert!(errs.contains(&named), "not reported: {errs:?}");
            assert!(named.is_structural());
            let report = repair(&mut fs);
            assert_eq!(report.files_removed, vec![victim]);
            assert!(report.structural > 0);
            assert!(fs.file(victim).is_none());
            assert_eq!(fs.nfiles(), inos.len() - 1);
            assert_consistent(&fs);
        }
    }

    #[test]
    fn claim_on_the_metadata_area_or_on_itself_condemns_the_file() {
        // Two claims the retired B-tree walk let through: a block inside
        // a group's static metadata area (it masked the area out), and a
        // file listing one of its own blocks twice (repair's pass 1 only
        // looked at earlier files).
        for own_block_twice in [false, true] {
            let mut fs = aged_fs();
            let victim = fs.files.keys().nth(3).unwrap();
            let dup = if own_block_twice {
                fs.files[&victim].blocks[0]
            } else {
                fs.cg(CgIdx(1)).block_daddr(1)
            };
            fs.files.get_mut(&victim).unwrap().blocks.push(dup);
            let errs = check(&fs);
            assert!(
                errs.iter().any(
                    |v| matches!(v, Violation::DoubleAlloc { addr, what: "data block" } if *addr == dup)
                ),
                "not reported: {errs:?}"
            );
            let report = repair(&mut fs);
            assert_eq!(report.files_removed, vec![victim]);
            assert_consistent(&fs);
        }
    }

    #[test]
    fn frag_map_bit_damage_repairs_losslessly() {
        let mut fs = aged_fs();
        let pristine = fs.clone();
        // Flip one fragment bit of a data block in group 0: whichever way
        // it flips (orphan or lost claim), the map disagrees with the
        // inode table and the rebuild restores it bit for bit.
        let cg = &mut fs.cgs[0];
        let b = cg.meta_blocks() + 5;
        cg.set_map_byte(b, cg.map_byte(b) ^ 0b0001_0000);
        let errs = check(&fs);
        assert!(
            errs.iter()
                .any(|v| matches!(v, Violation::MapMismatch { cg: 0, .. })),
            "map damage not reported: {errs:?}"
        );
        let report = repair(&mut fs);
        assert!(report.rebuilt);
        assert!(report.files_removed.is_empty());
        assert_consistent(&fs);
        assert_eq!(fs.cgs[0], pristine.cgs[0], "rebuild was not lossless");
        assert_eq!(fs.digest(), pristine.digest());
    }

    #[test]
    fn scrambled_slab_index_is_detected_and_repaired() {
        let mut fs = aged_fs();
        let pristine = fs.clone();
        let mut x = 0xDECAF_u32;
        let hit = fs.files.scramble_index(|bound| {
            x = x.wrapping_mul(747796405).wrapping_add(2891336453);
            (x >> 16) % bound.max(1)
        });
        assert!(hit, "aged fs should have vacant keys to scramble");
        let errs = check(&fs);
        assert!(
            errs.iter()
                .any(|v| matches!(v, Violation::SlabIndexDrift { table: "files", .. })),
            "slab drift not reported: {errs:?}"
        );
        assert!(errs.iter().all(|v| !v.is_structural()));
        let report = repair(&mut fs);
        assert!(report.rebuilt);
        assert!(report.files_removed.is_empty());
        assert_consistent(&fs);
        // Lossless: every file survives, and the table keeps working.
        assert_eq!(fs.files, pristine.files);
        assert_eq!(fs.digest(), pristine.digest());
        let d = fs.dirs.keys().next().unwrap();
        fs.create(d, 24 * KB, 500).unwrap();
        assert_consistent(&fs);
    }

    /// Mixed whole-block and fragment-tail churn through the file
    /// system; every group's derived state must equal its recount after
    /// each single mutation.
    fn churn(fs: &mut Filesystem, rng: &mut StdRng, ops: u32) {
        let dir = fs.mkdir().unwrap();
        let mut live = Vec::new();
        for day in 0..ops {
            if !live.is_empty() && rng.gen_range(0u32..10) < 4 {
                let victim = live.swap_remove(rng.gen_range(0..live.len()));
                fs.remove(victim).unwrap();
            } else {
                let size = match rng.gen_range(0u32..3) {
                    0 => rng.gen_range(1..=8 * KB),
                    1 => rng.gen_range(1u64..=96) * KB + rng.gen_range(0..KB),
                    _ => rng.gen_range(96u64..=160) * KB,
                };
                if let Ok(ino) = fs.create(dir, size, day) {
                    live.push(ino);
                }
            }
            for cg in &fs.cgs {
                assert_eq!(cg.derived_drift(), [], "cg {:?} after op {day}", cg.idx());
            }
        }
    }

    /// The whole derived-state contract, driven off the table list: on
    /// 426/428-block groups, so every bitmap ends in a partial trailing
    /// word, churn keeps each table equal to its recount, a perturbed
    /// table is reported by name and as rebuildable, and repair restores
    /// the group exactly.
    fn derived_contract_holds(seed: u64) {
        let mut rng = StdRng::seed_from_u64(seed);
        let params = FsParams {
            size_bytes: 10 * ffs_types::MB,
            ncg: 3,
            ..FsParams::small_test()
        };
        let policy = if rng.gen() {
            AllocPolicy::Realloc
        } else {
            AllocPolicy::Orig
        };
        let mut pristine = Filesystem::new(params, policy);
        churn(&mut pristine, &mut rng, 60);
        assert_consistent(&pristine);
        let names = pristine.cgs[0].derived_mut().tables().map(|(name, _)| name);
        assert_eq!(names, ["free_words", "csum", "frsum", "fit_words"]);
        for (t, name) in names.into_iter().enumerate() {
            let mut fs = pristine.clone();
            let g = rng.gen_range(0..fs.cgs.len());
            let torn = fs.cgs[g].derived_mut();
            torn.perturb(t, |bound| rng.gen_range(0..bound));
            let errs = check(&fs);
            let named = |v: &Violation| {
                matches!(v, Violation::DerivedDrift { cg, index, .. }
                    if *cg == g as u32 && *index == name)
            };
            assert!(
                errs.iter().any(named),
                "{name} drift in cg {g} not reported: {errs:?}"
            );
            assert!(errs.iter().all(|v| !v.is_structural()));
            let report = repair(&mut fs);
            assert!(report.rebuilt && report.files_removed.is_empty());
            assert_consistent(&fs);
            assert_eq!(fs.cgs, pristine.cgs, "{name} rebuild was not lossless");
            assert_eq!(fs.digest(), pristine.digest());
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 8, ..ProptestConfig::default() })]

        #[test]
        fn every_derived_table_is_tracked_checked_and_rebuilt(seed in any::<u64>()) {
            derived_contract_holds(seed);
        }
    }

    #[test]
    fn every_damage_kind_converges_under_repair() {
        // Forty hits a seed draw every damage kind many times over. The
        // three kinds that leave a signature of their own — 6 (derived
        // table), 7 (slab index), 8 (fragment-map bit) — must each
        // show up in the pre-repair check, and repair must return the
        // exact pristine state and digest every time.
        let mut seen = [false; 3];
        for seed in 0..12 {
            let mut fs = aged_fs();
            let pristine = fs.clone();
            let applied = inject_metadata_damage(&mut fs, seed, 40);
            assert!(applied > 0);
            for v in check(&fs) {
                match v {
                    Violation::DerivedDrift { .. } => seen[0] = true,
                    Violation::SlabIndexDrift { .. } => seen[1] = true,
                    Violation::MapMismatch { .. } => seen[2] = true,
                    _ => {}
                }
            }
            let report = repair(&mut fs);
            assert!(report.files_removed.is_empty());
            assert_consistent(&fs);
            assert_eq!(fs.cgs, pristine.cgs, "seed {seed} was not lossless");
            assert_eq!(fs.files, pristine.files, "seed {seed} lost file state");
            assert_eq!(fs.digest(), pristine.digest(), "seed {seed} digest drift");
        }
        assert_eq!(seen, [true; 3], "a damage kind was never drawn");
    }

    #[test]
    fn repair_is_idempotent() {
        let mut fs = aged_fs();
        inject_metadata_damage(&mut fs, 3, 10);
        repair(&mut fs);
        let again = repair(&mut fs);
        assert!(again.was_clean());
    }
}
