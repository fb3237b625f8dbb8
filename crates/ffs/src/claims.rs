//! The claim map: which fragments do the inodes claim.
//!
//! One bit per fragment, per cylinder group, in exactly
//! [`CylGroup`]'s fragment-map layout — bit `block * 8 + frag`, set =
//! claimed, the static metadata area preset, bits past the last block
//! clear. It is `fsck_ffs` pass 1's block map (`setbmap`/`testbmap`):
//! every owner's runs are test-and-set into it through
//! [`ClaimMap::claim`], so a claim that lands on a set bit *is* the
//! duplicate-block finding, and the finished words compare against a
//! group's own map with `==`.
//!
//! Everything that asks what the inode table claims goes through here:
//! [`crate::check::check`] (reporting walk, every claim kept),
//! [`crate::repair::repair`] pass 1 and its orphan count
//! ([`ClaimMap::of_survivors`], first claimant keeps), and the map
//! rebuild shared with [`crate::Filesystem::restore`], which installs
//! the claimed words as the groups' new maps. The `BTreeMap` walk this
//! replaced survives as `check_reference` and `claimed_reference` in
//! `tests/check_oracle.rs`, which holds the two equal.

use std::collections::BTreeSet;

use ffs_types::{Daddr, Ino};

use crate::cg::{fresh_frag_words, CylGroup};
use crate::fs::Filesystem;
use crate::geom::{DIR_FRAGS, FPB};
use crate::inode::FileMeta;

/// One bit per fragment of the volume; see the module docs.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) struct ClaimMap {
    /// Per group, the claimed fragments in `CylGroup::frag_words` layout.
    groups: Vec<Vec<u64>>,
    /// Fragments in every group but the last, which absorbs the
    /// remainder (`dtog`'s divisor).
    group_frags: u32,
    /// One past the volume's last fragment address.
    limit: u32,
}

/// The part of one run that falls inside one map word.
struct Chunk {
    group: usize,
    word: usize,
    mask: u64,
    /// Fragment address of the word's bit 0.
    base: u32,
}

impl ClaimMap {
    /// An empty map over `fs`'s geometry: nothing claimed but each
    /// group's static metadata area.
    pub(crate) fn new(fs: &Filesystem) -> ClaimMap {
        let geom = fs.geom;
        ClaimMap {
            groups: (fs.cgs.iter())
                .map(|cg| fresh_frag_words(cg.nblocks(), cg.meta_blocks()))
                .collect(),
            group_frags: geom.group_frags,
            limit: geom.frag_limit,
        }
    }

    /// Splits the run `d .. d + n` at word and group boundaries. A block
    /// or tail of a sound file is always one chunk (a block is one byte of a word);
    /// only a misaligned block or an impossible tail length yields more.
    fn chunks(&self, d: Daddr, n: u32) -> impl Iterator<Item = Chunk> {
        let group_frags = self.group_frags;
        let last = self.groups.len() as u32 - 1;
        let end = d.0 + n;
        let mut addr = d.0;
        std::iter::from_fn(move || {
            if addr >= end {
                return None;
            }
            let g = (addr / group_frags).min(last);
            let bit = addr - g * group_frags;
            let group_left = if g < last {
                group_frags - bit
            } else {
                u32::MAX
            };
            let len = (end - addr).min(64 - bit % 64).min(group_left);
            let chunk = Chunk {
                group: g as usize,
                word: (bit / 64) as usize,
                mask: (u64::MAX >> (64 - len)) << (bit % 64),
                base: addr - bit % 64,
            };
            addr += len;
            Some(chunk)
        })
    }

    /// Test-and-set: claims fragments `d .. d + n`, telling `taken` each
    /// one that was already claimed, in ascending order. Returns `false`
    /// and claims nothing when the run leaves the volume.
    pub(crate) fn claim(&mut self, d: Daddr, n: u32, mut taken: impl FnMut(Daddr)) -> bool {
        if n == 0 {
            return true;
        }
        if d.0.checked_add(n).is_none_or(|end| end > self.limit) {
            return false;
        }
        for c in self.chunks(d, n) {
            let w = &mut self.groups[c.group][c.word];
            let mut dup = *w & c.mask;
            *w |= c.mask;
            while dup != 0 {
                taken(Daddr(c.base + dup.trailing_zeros()));
                dup &= dup - 1;
            }
        }
        true
    }

    /// Clears fragments `d .. d + n`, which must lie inside the volume.
    fn release(&mut self, d: Daddr, n: u32) {
        for c in self.chunks(d, n) {
            self.groups[c.group][c.word] &= !c.mask;
        }
    }

    /// All-or-nothing claim of everything `f` owns — blocks, indirect
    /// blocks, tail. Returns `false`, leaving the map as it was, when any
    /// of it is already claimed (by an earlier owner or by `f` itself) or
    /// lies outside the volume.
    fn claim_file(&mut self, f: &FileMeta) -> bool {
        let runs = || {
            let blocks = f.blocks.iter().chain(f.indirects());
            blocks.map(|&b| (b, FPB)).chain(f.tail)
        };
        for (i, (d, n)) in runs().enumerate() {
            let mut dup = Vec::new();
            let inside = self.claim(d, n, |a| dup.push(a));
            if inside && dup.is_empty() {
                continue;
            }
            // Undo: this run down to the bits it found set, then every
            // earlier run of the file (each was wholly fresh).
            if inside {
                self.release(d, n);
                for a in dup {
                    self.claim(a, 1, |_| {});
                }
            }
            for (d, n) in runs().take(i) {
                self.release(d, n);
            }
            return false;
        }
        true
    }

    /// The claims `fsck` lets stand (its phase 1): directories first,
    /// then files in inode order, skipping those already `condemned`. The
    /// first claimant of a fragment keeps it; a later file whose claim
    /// clashes, or points outside the volume, joins `condemned` and
    /// claims nothing.
    pub(crate) fn of_survivors(fs: &Filesystem, condemned: &mut BTreeSet<Ino>) -> ClaimMap {
        let mut map = ClaimMap::new(fs);
        for d in fs.dirs.values() {
            map.claim(d.block, DIR_FRAGS, |_| {});
        }
        for f in fs.files.values() {
            if !condemned.contains(&f.ino) && !map.claim_file(f) {
                condemned.insert(f.ino);
            }
        }
        map
    }

    /// Group `g`'s claimed fragments, in `CylGroup::frag_words` layout.
    pub(crate) fn group(&self, g: usize) -> &[u64] {
        &self.groups[g]
    }

    /// Fragments the groups' maps hold allocated that nothing claims
    /// (`map & !claimed`; the preset metadata area masks itself out).
    pub(crate) fn orphans(&self, cgs: &[CylGroup]) -> u64 {
        let pairs = cgs.iter().zip(&self.groups);
        pairs
            .flat_map(|(cg, claimed)| cg.frag_words().iter().zip(claimed))
            .map(|(map, claimed)| u64::from((map & !claimed).count_ones()))
            .sum()
    }

    /// The claimed words, one `Vec` per group, for
    /// `CylGroup::install_frag_words`.
    pub(crate) fn into_groups(self) -> Vec<Vec<u64>> {
        self.groups
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alloc::AllocPolicy;
    use ffs_types::{CgIdx, FsParams, KB};

    fn fs_with_files() -> Filesystem {
        let mut fs = Filesystem::new(FsParams::small_test(), AllocPolicy::Orig);
        let dirs = fs.mkdir_per_cg().unwrap();
        for i in 0..24u64 {
            let size = 1 + i * 5 * KB;
            fs.create(dirs[(i % 4) as usize], size, 0).unwrap();
        }
        fs
    }

    #[test]
    fn fresh_map_equals_a_fresh_groups_map() {
        let fs = Filesystem::new(FsParams::small_test(), AllocPolicy::Orig);
        let map = ClaimMap::new(&fs);
        for (g, cg) in fs.cgs.iter().enumerate() {
            assert_eq!(map.group(g), cg.frag_words());
        }
    }

    #[test]
    fn survivors_of_a_sound_fs_are_its_maps() {
        let fs = fs_with_files();
        let mut condemned = BTreeSet::new();
        let map = ClaimMap::of_survivors(&fs, &mut condemned);
        assert!(condemned.is_empty());
        for (g, cg) in fs.cgs.iter().enumerate() {
            assert_eq!(map.group(g), cg.frag_words(), "group {g}");
        }
        assert_eq!(map.orphans(&fs.cgs), 0);
    }

    #[test]
    fn claim_reports_taken_fragments_in_order_across_words_and_groups() {
        let fs = Filesystem::new(FsParams::small_test(), AllocPolicy::Orig);
        let mut map = ClaimMap::new(&fs);
        // A run straddling the group 0 / group 1 boundary: the tail of
        // group 0's last block, then group 1's metadata (preset).
        let base1 = fs.params().cg_base(CgIdx(1)).0;
        let mut taken = Vec::new();
        assert!(map.claim(Daddr(base1 - 3), 8, |a| taken.push(a.0)));
        assert_eq!(taken, (base1..base1 + 5).collect::<Vec<_>>());
        // Claiming it again finds all eight.
        taken.clear();
        assert!(map.claim(Daddr(base1 - 3), 8, |a| taken.push(a.0)));
        assert_eq!(taken, (base1 - 3..base1 + 5).collect::<Vec<_>>());
        // Runs that leave the volume claim nothing.
        let before = map.clone();
        assert!(!map.claim(Daddr(map.limit - 4), 8, |_| panic!("claimed")));
        assert!(!map.claim(Daddr(u32::MAX - 2), 8, |_| panic!("claimed")));
        assert_eq!(map, before);
        // An empty run claims nothing, wherever it points.
        assert!(map.claim(Daddr(u32::MAX), 0, |_| panic!("claimed")));
    }

    #[test]
    fn a_clashing_file_claims_nothing() {
        let fs = fs_with_files();
        let files: Vec<&FileMeta> = fs.files().collect();
        let (first, other) = (files[5], files[9]);
        let mut map = ClaimMap::new(&fs);
        assert!(map.claim_file(first));
        let before = map.clone();
        // A file that claims fresh blocks, then one of `first`'s, then
        // (never reached) an address outside the volume.
        let mut thief = other.clone();
        thief.blocks.push(first.blocks[1]);
        thief.blocks.push_indirect(Daddr(u32::MAX - 9));
        assert!(!map.claim_file(&thief));
        assert_eq!(map, before, "rollback left bits behind");
        // A file that claims one of its own blocks twice clashes with
        // itself.
        let mut twice = other.clone();
        twice.blocks.push(other.blocks[0]);
        assert!(!map.claim_file(&twice));
        assert_eq!(map, before);
        // Partial overlap: a misaligned block half on `first`'s.
        let mut skew = other.clone();
        skew.blocks.push(Daddr(first.blocks[0].0 - 3));
        assert!(!map.claim_file(&skew));
        assert_eq!(map, before);
        assert!(map.claim_file(other));
    }
}
