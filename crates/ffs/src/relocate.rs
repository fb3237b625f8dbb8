//! Online block relocation: the safe primitive budgeted defragmenters
//! move data through.
//!
//! [`Filesystem::relocate_block`] moves one data block of a live file to
//! a caller-chosen free block address. It is fsck-clean by construction:
//! the free-map bits and cluster summaries are maintained by the same
//! [`crate::cg::CylGroup::alloc_block`]/[`crate::cg::CylGroup::free_block`]
//! pair every allocator path uses, and the running layout aggregate is
//! updated with the delete-then-recommit pattern of
//! [`Filesystem::remove`]. Policy — which block, where to — lives in the
//! `defrag` crate; this module only enforces mechanism-level safety.

use ffs_types::{Daddr, FsError, FsResult, Ino};

use crate::fs::Filesystem;
use crate::geom::FPB;

impl Filesystem {
    /// Moves data block `index` of file `ino` to the free block at `to`,
    /// returning the block's previous address.
    ///
    /// `to` must be block-aligned, inside the volume, and currently
    /// free; `index` must name an existing full data block (tails and
    /// indirect blocks are not relocatable). Violations return
    /// [`FsError::InvalidArg`] or [`FsError::NoSuchFile`] without
    /// touching any state. Relocating a block onto its own address is a
    /// no-op that returns `Ok(to)`.
    pub fn relocate_block(&mut self, ino: Ino, index: u32, to: Daddr) -> FsResult<Daddr> {
        let geom = self.geom;
        let old = {
            let f = self.files.get(&ino).ok_or(FsError::NoSuchFile(ino))?;
            *f.blocks
                .get(index as usize)
                .ok_or(FsError::InvalidArg("relocate index out of range"))?
        };
        if to == old {
            return Ok(old);
        }
        if !geom.is_block(to) {
            return Err(FsError::InvalidArg(
                "relocate target misaligned or out of volume",
            ));
        }
        let ng = geom.dtog(to);
        let (nb, noff) = self.cgs[ng.0 as usize].daddr_to_block(to);
        debug_assert_eq!(noff, 0);
        if !self.cgs[ng.0 as usize].is_block_free(nb) {
            return Err(FsError::InvalidArg("relocate target not free"));
        }
        // Delete-then-recommit around the pointer rewrite, exactly as
        // `remove`/`create` bracket a file's lifetime, so the
        // incremental layout aggregate never drifts from a rescan.
        let counts = {
            let f = self.files.get(&ino).expect("checked above");
            f.layout_counts_at(FPB)
        };
        if let Some((opt, scored)) = counts {
            self.agg.opt -= opt;
            self.agg.scored -= scored;
        }
        self.engine().free_blocks([old]);
        self.cgs[ng.0 as usize].alloc_block(nb);
        let f = self.files.get_mut(&ino).expect("checked above");
        f.blocks[index as usize] = to;
        if let Some((opt, scored)) = f.layout_counts_at(FPB) {
            self.agg.opt += opt;
            self.agg.scored += scored;
        }
        self.alloc_stats.relocations = self.alloc_stats.relocations.saturating_add(1);
        Ok(old)
    }
}

#[cfg(test)]
mod tests {
    use crate::alloc::AllocPolicy;
    use crate::check::check;
    use crate::fs::Filesystem;
    use crate::layout::recompute_aggregate;
    use ffs_types::{CgIdx, Daddr, FsError, FsParams, Ino, KB};

    fn aged_fs() -> (Filesystem, Vec<Ino>) {
        let mut f = Filesystem::new(FsParams::small_test(), AllocPolicy::Orig);
        let d = f.mkdir_in(CgIdx(0)).unwrap();
        let mut inos = Vec::new();
        for _ in 0..20 {
            inos.push(f.create(d, 24 * KB, 0).unwrap());
        }
        // Punch holes so relocation targets exist and layouts are
        // imperfect.
        for i in (0..20).step_by(3) {
            f.remove(inos[i]).unwrap();
        }
        let live: Vec<Ino> = (0..20).filter(|i| i % 3 != 0).map(|i| inos[i]).collect();
        (f, live)
    }

    fn first_free_block(f: &Filesystem) -> Daddr {
        for g in 0..f.ncg() {
            let cg = f.cg(CgIdx(g));
            for b in 0..cg.nblocks() {
                if cg.is_block_free(b) {
                    return cg.block_daddr(b);
                }
            }
        }
        panic!("no free block");
    }

    #[test]
    fn relocation_is_fsck_clean_and_keeps_aggregates_exact() {
        let (mut f, live) = aged_fs();
        let free0 = f.free_frags();
        for &ino in &live[..4] {
            let to = first_free_block(&f);
            let old = f.relocate_block(ino, 1, to).unwrap();
            assert_ne!(old, to);
            assert_eq!(f.file(ino).unwrap().blocks[1], to);
        }
        assert!(check(&f).is_empty(), "relocation must stay fsck-clean");
        assert_eq!(f.free_frags(), free0, "relocation must not leak space");
        assert_eq!(
            f.aggregate_layout(),
            recompute_aggregate(&f),
            "incremental aggregate must match a rescan"
        );
    }

    #[test]
    fn relocation_changes_the_digest_but_self_move_does_not() {
        let (mut f, live) = aged_fs();
        let before = f.digest();
        let own = f.file(live[0]).unwrap().blocks[0];
        assert_eq!(f.relocate_block(live[0], 0, own), Ok(own));
        assert_eq!(f.digest(), before, "self-move must be a no-op");
        let to = first_free_block(&f);
        f.relocate_block(live[0], 0, to).unwrap();
        assert_ne!(f.digest(), before);
    }

    #[test]
    fn invalid_relocations_are_rejected_without_state_change() {
        let (mut f, live) = aged_fs();
        let before = f.digest();
        let to = first_free_block(&f);
        assert_eq!(
            f.relocate_block(Ino(9999), 0, to),
            Err(FsError::NoSuchFile(Ino(9999)))
        );
        assert!(matches!(
            f.relocate_block(live[0], 999, to),
            Err(FsError::InvalidArg(_))
        ));
        // Misaligned target.
        assert!(matches!(
            f.relocate_block(live[0], 0, Daddr(to.0 + 1)),
            Err(FsError::InvalidArg(_))
        ));
        // Occupied target: another live file's block.
        let busy = f.file(live[1]).unwrap().blocks[0];
        assert!(matches!(
            f.relocate_block(live[0], 0, busy),
            Err(FsError::InvalidArg(_))
        ));
        // Out of volume.
        assert!(matches!(
            f.relocate_block(live[0], 0, Daddr(u32::MAX - 7)),
            Err(FsError::InvalidArg(_))
        ));
        assert_eq!(f.digest(), before, "rejections must not touch state");
        assert!(check(&f).is_empty());
    }

    #[test]
    fn relocating_into_place_heals_the_layout_score() {
        let mut f = Filesystem::new(FsParams::small_test(), AllocPolicy::Orig);
        let d = f.mkdir_in(CgIdx(0)).unwrap();
        let a = f.create(d, 32 * KB, 0).unwrap();
        let b = f.create(d, 32 * KB, 0).unwrap();
        f.remove(a).unwrap();
        // Scatter b by hand: move its last block far away, then back.
        let fpb = f.params().frags_per_block();
        let third = f.file(b).unwrap().blocks[2];
        let to = first_free_block(&f);
        f.relocate_block(b, 3, to).unwrap();
        let scattered = f.file(b).unwrap().layout_score(f.params()).unwrap();
        let home = Daddr(third.0 + fpb);
        f.relocate_block(b, 3, home).unwrap();
        let healed = f.file(b).unwrap().layout_score(f.params()).unwrap();
        assert_eq!(healed, 1.0);
        assert!(scattered < healed);
        assert!(check(&f).is_empty());
    }
}
