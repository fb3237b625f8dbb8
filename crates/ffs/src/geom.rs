//! The volume's geometry, computed once.
//!
//! [`FsParams`] stores what `newfs` was told (sizes in bytes, a group
//! count) and derives everything else on demand: `FsParams::dtog` is five
//! integer divisions, one of them 64-bit, and the block path used to call
//! it three times per block. 4.4BSD keeps `fs_fpg` and `fs_fragshift` in
//! the superblock so that `dtog` is one divide and `fragstoblks` a shift,
//! and `fs_ipg` so that `itog` is one more; [`Geometry`] is that part of
//! the superblock. [`crate::Filesystem::new`]
//! builds one and every module of this crate reads it; the `FsParams`
//! helpers stay as the slow, obviously correct reference
//! (`tests/geom_oracle.rs` holds the two equal).

use ffs_types::{CgIdx, Daddr, FsParams, Ino};

/// What the allocator needs to know about a volume's shape, as plain
/// numbers. A pure function of [`FsParams`]; it caches, it decides
/// nothing.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Geometry {
    /// Fragments per block (`fs_frag`), a power of two.
    pub(crate) fpb: u32,
    /// `log2(fpb)` (`fs_fragshift`).
    pub(crate) frag_shift: u32,
    /// Fragments in every group but the last (`fs_fpg`), which absorbs
    /// the remainder.
    pub(crate) group_frags: u32,
    /// Index of the last group.
    pub(crate) last_cg: u32,
    /// One past the volume's last fragment address.
    pub(crate) frag_limit: u32,
    /// Data blocks over all groups (capacity available to files).
    pub(crate) total_data_blocks: u32,
    /// Inode slots in every group (`fs_ipg`).
    pub(crate) inodes_per_cg: u32,
}

impl Geometry {
    /// The geometry `params` implies.
    pub fn new(params: &FsParams) -> Geometry {
        let fpb = params.frags_per_block();
        assert!(
            fpb.is_power_of_two() && fpb <= 8,
            "unsupported frag-per-block geometry {fpb}"
        );
        Geometry {
            fpb,
            frag_shift: fpb.trailing_zeros(),
            group_frags: params.blocks_per_cg() * fpb,
            last_cg: params.ncg - 1,
            frag_limit: params.total_blocks() * fpb,
            total_data_blocks: params.total_data_blocks(),
            inodes_per_cg: params.inodes_per_cg(),
        }
    }

    /// Fragments per block.
    pub fn frags_per_block(&self) -> u32 {
        self.fpb
    }

    /// The cylinder group containing a fragment address (`dtog`): one
    /// divide. Addresses past the volume's end map to the last group, as
    /// [`FsParams::dtog`] maps them.
    pub fn dtog(&self, d: Daddr) -> CgIdx {
        CgIdx((d.0 / self.group_frags).min(self.last_cg))
    }

    /// Inode slots per cylinder group.
    pub fn inodes_per_cg(&self) -> u32 {
        self.inodes_per_cg
    }

    /// The cylinder group and table slot of an inode number (`itog` and
    /// `ino % fs_ipg`): inode numbers are dense per group, so one divide
    /// where [`FsParams::ino_to_cg`] re-derives the group size first.
    pub fn itog(&self, ino: Ino) -> (CgIdx, u32) {
        (
            CgIdx(ino.0 / self.inodes_per_cg),
            ino.0 % self.inodes_per_cg,
        )
    }

    /// One past the volume's last fragment address.
    pub fn frag_limit(&self) -> u32 {
        self.frag_limit
    }

    /// Data blocks over all groups.
    pub fn total_data_blocks(&self) -> u32 {
        self.total_data_blocks
    }

    /// Whether `d .. d + fpb` is an aligned block inside the volume.
    pub fn is_block(&self, d: Daddr) -> bool {
        d.0 & (self.fpb - 1) == 0
            && d.0
                .checked_add(self.fpb)
                .is_some_and(|e| e <= self.frag_limit)
    }
}
