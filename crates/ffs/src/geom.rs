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
//!
//! The fragment geometry is fixed at `FPB` = 8 fragments per block, as
//! in the 8 KB blocks of 1 KB fragments the paper ages and measures
//! (Table 1): a block's lane in a group's map is one byte, and a
//! block↔fragment conversion is a shift by a constant.

use ffs_types::{CgIdx, Daddr, FsParams, Ino};

/// Fragments per block (`fs_frag`), the only geometry supported.
pub(crate) const FPB: u32 = 8;

/// Fragments a directory holds: `ufs_mkdir`'s `.`/`..` template write
/// gets `fragroundup` of itself from `ffs_balloc`, one fragment.
pub const DIR_FRAGS: u32 = 1;

/// What the allocator needs to know about a volume's shape, as plain
/// numbers. A pure function of [`FsParams`]; it caches, it decides
/// nothing.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Geometry {
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
    ///
    /// # Panics
    ///
    /// Panics unless a block is 8 fragments.
    pub fn new(params: &FsParams) -> Geometry {
        assert!(
            params.fsize.checked_mul(FPB) == Some(params.bsize),
            "unsupported geometry: {} B blocks of {} B fragments ({FPB} fragments per block only)",
            params.bsize,
            params.fsize
        );
        Geometry {
            group_frags: params.blocks_per_cg() * FPB,
            last_cg: params.ncg - 1,
            frag_limit: params.total_blocks() * FPB,
            total_data_blocks: params.total_data_blocks(),
            inodes_per_cg: params.inodes_per_cg(),
        }
    }

    /// Fragments per block: always 8.
    pub fn frags_per_block(&self) -> u32 {
        FPB
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

    /// Whether `d .. d + FPB` is an aligned block inside the volume.
    pub fn is_block(&self, d: Daddr) -> bool {
        d.0.is_multiple_of(FPB) && d.0.checked_add(FPB).is_some_and(|e| e <= self.frag_limit)
    }

    /// Whether `d .. d + n` is a run shorter than a block inside one
    /// block of the volume: a tail's or a directory's claim.
    pub fn is_frag_run(&self, d: Daddr, n: u32) -> bool {
        let inside = d.0.checked_add(n).is_some_and(|e| e <= self.frag_limit);
        (1..FPB).contains(&n) && d.0 % FPB + n <= FPB && inside
    }
}
