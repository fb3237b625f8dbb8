//! A block-layer simulator of the 4.4BSD Fast File System, built to
//! compare disk allocation policies.
//!
//! This crate is the core of the reproduction of Smith & Seltzer,
//! *A Comparison of FFS Disk Allocation Policies* (USENIX 1996). It
//! implements the FFS allocation machinery — cylinder groups, fragments,
//! inodes, directories, the indirect-block cylinder-group switch — and the
//! two policies the paper compares:
//!
//! * [`AllocPolicy::Orig`]: the traditional allocator. One block at a
//!   time, preferred-successor first, otherwise the next free block in
//!   the map regardless of the size of the free region it sits in.
//! * [`AllocPolicy::Realloc`]: the same, plus McKusick's
//!   `ffs_reallocblks` pass that gathers each dirty cluster of logically
//!   sequential blocks and relocates it into a free cluster of the
//!   appropriate size before it reaches the disk.
//!
//! The simulator tracks only allocation state (no file contents), which is
//! exactly what the paper's metrics need: layout scores are functions of
//! block addresses, and the timing model consumes block addresses.
//!
//! # Examples
//!
//! ```
//! use ffs::{AllocPolicy, Filesystem};
//! use ffs_types::{FsParams, KB};
//!
//! let mut fs = Filesystem::new(FsParams::paper_502mb(), AllocPolicy::Realloc);
//! let dir = fs.mkdir().unwrap();
//! let ino = fs.create(dir, 56 * KB, 0).unwrap();
//! // On an empty file system a 56 KB file is one perfect cluster.
//! assert_eq!(fs.file(ino).unwrap().layout_score(fs.params()), Some(1.0));
//! ```

pub mod alloc;
pub mod cg;
pub mod check;
mod claims;
pub mod freespace;
pub mod fs;
pub mod geom;
pub mod inode;
pub mod layout;
pub mod relocate;
pub mod repair;
pub mod table;

pub use alloc::{realloc_windows, AllocPolicy, AllocStats, PLACEMENT_REVISION};
pub use cg::{CylGroup, FragRun};
pub use check::{assert_consistent, check, verify, Violation};
pub use freespace::{frag_space_stats, free_space_stats, FragSpaceStats, FreeSpaceStats};
pub use fs::{DirMeta, Filesystem, LayoutAgg};
pub use geom::Geometry;
pub use inode::FileMeta;
pub use layout::{layout_by_size, recompute_aggregate, size_bins_paper, SizeBinScore};
pub use repair::{inject_metadata_damage, inject_structural_damage, repair, RepairReport};
pub use table::{BlockList, Slab, SlabKey};
