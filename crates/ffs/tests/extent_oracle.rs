//! Differential oracle for the extent write path.
//!
//! [`Filesystem::create`] takes a file's blocks an extent at a time: one
//! allocation decision, then every free block that follows it up to the
//! next point where the policy would do something other than take the
//! next block. The 4.4BSD reference (`bsd/mod.rs`) creates the same file
//! one block at a time, in `ffs_balloc` order: `ffs_blkpref`,
//! `ffs_alloc`, `ffs_reallocblks` at each write-chunk flush, the tail
//! through the fragment path. Batching must never change a placement, so
//! this suite drives both through identical create/remove streams on
//! small, nearly full volumes and wants them indistinguishable after
//! every operation: the same file (inode, blocks, indirects, tail), the
//! same `struct cg` bytes (rotors and summaries included) and the same
//! `AllocStats` (block and fragment allocations, preference hits, group
//! spills, splits, realloc windows and moves). Every group the operation
//! changed must hold derived tables (the fit index among them) equal to
//! their recount, and the layout aggregate must equal its recount.
//!
//! The streams are shaped to reach every boundary an extent has to stop
//! at: 1 KB blocks make `nindir` 256, so mid-sized files cross the
//! single- and the double-indirect switch and large ones a dozen
//! regions; the largest files cross the write-chunk (realloc flush)
//! boundary; oversized creates run out of space half-way and roll back.

mod bsd;

use bsd::pair::{stream, tiny_blocks, variant};
use ffs_types::{FsParams, KB};
use proptest::prelude::*;

/// The two volumes the streams run on: [`tiny_blocks`] and the 16 MB
/// unit-test volume (8 KB blocks, a 512-block write chunk).
fn volume(tiny: bool) -> FsParams {
    if tiny {
        tiny_blocks()
    } else {
        FsParams::small_test()
    }
}

/// Every policy variant on both volumes, with proof that the streams
/// reached the boundaries they are there for.
#[test]
fn extents_equal_the_per_block_loop_under_every_variant() {
    for tiny in [true, false] {
        let (params, mut reached) = (volume(tiny), [0; 3]);
        for i in 0..4 {
            let run = (1996 + u64::from(i), 140);
            let res = stream(&params, i, run, &mut reached);
            res.unwrap_or_else(|e| panic!("variant {i} {:?}: {e}", variant(i)));
        }
        assert!(reached[0] > 0, "no create ran out of space");
        assert!(
            reached[1] > 0 || params.bsize > KB as u32,
            "no file reached the double indirect"
        );
        assert!(reached[2] > 0, "no file crossed a write chunk");
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// Random seeds, random variants.
    #[test]
    fn extents_equal_the_per_block_loop(seed in any::<u64>(), i in 0u32..4, tiny in any::<bool>()) {
        let res = stream(&volume(tiny), i, (seed, 100), &mut [0; 3]);
        res.unwrap_or_else(|e| panic!("seed {seed}, variant {i} {:?}: {e}", variant(i)));
    }
}
