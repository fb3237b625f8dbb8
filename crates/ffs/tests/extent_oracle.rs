//! Differential oracle for the extent write path.
//!
//! [`Filesystem::create`] takes a file's blocks an extent at a time: one
//! allocation decision, then every free block that follows it up to the
//! next point where the policy would do something other than take the
//! next block. [`naive::create_per_block`] is the loop that replaced —
//! one decision, one map transition and one `FsParams::dtog` per block.
//! Batching must never change a placement, so this suite drives both
//! through identical create/remove streams on small, nearly full volumes
//! and wants them indistinguishable after every operation: same result,
//! same `digest()`, same `AllocStats`, `==` cylinder groups.
//!
//! The streams are shaped to reach every boundary an extent has to stop
//! at: 1 KB blocks make `nindir` 256, so mid-sized files cross the
//! single- and the double-indirect switch and large ones a dozen
//! regions; the largest files cross the write-chunk (realloc flush)
//! boundary; oversized creates run out of space half-way and roll back.

use ffs::naive;
use ffs::{AllocPolicy, Filesystem};
use ffs_types::{CgIdx, DirId, FsError, FsParams, Ino, KB, MB};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// 12 MB of 1 KB blocks in four groups: `nindir` is 256 and a write
/// chunk 4096 blocks, a third of the volume.
fn tiny_blocks() -> FsParams {
    FsParams {
        size_bytes: 12 * MB,
        bsize: KB as u32,
        fsize: (KB / 8) as u32,
        ncg: 4,
        bytes_per_inode: 16 * KB as u32,
        ..FsParams::small_test()
    }
}

/// The two volumes the streams run on: [`tiny_blocks`] and the 16 MB
/// unit-test volume (8 KB blocks, a 512-block write chunk).
fn volume(tiny: bool) -> FsParams {
    if tiny {
        tiny_blocks()
    } else {
        FsParams::small_test()
    }
}

/// One policy variant: the allocation policy plus the three placement
/// switches.
#[derive(Clone, Copy, Debug)]
struct Variant {
    policy: AllocPolicy,
    cluster_first_fit: bool,
    realloc_no_split: bool,
    frag_bestfit: bool,
}

impl Variant {
    /// Variant number `i` of the sixteen.
    fn nth(i: u32) -> Variant {
        Variant {
            policy: if i & 1 == 0 {
                AllocPolicy::Orig
            } else {
                AllocPolicy::Realloc
            },
            cluster_first_fit: i & 2 != 0,
            realloc_no_split: i & 4 != 0,
            frag_bestfit: i & 8 != 0,
        }
    }

    fn mkfs(self, params: FsParams) -> (Filesystem, Vec<DirId>) {
        let mut fs = Filesystem::new(params, self.policy);
        fs.set_cluster_first_fit(self.cluster_first_fit);
        fs.set_realloc_no_split(self.realloc_no_split);
        fs.set_frag_bestfit(self.frag_bestfit);
        let dirs = fs.mkdir_per_cg().unwrap();
        (fs, dirs)
    }
}

/// What a stream reached, so the sweep can insist it reached everything.
#[derive(Default)]
struct Reached {
    no_space: u32,
    double_indirect: u32,
    past_write_chunk: u32,
}

/// Draws a file size: mostly small files with fragment tails, a good
/// share crossing the indirect switches, a few crossing the write chunk,
/// and now and then one that cannot fit in what is left.
fn draw_size(rng: &mut StdRng, fs: &Filesystem) -> u64 {
    let bsize = fs.params().bsize as u64;
    let chunk = (4 * MB / bsize).max(fs.params().maxcontig as u64);
    let blocks = match rng.gen_range(0u32..20) {
        0..=7 => rng.gen_range(0u64..12),
        8..=14 => rng.gen_range(12..320),
        15..=16 => rng.gen_range(320..1500),
        17..=18 => rng.gen_range(chunk - 40..chunk + 300),
        _ => fs.free_blocks() + rng.gen_range(1u64..50),
    };
    blocks * bsize + rng.gen_range(0..bsize)
}

/// Runs `ops` random creates and removes through both write paths and
/// compares them after each one.
fn run_stream(params: FsParams, variant: Variant, seed: u64, ops: u32, reached: &mut Reached) {
    let mut rng = StdRng::seed_from_u64(seed);
    let (mut extents, dirs) = variant.mkfs(params.clone());
    let (mut per_block, _) = variant.mkfs(params.clone());
    let chunk_bytes = (4 * MB).max(params.maxcontig as u64 * params.bsize as u64);
    let mut live: Vec<Ino> = Vec::new();
    for day in 0..ops {
        let what;
        // Keep the volume nearly full: delete mostly when space is short.
        let remove = !live.is_empty() && rng.gen_bool(0.3 + 0.4 * extents.utilization());
        if remove {
            let ino = live.swap_remove(rng.gen_range(0..live.len()));
            what = format!("remove {ino:?}");
            let (a, b) = (extents.remove(ino), per_block.remove(ino));
            assert_eq!(a, b, "{what}");
            a.expect("live file");
        } else {
            let dir = dirs[rng.gen_range(0..dirs.len())];
            let size = draw_size(&mut rng, &extents);
            what = format!("create of {size} bytes in {dir:?}");
            let a = extents.create(dir, size, day);
            let b = naive::create_per_block(&mut per_block, dir, size, day);
            assert_eq!(a, b, "{what}");
            match a {
                Ok(ino) => {
                    live.push(ino);
                    let f = extents.file(ino).unwrap();
                    reached.double_indirect += u32::from(f.indirects().len() >= 3);
                    reached.past_write_chunk += u32::from(size > chunk_bytes);
                }
                Err(FsError::NoSpace { .. }) => reached.no_space += 1,
                Err(e) => panic!("{what}: {e:?}"),
            }
        }
        let ctx = format!("after {what} (op {day}, seed {seed}, {variant:?})");
        assert_eq!(extents.digest(), per_block.digest(), "{ctx}");
        assert_eq!(extents.alloc_stats(), per_block.alloc_stats(), "{ctx}");
        for g in (0..params.ncg).map(CgIdx) {
            assert_eq!(extents.cg(g), per_block.cg(g), "{g:?} {ctx}");
        }
        assert_eq!(extents.aggregate_layout(), per_block.aggregate_layout());
    }
}

/// Every policy variant on both volumes, with proof that the streams
/// reached the boundaries they are there for.
#[test]
fn extents_equal_the_per_block_loop_under_every_variant() {
    for tiny in [true, false] {
        let mut reached = Reached::default();
        for i in 0..16 {
            let seed = 1996 + u64::from(i);
            run_stream(volume(tiny), Variant::nth(i), seed, 140, &mut reached);
        }
        assert!(reached.no_space > 0, "no create ran out of space");
        assert!(
            reached.past_write_chunk > 0,
            "no file crossed a write chunk"
        );
        if tiny {
            assert!(
                reached.double_indirect > 0,
                "no file reached the double indirect"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// Random seeds, random variants.
    #[test]
    fn extents_equal_the_per_block_loop(seed in any::<u64>(), i in 0u32..16, tiny in any::<bool>()) {
        run_stream(volume(tiny), Variant::nth(i), seed, 100, &mut Reached::default());
    }
}
