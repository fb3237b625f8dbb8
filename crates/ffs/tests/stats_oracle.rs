//! Differential oracle for the free-space statistics.
//!
//! [`ffs::free_space_stats`] walks each group's derived free-block
//! bitmap; the 4.4BSD reference (`bsd/mod.rs`) counts the same
//! statistics block by block from each group's `struct cg` bytes. This
//! suite drives random create/remove churn through the
//! whole filesystem stack on three geometries — 512-block groups
//! (`small_test`), 2920-block groups (`paper_502mb`), and 426-block
//! groups (a 10 MB, 3-group layout) — and holds the two bit-equal, plus
//! every group's derived state equal to its recount.

mod bsd;

use bsd::{encode_fs, Sb};
use ffs::{free_space_stats, AllocPolicy, Filesystem};
use ffs_types::{CgIdx, DirId, FsParams, Ino, KB, MB};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The 426/428-block geometry: small enough groups that churn crosses
/// group boundaries and exercises the last-group remainder.
fn mid_geometry() -> FsParams {
    FsParams {
        size_bytes: 10 * MB,
        ncg: 3,
        ..FsParams::small_test()
    }
}

/// The three group sizes the incremental stats must hold on.
fn geometries() -> [FsParams; 3] {
    [
        FsParams::small_test(),
        FsParams::paper_502mb(),
        mid_geometry(),
    ]
}

/// One random filesystem mutation: usually a create (mixed whole-block
/// and fragment-tail sizes), sometimes a remove of a random live file.
fn churn_once(fs: &mut Filesystem, dir: DirId, live: &mut Vec<Ino>, rng: &mut StdRng, day: u32) {
    if !live.is_empty() && rng.gen_range(0u32..10) < 4 {
        let victim = live.swap_remove(rng.gen_range(0..live.len()));
        fs.remove(victim).unwrap();
        return;
    }
    // Sizes span pure-fragment files, NDADDR files, and indirect files.
    let size = match rng.gen_range(0u32..10) {
        0..=3 => rng.gen_range(1..=8 * KB),
        4..=7 => rng.gen_range(1u64..=96) * KB + rng.gen_range(0..KB),
        _ => rng.gen_range(96u64..=160) * KB,
    };
    if let Ok(ino) = fs.create(dir, size, day) {
        live.push(ino);
    }
}

/// The free-space walk vs the reference's count, and every group's
/// derived state vs its recount, ours and the reference's.
fn assert_stats_exact(fs: &Filesystem) {
    let sb = Sb::new(fs.params());
    let cgs = encode_fs(&sb, fs);
    for hist_max in [0, 8, 16, 64, 4096] {
        assert_eq!(
            free_space_stats(fs, hist_max),
            bsd::free_space_stats(&sb, &cgs, hist_max),
            "free-space walk drifted from the reference (hist_max {hist_max})"
        );
    }
    for (g, r) in cgs.iter().enumerate() {
        let cg = fs.cg(CgIdx(g as u32));
        assert_eq!(cg.derived_drift(), [], "cg {g}: derived state drifted");
        assert_eq!(r.summary(), r.recount(), "cg {g}: summaries vs recount");
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, ..ProptestConfig::default() })]

    /// Random churn on every geometry, then the full differential check.
    #[test]
    fn incremental_stats_match_rescans_on_every_geometry(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        for params in geometries() {
            let policy = if rng.gen() { AllocPolicy::Realloc } else { AllocPolicy::Orig };
            let mut fs = Filesystem::new(params, policy);
            let dir = fs.mkdir().unwrap();
            let mut live = Vec::new();
            let ops = rng.gen_range(40usize..160);
            for day in 0..ops {
                churn_once(&mut fs, dir, &mut live, &mut rng, day as u32);
            }
            assert_stats_exact(&fs);
        }
    }

    /// The stats stay exact after *every* mutation on the small geometry
    /// — the step-by-step property the fsck drift check depends on.
    #[test]
    fn stats_track_every_mutation(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut fs = Filesystem::new(FsParams::small_test(), AllocPolicy::Realloc);
        let dir = fs.mkdir().unwrap();
        let mut live = Vec::new();
        for day in 0..48u32 {
            churn_once(&mut fs, dir, &mut live, &mut rng, day);
            assert_stats_exact(&fs);
        }
    }
}

#[test]
fn rescans_agree_on_a_deterministic_aging_run() {
    // A fixed mixed workload on the mid geometry, checked densely: this
    // pins the oracle even when proptest shrinks away interesting cases.
    let mut rng = StdRng::seed_from_u64(1996);
    let mut fs = Filesystem::new(mid_geometry(), AllocPolicy::Orig);
    let dir = fs.mkdir().unwrap();
    let mut live = Vec::new();
    for day in 0..300u32 {
        churn_once(&mut fs, dir, &mut live, &mut rng, day);
        if day % 25 == 0 {
            assert_stats_exact(&fs);
        }
    }
    assert_stats_exact(&fs);
    assert!(fs.free_blocks() < fs.params().total_blocks() as u64);
    // Fixed volumes at the extremes: full to the last block, a fresh
    // one-group volume, a fresh one, and every other file removed.
    let small = FsParams::small_test();
    let mkfs = |p: &FsParams| Filesystem::new(p.clone(), AllocPolicy::Orig);
    let (mut full, mut holes) = (mkfs(&small), mkfs(&small));
    let d = full.mkdir().unwrap();
    while full.create(d, 8 * KB, 0).is_ok() {}
    let d = holes.mkdir().unwrap();
    let inos: Vec<_> = (0..40)
        .map(|day| holes.create(d, 8 * KB, day).unwrap())
        .collect();
    for ino in inos.into_iter().step_by(2) {
        holes.remove(ino).unwrap();
    }
    let one_group = FsParams {
        size_bytes: 4 * MB,
        ncg: 1,
        ..small.clone()
    };
    for fs in [full, mkfs(&one_group), mkfs(&small), holes] {
        assert_stats_exact(&fs);
    }
}
