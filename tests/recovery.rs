//! Crash-recovery integration tests: random metadata corruption must
//! always be repairable, and a power cut at *any* operation of a replay
//! must converge back onto the uninterrupted run's trajectory.
//!
//! These pin the invariant the fault model is built on: a torn update
//! damages only derived allocation state, the inode table stays intact,
//! and the repairing fsck rebuilds losslessly — so crash plus repair is
//! observationally equivalent to no crash at all.

use aging::{generate, replay, resume, AgingConfig, ReplayOptions, Workload};
use defrag::{DefragPolicy, DefragSpec};
use ffs::{check, inject_metadata_damage, repair, AllocPolicy, Filesystem, Violation};
use ffs_types::{FsParams, KB};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A deliberately small workload so the every-op crash sweep stays cheap.
fn tiny_workload(days: u32, seed: u64) -> (FsParams, Workload) {
    let params = FsParams::small_test();
    let mut config = AgingConfig::small_test(days, seed);
    // A skeleton population and a low utilization target keep the
    // every-op sweep affordable; the churn mix is unchanged.
    config.initial_util = 0.05;
    config.plateau_util = 0.10;
    config.peak_util = 0.15;
    config.short_pairs_per_day = 8.0;
    config.long_creates_per_day = 4.0;
    config.long_modifies_per_day = 3.0;
    config.rewrites_per_day = 3.0;
    let w = generate(&config, params.ncg, params.data_capacity_bytes());
    (params, w)
}

/// Ages a file system with a seeded mix of creates, deletes, modifies,
/// and rewrites — enough churn to make the allocation maps interesting.
fn scripted_fs(seed: u64) -> Filesystem {
    let mut fs = Filesystem::new(FsParams::small_test(), AllocPolicy::Realloc);
    let dirs = fs.mkdir_per_cg().expect("mkdir per group");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut live = Vec::new();
    for day in 0..120u32 {
        match rng.gen_range(0..5) {
            0 | 1 => {
                let dir = dirs[rng.gen_range(0..dirs.len())];
                let size = rng.gen_range(1..200 * KB);
                if let Ok(ino) = fs.create(dir, size, day) {
                    live.push(ino);
                }
            }
            2 => {
                if !live.is_empty() {
                    let ino = live.swap_remove(rng.gen_range(0..live.len()));
                    fs.remove(ino).expect("remove live file");
                }
            }
            3 => {
                // Modify: the file is removed and created afresh at a
                // new size in its directory, as `diff_to_workload` replays it.
                if !live.is_empty() {
                    let ino = live.swap_remove(rng.gen_range(0..live.len()));
                    let dir = fs.file(ino).expect("live file").dir;
                    fs.remove(ino).expect("remove live file");
                    if let Ok(ino) = fs.create(dir, rng.gen_range(1..200 * KB), day) {
                        live.push(ino);
                    }
                }
            }
            _ => {
                if !live.is_empty() {
                    let ino = live[rng.gen_range(0..live.len())];
                    fs.rewrite(ino, day).expect("rewrite live file");
                }
            }
        }
    }
    fs
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 96, ..ProptestConfig::default() })]

    /// Any seeded torn-update corruption, of any intensity, repairs back
    /// to a clean check — and without losing a single file, because the
    /// damage model only touches derived state.
    #[test]
    fn random_corruption_always_repairs(seed in any::<u64>(), hits in 1u32..12) {
        let mut fs = scripted_fs(seed);
        let applied = inject_metadata_damage(&mut fs, seed ^ 0xD00F_D00F, hits);
        prop_assert!(applied > 0);
        let nfiles = fs.nfiles();
        let report = repair(&mut fs);
        prop_assert!(check(&fs).is_empty(), "repair must converge");
        prop_assert!(report.files_removed.is_empty(), "derived-only damage is lossless");
        prop_assert_eq!(fs.nfiles(), nfiles);
        // Repair is idempotent: a second pass finds nothing.
        prop_assert!(repair(&mut fs).was_clean());
    }
}

#[test]
fn crash_at_every_op_converges() {
    // The sweep, once per allocator configuration whose torn updates look
    // different: the default, best-fit fragments (other partial blocks
    // in flight), and a nightly defragmenter relocating blocks between
    // the days' ops (under the old policy, on a workload seed that leaves
    // it work to do).
    let option_sets = [
        (
            "default",
            AllocPolicy::Realloc,
            ReplayOptions::default(),
            1996,
        ),
        (
            "frag_bestfit",
            AllocPolicy::Realloc,
            ReplayOptions {
                frag_bestfit: true,
                ..ReplayOptions::default()
            },
            1996,
        ),
        (
            "defrag greedy/200",
            AllocPolicy::Orig,
            ReplayOptions {
                defrag: Some(DefragSpec::new(DefragPolicy::Greedy, 200)),
                ..ReplayOptions::default()
            },
            1998,
        ),
    ];
    for (label, policy, options, seed) in option_sets {
        let (params, w) = tiny_workload(2, seed);
        let total_ops: u64 = w.days.iter().map(|d| d.ops.len() as u64).sum();
        assert!(total_ops > 20, "workload too small to be interesting");
        let clean = replay(&w, &params, policy, options.clone()).unwrap();
        if options.defrag.is_some() {
            let moves: u64 = clean.daily.iter().map(|d| d.defrag_moves).sum();
            assert!(moves > 0, "{label}: the defragmenter never moved a block");
        }
        for at in 1..=total_ops {
            let crashed = replay(
                &w,
                &params,
                policy,
                ReplayOptions {
                    crash_after_ops: at,
                    crash_damage_seed: 0xBAD ^ at,
                    ..options.clone()
                },
            )
            .unwrap();
            let c = crashed.crash.as_ref().expect("crash fired");
            assert_eq!(c.at_op, at);
            assert!(
                c.repair.files_removed.is_empty(),
                "{label}: crash at op {at} lost files"
            );
            assert!(check(&crashed.fs).is_empty());
            assert_eq!(
                crashed.daily, clean.daily,
                "{label}: daily series diverged at op {at}"
            );
            assert_eq!(
                crashed.fs.aggregate_layout(),
                clean.fs.aggregate_layout(),
                "{label}: final layout diverged crashing at op {at}"
            );
        }
    }
}

#[test]
fn crash_then_checkpoint_then_resume_converges() {
    // The full robustness pipeline in one run: a power cut mid-replay is
    // repaired, a checkpoint is cut afterwards, and a second process
    // resumes from it — landing exactly where the clean run lands.
    let (params, w) = tiny_workload(4, 7);
    let clean = replay(&w, &params, AllocPolicy::Orig, ReplayOptions::default()).unwrap();
    let crashed = replay(
        &w,
        &params,
        AllocPolicy::Orig,
        ReplayOptions {
            crash_after_ops: 9,
            checkpoint_every_days: 2,
            ..ReplayOptions::default()
        },
    )
    .unwrap();
    assert!(crashed.crash.is_some());
    let ck = aging::Checkpoint::from_text(&crashed.checkpoints[0].to_text()).unwrap();
    assert_eq!(ck.day, 1);
    let resumed = resume(
        &w,
        &params,
        AllocPolicy::Orig,
        ReplayOptions::default(),
        &ck,
    )
    .unwrap();
    assert!(check(&resumed.fs).is_empty());
    assert_eq!(&clean.daily[2..], &resumed.daily[..]);
    assert_eq!(clean.fs.aggregate_layout(), resumed.fs.aggregate_layout());
    assert_eq!(clean.live, resumed.live);
}

#[test]
fn digest_survives_clone_restore_and_slab_index_repair() {
    // The file table packs its values in insert/remove order; nothing a
    // digest reads may depend on that order, or on how the table was
    // reached.
    let params = FsParams::small_test();
    let config = AgingConfig::small_test(30, 1996);
    let w = generate(&config, params.ncg, params.data_capacity_bytes());
    let aged = replay(&w, &params, AllocPolicy::Realloc, ReplayOptions::default())
        .unwrap()
        .fs;
    assert!(aged.nfiles() > 50, "replay left too few files to matter");
    let digest = aged.digest();
    assert_eq!(aged.clone().digest(), digest);

    // Restored from its own inode table: the same files, inserted in
    // ascending inode order instead of replay order.
    let mut back = Filesystem::restore(
        params.clone(),
        aged.policy(),
        aged.dirs().cloned().collect(),
        aged.files().cloned().collect(),
        aged.bytes_written(),
    )
    .unwrap();
    back.set_rotors(&aged.rotors()).unwrap();
    assert_eq!(back.digest(), digest);

    // Damage kind 7 alone: a seed whose single hit tears the file
    // table's index and nothing else.
    let mut torn = (0..256)
        .find_map(|seed| {
            let mut fs = aged.clone();
            inject_metadata_damage(&mut fs, seed, 1);
            matches!(check(&fs)[..], [Violation::SlabIndexDrift { .. }]).then_some(fs)
        })
        .expect("a seed that draws the slab-index damage");
    let report = repair(&mut torn);
    assert!(report.rebuilt && report.files_removed.is_empty());
    assert!(check(&torn).is_empty());
    assert_eq!(torn.digest(), digest);
}
