//! Checkpoint compatibility across the slab refactor.
//!
//! `fixtures/checkpoint_v1_day9.txt` was written by the pre-slab code
//! (`BTreeMap` file tables, `Vec` block lists) from a 10-day small-test
//! replay, together with the digest of the file system it described.
//! The slab layout must parse it, rebuild the byte-identical file
//! system, and re-serialize the very same bytes. A fresh replay of the
//! same recipe no longer writes them: `ffs_blkpref` (at indirect regions,
//! then for every first block) and `ffs_hashalloc`'s offsets placed its
//! files elsewhere since, so its checkpoint is pinned by hash on its own.

use aging::{generate, replay, take_checkpoint, AgingConfig, Checkpoint, ReplayOptions};
use ffs::AllocPolicy;
use ffs_types::record::fnv1a;
use ffs_types::FsParams;

const FIXTURE: &str = include_str!("fixtures/checkpoint_v1_day9.txt");
const FIXTURE_DIGEST: &str = include_str!("fixtures/checkpoint_v1_day9.digest");

fn fixture_digest() -> u64 {
    FIXTURE_DIGEST.trim().parse().expect("digest fixture")
}

#[test]
fn old_format_checkpoint_restores_to_recorded_digest() {
    let ck = Checkpoint::from_text(FIXTURE).expect("pre-slab checkpoint parses");
    assert_eq!(ck.day, 9);
    let (fs, live) = ck
        .restore(FsParams::small_test(), AllocPolicy::Realloc)
        .expect("pre-slab checkpoint restores");
    assert_eq!(
        fs.digest(),
        fixture_digest(),
        "slab layout rebuilt a different file system than the pre-slab code recorded"
    );
    assert_eq!(live.len(), ck.live.len());
}

#[test]
fn restore_then_save_reproduces_the_old_bytes() {
    let ck = Checkpoint::from_text(FIXTURE).expect("parse");
    let (fs, live) = ck
        .restore(FsParams::small_test(), AllocPolicy::Realloc)
        .expect("restore");
    let again = take_checkpoint(&fs, &live, ck.day, ck.skipped_creates);
    assert_eq!(
        again.to_text(),
        FIXTURE,
        "slab iteration order changed the checkpoint's canonical serialization"
    );
}

#[test]
fn fresh_replay_writes_the_pinned_bytes() {
    // Same recipe the fixture was generated with, on today's code: the
    // day-9 checkpoint's text and the file system's digest.
    let params = FsParams::small_test();
    let config = AgingConfig::small_test(10, 42);
    let w = generate(&config, params.ncg, params.data_capacity_bytes());
    let r = replay(
        &w,
        &params,
        AllocPolicy::Realloc,
        ReplayOptions {
            checkpoint_every_days: 5,
            ..ReplayOptions::default()
        },
    )
    .expect("replay");
    let ck = r.checkpoints.last().expect("day-9 checkpoint");
    assert_eq!(ck.day, 9);
    let text = ck.to_text();
    assert_eq!(
        (text.len(), fnv1a(text.as_bytes())),
        (17_499, 0xde09_e12f_d383_5d9a)
    );
    assert_eq!(r.fs.digest(), 577_771_510_469_766_296);
}

#[test]
fn save_restore_digest_round_trip_under_slab_layout() {
    let params = FsParams::small_test();
    let config = AgingConfig::small_test(8, 7);
    let w = generate(&config, params.ncg, params.data_capacity_bytes());
    let r = replay(&w, &params, AllocPolicy::Realloc, ReplayOptions::default()).expect("replay");
    let ck = take_checkpoint(&r.fs, &r.live, 7, 0);
    let reparsed = Checkpoint::from_text(&ck.to_text()).expect("round trip");
    let (fs, live) = reparsed
        .restore(params, AllocPolicy::Realloc)
        .expect("restore");
    assert_eq!(fs.digest(), r.fs.digest());
    assert_eq!(live, r.live);
}
