//! The streaming primitives against the materialized entry points they
//! replaced as day loops: [`Days`] vs [`generate`], [`Replay`] vs
//! [`replay`] / [`resume`], [`SnapshotDiffer`] vs [`diff_to_workload`].
//! The folds are thin, so what these hold is the contract the streaming
//! callers lean on — state read between pushes, several consumers of one
//! stream, a resumed stream — not just the final answer.

use aging::{
    diff_to_workload, generate, profiles, replay, resume, AgingConfig, DayLog, Days, Replay,
    ReplayOptions, ReplayResult, SnapshotDiffer,
};
use defrag::{DefragPolicy, DefragSpec};
use ffs::AllocPolicy;
use ffs_types::FsParams;

fn small() -> (FsParams, AgingConfig) {
    (FsParams::small_test(), AgingConfig::small_test(15, 42))
}

fn days_of(params: &FsParams, config: &AgingConfig) -> Days {
    Days::new(config, params.ncg, params.data_capacity_bytes())
}

/// Every field of two results, the file system by digest.
fn assert_same(a: &ReplayResult, b: &ReplayResult, what: &str) {
    assert_eq!(a.fs.digest(), b.fs.digest(), "{what}: fs");
    assert_eq!(a.daily, b.daily, "{what}: daily");
    assert_eq!(a.live, b.live, "{what}: live");
    assert_eq!(a.skipped_creates, b.skipped_creates, "{what}: skipped");
    assert_eq!(a.snapshots, b.snapshots, "{what}: snapshots");
    assert_eq!(a.checkpoints, b.checkpoints, "{what}: checkpoints");
    assert_eq!(a.crash, b.crash, "{what}: crash");
}

/// Pushes a generated stream through `r`, reading the replay's state
/// between days the way `run_shard` and `snapval` do.
fn push_all(mut r: Replay, days: Days) -> ReplayResult {
    let mut ops = 0u64;
    for day in days {
        r.day(&day).expect("day replays");
        ops += day.ops.len() as u64;
        assert_eq!(r.ops(), ops);
        let last = r.last().expect("a day was recorded");
        assert_eq!(last.day, day.day);
        assert_eq!(last.nfiles, r.fs().nfiles());
    }
    r.finish()
}

#[test]
fn days_collect_to_the_generated_workload() {
    let paper = FsParams::paper_502mb();
    let mut configs = vec![(FsParams::small_test(), AgingConfig::small_test(20, 11))];
    let mut short_paper = AgingConfig::paper(1996);
    short_paper.days = 12;
    configs.push((paper.clone(), short_paper));
    for p in profiles::all(7).into_iter().chain(profiles::smallfile(7)) {
        let mut c = p.config;
        c.days = 6;
        c.ramp_days = 2;
        configs.push((paper.clone(), c));
    }
    assert_eq!(configs.len(), 9, "paper, small_test, seven profiles");
    for (params, config) in &configs {
        let w = generate(config, params.ncg, params.data_capacity_bytes());
        assert_eq!(w.days.len(), config.days as usize);
        // Two streams stepped alternately share nothing and both land on
        // the collected workload; the hint is exact and the end sticks.
        let (mut a, mut b) = (days_of(params, config), days_of(params, config));
        for (i, want) in w.days.iter().enumerate() {
            let left = w.days.len() - i;
            assert_eq!(a.size_hint(), (left, Some(left)));
            assert_eq!(a.next().as_ref(), Some(want), "day {i}");
            assert_eq!(b.next().as_ref(), Some(want), "day {i}, second stream");
        }
        assert_eq!(a.next(), None);
        assert_eq!(a.next(), None);
    }
}

#[test]
fn replay_pushed_by_the_day_equals_replay() {
    let (params, config) = small();
    let w = generate(&config, params.ncg, params.data_capacity_bytes());
    let nightly = || ReplayOptions {
        snapshot_every_days: 1,
        checkpoint_every_days: 4,
        verify_every_days: 5,
        defrag: Some(DefragSpec::new(DefragPolicy::Greedy, 200)),
        ..ReplayOptions::default()
    };
    let crashing = || ReplayOptions {
        crash_after_ops: 123,
        verify_every_days: 5,
        ..ReplayOptions::default()
    };
    let cases: [(&str, &dyn Fn() -> ReplayOptions); 3] = [
        ("default", &ReplayOptions::default),
        ("nightly jobs", &nightly),
        ("crash", &crashing),
    ];
    for (what, options) in cases {
        for policy in [AllocPolicy::Orig, AllocPolicy::Realloc] {
            let whole = replay(&w, &params, policy, options()).unwrap();
            let pushed = push_all(
                Replay::new(&params, policy, options()).unwrap(),
                days_of(&params, &config),
            );
            assert_same(&pushed, &whole, what);
        }
    }
    assert!(replay(&w, &params, AllocPolicy::Orig, crashing())
        .unwrap()
        .crash
        .is_some());
}

#[test]
fn resume_from_skips_the_days_its_checkpoint_covers() {
    let (params, config) = small();
    let w = generate(&config, params.ncg, params.data_capacity_bytes());
    let full = replay(
        &w,
        &params,
        AllocPolicy::Realloc,
        ReplayOptions {
            checkpoint_every_days: 6,
            ..ReplayOptions::default()
        },
    )
    .unwrap();
    let ck = &full.checkpoints[0];
    assert_eq!(ck.day, 5);
    let options = || ReplayOptions {
        verify_every_days: 3,
        ..ReplayOptions::default()
    };
    let whole = resume(&w, &params, AllocPolicy::Realloc, options(), ck).unwrap();
    // The stream starts at day 0 like any other; the replay drops days
    // 0..=5 without counting their ops.
    let mut r = Replay::resume_from(&params, AllocPolicy::Realloc, options(), ck).unwrap();
    for day in days_of(&params, &config) {
        r.day(&day).unwrap();
        assert_eq!(r.last().is_some(), day.day > 5, "day {}", day.day);
    }
    let resumed_ops: usize = w.days[6..].iter().map(|d| d.ops.len()).sum();
    assert_eq!(r.ops(), resumed_ops as u64);
    let pushed = r.finish();
    assert_same(&pushed, &whole, "resume");
    assert_eq!(pushed.daily, full.daily[6..]);
    assert_eq!(pushed.fs.digest(), full.fs.digest());
}

#[test]
fn two_replays_in_lockstep_equal_two_separate_replays() {
    let (params, config) = small();
    let w = generate(&config, params.ncg, params.data_capacity_bytes());
    let policies = [AllocPolicy::Orig, AllocPolicy::Realloc];
    let mut pair = policies.map(|p| Replay::new(&params, p, ReplayOptions::default()).unwrap());
    for day in days_of(&params, &config) {
        for r in &mut pair {
            r.day(&day).unwrap();
        }
    }
    for (r, policy) in pair.into_iter().zip(policies) {
        let whole = replay(&w, &params, policy, ReplayOptions::default()).unwrap();
        assert_eq!(
            r.ops(),
            w.days.iter().map(|d| d.ops.len() as u64).sum::<u64>()
        );
        assert_same(&r.finish(), &whole, policy.label());
    }
}

#[test]
fn snapshots_diffed_as_they_are_taken_equal_the_diffed_series() {
    let (params, config) = small();
    let w = generate(&config, params.ncg, params.data_capacity_bytes());
    let nightly = replay(
        &w,
        &params,
        AllocPolicy::Orig,
        ReplayOptions {
            snapshot_every_days: 1,
            ..ReplayOptions::default()
        },
    )
    .unwrap();
    let whole = diff_to_workload(
        &nightly.snapshots,
        &config,
        params.ncg,
        params.data_capacity_bytes(),
    );
    // One snapshot alive at a time: taken, diffed, dropped.
    let mut differ = SnapshotDiffer::new(&config, params.ncg);
    let mut r = Replay::new(&params, AllocPolicy::Orig, ReplayOptions::default()).unwrap();
    let mut derived: Vec<DayLog> = Vec::new();
    for day in days_of(&params, &config) {
        r.day(&day).unwrap();
        derived.push(differ.push(&aging::take_snapshot(r.fs(), day.day)));
    }
    assert_eq!(derived, whole.days);
    assert!(derived[1..].iter().any(|d| !d.ops.is_empty()));
}
