//! The benchmark's own copy of the inline day loop.
//!
//! `aging::replay` is one opaque call, so the traced run replays the
//! same workload through this loop instead — `Filesystem::{create,
//! remove, rewrite}` plus `LiveMap`, op for op what the library does —
//! with a clock around every file-system call. It must end at the
//! library's `Filesystem::digest()`; the traced run and the tests check
//! that it does. Without the clock it is the bare loop the library's
//! overhead is measured against.

use std::time::Instant;

use aging::{LiveMap, Op, Workload};
use ffs::{AllocPolicy, Filesystem};
use ffs_types::{FsError, FsParams, FsResult};

use crate::trace::Tracer;

/// Per-op host timings of one or more replays.
#[derive(Clone, Debug, Default)]
pub struct OpTimes {
    /// Every `create` call's duration in nanoseconds, in call order
    /// (kept per call for the p99).
    pub create_ns: Vec<u32>,
    /// `remove` calls.
    pub remove_calls: u64,
    /// Total time in `remove`, nanoseconds.
    pub remove_ns: u64,
    /// `rewrite` calls.
    pub rewrite_calls: u64,
    /// Total time in `rewrite`, nanoseconds.
    pub rewrite_ns: u64,
}

impl OpTimes {
    /// Total time in `create`, nanoseconds.
    pub fn create_total_ns(&self) -> u64 {
        self.create_ns.iter().map(|&n| n as u64).sum()
    }
}

/// Where a replay ended.
pub struct BareReplay {
    /// The aged file system.
    pub fs: Filesystem,
    /// Creates skipped for lack of space.
    pub skipped: u64,
    /// Aggregate layout score at the end of every day.
    pub layout_by_day: Vec<f64>,
}

/// Replays `w` on a fresh file system. With `times`, every file-system
/// call is clocked and each day becomes an `aging.day` span holding one
/// aggregate child per op kind.
pub fn bare_replay(
    w: &Workload,
    params: &FsParams,
    policy: AllocPolicy,
    frag_bestfit: bool,
    tr: &mut Tracer,
    times: Option<&mut OpTimes>,
) -> FsResult<BareReplay> {
    match times {
        Some(t) => run::<true>(w, params, policy, frag_bestfit, tr, t),
        None => run::<false>(w, params, policy, frag_bestfit, tr, &mut OpTimes::default()),
    }
}

fn run<const TIMED: bool>(
    w: &Workload,
    params: &FsParams,
    policy: AllocPolicy,
    frag_bestfit: bool,
    tr: &mut Tracer,
    times: &mut OpTimes,
) -> FsResult<BareReplay> {
    let mut fs = Filesystem::new(params.clone(), policy);
    fs.set_frag_bestfit(frag_bestfit);
    let dirs = fs.mkdir_per_cg()?;
    let mut live = LiveMap::new();
    let mut skipped = 0u64;
    let mut layout_by_day = Vec::with_capacity(w.days.len());
    for day_log in &w.days {
        let day = day_log.day;
        tr.span("aging.day", |tr| -> FsResult<()> {
            let creates_before = times.create_ns.len();
            let (removes_before, remove_ns_before) = (times.remove_calls, times.remove_ns);
            let (rewrites_before, rewrite_ns_before) = (times.rewrite_calls, times.rewrite_ns);
            for op in &day_log.ops {
                match *op {
                    Op::Create { file, cg, size, .. } => {
                        let dir = dirs[cg.0 as usize];
                        let t = TIMED.then(Instant::now);
                        let res = fs.create(dir, size, day);
                        if let Some(t) = t {
                            times.create_ns.push(t.elapsed().as_nanos() as u32);
                        }
                        match res {
                            Ok(ino) => {
                                live.insert(file, ino);
                            }
                            Err(FsError::NoSpace { .. }) => skipped += 1,
                            Err(e) => return Err(e),
                        }
                    }
                    Op::Delete { file } => {
                        if let Some(ino) = live.remove(&file) {
                            let t = TIMED.then(Instant::now);
                            fs.remove(ino)?;
                            if let Some(t) = t {
                                times.remove_ns += t.elapsed().as_nanos() as u64;
                                times.remove_calls += 1;
                            }
                        }
                    }
                    Op::Rewrite { file } => {
                        if let Some(ino) = live.get(&file) {
                            let t = TIMED.then(Instant::now);
                            fs.rewrite(ino, day)?;
                            if let Some(t) = t {
                                times.rewrite_ns += t.elapsed().as_nanos() as u64;
                                times.rewrite_calls += 1;
                            }
                        }
                    }
                }
            }
            if TIMED {
                let created = &times.create_ns[creates_before..];
                tr.aggregate(
                    "ffs.create",
                    created.len() as u64,
                    created.iter().map(|&n| n as u64).sum(),
                );
                tr.aggregate(
                    "ffs.remove",
                    times.remove_calls - removes_before,
                    times.remove_ns - remove_ns_before,
                );
                tr.aggregate(
                    "ffs.rewrite",
                    times.rewrite_calls - rewrites_before,
                    times.rewrite_ns - rewrite_ns_before,
                );
            }
            Ok(())
        })?;
        layout_by_day.push(fs.aggregate_layout().score());
    }
    Ok(BareReplay {
        fs,
        skipped,
        layout_by_day,
    })
}

/// Replays only the `LiveMap` traffic of `w` (insert on create, remove
/// on delete, lookup on rewrite) and returns the ops applied. Inode
/// numbers are made up; the map does not care.
pub fn livemap_only(w: &Workload) -> u64 {
    let mut live = LiveMap::new();
    let mut next = 0u32;
    let mut ops = 0u64;
    for day_log in &w.days {
        for op in &day_log.ops {
            match *op {
                Op::Create { file, .. } => {
                    live.insert(file, ffs_types::Ino(next));
                    next = (next + 1) % (1 << 30);
                }
                Op::Delete { file } => {
                    std::hint::black_box(live.remove(&file));
                }
                Op::Rewrite { file } => {
                    std::hint::black_box(live.get(&file));
                }
            }
            ops += 1;
        }
    }
    std::hint::black_box(live.len());
    ops
}

#[cfg(test)]
mod tests {
    use super::*;
    use aging::{generate, replay, AgingConfig, ReplayOptions};

    fn small_workload() -> (FsParams, Workload) {
        let params = FsParams::small_test();
        let config = AgingConfig::small_test(20, 1996);
        let w = generate(&config, params.ncg, params.data_capacity_bytes());
        (params, w)
    }

    #[test]
    fn bare_loop_is_digest_equal_to_the_library_replay() {
        let (params, w) = small_workload();
        for policy in [AllocPolicy::Orig, AllocPolicy::Realloc] {
            let lib = replay(&w, &params, policy, ReplayOptions::default()).unwrap();
            // Untimed and timed variants are the same loop.
            let bare = bare_replay(&w, &params, policy, false, &mut Tracer::off(), None).unwrap();
            let mut times = OpTimes::default();
            let mut tr = Tracer::on();
            let timed = bare_replay(&w, &params, policy, false, &mut tr, Some(&mut times)).unwrap();
            for r in [&bare, &timed] {
                assert_eq!(r.fs.digest(), lib.fs.digest(), "{policy:?}");
                assert_eq!(r.fs.nfiles(), lib.live.len());
                assert_eq!(r.skipped, lib.skipped_creates);
                assert_eq!(r.fs.alloc_stats(), lib.fs.alloc_stats());
                let lib_layout: Vec<f64> = lib.daily.iter().map(|d| d.layout_score).collect();
                assert_eq!(r.layout_by_day, lib_layout);
            }
            // One span per day, and the per-kind aggregates add up to
            // the calls the clock saw.
            let days = tr.spans().iter().filter(|s| s.name == "aging.day").count();
            assert_eq!(days, w.days.len());
            let calls = |name: &str| -> u64 {
                tr.spans()
                    .iter()
                    .filter(|s| s.name == name)
                    .map(|s| s.calls)
                    .sum()
            };
            assert_eq!(calls("ffs.create"), times.create_ns.len() as u64);
            assert_eq!(calls("ffs.remove"), times.remove_calls);
            assert_eq!(calls("ffs.rewrite"), times.rewrite_calls);
            assert!(times.create_total_ns() > 0);
        }
    }

    #[test]
    fn bare_loop_honours_best_fit_fragments() {
        let (params, w) = small_workload();
        let lib = replay(
            &w,
            &params,
            AllocPolicy::Realloc,
            ReplayOptions {
                frag_bestfit: true,
                ..ReplayOptions::default()
            },
        )
        .unwrap();
        let bare = bare_replay(
            &w,
            &params,
            AllocPolicy::Realloc,
            true,
            &mut Tracer::off(),
            None,
        )
        .unwrap();
        assert_eq!(bare.fs.digest(), lib.fs.digest());
    }

    #[test]
    fn livemap_probe_applies_every_op() {
        let (_, w) = small_workload();
        assert_eq!(livemap_only(&w), crate::common::ops_of(&w));
    }
}
