//! Workload replay: apply an aging workload to a simulated file system
//! (Section 3.2 of the paper).
//!
//! The replayer creates one directory per cylinder group first (as the
//! paper's aging tool does), then applies each day's operations in time
//! order, recording the aggregate layout score and utilization at the end
//! of every simulated day — the data behind Figures 1 and 2.
//!
//! The replayer is push-style: a [`Replay`] takes one [`DayLog`] at a
//! time, so a workload can be replayed as it is generated and the caller
//! can read the file system between days. [`replay`] and [`resume`] are
//! the same thing looped over a materialized [`Workload`].
//!
//! Two robustness hooks ride along for long runs:
//!
//! * **Crash injection** ([`ReplayOptions::crash_after_ops`]) simulates a
//!   power cut mid-replay: after the `n`-th operation the derived
//!   allocation state is scrambled the way a torn metadata flush would
//!   leave it ([`ffs::inject_metadata_damage`]), the repairing fsck
//!   ([`ffs::repair()`]) is run, and the replay resumes on the repaired
//!   file system. The [`CrashReport`] in the result records what broke
//!   and what the repair did.
//! * **Checkpointing** ([`ReplayOptions::checkpoint_every_days`]) captures
//!   a [`Checkpoint`] at end of day, from which [`Replay::resume_from`]
//!   continues the same workload in a later process.

use ffs_types::record::{push_num, Fields};
use ffs_types::{DirId, FsError, FsParams, FsResult, Ino};

use ffs::{inject_metadata_damage, repair, AllocPolicy, Filesystem, RepairReport};

use crate::checkpoint::{take_checkpoint, Checkpoint};
use crate::livemap::LiveMap;
use crate::workload::{DayLog, Op, Workload};

/// End-of-day measurements.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DayStats {
    /// Day index.
    pub day: u32,
    /// Aggregate layout score at the end of the day.
    pub layout_score: f64,
    /// Utilization (fraction of allocatable space in use).
    pub utilization: f64,
    /// Live files.
    pub nfiles: usize,
    /// Cumulative bytes written since mkfs.
    pub bytes_written: u64,
    /// Block relocations the day's defragmentation pass executed (0
    /// when no defragmenter is configured).
    pub defrag_moves: u64,
    /// Mechanical disk time the day's defragmentation pass cost, in
    /// microseconds.
    pub defrag_cost_us: u64,
}

impl DayStats {
    /// Renders the day as one whitespace-separated record line. Floats
    /// use Rust's shortest round-trip `Display`, so
    /// [`DayStats::from_record`] reproduces the value bit for bit — a
    /// cached aging artifact replays Figures 1 and 2 byte-identically.
    pub fn to_record(&self) -> String {
        let mut s = String::new();
        self.push_record(&mut s);
        s
    }

    /// Appends [`DayStats::to_record`]'s line (without a newline) to
    /// `out`.
    pub fn push_record(&self, out: &mut String) {
        use std::fmt::Write as _;
        push_num(out, self.day.into());
        let _ = write!(out, " {} {}", self.layout_score, self.utilization);
        let counts = [
            self.nfiles as u64,
            self.bytes_written,
            self.defrag_moves,
            self.defrag_cost_us,
        ];
        for n in counts {
            out.push(' ');
            push_num(out, n);
        }
    }

    /// Parses a line produced by [`DayStats::to_record`].
    pub fn from_record(line: &str) -> Result<DayStats, String> {
        let mut f = Fields::new(line, 1);
        let stats = DayStats::from_fields(&mut f)?;
        f.end()?;
        Ok(stats)
    }

    /// Reads the seven fields of a day record from a cursor already
    /// inside a line (the `.aged` artifact's `daily <record>`).
    pub fn from_fields(f: &mut Fields) -> Result<DayStats, String> {
        Ok(DayStats {
            day: f.num("day")?,
            layout_score: f.num("layout score")?,
            utilization: f.num("utilization")?,
            nfiles: f.num("nfiles")?,
            bytes_written: f.num("bytes written")?,
            defrag_moves: f.num("defrag moves")?,
            defrag_cost_us: f.num("defrag cost")?,
        })
    }
}

/// What an injected crash broke and what the repair did about it.
#[derive(Clone, Debug, PartialEq)]
pub struct CrashReport {
    /// Global operation count at which the crash hit (1-based).
    pub at_op: u64,
    /// Workload day the crash interrupted.
    pub day: u32,
    /// Metadata perturbations the torn update applied.
    pub damage_hits: u32,
    /// The repairing fsck's account of the recovery.
    pub repair: RepairReport,
}

/// Result of replaying a workload.
#[derive(Clone, Debug)]
pub struct ReplayResult {
    /// Per-day series.
    pub daily: Vec<DayStats>,
    /// The aged file system.
    pub fs: Filesystem,
    /// Mapping from workload file ids to the inodes of still-live files.
    pub live: LiveMap,
    /// Creates skipped because the file system was out of space (should
    /// be zero for a well-calibrated workload).
    pub skipped_creates: u64,
    /// Nightly snapshots, when requested via
    /// [`ReplayOptions::snapshot_every_days`].
    pub snapshots: Vec<crate::snapshot::Snapshot>,
    /// Checkpoints taken via [`ReplayOptions::checkpoint_every_days`].
    pub checkpoints: Vec<Checkpoint>,
    /// Record of the injected crash and its repair, when
    /// [`ReplayOptions::crash_after_ops`] fired.
    pub crash: Option<CrashReport>,
}

/// Options controlling a replay.
#[derive(Clone, Debug)]
pub struct ReplayOptions {
    /// Run the full consistency checker every `n` days (0 = never); a
    /// violation ends the replay with [`FsError::Corrupt`].
    pub verify_every_days: u32,
    /// Ablation: restore the 4.4BSD first-fit-from-preference cluster
    /// search instead of the windowed best fit (see DESIGN.md).
    pub cluster_first_fit: bool,
    /// Ablation: leave a realloc window in place when no full-length
    /// cluster exists, instead of gathering it into two smaller ones.
    pub realloc_no_split: bool,
    /// Fragment placement: `true` uses the `cg_frsum`-guided best-fit
    /// fragment search instead of the historical first fit (see
    /// DESIGN.md).
    pub frag_bestfit: bool,
    /// Take a nightly snapshot every `n` days (0 = never) and return the
    /// series in [`ReplayResult::snapshots`] — the paper's collection
    /// job.
    pub snapshot_every_days: u32,
    /// Capture a resumable [`Checkpoint`] every `n` days (0 = never) into
    /// [`ReplayResult::checkpoints`].
    pub checkpoint_every_days: u32,
    /// Simulate a power cut after this many operations (0 = never):
    /// derived metadata is damaged as by a torn flush, the repairing fsck
    /// runs, and the replay resumes. At most one crash fires per run.
    pub crash_after_ops: u64,
    /// Seed for the crash's metadata-damage pattern.
    pub crash_damage_seed: u64,
    /// Budgeted online defragmentation: when set, an idle-time pass runs
    /// at the end of every day's operations, spending at most
    /// `moves_per_day` block relocations through the safe
    /// `ffs` primitive and charging each move's mechanical cost to the
    /// spec's disk model. Pass state (the device clock and
    /// the scrub policy's sweep cursor) lives for the duration of one
    /// replay and is not in a [`Checkpoint`], so [`resume`] rejects a
    /// defragmenting option set with [`FsError::InvalidArg`] rather
    /// than silently diverge from the uninterrupted run.
    pub defrag: Option<defrag::DefragSpec>,
    /// Inert: nothing in the workspace reads it — replay has exactly
    /// one day loop, the inline one. The field survives the removal of
    /// intra-volume parallel replay only because the frozen
    /// `benchmark/src/layers.rs` names it in a struct literal; it goes
    /// together with that file's `ffs.parallel.t2_speedup` row.
    pub threads: usize,
}

impl Default for ReplayOptions {
    fn default() -> Self {
        ReplayOptions {
            verify_every_days: 0,
            cluster_first_fit: false,
            realloc_no_split: false,
            frag_bestfit: false,
            snapshot_every_days: 0,
            checkpoint_every_days: 0,
            crash_after_ops: 0,
            crash_damage_seed: 0xC4A5_11ED,
            defrag: None,
            threads: 1,
        }
    }
}

/// A per-day observer for [`replay_tapped`]: called once at the end of
/// every replayed day with the file system in its end-of-day state and
/// the [`DayStats`] just recorded for it. The tap only reads — it cannot
/// change what the replay produces — so a tapped replay's
/// [`ReplayResult`] is byte-identical to an untapped one.
pub type DayTap<'a> = dyn FnMut(&Filesystem, &DayStats) + 'a;

/// Metadata perturbations an injected crash applies.
const CRASH_DAMAGE_HITS: u32 = 8;

/// A replay in progress: the file system being aged plus everything the
/// run has recorded so far. The caller pushes one [`DayLog`] at a time
/// ([`Replay::day`]) and may read the end-of-day state between pushes
/// ([`Replay::fs`], [`Replay::last`]), so a workload can be replayed as
/// it is generated ([`crate::Days`]) and one stream can feed several
/// file systems in lockstep. [`replay`], [`replay_tapped`] and [`resume`]
/// are `for` loops over this type; there is no other day loop.
pub struct Replay {
    fs: Filesystem,
    /// One directory per cylinder group; ops name their group.
    dirs: Vec<DirId>,
    live: LiveMap,
    /// Days up to and including this one are skipped (a resumed run).
    resume_after: Option<u32>,
    skipped: u64,
    options: ReplayOptions,
    daily: Vec<DayStats>,
    snapshots: Vec<crate::snapshot::Snapshot>,
    checkpoints: Vec<Checkpoint>,
    crash: Option<CrashReport>,
    defragger: Option<defrag::DefragRunner>,
    ops_done: u64,
    /// Allocator counters reach the obs registry once per day rather
    /// than per allocation (see `AllocStats::publish_delta`); this clone
    /// is the high-water mark already published.
    published_stats: ffs::AllocStats,
}

impl Replay {
    /// Starts aging a fresh file system with `policy`.
    pub fn new(params: &FsParams, policy: AllocPolicy, options: ReplayOptions) -> FsResult<Replay> {
        let mut fs = Filesystem::new(params.clone(), policy);
        set_placement(&mut fs, &options);
        let dirs = fs.mkdir_per_cg()?;
        Ok(Replay::start(fs, dirs, LiveMap::new(), None, 0, options))
    }

    /// Continues from a [`Checkpoint`] taken by an earlier replay of the
    /// same workload. The stream is pushed from day 0 as usual; days up
    /// to and including `checkpoint.day` are skipped, and the restored
    /// file system (rebuilt and re-verified by [`Checkpoint::restore`])
    /// replays the remainder. [`ReplayResult::daily`] covers only the
    /// resumed days, and op counting for
    /// [`ReplayOptions::crash_after_ops`] restarts at zero.
    ///
    /// A checkpoint carries no defragmenter state, so `options.defrag`
    /// must be `None`; anything else is [`FsError::InvalidArg`].
    pub fn resume_from(
        params: &FsParams,
        policy: AllocPolicy,
        options: ReplayOptions,
        checkpoint: &Checkpoint,
    ) -> FsResult<Replay> {
        if options.defrag.is_some() {
            return Err(FsError::InvalidArg(
                "cannot resume a defragmenting replay: pass state is not checkpointed",
            ));
        }
        let (mut fs, live) = checkpoint.restore(params.clone(), policy)?;
        set_placement(&mut fs, &options);
        // Recover the per-group directory table the op stream indexes by
        // cylinder group. The replayer creates exactly one directory per
        // group up front, so each group must own exactly one.
        let mut dirs: Vec<Option<DirId>> = vec![None; params.ncg as usize];
        for d in fs.dirs() {
            let slot = &mut dirs[d.cg.0 as usize];
            if slot.replace(d.id).is_some() {
                return Err(FsError::Corrupt(format!(
                    "checkpoint has multiple directories in group {}",
                    d.cg.0
                )));
            }
        }
        let dirs: Vec<DirId> = dirs
            .into_iter()
            .enumerate()
            .map(|(g, d)| d.ok_or(FsError::Corrupt(format!("group {g} has no directory"))))
            .collect::<FsResult<_>>()?;
        Ok(Replay::start(
            fs,
            dirs,
            live,
            Some(checkpoint.day),
            checkpoint.skipped_creates,
            options,
        ))
    }

    fn start(
        fs: Filesystem,
        dirs: Vec<DirId>,
        live: LiveMap,
        resume_after: Option<u32>,
        skipped: u64,
        options: ReplayOptions,
    ) -> Replay {
        Replay {
            published_stats: fs.alloc_stats().clone(),
            defragger: options.defrag.as_ref().map(defrag::DefragRunner::new),
            fs,
            dirs,
            live,
            resume_after,
            skipped,
            options,
            daily: Vec::new(),
            snapshots: Vec::new(),
            checkpoints: Vec::new(),
            crash: None,
            ops_done: 0,
        }
    }

    /// Applies one day's operations, runs the nightly work the options
    /// ask for, and records the day's [`DayStats`]. After an error the
    /// replay is finished: the file system is mid-day.
    pub fn day(&mut self, day_log: &DayLog) -> FsResult<()> {
        if self.resume_after.is_some_and(|d| day_log.day <= d) {
            return Ok(());
        }
        let Replay {
            fs,
            dirs,
            live,
            resume_after: _,
            skipped,
            options,
            daily,
            snapshots,
            checkpoints,
            crash,
            defragger,
            ops_done,
            published_stats,
        } = self;
        let _day_span = obs::span!("age_day");
        let ops_span = obs::span!("replay_ops");
        for op in &day_log.ops {
            match *op {
                Op::Create {
                    file,
                    cg,
                    size,
                    kind: _,
                } => {
                    let dir = dirs[cg.0 as usize];
                    match fs.create(dir, size, day_log.day) {
                        Ok(ino) => {
                            let prev = live.insert(file, ino);
                            debug_assert!(prev.is_none());
                        }
                        Err(FsError::NoSpace { .. }) => *skipped += 1,
                        Err(e) => return Err(e),
                    }
                }
                Op::Delete { file } => {
                    if let Some(ino) = live.remove(&file) {
                        fs.remove(ino)?;
                    }
                    // A missing mapping means the create was skipped for
                    // lack of space; the delete is skipped to match.
                }
                Op::Rewrite { file } => {
                    // The file may have been cohort-deleted later the
                    // same day than the rewrite was scheduled, or its
                    // create may have been skipped; tolerate both.
                    if let Some(ino) = live.get(&file) {
                        fs.rewrite(ino, day_log.day)?;
                    }
                }
            }
            *ops_done += 1;
            if options.crash_after_ops > 0
                && *ops_done == options.crash_after_ops
                && crash.is_none()
            {
                // Power cut: a torn metadata flush scrambles derived
                // state; fsck repairs it and the replay carries on.
                let hits = inject_metadata_damage(fs, options.crash_damage_seed, CRASH_DAMAGE_HITS);
                let report = repair(fs);
                *crash = Some(CrashReport {
                    at_op: *ops_done,
                    day: day_log.day,
                    damage_hits: hits,
                    repair: report,
                });
            }
        }
        drop(ops_span);
        // The idle-time defragmentation pass runs after the day's
        // foreground operations, exactly once per day.
        let pass = match defragger {
            Some(runner) => runner.run_pass(fs),
            None => defrag::PassStats::default(),
        };
        obs::counter!("aging.ops_replayed", day_log.ops.len() as u64);
        obs::counter!("aging.days_replayed", 1);
        fs.alloc_stats().publish_delta(published_stats);
        *published_stats = fs.alloc_stats().clone();
        {
            let _s = obs::span!("day_stats");
            daily.push(DayStats {
                day: day_log.day,
                layout_score: fs.aggregate_layout().score(),
                utilization: fs.utilization(),
                nfiles: fs.nfiles(),
                bytes_written: fs.bytes_written(),
                defrag_moves: pass.moves,
                defrag_cost_us: pass.cost_us,
            });
        }
        if due(options.verify_every_days, day_log.day) {
            let _s = obs::span!("verify");
            ffs::verify(fs)?;
        }
        if due(options.snapshot_every_days, day_log.day) {
            let _s = obs::span!("snapshot");
            // Each night after the first shares the last one's entries
            // for every file that did not change.
            let snap = match snapshots.last() {
                Some(prev) => prev.next(fs, day_log.day),
                None => crate::snapshot::take_snapshot(fs, day_log.day),
            };
            snapshots.push(snap);
        }
        if due(options.checkpoint_every_days, day_log.day) {
            let _s = obs::span!("checkpoint");
            checkpoints.push(take_checkpoint(fs, live, day_log.day, *skipped));
        }
        Ok(())
    }

    /// The file system as the last pushed day left it.
    pub fn fs(&self) -> &Filesystem {
        &self.fs
    }

    /// The stats of the last day replayed (`None` before the first).
    pub fn last(&self) -> Option<&DayStats> {
        self.daily.last()
    }

    /// Workload operations applied so far (skipped days not counted).
    pub fn ops(&self) -> u64 {
        self.ops_done
    }

    /// Ends the replay and hands over everything it recorded.
    pub fn finish(self) -> ReplayResult {
        ReplayResult {
            daily: self.daily,
            fs: self.fs,
            live: self.live,
            skipped_creates: self.skipped,
            snapshots: self.snapshots,
            checkpoints: self.checkpoints,
            crash: self.crash,
        }
    }
}

/// Whether nightly work scheduled every `every` days (0 = never) runs
/// at the end of `day`.
fn due(every: u32, day: u32) -> bool {
    every > 0 && (day + 1).is_multiple_of(every)
}

fn set_placement(fs: &mut Filesystem, options: &ReplayOptions) {
    fs.set_cluster_first_fit(options.cluster_first_fit);
    fs.set_realloc_no_split(options.realloc_no_split);
    fs.set_frag_bestfit(options.frag_bestfit);
}

fn check_ncg(workload: &Workload, params: &FsParams) -> FsResult<()> {
    if workload.ncg != params.ncg {
        return Err(FsError::InvalidArg(
            "workload generated for a different cylinder-group count",
        ));
    }
    Ok(())
}

/// Ages a fresh file system with `policy` by replaying `workload`.
pub fn replay(
    workload: &Workload,
    params: &FsParams,
    policy: AllocPolicy,
    options: ReplayOptions,
) -> FsResult<ReplayResult> {
    replay_tapped(workload, params, policy, options, None)
}

/// [`replay`], with an optional per-day sample tap: the materialized
/// form of reading [`Replay::fs`] and [`Replay::last`] between days.
pub fn replay_tapped(
    workload: &Workload,
    params: &FsParams,
    policy: AllocPolicy,
    options: ReplayOptions,
    mut tap: Option<&mut DayTap<'_>>,
) -> FsResult<ReplayResult> {
    check_ncg(workload, params)?;
    let mut r = Replay::new(params, policy, options)?;
    for day_log in &workload.days {
        r.day(day_log)?;
        if let (Some(t), Some(d)) = (tap.as_mut(), r.last()) {
            t(r.fs(), d);
        }
    }
    Ok(r.finish())
}

/// Continues `workload` from a [`Checkpoint`] taken by an earlier replay
/// (see [`Replay::resume_from`]).
pub fn resume(
    workload: &Workload,
    params: &FsParams,
    policy: AllocPolicy,
    options: ReplayOptions,
    checkpoint: &Checkpoint,
) -> FsResult<ReplayResult> {
    check_ncg(workload, params)?;
    let mut r = Replay::resume_from(params, policy, options, checkpoint)?;
    for day_log in &workload.days {
        r.day(day_log)?;
    }
    Ok(r.finish())
}

impl ReplayResult {
    /// Inodes of the files modified during the last `days` days of the
    /// run — the paper's "hot" file set (Section 5.2).
    pub fn hot_files(&self, days: u32) -> Vec<Ino> {
        let last = match self.daily.last() {
            Some(d) => d.day,
            None => return Vec::new(),
        };
        let cutoff = last.saturating_sub(days.saturating_sub(1));
        let mut v: Vec<Ino> = self
            .fs
            .files()
            .filter(|f| f.mtime_day >= cutoff)
            .map(|f| f.ino)
            .collect();
        v.sort();
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::AgingConfig;
    use crate::workload::generate;

    fn small_replay(policy: AllocPolicy) -> ReplayResult {
        let params = FsParams::small_test();
        let config = AgingConfig::small_test(15, 42);
        let capacity = params.data_capacity_bytes();
        let w = generate(&config, params.ncg, capacity);
        replay(
            &w,
            &params,
            policy,
            ReplayOptions {
                verify_every_days: 5,
                ..ReplayOptions::default()
            },
        )
        .expect("replay succeeds")
    }

    #[test]
    fn replay_produces_daily_series() {
        let r = small_replay(AllocPolicy::Orig);
        assert_eq!(r.daily.len(), 15);
        assert!(r.daily.iter().all(|d| d.layout_score >= 0.0));
        assert!(r.daily.last().unwrap().nfiles > 0);
        assert_eq!(r.live.len(), r.fs.nfiles());
    }

    #[test]
    fn failed_verify_ends_the_replay_with_corrupt() {
        let params = FsParams::small_test();
        let config = AgingConfig::small_test(3, 42);
        let w = generate(&config, params.ncg, params.data_capacity_bytes());
        let mut fs = Filesystem::new(params, AllocPolicy::Orig);
        let dirs = fs.mkdir_per_cg().unwrap();
        // A drifted used-space counter nothing repairs (the one torn
        // update the allocator itself never trips over): the first
        // nightly verify must stop the replay with an error, not a panic.
        let drifts_counter = |seed: &u64| {
            let mut probe = fs.clone();
            inject_metadata_damage(&mut probe, *seed, 1);
            matches!(
                ffs::check(&probe)[..],
                [ffs::Violation::UsedDataDrift { .. }]
            )
        };
        let seed = (0..64).find(drifts_counter).expect("a counter-drift seed");
        inject_metadata_damage(&mut fs, seed, 1);
        let options = ReplayOptions {
            verify_every_days: 1,
            ..ReplayOptions::default()
        };
        let mut r = Replay::start(fs, dirs, LiveMap::new(), None, 0, options);
        match r.day(&w.days[0]) {
            Err(FsError::Corrupt(msg)) => assert!(msg.contains("inconsistent"), "{msg}"),
            Err(e) => panic!("expected Corrupt, got {e:?}"),
            Ok(()) => panic!("a damaged image passed verification"),
        }
    }

    #[test]
    fn no_creates_skipped_in_calibrated_workload() {
        let r = small_replay(AllocPolicy::Orig);
        assert_eq!(r.skipped_creates, 0);
    }

    #[test]
    fn layout_declines_from_day_zero() {
        let r = small_replay(AllocPolicy::Orig);
        let first = r.daily.first().unwrap().layout_score;
        let last = r.daily.last().unwrap().layout_score;
        assert!(
            last <= first,
            "layout should not improve with age: {first} -> {last}"
        );
    }

    #[test]
    fn realloc_ages_better_than_orig() {
        let orig = small_replay(AllocPolicy::Orig);
        let re = small_replay(AllocPolicy::Realloc);
        let so = orig.daily.last().unwrap().layout_score;
        let sr = re.daily.last().unwrap().layout_score;
        assert!(sr > so, "realloc ({sr:.3}) should beat orig ({so:.3})");
    }

    #[test]
    fn both_policies_replay_identical_op_streams() {
        // The workload is policy-independent: the same ops and bytes are
        // presented to both file systems.
        let orig = small_replay(AllocPolicy::Orig);
        let re = small_replay(AllocPolicy::Realloc);
        assert_eq!(
            orig.daily.last().unwrap().bytes_written,
            re.daily.last().unwrap().bytes_written
        );
        assert_eq!(
            orig.daily.last().unwrap().nfiles,
            re.daily.last().unwrap().nfiles
        );
    }

    #[test]
    fn hot_files_are_recent() {
        let r = small_replay(AllocPolicy::Orig);
        let hot = r.hot_files(3);
        assert!(!hot.is_empty());
        let last_day = r.daily.last().unwrap().day;
        for ino in &hot {
            let f = r.fs.file(*ino).unwrap();
            assert!(f.mtime_day + 3 > last_day);
        }
        // The whole-history set contains every live file.
        assert_eq!(r.hot_files(u32::MAX).len(), r.fs.nfiles());
    }

    #[test]
    fn crash_repair_resume_converges() {
        // A mid-run power cut followed by repair must leave the replay on
        // exactly the trajectory of the uninterrupted run: the torn
        // update damages only derived state, and the fsck rebuild is
        // lossless.
        let clean = small_replay(AllocPolicy::Orig);
        let params = FsParams::small_test();
        let config = AgingConfig::small_test(15, 42);
        let w = generate(&config, params.ncg, params.data_capacity_bytes());
        let crashed = replay(
            &w,
            &params,
            AllocPolicy::Orig,
            ReplayOptions {
                verify_every_days: 5,
                crash_after_ops: 123,
                ..ReplayOptions::default()
            },
        )
        .expect("crashed replay recovers");
        let c = crashed.crash.as_ref().expect("crash fired");
        assert_eq!(c.at_op, 123);
        assert!(c.damage_hits > 0);
        assert!(c.repair.violations_found > 0, "damage must be visible");
        assert!(c.repair.rebuilt);
        assert!(
            c.repair.files_removed.is_empty(),
            "torn derived state must not cost files"
        );
        assert_eq!(crashed.daily, clean.daily);
        assert_eq!(crashed.fs.aggregate_layout(), clean.fs.aggregate_layout());
    }

    #[test]
    fn checkpoint_resume_matches_uninterrupted_run() {
        let params = FsParams::small_test();
        let config = AgingConfig::small_test(15, 42);
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
        // Round-trip through the text format, as a real restart would.
        let ck = crate::checkpoint::Checkpoint::from_text(&ck.to_text()).unwrap();
        let resumed = resume(
            &w,
            &params,
            AllocPolicy::Realloc,
            ReplayOptions {
                verify_every_days: 3,
                ..ReplayOptions::default()
            },
            &ck,
        )
        .expect("resume succeeds");
        assert_eq!(resumed.daily.first().unwrap().day, 6);
        assert_eq!(&full.daily[6..], &resumed.daily[..]);
        assert_eq!(
            full.fs.aggregate_layout(),
            resumed.fs.aggregate_layout(),
            "resume must land on the identical final layout"
        );
        assert_eq!(full.fs.nfiles(), resumed.fs.nfiles());
        assert_eq!(full.live, resumed.live);
    }

    #[test]
    fn resume_rejects_a_defragmenting_option_set() {
        use defrag::{DefragPolicy, DefragSpec};
        let params = FsParams::small_test();
        let config = AgingConfig::small_test(4, 42);
        let w = generate(&config, params.ncg, params.data_capacity_bytes());
        let defragging = || ReplayOptions {
            checkpoint_every_days: 2,
            defrag: Some(DefragSpec::new(DefragPolicy::Scrub, 50)),
            ..ReplayOptions::default()
        };
        let full = replay(&w, &params, AllocPolicy::Orig, defragging()).unwrap();
        // The scrub cursor and device clock are not in the checkpoint:
        // resuming would silently restart them.
        let e = resume(
            &w,
            &params,
            AllocPolicy::Orig,
            defragging(),
            &full.checkpoints[0],
        )
        .unwrap_err();
        assert!(matches!(e, FsError::InvalidArg(_)), "{e:?}");
    }

    #[test]
    fn day_tap_observes_every_day_without_perturbing_the_run() {
        let params = FsParams::small_test();
        let config = AgingConfig::small_test(15, 42);
        let w = generate(&config, params.ncg, params.data_capacity_bytes());
        let untapped = replay(&w, &params, AllocPolicy::Realloc, ReplayOptions::default()).unwrap();
        let mut seen: Vec<(u32, f64, u64)> = Vec::new();
        let tapped = replay_tapped(
            &w,
            &params,
            AllocPolicy::Realloc,
            ReplayOptions::default(),
            Some(&mut |fs, d| seen.push((d.day, d.layout_score, fs.free_blocks()))),
        )
        .unwrap();
        // One call per day, in day order, with the recorded stats and the
        // end-of-day file system.
        assert_eq!(seen.len(), tapped.daily.len());
        for (d, (day, score, free)) in tapped.daily.iter().zip(&seen) {
            assert_eq!(d.day, *day);
            assert_eq!(d.layout_score, *score);
            assert!(*free > 0);
        }
        // The tap only observes: results are identical with and without.
        assert_eq!(tapped.daily, untapped.daily);
        assert_eq!(tapped.fs.digest(), untapped.fs.digest());
    }

    #[test]
    fn day_record_round_trip_is_bit_exact() {
        let r = small_replay(AllocPolicy::Realloc);
        for d in &r.daily {
            let parsed = DayStats::from_record(&d.to_record()).expect("parse");
            assert_eq!(&parsed, d, "round trip must be lossless");
        }
        assert!(DayStats::from_record("").is_err());
        assert!(DayStats::from_record("1 0.5 0.5 10").is_err());
        assert!(DayStats::from_record("1 0.5 0.5 10 99").is_err());
        assert!(DayStats::from_record("1 0.5 0.5 10 99 3 400 extra").is_err());
        assert!(DayStats::from_record("1 x 0.5 10 99 3 400").is_err());
    }

    #[test]
    fn defrag_pass_runs_in_the_day_loop() {
        use defrag::{DefragPolicy, DefragSpec};
        let params = FsParams::small_test();
        // Push utilization up so the aged image carries enough healable
        // fragmentation for the pass to make a measurable difference.
        let mut config = AgingConfig::small_test(15, 42);
        config.plateau_util = 0.85;
        config.peak_util = 0.92;
        let w = generate(&config, params.ncg, params.data_capacity_bytes());
        let base = replay(&w, &params, AllocPolicy::Orig, ReplayOptions::default()).unwrap();
        assert!(base
            .daily
            .iter()
            .all(|d| d.defrag_moves == 0 && d.defrag_cost_us == 0));
        // Budget 0 is byte-identical to no defragmentation at all.
        let zero = replay(
            &w,
            &params,
            AllocPolicy::Orig,
            ReplayOptions {
                defrag: Some(DefragSpec::new(DefragPolicy::Greedy, 0)),
                ..ReplayOptions::default()
            },
        )
        .unwrap();
        assert_eq!(zero.daily, base.daily);
        assert_eq!(zero.fs.digest(), base.fs.digest());
        // A real budget moves blocks, records the per-day move/cost
        // series, improves the final layout, and stays fsck-clean (the
        // periodic verify would panic otherwise).
        let defragged = replay(
            &w,
            &params,
            AllocPolicy::Orig,
            ReplayOptions {
                verify_every_days: 5,
                defrag: Some(DefragSpec::new(DefragPolicy::Greedy, 200)),
                ..ReplayOptions::default()
            },
        )
        .unwrap();
        let moves: u64 = defragged.daily.iter().map(|d| d.defrag_moves).sum();
        assert!(moves > 0, "the pass never moved a block");
        assert!(defragged
            .daily
            .iter()
            .all(|d| d.defrag_moves == 0 || d.defrag_cost_us > 0));
        // Compare the mean daily score: the pass heals every day, so the
        // whole trajectory should sit above the undefragmented one even
        // when a single day's score happens to tie.
        let mean = |r: &ReplayResult| {
            r.daily.iter().map(|d| d.layout_score).sum::<f64>() / r.daily.len() as f64
        };
        assert!(
            mean(&defragged) > mean(&base),
            "daily defragmentation should age better than none"
        );
        assert!(ffs::check(&defragged.fs).is_empty());
    }

    #[test]
    fn wrong_group_count_is_rejected() {
        let params = FsParams::small_test();
        let config = AgingConfig::small_test(2, 1);
        let w = generate(&config, params.ncg + 1, 1 << 20);
        let e = replay(&w, &params, AllocPolicy::Orig, ReplayOptions::default()).unwrap_err();
        assert!(matches!(e, FsError::InvalidArg(_)));
    }
}
