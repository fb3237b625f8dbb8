//! The six workloads. Each drives the simulator through public functions
//! only; sizes, rep contents and thread counts are constants.
//!
//! Set-up generates the inputs from the seed with `aging::generate` and
//! hands the simulator nothing but the generated workload. A rep given a
//! recording tracer puts a span around every call into a layer.

use std::path::{Path, PathBuf};

use aging::{
    diff_to_workload, generate, profiles, replay, AgingConfig, Checkpoint, ReplayOptions,
    ReplayResult, Snapshot, Workload,
};
use defrag::{DefragPolicy, DefragSpec};
use disk::{raw_read_throughput, raw_write_throughput, DeviceStats};
use exp::{aged_key, ArtifactStore, RunRecord};
use ffs::{AllocPolicy, Filesystem};
use ffs_types::{DiskParams, FsParams, Ino, MB};
use fleet::driver::{run_fleet, FleetOptions};
use iobench::{paper_file_sizes, run_hot_files, run_point, SeqBenchConfig};

use crate::common::{dir_bytes, ops_of, threads, Bench, Fingerprint, RepOut, SeedStream, WorkDir};
use crate::replayloop::{bare_replay, OpTimes};
use crate::trace::Tracer;

/// Both allocation policies, in the order every workload runs them.
pub const POLICIES: [AllocPolicy; 2] = [AllocPolicy::Orig, AllocPolicy::Realloc];

/// Days the paper's hot set looks back (Section 5.2: the last month).
const HOT_DAYS: u32 = 30;

fn fsck_clean(what: &str, fs: &Filesystem) -> Result<(), String> {
    let v = ffs::check(fs);
    if v.is_empty() {
        Ok(())
    } else {
        Err(format!(
            "{what}: ffs::check found {} violations, first: {:?}",
            v.len(),
            v[0]
        ))
    }
}

fn err<E: std::fmt::Display>(what: &'static str) -> impl Fn(E) -> String {
    move |e| format!("{what}: {e}")
}

/// The paper's ten-month workload on the paper's 502 MB volume.
fn paper_workload(seed: u64, days: u32) -> (FsParams, AgingConfig, Workload) {
    let params = FsParams::paper_502mb();
    let mut config = AgingConfig::paper(seed);
    config.days = days;
    let w = generate(&config, params.ncg, params.data_capacity_bytes());
    (params, config, w)
}

// --- age-paper ----------------------------------------------------------

/// Where one policy's replay ended.
pub struct Aged {
    /// The aged image.
    pub fs: Filesystem,
    /// Aggregate layout score after the first day.
    pub layout_first: f64,
    /// Creates skipped for lack of space.
    pub skipped: u64,
}

/// `age-paper`: `aging::replay` of the 300-day paper workload under
/// `Orig` then `Realloc`.
pub struct AgePaper {
    /// The paper's volume.
    pub params: FsParams,
    /// The generated 300-day workload.
    pub w: Workload,
    /// Final images of the last rep, `[Orig, Realloc]`.
    pub last: Vec<Aged>,
    /// Per-op timings of the traced reps so far.
    pub op_times: OpTimes,
}

impl AgePaper {
    /// Generates the workload.
    pub fn setup(seed: u64) -> AgePaper {
        let (params, _, w) = paper_workload(seed, 300);
        AgePaper {
            params,
            w,
            last: Vec::new(),
            op_times: OpTimes::default(),
        }
    }

    /// The simulated results Figure 2 reports, from both final images.
    fn sim(&self) -> Vec<(&'static str, f64)> {
        let (o, r) = (&self.last[0], &self.last[1]);
        let (lo, lr) = (
            o.fs.aggregate_layout().score(),
            r.fs.aggregate_layout().score(),
        );
        vec![
            ("layout_day1_ffs", o.layout_first),
            ("layout_day1_realloc", r.layout_first),
            ("layout_day300_ffs", lo),
            ("layout_day300_realloc", lr),
            ("nonopt_reduction_pct", nonopt_reduction_pct(lo, lr)),
        ]
    }
}

/// Reduction of non-optimally placed blocks from layout score `ffs` to
/// `realloc`, in percent (the paper: 23.4 % vs 10.1 % = −56.8 %).
fn nonopt_reduction_pct(ffs: f64, realloc: f64) -> f64 {
    ((1.0 - ffs) - (1.0 - realloc)) / (1.0 - ffs) * 100.0
}

impl Bench for AgePaper {
    fn rep(&mut self, tr: &mut Tracer) -> Result<RepOut, String> {
        self.last.clear();
        for policy in POLICIES {
            // Traced, the workload goes through the benchmark's own day
            // loop so every file-system call can be clocked.
            let aged = if tr.enabled() {
                let times = &mut self.op_times;
                let (w, params) = (&self.w, &self.params);
                tr.span("aging.replay", |tr| {
                    bare_replay(w, params, policy, false, tr, Some(times))
                })
                .map(|b| Aged {
                    layout_first: b.layout_by_day[0],
                    fs: b.fs,
                    skipped: b.skipped,
                })
            } else {
                replay(&self.w, &self.params, policy, ReplayOptions::default()).map(|r| Aged {
                    layout_first: r.daily[0].layout_score,
                    fs: r.fs,
                    skipped: r.skipped_creates,
                })
            }
            .map_err(err("age-paper replay"))?;
            self.last.push(aged);
        }
        let mut fp = Fingerprint::default();
        for a in &self.last {
            fp.image(&a.fs);
            fp.f64(a.layout_first);
            fp.u64(a.skipped);
        }
        Ok(RepOut {
            units: 2 * ops_of(&self.w),
            failed: self.last.iter().map(|a| a.skipped).sum(),
            artifact_bytes: 0,
            fingerprint: fp,
            sim: self.sim(),
        })
    }

    fn verify(&self) -> Result<(), String> {
        self.last
            .iter()
            .try_for_each(|a| fsck_clean("age-paper final image", &a.fs))
    }
}

// --- age-smallfile ------------------------------------------------------

/// `age-smallfile`: the three small-file profiles, 120 days each, on the
/// 502 MB volume newfs'd with dense inodes, under `Realloc` with
/// first-fit fragments.
///
/// Each profile is generated twice, from two seeds derived from
/// `--seed`: the seed alone moves one profile's throughput by ±25 %
/// (which cylinder groups the shuffled Zipf weights make busy decides
/// how far a spilled allocation searches), and the driver gates the
/// spread over seeds.
pub struct AgeSmallfile {
    /// The 502 MB volume with `bytes_per_inode = 2048`.
    pub params: FsParams,
    /// `(profile name, workload)`: spool, maildir, build from the first
    /// derived seed, then the same three from the second.
    pub workloads: Vec<(&'static str, Workload)>,
    /// Final images of the last rep, in workload order.
    pub last: Vec<Filesystem>,
}

impl AgeSmallfile {
    /// Days each profile ages.
    pub const DAYS: u32 = 120;

    /// Generates the six workloads.
    pub fn setup(seed: u64) -> AgeSmallfile {
        let params = FsParams {
            bytes_per_inode: 2048,
            ..FsParams::paper_502mb()
        };
        let second = SeedStream::new(seed, 0x5F).next();
        let workloads = [seed, second]
            .into_iter()
            .flat_map(profiles::smallfile)
            .map(|p| {
                let mut config = p.config;
                config.days = Self::DAYS;
                config.ramp_days = Self::DAYS / 3;
                // Sub-block files strand fragments, so the volume fills
                // well ahead of the byte target: at 0.80/0.88 it passes
                // 98 % and a few hundred creates per profile fail for
                // lack of space. At 0.72/0.80 it peaks near 90 %, no
                // create fails on any seed tried, and a third to a half
                // of the spool's fragment allocations still spill to
                // another cylinder group.
                config.plateau_util = 0.72;
                config.peak_util = 0.80;
                let w = generate(&config, params.ncg, params.data_capacity_bytes());
                (p.name, w)
            })
            .collect();
        AgeSmallfile {
            params,
            workloads,
            last: Vec::new(),
        }
    }
}

impl Bench for AgeSmallfile {
    fn rep(&mut self, tr: &mut Tracer) -> Result<RepOut, String> {
        self.last.clear();
        let mut out = RepOut::default();
        for (_, w) in &self.workloads {
            let r = tr
                .span("aging.replay", |_| {
                    replay(
                        w,
                        &self.params,
                        AllocPolicy::Realloc,
                        ReplayOptions::default(),
                    )
                })
                .map_err(err("age-smallfile replay"))?;
            out.units += ops_of(w);
            out.failed += r.skipped_creates;
            out.fingerprint.image(&r.fs);
            out.fingerprint.u64(r.skipped_creates);
            self.last.push(r.fs);
        }
        Ok(out)
    }

    fn verify(&self) -> Result<(), String> {
        self.last
            .iter()
            .try_for_each(|fs| fsck_clean("age-smallfile final image", fs))
    }
}

// --- nightly-jobs -------------------------------------------------------

/// `nightly-jobs`: a 120-day replay with the background work switched
/// on — nightly snapshots, periodic checkpoints and fsck, a daily defrag
/// pass — then the snapshot-derived workload, the serialization round
/// trips and the artifact store.
pub struct NightlyJobs {
    /// The paper's volume.
    pub params: FsParams,
    /// The paper's configuration, cut to 120 days.
    pub config: AgingConfig,
    /// The generated workload.
    pub w: Workload,
    /// Scratch space for the artifact store.
    pub work: WorkDir,
    /// The last rep's aged run, for verification and the layer probes.
    pub last: Option<ReplayResult>,
}

impl NightlyJobs {
    /// Days aged.
    pub const DAYS: u32 = 120;

    /// The replay options every rep uses.
    pub fn options() -> ReplayOptions {
        ReplayOptions {
            snapshot_every_days: 1,
            checkpoint_every_days: 20,
            verify_every_days: 30,
            defrag: Some(DefragSpec::new(DefragPolicy::Greedy, 200)),
            ..ReplayOptions::default()
        }
    }

    /// Generates the workload and makes the scratch directory.
    pub fn setup(seed: u64, out: &Path) -> Result<NightlyJobs, String> {
        let (params, config, w) = paper_workload(seed, Self::DAYS);
        Ok(NightlyJobs {
            params,
            config,
            w,
            work: WorkDir::new(out, "nightly-jobs")?,
            last: None,
        })
    }
}

/// `to_text → from_text → restore` of one checkpoint; returns the bytes
/// serialized and the restored image.
fn checkpoint_round_trip(
    ck: &Checkpoint,
    params: &FsParams,
    tr: &mut Tracer,
) -> Result<(u64, Filesystem), String> {
    let text = tr.span("aging.checkpoint.to_text", |_| ck.to_text());
    let back = tr
        .span("aging.checkpoint.from_text", |_| {
            Checkpoint::from_text(&text)
        })
        .map_err(err("checkpoint from_text"))?;
    if &back != ck {
        return Err(format!(
            "checkpoint day {} changed in the round trip",
            ck.day
        ));
    }
    let (fs, _live) = tr
        .span("aging.checkpoint.restore", |_| {
            back.restore(params.clone(), AllocPolicy::Orig)
        })
        .map_err(err("checkpoint restore"))?;
    Ok((text.len() as u64, fs))
}

/// `to_text → from_text` of one snapshot; returns the bytes serialized.
fn snapshot_round_trip(s: &Snapshot, tr: &mut Tracer) -> Result<u64, String> {
    let text = tr.span("aging.snapshot.to_text", |_| s.to_text());
    let back = tr
        .span("aging.snapshot.from_text", |_| Snapshot::from_text(&text))
        .map_err(err("snapshot from_text"))?;
    if &back != s {
        return Err(format!("snapshot day {} changed in the round trip", s.day));
    }
    Ok(text.len() as u64)
}

impl Bench for NightlyJobs {
    fn rep(&mut self, tr: &mut Tracer) -> Result<RepOut, String> {
        let mut out = RepOut::default();
        let r = tr
            .span("aging.replay.nightly", |_| {
                replay(&self.w, &self.params, AllocPolicy::Orig, Self::options())
            })
            .map_err(err("nightly replay"))?;
        let derived_w = tr.span("aging.snapshot.diff_to_workload", |_| {
            diff_to_workload(
                &r.snapshots,
                &self.config,
                self.params.ncg,
                self.params.data_capacity_bytes(),
            )
        });
        let derived = tr
            .span("aging.replay.derived", |_| {
                replay(
                    &derived_w,
                    &self.params,
                    AllocPolicy::Orig,
                    ReplayOptions::default(),
                )
            })
            .map_err(err("derived replay"))?;
        out.units = ops_of(&self.w) + ops_of(&derived_w);
        out.failed = r.skipped_creates + derived.skipped_creates;

        for ck in &r.checkpoints {
            let (bytes, restored) = checkpoint_round_trip(ck, &self.params, tr)?;
            out.artifact_bytes += bytes;
            out.fingerprint.u64(restored.digest());
            // The last checkpoint is the end of the run: its restored
            // image must be the final one.
            if ck.day + 1 == Self::DAYS && restored.digest() != r.fs.digest() {
                return Err("restored final checkpoint differs from the aged image".into());
            }
        }
        for s in r.snapshots.iter().step_by(10) {
            out.artifact_bytes += snapshot_round_trip(s, tr)?;
        }

        let store = ArtifactStore::new(self.work.fresh("store")?);
        let key = aged_key(
            &self.params,
            &self.config,
            AllocPolicy::Orig,
            &Self::options(),
        );
        let path = tr
            .span("exp.store.save", |_| store.save(&key, &r))
            .map_err(err("store save"))?;
        out.artifact_bytes += std::fs::metadata(&path).map(|m| m.len()).unwrap_or(0);
        let loaded = tr
            .span("exp.store.load", |_| {
                store.load(&key, &self.params, AllocPolicy::Orig)
            })
            .map_err(err("store load"))?
            .ok_or("store lost the artifact it just saved")?;
        if loaded.fs.digest() != r.fs.digest() || loaded.daily != r.daily {
            return Err("loaded artifact differs from the aged run".into());
        }
        tr.span("ffs.check", |_| fsck_clean("nightly final image", &r.fs))?;

        out.fingerprint.image(&r.fs);
        out.fingerprint.image(&derived.fs);
        out.fingerprint.u64(r.snapshots.len() as u64);
        for d in &r.daily {
            out.fingerprint.f64(d.layout_score);
            out.fingerprint.u64(d.defrag_moves);
            out.fingerprint.u64(d.defrag_cost_us);
        }
        self.last = Some(r);
        Ok(out)
    }
}

// --- iobench-aged -------------------------------------------------------

/// One aged image with its hot set.
pub struct AgedImage {
    /// The aged run.
    pub run: ReplayResult,
    /// Inodes modified in the last [`HOT_DAYS`] days.
    pub hot: Vec<Ino>,
}

/// `iobench-aged`: the paper's disk-timed benchmarks on the two images
/// that set-up aged.
pub struct IobenchAged {
    /// The paper's disk.
    pub disk: DiskParams,
    /// The sequential benchmark's configuration.
    pub seq: SeqBenchConfig,
    /// `[Orig, Realloc]` images.
    pub images: Vec<AgedImage>,
}

impl IobenchAged {
    /// Generates the paper workload and ages both images.
    pub fn setup(seed: u64) -> Result<IobenchAged, String> {
        let (params, _, w) = paper_workload(seed, 300);
        let images = POLICIES
            .iter()
            .map(|&policy| {
                let run = replay(&w, &params, policy, ReplayOptions::default())?;
                let hot = run.hot_files(HOT_DAYS);
                Ok(AgedImage { run, hot })
            })
            .collect::<Result<_, ffs_types::FsError>>()
            .map_err(err("iobench-aged set-up aging"))?;
        Ok(IobenchAged {
            disk: DiskParams::seagate_32430n(),
            seq: SeqBenchConfig::default(),
            images,
        })
    }
}

impl Bench for IobenchAged {
    fn rep(&mut self, tr: &mut Tracer) -> Result<RepOut, String> {
        let mut out = RepOut::default();
        let mut dev = DeviceStats::default();
        let mut hot = Vec::new();
        for img in &self.images {
            for size in paper_file_sizes() {
                match tr.span("iobench.seq.point", |_| {
                    run_point(&img.run.fs, &self.seq, size)
                }) {
                    Ok(p) => {
                        dev.merge(&p.device);
                        out.fingerprint.f64(p.read_mb_s);
                        out.fingerprint.f64(p.write_mb_s);
                        out.fingerprint.f64(p.layout_score());
                    }
                    Err(_) => out.failed += 1,
                }
            }
            let h = tr.span("iobench.hot", |_| {
                run_hot_files(&img.run.fs, &img.hot, &self.disk)
            });
            dev.merge(&h.device);
            hot.push(h);
        }
        let raw_read = tr.span("disk.raw.read", |_| {
            raw_read_throughput(&self.disk, 32 * MB)
        });
        let raw_write = tr.span("disk.raw.write", |_| {
            raw_write_throughput(&self.disk, 32 * MB)
        });
        out.units = dev.reads + dev.writes;
        out.fingerprint.device(&dev);
        let gain = |a: f64, b: f64| (b / a - 1.0) * 100.0;
        let (o, r) = (&hot[0], &hot[1]);
        out.sim = vec![
            ("table2_layout_ffs", o.layout_score()),
            ("table2_layout_realloc", r.layout_score()),
            (
                "table2_layout_gain_pct",
                gain(o.layout_score(), r.layout_score()),
            ),
            ("table2_read_ffs_mb_s", o.read_mb_s),
            ("table2_read_realloc_mb_s", r.read_mb_s),
            ("table2_read_gain_pct", gain(o.read_mb_s, r.read_mb_s)),
            ("table2_write_ffs_mb_s", o.write_mb_s),
            ("table2_write_realloc_mb_s", r.write_mb_s),
            ("table2_write_gain_pct", gain(o.write_mb_s, r.write_mb_s)),
            (
                "hot_set_share_pct",
                o.nfiles as f64 / self.images[0].run.fs.nfiles() as f64 * 100.0,
            ),
            ("raw_read_mb_s", raw_read.mb_per_sec),
            ("raw_write_mb_s", raw_write.mb_per_sec),
        ];
        for (_, v) in &out.sim {
            out.fingerprint.f64(*v);
        }
        Ok(out)
    }

    fn verify(&self) -> Result<(), String> {
        // `run_point` works on clones, so the images must be exactly as
        // set-up left them.
        self.images
            .iter()
            .try_for_each(|i| fsck_clean("iobench-aged image", &i.run.fs))
    }
}

// --- fleet-jobs ---------------------------------------------------------

/// `fleet-jobs`: a cold 512-shard fleet run, then the same call again
/// on the now-warm store.
pub struct FleetJobs {
    /// Master seed of the shard draws.
    pub seed: u64,
    /// Scratch space for the fleet's output and store.
    pub work: WorkDir,
}

impl FleetJobs {
    /// Shards per fleet.
    pub const SHARDS: u32 = 512;
    /// Days every shard ages.
    pub const DAYS: u32 = 60;

    /// Makes the scratch directory.
    pub fn setup(seed: u64, out: &Path) -> Result<FleetJobs, String> {
        Ok(FleetJobs {
            seed,
            work: WorkDir::new(out, "fleet-jobs")?,
        })
    }

    /// The options of one fleet run writing under `dir`.
    pub fn options(&self, dir: &Path, jobs: usize) -> FleetOptions {
        FleetOptions {
            shards: Self::SHARDS,
            fleet_seed: self.seed,
            days: Self::DAYS,
            jobs,
            out_dir: dir.to_string_lossy().into_owned(),
            ..FleetOptions::default()
        }
    }
}

impl Bench for FleetJobs {
    fn rep(&mut self, tr: &mut Tracer) -> Result<RepOut, String> {
        let dir = self.work.fresh("fleet")?;
        let opts = self.options(&dir, threads());
        let cold = tr
            .span("fleet.run.cold", |_| run_fleet(&opts))
            .map_err(err("cold fleet run"))?;
        let warm = tr
            .span("fleet.run.warm", |_| run_fleet(&opts))
            .map_err(err("warm fleet run"))?;
        if warm.total_ops != 0 {
            return Err(format!(
                "warm fleet rerun replayed {} ops; every shard should hit the store",
                warm.total_ops
            ));
        }
        if warm.layout_tsv != cold.layout_tsv || warm.freefrag_tsv != cold.freefrag_tsv {
            return Err("warm fleet rerun rendered different exhibits".into());
        }
        let mut out = RepOut {
            units: cold.total_ops,
            failed: (cold.shards - cold.shards_ok) as u64 + (warm.shards - warm.shards_ok) as u64,
            artifact_bytes: dir_bytes(&opts.cache_path()),
            ..RepOut::default()
        };
        out.fingerprint.bytes(cold.layout_tsv.as_bytes());
        out.fingerprint.bytes(cold.freefrag_tsv.as_bytes());
        out.fingerprint.u64(cold.total_ops);
        Ok(out)
    }
}

// --- paper-all ----------------------------------------------------------

/// `paper-all`: a cold `harness all` at paper scale — what a user runs.
pub struct PaperAll {
    /// Workload seed.
    pub seed: u64,
    /// Scratch space for the harness's output and cache.
    pub work: WorkDir,
    /// The last rep's output directory (kept for the warm rerun probe).
    pub last_out: Option<PathBuf>,
}

impl PaperAll {
    /// Makes the scratch directory.
    pub fn setup(seed: u64, out: &Path) -> Result<PaperAll, String> {
        Ok(PaperAll {
            seed,
            work: WorkDir::new(out, "paper-all")?,
            last_out: None,
        })
    }

    /// The harness options of one run writing under `dir`.
    pub fn options(&self, dir: &Path) -> harness::ctx::Options {
        harness::ctx::Options {
            days: 300,
            seed: self.seed,
            out_dir: dir.to_string_lossy().into_owned(),
            jobs: threads(),
            quiet: true,
            ..harness::ctx::Options::default()
        }
    }
}

/// One job's record in a `runs.jsonl`.
pub struct JobRecord {
    /// Job id.
    pub job: String,
    /// Terminal status.
    pub status: String,
    /// Wall seconds.
    pub wall_s: f64,
    /// Workload ops replayed.
    pub ops: u64,
}

/// Reads the `runs.jsonl` a harness or fleet run left in `dir`.
pub fn read_journal(dir: &Path) -> Result<Vec<JobRecord>, String> {
    let path = dir.join("runs.jsonl");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    text.lines()
        .map(|line| {
            Ok(JobRecord {
                job: RunRecord::field_str(line, "job").ok_or("journal line without a job")?,
                status: RunRecord::field_str(line, "status")
                    .ok_or("journal line without a status")?,
                wall_s: RunRecord::field_num(line, "wall_s").unwrap_or(0.0),
                ops: RunRecord::field_num(line, "ops").unwrap_or(0.0) as u64,
            })
        })
        .collect()
}

fn tsv_rows(dir: &Path, name: &str) -> Result<Vec<Vec<String>>, String> {
    let path = dir.join(name);
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(text
        .lines()
        .map(|l| {
            l.trim_start_matches("# ")
                .split('\t')
                .map(str::to_string)
                .collect()
        })
        .collect())
}

fn cell(rows: &[Vec<String>], first: &str, col: usize) -> Result<f64, String> {
    rows.iter()
        .find(|r| r[0] == first)
        .and_then(|r| r.get(col))
        .and_then(|c| c.trim_end_matches('%').parse().ok())
        .ok_or_else(|| format!("exhibit has no numeric cell {first}[{col}]"))
}

/// The simulated results the exhibits in `dir` report, as a user reads
/// them (rounded as printed).
fn exhibit_sim(dir: &Path) -> Result<Vec<(&'static str, f64)>, String> {
    let fig2 = tsv_rows(dir, "fig2.tsv")?;
    let (d1o, d1r) = (cell(&fig2, "0", 1)?, cell(&fig2, "0", 2)?);
    let (lo, lr) = (cell(&fig2, "299", 1)?, cell(&fig2, "299", 2)?);
    let t2 = tsv_rows(dir, "table2.tsv")?;
    let fig4 = tsv_rows(dir, "fig4.tsv")?;
    Ok(vec![
        ("layout_day1_ffs", d1o),
        ("layout_day1_realloc", d1r),
        ("layout_day300_ffs", lo),
        ("layout_day300_realloc", lr),
        ("nonopt_reduction_pct", nonopt_reduction_pct(lo, lr)),
        ("table2_layout_ffs", cell(&t2, "layout_score", 1)?),
        ("table2_layout_realloc", cell(&t2, "layout_score", 2)?),
        ("table2_layout_gain_pct", cell(&t2, "layout_score", 3)?),
        ("table2_read_ffs_mb_s", cell(&t2, "read_mb_s", 1)?),
        ("table2_read_realloc_mb_s", cell(&t2, "read_mb_s", 2)?),
        ("table2_read_gain_pct", cell(&t2, "read_mb_s", 3)?),
        ("table2_write_ffs_mb_s", cell(&t2, "write_mb_s", 1)?),
        ("table2_write_realloc_mb_s", cell(&t2, "write_mb_s", 2)?),
        ("table2_write_gain_pct", cell(&t2, "write_mb_s", 3)?),
        ("raw_read_mb_s", cell(&fig4, "raw_read", 1)?),
        ("raw_write_mb_s", cell(&fig4, "raw_write", 1)?),
    ])
}

impl Bench for PaperAll {
    fn rep(&mut self, tr: &mut Tracer) -> Result<RepOut, String> {
        let dir = self.work.fresh("out")?;
        let opts = self.options(&dir);
        let summary = tr
            .span("harness.run.cold", |_| {
                harness::driver::run(&opts, harness::driver::EXHIBITS)
            })
            .map_err(err("harness run"))?;
        let journal = read_journal(&dir)?;
        let mut out = RepOut {
            units: journal.iter().map(|j| j.ops).sum(),
            failed: summary
                .results
                .iter()
                .filter(|r| r.outcome.is_err())
                .count() as u64
                + journal.iter().filter(|j| j.status != "ok").count() as u64,
            artifact_bytes: dir_bytes(&opts.cache_path()),
            ..RepOut::default()
        };
        for name in harness::driver::EXHIBITS {
            let path = dir.join(format!("{name}.tsv"));
            let bytes = std::fs::read(&path).map_err(|e| format!("{}: {e}", path.display()))?;
            out.fingerprint.bytes(name.as_bytes());
            out.fingerprint.bytes(&bytes);
        }
        out.sim = exhibit_sim(&dir)?;
        self.last_out = Some(dir);
        Ok(out)
    }
}

/// Sets `name` up for `seed`, scratch space under `out`.
pub fn make(name: &str, seed: u64, out: &Path) -> Result<Box<dyn Bench>, String> {
    Ok(match name {
        "paper-all" => Box::new(PaperAll::setup(seed, out)?),
        "age-paper" => Box::new(AgePaper::setup(seed)),
        "age-smallfile" => Box::new(AgeSmallfile::setup(seed)),
        "nightly-jobs" => Box::new(NightlyJobs::setup(seed, out)?),
        "iobench-aged" => Box::new(IobenchAged::setup(seed)?),
        "fleet-jobs" => Box::new(FleetJobs::setup(seed, out)?),
        other => return Err(format!("unknown workload {other:?}")),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nonopt_reduction_matches_the_papers_arithmetic() {
        // 23.4 % non-optimal vs 10.1 % is the paper's −56.8 %.
        assert!((nonopt_reduction_pct(0.766, 0.899) - 56.8).abs() < 0.05);
    }

    #[test]
    fn exhibit_cells_parse_as_printed() {
        let rows: Vec<Vec<String>> = [
            "# raw_read\t4.702",
            "metric\tffs\tffs_realloc\trealloc_advantage",
            "read_mb_s\t1.474\t1.668\t+13.2%",
        ]
        .iter()
        .map(|l| {
            l.trim_start_matches("# ")
                .split('\t')
                .map(str::to_string)
                .collect()
        })
        .collect();
        assert_eq!(cell(&rows, "raw_read", 1).unwrap(), 4.702);
        assert_eq!(cell(&rows, "read_mb_s", 3).unwrap(), 13.2);
        assert!(cell(&rows, "metric", 1).is_err());
        assert!(cell(&rows, "absent", 1).is_err());
    }

    #[test]
    fn unknown_workload_is_an_error() {
        assert!(make("nope", 1, Path::new("bench-results")).is_err());
    }
}
