//! One journaled run of a driver's job DAG: the option set every
//! `harness` command shares, and [`run_journaled`], through which the
//! exhibit driver and the fleet both run their DAGs and write their
//! journals.

use std::fs;
use std::path::{Path, PathBuf};

use crate::engine::{run_jobs, EngineRun, JobSpec};
use crate::record::RunRecord;
use crate::store::ArtifactStore;

/// Command-line options shared by every `harness` command, `fleet`
/// included.
#[derive(Clone, Debug)]
pub struct RunOptions {
    /// Days to age (300 = the paper's ten months).
    pub days: u32,
    /// Workload seed.
    pub seed: u64,
    /// Directory for TSV outputs and `runs.jsonl`.
    pub out_dir: String,
    /// Worker threads for the job DAG (0 = one per core, capped at 8).
    pub jobs: usize,
    /// Artifact-cache directory (`<out_dir>/cache` when unset).
    pub cache_dir: Option<String>,
    /// Disables the artifact cache entirely.
    pub no_cache: bool,
    /// Enables observability and writes the captured metrics, span
    /// profile, and histograms to this path as `metrics.json`.
    pub metrics: Option<String>,
    /// Silences per-experiment progress chatter on stderr. Exhibit
    /// output (stdout and TSV files) is unchanged.
    pub quiet: bool,
    /// Chaos hook: the job with this id panics, exercising panic
    /// isolation (and, over a cache, resume) end to end.
    pub chaos_kill: Option<String>,
    /// `fleet` only: number of independently seeded volumes to age.
    pub shards: u32,
    /// `fleet` only: master seed the per-shard draws derive from.
    pub fleet_seed: u64,
}

impl Default for RunOptions {
    fn default() -> Self {
        RunOptions {
            days: 300,
            seed: 1996,
            out_dir: "results".into(),
            jobs: 0,
            cache_dir: None,
            no_cache: false,
            metrics: None,
            quiet: false,
            chaos_kill: None,
            shards: 64,
            fleet_seed: 7,
        }
    }
}

impl RunOptions {
    /// The worker-pool size: `jobs`, or — for 0 — one worker per core,
    /// capped at 8.
    pub fn worker_count(&self) -> usize {
        if self.jobs > 0 {
            return self.jobs;
        }
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
            .min(8)
    }

    /// Where artifacts live: `cache_dir`, or `<out_dir>/cache` when
    /// unset.
    pub fn cache_path(&self) -> PathBuf {
        match &self.cache_dir {
            Some(d) => PathBuf::from(d),
            None => Path::new(&self.out_dir).join("cache"),
        }
    }

    /// The artifact store at [`RunOptions::cache_path`], or `None` under
    /// `no_cache`.
    pub fn store(&self) -> Option<ArtifactStore> {
        (!self.no_cache).then(|| ArtifactStore::new(self.cache_path()))
    }
}

/// Runs `jobs` on [`RunOptions::worker_count`] workers and journals the
/// run: `<out_dir>/runs.jsonl` holds the engine's records, in job-id
/// order, followed by whatever `extra` returns for them. With
/// `chaos_kill` set, the job of that id panics (`chaos kill: <id>`)
/// instead of running. With `metrics` set, the run is recorded from a
/// clean registry and the snapshot written once the journal is;
/// recording is off again on every exit path, errors included.
pub fn run_journaled<T: Send + Sync + 'static>(
    opts: &RunOptions,
    mut jobs: Vec<JobSpec<T>>,
    extra: impl FnOnce(&[RunRecord]) -> Vec<RunRecord>,
) -> Result<EngineRun<T>, String> {
    let capture = obs::Capture::start(opts.metrics.as_deref());
    let kill = opts.chaos_kill.as_deref();
    if let Some(job) = jobs.iter_mut().find(|j| Some(j.id.as_str()) == kill) {
        let id = job.id.clone();
        job.run = Box::new(move |_| panic!("chaos kill: {id}"));
    }
    let run = run_jobs(jobs, opts.worker_count())?;

    let out_dir = Path::new(&opts.out_dir);
    fs::create_dir_all(out_dir).map_err(|e| format!("create {}: {e}", out_dir.display()))?;
    let extra = extra(&run.records);
    let mut jsonl = String::new();
    for rec in run.records.iter().chain(&extra) {
        jsonl.push_str(&rec.to_json());
        jsonl.push('\n');
    }
    let path = out_dir.join("runs.jsonl");
    fs::write(&path, jsonl).map_err(|e| format!("write {}: {e}", path.display()))?;
    capture.finish()?;
    Ok(run)
}
