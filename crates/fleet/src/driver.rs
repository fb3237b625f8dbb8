//! The fleet driver: shards as a supervised job DAG, exhibits after.
//!
//! Every shard becomes one dependency-free job on the [`exp`] engine,
//! inheriting its supervision whole: panic isolation, op-budget
//! deadlines delivered through the replay's cancel token, and one
//! structured record per shard in `runs.jsonl`.
//!
//! Determinism with concurrency comes from splitting the run in two:
//! while the engine is live, finished shards only *fold* into the
//! [`FleetAccum`] (commutative atomic adds — any completion order, any
//! worker count, identical state); rendering happens once, after the
//! engine drains, on the main thread in canonical order. `--jobs N`
//! can therefore never change an output byte.
//!
//! Resume needs no journal surgery: every finished shard checkpointed
//! its sample series in the content-addressed store, so a re-run hits
//! the cache for finished shards (zero replay ops) and only ages the
//! ones the crash took. A prior journal passed via `resume_run` marks
//! those reloads with `"resumed":"true"` so the report can tell a warm
//! resume from an ordinary cache hit.

use std::fs;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

use exp::{run_jobs, ArtifactStore, CacheStatus, JobSpec, Metrics, RunRecord};

use crate::accum::{policy_index, FleetAccum, Metric};
use crate::exhibit;
use crate::shard::run_shard;
use crate::spec::FleetSpec;

/// Options for one fleet run, mirroring the harness CLI flags.
#[derive(Clone, Debug)]
pub struct FleetOptions {
    /// Number of shards (independent volumes) to age.
    pub shards: u32,
    /// Master seed the shard draws derive from.
    pub fleet_seed: u64,
    /// Aging horizon in days, shared by every shard.
    pub days: u32,
    /// Worker threads for the job DAG (0 = one per core, capped at 8).
    pub jobs: usize,
    /// Directory for the fleet TSVs and `runs.jsonl`.
    pub out_dir: String,
    /// Shard-checkpoint store directory (`<out_dir>/cache` when unset).
    pub cache_dir: Option<String>,
    /// Disables shard checkpointing entirely.
    pub no_cache: bool,
    /// Per-shard operation budget; a replay that exceeds it is cancelled
    /// at the next day boundary (0 = no deadline).
    pub job_deadline_ops: u64,
    /// A prior fleet `runs.jsonl`: shards it records as `ok` reload from
    /// their checkpoints and are marked `resumed` in the new journal.
    pub resume_run: Option<String>,
    /// Chaos hook: the named shard job panics, exercising panic
    /// isolation and resume end to end.
    pub chaos_kill: Option<String>,
    /// Enables observability and writes the captured metrics to this
    /// path as `metrics.json`.
    pub metrics: Option<String>,
}

impl Default for FleetOptions {
    fn default() -> Self {
        FleetOptions {
            shards: 64,
            fleet_seed: 7,
            days: 30,
            jobs: 0,
            out_dir: "fleet-results".into(),
            cache_dir: None,
            no_cache: false,
            job_deadline_ops: 0,
            resume_run: None,
            chaos_kill: None,
            metrics: None,
        }
    }
}

impl FleetOptions {
    /// The worker-pool size the engine should use.
    pub fn worker_count(&self) -> usize {
        exp::worker_count(self.jobs)
    }

    /// Where shard checkpoints live.
    pub fn cache_path(&self) -> PathBuf {
        exp::cache_path(self.cache_dir.as_deref(), &self.out_dir)
    }
}

/// A completed fleet run.
#[derive(Debug)]
pub struct FleetSummary {
    /// Shards the fleet specified.
    pub shards: u32,
    /// Shards that finished and folded into the exhibits.
    pub shards_ok: u32,
    /// Workload operations replayed across the fleet (cache hits
    /// contribute zero).
    pub total_ops: u64,
    /// Damaged checkpoints quarantined during the run.
    pub quarantined: u32,
    /// The accumulator's footprint in histogram buckets — a function of
    /// the horizon, never of `shards`.
    pub accum_buckets: u64,
    /// The rendered layout-score exhibit.
    pub layout_tsv: String,
    /// The rendered free-fragmentation exhibit.
    pub freefrag_tsv: String,
    /// `(job id, reason)` for every shard that did not finish.
    pub failures: Vec<(String, String)>,
}

impl FleetSummary {
    /// Whether every shard folded into the exhibits.
    pub fn all_ok(&self) -> bool {
        self.shards_ok == self.shards
    }

    /// One line summarizing how degraded the fleet was.
    pub fn degradation_line(&self) -> String {
        if self.all_ok() {
            format!("fleet: all {} shards ok", self.shards)
        } else {
            format!(
                "fleet degraded: {} of {} shards ok ({} lost)",
                self.shards_ok,
                self.shards,
                self.failures.len()
            )
        }
    }
}

/// Ages the fleet described by `opts` and writes `runs.jsonl`,
/// `fleet_layout.tsv`, and `fleet_freefrag.tsv` under `opts.out_dir`.
///
/// Failed shards degrade the exhibits (their samples are simply absent
/// from the percentile pools) rather than aborting the fleet; the
/// summary and the synthetic `fleet` journal record carry the damage.
pub fn run_fleet(opts: &FleetOptions) -> Result<FleetSummary, String> {
    if opts.metrics.is_some() {
        obs::reset();
        obs::set_enabled(true);
    }
    let spec = FleetSpec::new(opts.shards, opts.fleet_seed, opts.days);
    let accum = Arc::new(FleetAccum::new(opts.days));
    let store = (!opts.no_cache).then(|| ArtifactStore::new(opts.cache_path()));

    // Shards a prior journal finished: their cache hits get a `resumed`
    // marker. The checkpoints themselves, not the journal, carry the
    // resume — a shard absent here but present in the store still hits.
    let prior_ok = match &opts.resume_run {
        Some(journal) => exp::prior_ok(journal)?,
        None => Default::default(),
    };

    let t0 = Instant::now();
    let mut jobs: Vec<JobSpec<()>> = Vec::with_capacity(opts.shards as usize);
    for i in 0..opts.shards {
        let shard = spec.shard(i);
        let jid = shard.job_id();
        let was_ok = prior_ok.contains(&jid);
        let accum = Arc::clone(&accum);
        let store = store.clone();
        let chaos = opts.chaos_kill.clone();
        let job_id = jid.clone();
        jobs.push(JobSpec {
            deadline_ops: opts.job_deadline_ops,
            ..JobSpec::new(&job_id, &[], move |ctx| {
                if chaos.as_deref() == Some(jid.as_str()) {
                    panic!("chaos kill: {jid}");
                }
                let _shard_span = obs::span!("fleet:shard");
                let wall = Instant::now();
                let out = run_shard(store.as_ref(), &shard, Some(ctx.cancel_token()))?;
                accum.fold(policy_index(shard.policy), &out.samples, out.ops);
                obs::counter!("fleet.shards_done", 1);
                obs::hist!(
                    "fleet.shard_wall_us",
                    obs::bounds::TIME_US,
                    wall.elapsed().as_micros() as u64
                );
                ctx.metrics.cache = Some(out.cache);
                ctx.metrics.key = Some(shard.key_hex());
                ctx.metrics.ops = Some(out.ops);
                ctx.metrics.note("policy", shard.policy_name());
                if let Some(d) = &shard.defrag {
                    ctx.metrics.note("defrag", d.label());
                }
                if was_ok && out.cache == CacheStatus::Hit {
                    ctx.metrics.note("resumed", "true");
                }
                if let Some(q) = &out.quarantined {
                    ctx.metrics.note("quarantined", q.display());
                }
                Ok(())
            })
        });
    }

    let run = {
        let _fleet_span = obs::span!("fleet");
        run_jobs(jobs, opts.worker_count())?
    };
    let wall = t0.elapsed().as_secs_f64();

    let shards_ok = run.records.iter().filter(|r| r.status == "ok").count() as u32;
    let failures: Vec<(String, String)> = run
        .records
        .iter()
        .filter(|r| r.status != "ok")
        .map(|r| {
            let why = r
                .error
                .clone()
                .unwrap_or_else(|| format!("status {}", r.status));
            (r.job.clone(), why)
        })
        .collect();
    let quarantined = run
        .records
        .iter()
        .filter(|r| r.metrics.notes.iter().any(|(k, _)| k == "quarantined"))
        .count() as u32;

    // One synthetic fleet-level record so `harness report` sees the
    // whole fleet as a job.
    let mut fleet_metrics = Metrics {
        ops: Some(accum.total_ops()),
        ..Metrics::default()
    };
    fleet_metrics.note("shards", opts.shards);
    fleet_metrics.note("shards_ok", shards_ok);
    fleet_metrics.note("fleet_seed", opts.fleet_seed);
    fleet_metrics.note("days", opts.days);
    fleet_metrics.note("accum_buckets", accum.footprint_buckets());
    let fleet_record = RunRecord {
        job: "fleet".into(),
        deps: Vec::new(),
        status: if shards_ok == opts.shards {
            "ok"
        } else {
            "failed"
        }
        .into(),
        error: None,
        wall_s: wall,
        attempts: 0,
        backoff_units: 0,
        metrics: fleet_metrics,
    };

    let layout_tsv = exhibit::render(&accum, Metric::Layout);
    let freefrag_tsv = exhibit::render(&accum, Metric::FreeFrag);

    let out_dir = PathBuf::from(&opts.out_dir);
    fs::create_dir_all(&out_dir).map_err(|e| format!("create {}: {e}", out_dir.display()))?;
    let mut jsonl = String::new();
    for rec in run.records.iter().chain(std::iter::once(&fleet_record)) {
        jsonl.push_str(&rec.to_json());
        jsonl.push('\n');
    }
    let write = |name: &str, text: &str| -> Result<(), String> {
        let path = out_dir.join(name);
        fs::write(&path, text).map_err(|e| format!("write {}: {e}", path.display()))
    };
    write("runs.jsonl", &jsonl)?;
    write("fleet_layout.tsv", &layout_tsv)?;
    write("fleet_freefrag.tsv", &freefrag_tsv)?;
    if let Some(path) = &opts.metrics {
        obs::set_enabled(false);
        let snap = obs::take_snapshot();
        fs::write(path, snap.to_json()).map_err(|e| format!("write {path}: {e}"))?;
    }

    Ok(FleetSummary {
        shards: opts.shards,
        shards_ok,
        total_ops: accum.total_ops(),
        quarantined,
        accum_buckets: accum.footprint_buckets(),
        layout_tsv,
        freefrag_tsv,
        failures,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn concurrent_fold_matches_sequential_fold() {
        // Four workers fold shards into the one accumulator in whatever
        // order they finish; a sequential fold of the same shards must
        // render the identical exhibits.
        let dir = std::env::temp_dir().join(format!("fleet-merge-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let opts = FleetOptions {
            shards: 10,
            fleet_seed: 11,
            days: 3,
            jobs: 4,
            out_dir: dir.to_string_lossy().into_owned(),
            no_cache: true,
            ..FleetOptions::default()
        };
        let summary = run_fleet(&opts).unwrap();
        assert!(summary.all_ok());

        let spec = FleetSpec::new(opts.shards, opts.fleet_seed, opts.days);
        let flat = FleetAccum::new(opts.days);
        for i in 0..opts.shards {
            let shard = spec.shard(i);
            let out = run_shard(None, &shard, None).unwrap();
            flat.fold(policy_index(shard.policy), &out.samples, out.ops);
        }
        assert_eq!(summary.layout_tsv, exhibit::render(&flat, Metric::Layout));
        assert_eq!(
            summary.freefrag_tsv,
            exhibit::render(&flat, Metric::FreeFrag)
        );
        assert_eq!(summary.total_ops, flat.total_ops());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn defaults_and_paths() {
        let o = FleetOptions::default();
        assert_eq!(o.shards, 64);
        assert_eq!(o.fleet_seed, 7);
        assert_eq!(o.days, 30);
        assert_eq!(o.cache_path(), PathBuf::from("fleet-results/cache"));
        assert!(o.worker_count() >= 1);
        let explicit = FleetOptions {
            cache_dir: Some("/tmp/elsewhere".into()),
            jobs: 3,
            ..FleetOptions::default()
        };
        assert_eq!(explicit.cache_path(), PathBuf::from("/tmp/elsewhere"));
        assert_eq!(explicit.worker_count(), 3);
    }

    #[test]
    fn degradation_lines_read_well() {
        let mut s = FleetSummary {
            shards: 8,
            shards_ok: 8,
            total_ops: 100,
            quarantined: 0,
            accum_buckets: 10,
            layout_tsv: String::new(),
            freefrag_tsv: String::new(),
            failures: Vec::new(),
        };
        assert!(s.all_ok());
        assert_eq!(s.degradation_line(), "fleet: all 8 shards ok");
        s.shards_ok = 7;
        s.failures.push(("shard:0003".into(), "panicked".into()));
        assert!(!s.all_ok());
        assert_eq!(
            s.degradation_line(),
            "fleet degraded: 7 of 8 shards ok (1 lost)"
        );
    }
}
