//! The fleet driver: shards as a supervised job DAG, exhibits after.
//!
//! Every shard becomes one dependency-free job on the [`exp`] engine,
//! inheriting its supervision whole: panic isolation and one structured
//! record per shard in `runs.jsonl`.
//!
//! Determinism with concurrency comes from splitting the run in two:
//! while the engine is live, finished shards only *fold* into the
//! [`FleetAccum`] (commutative atomic adds — any completion order, any
//! worker count, identical state); rendering happens once, after the
//! engine drains, on the main thread in canonical order. `--jobs N`
//! can therefore never change an output byte.
//!
//! Resume is the store: every finished shard checkpointed its sample
//! series in the content-addressed store, so a re-run hits the cache
//! for finished shards (zero replay ops) and only ages the ones the
//! crash took.

use std::fs;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use exp::{run_journaled, ArtifactStore, JobSpec, Metrics, RunRecord};

use crate::accum::{policy_index, FleetAccum, Metric};
use crate::exhibit;
use crate::shard::run_shard;
use crate::spec::{FleetSpec, ShardSpec};

/// Options for one fleet run: the harness's one option set (`shards`,
/// `fleet_seed`, `days`, `jobs`, the output, cache and `--metrics`
/// paths, and `chaos_kill`, which names a `shard:NNNN` job).
pub use exp::RunOptions as FleetOptions;

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

/// One shard as an engine job: age it (through the store when one is
/// given), fold its samples into `accum`, and record what it cost.
fn shard_job(
    shard: ShardSpec,
    store: Option<ArtifactStore>,
    accum: &Arc<FleetAccum>,
) -> JobSpec<()> {
    let accum = Arc::clone(accum);
    JobSpec::new(&shard.job_id(), &[], move |ctx| {
        let _shard_span = obs::span!("fleet:shard");
        let wall = Instant::now();
        let out = run_shard(store.as_ref(), &shard, None)?;
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
        ctx.metrics.note("policy", shard.policy.name());
        if let Some(d) = &shard.defrag {
            ctx.metrics.note("defrag", d.label());
        }
        if let Some(q) = &out.quarantined {
            ctx.metrics.note("quarantined", q.display());
        }
        Ok(())
    })
}

/// The synthetic fleet-level journal record, so `harness report` sees
/// the whole fleet as a job.
fn fleet_record(
    opts: &FleetOptions,
    shards_ok: u32,
    accum: &FleetAccum,
    wall: Duration,
) -> RunRecord {
    let mut metrics = Metrics {
        ops: Some(accum.total_ops()),
        ..Metrics::default()
    };
    metrics.note("shards", opts.shards);
    metrics.note("shards_ok", shards_ok);
    metrics.note("fleet_seed", opts.fleet_seed);
    metrics.note("days", opts.days);
    metrics.note("accum_buckets", accum.footprint_buckets());
    RunRecord {
        job: "fleet".into(),
        deps: Vec::new(),
        status: if shards_ok == opts.shards {
            "ok"
        } else {
            "failed"
        }
        .into(),
        error: None,
        wall_s: wall.as_secs_f64(),
        attempts: 0,
        backoff_units: 0,
        metrics,
    }
}

/// Ages the fleet described by `opts` and writes `runs.jsonl`,
/// `fleet_layout.tsv`, and `fleet_freefrag.tsv` under `opts.out_dir`.
///
/// Failed shards degrade the exhibits (their samples are simply absent
/// from the percentile pools) rather than aborting the fleet; the
/// summary and the synthetic `fleet` journal record carry the damage.
pub fn run_fleet(opts: &FleetOptions) -> Result<FleetSummary, String> {
    let spec = FleetSpec::new(opts.shards, opts.fleet_seed, opts.days);
    let accum = Arc::new(FleetAccum::new(opts.days));
    let store = opts.store();
    let t0 = Instant::now();
    let jobs = (0..opts.shards)
        .map(|i| shard_job(spec.shard(i), store.clone(), &accum))
        .collect();
    let mut shards_ok = 0;
    let run = run_journaled(opts, jobs, |records| {
        shards_ok = records.iter().filter(|r| r.status == "ok").count() as u32;
        vec![fleet_record(opts, shards_ok, &accum, t0.elapsed())]
    })?;
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

    let layout_tsv = exhibit::render(&accum, Metric::Layout);
    let freefrag_tsv = exhibit::render(&accum, Metric::FreeFrag);
    for (name, text) in [
        ("fleet_layout.tsv", &layout_tsv),
        ("fleet_freefrag.tsv", &freefrag_tsv),
    ] {
        let path = Path::new(&opts.out_dir).join(name);
        fs::write(&path, text).map_err(|e| format!("write {}: {e}", path.display()))?;
    }

    Ok(FleetSummary {
        shards: opts.shards,
        shards_ok,
        total_ops: accum.total_ops(),
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
    fn degradation_lines_read_well() {
        let mut s = FleetSummary {
            shards: 8,
            shards_ok: 8,
            total_ops: 100,
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
