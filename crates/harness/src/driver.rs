//! Builds the experiment DAG and drives it through the engine.
//!
//! The graph has two layers. Underneath, the jobs that replay: three
//! aging jobs (`age:ffs`, `age:realloc`, `age:realref`) that each
//! produce an aged file system — through the artifact cache, so a warm
//! run loads them instead of replaying ten months of workload — and one
//! `profile:<name>` job per usage profile, each producing its row of the
//! `profiles` exhibit. On top, one job per requested exhibit consuming
//! what it needs from the first layer. Replaying jobs carry their
//! expected op count as [`JobSpec::weight`], so the engine starts the
//! longest first. Exhibit jobs return their TSV as a string; this module
//! prints and writes the blocks in canonical order *after* the engine
//! finishes, so worker count and scheduling order cannot change the
//! bytes the user sees.

use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};

use aging::{profiles, ReplayOptions, ReplayResult};
use exp::{age_cached, ArtifactStore, JobCtx, JobError, JobOutcome, JobSpec, RunRecord};
use ffs::AllocPolicy;

use crate::ctx::{Options, Shared};
use crate::experiments;

/// The exhibits `all` runs, in the order their output is emitted.
/// `sweep` (the ablations exhibit) is runnable by name but excluded
/// from `all`, as before the engine existed.
pub const EXHIBITS: &[&str] = &[
    "table1",
    "fig1",
    "fig2",
    "fig3",
    "fig4",
    "fig5",
    "fig6",
    "table2",
    "freespace",
    "snapval",
    "profiles",
];

/// Experiments runnable by name but excluded from `all`: the maxcontig
/// and realloc-variant ablations, the defragmentation Pareto frontier,
/// and the small-file fragment-packing sweep, all of which age far more
/// volumes than the paper exhibits need.
pub const NAMED_ONLY: &[&str] = &["sweep", "pareto", "smallfile"];

/// Whether `name` is an experiment the driver can run.
pub fn is_experiment(name: &str) -> bool {
    NAMED_ONLY.contains(&name) || EXHIBITS.contains(&name)
}

/// The aged runs the pareto exhibit consumes: both allocation-policy
/// baselines plus every defragmentation policy × daily move budget.
/// Budget 0 is deliberately in the grid — its rows must come out
/// byte-identical to the `ffs` baseline, a standing no-op check.
const PARETO_DEPS: &[&str] = &[
    "age:ffs",
    "age:realloc",
    "age:greedy:0",
    "age:greedy:50",
    "age:greedy:200",
    "age:greedy:1000",
    "age:thresh:0",
    "age:thresh:50",
    "age:thresh:200",
    "age:thresh:1000",
    "age:scrub:0",
    "age:scrub:50",
    "age:scrub:200",
    "age:scrub:1000",
];

/// The row jobs the `profiles` exhibit renders, in [`profiles::all`]
/// order (held to it by a test below).
const PROFILE_JOBS: &[&str] = &[
    "profile:home",
    "profile:news",
    "profile:database",
    "profile:personal",
];

/// Column/row label of an aging job in the pareto exhibit: `age:ffs`
/// becomes `ffs`, `age:greedy:50` becomes `greedy/50`.
fn pareto_label(id: &str) -> String {
    id.strip_prefix("age:").unwrap_or(id).replace(':', "/")
}

/// Parses a defragmenting aging job id (`age:<policy>:<budget>`) into
/// its spec; `None` for the plain aging jobs.
fn defrag_spec_of(id: &str) -> Option<defrag::DefragSpec> {
    let (policy, budget) = id.strip_prefix("age:")?.split_once(':')?;
    Some(defrag::DefragSpec::new(
        defrag::DefragPolicy::parse(policy)?,
        budget.parse().ok()?,
    ))
}

/// What a job produces: an aged file system (aging jobs) or TSV text
/// (an exhibit's block, or a `profile:<name>` job's one row).
pub enum JobOut {
    /// Output of an aging job (boxed: a `ReplayResult` is large and the
    /// TSV variant is small).
    Aged(Box<ReplayResult>),
    /// Output of an exhibit or profile-row job.
    Tsv(String),
}

/// The first-layer jobs an exhibit consumes.
fn deps_of(name: &str) -> &'static [&'static str] {
    match name {
        "fig1" => &["age:ffs", "age:realref"],
        "fig2" | "fig3" | "fig4" | "fig5" | "fig6" | "table2" | "freespace" => {
            &["age:ffs", "age:realloc"]
        }
        "pareto" => PARETO_DEPS,
        "profiles" => PROFILE_JOBS,
        _ => &[],
    }
}

fn aged<'a>(ctx: &'a JobCtx<'_, JobOut>, id: &str) -> Result<&'a ReplayResult, JobError> {
    match ctx.dep(id)? {
        JobOut::Aged(r) => Ok(r),
        JobOut::Tsv(_) => Err(JobError::Fatal(format!("{id} is not an aging job"))),
    }
}

/// Owned variant of [`aged`] for jobs that also borrow `ctx.metrics`.
fn aged_arc(ctx: &JobCtx<'_, JobOut>, id: &str) -> Result<std::sync::Arc<JobOut>, JobError> {
    ctx.dep_arc(id)
}

fn tsv<'a>(ctx: &'a JobCtx<'_, JobOut>, id: &str) -> Result<&'a str, JobError> {
    match ctx.dep(id)? {
        JobOut::Tsv(text) => Ok(text),
        JobOut::Aged(_) => Err(JobError::Fatal(format!("{id} is an aging job"))),
    }
}

fn as_aged(out: &JobOut) -> &ReplayResult {
    match out {
        JobOut::Aged(r) => r,
        JobOut::Tsv(_) => unreachable!("aging jobs produce aged file systems"),
    }
}

/// The chaos hook: with `--chaos-kill NAME`, that exhibit panics. It
/// exists to exercise panic isolation end to end — CI runs it against a
/// live DAG.
fn chaos_gate(name: &str, opts: &Options) {
    if opts.chaos_kill.as_deref() == Some(name) {
        panic!("chaos kill: {name}");
    }
}

fn aging_job(
    id: &str,
    opts: &Options,
    sh: &Shared,
    policy: AllocPolicy,
    real_variant: bool,
    defrag: Option<defrag::DefragSpec>,
) -> JobSpec<JobOut> {
    let params = sh.params.clone();
    let mut config = opts.aging_config();
    if real_variant {
        config = config.real_fs_variant();
    }
    let store = (!opts.no_cache).then(|| ArtifactStore::new(opts.cache_path()));
    let weight = config.expected_ops();
    let age = move |ctx: &mut JobCtx<'_, JobOut>| {
        let run = age_cached(
            store.as_ref(),
            &params,
            &config,
            policy,
            ReplayOptions {
                // The job's deadline token rides into the replay so a
                // runaway aging is cut off at a day boundary.
                cancel: Some(ctx.cancel_token()),
                defrag,
                ..ReplayOptions::default()
            },
        )?;
        ctx.metrics.cache = Some(run.cache);
        ctx.metrics.key = Some(run.key.hex.clone());
        ctx.metrics.ops = Some(run.ops);
        if let Some(q) = &run.quarantined {
            ctx.metrics.note("quarantined", q.display());
        }
        Ok(JobOut::Aged(Box::new(run.result)))
    };
    JobSpec {
        deadline_ops: opts.job_deadline_ops,
        weight,
        ..JobSpec::new(id, &[], age)
    }
}

/// One usage profile aged under both policies: a dep-free node of its
/// own, so the four profiles spread over the workers instead of running
/// back to back inside the `profiles` exhibit.
fn profile_job(id: &str, sh: &Shared, name: &str) -> JobSpec<JobOut> {
    let sh = sh.clone();
    let profile = profiles::all(sh.seed)
        .into_iter()
        .find(|p| p.name == name)
        .unwrap_or_else(|| unreachable!("unknown profile job {id}"));
    JobSpec {
        // One generated stream feeds two file systems.
        weight: 2 * experiments::profile_config(&sh, &profile).expected_ops(),
        ..JobSpec::new(id, &[], move |ctx| {
            Ok(JobOut::Tsv(experiments::profile_row(
                &sh,
                &profile,
                ctx.metrics,
            )?))
        })
    }
}

/// A job that replays a previously produced exhibit from its TSV on
/// disk — the `--resume-run` path. Dep-free, so the aging runs it would
/// otherwise require drop out of the DAG entirely.
fn resumed_job(name: &'static str, opts: &Options, path: PathBuf) -> JobSpec<JobOut> {
    let opts = opts.clone();
    JobSpec::new(name, &[], move |ctx| {
        chaos_gate(name, &opts);
        let tsv = fs::read_to_string(&path)
            .map_err(|e| JobError::Fatal(format!("resume {}: {e}", path.display())))?;
        ctx.metrics.note("resumed", "true");
        Ok(JobOut::Tsv(tsv))
    })
}

fn exhibit_job(name: &'static str, opts: &Options, sh: &Shared) -> JobSpec<JobOut> {
    let sh = sh.clone();
    let opts = opts.clone();
    // `snapval` replays too: its workload into one file system and the
    // snapshot-derived one into a second.
    let weight = match name {
        "snapval" => 2 * experiments::capped_paper_config(&sh).expected_ops(),
        _ => 0,
    };
    let run = move |ctx: &mut JobCtx<'_, JobOut>| {
        chaos_gate(name, &opts);
        let tsv = match name {
            "table1" => experiments::table1(&sh),
            "fig1" => experiments::fig1(aged(ctx, "age:ffs")?, aged(ctx, "age:realref")?),
            "fig2" => experiments::fig2(aged(ctx, "age:ffs")?, aged(ctx, "age:realloc")?),
            "fig3" => experiments::fig3(aged(ctx, "age:ffs")?, aged(ctx, "age:realloc")?),
            "fig4" => {
                let (o, r) = (aged_arc(ctx, "age:ffs")?, aged_arc(ctx, "age:realloc")?);
                experiments::fig4(&sh, as_aged(&o), as_aged(&r), ctx.metrics)
            }
            "fig5" => {
                let (o, r) = (aged_arc(ctx, "age:ffs")?, aged_arc(ctx, "age:realloc")?);
                experiments::fig5(&sh, as_aged(&o), as_aged(&r), ctx.metrics)
            }
            "fig6" => experiments::fig6(aged(ctx, "age:ffs")?, aged(ctx, "age:realloc")?),
            "table2" => {
                let (o, r) = (aged_arc(ctx, "age:ffs")?, aged_arc(ctx, "age:realloc")?);
                experiments::table2(&sh, as_aged(&o), as_aged(&r), ctx.metrics)
            }
            "freespace" => experiments::freespace(aged(ctx, "age:ffs")?, aged(ctx, "age:realloc")?),
            "snapval" => experiments::snapval(&sh, ctx.metrics),
            "profiles" => {
                let rows: Vec<&str> = PROFILE_JOBS
                    .iter()
                    .map(|id| tsv(ctx, id))
                    .collect::<Result<_, JobError>>()?;
                experiments::profiles(&sh, &rows)
            }
            "sweep" => experiments::sweep(&sh, ctx.metrics),
            "smallfile" => experiments::smallfile(&sh, ctx.metrics),
            "pareto" => {
                let arcs: Vec<(String, std::sync::Arc<JobOut>)> = PARETO_DEPS
                    .iter()
                    .map(|id| Ok((pareto_label(id), aged_arc(ctx, id)?)))
                    .collect::<Result<_, JobError>>()?;
                let runs: Vec<(String, &ReplayResult)> = arcs
                    .iter()
                    .map(|(label, arc)| (label.clone(), as_aged(arc)))
                    .collect();
                experiments::pareto(&sh, &runs, ctx.metrics)
            }
            other => Err(format!("unknown experiment '{other}'")),
        }?;
        Ok(JobOut::Tsv(tsv))
    };
    JobSpec {
        weight,
        ..JobSpec::new(name, deps_of(name), run)
    }
}

/// Outcome of one requested experiment.
pub struct ExperimentResult {
    /// Experiment name.
    pub name: &'static str,
    /// The job's terminal status: `ok`, `failed`, `panicked`, `timeout`,
    /// or `skipped`.
    pub status: String,
    /// `Err` holds the failure (or skip) reason.
    pub outcome: Result<(), String>,
}

/// A completed driver run.
pub struct Summary {
    /// Per-experiment outcomes, in emission order.
    pub results: Vec<ExperimentResult>,
}

impl Summary {
    /// Whether every requested experiment produced its exhibit.
    pub fn all_ok(&self) -> bool {
        self.results.iter().all(|r| r.outcome.is_ok())
    }

    /// One line summarizing how degraded the run was: per-status counts
    /// when anything went wrong, `all N experiments ok` otherwise.
    pub fn degradation_line(&self) -> String {
        if self.all_ok() {
            return format!("all {} experiments ok", self.results.len());
        }
        let count = |s: &str| self.results.iter().filter(|r| r.status == s).count();
        format!(
            "degraded run: {} ok, {} failed, {} panicked, {} timed out, {} skipped",
            count("ok"),
            count("failed"),
            count("panicked"),
            count("timeout"),
            count("skipped")
        )
    }
}

fn fail(jsonl: &[RunRecord], id: &str) -> String {
    jsonl
        .iter()
        .find(|r| r.job == id)
        .and_then(|r| r.error.clone())
        .unwrap_or_else(|| "no output produced".into())
}

/// Runs `requested` (names from [`EXHIBITS`] plus `sweep`) through the
/// engine, writes run records to `<out>/runs.jsonl` and each exhibit to
/// stdout and `<out>/<name>.tsv`, and returns per-experiment outcomes.
pub fn run(opts: &Options, requested: &[&'static str]) -> Result<Summary, String> {
    // Observability wraps the whole run: metrics and spans recorded by
    // the engine, replays, and simulated devices only *observe* — the
    // exhibit bytes are identical with the flag on or off.
    if opts.metrics.is_some() {
        obs::reset();
        obs::set_enabled(true);
    }
    let sh = Shared::from_options(opts);

    // --resume-run: exhibits a prior journal records as ok, and whose
    // TSVs still exist on disk, reload instead of recomputing. They
    // become dep-free jobs, so first-layer jobs nothing else needs
    // drop out of the DAG entirely.
    let prior_ok = match &opts.resume_run {
        Some(journal) => exp::prior_ok(journal)?,
        None => Default::default(),
    };
    let out_dir = Path::new(&opts.out_dir);
    let tsv_path = |name: &str| out_dir.join(format!("{name}.tsv"));
    let resumable = |name: &str| prior_ok.contains(name) && tsv_path(name).is_file();

    let mut jobs: Vec<JobSpec<JobOut>> = Vec::new();
    let mut deps_needed: Vec<&str> = Vec::new();
    for name in requested {
        if resumable(name) {
            continue;
        }
        for dep in deps_of(name) {
            if !deps_needed.contains(dep) {
                deps_needed.push(dep);
            }
        }
    }
    for id in &deps_needed {
        jobs.push(match *id {
            "age:ffs" => aging_job(id, opts, &sh, AllocPolicy::Orig, false, None),
            "age:realloc" => aging_job(id, opts, &sh, AllocPolicy::Realloc, false, None),
            "age:realref" => aging_job(id, opts, &sh, AllocPolicy::Orig, true, None),
            other => match (other.strip_prefix("profile:"), defrag_spec_of(other)) {
                (Some(name), _) => profile_job(id, &sh, name),
                (None, Some(spec)) => {
                    aging_job(id, opts, &sh, AllocPolicy::Orig, false, Some(spec))
                }
                (None, None) => unreachable!("unknown first-layer job {other}"),
            },
        });
    }
    for name in requested {
        if resumable(name) {
            jobs.push(resumed_job(name, opts, tsv_path(name)));
        } else {
            jobs.push(exhibit_job(name, opts, &sh));
        }
    }

    let run = exp::run_jobs(jobs, opts.worker_count())?;

    fs::create_dir_all(out_dir).map_err(|e| format!("create {}: {e}", out_dir.display()))?;
    let mut jsonl = String::new();
    for rec in &run.records {
        jsonl.push_str(&rec.to_json());
        jsonl.push('\n');
    }
    let runs_path = out_dir.join("runs.jsonl");
    fs::write(&runs_path, jsonl).map_err(|e| format!("write {}: {e}", runs_path.display()))?;

    let mut results = Vec::new();
    let mut stdout = std::io::stdout().lock();
    for name in requested {
        let (status, outcome) = match run.outcomes.get(*name) {
            Some(o @ JobOutcome::Ok(out)) => match out.as_ref() {
                JobOut::Tsv(tsv) => {
                    let path = tsv_path(name);
                    fs::write(&path, tsv).map_err(|e| format!("write {}: {e}", path.display()))?;
                    // The pareto exhibit's headline table additionally
                    // lands in its own file, so downstream tooling can
                    // consume the frontier without the per-day series.
                    if *name == "pareto" {
                        if let Some((frontier, _)) = tsv.split_once(experiments::PARETO_SPLIT) {
                            let fpath = out_dir.join("pareto_frontier.tsv");
                            fs::write(&fpath, format!("{}\n", frontier.trim_end()))
                                .map_err(|e| format!("write {}: {e}", fpath.display()))?;
                        }
                    }
                    let _ = stdout.write_all(tsv.as_bytes());
                    let _ = stdout.write_all(b"\n");
                    (o.status(), Ok(()))
                }
                JobOut::Aged(_) => ("failed", Err(format!("{name} is not an exhibit job"))),
            },
            Some(o) => (
                o.status(),
                Err(o.err().unwrap_or("no failure reason recorded").to_string()),
            ),
            None => ("failed", Err(fail(&run.records, name))),
        };
        results.push(ExperimentResult {
            name,
            status: status.to_string(),
            outcome,
        });
    }
    if let Some(path) = &opts.metrics {
        obs::set_enabled(false);
        let snap = obs::take_snapshot();
        fs::write(path, snap.to_json()).map_err(|e| format!("write {path}: {e}"))?;
    }
    Ok(Summary { results })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profile_jobs_name_every_profile_in_exhibit_order() {
        let names: Vec<String> = profiles::all(1996)
            .iter()
            .map(|p| format!("profile:{}", p.name))
            .collect();
        assert_eq!(names, PROFILE_JOBS);
    }
}
