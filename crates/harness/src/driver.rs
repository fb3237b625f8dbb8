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
use std::path::Path;

use aging::{profiles, ReplayOptions, ReplayResult};
use exp::{age_cached, JobCtx, JobError, JobOutcome, JobSpec, RunRecord};
use ffs::AllocPolicy;

use crate::ctx::{paper_config, Options, Shared};
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

fn aging_job(
    id: &str,
    opts: &Options,
    sh: &Shared,
    policy: AllocPolicy,
    real_variant: bool,
    defrag: Option<defrag::DefragSpec>,
) -> JobSpec<JobOut> {
    let params = sh.params.clone();
    let mut config = paper_config(opts.seed, opts.days);
    if real_variant {
        config = config.real_fs_variant();
    }
    let store = opts.store();
    let weight = config.expected_ops();
    let age = move |ctx: &mut JobCtx<'_, JobOut>| {
        let run = age_cached(
            store.as_ref(),
            &params,
            &config,
            policy,
            ReplayOptions {
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

fn exhibit_job(name: &'static str, sh: &Shared) -> JobSpec<JobOut> {
    let sh = sh.clone();
    // `snapval` replays too: its workload into one file system and the
    // snapshot-derived one into a second.
    let weight = match name {
        "snapval" => 2 * experiments::capped_paper_config(&sh).expected_ops(),
        _ => 0,
    };
    let run = move |ctx: &mut JobCtx<'_, JobOut>| {
        let tsv = match name {
            "table1" => experiments::table1(&sh),
            "fig1" => experiments::fig1(aged(ctx, "age:ffs")?, aged(ctx, "age:realref")?),
            "fig2" => experiments::fig2(aged(ctx, "age:ffs")?, aged(ctx, "age:realloc")?),
            "fig3" => experiments::fig3(aged(ctx, "age:ffs")?, aged(ctx, "age:realloc")?),
            "fig4" => {
                let (o, r) = (ctx.dep_arc("age:ffs")?, ctx.dep_arc("age:realloc")?);
                experiments::fig4(&sh, as_aged(&o), as_aged(&r), ctx.metrics)
            }
            "fig5" => {
                let (o, r) = (ctx.dep_arc("age:ffs")?, ctx.dep_arc("age:realloc")?);
                experiments::fig5(&sh, as_aged(&o), as_aged(&r), ctx.metrics)
            }
            "fig6" => experiments::fig6(aged(ctx, "age:ffs")?, aged(ctx, "age:realloc")?),
            "table2" => {
                let (o, r) = (ctx.dep_arc("age:ffs")?, ctx.dep_arc("age:realloc")?);
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
                    .map(|id| Ok((pareto_label(id), ctx.dep_arc(id)?)))
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
    /// The job's terminal status: `ok`, `failed`, `panicked`, or
    /// `skipped`.
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
            "degraded run: {} ok, {} failed, {} panicked, {} skipped",
            count("ok"),
            count("failed"),
            count("panicked"),
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
    let sh = Shared::from_options(opts);
    let out_dir = Path::new(&opts.out_dir);

    let mut jobs: Vec<JobSpec<JobOut>> = Vec::new();
    let mut deps_needed: Vec<&str> = Vec::new();
    for name in requested {
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
        jobs.push(exhibit_job(name, &sh));
    }

    // Metrics and spans recorded by the engine, replays, and simulated
    // devices only *observe*: the exhibit bytes are identical with
    // `--metrics` on or off.
    let run = exp::run_journaled(opts, jobs, |_| Vec::new())?;

    let mut results = Vec::new();
    let mut stdout = std::io::stdout().lock();
    for name in requested {
        let (status, outcome) = match run.outcomes.get(*name) {
            Some(o @ JobOutcome::Ok(out)) => match out.as_ref() {
                JobOut::Tsv(tsv) => {
                    let path = out_dir.join(format!("{name}.tsv"));
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
