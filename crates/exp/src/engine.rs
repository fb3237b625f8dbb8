//! A supervised, deterministic job DAG executed on a `std::thread`
//! worker pool.
//!
//! Jobs are pure functions of their declared dependencies, so the
//! engine's only degrees of freedom — which ready job a worker picks and
//! how many workers exist — cannot change any job's output. That is the
//! property the harness's determinism tests pin down: `--jobs 4`
//! produces byte-identical exhibits to `--jobs 1`, and the same holds on
//! the failure paths (outcomes, errors, and skip causes).
//!
//! Failure is contained, not fatal, in layers:
//!
//! * **Panic isolation** — every job body runs under
//!   [`std::panic::catch_unwind`]; a panic becomes a typed
//!   [`JobOutcome::Panicked`] record instead of a poisoned engine lock.
//!   The lock itself is poison-tolerant as a second line of defense, so
//!   surviving workers always drain the remaining independent subgraph.
//! * **Typed failures** — jobs return [`JobError`], which separates
//!   deterministic failures from deadline cancellations.
//! * **Deadlines** — a per-job operation budget materializes as an
//!   [`aging::CancelToken`] handed to the job through [`JobCtx`]; work
//!   that threads it into `aging::replay` is cut off cooperatively at a
//!   checkpoint boundary and recorded as [`JobOutcome::TimedOut`].
//! * **Skip propagation** — dependents of a job that did not produce
//!   output are recorded as [`JobOutcome::Skipped`] with the cause.

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::Instant;

use aging::CancelToken;
use ffs_types::FsError;

use crate::record::{Metrics, RunRecord};

/// A typed job failure, classified for the supervisor.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum JobError {
    /// Deterministic failure; rerunning the job would reproduce it.
    Fatal(String),
    /// The job's cancellation token fired (op budget exceeded).
    Deadline {
        /// Operations the job had completed when it was cut off.
        after_ops: u64,
    },
    /// The job consumed a dependency it never declared — a DAG
    /// construction bug, surfaced in the record instead of a panic.
    UndeclaredDep {
        /// The offending job.
        job: String,
        /// The undeclared dependency it asked for.
        dep: String,
    },
}

impl JobError {
    /// Classifies a file-system error: `FsError::Cancelled` is a
    /// deadline, everything else is fatal.
    pub fn from_fs(e: &FsError) -> JobError {
        match e {
            FsError::Cancelled { after_ops } => JobError::Deadline {
                after_ops: *after_ops,
            },
            _ => JobError::Fatal(e.to_string()),
        }
    }
}

impl std::fmt::Display for JobError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JobError::Fatal(e) => write!(f, "{e}"),
            JobError::Deadline { after_ops } => {
                write!(f, "deadline exceeded after {after_ops} operations")
            }
            JobError::UndeclaredDep { job, dep } => {
                write!(f, "job {job:?} consumed undeclared dependency {dep:?}")
            }
        }
    }
}

impl From<String> for JobError {
    fn from(e: String) -> JobError {
        JobError::Fatal(e)
    }
}

impl From<&str> for JobError {
    fn from(e: &str) -> JobError {
        JobError::Fatal(e.to_string())
    }
}

/// The work function of a job: consumes its dependencies' outputs
/// through [`JobCtx`], reports measurements into [`JobCtx::metrics`].
pub type JobFn<T> = Box<dyn FnOnce(&mut JobCtx<'_, T>) -> Result<T, JobError> + Send>;

/// One node of the DAG.
pub struct JobSpec<T> {
    /// Unique identifier (also the `job` field of the run record).
    pub id: String,
    /// Identifiers of jobs whose outputs this one consumes.
    pub deps: Vec<String>,
    /// The work.
    pub run: JobFn<T>,
    /// Operation budget, enforced through the job's [`CancelToken`]
    /// (0 = no deadline).
    pub deadline_ops: u64,
    /// Expected cost, in any unit the table uses consistently (the
    /// harness uses replayed ops). A free worker takes the heaviest
    /// ready job, so the longest jobs start first and the short ones
    /// fill in behind them; ties go to the lowest index. Scheduling
    /// only — jobs are pure, so no weight can change an outcome.
    pub weight: u64,
}

impl<T> JobSpec<T> {
    /// Convenience constructor (no deadline, weight 0).
    pub fn new<F>(id: &str, deps: &[&str], run: F) -> JobSpec<T>
    where
        F: FnOnce(&mut JobCtx<'_, T>) -> Result<T, JobError> + Send + 'static,
    {
        JobSpec {
            id: id.to_string(),
            deps: deps.iter().map(|d| d.to_string()).collect(),
            run: Box::new(run),
            deadline_ops: 0,
            weight: 0,
        }
    }
}

/// What a running job sees: its dependencies' outputs, its record's
/// metrics section, and its cancellation token.
pub struct JobCtx<'a, T> {
    job: &'a str,
    deps: Vec<(&'a str, Arc<T>)>,
    /// Measurements merged into the job's [`RunRecord`].
    pub metrics: &'a mut Metrics,
    cancel: CancelToken,
}

impl<T> JobCtx<'_, T> {
    /// The output of dependency `id`, or [`JobError::UndeclaredDep`]
    /// when `id` was not declared in the job's `deps` — a bug in the DAG
    /// construction, reported in the job's record rather than panicking.
    pub fn dep(&self, id: &str) -> Result<&T, JobError> {
        self.deps
            .iter()
            .find(|(d, _)| *d == id)
            .map(|(_, v)| v.as_ref())
            .ok_or_else(|| JobError::UndeclaredDep {
                job: self.job.to_string(),
                dep: id.to_string(),
            })
    }

    /// Like [`JobCtx::dep`], but returns an owned handle — for jobs that
    /// need a dependency and `metrics` borrowed at the same time.
    pub fn dep_arc(&self, id: &str) -> Result<Arc<T>, JobError> {
        self.deps
            .iter()
            .find(|(d, _)| *d == id)
            .map(|(_, v)| Arc::clone(v))
            .ok_or_else(|| JobError::UndeclaredDep {
                job: self.job.to_string(),
                dep: id.to_string(),
            })
    }

    /// The job's cancellation token. Long-running work
    /// threads it into `aging::ReplayOptions::cancel` so the deadline
    /// can cut it off at a checkpoint boundary.
    pub fn cancel_token(&self) -> CancelToken {
        self.cancel.clone()
    }
}

/// Terminal state of one job.
#[derive(Clone, Debug)]
pub enum JobOutcome<T> {
    /// The job ran and produced its output.
    Ok(Arc<T>),
    /// The job ran and returned an error.
    Failed(String),
    /// The job's body panicked; the payload message is preserved.
    Panicked(String),
    /// The job exceeded its deadline budget and was cancelled.
    TimedOut(String),
    /// The job never ran because a dependency did not produce output.
    Skipped(String),
}

impl<T> JobOutcome<T> {
    /// The output, when the job succeeded.
    pub fn ok(&self) -> Option<&T> {
        match self {
            JobOutcome::Ok(v) => Some(v.as_ref()),
            _ => None,
        }
    }

    /// The failure or skip reason, when the job did not succeed.
    pub fn err(&self) -> Option<&str> {
        match self {
            JobOutcome::Ok(_) => None,
            JobOutcome::Failed(e)
            | JobOutcome::Panicked(e)
            | JobOutcome::TimedOut(e)
            | JobOutcome::Skipped(e) => Some(e),
        }
    }

    /// The `status` string recorded for this outcome.
    pub fn status(&self) -> &'static str {
        match self {
            JobOutcome::Ok(_) => "ok",
            JobOutcome::Failed(_) => "failed",
            JobOutcome::Panicked(_) => "panicked",
            JobOutcome::TimedOut(_) => "timeout",
            JobOutcome::Skipped(_) => "skipped",
        }
    }

    /// How this outcome reads as a dependency-skip cause.
    fn skip_cause(&self, dep: &str) -> String {
        match self {
            JobOutcome::Ok(_) => unreachable!("ok dependencies do not skip dependents"),
            JobOutcome::Failed(_) => format!("dependency {dep:?} failed"),
            JobOutcome::Panicked(_) => format!("dependency {dep:?} panicked"),
            JobOutcome::TimedOut(_) => format!("dependency {dep:?} exceeded its deadline"),
            JobOutcome::Skipped(_) => format!("dependency {dep:?} was skipped"),
        }
    }
}

/// Everything a finished DAG run produced.
pub struct EngineRun<T> {
    /// Terminal state of every job, by id.
    pub outcomes: BTreeMap<String, JobOutcome<T>>,
    /// One record per job, sorted by job id.
    pub records: Vec<RunRecord>,
}

struct Pending<T> {
    id: String,
    deps: Vec<String>,
    run: Option<JobFn<T>>,
    deadline_ops: u64,
    weight: u64,
    waiting_on: usize,
    dependents: Vec<usize>,
}

struct Shared<T> {
    jobs: Vec<Pending<T>>,
    outcomes: Vec<Option<JobOutcome<T>>>,
    records: Vec<Option<RunRecord>>,
    ready: VecDeque<usize>,
    unfinished: usize,
    /// Set only if a worker dies outside the job-level catch — an engine
    /// bug, not a job failure. Remaining workers drain and exit instead
    /// of waiting forever on `unfinished`.
    aborted: bool,
}

/// Poison-tolerant lock: a panic while holding the mutex (nothing inside
/// the job-level `catch_unwind` can cause one, but engine bookkeeping
/// could) must not wedge the surviving workers. The shared tables are
/// written whole-slot-at-a-time, so the state is usable after recovery.
fn lock<'a, T>(m: &'a Mutex<Shared<T>>) -> MutexGuard<'a, Shared<T>> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The worker-pool size for a `jobs` option: the explicit count, or —
/// for 0 — one worker per core, capped at 8.
pub fn worker_count(jobs: usize) -> usize {
    if jobs > 0 {
        return jobs;
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(8)
}

/// Renders a panic payload for the record.
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Executes `jobs` on `workers` threads (clamped to at least 1) and
/// returns every outcome and run record. A failing, panicking, or
/// timed-out job never aborts the run: its transitive dependents are
/// recorded `skipped` and every independent job still completes.
///
/// Fails up front — before running anything — on duplicate ids, unknown
/// dependencies, or cycles.
pub fn run_jobs<T: Send + Sync + 'static>(
    jobs: Vec<JobSpec<T>>,
    workers: usize,
) -> Result<EngineRun<T>, String> {
    let index: HashMap<String, usize> = jobs
        .iter()
        .enumerate()
        .map(|(i, j)| (j.id.clone(), i))
        .collect();
    if index.len() != jobs.len() {
        let mut seen = std::collections::BTreeSet::new();
        for j in &jobs {
            if !seen.insert(&j.id) {
                return Err(format!("duplicate job id {:?}", j.id));
            }
        }
    }
    let mut pending: Vec<Pending<T>> = jobs
        .into_iter()
        .map(|j| Pending {
            waiting_on: j.deps.len(),
            id: j.id,
            deps: j.deps,
            run: Some(j.run),
            deadline_ops: j.deadline_ops,
            weight: j.weight,
            dependents: Vec::new(),
        })
        .collect();
    for i in 0..pending.len() {
        for d in pending[i].deps.clone() {
            let &dep = index
                .get(&d)
                .ok_or_else(|| format!("job {:?} depends on unknown job {d:?}", pending[i].id))?;
            pending[dep].dependents.push(i);
        }
    }
    // Kahn's algorithm over a copy of the in-degrees: any node never
    // reached sits on a cycle.
    let mut indeg: Vec<usize> = pending.iter().map(|p| p.waiting_on).collect();
    let mut queue: VecDeque<usize> = (0..pending.len()).filter(|&i| indeg[i] == 0).collect();
    let mut reached = 0usize;
    while let Some(i) = queue.pop_front() {
        reached += 1;
        for &d in &pending[i].dependents {
            indeg[d] -= 1;
            if indeg[d] == 0 {
                queue.push_back(d);
            }
        }
    }
    if reached != pending.len() {
        let stuck: Vec<&str> = indeg
            .iter()
            .enumerate()
            .filter(|&(_, &n)| n > 0)
            .map(|(i, _)| pending[i].id.as_str())
            .collect();
        return Err(format!("dependency cycle through: {}", stuck.join(", ")));
    }

    let n = pending.len();
    let ready: VecDeque<usize> = (0..n).filter(|&i| pending[i].waiting_on == 0).collect();
    let shared = Mutex::new(Shared {
        jobs: pending,
        outcomes: (0..n).map(|_| None).collect(),
        records: (0..n).map(|_| None).collect(),
        ready,
        unfinished: n,
        aborted: false,
    });
    let cond = Condvar::new();
    let workers = workers.clamp(1, n.max(1));
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| {
                // Job panics are caught inside worker_loop; this outer
                // catch only fires on an engine-bookkeeping panic. Flag
                // the abort so peers drain instead of waiting forever,
                // and finish the thread normally so the scope does not
                // re-panic.
                if catch_unwind(AssertUnwindSafe(|| worker_loop(&shared, &cond))).is_err() {
                    lock(&shared).aborted = true;
                    cond.notify_all();
                }
            });
        }
    });

    let shared = shared.into_inner().unwrap_or_else(PoisonError::into_inner);
    let aborted = shared.aborted;
    let mut outcomes = BTreeMap::new();
    let mut records = Vec::with_capacity(n);
    for (p, (o, r)) in shared
        .jobs
        .into_iter()
        .zip(shared.outcomes.into_iter().zip(shared.records))
    {
        // A job left unresolved can only happen after an engine abort;
        // synthesize a skip record so the caller still sees every job.
        let o = o.unwrap_or_else(|| {
            debug_assert!(aborted, "unresolved job without an engine abort");
            JobOutcome::Skipped("engine aborted before this job resolved".into())
        });
        let r = r.unwrap_or_else(|| RunRecord {
            job: p.id.clone(),
            deps: p.deps.clone(),
            status: o.status().into(),
            error: o.err().map(str::to_string),
            wall_s: 0.0,
            attempts: 0,
            backoff_units: 0,
            metrics: Metrics::default(),
        });
        outcomes.insert(p.id, o);
        records.push(r);
    }
    records.sort_by(|a, b| a.job.cmp(&b.job));
    Ok(EngineRun { outcomes, records })
}

fn worker_loop<T: Send + Sync>(shared: &Mutex<Shared<T>>, cond: &Condvar) {
    let mut guard = lock(shared);
    loop {
        let i = loop {
            if guard.unfinished == 0 || guard.aborted {
                return;
            }
            // Heaviest first, so the longest job is never the one left
            // running alone at the end; lowest index among equals keeps
            // the pick order stable.
            let pick = guard
                .ready
                .iter()
                .copied()
                .min_by_key(|&j| (std::cmp::Reverse(guard.jobs[j].weight), j));
            if let Some(pick) = pick {
                guard.ready.retain(|&j| j != pick);
                break pick;
            }
            guard = cond.wait(guard).unwrap_or_else(PoisonError::into_inner);
        };
        let id = guard.jobs[i].id.clone();
        let dep_names = guard.jobs[i].deps.clone();
        let deadline_ops = guard.jobs[i].deadline_ops;
        // A dependency that did not produce output skips this job, with
        // the cause recorded.
        let mut blocked = None;
        let mut dep_vals = Vec::with_capacity(dep_names.len());
        for d in &dep_names {
            let di = guard
                .jobs
                .iter()
                .position(|p| &p.id == d)
                .expect("invariant: dependency names were validated against the job table");
            match guard.outcomes[di]
                .as_ref()
                .expect("invariant: a ready job's dependencies have all resolved")
            {
                JobOutcome::Ok(v) => dep_vals.push(Arc::clone(v)),
                other => {
                    blocked = Some(other.skip_cause(d));
                    break;
                }
            }
        }
        let run = guard.jobs[i]
            .run
            .take()
            .expect("invariant: each job is dispatched exactly once");
        let (outcome, record) = if let Some(reason) = blocked {
            obs::counter!("exp.jobs_skipped", 1);
            (
                JobOutcome::Skipped(reason.clone()),
                RunRecord {
                    job: id,
                    deps: dep_names,
                    status: "skipped".into(),
                    error: Some(reason),
                    wall_s: 0.0,
                    attempts: 0,
                    backoff_units: 0,
                    metrics: Metrics::default(),
                },
            )
        } else {
            drop(guard);
            let t0 = Instant::now();
            let mut metrics = Metrics::default();
            let mut ctx = JobCtx {
                job: &id,
                deps: dep_names.iter().map(String::as_str).zip(dep_vals).collect(),
                metrics: &mut metrics,
                cancel: if deadline_ops > 0 {
                    CancelToken::with_op_budget(deadline_ops)
                } else {
                    CancelToken::unlimited()
                },
            };
            // The job body is arbitrary user code: a panic here must
            // become a typed outcome, not a poisoned engine.
            let result = {
                let _job_span = obs::span::enter(&format!("job:{id}"));
                catch_unwind(AssertUnwindSafe(|| run(&mut ctx)))
            };
            let outcome = match result {
                Err(payload) => {
                    obs::counter!("exp.jobs_panicked", 1);
                    JobOutcome::Panicked(format!("panic: {}", panic_message(payload)))
                }
                Ok(Ok(v)) => {
                    obs::counter!("exp.jobs_ok", 1);
                    JobOutcome::Ok(Arc::new(v))
                }
                Ok(Err(JobError::Deadline { after_ops })) => {
                    obs::counter!("exp.deadline_cancels", 1);
                    JobOutcome::TimedOut(format!(
                        "deadline exceeded after {after_ops} operations (budget {deadline_ops})"
                    ))
                }
                Ok(Err(e)) => JobOutcome::Failed(e.to_string()),
            };
            let record = RunRecord {
                job: id,
                deps: dep_names,
                status: outcome.status().into(),
                error: outcome.err().map(str::to_string),
                wall_s: t0.elapsed().as_secs_f64(),
                attempts: 0,
                backoff_units: 0,
                metrics,
            };
            guard = lock(shared);
            (outcome, record)
        };
        guard.outcomes[i] = Some(outcome);
        guard.records[i] = Some(record);
        guard.unfinished -= 1;
        for d in guard.jobs[i].dependents.clone() {
            guard.jobs[d].waiting_on -= 1;
            if guard.jobs[d].waiting_on == 0 {
                guard.ready.push_back(d);
            }
        }
        cond.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> Vec<JobSpec<u64>> {
        vec![
            JobSpec::new("a", &[], |_| Ok(1)),
            JobSpec::new("b", &["a"], |c| Ok(c.dep("a")? * 10)),
            JobSpec::new("c", &["a"], |c| Ok(c.dep("a")? * 100)),
            JobSpec::new("d", &["b", "c"], |c| Ok(c.dep("b")? + c.dep("c")?)),
        ]
    }

    #[test]
    fn diamond_resolves_identically_for_any_worker_count() {
        for workers in [1, 2, 8] {
            let run = run_jobs(diamond(), workers).unwrap();
            assert_eq!(run.outcomes["d"].ok(), Some(&110));
            assert_eq!(run.records.len(), 4);
            assert!(run.records.iter().all(|r| r.status == "ok"));
            let ids: Vec<&str> = run.records.iter().map(|r| r.job.as_str()).collect();
            assert_eq!(ids, ["a", "b", "c", "d"], "records sorted by id");
        }
    }

    #[test]
    fn failure_skips_transitive_dependents_but_not_siblings() {
        let jobs: Vec<JobSpec<u64>> = vec![
            JobSpec::new("a", &[], |_| Err("boom".into())),
            JobSpec::new("b", &["a"], |_| Ok(2)),
            JobSpec::new("c", &["b"], |_| Ok(3)),
            JobSpec::new("solo", &[], |_| Ok(4)),
        ];
        let run = run_jobs(jobs, 3).unwrap();
        assert_eq!(run.outcomes["a"].err(), Some("boom"));
        assert!(matches!(run.outcomes["b"], JobOutcome::Skipped(_)));
        assert!(matches!(run.outcomes["c"], JobOutcome::Skipped(_)));
        assert_eq!(run.outcomes["solo"].ok(), Some(&4));
        let b = run.records.iter().find(|r| r.job == "b").unwrap();
        assert_eq!(b.status, "skipped");
        assert!(b.error.as_deref().unwrap().contains("\"a\""));
    }

    #[test]
    fn a_panicking_job_is_contained_and_typed() {
        let jobs: Vec<JobSpec<u64>> = vec![
            JobSpec::new("bomb", &[], |_| -> Result<u64, JobError> {
                panic!("the payload message")
            }),
            JobSpec::new("child", &["bomb"], |c| Ok(*c.dep("bomb")?)),
            JobSpec::new("solo", &[], |_| Ok(7)),
        ];
        let run = run_jobs(jobs, 2).expect("engine survives a panicking job");
        match &run.outcomes["bomb"] {
            JobOutcome::Panicked(msg) => assert!(msg.contains("the payload message")),
            other => panic!("expected Panicked, got {:?}", other.status()),
        }
        let bomb = run.records.iter().find(|r| r.job == "bomb").unwrap();
        assert_eq!(bomb.status, "panicked");
        match &run.outcomes["child"] {
            JobOutcome::Skipped(why) => assert!(why.contains("panicked"), "{why}"),
            other => panic!("expected Skipped, got {:?}", other.status()),
        }
        assert_eq!(run.outcomes["solo"].ok(), Some(&7), "siblings complete");
    }

    #[test]
    fn undeclared_dependency_is_a_typed_failure_not_a_panic() {
        let jobs: Vec<JobSpec<u64>> = vec![
            JobSpec::new("a", &[], |_| Ok(1)),
            JobSpec::new("greedy", &["a"], |c| Ok(*c.dep("ghost")?)),
        ];
        let run = run_jobs(jobs, 1).unwrap();
        let r = run.records.iter().find(|r| r.job == "greedy").unwrap();
        assert_eq!(r.status, "failed");
        let msg = r.error.as_deref().unwrap();
        assert!(msg.contains("undeclared dependency"), "{msg}");
        assert!(msg.contains("ghost"), "{msg}");
    }

    #[test]
    fn deadline_outcome_is_typed_and_contained() {
        let jobs: Vec<JobSpec<u64>> = vec![
            JobSpec {
                deadline_ops: 100,
                ..JobSpec::new("slow", &[], |c: &mut JobCtx<'_, u64>| {
                    // Simulate a replay loop honoring its token.
                    let token = c.cancel_token();
                    token.charge(500);
                    token.checkpoint().map_err(|e| JobError::from_fs(&e))?;
                    Ok(1)
                })
            },
            JobSpec::new("after", &["slow"], |c| Ok(*c.dep("slow")?)),
        ];
        let run = run_jobs(jobs, 2).unwrap();
        match &run.outcomes["slow"] {
            JobOutcome::TimedOut(msg) => {
                assert!(msg.contains("after 500"), "{msg}");
                assert!(msg.contains("budget 100"), "{msg}");
            }
            other => panic!("expected TimedOut, got {:?}", other.status()),
        }
        let r = run.records.iter().find(|r| r.job == "slow").unwrap();
        assert_eq!(r.status, "timeout");
        assert!(matches!(run.outcomes["after"], JobOutcome::Skipped(_)));
    }

    #[test]
    fn metrics_land_in_the_record() {
        let jobs: Vec<JobSpec<u64>> = vec![JobSpec::new("m", &[], |c| {
            c.metrics.ops = Some(42);
            c.metrics.note("flavor", "test");
            Ok(0)
        })];
        let run = run_jobs(jobs, 1).unwrap();
        assert_eq!(run.records[0].metrics.ops, Some(42));
        assert_eq!(run.records[0].metrics.notes[0].1, "test");
    }

    /// A table with work on both layers: three dep-free roots of very
    /// different cost, a failing root, and dependents of each.
    fn weighted_table(weights: [u64; 4], started: &Arc<Mutex<Vec<String>>>) -> Vec<JobSpec<u64>> {
        let job = |id: &'static str, deps: &[&str], weight: u64, out: Result<u64, &'static str>| {
            let started = Arc::clone(started);
            JobSpec {
                weight,
                ..JobSpec::new(id, deps, move |c: &mut JobCtx<'_, u64>| {
                    started.lock().unwrap().push(id.to_string());
                    c.metrics.ops = out.ok();
                    Ok(out?)
                })
            }
        };
        let [light, heavy, middling, doomed] = weights;
        vec![
            job("light", &[], light, Ok(1)),
            job("heavy", &[], heavy, Ok(2)),
            job("middling", &[], middling, Ok(3)),
            job("doomed", &[], doomed, Err("boom")),
            job("sum", &["light", "heavy", "middling"], 0, Ok(6)),
            job("orphan", &["doomed"], 0, Ok(0)),
        ]
    }

    #[test]
    fn the_heaviest_ready_job_starts_first_and_changes_nothing() {
        let run = |weights: [u64; 4], workers: usize| {
            let started = Arc::new(Mutex::new(Vec::new()));
            let run = run_jobs(weighted_table(weights, &started), workers).unwrap();
            let outcomes: Vec<(String, &'static str, Option<u64>)> = run
                .outcomes
                .iter()
                .map(|(id, o)| (id.clone(), o.status(), o.ok().copied()))
                .collect();
            let records: Vec<String> = run
                .records
                .iter()
                .map(|r| {
                    RunRecord {
                        wall_s: 0.0,
                        ..r.clone()
                    }
                    .to_json()
                })
                .collect();
            let order = started.lock().unwrap().clone();
            (outcomes, records, order)
        };
        let (flat_outcomes, flat_records, flat_order) = run([0; 4], 1);
        assert_eq!(flat_order[..4], ["light", "heavy", "middling", "doomed"]);
        for workers in [1, 2, 4] {
            let (outcomes, records, order) = run([10, 1000, 100, 100], workers);
            assert_eq!(outcomes, flat_outcomes, "{workers} workers");
            assert_eq!(records, flat_records, "{workers} workers");
            // Whichever worker wins the lock first takes the heaviest
            // root; with one worker the whole order is by weight, ties
            // to the lower index.
            assert_eq!(order[0], "heavy", "{workers} workers: {order:?}");
            if workers == 1 {
                assert_eq!(order[..4], ["heavy", "middling", "doomed", "light"]);
            }
        }
    }

    fn expect_err(r: Result<EngineRun<u64>, String>) -> String {
        match r {
            Ok(_) => panic!("graph should have been rejected"),
            Err(e) => e,
        }
    }

    #[test]
    fn bad_graphs_are_rejected_up_front() {
        let dup: Vec<JobSpec<u64>> = vec![
            JobSpec::new("x", &[], |_| Ok(0)),
            JobSpec::new("x", &[], |_| Ok(0)),
        ];
        assert!(expect_err(run_jobs(dup, 1)).contains("duplicate"));
        let unknown: Vec<JobSpec<u64>> = vec![JobSpec::new("y", &["ghost"], |_| Ok(0))];
        assert!(expect_err(run_jobs(unknown, 1)).contains("unknown"));
        let cycle: Vec<JobSpec<u64>> = vec![
            JobSpec::new("p", &["q"], |_| Ok(0)),
            JobSpec::new("q", &["p"], |_| Ok(0)),
        ];
        assert!(expect_err(run_jobs(cycle, 1)).contains("cycle"));
    }

    #[test]
    fn wide_fanout_completes_under_contention() {
        let mut jobs: Vec<JobSpec<u64>> = vec![JobSpec::new("root", &[], |_| Ok(7))];
        for i in 0..50u64 {
            jobs.push(JobSpec::new(&format!("leaf{i:02}"), &["root"], move |c| {
                Ok(c.dep("root")? + i)
            }));
        }
        let run = run_jobs(jobs, 4).unwrap();
        for i in 0..50u64 {
            assert_eq!(run.outcomes[&format!("leaf{i:02}")].ok(), Some(&(7 + i)));
        }
    }
}
