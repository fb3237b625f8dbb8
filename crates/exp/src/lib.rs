//! The experiment engine behind the harness.
//!
//! The paper's protocol is many repeated end-to-end runs: two 300-day
//! agings per figure, then a fan of figure and table computations over
//! the aged images.
//! This crate turns that protocol into data:
//!
//! * [`engine`] — a supervised, deterministic job DAG executed on a
//!   `std::thread` worker pool. Independent jobs (the two agings;
//!   every figure whose inputs are ready) run concurrently; outputs are
//!   identical for any worker count because jobs are pure functions of
//!   their declared dependencies. Failure is contained: panics become
//!   typed [`engine::JobOutcome::Panicked`] records, and dependents of
//!   anything that did not produce output are recorded `skipped` while
//!   every independent job still completes.
//! * [`store`] — a content-addressed on-disk artifact store. An aged
//!   file system is keyed by the full provenance of its construction
//!   (file-system parameters, aging configuration, seed, days, policy,
//!   format version) and serialized through the allocation-exact
//!   [`aging::Checkpoint`] format, so it is aged once and reused across
//!   processes. Damaged artifacts are rejected with
//!   [`ffs_types::FsError::Corrupt`], preserved under `quarantine/`,
//!   and transparently re-aged. The store is also how an interrupted
//!   run resumes: a rerun over the same store reloads every aging that
//!   finished (`cache: hit`) and recomputes the rest.
//! * [`record`] — structured JSON-lines run records (job id, dependency
//!   keys, cache hit/miss, wall time, op counts,
//!   [`disk::DeviceStats`]) written to `runs.jsonl`.
//! * [`report`] — summarizes a `runs.jsonl` into a where-did-time-go
//!   table (the `harness report` command).
//! * [`run`] — [`RunOptions`], the one option set of every `harness`
//!   command, and [`run_journaled`], the one path from a DAG to its
//!   `runs.jsonl` (worker count, chaos hook, `--metrics` capture) that
//!   the exhibit driver and the fleet both take.

pub mod engine;
pub mod key;
pub mod record;
pub mod report;
pub mod run;
pub mod store;

pub use engine::{run_jobs, EngineRun, JobCtx, JobError, JobOutcome, JobSpec};
pub use key::{aged_key, fnv1a, AgedKey, FORMAT_VERSION};
pub use record::{CacheStatus, Metrics, RunRecord};
pub use report::summarize;
pub use run::{run_journaled, RunOptions};
pub use store::{age_cached, parse_aged, render_aged, AgedRun, ArtifactStore};
