//! The experiment engine behind the harness.
//!
//! The paper's protocol is many repeated end-to-end runs: two 300-day
//! agings per figure plus a third for the real-file-system reference,
//! then a fan of figure and table computations over the aged images.
//! This crate turns that protocol into data:
//!
//! * [`engine`] — a supervised, deterministic job DAG executed on a
//!   `std::thread` worker pool. Independent jobs (the three agings;
//!   every figure whose inputs are ready) run concurrently; outputs are
//!   identical for any worker count because jobs are pure functions of
//!   their declared dependencies. Failure is contained: panics become
//!   typed [`engine::JobOutcome::Panicked`] records, deadlines cancel
//!   runaway jobs cooperatively, and dependents of anything that
//!   did not produce output are recorded `skipped` while every
//!   independent job still completes.
//! * [`store`] — a content-addressed on-disk artifact store. An aged
//!   file system is keyed by the full provenance of its construction
//!   (file-system parameters, aging configuration, seed, days, policy,
//!   format version) and serialized through the allocation-exact
//!   [`aging::Checkpoint`] format, so it is aged once and reused across
//!   processes. Damaged artifacts are rejected with
//!   [`ffs_types::FsError::Corrupt`], preserved under `quarantine/`,
//!   and transparently re-aged.
//! * [`record`] — structured JSON-lines run records (job id, dependency
//!   keys, cache hit/miss, wall time, op counts,
//!   [`disk::DeviceStats`]) written to `runs.jsonl`.
//! * [`report`] — summarizes a `runs.jsonl` into a where-did-time-go
//!   table (the `harness report` command).

pub mod engine;
pub mod key;
pub mod record;
pub mod report;
pub mod store;

pub use engine::{run_jobs, worker_count, EngineRun, JobCtx, JobError, JobOutcome, JobSpec};
pub use key::{aged_key, fnv1a, AgedKey, FORMAT_VERSION};
pub use record::{prior_ok, CacheStatus, Metrics, RunRecord};
pub use report::summarize;
pub use store::{age_cached, cache_path, parse_aged, render_aged, AgedRun, ArtifactStore};
