//! Shared experiment options and inputs.
//!
//! Before the experiment engine existed this module aged the file
//! systems itself, once per process, sequentially. The agings are now
//! jobs in the engine's DAG (built in [`crate::driver`]) so they run
//! concurrently and persist in the artifact cache; what remains here is
//! the option set every command shares and the cheap static inputs
//! (file-system and disk parameters) every experiment consumes.

use std::path::PathBuf;

use aging::AgingConfig;
use ffs_types::{DiskParams, FsParams};

/// Command-line options shared by all experiments.
#[derive(Clone, Debug)]
pub struct Options {
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
    /// Chaos hook: the named exhibit panics, exercising panic isolation
    /// end to end.
    pub chaos_kill: Option<String>,
    /// `fleet` only: number of independently seeded volumes to age.
    pub shards: u32,
    /// `fleet` only: master seed the per-shard draws derive from.
    pub fleet_seed: u64,
}

impl Default for Options {
    fn default() -> Self {
        Options {
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

impl Options {
    /// The worker-pool size the engine should use.
    pub fn worker_count(&self) -> usize {
        exp::worker_count(self.jobs)
    }

    /// Where aged-file-system artifacts live.
    pub fn cache_path(&self) -> PathBuf {
        exp::cache_path(self.cache_dir.as_deref(), &self.out_dir)
    }

    /// The paper's aging configuration at this option set's seed and
    /// length.
    pub fn aging_config(&self) -> AgingConfig {
        paper_config(self.seed, self.days)
    }
}

/// The paper's aging configuration at `seed`, cut to `days` (with the
/// ramp shortened to fit truncated runs).
pub(crate) fn paper_config(seed: u64, days: u32) -> AgingConfig {
    let mut config = AgingConfig::paper(seed);
    config.days = days;
    if days < config.ramp_days {
        config.ramp_days = (days / 3).max(1);
    }
    config
}

/// The static inputs every experiment consumes: Table 1's file-system
/// and disk parameters plus the run's length and seed.
#[derive(Clone, Debug)]
pub struct Shared {
    /// File-system parameters (Table 1).
    pub params: FsParams,
    /// Disk parameters (Table 1).
    pub disk: DiskParams,
    /// Days the main runs age.
    pub days: u32,
    /// Workload seed.
    pub seed: u64,
}

impl Shared {
    /// Builds the shared inputs for an option set.
    pub fn from_options(opts: &Options) -> Shared {
        Shared {
            params: FsParams::paper_502mb(),
            disk: DiskParams::seagate_32430n(),
            days: opts.days,
            seed: opts.seed,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_the_paper() {
        let o = Options::default();
        assert_eq!(o.days, 300);
        assert_eq!(o.seed, 1996);
        assert_eq!(o.out_dir, "results");
        assert_eq!(o.cache_path(), PathBuf::from("results/cache"));
        assert!(o.worker_count() >= 1);
        assert!(o.metrics.is_none());
        assert!(!o.quiet);
    }

    #[test]
    fn truncated_runs_shorten_the_ramp() {
        let o = Options {
            days: 30,
            ..Options::default()
        };
        let c = o.aging_config();
        assert_eq!(c.days, 30);
        assert!(c.ramp_days <= 30);
        assert_eq!(Options::default().aging_config().ramp_days, 90);
    }

    #[test]
    fn explicit_cache_dir_wins() {
        let mut o = Options {
            cache_dir: Some("/tmp/elsewhere".into()),
            ..Options::default()
        };
        assert_eq!(o.cache_path(), PathBuf::from("/tmp/elsewhere"));
        o.jobs = 3;
        assert_eq!(o.worker_count(), 3);
    }
}
