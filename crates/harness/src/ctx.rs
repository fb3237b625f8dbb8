//! Shared experiment options and inputs.
//!
//! Before the experiment engine existed this module aged the file
//! systems itself, once per process, sequentially. The agings are now
//! jobs in the engine's DAG (built in [`crate::driver`]) so they run
//! concurrently and persist in the artifact cache; what remains here is
//! the option set every command shares and the cheap static inputs
//! (file-system and disk parameters) every experiment consumes.

use aging::AgingConfig;
use ffs_types::{DiskParams, FsParams};

/// Command-line options shared by all experiments: the one option set
/// of every `harness` command, `fleet` included.
pub use exp::RunOptions as Options;

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
    use std::path::PathBuf;

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
        let c = paper_config(1996, 30);
        assert_eq!(c.days, 30);
        assert!(c.ramp_days <= 30);
        let o = Options::default();
        assert_eq!(paper_config(o.seed, o.days).ramp_days, 90);
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
