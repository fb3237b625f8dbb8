//! One shard of the fleet: age one volume, stream its day samples.
//!
//! [`run_shard`] pushes a shard's workload through an [`aging::Replay`]
//! one generated day at a time, measuring between days — layout score
//! and utilization from the recorded [`aging::DayStats`], free-space
//! fragmentation computed live from the end-of-day file system. The
//! aged image itself is discarded: a fleet cares about the sample
//! series, and persisting thousands of full images would defeat the
//! constant-memory design.
//!
//! The sample series *is* checkpointed, through the content-addressed
//! [`ArtifactStore`] (`<key>.shard`, atomic install). Floats are written
//! with Rust's shortest round-trip `Display`, so a reloaded series is
//! bit-identical to the freshly measured one and a resumed fleet renders
//! byte-identical exhibits. Loading trusts nothing: header, key, policy,
//! sample count, and a whole-file checksum are validated, and damage is
//! quarantined (bytes preserved for post-mortem) before the shard is
//! re-aged. The layout, in the workspace's line-record grammar
//! ([`ffs_types::record`]), sealed like `exp`'s `.aged` artifacts:
//!
//! ```text
//! # fleet shard artifact v3
//! key <16-hex content address>
//! policy <orig|realloc>
//! days <N>
//! skipped <creates skipped for lack of space>
//! sample <day> <layout> <freefrag> <util>      (N of them)
//! checksum <16-hex FNV-1a of every byte above>
//! ```

use std::convert::Infallible;
use std::path::PathBuf;

use aging::{Days, Replay, ReplayOptions};
use exp::{ArtifactStore, CacheStatus, JobError};
use ffs::free_space_stats;
use ffs_types::record::{push_num, records, seal, unseal};

use crate::spec::{ShardSpec, FLEET_FORMAT_VERSION};

/// Artifact extension for shard sample checkpoints.
const EXT: &str = "shard";

/// Free-run histogram length passed to [`free_space_stats`]; the
/// fragmentation metric only reads the exact block totals, so the bound
/// just caps scratch space.
const FREE_HIST_MAX: usize = 32;

/// One end-of-day measurement of a shard.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ShardSample {
    /// Day index (0-based).
    pub day: u32,
    /// Aggregate layout score at end of day.
    pub layout: f64,
    /// Free-space fragmentation: the fraction of free blocks *not*
    /// sitting in maxcontig-length runs (`1 − clusterable_fraction`).
    pub freefrag: f64,
    /// Utilization at end of day.
    pub util: f64,
}

/// What aging one shard produced.
#[derive(Clone, Debug)]
pub struct ShardOutput {
    /// One sample per aged day, in day order.
    pub samples: Vec<ShardSample>,
    /// Workload operations replayed (0 on a cache hit).
    pub ops: u64,
    /// Creates skipped for lack of space.
    pub skipped: u64,
    /// Whether the series came from the store.
    pub cache: CacheStatus,
    /// Where a damaged checkpoint was preserved, if one was found.
    pub quarantined: Option<PathBuf>,
}

/// Renders `spec`'s sample series as the text of its `.shard` artifact.
pub fn render_artifact(spec: &ShardSpec, samples: &[ShardSample], skipped: u64) -> String {
    use std::fmt::Write as _;
    let mut text = format!(
        "# fleet shard artifact v{FLEET_FORMAT_VERSION}\nkey {}\npolicy {}\ndays ",
        spec.key_hex(),
        spec.policy.name()
    );
    push_num(&mut text, samples.len() as u64);
    text.push_str("\nskipped ");
    push_num(&mut text, skipped);
    text.push('\n');
    for s in samples {
        text.push_str("sample ");
        push_num(&mut text, s.day.into());
        // Shortest round-trip Display: reload is bit-exact.
        let _ = writeln!(text, " {} {} {}", s.layout, s.freefrag, s.util);
    }
    seal(&mut text);
    text
}

/// Parses and validates the text of `spec`'s `.shard` artifact: a pure
/// function of its arguments.
pub fn parse_artifact(spec: &ShardSpec, text: &str) -> Result<(Vec<ShardSample>, u64), String> {
    let mut lines = records(unseal(text)?);
    let mut header = lines.next().ok_or("empty artifact")?;
    header.tag(&format!("# fleet shard artifact v{FLEET_FORMAT_VERSION}"))?;
    header.end()?;
    let mut key: Option<String> = None;
    let mut days: Option<usize> = None;
    let mut skipped = None;
    let mut samples: Vec<ShardSample> = Vec::new();
    for mut f in lines {
        match f.word("record")? {
            "key" => f.once(&mut key, "key")?,
            "policy" => {
                let policy = f.word("policy")?;
                if policy != spec.policy.name() {
                    return Err(format!(
                        "policy mismatch: file says {policy}, shard is {}",
                        spec.policy.name()
                    ));
                }
            }
            "days" => f.once(&mut days, "days")?,
            "skipped" => f.once(&mut skipped, "skipped")?,
            "sample" => samples.push(ShardSample {
                day: f.num("day")?,
                layout: f.num("layout")?,
                freefrag: f.num("freefrag")?,
                util: f.num("util")?,
            }),
            other => return Err(f.err(format_args!("unknown record {other:?}"))),
        }
        f.end()?;
    }
    let key = key.ok_or("missing key line")?;
    if key != spec.key_hex() {
        return Err(format!(
            "key mismatch: file says {key}, wanted {}",
            spec.key_hex()
        ));
    }
    let days = days.ok_or("missing days line")?;
    let skipped = skipped.ok_or("missing skipped line")?;
    if samples.len() != days {
        return Err(format!("{} samples but days says {days}", samples.len()));
    }
    if days != spec.config.days as usize {
        return Err(format!(
            "artifact covers {days} days, shard wants {}",
            spec.config.days
        ));
    }
    Ok((samples, skipped))
}

/// Ages one shard, going through the store when one is given: a valid
/// checkpoint is reused (`hit`, zero replay ops), a missing one is
/// measured and saved (`miss`), a damaged one is quarantined and the
/// shard re-aged (`corrupt`).
///
/// The third parameter is inert: it can only be `None`, and nothing
/// reads it. It survives only because the frozen
/// `benchmark/src/layers.rs` calls `run_shard(None, &shard, None)`, and
/// it goes at the thaw, like `aging::ReplayOptions::threads`.
pub fn run_shard(
    store: Option<&ArtifactStore>,
    spec: &ShardSpec,
    _inert: Option<Infallible>,
) -> Result<ShardOutput, JobError> {
    let key = spec.key_hex();
    let found = store.map(|s| s.lookup(&key, EXT, |t| parse_artifact(spec, t)));
    let (cache, quarantined) = match found {
        Some(Ok((samples, skipped))) => {
            return Ok(ShardOutput {
                samples,
                ops: 0,
                skipped,
                cache: CacheStatus::Hit,
                quarantined: None,
            });
        }
        Some(Err(missed)) => missed,
        None => (CacheStatus::Disabled, None),
    };
    let options = ReplayOptions {
        defrag: spec.defrag.clone(),
        ..ReplayOptions::default()
    };
    let mut replay = Replay::new(&spec.params, spec.policy, options)?;
    let mut samples: Vec<ShardSample> = Vec::with_capacity(spec.config.days as usize);
    for day in Days::new(
        &spec.config,
        spec.params.ncg,
        spec.params.data_capacity_bytes(),
    ) {
        replay.day(&day)?;
        let d = replay.last().expect("a fresh replay records every day");
        samples.push(ShardSample {
            day: d.day,
            layout: d.layout_score,
            freefrag: 1.0 - free_space_stats(replay.fs(), FREE_HIST_MAX).clusterable_fraction(),
            util: d.utilization,
        });
    }
    let ops = replay.ops();
    let result = replay.finish();
    if let Some(store) = store {
        store
            .save_named(
                &key,
                EXT,
                &render_artifact(spec, &samples, result.skipped_creates),
            )
            .map_err(JobError::Fatal)?;
    }
    Ok(ShardOutput {
        samples,
        ops,
        skipped: result.skipped_creates,
        cache,
        quarantined,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::FleetSpec;
    use std::path::PathBuf;

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("fleet-shard-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    #[test]
    fn miss_then_hit_reloads_bit_exact_samples() {
        let dir = tmpdir("roundtrip");
        let store = ArtifactStore::new(&dir);
        let spec = FleetSpec::new(4, 21, 4).shard(2);
        let cold = run_shard(Some(&store), &spec, None).unwrap();
        assert_eq!(cold.cache, CacheStatus::Miss);
        assert!(cold.ops > 0);
        assert_eq!(cold.samples.len(), 4);
        assert!(cold
            .samples
            .iter()
            .all(|s| (0.0..=1.0).contains(&s.freefrag)));
        let warm = run_shard(Some(&store), &spec, None).unwrap();
        assert_eq!(warm.cache, CacheStatus::Hit);
        assert_eq!(warm.ops, 0);
        assert_eq!(warm.samples, cold.samples, "reload is bit-exact");
        assert_eq!(warm.skipped, cold.skipped);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn uncached_shard_reports_disabled() {
        let spec = FleetSpec::new(2, 5, 2).shard(0);
        let out = run_shard(None, &spec, None).unwrap();
        assert_eq!(out.cache, CacheStatus::Disabled);
        assert_eq!(out.samples.len(), 2);
        assert!(out.ops > 0);
    }

    #[test]
    fn damage_is_quarantined_and_the_shard_re_aged() {
        let dir = tmpdir("damage");
        let store = ArtifactStore::new(&dir);
        let spec = FleetSpec::new(4, 9, 3).shard(1);
        let cold = run_shard(Some(&store), &spec, None).unwrap();
        let path = store.dir().join(format!("{}.{EXT}", spec.key_hex()));
        let original = std::fs::read_to_string(&path).unwrap();

        // Every validation layer rejects: bit rot (checksum), truncation,
        // a wrong-key file under the right name, a policy swap.
        for bad in [
            original.replacen("sample 0", "sample 9", 1),
            original[..original.len() / 2].to_string(),
            original.replacen(&spec.key_hex(), "0000000000000000", 2),
        ] {
            assert!(parse_artifact(&spec, &bad).is_err(), "accepted: {bad:?}");
        }

        std::fs::write(&path, original.replacen("sample 0", "sample 9", 1)).unwrap();
        let healed = run_shard(Some(&store), &spec, None).unwrap();
        assert_eq!(healed.cache, CacheStatus::Corrupt);
        assert!(healed.ops > 0, "the series was re-measured, not trusted");
        assert_eq!(healed.samples, cold.samples);
        let q = healed.quarantined.expect("damaged checkpoint preserved");
        assert!(q.starts_with(store.quarantine_dir()));
        // The store healed: next load hits.
        assert_eq!(
            run_shard(Some(&store), &spec, None).unwrap().cache,
            CacheStatus::Hit
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
