//! Fleet specification: a seed deterministically expanded into shards.
//!
//! A fleet is described by three numbers — shard count, fleet seed,
//! horizon in days — and nothing else travels between processes. Each
//! shard derives its own generator from `(fleet_seed, index)` and draws
//! a heterogeneous volume (size, cylinder groups), an allocation policy,
//! and a workload profile (intensity, utilization trajectory,
//! burstiness) from fixed menus. Because each shard's draw is
//! independent of every other shard's, the expansion needs no shared
//! sequential state: shard 977 of a thousand-shard fleet can be
//! re-derived alone, which is what makes per-shard caching and resume
//! content-addressable.

use aging::AgingConfig;
use exp::fnv1a;
use ffs::AllocPolicy;
use ffs_types::{FsParams, KB, MB};

use crate::sampler::SplitMix64;

/// Version of the shard provenance and artifact format. Bumping it
/// invalidates every cached shard checkpoint at once. v2 added the
/// defragmentation draw to the shard menu; v3 follows the fix that
/// stopped a failed create from inflating the recorded utilization.
pub const FLEET_FORMAT_VERSION: u32 = 3;

/// Volume sizes the sampler draws from, in megabytes. All are small
/// multiples of the test geometry so a large fleet stays cheap while
/// still exercising heterogeneous capacity.
const SIZE_MB_MENU: [u64; 4] = [8, 12, 16, 24];

/// Cylinder-group counts the sampler draws from.
const NCG_MENU: [u32; 2] = [2, 4];

/// Daily move budgets the defragmentation draw picks from.
const DEFRAG_BUDGET_MENU: [u32; 2] = [50, 200];

/// A fleet: `shards` independent volumes aged for `days` days.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FleetSpec {
    /// Number of shards (independent volumes).
    pub shards: u32,
    /// Master seed every shard's draw derives from.
    pub fleet_seed: u64,
    /// Aging horizon in days, shared by every shard.
    pub days: u32,
}

impl FleetSpec {
    /// Builds a fleet specification.
    pub fn new(shards: u32, fleet_seed: u64, days: u32) -> FleetSpec {
        FleetSpec {
            shards,
            fleet_seed,
            days,
        }
    }

    /// Expands shard `index` (`0..shards`). Deterministic: the same
    /// `(fleet_seed, days, index)` always yields the identical shard,
    /// independent of any other shard's expansion.
    pub fn shard(&self, index: u32) -> ShardSpec {
        let mut rng =
            SplitMix64::new(self.fleet_seed ^ fnv1a(format!("fleet shard {index}").as_bytes()));
        let size_mb = *rng.pick(&SIZE_MB_MENU);
        let ncg = *rng.pick(&NCG_MENU);
        let params = FsParams {
            size_bytes: size_mb * MB,
            bsize: 8 * KB as u32,
            fsize: KB as u32,
            ncg,
            maxcontig: 7,
            minfree_pct: 10,
            bytes_per_inode: 4 * KB as u32,
            inode_size: 128,
        };
        let policy = if rng.next_u64().is_multiple_of(2) {
            AllocPolicy::Orig
        } else {
            AllocPolicy::Realloc
        };
        // Per-shard workload: the scaled-down paper profile re-scaled to
        // the drawn capacity, with jittered intensity and a heterogeneous
        // utilization trajectory.
        let mut config = AgingConfig::small_test(self.days, rng.next_u64());
        let scale = (size_mb as f64 / 16.0) * rng.in_range(0.75, 1.25);
        config.short_pairs_per_day *= scale;
        config.long_creates_per_day = (config.long_creates_per_day * scale).max(4.0);
        config.long_modifies_per_day = (config.long_modifies_per_day * scale).max(3.0);
        config.rewrites_per_day = (config.rewrites_per_day * scale).max(3.0);
        config.plateau_util = rng.in_range(0.55, 0.85);
        config.peak_util = (config.plateau_util + 0.10).min(0.92);
        config.burst_prob = rng.in_range(0.03, 0.09);
        // Drawn after everything above so the defragmentation menu's
        // introduction left every existing shard's volume, policy, and
        // workload untouched. Roughly one shard in four runs a daily
        // defragmentation pass.
        let defrag = if rng.next_u64().is_multiple_of(4) {
            let policy = *rng.pick(&defrag::DefragPolicy::all());
            let budget = *rng.pick(&DEFRAG_BUDGET_MENU);
            Some(defrag::DefragSpec::new(policy, budget))
        } else {
            None
        };
        ShardSpec {
            index,
            params,
            policy,
            config,
            defrag,
        }
    }
}

/// One expanded shard: a volume, a policy, and a workload.
#[derive(Clone, Debug, PartialEq)]
pub struct ShardSpec {
    /// Position in the fleet (`0..shards`).
    pub index: u32,
    /// The shard's volume geometry.
    pub params: FsParams,
    /// The allocation policy this shard ages under.
    pub policy: AllocPolicy,
    /// The shard's workload configuration (carries the shard's seed).
    pub config: AgingConfig,
    /// The daily defragmentation pass this shard runs, if it drew one.
    pub defrag: Option<defrag::DefragSpec>,
}

impl ShardSpec {
    /// The shard's engine job id. Zero-padded so record order sorts
    /// numerically for any fleet up to 10 000 shards.
    pub fn job_id(&self) -> String {
        format!("shard:{:04}", self.index)
    }

    /// The full provenance of this shard's sample series: everything
    /// that shapes the samples, and nothing that does not. Two shards
    /// produce the same series iff their provenances match, so its hash
    /// ([`ShardSpec::key_hex`]) is a sound content address.
    pub fn provenance(&self) -> String {
        let FsParams {
            size_bytes,
            bsize,
            fsize,
            ncg,
            maxcontig,
            minfree_pct,
            bytes_per_inode,
            inode_size,
        } = self.params;
        format!(
            "fleet-shard v{FLEET_FORMAT_VERSION}\n\
             params size={size_bytes} bsize={bsize} fsize={fsize} ncg={ncg} \
             maxcontig={maxcontig} minfree={minfree_pct} bpi={bytes_per_inode} \
             isize={inode_size}\n\
             policy {}\n\
             config {}\n\
             defrag {}\n",
            self.policy.name(),
            self.config.fingerprint(),
            self.defrag
                .as_ref()
                .map_or_else(|| "none".to_string(), |d| d.fingerprint())
        )
    }

    /// The 16-hex content address of this shard's artifact.
    pub fn key_hex(&self) -> String {
        format!("{:016x}", fnv1a(self.provenance().as_bytes()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn expansion_is_deterministic_and_independent() {
        let spec = FleetSpec::new(64, 7, 30);
        assert_eq!(spec.shard(9), spec.shard(9));
        assert_eq!(spec.shard(9).key_hex(), spec.shard(9).key_hex());
        // Distinct shards are distinct draws; distinct fleet seeds
        // reshuffle everything.
        assert_ne!(spec.shard(0).provenance(), spec.shard(1).provenance());
        assert_ne!(
            spec.shard(0).key_hex(),
            FleetSpec::new(64, 8, 30).shard(0).key_hex()
        );
    }

    #[test]
    fn shards_are_heterogeneous_but_valid() {
        let spec = FleetSpec::new(64, 7, 10);
        let mut sizes = std::collections::BTreeSet::new();
        let mut policies = std::collections::BTreeSet::new();
        let mut defragged = 0u32;
        for i in 0..64 {
            let s = spec.shard(i);
            if let Some(d) = &s.defrag {
                defragged += 1;
                assert!(DEFRAG_BUDGET_MENU.contains(&d.moves_per_day));
            }
            assert_eq!(s.index, i);
            assert_eq!(s.config.days, 10);
            sizes.insert(s.params.size_bytes);
            policies.insert(s.policy.name());
            assert!(NCG_MENU.contains(&s.params.ncg));
            assert!((0.55..0.85).contains(&s.config.plateau_util));
            assert!(s.config.peak_util <= 0.92);
            assert!(s.config.peak_util > s.config.plateau_util);
            // The workload must fit the drawn volume.
            assert!(s.params.data_capacity_bytes() > 0);
        }
        assert!(sizes.len() >= 3, "size menu exercised: {sizes:?}");
        assert_eq!(policies.len(), 2, "both policies drawn");
        // The ~1-in-4 defragmentation draw: some shards run a pass,
        // most do not.
        assert!(
            (1..32).contains(&defragged),
            "defrag drawn by {defragged} of 64 shards"
        );
    }

    #[test]
    fn job_ids_sort_numerically() {
        let spec = FleetSpec::new(200, 1, 2);
        let mut ids: Vec<String> = (0..200).map(|i| spec.shard(i).job_id()).collect();
        let sorted = ids.clone();
        ids.sort();
        assert_eq!(ids, sorted);
    }
}
