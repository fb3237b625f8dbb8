//! Content-addressed cache keys for aged-file-system artifacts.
//!
//! An aged image is a pure function of how it was built, so its cache
//! key hashes the full provenance: file-system parameters, the complete
//! aging configuration (which contains the seed and day count), the
//! allocation policy, the replay options that alter allocation behavior,
//! the placement code's revision ([`ffs::PLACEMENT_REVISION`]) and the
//! artifact format version. Any change to any of those yields a
//! different key, so stale artifacts are never consulted — invalidation
//! is by construction, not by expiry.

use aging::{AgingConfig, ReplayOptions};
use ffs::AllocPolicy;
use ffs_types::FsParams;

pub use ffs_types::record::fnv1a;

/// Version of the on-disk artifact format. Bump on any change to the
/// serialization in [`crate::store`]; old artifacts then miss instead of
/// parsing wrongly. (3: the artifact is sealed with a checksum trailer.)
pub const FORMAT_VERSION: u32 = 3;

/// The cache key of one aged file system.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AgedKey {
    /// 16-hex-digit content address; the artifact's file stem.
    pub hex: String,
    /// The canonical provenance string the address was hashed from.
    /// Only the hash travels: an artifact echoes `hex` in its `key`
    /// record, which catches a file stored under the wrong name; two
    /// provenances colliding on all 64 bits would go unnoticed.
    pub provenance: String,
}

/// Builds the key for an aging run.
pub fn aged_key(
    params: &FsParams,
    config: &AgingConfig,
    policy: AllocPolicy,
    options: &ReplayOptions,
) -> AgedKey {
    let provenance = format!(
        "aged-fs v{FORMAT_VERSION}\n\
         placement r{}\n\
         params size={} bsize={} fsize={} ncg={} maxcontig={} minfree={} \
         bytes_per_inode={} inode_size={}\n\
         config {}\n\
         policy {}\n\
         replay frag_bestfit={} crash_after_ops={}\n\
         defrag {}",
        ffs::PLACEMENT_REVISION,
        params.size_bytes,
        params.bsize,
        params.fsize,
        params.ncg,
        params.maxcontig,
        params.minfree_pct,
        params.bytes_per_inode,
        params.inode_size,
        config.fingerprint(),
        policy.name(),
        options.frag_bestfit,
        options.crash_after_ops,
        options
            .defrag
            .as_ref()
            .map_or_else(|| "none".to_string(), |spec| spec.fingerprint()),
    );
    AgedKey {
        hex: format!("{:016x}", fnv1a(provenance.as_bytes())),
        provenance,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a_matches_reference_vectors() {
        // Published FNV-1a 64-bit test vectors.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x85944171f73967e8);
    }

    /// A short aging's end state, next to the placement revision that
    /// placed it. A change that moves a placement moves these digests:
    /// it must bump [`ffs::PLACEMENT_REVISION`], so that no warm cache
    /// serves an image the old placement aged, and re-pin them here. The
    /// two 10-day `small_test` runs never fail a realloc search, so a
    /// third input does: half the volume in two groups, 45 days at 75 %
    /// utilization, under realloc.
    #[test]
    fn placement_revision_pins_a_short_aging() {
        let digest = |params: &FsParams, config: &AgingConfig, policy| {
            let w = aging::generate(config, params.ncg, params.data_capacity_bytes());
            let r = aging::replay(&w, params, policy, ReplayOptions::default()).unwrap();
            (r.fs.digest(), r.fs.alloc_stats().realloc_failures)
        };
        let params = FsParams::small_test();
        let config = AgingConfig::small_test(10, 1996);
        let digests =
            [AllocPolicy::Orig, AllocPolicy::Realloc].map(|p| digest(&params, &config, p).0);
        let mut tight = FsParams::small_test();
        tight.size_bytes /= 2;
        tight.ncg = 2;
        let mut crowded = AgingConfig::small_test(45, 1996);
        crowded.scale_rates(0.5);
        crowded.plateau_util = 0.75;
        crowded.peak_util = 0.85;
        let (failing, failures) = digest(&tight, &crowded, AllocPolicy::Realloc);
        assert!(failures > 0, "the third input must fail a realloc search");
        assert_eq!(
            (ffs::PLACEMENT_REVISION, digests, failing),
            (
                5,
                [0xbc1b_727c_ff56_6dee, 0xd467_dd91_6607_6625],
                0x833a_078d_5b9f_7c38
            )
        );
        let key = aged_key(
            &params,
            &config,
            AllocPolicy::Orig,
            &ReplayOptions::default(),
        );
        assert!(key.provenance.contains("placement r5\n"));
    }

    #[test]
    fn keys_separate_every_provenance_axis() {
        let params = FsParams::small_test();
        let config = AgingConfig::small_test(10, 42);
        let opts = ReplayOptions::default();
        let base = aged_key(&params, &config, AllocPolicy::Orig, &opts);
        assert_eq!(
            base,
            aged_key(&params, &config, AllocPolicy::Orig, &opts),
            "keys are deterministic"
        );
        assert_eq!(base.hex.len(), 16);
        // Policy.
        let other = aged_key(&params, &config, AllocPolicy::Realloc, &opts);
        assert_ne!(base.hex, other.hex);
        // Seed / days travel inside the config.
        let reseeded = aged_key(
            &params,
            &AgingConfig::small_test(10, 43),
            AllocPolicy::Orig,
            &opts,
        );
        assert_ne!(base.hex, reseeded.hex);
        let longer = aged_key(
            &params,
            &AgingConfig::small_test(11, 42),
            AllocPolicy::Orig,
            &opts,
        );
        assert_ne!(base.hex, longer.hex);
        // File-system geometry.
        let mut p2 = params.clone();
        p2.maxcontig += 1;
        assert_ne!(
            base.hex,
            aged_key(&p2, &config, AllocPolicy::Orig, &opts).hex
        );
        // Allocation-relevant replay options.
        let bestfit = ReplayOptions {
            frag_bestfit: true,
            ..ReplayOptions::default()
        };
        let bestfit_key = aged_key(&params, &config, AllocPolicy::Orig, &bestfit);
        assert_ne!(base.hex, bestfit_key.hex);
        assert!(bestfit_key.provenance.contains("frag_bestfit=true"));
        // Defragmentation spec: policy and budget each split the key.
        let greedy = ReplayOptions {
            defrag: Some(defrag::DefragSpec::new(defrag::DefragPolicy::Greedy, 200)),
            ..ReplayOptions::default()
        };
        let greedy_key = aged_key(&params, &config, AllocPolicy::Orig, &greedy);
        assert_ne!(base.hex, greedy_key.hex);
        assert!(greedy_key.provenance.contains("defrag policy=greedy"));
        let scrub = ReplayOptions {
            defrag: Some(defrag::DefragSpec::new(defrag::DefragPolicy::Scrub, 200)),
            ..ReplayOptions::default()
        };
        assert_ne!(
            greedy_key.hex,
            aged_key(&params, &config, AllocPolicy::Orig, &scrub).hex
        );
        let smaller = ReplayOptions {
            defrag: Some(defrag::DefragSpec::new(defrag::DefragPolicy::Greedy, 50)),
            ..ReplayOptions::default()
        };
        assert_ne!(
            greedy_key.hex,
            aged_key(&params, &config, AllocPolicy::Orig, &smaller).hex
        );
    }

    #[test]
    fn thread_count_shares_one_cache_entry() {
        // `ReplayOptions::threads` is inert (replay has one day loop), so
        // it must never split the cache.
        let params = FsParams::small_test();
        let config = AgingConfig::small_test(10, 42);
        let base = aged_key(
            &params,
            &config,
            AllocPolicy::Orig,
            &ReplayOptions::default(),
        );
        let threaded = ReplayOptions {
            threads: 4,
            ..ReplayOptions::default()
        };
        assert_eq!(
            base.hex,
            aged_key(&params, &config, AllocPolicy::Orig, &threaded).hex
        );
    }
}
