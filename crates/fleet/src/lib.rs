//! Sharded fleet aging: the paper's protocol, at population scale.
//!
//! A single harness run ages one volume and asks how its layout decays.
//! This crate asks the population question instead: across *thousands*
//! of independently seeded volumes — heterogeneous sizes, group counts,
//! utilization trajectories, and workload intensities — what do the
//! percentiles of layout score and free-space fragmentation look like,
//! day by day, per allocation policy?
//!
//! The pieces:
//!
//! * [`spec`] — a [`spec::FleetSpec`] deterministically expands a
//!   `(shards, fleet_seed, days)` triple into per-shard volume
//!   parameters, policy, and workload configuration; every shard's
//!   provenance hashes to a content address for caching.
//! * [`sampler`] — the splitmix64 generator behind that expansion.
//! * [`shard`] — [`shard::run_shard`] ages one volume a generated day
//!   at a time ([`aging::Replay`]), taking one
//!   [`shard::ShardSample`] between days, and checkpoints the sample series
//!   through the content-addressed [`exp::ArtifactStore`] (atomic
//!   install, checksum validation, quarantine on damage) so a resumed
//!   fleet never re-ages a finished shard.
//! * [`accum`] — [`accum::FleetAccum`], the streaming aggregator:
//!   per-(policy, day) fixed-bucket [`obs::metrics::Histogram`]s that
//!   samples fold into as each shard finishes. Every component of the
//!   fold is commutative (relaxed atomic adds), so any completion order
//!   — and therefore any worker count — produces byte-identical
//!   exhibits, and memory stays `O(days × buckets)`, independent of the
//!   fleet size.
//! * [`exhibit`] — renders the accumulator into the fleet TSVs
//!   (p50/p90/p99 by day, per policy).
//! * [`driver`] — [`driver::run_fleet`] runs the shards as a supervised
//!   DAG on [`exp::run_jobs`] (panic isolation, deadlines) and writes
//!   `runs.jsonl` plus the exhibits.
//!
//! # Example
//!
//! ```
//! use fleet::FleetSpec;
//!
//! let spec = FleetSpec::new(64, 7, 30);
//! let a = spec.shard(0);
//! let b = spec.shard(1);
//! // Expansion is deterministic, and shards are independent draws.
//! assert_eq!(a.provenance(), spec.shard(0).provenance());
//! assert_ne!(a.provenance(), b.provenance());
//! ```

pub mod accum;
pub mod driver;
pub mod exhibit;
pub mod sampler;
pub mod shard;
pub mod spec;

pub use accum::{policy_index, FleetAccum, Metric};
pub use driver::{run_fleet, FleetOptions, FleetSummary};
pub use exhibit::render;
pub use sampler::SplitMix64;
pub use shard::{run_shard, ShardOutput, ShardSample};
pub use spec::{FleetSpec, ShardSpec, FLEET_FORMAT_VERSION};
