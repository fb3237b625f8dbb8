//! The streaming fleet aggregator: constant memory, any fold order.
//!
//! A fleet produces `shards × days` samples, but the exhibits only need
//! per-day percentiles per policy. [`FleetAccum`] therefore keeps one
//! fixed-bucket [`Histogram`] per (policy, day, metric) — `O(days ×
//! buckets)` memory however many shards fold in — and shards stream
//! their day series into it the moment they finish.
//!
//! Determinism falls out of commutativity: every component of a fold is
//! a relaxed atomic add (or max), so any interleaving of concurrent
//! folds — any worker count, any completion order — leaves the
//! accumulator in the identical state, and the rendered exhibit in the
//! identical bytes. No lock, no sorting pass, no buffering of the fleet.
//!
//! Both fleet metrics (layout score, free-space fragmentation) live in
//! `[0, 1]`; samples are scaled by [`SCALE`] and bucketed at `1/SCALE`
//! resolution, which is finer than the three decimals the exhibits
//! print.

use ffs::AllocPolicy;
use obs::metrics::Histogram;

use crate::shard::ShardSample;

/// Fixed-point scale for `[0, 1]` samples: three decimal digits plus
/// headroom so rendered percentiles (`{:.3}`) are exact at bucket
/// resolution.
pub const SCALE: f64 = 1000.0;

/// Number of policies the fleet distinguishes (orig, realloc).
pub const POLICIES: usize = 2;

/// The accumulator's index for an allocation policy.
pub fn policy_index(policy: AllocPolicy) -> usize {
    match policy {
        AllocPolicy::Orig => 0,
        AllocPolicy::Realloc => 1,
    }
}

/// The two per-day fleet metrics.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Metric {
    /// End-of-day aggregate layout score.
    Layout,
    /// End-of-day free-space fragmentation
    /// (`1 − clusterable_fraction`).
    FreeFrag,
}

/// Upper-inclusive bounds `0, 2, 4, …, 1000` — 501 buckets over the
/// scaled unit interval, 0.002 resolution.
fn unit_bounds() -> Vec<u64> {
    (0..=500).map(|i| i * 2).collect()
}

fn scaled(v: f64) -> u64 {
    (v.clamp(0.0, 1.0) * SCALE).round() as u64
}

/// The streaming fleet aggregator. See the module docs for the memory
/// and determinism contract.
#[derive(Debug)]
pub struct FleetAccum {
    days: u32,
    /// `POLICIES × days` histograms, indexed `policy * days + day`.
    layout: Vec<Histogram>,
    freefrag: Vec<Histogram>,
    /// Per-shard total op counts: `count()` = shards folded, `sum()` =
    /// fleet-wide ops replayed.
    ops: Histogram,
}

impl FleetAccum {
    /// Creates an accumulator for a fleet aged `days` days.
    pub fn new(days: u32) -> FleetAccum {
        let bounds = unit_bounds();
        let make = || -> Vec<Histogram> {
            (0..POLICIES * days as usize)
                .map(|_| Histogram::new(&bounds))
                .collect()
        };
        FleetAccum {
            days,
            layout: make(),
            freefrag: make(),
            ops: Histogram::new(obs::bounds::POW2),
        }
    }

    /// The fleet horizon this accumulator covers.
    pub fn days(&self) -> u32 {
        self.days
    }

    fn slot(&self, metric: Metric, policy: usize, day: u32) -> &Histogram {
        assert!(policy < POLICIES, "policy index {policy} out of range");
        assert!(day < self.days, "day {day} beyond horizon {}", self.days);
        let i = policy * self.days as usize + day as usize;
        match metric {
            Metric::Layout => &self.layout[i],
            Metric::FreeFrag => &self.freefrag[i],
        }
    }

    /// Folds one finished shard's day series and op count in. Atomic and
    /// commutative: concurrent folds in any order produce the identical
    /// accumulator state.
    pub fn fold(&self, policy: usize, samples: &[ShardSample], ops: u64) {
        for s in samples {
            self.slot(Metric::Layout, policy, s.day)
                .observe(scaled(s.layout));
            self.slot(Metric::FreeFrag, policy, s.day)
                .observe(scaled(s.freefrag));
        }
        self.ops.observe(ops);
    }

    /// The (p50, p90, p99) of `metric` for `policy` on `day`, in
    /// original `[0, 1]` units. `None` when no shard of that policy has
    /// reached that day.
    pub fn percentiles(&self, metric: Metric, policy: usize, day: u32) -> Option<(f64, f64, f64)> {
        let h = self.slot(metric, policy, day);
        Some((
            h.quantile(0.50)? as f64 / SCALE,
            h.quantile(0.90)? as f64 / SCALE,
            h.quantile(0.99)? as f64 / SCALE,
        ))
    }

    /// Workload operations replayed across every folded shard.
    pub fn total_ops(&self) -> u64 {
        self.ops.sum()
    }

    /// Total histogram buckets held — the accumulator's memory footprint
    /// in units of one `u64` counter. A function of the horizon only,
    /// never of the shard count: the constant-memory guard pins this.
    pub fn footprint_buckets(&self) -> u64 {
        let per = |hists: &[Histogram]| -> u64 {
            hists.iter().map(|h| h.bucket_counts().len() as u64).sum()
        };
        per(&self.layout) + per(&self.freefrag) + self.ops.bucket_counts().len() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(day: u32, layout: f64, freefrag: f64) -> ShardSample {
        ShardSample {
            day,
            layout,
            freefrag,
            util: 0.7,
        }
    }

    fn series(days: u32, base: f64) -> Vec<ShardSample> {
        (0..days)
            .map(|d| sample(d, base - 0.01 * d as f64, 0.1 + 0.01 * d as f64))
            .collect()
    }

    #[test]
    fn percentiles_come_back_in_unit_scale() {
        let a = FleetAccum::new(3);
        for (i, base) in [0.90, 0.80, 0.70, 0.60].iter().enumerate() {
            a.fold(0, &series(3, *base), 100 + i as u64);
        }
        let (p50, p90, p99) = a.percentiles(Metric::Layout, 0, 0).unwrap();
        assert!((0.0..=1.0).contains(&p50));
        assert!(p50 <= p90 && p90 <= p99, "{p50} {p90} {p99}");
        assert_eq!(p99, 0.90);
        // No realloc shard folded: that policy has no percentiles.
        assert_eq!(a.percentiles(Metric::Layout, 1, 0), None);
        assert_eq!(a.ops.count(), 4);
        assert_eq!(a.total_ops(), 100 + 101 + 102 + 103);
    }

    #[test]
    fn fold_order_and_merge_are_equivalent() {
        let shards: Vec<Vec<ShardSample>> =
            (0..8).map(|i| series(4, 0.95 - 0.05 * i as f64)).collect();
        let forward = FleetAccum::new(4);
        let reverse = FleetAccum::new(4);
        for (i, s) in shards.iter().enumerate() {
            forward.fold(i % 2, s, 10 + i as u64);
        }
        for (i, s) in shards.iter().enumerate().rev() {
            reverse.fold(i % 2, s, 10 + i as u64);
        }
        for day in 0..4 {
            for policy in 0..POLICIES {
                for metric in [Metric::Layout, Metric::FreeFrag] {
                    assert_eq!(
                        reverse.percentiles(metric, policy, day),
                        forward.percentiles(metric, policy, day)
                    );
                }
            }
        }
        assert_eq!(reverse.total_ops(), forward.total_ops());
        assert_eq!(reverse.ops.count(), forward.ops.count());
    }

    #[test]
    fn footprint_is_independent_of_shard_count() {
        // The ISSUE's constant-memory guard: fold 16 shards into one
        // accumulator and 256 into another; the footprint must not move.
        let small = FleetAccum::new(30);
        let large = FleetAccum::new(30);
        for i in 0..16u64 {
            small.fold((i % 2) as usize, &series(30, 0.9), i);
        }
        for i in 0..256u64 {
            large.fold((i % 2) as usize, &series(30, 0.9), i);
        }
        assert_eq!(small.footprint_buckets(), large.footprint_buckets());
        assert_eq!(small.ops.count(), 16);
        assert_eq!(large.ops.count(), 256);
        // And the footprint is a function of the horizon.
        assert!(FleetAccum::new(60).footprint_buckets() > small.footprint_buckets());
    }

    #[test]
    fn out_of_range_samples_clamp_into_the_unit_interval() {
        let a = FleetAccum::new(1);
        a.fold(0, &[sample(0, -0.5, 1.5)], 1);
        let (p50, _, p99) = a.percentiles(Metric::Layout, 0, 0).unwrap();
        assert_eq!(p50, 0.0);
        assert_eq!(p99, 0.0);
        let (f50, _, _) = a.percentiles(Metric::FreeFrag, 0, 0).unwrap();
        assert_eq!(f50, 1.0);
    }

    #[test]
    #[should_panic(expected = "beyond horizon")]
    fn folding_past_the_horizon_is_a_bug() {
        FleetAccum::new(2).fold(0, &[sample(2, 0.5, 0.5)], 1);
    }
}
