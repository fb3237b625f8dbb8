//! The metric registry: named counters, gauges, and fixed-bucket
//! histograms.
//!
//! Registration (the first use of a name) takes the registry mutex;
//! every subsequent operation is a relaxed atomic on a `&'static`
//! handle, so instrumented hot loops never contend on a lock. Handles
//! are allocated with `Box::leak` — the set of metric *names* is small
//! and static, so the leak is bounded and intentional; [`Registry::zero`]
//! resets values without invalidating handles.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// A monotonic counter.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// Adds `n`, saturating at `u64::MAX` rather than wrapping.
    #[inline]
    pub fn add(&self, n: u64) {
        // fetch_add wraps on overflow; fetch_update lets us saturate.
        // Counters live for one process run, so the loop never spins in
        // practice.
        let _ = self
            .value
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| {
                Some(v.saturating_add(n))
            });
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }

    /// Resets to zero.
    pub fn zero(&self) {
        self.value.store(0, Ordering::Relaxed);
    }
}

/// A last-write-wins gauge.
#[derive(Debug, Default)]
pub struct Gauge {
    value: AtomicU64,
}

impl Gauge {
    /// Sets the gauge.
    #[inline]
    pub fn set(&self, v: u64) {
        self.value.store(v, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }

    /// Resets to zero.
    pub fn zero(&self) {
        self.value.store(0, Ordering::Relaxed);
    }
}

/// A histogram with fixed upper-inclusive bucket bounds plus one
/// overflow bucket.
///
/// A value `v` lands in the first bucket whose bound is `>= v`; values
/// greater than the last bound land in the overflow bucket (index
/// `bounds.len()`). Zero therefore lands in bucket 0 whenever the first
/// bound is `>= 0` — i.e. always.
#[derive(Debug)]
pub struct Histogram {
    bounds: Vec<u64>,
    /// `bounds.len() + 1` buckets; the last is the overflow bucket.
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl Histogram {
    /// Creates a histogram with the given upper-inclusive bounds.
    /// Bounds must be non-empty and strictly increasing.
    pub fn new(bounds: &[u64]) -> Histogram {
        assert!(!bounds.is_empty(), "histogram needs at least one bound");
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram bounds must be strictly increasing"
        );
        Histogram {
            bounds: bounds.to_vec(),
            buckets: (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }

    /// Records one observation.
    #[inline]
    pub fn observe(&self, v: u64) {
        let i = self.bounds.partition_point(|&b| b < v);
        self.buckets[i].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        let _ = self
            .sum
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |s| {
                Some(s.saturating_add(v))
            });
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// The upper-inclusive bucket bounds.
    pub fn bounds(&self) -> &[u64] {
        &self.bounds
    }

    /// Bucket counts (`bounds.len() + 1` entries, overflow last).
    pub fn bucket_counts(&self) -> Vec<u64> {
        self.buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect()
    }

    /// Total observations.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of observed values (saturating).
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Largest observed value (0 when empty).
    pub fn max(&self) -> u64 {
        self.max.load(Ordering::Relaxed)
    }

    /// Resets every bucket and summary statistic to zero.
    pub fn zero(&self) {
        for b in &self.buckets {
            b.store(0, Ordering::Relaxed);
        }
        self.count.store(0, Ordering::Relaxed);
        self.sum.store(0, Ordering::Relaxed);
        self.max.store(0, Ordering::Relaxed);
    }

    /// The upper bound of the bucket holding the `q`-quantile
    /// observation (`0.0 < q <= 1.0`), i.e. the smallest bound below
    /// which at least `ceil(q * count)` observations fall. Observations
    /// in the overflow bucket report [`Histogram::max`]. Returns `None`
    /// when the histogram is empty.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        let n = self.count();
        if n == 0 {
            return None;
        }
        let rank = ((q * n as f64).ceil() as u64).clamp(1, n);
        let mut cum = 0u64;
        for (i, c) in self.bucket_counts().iter().enumerate() {
            cum += c;
            if cum >= rank {
                return Some(if i < self.bounds.len() {
                    self.bounds[i]
                } else {
                    self.max()
                });
            }
        }
        Some(self.max())
    }
}

/// The process-wide set of registered metrics, keyed by name.
#[derive(Debug, Default)]
pub struct Registry {
    counters: Mutex<BTreeMap<&'static str, &'static Counter>>,
    gauges: Mutex<BTreeMap<&'static str, &'static Gauge>>,
    hists: Mutex<BTreeMap<&'static str, &'static Histogram>>,
}

impl Registry {
    /// Creates an empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    /// The counter named `name`, registered on first use.
    pub fn counter(&self, name: &'static str) -> &'static Counter {
        self.counters
            .lock()
            .expect("obs registry lock")
            .entry(name)
            .or_insert_with(|| Box::leak(Box::new(Counter::default())))
    }

    /// The gauge named `name`, registered on first use.
    pub fn gauge(&self, name: &'static str) -> &'static Gauge {
        self.gauges
            .lock()
            .expect("obs registry lock")
            .entry(name)
            .or_insert_with(|| Box::leak(Box::new(Gauge::default())))
    }

    /// The histogram named `name`. The first registration fixes the
    /// bucket bounds; later calls with different bounds get the
    /// already-registered histogram (the same quantity must be bucketed
    /// identically everywhere).
    pub fn histogram(&self, name: &'static str, bounds: &[u64]) -> &'static Histogram {
        self.hists
            .lock()
            .expect("obs registry lock")
            .entry(name)
            .or_insert_with(|| Box::leak(Box::new(Histogram::new(bounds))))
    }

    /// Sorted `(name, value)` pairs of every registered counter.
    pub fn counter_values(&self) -> Vec<(String, u64)> {
        self.counters
            .lock()
            .expect("obs registry lock")
            .iter()
            .map(|(n, c)| (n.to_string(), c.get()))
            .collect()
    }

    /// Sorted `(name, value)` pairs of every registered gauge.
    pub fn gauge_values(&self) -> Vec<(String, u64)> {
        self.gauges
            .lock()
            .expect("obs registry lock")
            .iter()
            .map(|(n, g)| (n.to_string(), g.get()))
            .collect()
    }

    /// Sorted `(name, histogram)` pairs of every registered histogram.
    pub fn histogram_handles(&self) -> Vec<(String, &'static Histogram)> {
        self.hists
            .lock()
            .expect("obs registry lock")
            .iter()
            .map(|(n, h)| (n.to_string(), *h))
            .collect()
    }

    /// Zeroes every registered metric without unregistering it.
    pub fn zero(&self) {
        for (_, c) in self.counters.lock().expect("obs registry lock").iter() {
            c.zero();
        }
        for (_, g) in self.gauges.lock().expect("obs registry lock").iter() {
            g.zero();
        }
        for (_, h) in self.hists.lock().expect("obs registry lock").iter() {
            h.zero();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_saturates_instead_of_wrapping() {
        let c = Counter::default();
        c.add(u64::MAX - 1);
        c.add(5);
        assert_eq!(c.get(), u64::MAX);
        c.zero();
        assert_eq!(c.get(), 0);
    }

    #[test]
    fn gauge_is_last_write_wins() {
        let g = Gauge::default();
        g.set(7);
        g.set(3);
        assert_eq!(g.get(), 3);
    }

    #[test]
    fn histogram_buckets_zero_bounds_and_overflow() {
        let h = Histogram::new(&[1, 2, 4, 8]);
        // Zero lands in the first bucket.
        h.observe(0);
        // A value equal to a bound lands in that bound's bucket
        // (upper-inclusive).
        h.observe(2);
        // Between bounds rounds up to the next bound's bucket.
        h.observe(3);
        // The maximum bound is still in range.
        h.observe(8);
        // Anything above the last bound is overflow.
        h.observe(9);
        h.observe(u64::MAX);
        // 0 -> bucket <=1; 2 -> bucket <=2; 3 -> bucket <=4;
        // 8 -> bucket <=8; 9 and MAX -> overflow.
        assert_eq!(h.bucket_counts(), vec![1, 1, 1, 1, 2]);
        assert_eq!(h.count(), 6);
        assert_eq!(h.max(), u64::MAX);
        // Sum saturates rather than wrapping.
        assert_eq!(h.sum(), u64::MAX);
        h.zero();
        assert_eq!(h.bucket_counts(), vec![0; 5]);
        assert_eq!(h.count(), 0);
        assert_eq!(h.max(), 0);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn histogram_rejects_unsorted_bounds() {
        let _ = Histogram::new(&[2, 1]);
    }

    #[test]
    fn quantiles_read_bucket_upper_bounds() {
        let h = Histogram::new(&[10, 20, 30, 40]);
        assert_eq!(h.quantile(0.5), None, "empty histogram has no quantiles");
        for v in [5, 15, 15, 25, 35] {
            h.observe(v);
        }
        assert_eq!(h.quantile(0.2), Some(10));
        assert_eq!(h.quantile(0.5), Some(20));
        assert_eq!(h.quantile(1.0), Some(40));
        // Overflow observations report the true maximum.
        h.observe(999);
        assert_eq!(h.quantile(1.0), Some(999));
    }

    #[test]
    fn quantiles_of_an_empty_histogram_are_none_at_every_q() {
        let h = Histogram::new(&[1, 2, 4]);
        for q in [0.001, 0.5, 0.99, 1.0] {
            assert_eq!(h.quantile(q), None, "q={q}");
        }
        // Observing then zeroing returns the histogram to empty.
        h.observe(3);
        assert_eq!(h.quantile(0.5), Some(4));
        h.zero();
        assert_eq!(h.quantile(0.5), None);
    }

    #[test]
    fn all_mass_in_the_overflow_bucket_reports_the_true_max() {
        // Every observation lands beyond the last bound, so no finite
        // bucket ever satisfies the rank; each quantile must fall
        // through to the recorded maximum, not a bucket bound.
        let h = Histogram::new(&[10, 20]);
        for v in [100, 200, 300] {
            h.observe(v);
        }
        for q in [0.01, 0.5, 0.99, 1.0] {
            assert_eq!(h.quantile(q), Some(300), "q={q}");
        }
    }

    #[test]
    fn single_sample_quantiles_agree_at_every_q() {
        // One observation: rank clamps to 1 for any q, so p50 and p99
        // (and p1) are the same bucket bound.
        let h = Histogram::new(&[10, 20, 30]);
        h.observe(15);
        assert_eq!(h.quantile(0.50), h.quantile(0.99));
        assert_eq!(h.quantile(0.01), Some(20));
        assert_eq!(h.quantile(1.0), Some(20));
        // A single overflow sample does the same through max().
        let o = Histogram::new(&[10]);
        o.observe(77);
        assert_eq!(o.quantile(0.50), Some(77));
        assert_eq!(o.quantile(0.99), Some(77));
    }

    #[test]
    fn registry_returns_the_same_handle_per_name() {
        let r = Registry::new();
        let a = r.counter("test.reg.same");
        a.add(2);
        let b = r.counter("test.reg.same");
        b.add(3);
        assert!(std::ptr::eq(a, b));
        assert_eq!(r.counter_values(), vec![("test.reg.same".to_string(), 5)]);
        // First histogram registration fixes the bounds.
        let h1 = r.histogram("test.reg.h", &[1, 2]);
        let h2 = r.histogram("test.reg.h", &[10, 20, 30]);
        assert!(std::ptr::eq(h1, h2));
        assert_eq!(h1.bounds(), &[1, 2]);
        r.zero();
        assert_eq!(r.counter_values()[0].1, 0);
    }
}
