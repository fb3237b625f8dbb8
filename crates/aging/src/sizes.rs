//! Deterministic sampling helpers for the workload generator.

use rand::Rng;

use crate::config::SizeDist;

/// Samples a standard normal deviate via Box–Muller. Uses only
/// `Rng::gen`, so the stream is fully determined by the seed.
pub fn std_normal<R: Rng>(rng: &mut R) -> f64 {
    // Avoid ln(0).
    let u1: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
    let u2: f64 = rng.gen();
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

/// Samples a file size from a clamped log-normal distribution.
// Drawn once per create, thousands of times a day: inlined into the
// generator's day body so the RNG state stays in registers across it.
#[inline]
pub fn sample_size<R: Rng>(rng: &mut R, dist: &SizeDist) -> u64 {
    let z = std_normal(rng);
    let v = dist.median as f64 * (dist.sigma * z).exp();
    (v as u64).clamp(dist.min, dist.max)
}

/// Samples a non-negative count whose mean is `mean`, with moderate
/// day-to-day variation (roughly +/- 35 %). A full Poisson is not needed;
/// the workload only requires realistic dispersion.
pub fn sample_count<R: Rng>(rng: &mut R, mean: f64) -> u32 {
    if mean <= 0.0 {
        return 0;
    }
    let factor = 1.0 + 0.35 * std_normal(rng).clamp(-2.0, 2.0);
    (mean * factor.max(0.0)).round() as u32
}

/// Weighted index sampling: returns `i` with probability
/// `weights[i] / sum(weights)`. Weights must be non-negative with a
/// positive sum.
pub fn weighted_index<R: Rng>(rng: &mut R, weights: &[f64]) -> usize {
    weighted_index_summed(rng, weights, weights.iter().sum())
}

/// [`weighted_index`] given `total = weights.iter().sum()`, for a caller
/// that draws many times from the same weights: the same draw and the
/// same index, without re-adding the weights each time.
#[inline]
pub(crate) fn weighted_index_summed<R: Rng>(rng: &mut R, weights: &[f64], total: f64) -> usize {
    debug_assert!(total > 0.0);
    debug_assert_eq!(total.to_bits(), weights.iter().sum::<f64>().to_bits());
    let mut x = rng.gen_range(0.0..total);
    for (i, &w) in weights.iter().enumerate() {
        if x < w {
            return i;
        }
        x -= w;
    }
    weights.len() - 1
}

#[cfg(test)]
mod tests {
    use super::*;
    use ffs_types::KB;
    use rand::SeedableRng;

    fn rng(seed: u64) -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(seed)
    }

    #[test]
    fn normal_has_zero_mean_unit_variance() {
        let mut r = rng(1);
        let n = 50_000;
        let samples: Vec<f64> = (0..n).map(|_| std_normal(&mut r)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.02, "mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "variance {var}");
    }

    #[test]
    fn sizes_respect_clamps_and_median() {
        let d = SizeDist {
            median: 8 * KB,
            sigma: 2.0,
            min: KB,
            max: 256 * KB,
        };
        let mut r = rng(2);
        let mut below = 0;
        let n = 20_000;
        for _ in 0..n {
            let s = sample_size(&mut r, &d);
            assert!((d.min..=d.max).contains(&s));
            if s < d.median {
                below += 1;
            }
        }
        // Roughly half the samples fall below the median.
        let frac = below as f64 / n as f64;
        assert!((0.45..0.55).contains(&frac), "below-median fraction {frac}");
    }

    #[test]
    fn counts_track_mean() {
        let mut r = rng(3);
        let n = 5_000;
        let total: u64 = (0..n).map(|_| sample_count(&mut r, 100.0) as u64).sum();
        let mean = total as f64 / n as f64;
        assert!((90.0..110.0).contains(&mean), "mean count {mean}");
        assert_eq!(sample_count(&mut r, 0.0), 0);
    }

    #[test]
    fn weighted_index_follows_weights() {
        let mut r = rng(4);
        let w = [1.0, 0.0, 3.0];
        let mut counts = [0u32; 3];
        for _ in 0..10_000 {
            counts[weighted_index(&mut r, &w)] += 1;
        }
        assert_eq!(counts[1], 0);
        let ratio = counts[2] as f64 / counts[0] as f64;
        assert!((2.5..3.5).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn sampling_is_deterministic() {
        let d = SizeDist {
            median: 4 * KB,
            sigma: 1.5,
            min: 1,
            max: KB * KB,
        };
        let mut r1 = rng(9);
        let mut r2 = rng(9);
        let a: Vec<u64> = (0..100).map(|_| sample_size(&mut r1, &d)).collect();
        let b: Vec<u64> = (0..100).map(|_| sample_size(&mut r2, &d)).collect();
        assert_eq!(a, b);
        // And the stream is not constant.
        assert!(a.windows(2).any(|w| w[0] != w[1]));
    }
}
