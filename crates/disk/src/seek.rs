//! The seek-time curve.
//!
//! Standard two-piece model (Ruemmler & Wilkes): seek time grows with the
//! square root of the distance for short seeks (arm acceleration) and
//! linearly for long ones. The curve is anchored at three points from the
//! drive's data sheet: single-cylinder, "average" (one third of the
//! cylinder span, per industry convention), and full-span.

use ffs_types::DiskParams;

/// A calibrated seek-time curve for one drive, with both pieces' slopes
/// worked out once at construction.
#[derive(Clone, Debug)]
pub struct SeekCurve {
    min_us: f64,
    avg_us: f64,
    /// Distance at which the curve switches from sqrt to linear (one third
    /// of the cylinder span).
    knee: f64,
    /// Slope of the sqrt piece, per unit of `sqrt(d) - 1`.
    sqrt_slope: f64,
    /// Slope of the linear piece, per cylinder past the knee.
    lin_slope: f64,
}

impl SeekCurve {
    /// Builds the curve from disk parameters.
    pub fn new(params: &DiskParams) -> SeekCurve {
        let min_us = params.min_seek_ms * 1000.0;
        let avg_us = params.avg_seek_ms * 1000.0;
        let max_us = params.max_seek_ms * 1000.0;
        let knee = (params.cylinders as f64 / 3.0).max(1.0);
        // sqrt piece through (1, min) and (knee, avg).
        let sqrt_span = (knee.sqrt() - 1.0).max(1e-9);
        // Linear piece through (knee, avg) and (cylinders-1, max).
        let lin_span = (params.cylinders as f64 - 1.0 - knee).max(1.0);
        SeekCurve {
            min_us,
            avg_us,
            knee,
            sqrt_slope: (avg_us - min_us) / sqrt_span,
            lin_slope: (max_us - avg_us) / lin_span,
        }
    }

    /// Seek time between two cylinders in microseconds. Zero distance is
    /// free (the head is already there).
    pub fn seek_us(&self, from_cyl: u32, to_cyl: u32) -> f64 {
        let d = from_cyl.abs_diff(to_cyl) as f64;
        if d == 0.0 {
            0.0
        } else if d <= self.knee {
            self.min_us + self.sqrt_slope * (d.sqrt() - 1.0)
        } else {
            self.avg_us + self.lin_slope * (d - self.knee)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;
    use rand::SeedableRng;

    fn curve() -> SeekCurve {
        SeekCurve::new(&DiskParams::seagate_32430n())
    }

    #[test]
    fn anchored_at_datasheet_points() {
        let c = curve();
        assert_eq!(c.seek_us(100, 100), 0.0);
        assert!((c.seek_us(0, 1) - 2000.0).abs() < 1.0);
        // Average-distance seek hits the 11 ms spec.
        let third = 3992 / 3;
        assert!((c.seek_us(0, third) - 11_000.0).abs() < 60.0);
        // Full-span seek hits the max spec.
        assert!((c.seek_us(0, 3991) - 19_000.0).abs() < 10.0);
    }

    #[test]
    fn monotonic_in_distance() {
        let c = curve();
        let mut prev = 0.0;
        for d in 1..3992 {
            let t = c.seek_us(0, d);
            assert!(t >= prev, "seek time decreased at distance {d}");
            prev = t;
        }
    }

    #[test]
    fn symmetric() {
        let c = curve();
        for (a, b) in [(0u32, 100u32), (5, 3000), (1234, 8)] {
            assert_eq!(c.seek_us(a, b), c.seek_us(b, a));
        }
    }

    #[test]
    fn continuous_at_knee() {
        let c = curve();
        let knee = 3992 / 3;
        let below = c.seek_us(0, knee);
        let above = c.seek_us(0, knee + 1);
        assert!((above - below) < 100.0, "jump at knee: {below} -> {above}");
    }

    #[test]
    fn random_pair_mean_is_near_average_spec() {
        // The mean seek over uniformly random cylinder pairs should be in
        // the vicinity of the quoted average (industry "average" is the
        // one-third-span seek; the true uniform mean is a little lower
        // because short seeks are cheap).
        let c = curve();
        let mut rng = rand::rngs::StdRng::seed_from_u64(42);
        let n = 20_000;
        let mut sum = 0.0;
        for _ in 0..n {
            let a = rng.gen_range(0..3992u32);
            let b = rng.gen_range(0..3992u32);
            sum += c.seek_us(a, b);
        }
        let mean_ms = sum / n as f64 / 1000.0;
        assert!(
            (8.0..=12.5).contains(&mean_ms),
            "uniform mean seek {mean_ms} ms out of range"
        );
    }
}
