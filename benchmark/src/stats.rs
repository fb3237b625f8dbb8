//! Order statistics for rep timings.
//!
//! Quartiles follow Python's `statistics.quantiles(values, n=4)` (the
//! default "exclusive" method), so a spread computed here reads the
//! same as one computed by a driver script over the same values.

use crate::json::Value;

/// The `i`-th of `n` cut points of `sorted` (ascending, non-empty),
/// exclusive method: position `i * (len + 1) / n`, linearly interpolated
/// between the two neighbouring samples (the position is clamped so
/// that both exist).
pub fn cut_point(sorted: &[f64], i: usize, n: usize) -> f64 {
    let len = sorted.len();
    if len == 1 {
        return sorted[0];
    }
    let m = len + 1;
    let j = (i * m / n).clamp(1, len - 1);
    let delta = (i * m) as f64 - (j * n) as f64;
    (sorted[j - 1] * (n as f64 - delta) + sorted[j] * delta) / n as f64
}

/// Median of `sorted` (ascending, non-empty): the middle value, or the
/// mean of the middle two.
pub fn median_sorted(sorted: &[f64]) -> f64 {
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

fn sorted_copy(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median of unsorted `values` (non-empty).
pub fn median(values: &[f64]) -> f64 {
    median_sorted(&sorted_copy(values))
}

/// The `q`-th percentile (1..=99) of unsorted `values` (non-empty).
pub fn percentile(values: &[f64], q: usize) -> f64 {
    cut_point(&sorted_copy(values), q, 100)
}

/// Median, quartiles, p90, extremes and sample count of one metric over
/// the timed reps of a run.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    /// Samples summarized.
    pub n: usize,
    /// Smallest sample.
    pub min: f64,
    /// First quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
    /// 90th percentile.
    pub p90: f64,
    /// Largest sample.
    pub max: f64,
}

impl Summary {
    /// Summarizes `values` (non-empty).
    pub fn of(values: &[f64]) -> Summary {
        let s = sorted_copy(values);
        Summary {
            n: s.len(),
            min: s[0],
            q1: cut_point(&s, 1, 4),
            median: median_sorted(&s),
            q3: cut_point(&s, 3, 4),
            p90: cut_point(&s, 9, 10),
            max: s[s.len() - 1],
        }
    }

    /// A summary of one exact value (counts, simulated results).
    pub fn exact(v: f64) -> Summary {
        Summary::of(&[v])
    }

    /// Interquartile range as a share of the median — the spread the
    /// bounds in `BENCHMARK.json` are calibrated against.
    pub fn iqr_share(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }

    /// The summary as a JSON object.
    pub fn to_json(self) -> Value {
        Value::Obj(vec![
            ("n".into(), Value::Num(self.n as f64)),
            ("min".into(), Value::Num(self.min)),
            ("q1".into(), Value::Num(self.q1)),
            ("median".into(), Value::Num(self.median)),
            ("q3".into(), Value::Num(self.q3)),
            ("p90".into(), Value::Num(self.p90)),
            ("max".into(), Value::Num(self.max)),
        ])
    }

    /// Parses [`Summary::to_json`]'s output.
    pub fn from_json(v: &Value) -> Result<Summary, String> {
        let num = |k: &str| {
            v.get(k)
                .and_then(Value::as_f64)
                .ok_or_else(|| format!("summary lacks {k}"))
        };
        Ok(Summary {
            n: num("n")? as usize,
            min: num("min")?,
            q1: num("q1")?,
            median: num("median")?,
            q3: num("q3")?,
            p90: num("p90")?,
            max: num("max")?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = Summary::of(&v);
        assert_eq!((s.q1, s.median, s.q3), (2.75, 5.5, 8.25));
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        let s = Summary::of(&[16.0, 1.0, 8.0, 2.0, 4.0]);
        assert_eq!((s.q1, s.median, s.q3), (1.5, 4.0, 12.0));
        assert_eq!((s.min, s.max, s.n), (1.0, 16.0, 5));
        // Two samples: the position clamps and the value extrapolates,
        // as Python does.
        let s = Summary::of(&[10.0, 20.0]);
        assert_eq!((s.q1, s.median, s.q3), (7.5, 15.0, 22.5));
    }

    #[test]
    fn p90_interpolates_between_the_top_samples() {
        // statistics.quantiles([1..10], n=10)[8] == 9.9
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((Summary::of(&v).p90 - 9.9).abs() < 1e-12);
        assert!((percentile(&v, 90) - 9.9).abs() < 1e-12);
        assert_eq!(Summary::exact(3.0).p90, 3.0);
    }

    #[test]
    fn iqr_share_is_relative_to_the_median() {
        let s = Summary::of(&[2.75, 5.5, 8.25, 5.5, 5.5]);
        assert!(s.iqr_share() > 0.0);
        assert_eq!(Summary::exact(0.0).iqr_share(), 0.0);
        assert_eq!(Summary::exact(5.0).iqr_share(), 0.0);
    }

    #[test]
    fn summary_round_trips_through_json() {
        let s = Summary::of(&[0.1, 0.2, 0.30000000000000004, 1e-9, 12345.678]);
        let text = s.to_json().to_string();
        let back = Summary::from_json(&Value::parse(&text).unwrap()).unwrap();
        assert_eq!(back, s);
    }
}
