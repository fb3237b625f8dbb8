//! `ffsbench compare A B`: two sets of result files, side by side.
//!
//! For every workload present on both sides and every end-to-end metric
//! it prints base, new, their ratio and a verdict against the metric's
//! bound — `better`, `flat`, `worse`, or `unresolved` when either side's
//! quartile range is wider than the bound and the two ranges overlap —
//! then the exact results and whether the `sim_fingerprint`s agree. It
//! fails on any `worse` and on a larger `failed_ops_share`.

use std::path::Path;

use crate::catalog::{Better, END_TO_END, EXACT, WORKLOADS};
use crate::json::Value;
use crate::stats::Summary;

/// How a metric moved from base to new.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// Improved by more than the bound.
    Better,
    /// Within the bound either way.
    Flat,
    /// Got worse by more than the bound.
    Worse,
    /// The run-to-run spread is wider than the bound and the two sides'
    /// quartile ranges overlap: the runs cannot tell.
    Unresolved,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Flat => "flat",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judges `new` against `base` for a metric with this direction and
/// bound (a share of the base median).
pub fn verdict(base: &Summary, new: &Summary, better: Better, bound: f64) -> Verdict {
    let wide = base.iqr_share() > bound || new.iqr_share() > bound;
    let overlap = base.q1 <= new.q3 && new.q1 <= base.q3;
    if wide && overlap {
        return Verdict::Unresolved;
    }
    // Positive when `new` is worse, as a share of the base median.
    let worse_by = match better {
        Better::Higher => (base.median - new.median) / base.median.abs(),
        Better::Lower => (new.median - base.median) / base.median.abs(),
    };
    if worse_by > bound {
        Verdict::Worse
    } else if worse_by < -bound {
        Verdict::Better
    } else {
        Verdict::Flat
    }
}

/// `dir/<workload>.json`, or `dir` itself when it is that workload's
/// result file.
fn load(side: &Path, workload: &str) -> Result<Option<Value>, String> {
    let path = if side.is_dir() {
        side.join(format!("{workload}.json"))
    } else {
        side.to_path_buf()
    };
    let Ok(text) = std::fs::read_to_string(&path) else {
        return Ok(None);
    };
    let doc = Value::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let named = doc.get("workload").and_then(Value::as_str);
    Ok((named == Some(workload)).then_some(doc))
}

fn summary(doc: &Value, metric: &str) -> Result<Summary, String> {
    let m = doc
        .get("metrics")
        .and_then(|m| m.get(metric))
        .ok_or_else(|| format!("result lacks {metric}"))?;
    Summary::from_json(m)
}

/// Compares result sets `a` (base) and `b` (new).
pub fn compare(a: &Path, b: &Path) -> Result<(), String> {
    let mut compared = 0;
    let mut regressions = Vec::new();
    println!("workload metric base new ratio verdict");
    for w in WORKLOADS {
        let (Some(base), Some(new)) = (load(a, w.name)?, load(b, w.name)?) else {
            continue;
        };
        compared += 1;
        for m in END_TO_END {
            let (sb, sn) = (summary(&base, m.name)?, summary(&new, m.name)?);
            let v = verdict(&sb, &sn, m.better, m.bound);
            println!(
                "{} {} {} {} {:.4} {}",
                w.name,
                m.name,
                sb.median,
                sn.median,
                sn.median / sb.median,
                v.as_str()
            );
            if v == Verdict::Worse {
                regressions.push(format!("{} {}", w.name, m.name));
            }
        }
        // Exact results carry no noise: any difference is a change.
        for (name, _, _) in EXACT {
            let get = |doc: &Value| {
                doc.get("exact")
                    .and_then(|e| e.get(name))
                    .and_then(Value::as_f64)
            };
            let (Some(vb), Some(vn)) = (get(&base), get(&new)) else {
                continue;
            };
            let v = match vn.total_cmp(&vb) {
                std::cmp::Ordering::Equal => Verdict::Flat,
                // All three are lower-is-better.
                std::cmp::Ordering::Less => Verdict::Better,
                std::cmp::Ordering::Greater => Verdict::Worse,
            };
            let ratio = if vb == 0.0 { f64::NAN } else { vn / vb };
            println!("{} {name} {vb} {vn} {ratio:.4} {}", w.name, v.as_str());
            if v == Verdict::Worse {
                regressions.push(format!("{} {name}", w.name));
            }
        }
        let fp = |doc: &Value| {
            doc.get("sim_fingerprint")
                .and_then(Value::as_str)
                .unwrap_or("?")
                .to_string()
        };
        let (fb, fnew) = (fp(&base), fp(&new));
        println!(
            "{} sim_fingerprint {fb} {fnew} - {}",
            w.name,
            if fb == fnew { "equal" } else { "DIFFERENT" }
        );
    }
    if compared == 0 {
        return Err(format!(
            "no workload has a result file in both {} and {}",
            a.display(),
            b.display()
        ));
    }
    if regressions.is_empty() {
        Ok(())
    } else {
        Err(format!("worse: {}", regressions.join(", ")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tight(median: f64) -> Summary {
        Summary::of(&[median * 0.99, median, median * 1.01])
    }

    #[test]
    fn verdicts_follow_direction_and_bound() {
        use Better::{Higher, Lower};
        let b = tight(100.0);
        assert_eq!(verdict(&b, &tight(105.0), Higher, 0.1), Verdict::Flat);
        assert_eq!(verdict(&b, &tight(95.0), Higher, 0.1), Verdict::Flat);
        assert_eq!(verdict(&b, &tight(120.0), Higher, 0.1), Verdict::Better);
        assert_eq!(verdict(&b, &tight(85.0), Higher, 0.1), Verdict::Worse);
        assert_eq!(verdict(&b, &tight(120.0), Lower, 0.1), Verdict::Worse);
        assert_eq!(verdict(&b, &tight(85.0), Lower, 0.1), Verdict::Better);
        // Exact values: no spread, any bound.
        let e = Summary::exact(50.0);
        assert_eq!(
            verdict(&e, &Summary::exact(50.0), Lower, 0.1),
            Verdict::Flat
        );
    }

    #[test]
    fn wide_overlapping_ranges_are_unresolved_not_flat() {
        let noisy_a = Summary::of(&[70.0, 100.0, 130.0, 95.0, 105.0]);
        let noisy_b = Summary::of(&[60.0, 90.0, 120.0, 85.0, 100.0]);
        assert!(noisy_a.iqr_share() > 0.1);
        assert_eq!(
            verdict(&noisy_a, &noisy_b, Better::Higher, 0.1),
            Verdict::Unresolved
        );
        // Wide but disjoint ranges still resolve.
        let far = Summary::of(&[20.0, 30.0, 40.0, 28.0, 32.0]);
        assert_eq!(verdict(&noisy_a, &far, Better::Higher, 0.1), Verdict::Worse);
    }

    #[test]
    fn compare_reads_two_result_sets_and_flags_regressions() {
        let dir = std::env::temp_dir().join(format!("ffsbench-compare-{}", std::process::id()));
        let (a, b) = (dir.join("a"), dir.join("b"));
        std::fs::create_dir_all(&a).unwrap();
        std::fs::create_dir_all(&b).unwrap();
        let result = |ops: f64, failed_share: f64, fp: &str| {
            let m = |v: f64| {
                let mut o = vec![("unit".to_string(), Value::Str("x".into()))];
                if let Value::Obj(rest) = tight(v).to_json() {
                    o.extend(rest);
                }
                Value::Obj(o)
            };
            Value::Obj(vec![
                ("workload".into(), Value::Str("age-paper".into())),
                ("sim_fingerprint".into(), Value::Str(fp.into())),
                (
                    "metrics".into(),
                    Value::Obj(vec![
                        ("ops_per_s".into(), m(ops)),
                        ("peak_rss_mb".into(), m(60.0)),
                        ("setup_s".into(), m(1.2)),
                    ]),
                ),
                (
                    "exact".into(),
                    Value::Obj(vec![("failed_ops_share".into(), Value::Num(failed_share))]),
                ),
            ])
            .to_string()
        };
        std::fs::write(a.join("age-paper.json"), result(1.0e6, 0.0, "aa")).unwrap();
        std::fs::write(b.join("age-paper.json"), result(1.02e6, 0.0, "aa")).unwrap();
        assert!(compare(&a, &b).is_ok());
        // Files work as well as directories.
        assert!(compare(&a.join("age-paper.json"), &b.join("age-paper.json")).is_ok());
        std::fs::write(b.join("age-paper.json"), result(0.7e6, 0.0, "aa")).unwrap();
        assert!(compare(&a, &b).unwrap_err().contains("ops_per_s"));
        std::fs::write(b.join("age-paper.json"), result(1.0e6, 0.001, "bb")).unwrap();
        assert!(compare(&a, &b).unwrap_err().contains("failed_ops_share"));
        assert!(compare(&a, &dir.join("missing")).is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
