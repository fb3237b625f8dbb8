//! The paper's reported values (`paper_refs.tsv`) and a workload's
//! distance from them.
//!
//! Only the paper's numbers are committed, never this simulator's: a
//! fidelity change moves `paper_err_pct` without editing the benchmark.

/// One row of `paper_refs.tsv`.
#[derive(Clone, Debug, PartialEq)]
pub struct PaperRef {
    /// Key the workloads report the measured value under.
    pub key: String,
    /// Workloads that measure it.
    pub workloads: Vec<String>,
    /// The value the paper reports.
    pub paper: f64,
    /// Where in the paper.
    pub section: String,
    /// The EXPERIMENTS.md row that discusses it.
    pub experiments_row: String,
}

const TABLE: &str = include_str!("../paper_refs.tsv");

/// Parses the committed table.
pub fn paper_refs() -> Result<Vec<PaperRef>, String> {
    parse(TABLE)
}

fn parse(text: &str) -> Result<Vec<PaperRef>, String> {
    text.lines()
        .filter(|l| !l.starts_with('#') && !l.trim().is_empty())
        .map(|l| {
            let f: Vec<&str> = l.split('\t').collect();
            let [key, workloads, paper, section, row] = f[..] else {
                return Err(format!("paper_refs.tsv: expected 5 fields in {l:?}"));
            };
            let paper: f64 = paper
                .parse()
                .map_err(|e| format!("paper_refs.tsv: {key}: {e}"))?;
            if paper == 0.0 || !paper.is_finite() {
                return Err(format!(
                    "paper_refs.tsv: {key}: a relative error needs a non-zero reference"
                ));
            }
            Ok(PaperRef {
                key: key.to_string(),
                workloads: workloads.split(',').map(str::to_string).collect(),
                paper,
                section: section.to_string(),
                experiments_row: row.to_string(),
            })
        })
        .collect()
}

/// Mean over `workload`'s rows of |measured − paper| ÷ |paper| × 100.
/// `None` when the workload has no rows; an error when it has rows but
/// did not report one of them.
pub fn paper_err_pct(
    refs: &[PaperRef],
    workload: &str,
    sim: &[(&'static str, f64)],
) -> Result<Option<f64>, String> {
    let mut sum = 0.0;
    let mut n = 0usize;
    for r in refs
        .iter()
        .filter(|r| r.workloads.iter().any(|w| w == workload))
    {
        let measured = sim
            .iter()
            .find(|(k, _)| *k == r.key)
            .map(|(_, v)| *v)
            .ok_or_else(|| format!("{workload} did not report {}", r.key))?;
        sum += (measured - r.paper).abs() / r.paper.abs() * 100.0;
        n += 1;
    }
    Ok((n > 0).then(|| sum / n as f64))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::WORKLOADS;

    #[test]
    fn committed_table_parses_and_names_real_workloads() {
        let refs = paper_refs().unwrap();
        assert!(refs.len() >= 15);
        for r in &refs {
            for w in &r.workloads {
                assert!(
                    WORKLOADS.iter().any(|d| d.name == w),
                    "{}: unknown workload {w}",
                    r.key
                );
            }
            assert!(!r.section.is_empty() && !r.experiments_row.is_empty());
        }
        let mut keys: Vec<&str> = refs.iter().map(|r| r.key.as_str()).collect();
        keys.sort_unstable();
        keys.dedup();
        assert_eq!(keys.len(), refs.len(), "duplicate key");
    }

    #[test]
    fn error_is_the_mean_relative_distance() {
        let refs = parse("a\tw1,w2\t2\ts\tr\nb\tw1\t-4\ts\tr\n").unwrap();
        let e = paper_err_pct(&refs, "w1", &[("a", 3.0), ("b", -4.0)]).unwrap();
        assert_eq!(e, Some(25.0));
        assert_eq!(
            paper_err_pct(&refs, "w2", &[("a", 1.0)]).unwrap(),
            Some(50.0)
        );
        assert_eq!(paper_err_pct(&refs, "w3", &[]).unwrap(), None);
        assert!(paper_err_pct(&refs, "w1", &[("a", 3.0)]).is_err());
    }

    #[test]
    fn malformed_rows_are_rejected() {
        assert!(parse("a\tw\t1\ts\n").is_err());
        assert!(parse("a\tw\tx\ts\tr\n").is_err());
        assert!(parse("a\tw\t0\ts\tr\n").is_err());
    }
}
