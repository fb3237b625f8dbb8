//! `harness report`: summarize a `runs.jsonl` into a where-did-time-go
//! table.

use obs::json::{self, Value};

struct Row {
    job: String,
    status: String,
    cache: String,
    wall_s: f64,
    ops: f64,
    quarantined: Option<String>,
}

/// Parses journal line `n` (0-based), which must carry a `job`.
fn parse_record(line: &str, n: usize) -> Result<Value, String> {
    json::parse(line)
        .ok()
        .filter(|rec| rec.get("job").and_then(Value::as_str).is_some())
        .ok_or_else(|| format!("runs.jsonl line {}: no job field", n + 1))
}

fn str_or(rec: &Value, field: &str, default: &str) -> String {
    let s = rec.get(field).and_then(Value::as_str);
    s.unwrap_or(default).to_string()
}

fn num_or(rec: &Value, field: &str, default: f64) -> f64 {
    let n = rec.get(field).and_then(Value::as_f64);
    n.unwrap_or(default)
}

/// Renders a human-readable summary of the run records in `jsonl`
/// (the contents of a `runs.jsonl` file): one row per job key sorted by
/// wall time, then cache and failure totals.
///
/// A journal may hold several records for the same job — a resumed run
/// concatenated onto the journal it resumed from, or reruns appended by
/// other tooling. Those aggregate into one row per key: wall time and
/// op counts sum across the records, while status and cache come from
/// the latest record — the run that finally settled the job.
pub fn summarize(jsonl: &str) -> Result<String, String> {
    use std::fmt::Write as _;
    let mut rows: Vec<Row> = Vec::new();
    for (n, line) in jsonl.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let rec = parse_record(line, n)?;
        let job = str_or(&rec, "job", "?");
        let row = match rows.iter_mut().find(|r| r.job == job) {
            Some(row) => row,
            None => {
                rows.push(Row {
                    job,
                    status: "?".into(),
                    cache: "-".into(),
                    wall_s: 0.0,
                    ops: 0.0,
                    quarantined: None,
                });
                rows.last_mut().expect("row just pushed")
            }
        };
        row.status = str_or(&rec, "status", "?");
        row.cache = str_or(&rec, "cache", "-");
        row.wall_s += num_or(&rec, "wall_s", 0.0);
        row.ops += num_or(&rec, "ops", 0.0);
        if let Some(path) = rec.get("quarantined").and_then(Value::as_str) {
            row.quarantined = Some(path.to_string());
        }
    }
    if rows.is_empty() {
        return Err("no run records".into());
    }
    let total: f64 = rows.iter().map(|r| r.wall_s).sum();
    // Slowest first: the table answers "where did the time go".
    rows.sort_by(|a, b| b.wall_s.total_cmp(&a.wall_s).then(a.job.cmp(&b.job)));
    let width = rows.iter().map(|r| r.job.len()).max().unwrap_or(4).max(4);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<width$}  {:<7}  {:<8}  {:>8}  {:>6}  {:>9}",
        "job", "status", "cache", "wall_s", "%wall", "ops"
    );
    for r in &rows {
        let pct = if total > 0.0 {
            100.0 * r.wall_s / total
        } else {
            0.0
        };
        let _ = writeln!(
            out,
            "{:<width$}  {:<7}  {:<8}  {:>8.3}  {:>5.1}%  {:>9}",
            r.job, r.status, r.cache, r.wall_s, pct, r.ops as u64
        );
    }
    let hits = rows.iter().filter(|r| r.cache == "hit").count();
    let misses = rows
        .iter()
        .filter(|r| r.cache == "miss" || r.cache == "corrupt")
        .count();
    let failed = rows.iter().filter(|r| r.status != "ok").count();
    let panicked = rows.iter().filter(|r| r.status == "panicked").count();
    let timeouts = rows.iter().filter(|r| r.status == "timeout").count();
    let quarantined = rows.iter().filter(|r| r.quarantined.is_some()).count();
    // Quarantined artifacts split by kind: an `.aged` image lost from the
    // experiment cache is a different degradation than a `.shard`
    // checkpoint lost from a fleet run.
    let by_ext = |ext: &str| {
        rows.iter()
            .filter(|r| r.quarantined.as_deref().is_some_and(|p| p.ends_with(ext)))
            .count()
    };
    let (q_aged, q_shard) = (by_ext(".aged"), by_ext(".shard"));
    let _ = writeln!(
        out,
        "total {:.3}s over {} jobs; cache {hits} hit / {misses} miss; {failed} not ok",
        total,
        rows.len()
    );
    if panicked + timeouts + quarantined > 0 {
        let _ = write!(
            out,
            "supervision: {panicked} panicked; {timeouts} timed out; {quarantined} quarantined"
        );
        if quarantined > 0 {
            let other = quarantined - q_aged - q_shard;
            let _ = write!(out, " ({q_aged} aged, {q_shard} shard");
            if other > 0 {
                let _ = write!(out, ", {other} other");
            }
            out.push(')');
        }
        out.push('\n');
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{CacheStatus, Metrics, RunRecord};

    fn record(job: &str, wall: f64, cache: Option<CacheStatus>) -> String {
        RunRecord {
            job: job.into(),
            deps: vec![],
            status: "ok".into(),
            error: None,
            wall_s: wall,
            attempts: 0,
            backoff_units: 0,
            metrics: Metrics {
                cache,
                ..Metrics::default()
            },
        }
        .to_json()
    }

    #[test]
    fn summary_orders_by_wall_time_and_counts_cache() {
        let jsonl = [
            record("fig1", 0.5, None),
            record("age:ffs", 4.0, Some(CacheStatus::Miss)),
            record("age:realloc", 2.0, Some(CacheStatus::Hit)),
        ]
        .join("\n");
        let s = summarize(&jsonl).unwrap();
        let age_pos = s.find("age:ffs").unwrap();
        let fig_pos = s.find("fig1").unwrap();
        assert!(age_pos < fig_pos, "slowest job leads:\n{s}");
        assert!(s.contains("1 hit / 1 miss"), "{s}");
        assert!(s.contains("0 not ok"), "{s}");
        assert!(s.contains("total 6.500s over 3 jobs"), "{s}");
    }

    #[test]
    fn empty_input_is_an_error() {
        assert!(summarize("").is_err());
        assert!(summarize("\n\n").is_err());
    }

    #[test]
    fn repeated_keys_aggregate_attempts_across_runs() {
        // The shape of a resumed run: the prior journal's record (a
        // PR 21-format line — `attempts`, `backoff_units` and a 13-key
        // `device` object that today's readers ignore) concatenated with
        // the rerun's record. The summary must show one row with the
        // latest status and cache winning.
        let rerun = {
            let mut r = RunRecord {
                job: "fig4".into(),
                deps: vec![],
                status: "ok".into(),
                error: None,
                wall_s: 1.0,
                attempts: 0,
                backoff_units: 0,
                metrics: Metrics {
                    cache: Some(CacheStatus::Hit),
                    ..Metrics::default()
                },
            };
            r.metrics.ops = Some(50);
            r.to_json()
        };
        let prior = crate::record::PR21_LINE;
        let jsonl = format!("{prior}\n{rerun}");
        let s = summarize(&jsonl).unwrap();
        assert_eq!(s.matches("fig4").count(), 1, "one row per key:\n{s}");
        assert!(s.contains("over 1 jobs"), "{s}");
        assert!(
            !s.contains("supervision"),
            "old retry counts are ignored:\n{s}"
        );
        // Latest record settles status and cache; wall and ops sum.
        assert!(s.contains("ok"), "{s}");
        assert!(s.contains("hit"), "{s}");
        assert!(s.contains("total 2.250s"), "{s}");
        assert!(s.contains("1284"), "{s}");
    }

    #[test]
    fn quarantined_artifacts_surface_in_the_footer() {
        let mut r = RunRecord {
            job: "age:realloc".into(),
            deps: vec![],
            status: "ok".into(),
            error: None,
            wall_s: 1.0,
            attempts: 0,
            backoff_units: 0,
            metrics: Metrics {
                cache: Some(CacheStatus::Corrupt),
                ..Metrics::default()
            },
        };
        r.metrics.note("quarantined", "cache/quarantine/abc.aged");
        let mut shard = RunRecord {
            job: "fleet:shard3".into(),
            deps: vec![],
            status: "ok".into(),
            error: None,
            wall_s: 0.2,
            attempts: 0,
            backoff_units: 0,
            metrics: Metrics {
                cache: Some(CacheStatus::Corrupt),
                ..Metrics::default()
            },
        };
        shard
            .metrics
            .note("quarantined", "cache/quarantine/def.shard");
        let jsonl = format!(
            "{}\n{}\n{}",
            record("fig1", 0.5, None),
            r.to_json(),
            shard.to_json()
        );
        let s = summarize(&jsonl).unwrap();
        // Lost aged images and lost fleet shard checkpoints are counted
        // as distinct degradations, not lumped together.
        assert!(s.contains("2 quarantined (1 aged, 1 shard)"), "{s}");
        // No supervision line at all when nothing needed supervising.
        let calm = summarize(&record("fig1", 0.5, None)).unwrap();
        assert!(!calm.contains("supervision"), "{calm}");
    }
}
