//! `harness report`: summarize a `runs.jsonl` into a where-did-time-go
//! table.

use obs::json::{self, push_str, Value};

struct Row {
    job: String,
    status: String,
    cache: String,
    wall_s: f64,
    ops: f64,
    attempts: f64,
    records: u64,
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
/// other tooling. Those aggregate into one row per key: attempt counts,
/// wall time, and op counts sum across the records (so retries spent in
/// an earlier, interrupted run still show), while status and cache come
/// from the latest record — the run that finally settled the job.
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
                    attempts: 0.0,
                    records: 0,
                    quarantined: None,
                });
                rows.last_mut().expect("row just pushed")
            }
        };
        row.status = str_or(&rec, "status", "?");
        row.cache = str_or(&rec, "cache", "-");
        row.wall_s += num_or(&rec, "wall_s", 0.0);
        row.ops += num_or(&rec, "ops", 0.0);
        row.attempts += num_or(&rec, "attempts", 1.0);
        row.records += 1;
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
    // A skipped job records 0 attempts; everything that ran records at
    // least 1 per record, so attempts beyond the record count are
    // retries — including retries spent in earlier runs of the key.
    let retries: u64 = rows
        .iter()
        .map(|r| (r.attempts.max(r.records as f64) - r.records as f64) as u64)
        .sum();
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
    if retries + (panicked + timeouts + quarantined) as u64 > 0 {
        let _ = write!(
            out,
            "supervision: {retries} retries; {panicked} panicked; {timeouts} timed out; \
             {quarantined} quarantined"
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

/// Renders the run records in `jsonl` as a machine-readable benchmark
/// summary (schema `bench-aging-v1`): wall time per job plus replay
/// throughput (`ops_per_sec`) for the jobs that report operation counts
/// — the content of the repo-root `BENCH_aging.json`.
pub fn bench_json(jsonl: &str) -> Result<String, String> {
    use std::fmt::Write as _;
    let mut entries = Vec::new();
    for (n, line) in jsonl.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let rec = parse_record(line, n)?;
        entries.push((
            str_or(&rec, "job", "?"),
            str_or(&rec, "status", "?"),
            num_or(&rec, "wall_s", 0.0),
            num_or(&rec, "ops", 0.0),
        ));
    }
    if entries.is_empty() {
        return Err("no run records".into());
    }
    entries.sort_by(|a, b| a.0.cmp(&b.0));
    let total: f64 = entries.iter().map(|e| e.2).sum();
    let mut out = String::new();
    let _ = write!(
        out,
        "{{\"schema\":\"bench-aging-v1\",\"total_wall_s\":{total:.6},\"jobs\":["
    );
    for (i, (job, status, wall_s, ops)) in entries.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let ops_per_sec = if *ops > 0.0 && *wall_s > 0.0 {
            ops / wall_s
        } else {
            0.0
        };
        out.push_str("{\"job\":");
        push_str(&mut out, job);
        out.push_str(",\"status\":");
        push_str(&mut out, status);
        let _ = write!(
            out,
            ",\"wall_s\":{wall_s:.6},\"ops\":{},\"ops_per_sec\":{ops_per_sec:.3}}}",
            *ops as u64
        );
    }
    out.push_str("]}");
    Ok(out)
}

/// Parses a `bench-aging-v1` JSON (the output of [`bench_json`]) into
/// `(job, ops_per_sec)` pairs for the jobs that report throughput.
fn bench_throughputs(doc: &str) -> Result<Vec<(String, f64)>, String> {
    let doc = json::parse(doc)?;
    if doc.get("schema").and_then(Value::as_str) != Some("bench-aging-v1") {
        return Err("not a bench-aging-v1 document".into());
    }
    let jobs = doc.get("jobs").and_then(Value::as_arr);
    Ok(jobs
        .ok_or("no jobs array")?
        .iter()
        .filter_map(|j| {
            let job = j.get("job")?.as_str()?.to_string();
            let ops_per_sec = j.get("ops_per_sec")?.as_f64()?;
            (ops_per_sec > 0.0).then_some((job, ops_per_sec))
        })
        .collect())
}

/// Compares a freshly generated `bench-aging-v1` JSON against a committed
/// baseline: every job that reports throughput in the baseline must not
/// have lost more than `max_regression_pct` percent of its `ops_per_sec`.
/// Returns a per-job comparison table on success and a description of the
/// worst offender on failure — the CI bench-smoke gate.
pub fn compare_baseline(
    current: &str,
    baseline: &str,
    max_regression_pct: f64,
) -> Result<String, String> {
    use std::fmt::Write as _;
    let cur = bench_throughputs(current)?;
    let base = bench_throughputs(baseline)?;
    let mut out = String::new();
    let mut compared = 0;
    let mut worst: Option<(String, f64)> = None;
    let _ = writeln!(
        out,
        "{:<12}  {:>12}  {:>12}  {:>8}",
        "job", "base ops/s", "now ops/s", "delta"
    );
    for (job, base_ops) in &base {
        let Some((_, cur_ops)) = cur.iter().find(|(j, _)| j == job) else {
            return Err(format!("job {job} is in the baseline but not the new run"));
        };
        let delta_pct = 100.0 * (cur_ops - base_ops) / base_ops;
        let _ = writeln!(
            out,
            "{job:<12}  {base_ops:>12.0}  {cur_ops:>12.0}  {delta_pct:>+7.1}%"
        );
        compared += 1;
        if worst.as_ref().is_none_or(|(_, w)| delta_pct < *w) {
            worst = Some((job.clone(), delta_pct));
        }
    }
    if compared == 0 {
        return Err("baseline has no jobs with throughput".into());
    }
    if let Some((job, delta)) = worst {
        if delta < -max_regression_pct {
            return Err(format!(
                "{job} regressed {:.1}% (limit {max_regression_pct}%):\n{out}",
                -delta
            ));
        }
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
            attempts: 1,
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
        // The shape of a resumed run: the prior journal's record (three
        // attempts, then failure) concatenated with the rerun's record
        // (one attempt, success). The summary must show one row carrying
        // all four attempts — three of them retries — with the latest
        // status and cache winning.
        let prior = {
            let mut r = RunRecord {
                job: "age:ffs".into(),
                deps: vec![],
                status: "failed".into(),
                error: Some("transient".into()),
                wall_s: 2.0,
                attempts: 3,
                backoff_units: 7,
                metrics: Metrics {
                    cache: Some(CacheStatus::Miss),
                    ..Metrics::default()
                },
            };
            r.metrics.ops = Some(100);
            r.to_json()
        };
        let rerun = {
            let mut r = RunRecord {
                job: "age:ffs".into(),
                deps: vec![],
                status: "ok".into(),
                error: None,
                wall_s: 1.0,
                attempts: 2,
                backoff_units: 3,
                metrics: Metrics {
                    cache: Some(CacheStatus::Hit),
                    ..Metrics::default()
                },
            };
            r.metrics.ops = Some(50);
            r.to_json()
        };
        let jsonl = format!("{prior}\n{rerun}");
        let s = summarize(&jsonl).unwrap();
        assert_eq!(s.matches("age:ffs").count(), 1, "one row per key:\n{s}");
        assert!(s.contains("over 1 jobs"), "{s}");
        // 3 + 2 attempts over 2 records = 3 retries.
        assert!(s.contains("supervision: 3 retries"), "{s}");
        // Latest record settles status and cache; wall and ops sum.
        assert!(s.contains("ok"), "{s}");
        assert!(s.contains("hit"), "{s}");
        assert!(s.contains("total 3.000s"), "{s}");
        assert!(s.contains("150"), "{s}");
    }

    #[test]
    fn quarantined_artifacts_surface_in_the_footer() {
        let mut r = RunRecord {
            job: "age:realloc".into(),
            deps: vec![],
            status: "ok".into(),
            error: None,
            wall_s: 1.0,
            attempts: 1,
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
            attempts: 1,
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

    fn bench_doc(ffs: f64, realloc: f64) -> String {
        format!(
            "{{\"schema\":\"bench-aging-v1\",\"total_wall_s\":1.0,\"jobs\":[\
             {{\"job\":\"age:ffs\",\"status\":\"ok\",\"wall_s\":0.2,\"ops\":100,\"ops_per_sec\":{ffs:.3}}},\
             {{\"job\":\"age:realloc\",\"status\":\"ok\",\"wall_s\":0.3,\"ops\":100,\"ops_per_sec\":{realloc:.3}}},\
             {{\"job\":\"fig1\",\"status\":\"ok\",\"wall_s\":0.1,\"ops\":0,\"ops_per_sec\":0.000}}]}}"
        )
    }

    #[test]
    fn baseline_comparison_passes_within_limit_and_fails_beyond() {
        let base = bench_doc(1000.0, 2000.0);
        // 10 % down on one job: inside a 20 % limit, outside a 5 % one.
        let cur = bench_doc(900.0, 2100.0);
        let table = compare_baseline(&cur, &base, 20.0).expect("within limit");
        assert!(table.contains("age:ffs"), "{table}");
        assert!(table.contains("-10.0%"), "{table}");
        let err = compare_baseline(&cur, &base, 5.0).unwrap_err();
        assert!(err.contains("age:ffs regressed 10.0%"), "{err}");
        // Improvements never fail, whatever the limit.
        assert!(compare_baseline(&bench_doc(5000.0, 9000.0), &base, 0.0).is_ok());
    }

    #[test]
    fn baseline_comparison_gates_every_throughput_job() {
        // Not just the age:* replays — any job reporting ops/sec (the
        // profile sweeps, snapshot validation, ...) is held to the gate.
        let doc = |profiles: f64| {
            format!(
                "{{\"schema\":\"bench-aging-v1\",\"total_wall_s\":1.0,\"jobs\":[\
                 {{\"job\":\"age:ffs\",\"status\":\"ok\",\"wall_s\":0.2,\"ops\":100,\"ops_per_sec\":1000.000}},\
                 {{\"job\":\"profiles\",\"status\":\"ok\",\"wall_s\":0.3,\"ops\":100,\"ops_per_sec\":{profiles:.3}}}]}}"
            )
        };
        let base = doc(4000.0);
        let table = compare_baseline(&doc(4100.0), &base, 20.0).expect("within limit");
        assert!(table.contains("profiles"), "{table}");
        let err = compare_baseline(&doc(2000.0), &base, 20.0).unwrap_err();
        assert!(err.contains("profiles regressed 50.0%"), "{err}");
    }

    #[test]
    fn baseline_comparison_rejects_missing_jobs_and_bad_docs() {
        let base = bench_doc(1000.0, 2000.0);
        let missing = "{\"schema\":\"bench-aging-v1\",\"total_wall_s\":0.1,\"jobs\":[\
             {\"job\":\"age:ffs\",\"status\":\"ok\",\"wall_s\":0.2,\"ops\":100,\"ops_per_sec\":999.0}]}";
        assert!(compare_baseline(missing, &base, 20.0).is_err());
        assert!(compare_baseline("{}", &base, 20.0).is_err());
        assert!(compare_baseline(&base, "not json", 20.0).is_err());
    }
}
