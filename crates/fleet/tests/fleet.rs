//! End-to-end fleet properties: worker-count determinism, crash resume
//! through the checkpoint store, and shard-count-independent memory.

use std::path::PathBuf;

use exp::RunRecord;
use fleet::{run_fleet, FleetOptions};

fn tmpdir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("fleet-e2e-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

fn read(dir: &std::path::Path, name: &str) -> String {
    std::fs::read_to_string(dir.join(name)).unwrap_or_else(|e| panic!("{name}: {e}"))
}

/// A journal digest that ignores the only nondeterministic field
/// (`wall_s`): equal fingerprints mean byte-equal supervision behavior.
fn fingerprint(jsonl: &str) -> Vec<String> {
    jsonl
        .lines()
        .map(|line| {
            let mut out = String::new();
            let mut rest = line;
            while let Some(i) = rest.find(",\"wall_s\":") {
                out.push_str(&rest[..i]);
                let tail = &rest[i + ",\"wall_s\":".len()..];
                let end = tail
                    .find(|c: char| {
                        !(c.is_ascii_digit() || c == '.' || c == '-' || c == 'e' || c == '+')
                    })
                    .unwrap_or(tail.len());
                rest = &tail[end..];
            }
            out.push_str(rest);
            out
        })
        .collect()
}

#[test]
fn worker_count_never_changes_an_output_byte() {
    let out_serial = tmpdir("det-serial");
    let out_pool = tmpdir("det-pool");
    let base = FleetOptions {
        shards: 24,
        fleet_seed: 11,
        days: 3,
        no_cache: true,
        ..FleetOptions::default()
    };
    let serial = run_fleet(&FleetOptions {
        jobs: 1,
        out_dir: out_serial.display().to_string(),
        ..base.clone()
    })
    .unwrap();
    let pool = run_fleet(&FleetOptions {
        jobs: 4,
        out_dir: out_pool.display().to_string(),
        ..base
    })
    .unwrap();
    assert!(serial.all_ok() && pool.all_ok());
    assert!(serial.total_ops > 0);
    assert_eq!(serial.total_ops, pool.total_ops);

    // The acceptance bar: byte-identical exhibits...
    assert_eq!(
        read(&out_serial, "fleet_layout.tsv"),
        read(&out_pool, "fleet_layout.tsv")
    );
    assert_eq!(
        read(&out_serial, "fleet_freefrag.tsv"),
        read(&out_pool, "fleet_freefrag.tsv")
    );
    // ...and the summaries match what was written.
    assert_eq!(serial.layout_tsv, pool.layout_tsv);
    assert_eq!(read(&out_serial, "fleet_layout.tsv"), serial.layout_tsv);

    // Journals agree on everything but wall time.
    assert_eq!(
        fingerprint(&read(&out_serial, "runs.jsonl")),
        fingerprint(&read(&out_pool, "runs.jsonl"))
    );
    let _ = std::fs::remove_dir_all(&out_serial);
    let _ = std::fs::remove_dir_all(&out_pool);
}

#[test]
fn a_killed_fleet_resumes_without_re_aging_finished_shards() {
    let out_a = tmpdir("resume-a");
    let out_b = tmpdir("resume-b");
    let out_c = tmpdir("resume-c");
    let cache = tmpdir("resume-cache");
    let base = FleetOptions {
        shards: 8,
        fleet_seed: 5,
        days: 2,
        jobs: 2,
        cache_dir: Some(cache.display().to_string()),
        ..FleetOptions::default()
    };

    // Run A: one shard job panics mid-fleet (the chaos hook stands in
    // for a crash); every other shard checkpoints.
    let killed = run_fleet(&FleetOptions {
        out_dir: out_a.display().to_string(),
        chaos_kill: Some("shard:0003".into()),
        ..base.clone()
    })
    .unwrap();
    assert!(!killed.all_ok());
    assert_eq!(killed.shards_ok, 7);
    assert_eq!(killed.failures[0].0, "shard:0003");

    // Run B is a plain rerun over the same store: only the killed shard
    // re-ages.
    let resumed = run_fleet(&FleetOptions {
        out_dir: out_b.display().to_string(),
        ..base.clone()
    })
    .unwrap();
    assert!(resumed.all_ok());
    for line in read(&out_b, "runs.jsonl").lines() {
        let Some(job) = RunRecord::field_str(line, "job") else {
            continue;
        };
        if job == "fleet" {
            continue;
        }
        if job == "shard:0003" {
            assert_eq!(RunRecord::field_str(line, "cache").unwrap(), "miss");
            assert!(RunRecord::field_num(line, "ops").unwrap() > 0.0, "re-aged");
        } else {
            assert_eq!(RunRecord::field_str(line, "cache").unwrap(), "hit");
            assert_eq!(
                RunRecord::field_num(line, "ops").unwrap(),
                0.0,
                "not re-aged"
            );
        }
    }

    // The resumed fleet's exhibits equal a fresh uncached serial run's:
    // resume changed the cost, never the science.
    let fresh = run_fleet(&FleetOptions {
        out_dir: out_c.display().to_string(),
        jobs: 1,
        cache_dir: None,
        no_cache: true,
        ..base
    })
    .unwrap();
    assert!(fresh.all_ok());
    assert_eq!(
        read(&out_b, "fleet_layout.tsv"),
        read(&out_c, "fleet_layout.tsv")
    );
    assert_eq!(
        read(&out_b, "fleet_freefrag.tsv"),
        read(&out_c, "fleet_freefrag.tsv")
    );
    for d in [&out_a, &out_b, &out_c, &cache] {
        let _ = std::fs::remove_dir_all(d);
    }
}

#[test]
fn accumulator_memory_is_independent_of_fleet_size() {
    let out_small = tmpdir("mem-small");
    let out_large = tmpdir("mem-large");
    let base = FleetOptions {
        days: 1,
        fleet_seed: 3,
        no_cache: true,
        ..FleetOptions::default()
    };
    let small = run_fleet(&FleetOptions {
        shards: 16,
        out_dir: out_small.display().to_string(),
        ..base.clone()
    })
    .unwrap();
    let large = run_fleet(&FleetOptions {
        shards: 256,
        out_dir: out_large.display().to_string(),
        ..base
    })
    .unwrap();
    assert!(small.all_ok() && large.all_ok());
    // 16× the shards, identical accumulator: O(days × buckets), not
    // O(fleet × days).
    assert_eq!(small.accum_buckets, large.accum_buckets);
    assert!(large.total_ops > small.total_ops);
    let _ = std::fs::remove_dir_all(&out_small);
    let _ = std::fs::remove_dir_all(&out_large);
}

#[test]
fn fleet_metrics_flow_into_the_snapshot() {
    let out = tmpdir("metrics");
    let snap_path = out.join("metrics.json");
    std::fs::create_dir_all(&out).unwrap();
    let summary = run_fleet(&FleetOptions {
        shards: 4,
        fleet_seed: 2,
        days: 1,
        jobs: 2,
        no_cache: true,
        out_dir: out.display().to_string(),
        metrics: Some(snap_path.display().to_string()),
        ..FleetOptions::default()
    })
    .unwrap();
    assert!(summary.all_ok());
    let snap = std::fs::read_to_string(&snap_path).unwrap();
    // The obs registry is process-global and other tests may run
    // concurrently, so assert presence, not exact counts.
    assert!(snap.contains("fleet.shards_done"), "{snap}");
    assert!(snap.contains("fleet.shard_wall_us"));
    assert!(snap.contains("fleet:shard"));
    let _ = std::fs::remove_dir_all(&out);
}
