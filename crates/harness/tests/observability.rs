//! The observability layer's core guarantee, end to end through the
//! driver: `--metrics` cannot change a byte of any exhibit, and the
//! captured snapshot actually covers the run — non-empty seek and
//! realloc histograms, plus a span for every job in the DAG.
//!
//! One test function on purpose: the obs registry and span tree are
//! process-global, so concurrent tests in this binary would interleave
//! their recordings.

use std::collections::BTreeMap;
use std::fs;
use std::path::Path;

use harness::ctx::Options;
use harness::driver::{self, EXHIBITS};

fn run_all(out: &Path, metrics: Option<String>) -> BTreeMap<String, Vec<u8>> {
    let opts = Options {
        days: 2,
        seed: 42,
        out_dir: out.to_str().unwrap().to_string(),
        jobs: 2,
        // Both runs replay the full workload (no warm artifacts), so
        // the comparison covers the instrumented aging path too.
        no_cache: true,
        metrics,
        ..Options::default()
    };
    let summary = driver::run(&opts, EXHIBITS).expect("driver runs");
    assert!(summary.all_ok(), "an experiment failed");
    EXHIBITS
        .iter()
        .map(|name| {
            let bytes = fs::read(out.join(format!("{name}.tsv"))).expect("tsv written");
            assert!(!bytes.is_empty(), "{name}.tsv is empty");
            (name.to_string(), bytes)
        })
        .collect()
}

#[test]
fn metrics_change_no_exhibit_bytes_and_cover_the_run() {
    let base = std::env::temp_dir().join(format!("harness-obs-{}", std::process::id()));
    let _ = fs::remove_dir_all(&base);
    let (off_dir, on_dir) = (base.join("off"), base.join("on"));
    let metrics_path = base.join("metrics.json");

    let off = run_all(&off_dir, None);
    assert!(!obs::enabled(), "no --metrics must leave obs disabled");
    let on = run_all(&on_dir, Some(metrics_path.to_str().unwrap().to_string()));
    for name in EXHIBITS {
        assert_eq!(
            off[*name], on[*name],
            "{name}.tsv differs with observability enabled"
        );
    }

    let text = fs::read_to_string(&metrics_path).expect("metrics.json written");
    let snap = obs::snapshot::Snapshot::from_json(&text).expect("metrics.json parses");

    // The device and allocator histograms saw real traffic.
    let seeks = snap.hist("disk.seek_cyls").expect("seek histogram");
    assert!(seeks.count > 0, "no seek distances recorded");
    assert_eq!(seeks.buckets.iter().sum::<u64>(), seeks.count);
    let windows = snap
        .hist("ffs.realloc_window_blocks")
        .expect("realloc window histogram");
    assert!(windows.count > 0, "no realloc windows recorded");
    assert!(snap.counter("ffs.block_allocs").unwrap_or(0) > 0);
    assert!(snap.counter("aging.ops_replayed").unwrap_or(0) > 0);

    // The span tree covers every job the driver scheduled: each
    // exhibit plus the two agings appear as top-level `job:` spans.
    let jobs: Vec<&str> = snap
        .spans
        .iter()
        .filter(|s| s.depth == 0 && s.path.starts_with("job:"))
        .map(|s| s.path.as_str())
        .collect();
    for name in EXHIBITS {
        let want = format!("job:{name}");
        assert!(
            jobs.contains(&want.as_str()),
            "missing span {want}: {jobs:?}"
        );
    }
    for id in ["age:ffs", "age:realloc"] {
        let want = format!("job:{id}");
        assert!(
            jobs.contains(&want.as_str()),
            "missing span {want}: {jobs:?}"
        );
        // Aging jobs nest the per-day replay phases.
        let day = format!("{want}/age_day");
        assert!(
            snap.span(&day).is_some_and(|s| s.calls == 2),
            "expected 2 age_day calls under {want}"
        );
        assert!(snap.span(&format!("{day}/replay_ops")).is_some());
    }

    // The human rendering mentions the profile and the histograms.
    let rendered = snap.render();
    assert!(rendered.contains("age_day"), "{rendered}");
    assert!(rendered.contains("disk.seek_cyls"), "{rendered}");

    let _ = fs::remove_dir_all(&base);
}
