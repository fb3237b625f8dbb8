//! The benchmark's names: workloads, end-to-end metrics with their
//! bounds, per-layer metrics with the end-to-end metric each should
//! move. `BENCHMARK.json` is generated from these tables (`ffsbench
//! benchmark-json`) and a test holds the committed file equal to them.

use crate::json::Value;

/// Seconds one run measures when `--seconds` is not given; also
/// `run_seconds` in `BENCHMARK.json`.
pub const RUN_SECONDS: u64 = 10;

/// Set-up (input generation plus one warm-up rep) is repeated this many
/// times per run and `setup_s` is the median, because a single set-up
/// is one sample.
pub const SETUP_CYCLES: usize = 3;

/// A run times at least this many reps however long they take.
pub const MIN_REPS: usize = 3;

/// Seed of EXPERIMENTS.md, the default.
pub const DEFAULT_SEED: u64 = 1996;

/// Which direction is an improvement.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    /// Larger values are better.
    Higher,
    /// Smaller values are better.
    Lower,
}

impl Better {
    /// The word `BENCHMARK.json` uses.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// One workload.
pub struct WorkloadDef {
    /// Name on the command line and in result files.
    pub name: &'static str,
    /// One line: why it was chosen.
    pub why: &'static str,
    /// What `ops_per_s` counts.
    pub work_unit: &'static str,
}

/// Every workload is a closed loop: one client (this process) starts
/// the next rep when the previous one returns, with at most
/// `min(2, nproc)` threads inside a rep.
pub const WORKLOADS: &[WorkloadDef] = &[
    WorkloadDef {
        name: "paper-all",
        why: "cold harness run of every `all` exhibit at paper scale (300 days, 502 MB, jobs=min(2,nproc)): what a user runs; only place DAG shape and the critical path show",
        work_unit: "replayed file ops summed over runs.jsonl",
    },
    WorkloadDef {
        name: "age-paper",
        why: "aging::replay of the 300-day paper workload under Orig then Realloc: block allocator, cluster search and realloc pass do nearly all the work; codecs, disk model and engine do none",
        work_unit: "replayed file ops (both policies)",
    },
    WorkloadDef {
        name: "age-smallfile",
        why: "spool/maildir/build small-file profiles (two derived seeds each), 120 days, dense inodes, Realloc: same ffs alloc/cg layer on the fragment path; a block-path gain that costs fragments shows here",
        work_unit: "replayed file ops (three profiles, each from two derived seeds)",
    },
    WorkloadDef {
        name: "nightly-jobs",
        why: "120-day replay with nightly snapshots, checkpoints, fsck and greedy/200 defrag, derived-workload replay, text round trips, ArtifactStore: background work and hand-rolled formats dominate",
        work_unit: "replayed file ops (original + snapshot-derived workload)",
    },
    WorkloadDef {
        name: "iobench-aged",
        why: "run_point over the paper's file sizes, run_hot_files and raw read/write on two images aged in set-up: iobench (image clone and creates included) and the disk::Device model do the work; aging none",
        work_unit: "simulated disk requests (DeviceStats reads + writes)",
    },
    WorkloadDef {
        name: "fleet-jobs",
        why: "run_fleet of 512 shards x 60 days cold, then again warm: per-job work is ~3 ms, so exp engine/store/record overhead, --jobs scaling and per-day free-space taps are visible",
        work_unit: "replayed file ops of the cold run",
    },
];

/// One end-to-end metric the driver gates.
pub struct EndToEnd {
    /// Name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// Share of the parent's median by which it may get worse.
    pub bound: f64,
    /// What it is.
    pub what: &'static str,
}

/// Measured with tracing off, on every workload. The bounds are as wide
/// as the contract allows because each has to cover the metric's spread
/// over ten different seeds on its worst workload with room to spare
/// (README.md, "Calibration"): the seed moves `ops_per_s` by about 11 % on
/// `age-smallfile`, and identical runs minutes apart differ by 5–15 % on
/// the shared two-core box the numbers were taken on.
pub const END_TO_END: &[EndToEnd] = &[
    EndToEnd {
        name: "ops_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
        what: "work units per host second, median over the timed reps",
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.25,
        what: "peak RSS (VmHWM) of the workload's process during a rep, median over the timed reps",
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        what: "host time from nothing to ready-to-time (input generation, aging the inputs, directories, one warm-up rep); median of the run's set-up cycles",
    },
];

/// Exact, simulated end-to-end results: recorded in every result file
/// and compared for equality by `ffsbench compare`, but not listed in
/// `BENCHMARK.json` — they are zero or undefined on some workloads and
/// differ from seed to seed by construction, which a relative bound on
/// a median over seeds cannot express.
pub const EXACT: &[(&str, &str, &str)] = &[
    (
        "failed_ops_share",
        "ratio",
        "(skipped creates + jobs/shards/exhibits not ok + iobench errors) / attempted",
    ),
    (
        "paper_err_pct",
        "%",
        "mean over the workload's paper_refs.tsv rows of abs(measured - paper) / abs(paper) x 100",
    ),
    (
        "artifact_kb",
        "KB",
        "bytes persisted per rep through checkpoints, snapshots and exp::store",
    ),
];

/// One per-layer metric of the traced run.
pub struct Layer {
    /// Name (`layer.part.metric`).
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// The end-to-end metric and workload it should move.
    pub moves: &'static str,
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    moves: &'static str,
) -> Layer {
    Layer {
        name,
        unit,
        better,
        moves,
    }
}

use Better::{Higher as H, Lower as L};

const AGE: &str = "ops_per_s on age-paper, then paper-all";
const SMALL: &str = "ops_per_s on age-smallfile";
const BOTH_AGE: &str = "ops_per_s on age-paper and age-smallfile";
const NIGHTLY: &str = "ops_per_s on nightly-jobs";
const IOB: &str = "ops_per_s on iobench-aged";
const IOB_DEV: &str = "ops_per_s on iobench-aged, by at most the device model's ~10 % of a rep";
const FLEET: &str = "ops_per_s on fleet-jobs";
const ALL: &str = "ops_per_s on paper-all";
const GEN: &str = "setup_s on age-paper and age-smallfile; ops_per_s on paper-all and fleet-jobs";
const NONE: &str = "no end-to-end metric (the flag is off in every workload)";
const SIM: &str = "paper_err_pct only";

/// Every per-layer metric. `.ns/.us/.ms` are mean busy time per call;
/// counts, ratios of counts and `sim.*` repeat exactly for one seed.
pub const PER_LAYER: &[Layer] = &[
    // aging
    layer("aging.generate.ms", "ms", L, GEN),
    layer("aging.generate.ops_per_s", "1/s", H, GEN),
    layer("aging.replay.orig_ops_per_s", "1/s", H, AGE),
    layer("aging.replay.realloc_ops_per_s", "1/s", H, AGE),
    layer("aging.replay.day_p50_ms", "ms", L, AGE),
    layer("aging.replay.day_p99_ms", "ms", L, AGE),
    layer("aging.replay.overhead_pct", "%", L, AGE),
    layer("aging.livemap.ns_per_op", "ns", L, BOTH_AGE),
    layer("aging.snapshot.take.ms", "ms", L, NIGHTLY),
    layer("aging.snapshot.to_text.ms", "ms", L, NIGHTLY),
    layer("aging.snapshot.from_text.ms", "ms", L, NIGHTLY),
    layer(
        "aging.snapshot.bytes",
        "bytes",
        L,
        "artifact_kb on nightly-jobs",
    ),
    layer("aging.snapshot.diff_to_workload.ms", "ms", L, NIGHTLY),
    layer("aging.snapshot.nightly_share", "ratio", L, NIGHTLY),
    layer("aging.checkpoint.take.ms", "ms", L, NIGHTLY),
    layer("aging.checkpoint.to_text.ms", "ms", L, NIGHTLY),
    layer("aging.checkpoint.from_text.ms", "ms", L, NIGHTLY),
    layer("aging.checkpoint.restore.ms", "ms", L, NIGHTLY),
    layer(
        "aging.checkpoint.bytes",
        "bytes",
        L,
        "artifact_kb on nightly-jobs",
    ),
    // ffs ops and counts
    layer("ffs.create.ns", "ns", L, AGE),
    layer("ffs.create.p99_us", "us", L, AGE),
    layer("ffs.create.count", "count", L, AGE),
    layer("ffs.remove.ns", "ns", L, BOTH_AGE),
    layer("ffs.remove.count", "count", L, BOTH_AGE),
    layer("ffs.rewrite.ns", "ns", L, AGE),
    layer("ffs.rewrite.count", "count", L, AGE),
    layer("ffs.alloc.block_allocs", "count", L, AGE),
    layer("ffs.alloc.frag_allocs", "count", L, SMALL),
    layer("ffs.alloc.pref_hit_ratio", "ratio", H, AGE),
    layer("ffs.alloc.cg_spill_ratio", "ratio", L, SMALL),
    layer("ffs.alloc.frag_split_ratio", "ratio", L, SMALL),
    layer("ffs.realloc.windows", "count", L, AGE),
    layer("ffs.realloc.move_ratio", "ratio", L, AGE),
    layer("ffs.realloc.failure_ratio", "ratio", L, AGE),
    layer("ffs.realloc.blocks_moved", "count", L, AGE),
    layer("ffs.realloc.pass_share", "ratio", L, AGE),
    // ffs search and index maintenance
    layer("ffs.cg.find_free_block.ns", "ns", L, AGE),
    layer("ffs.cg.find_free_cluster.ns", "ns", L, AGE),
    layer("ffs.cg.find_free_cluster_near.ns", "ns", L, AGE),
    layer("ffs.cg.find_free_cluster_bestfit.ns", "ns", L, AGE),
    layer("ffs.cg.cluster_hit_ratio", "ratio", H, AGE),
    layer("ffs.cg.find_frag_run.ns", "ns", L, SMALL),
    layer("ffs.cg.find_frag_run_bestfit.ns", "ns", L, NONE),
    layer("ffs.cg.block_toggle.ns", "ns", L, BOTH_AGE),
    layer("ffs.cg.frag_toggle.ns", "ns", L, SMALL),
    layer("ffs.cg.alloc_inode.ns", "ns", L, SMALL),
    layer("ffs.frag.bestfit_cost_ratio", "ratio", L, NONE),
    layer("ffs.table.blocklist_push.ns", "ns", L, BOTH_AGE),
    layer("ffs.table.slab_insert_remove.ns", "ns", L, BOTH_AGE),
    // ffs analytics and recovery
    layer("ffs.freespace.free_stats.us", "us", L, FLEET),
    layer("ffs.freespace.frag_stats.us", "us", L, FLEET),
    layer("ffs.layout.by_size.ms", "ms", L, ALL),
    layer("ffs.layout.recompute.ms", "ms", L, NIGHTLY),
    layer("ffs.check.ms", "ms", L, NIGHTLY),
    layer("ffs.repair.ms", "ms", L, NIGHTLY),
    layer("ffs.fs.clone.ms", "ms", L, IOB),
    layer("ffs.fs.digest.ms", "ms", L, NIGHTLY),
    layer("ffs.parallel.t2_speedup", "ratio", H, NONE),
    // defrag
    layer("defrag.pass.us_per_move", "us", L, NIGHTLY),
    layer("defrag.pass.moves", "count", H, NIGHTLY),
    // disk / iobench
    layer("disk.device.read_req_per_s", "1/s", H, IOB_DEV),
    layer("disk.device.write_req_per_s", "1/s", H, IOB_DEV),
    layer("disk.device.sim_us_per_req", "us", L, SIM),
    layer("disk.device.buffer_hit_ratio", "ratio", H, SIM),
    layer("disk.device.seek_share", "ratio", L, SIM),
    layer("disk.device.rot_share", "ratio", L, SIM),
    layer("iobench.seq.point_p50_ms", "ms", L, IOB),
    layer("iobench.seq.setup_share", "ratio", L, IOB),
    layer("iobench.seq.sim_req", "count", L, IOB),
    layer("iobench.hot.ms", "ms", L, IOB),
    // exp / fleet / obs / harness
    layer("exp.engine.us_per_job", "us", L, FLEET),
    layer("exp.record.to_json.us", "us", L, FLEET),
    layer("exp.store.save.ms", "ms", L, NIGHTLY),
    layer(
        "exp.store.load.ms",
        "ms",
        L,
        "ops_per_s on nightly-jobs; harness.all_warm_s",
    ),
    layer(
        "exp.store.aged_bytes",
        "bytes",
        L,
        "artifact_kb on nightly-jobs and paper-all",
    ),
    layer("exp.age_cached.hit.ms", "ms", L, "harness.all_warm_s"),
    layer("fleet.shard.p50_ms", "ms", L, FLEET),
    layer("fleet.shard.p99_ms", "ms", L, FLEET),
    layer("fleet.jobs2_speedup", "ratio", H, FLEET),
    layer("fleet.warm_rerun.ms", "ms", L, FLEET),
    layer("fleet.accum.fold.us", "us", L, FLEET),
    layer("obs.on_cost_pct", "%", L, NONE),
    layer("obs.snapshot.to_json.ms", "ms", L, NONE),
    layer(
        "harness.all_warm_s",
        "s",
        L,
        "no end-to-end metric (every rep of paper-all is cold)",
    ),
    layer("harness.critical_path_share", "ratio", L, ALL),
    layer("harness.job.age_ffs_s", "s", L, ALL),
    layer("harness.job.age_realloc_s", "s", L, ALL),
    layer("harness.job.age_realref_s", "s", L, ALL),
    layer("harness.job.profiles_s", "s", L, ALL),
    layer("harness.job.snapval_s", "s", L, ALL),
    layer("harness.job.fig4_s", "s", L, ALL),
    layer("harness.job.fig5_s", "s", L, ALL),
    // simulated results and the bench itself
    layer("sim.layout_day300_ffs", "ratio", H, SIM),
    layer("sim.layout_day300_realloc", "ratio", H, SIM),
    layer("sim.layout_day1_gap", "ratio", H, SIM),
    layer("sim.table2_read_gain_pct", "%", H, SIM),
    layer("sim.table2_write_gain_pct", "%", H, SIM),
    layer("sim.hot_set_share_pct", "%", L, SIM),
    layer("sim.raw_read_mb_s", "MB/s", H, SIM),
    layer("sim.raw_write_mb_s", "MB/s", H, SIM),
    layer(
        "bench.trace_overhead_pct",
        "%",
        L,
        "none: the cost of the clock around every op in the traced run",
    ),
    layer(
        "bench.host_spin_ms",
        "ms",
        L,
        "none: a fixed integer loop, to tell a noisy box from a slow commit",
    ),
];

/// The command `BENCHMARK.json` names; the driver appends `--workload`,
/// `--seed`, `--seconds` and `--trace`.
pub const COMMAND: &[&str] = &[
    "cargo",
    "run",
    "--release",
    "--quiet",
    "--manifest-path",
    "benchmark/Cargo.toml",
    "--",
    "run",
];

/// Directories that hold the benchmark and nothing else.
pub const PATHS: &[&str] = &["benchmark"];

/// `BENCHMARK.json`, generated.
pub fn benchmark_json() -> String {
    let strs = |v: &[&str]| Value::Arr(v.iter().map(|s| Value::Str(s.to_string())).collect());
    let s = |v: &str| Value::Str(v.to_string());
    let doc: Vec<(&str, Value)> = vec![
        ("command", strs(COMMAND)),
        ("paths", strs(PATHS)),
        ("run_seconds", Value::Num(RUN_SECONDS as f64)),
        (
            "workloads",
            Value::Arr(
                WORKLOADS
                    .iter()
                    .map(|w| Value::Obj(vec![("name".into(), s(w.name)), ("why".into(), s(w.why))]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Value::Arr(
                END_TO_END
                    .iter()
                    .map(|m| {
                        Value::Obj(vec![
                            ("name".into(), s(m.name)),
                            ("unit".into(), s(m.unit)),
                            ("better".into(), s(m.better.as_str())),
                            ("bound".into(), Value::Num(m.bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Value::Arr(
                PER_LAYER
                    .iter()
                    .map(|m| {
                        Value::Obj(vec![
                            ("name".into(), s(m.name)),
                            ("unit".into(), s(m.unit)),
                            ("better".into(), s(m.better.as_str())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ];
    // One top-level key per line, one array element per line: the file
    // is read by people in diffs as much as by the driver.
    let mut out = String::from("{\n");
    for (i, (k, v)) in doc.iter().enumerate() {
        let sep = if i + 1 < doc.len() { "," } else { "" };
        match v {
            Value::Arr(items) if matches!(items.first(), Some(Value::Obj(_))) => {
                out.push_str(&format!("  \"{k}\": [\n"));
                for (j, item) in items.iter().enumerate() {
                    let isep = if j + 1 < items.len() { "," } else { "" };
                    out.push_str(&format!("    {item}{isep}\n"));
                }
                out.push_str(&format!("  ]{sep}\n"));
            }
            _ => out.push_str(&format!("  \"{k}\": {v}{sep}\n")),
        }
    }
    out.push_str("}\n");
    out
}

/// The tables above as Markdown (`ffsbench catalog`): what
/// `BENCHMARK.json`'s fixed schema has no room for — work units, what
/// each metric is, and which end-to-end metric each layer metric should
/// move. README.md carries this text verbatim; a test holds it there.
pub fn markdown() -> String {
    let mut out = String::new();
    out.push_str("| workload | work unit of `ops_per_s` | why |\n|---|---|---|\n");
    for w in WORKLOADS {
        out.push_str(&format!("| `{}` | {} | {} |\n", w.name, w.work_unit, w.why));
    }
    out.push_str("\n| end-to-end metric | unit | better | bound | what |\n|---|---|---|---|---|\n");
    for m in END_TO_END {
        out.push_str(&format!(
            "| `{}` | {} | {} | {} % | {} |\n",
            m.name,
            m.unit,
            m.better.as_str(),
            m.bound * 100.0,
            m.what
        ));
    }
    for (name, unit, what) in EXACT {
        out.push_str(&format!("| `{name}` | {unit} | lower | exact | {what} |\n"));
    }
    out.push_str("\n| per-layer metric | unit | better | should move |\n|---|---|---|---|\n");
    for m in PER_LAYER {
        out.push_str(&format!(
            "| `{}` | {} | {} | {} |\n",
            m.name,
            m.unit,
            m.better.as_str(),
            m.moves
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn name_ok(n: &str) -> bool {
        !n.is_empty()
            && n.len() <= 64
            && n.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && n.chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    fn unit_ok(u: &str) -> bool {
        !u.is_empty()
            && u.len() <= 16
            && u.chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
    }

    #[test]
    fn names_and_units_fit_the_contract() {
        let mut names: Vec<&str> = Vec::new();
        for w in WORKLOADS {
            assert!(name_ok(w.name), "{}", w.name);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
            names.push(w.name);
        }
        for m in END_TO_END {
            assert!(name_ok(m.name) && unit_ok(m.unit), "{}", m.name);
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
            names.push(m.name);
        }
        for m in PER_LAYER {
            assert!(name_ok(m.name) && unit_ok(m.unit), "{}", m.name);
            assert!(!m.moves.is_empty());
            names.push(m.name);
        }
        for (n, u, _) in EXACT {
            assert!(name_ok(n) && unit_ok(u), "{n}");
            names.push(n);
        }
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used twice");
    }

    #[test]
    fn counts_stay_within_the_contract() {
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        assert!((1..=60).contains(&RUN_SECONDS));
        assert!(COMMAND.len() <= 32 && COMMAND.iter().all(|c| c.len() <= 200));
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        let largest = END_TO_END.iter().map(|m| m.bound).fold(0.0, f64::max);
        assert_eq!(setup.bound, largest, "setup_s carries the largest bound");
    }

    #[test]
    fn readme_carries_the_generated_tables() {
        let readme = include_str!("../README.md");
        assert!(
            readme.contains(&markdown()),
            "paste the output of `ffsbench catalog` into README.md"
        );
    }

    #[test]
    fn committed_benchmark_json_is_the_generated_one() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(
            committed,
            benchmark_json(),
            "regenerate with `ffsbench benchmark-json > BENCHMARK.json`"
        );
        assert!(committed.len() <= 64 * 1024);
        let v = Value::parse(&committed).unwrap();
        let keys: Vec<&str> = v
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
    }
}
